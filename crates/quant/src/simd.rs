//! The output-stationary W4A4 micro-kernel and its instruction-set
//! dispatch.
//!
//! [`crate::kernels::gemm_packed`] hands a packed weight to one
//! function, `sweep`: *for up to four activations at once and for each
//! tile of a run of tiles, add the rescaled integer dot products of every
//! group of the tile's input quads into its 32 outputs*. The accumulators
//! stay where they are for the whole group and the outputs for the whole
//! tile (registers, in the vector forms) while the weights stream past
//! once and are shared by every activation of the block — the dataflow of
//! the paper's MMU. A batch of more than four sweeps a few tiles at a
//! time for each block of four, so those tiles stay L1-hot between
//! blocks — unless the host grants AMX: then 5–16 activations share one
//! pass of AMX tile products.
//!
//! # The block the kernel consumes
//!
//! One block is 64 bytes: the 128 weights of one 32-output tile × one
//! input quad `i..i+4`, each stored as the unsigned nibble
//! `code + 8 ∈ [0, 15]`. For `j = 0..16` and `t = 0..4`:
//!
//! ```text
//!                        byte 4j+t
//!   ┌────────────────────┬──────────────────┐
//!   │ hi  w[i+t][16+j]   │ lo  w[i+t][j]    │
//!   └────────────────────┴──────────────────┘
//!
//!   bytes 4j..4j+4: the quad's four inputs of output j (lo) / 16+j (hi)
//! ```
//!
//! Masking the low nibbles of a block yields, per 32-bit lane `j`, the
//! four bytes `w[i..i+4][j]`; shifting yields the same for output
//! `16 + j`. Against a broadcast quad of activation codes
//! `[q₀, q₁, q₂, q₃]` that is the operand shape of both instruction
//! sets' byte dot products:
//!
//! * **AVX-512 VNNI** — `dpbusd(acc, weights_u8, quad_i8)` adds
//!   `Σₜ w[i+t][j]·qₜ` into i32 lane `j`: 64 multiply-accumulates per
//!   instruction, straight into the accumulator. A step is load →
//!   `and` / `srli`+`and` → per activation one broadcast and two
//!   `dpbusd`.
//! * **AVX2** — a block is two 32-byte halves of 16 outputs (`0..8` and
//!   `16..24`, then `8..16` and `24..32`). Three or four activations run
//!   the halves one pass after the other, so their accumulators fit the
//!   16 registers; one or two take both in one pass.
//!   `maddubs(weights_u8, quad_i8)` leaves `w[i][j]·q₀ + w[i+1][j]·q₁`
//!   and `w[i+2][j]·q₂ + w[i+3][j]·q₃` in two i16 lanes, added up in i16;
//!   the flush folds the two with `madd_epi16(acc, 1)` into i32. A step
//!   is load → `and` / `srli`+`and` → per activation one broadcast, two
//!   `maddubs` and two adds per 64 multiply-accumulates.
//!
//! * **AMX-INT8** — the same block is one row of an AMX B tile, twice:
//!   the low nibbles are 16 outputs × 4 inputs in the `tdpbsud` operand
//!   order (column `j` = bytes `4j..4j+4`), and so are the high ones. A
//!   chunk of up to 16 quads of one tile is split into two staged
//!   16 × 64-byte B tiles (low and high plane); the A tile is the
//!   activations' code quads, up to 16 rows of 64 bytes read in place
//!   (row stride `4·quads` bytes); `tdpbsud C_lo, A, B_lo` and
//!   `tdpbsud C_hi, A, B_hi` add `Σₜ w[i+t][j]·qₜ` for every activation
//!   row and output column into i32 C tiles — 16 × 16 × 64
//!   multiply-accumulates each.
//!
//! Weights enter unsigned because all three instructions want one unsigned
//! operand; the caller removes the bias exactly afterwards
//! (`Σ(c+8)·q − 8·Σq`). Groups are padded to whole quads with code 0
//! (nibble 8) against activation code 0, which adds nothing.
//!
//! # Why the accumulators are exact
//!
//! A `dpbusd` lane — or a `tdpbsud` C element — gains at most
//! `4·15·127` per quad in i32, and `PackedW4` rejects widths that break
//! `in_features · 15 · 127 < 2³¹`, so a whole group accumulates in i32
//! with no flush at all.
//!
//! An AVX2 i16 lane gains at most `2·15·qmaxₐ` per quad (`maddubs`
//! itself never saturates: `2·15·127 = 3810`). `flush_quads` turns
//! `n·2·15·qmaxₐ ≤ i16::MAX` into the number of quads one i16 run may
//! take; the sweep never passes more, and each run widens its i16 lanes
//! into i32 before the next starts. W4A4 at group 128 (32 quads) fits
//! one run; 8-bit activations flush every 8 quads (32 inputs).
//!
//! # Forms
//!
//! * **scalar** — the AVX2 form's i16-then-widen sums as 32-lane loops a
//!   baseline compiler vectorizes. It is the oracle the tests compare
//!   against (in debug builds its i16 adds trap on overflow, so the
//!   flush bound is checked on every test run) and the kernel of every
//!   host without AVX2.
//! * **AVX2** and **AVX-512** (both compiled on every `x86_64` build),
//!   as above. Both rescale in registers and keep a tile's outputs there
//!   across its groups, touching the last tile's weight scales and
//!   outputs through masked loads and stores, and both prefetch the
//!   weight stream a few blocks ahead.
//!
//! * **AMX-INT8** (AVX-512 hosts whose kernel grants the tile state,
//!   `Isa::Avx512 { amx: true }`) takes every sweep of
//!   `AMX_MIN_ROWS`–`AMX_ROWS` activations: their count is the M of
//!   the A and C tiles, set in the tile configuration `ldtilecfg` loads
//!   on entry to each sweep (`tilerelease` on exit: tile state is per
//!   thread, and a context switch need not save released tiles). Per
//!   tile, groups go in pairs, each into its own two C tiles; a group
//!   whose quads are not a multiple of 16 ends in a chunk whose staged B
//!   rows past its end are zero, which cancels the codes A reads there
//!   (`GemvScratch` pads the codes by `AMX_QUADS`, so A never reads
//!   past them). The C tiles are stored and each activation's outputs
//!   rescaled with AVX-512 in the scalar order, masked on a short tile.
//!   Fewer activations keep the VNNI form. The floor of
//!   `AMX_MIN_ROWS` = 5 is the measured crossover: at the benchmark's
//!   shapes (group 128; in_proj 256 → 1160, out_proj 512 → 256, LM head
//!   256 → 2048; best of 15 rounds per form, the forms alternated in one
//!   process, three processes) the AMX form took 1.15–1.39× the VNNI
//!   form's time at 4 activations (one VNNI pass), 0.83–0.97× at 5 and
//!   0.43–0.91× at 6–8; at 16 it took 0.50–0.69× (two processes of 7
//!   rounds per form).
//!
//! [`lightmamba_tensor::isa::detect`] picks the form once per process;
//! the model asks it once per step and hands the [`Isa`] down to `sweep`.
//! All compute the same integers and then the same float operations per
//! output — `out += (ia − 8·Σq) as f32 * (wsc * asc)`, groups ascending,
//! multiply then add, no FMA — so dispatched and scalar results are
//! bit-identical (pinned in `tests/kernel_props.rs`).
//!
//! There is no NEON form: the build image has no `aarch64` target to
//! compile-check one against, so `aarch64` runs the scalar form.

use lightmamba_tensor::isa::Isa;

/// Outputs per weight tile.
pub(crate) const TILE: usize = 32;

/// Inputs per block.
pub(crate) const QUAD: usize = 4;

/// Activations that share one pass over a tile's weights.
pub(crate) const KBLOCK: usize = 4;

/// Most activations one pass of the AMX form takes: the rows of its
/// tiles.
pub(crate) const AMX_ROWS: usize = 16;

/// Fewest activations the AMX form takes; smaller sweeps run the VNNI
/// form. The measured crossover (module docs, *Forms*).
pub(crate) const AMX_MIN_ROWS: usize = 5;

/// Input quads one `tdpbsud` reduces: 64 bytes of each activation row.
pub(crate) const AMX_QUADS: usize = 16;

/// Whether a sweep of `rows` activations on `isa` runs the AMX form.
#[inline]
pub(crate) fn amx_form(isa: Isa, rows: usize) -> bool {
    let granted = match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 { amx, .. } => amx.granted(),
        _ => false,
    };
    granted && (AMX_MIN_ROWS..=AMX_ROWS).contains(&rows)
}

/// How far ahead of the block in hand the vector forms prefetch: weights
/// stream from L2 faster than the hardware prefetchers fetch them on
/// their own.
#[cfg(target_arch = "x86_64")]
const PREFETCH_BYTES: usize = 512;

/// One tile × one input quad of packed weights (module docs), aligned so
/// a block is one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(64))]
pub(crate) struct Block(pub(crate) [u8; TILE * QUAD / 2]);

/// One activation's codes for an input quad `i..i+4`, little-endian, so
/// the vector forms broadcast a quad with a plain 32-bit load.
pub(crate) type CodeQuad = i32;

/// Packs four activation codes into a [`CodeQuad`].
#[inline]
pub(crate) fn code_quad(q: [i8; QUAD]) -> CodeQuad {
    i32::from_le_bytes(q.map(|q| q as u8))
}

/// Largest number of input quads one i16 run may accumulate for
/// activation codes bounded by `act_qmax`: an i16 lane holds
/// `2·quads·15·qmaxₐ`, which must not exceed `i16::MAX`.
#[inline]
pub(crate) fn flush_quads(act_qmax: i32) -> usize {
    (i16::MAX as usize / (2 * 15 * act_qmax.max(1) as usize)).max(1)
}

/// Name of the form the micro-kernel runs with on this host: the
/// workspace's instruction-set tier ("avx512", "avx2" or "scalar"), or
/// "avx512+amx" when the AMX-INT8 form takes the sweeps of
/// `AMX_MIN_ROWS` (5) activations or more.
pub use lightmamba_tensor::isa::active_isa;

/// A packed weight, as [`sweep`] reads it: `out_features.div_ceil(TILE)`
/// tiles of `quads` blocks each.
pub(crate) struct Weights<'a> {
    /// Every tile's blocks, one per input quad, group after group.
    pub(crate) blocks: &'a [Block],
    /// Blocks per tile.
    pub(crate) quads: usize,
    /// Quads of a full group (the last group may have fewer).
    pub(crate) quads_per_group: usize,
    /// Groups per tile, `quads.div_ceil(quads_per_group)`.
    pub(crate) groups: usize,
    /// Group `g`'s scale of output `o` is `scales[g · out_features + o]`.
    pub(crate) scales: &'a [f32],
    /// Output width.
    pub(crate) out_features: usize,
}

/// One tile of a [`Weights`].
struct Tile<'a> {
    blocks: &'a [Block],
    /// The tile's first output.
    o0: usize,
    /// Real outputs of the tile (`≤ TILE`; the last tile may be short).
    width: usize,
}

impl Weights<'_> {
    fn tile(&self, t: usize) -> Tile<'_> {
        let o0 = t * TILE;
        Tile {
            blocks: &self.blocks[t * self.quads..][..self.quads],
            o0,
            width: TILE.min(self.out_features - o0),
        }
    }

    /// Group `g`'s quads within a tile.
    fn quads(&self, g: usize) -> std::ops::Range<usize> {
        let q0 = g * self.quads_per_group;
        q0..(q0 + self.quads_per_group).min(self.quads)
    }
}

/// One activation's share of a [`sweep`].
#[derive(Default)]
pub(crate) struct Act<'a> {
    /// One [`CodeQuad`] per block of a tile, then anything: the forms
    /// read the first `quads`, except that the AMX form loads whole
    /// chunks of [`AMX_QUADS`] and needs the codes of a sweep's
    /// activations back to back, `quads` apart.
    pub(crate) codes: &'a [CodeQuad],
    /// `Σq` per group.
    pub(crate) qsum: &'a [i32],
    /// The activation scale per group.
    pub(crate) scales: &'a [f32],
    /// `out_features` outputs; the sweep adds into those of its tiles.
    pub(crate) out: &'a mut [f32],
}

/// The kernel: for each tile of `tiles`, each activation `a` and each
/// group `g` ascending, `a.out[o] += (ia − 8·Σq) as f32 * (wsc * asc)`,
/// where `ia` is the unsigned-weight dot product of the group's quads for
/// output `o`. `run` is [`flush_quads`] of the largest activation code:
/// the i16 forms' flush length (the AVX-512 forms need none). Up to
/// [`AMX_ROWS`] activations share the pass when [`amx_form`] says so;
/// otherwise blocks of [`KBLOCK`] take the tiles one after the other.
///
/// # Panics
///
/// Unless `1 ≤ acts.len() ≤ AMX_ROWS`, `run > 0`, `w` holds the blocks
/// of `tiles`, its groups cover a tile and its scales every group's
/// outputs, and every activation holds one code per quad, one `Σq` and
/// scale per group and `out_features` outputs — the vector forms index by
/// raw pointer from these — and, for the AMX form, its codes laid out as
/// [`Act::codes`] says.
#[inline]
pub(crate) fn sweep(
    isa: Isa,
    w: &Weights<'_>,
    tiles: std::ops::Range<usize>,
    acts: &mut [Act<'_>],
    run: usize,
) {
    assert!(!acts.is_empty() && acts.len() <= AMX_ROWS && run > 0);
    assert!(tiles.end <= w.out_features.div_ceil(TILE) && tiles.end * w.quads <= w.blocks.len());
    assert!(w.groups * w.quads_per_group >= w.quads && w.scales.len() >= w.groups * w.out_features);
    assert!(acts.iter().all(|a| a.codes.len() >= w.quads
        && a.qsum.len() >= w.groups
        && a.scales.len() >= w.groups
        && a.out.len() == w.out_features));
    #[cfg(target_arch = "x86_64")]
    if amx_form(isa, acts.len()) {
        let base = acts[0].codes.as_ptr();
        assert!(acts.iter().enumerate().all(|(m, a)| {
            a.codes.as_ptr() == base.wrapping_add(m * w.quads)
                && a.codes.len() >= w.quads + AMX_QUADS
        }));
        #[cfg(test)]
        tests::AMX_SWEEPS.with(|n| n.set(n.get() + 1));
        // SAFETY: `amx_form` saw an `Isa::Avx512` whose `Amx` is
        // granted; no other crate can build either, and only `detect` /
        // `Isa::supported` make them, where AVX-512 and the tile state
        // are there. The length and layout contract is asserted just
        // above.
        unsafe { amx::sweep(w, tiles, acts) };
        return;
    }
    for acts in acts.chunks_mut(KBLOCK) {
        sweep_block(isa, w, tiles.clone(), acts, run);
    }
}

/// [`sweep`] of at most [`KBLOCK`] activations on `isa`'s form, the
/// contract checked.
#[inline]
fn sweep_block(
    isa: Isa,
    w: &Weights<'_>,
    tiles: std::ops::Range<usize>,
    acts: &mut [Act<'_>],
    run: usize,
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: no other crate can build an `Isa::Avx512`, and
        // `detect` / `Isa::supported` hand one out only where its
        // features are present; the length contract is asserted in
        // `sweep`. Fewer activations leave vector registers free for
        // independent accumulator sets, which hide `dpbusd`'s latency.
        Isa::Avx512 { .. } => unsafe {
            match acts.len() {
                1 => avx512::sweep::<1, 4>(w, tiles, acts),
                2 => avx512::sweep::<2, 2>(w, tiles, acts),
                3 => avx512::sweep::<3, 1>(w, tiles, acts),
                _ => avx512::sweep::<4, 1>(w, tiles, acts),
            }
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as for `Isa::Avx512`, with AVX2. Up to two activations
        // keep both halves of a block in registers and take one pass;
        // more take one pass per half.
        Isa::Avx2 { .. } => unsafe {
            match acts.len() {
                1 => avx2::sweep::<1, 2>(w, tiles, acts, run),
                2 => avx2::sweep::<2, 2>(w, tiles, acts, run),
                3 => avx2::sweep::<3, 1>(w, tiles, acts, run),
                _ => avx2::sweep::<4, 1>(w, tiles, acts, run),
            }
        },
        Isa::Scalar => {
            for t in tiles {
                sweep_scalar(w, &w.tile(t), acts, run);
            }
        }
    }
}

/// Scalar [`sweep`] of one tile: per group, runs of at most `run` quads
/// through [`mac_tile_scalar`], then the rescale per output.
fn sweep_scalar(w: &Weights<'_>, tile: &Tile<'_>, acts: &mut [Act<'_>], run: usize) {
    let mut acc = [[0i32; TILE]; KBLOCK];
    let acc = &mut acc[..acts.len()];
    let outs = tile.o0..tile.o0 + tile.width;
    for g in 0..w.groups {
        let quads = w.quads(g);
        acc.fill([0; TILE]);
        let mut lo = quads.start;
        while lo < quads.end {
            let hi = (lo + run).min(quads.end);
            mac_tile_scalar(&tile.blocks[lo..hi], acts, lo, acc);
            lo = hi;
        }
        let wscales = &w.scales[g * w.out_features..][outs.clone()];
        for (a, acc) in acts.iter_mut().zip(acc.iter()) {
            let (asc, bias) = (a.scales[g], 8 * a.qsum[g]);
            // With PoT scales every operation here is exact (see
            // `crate::kernels`).
            for ((out, &ia), &wsc) in a.out[outs.clone()].iter_mut().zip(acc).zip(wscales) {
                *out += (ia - bias) as f32 * (wsc * asc);
            }
        }
    }
}

/// The scalar micro-kernel: for each activation `k`, adds the
/// unsigned-weight dot products of `blocks` (a tile's quads from
/// `first` on) with `acts[k]`'s codes into `acc[k]`, in the AVX2 form's
/// i16-then-widen shape — per output, inputs `(0, 1)` and `(2, 3)` of
/// each quad in two i16 lanes — written as 32-lane loops a baseline
/// compiler vectorizes. Debug builds trap on i16 overflow, so every
/// tier-1 run also checks the caller's [`flush_quads`] bound.
fn mac_tile_scalar(blocks: &[Block], acts: &[Act<'_>], first: usize, acc: &mut [[i32; TILE]]) {
    const HALF: usize = TILE / 2;
    let mut s01 = [[0i16; TILE]; KBLOCK];
    let mut s23 = [[0i16; TILE]; KBLOCK];
    for (p, Block(bytes)) in blocks.iter().enumerate() {
        // w[t][o]: input t of the quad, output o.
        let mut w = [[0i16; TILE]; QUAD];
        for (j, quad) in bytes.chunks_exact(QUAD).enumerate() {
            for (w, &b) in w.iter_mut().zip(quad) {
                w[j] = (b & 0x0F) as i16;
                w[HALF + j] = (b >> 4) as i16;
            }
        }
        for ((a, s01), s23) in acts.iter().zip(&mut s01).zip(&mut s23) {
            let q = a.codes[first + p].to_le_bytes().map(|q| q as i8 as i16);
            for o in 0..TILE {
                s01[o] += w[0][o] * q[0] + w[1][o] * q[1];
                s23[o] += w[2][o] * q[2] + w[3][o] * q[3];
            }
        }
    }
    for ((acc, s01), s23) in acc.iter_mut().zip(&s01).zip(&s23) {
        for o in 0..TILE {
            acc[o] += s01[o] as i32 + s23[o] as i32;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    use super::{Act, Weights, PREFETCH_BYTES, TILE};

    /// AVX2 [`sweep`](super::sweep) for exactly `K` activations, `H`
    /// 32-byte halves of every block per pass over a tile (16 outputs
    /// each; two passes when `H == 1`). In a pass, `2·H·K` i16
    /// accumulator registers live across a run of at most `run` quads;
    /// each half-block is loaded and split into its two nibble planes
    /// once, and every activation pays one broadcast per block, and two
    /// `maddubs` and two adds per half-block. A flush folds each i16 pair
    /// into i32 with `madd_epi16(acc, 1)`. At the end of a group the
    /// rescale runs in registers in the scalar order, and the outputs are
    /// read once and written once per pass, masked on a short last tile.
    ///
    /// # Safety
    ///
    /// * The CPU must support AVX2.
    /// * The length contract of [`sweep`](super::sweep), which it
    ///   asserts, with `acts.len() == K`, `H` 1 or 2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sweep<const K: usize, const H: usize>(
        w: &Weights<'_>,
        tiles: std::ops::Range<usize>,
        acts: &mut [Act<'_>],
        run: usize,
    ) {
        debug_assert!(acts.len() == K && (H == 1 || H == 2) && run > 0);
        let nib = _mm256_set1_epi8(0x0F);
        let ones = _mm256_set1_epi16(1);
        let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        for t in tiles {
            let tile = w.tile(t);
            // Only the last tile can be short; the others skip the masks.
            let full = tile.width == TILE;
            for pass in 0..2 / H {
                // Plane `e` of the pass is the low (`e` even) or high
                // nibble plane of half `pass·H + e/2`: its lane j is the
                // tile's output `at(e) + j`.
                let at = |e: usize| 8 * (pass * H + e / 2) + TILE / 2 * (e % 2);
                let mask: [__m256i; 4] = std::array::from_fn(|e| {
                    _mm256_cmpgt_epi32(_mm256_set1_epi32(tile.width as i32 - at(e) as i32), iota)
                });
                // SAFETY (both): `ptr` is a row's output `o0` (of `out` or
                // of a group's scales), and only lanes below `width` are
                // touched.
                let load = |ptr: *const f32, e: usize| unsafe {
                    if full {
                        _mm256_loadu_ps(ptr.add(at(e)))
                    } else {
                        _mm256_maskload_ps(ptr.wrapping_add(at(e)), mask[e])
                    }
                };
                let store = |ptr: *mut f32, e: usize, v: __m256| unsafe {
                    if full {
                        _mm256_storeu_ps(ptr.add(at(e)), v)
                    } else {
                        _mm256_maskstore_ps(ptr.wrapping_add(at(e)), mask[e], v)
                    }
                };
                let mut out = [[_mm256_setzero_ps(); 4]; K];
                for (k, out) in out.iter_mut().enumerate() {
                    // SAFETY: `k < K`; `o0 < out_features`.
                    let ptr = unsafe { acts.get_unchecked(k).out.as_ptr().add(tile.o0) };
                    for (e, out) in out.iter_mut().enumerate().take(2 * H) {
                        *out = load(ptr, e);
                    }
                }
                for g in 0..w.groups {
                    let quads = w.quads(g);
                    let mut ia = [[_mm256_setzero_si256(); 4]; K];
                    let mut lo = quads.start;
                    while lo < quads.end {
                        let hi = (lo + run).min(quads.end);
                        let mut sums = [[_mm256_setzero_si256(); 4]; K];
                        for p in lo..hi {
                            // SAFETY: `p < quads`, the tile's length.
                            let block = unsafe { tile.blocks.get_unchecked(p) }.0.as_ptr();
                            _mm_prefetch::<_MM_HINT_T0>(block.wrapping_add(PREFETCH_BYTES).cast());
                            let mut wv = [_mm256_setzero_si256(); 4];
                            for h in 0..H {
                                // SAFETY: half `pass·H + h < 2` of a block
                                // of 64 bytes aligned to 64: 32 bytes
                                // aligned to 32.
                                let v = unsafe {
                                    _mm256_load_si256(block.add(32 * (pass * H + h)).cast())
                                };
                                wv[2 * h] = _mm256_and_si256(v, nib);
                                // A 16-bit shift drags bits across byte
                                // lanes; the mask removes them.
                                wv[2 * h + 1] = _mm256_and_si256(_mm256_srli_epi16::<4>(v), nib);
                            }
                            for (k, sums) in sums.iter_mut().enumerate() {
                                // SAFETY: every `codes` is `quads` long.
                                let q = _mm256_set1_epi32(unsafe {
                                    *acts.get_unchecked(k).codes.get_unchecked(p)
                                });
                                for e in 0..2 * H {
                                    let prod = _mm256_maddubs_epi16(wv[e], q);
                                    sums[e] = _mm256_add_epi16(sums[e], prod);
                                }
                            }
                        }
                        for (ia, sums) in ia.iter_mut().zip(&sums) {
                            for e in 0..2 * H {
                                ia[e] = _mm256_add_epi32(ia[e], _mm256_madd_epi16(sums[e], ones));
                            }
                        }
                        lo = hi;
                    }
                    // SAFETY: `scales` holds `groups · out_features`.
                    let ws_row = unsafe { w.scales.as_ptr().add(g * w.out_features + tile.o0) };
                    let mut ws = [_mm256_setzero_ps(); 4];
                    for (e, ws) in ws.iter_mut().enumerate().take(2 * H) {
                        *ws = load(ws_row, e);
                    }
                    for (k, (out, ia)) in out.iter_mut().zip(&ia).enumerate() {
                        // SAFETY: `g < groups ≤ qsum.len(), scales.len()`.
                        let (qsum, asc) = unsafe {
                            let a = acts.get_unchecked(k);
                            (*a.qsum.get_unchecked(g), *a.scales.get_unchecked(g))
                        };
                        let (bias, asc) = (_mm256_set1_epi32(8 * qsum), _mm256_set1_ps(asc));
                        for e in 0..2 * H {
                            // `out += (ia − bias) as f32 * (wsc * asc)`,
                            // lane by lane.
                            let term = _mm256_mul_ps(
                                _mm256_cvtepi32_ps(_mm256_sub_epi32(ia[e], bias)),
                                _mm256_mul_ps(ws[e], asc),
                            );
                            out[e] = _mm256_add_ps(out[e], term);
                        }
                    }
                }
                for (k, out) in out.iter().enumerate() {
                    // SAFETY: as for the loads above.
                    let ptr = unsafe { acts.get_unchecked_mut(k).out.as_mut_ptr().add(tile.o0) };
                    for (e, &out) in out.iter().enumerate().take(2 * H) {
                        store(ptr, e, out);
                    }
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    use super::{Act, Weights, PREFETCH_BYTES};

    /// AVX-512 [`sweep`](super::sweep) for exactly `K` activations, with
    /// `S` independent accumulator sets (quad `p` feeds set `p % S`, and
    /// the sets are added before the rescale — integer adds, so the order
    /// cannot show). Per group each quad is loaded and split into its
    /// nibble planes once, and every activation pays one broadcast and
    /// two `dpbusd`. The i32 lanes need no flush (module docs). The
    /// rescale runs in registers in the scalar order, and a tile's
    /// outputs are read once and written once, masked to its width.
    ///
    /// # Safety
    ///
    /// * The CPU must support AVX512F, AVX512BW and AVX512-VNNI.
    /// * The length contract of [`sweep`](super::sweep), which it
    ///   asserts, with `acts.len() == K`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub(super) unsafe fn sweep<const K: usize, const S: usize>(
        w: &Weights<'_>,
        tiles: std::ops::Range<usize>,
        acts: &mut [Act<'_>],
    ) {
        debug_assert!(acts.len() == K);
        let nib = _mm512_set1_epi8(0x0F);
        let lanes = |n: usize| (((1u32 << n.min(16)) - 1) & 0xFFFF) as __mmask16;
        for t in tiles {
            let tile = w.tile(t);
            let (m_lo, m_hi) = (lanes(tile.width), lanes(tile.width.saturating_sub(16)));
            let mut out_lo = [_mm512_setzero_ps(); K];
            let mut out_hi = [_mm512_setzero_ps(); K];
            for k in 0..K {
                // SAFETY: `out` is `out_features` long and `o0` one of
                // them; only lanes below `width` are read, and the high
                // pointer is only formed when it has any.
                unsafe {
                    let out = acts.get_unchecked(k).out.as_ptr().add(tile.o0);
                    out_lo[k] = _mm512_maskz_loadu_ps(m_lo, out);
                    if m_hi != 0 {
                        out_hi[k] = _mm512_maskz_loadu_ps(m_hi, out.add(16));
                    }
                }
            }
            for g in 0..w.groups {
                let quads = w.quads(g);
                let mut acc_lo = [[_mm512_setzero_si512(); K]; S];
                let mut acc_hi = [[_mm512_setzero_si512(); K]; S];
                let mut p = quads.start;
                while p < quads.end {
                    for s in 0..S.min(quads.end - p) {
                        // SAFETY: `p + s < quads.end ≤ blocks.len()`; a
                        // block is 64 bytes aligned to 64.
                        let block = unsafe { tile.blocks.as_ptr().add(p + s) }.cast::<i8>();
                        _mm_prefetch::<_MM_HINT_T0>(block.wrapping_add(PREFETCH_BYTES));
                        let v = unsafe { _mm512_load_si512(block.cast()) };
                        let w_lo = _mm512_and_si512(v, nib);
                        let w_hi = _mm512_and_si512(_mm512_srli_epi16::<4>(v), nib);
                        for k in 0..K {
                            // SAFETY: every `codes` is `quads` long.
                            let q = _mm512_set1_epi32(unsafe {
                                *acts.get_unchecked(k).codes.get_unchecked(p + s)
                            });
                            acc_lo[s][k] = _mm512_dpbusd_epi32(acc_lo[s][k], w_lo, q);
                            acc_hi[s][k] = _mm512_dpbusd_epi32(acc_hi[s][k], w_hi, q);
                        }
                    }
                    p += S;
                }
                // SAFETY: `scales` holds `groups · out_features`; only
                // lanes below `width` are read.
                let (ws_lo, ws_hi) = unsafe {
                    let ws = w.scales.as_ptr().add(g * w.out_features + tile.o0);
                    let hi = if m_hi != 0 {
                        _mm512_maskz_loadu_ps(m_hi, ws.add(16))
                    } else {
                        _mm512_setzero_ps()
                    };
                    (_mm512_maskz_loadu_ps(m_lo, ws), hi)
                };
                for k in 0..K {
                    // SAFETY: `g < groups ≤ qsum.len(), scales.len()`.
                    let (qsum, asc) = unsafe {
                        let a = acts.get_unchecked(k);
                        (*a.qsum.get_unchecked(g), *a.scales.get_unchecked(g))
                    };
                    let (bias, asc) = (_mm512_set1_epi32(8 * qsum), _mm512_set1_ps(asc));
                    let (mut ia_lo, mut ia_hi) = (acc_lo[0][k], acc_hi[0][k]);
                    for s in 1..S {
                        ia_lo = _mm512_add_epi32(ia_lo, acc_lo[s][k]);
                        ia_hi = _mm512_add_epi32(ia_hi, acc_hi[s][k]);
                    }
                    // `out += (ia − bias) as f32 * (wsc * asc)`, lane by
                    // lane.
                    let term_lo = _mm512_mul_ps(
                        _mm512_cvtepi32_ps(_mm512_sub_epi32(ia_lo, bias)),
                        _mm512_mul_ps(ws_lo, asc),
                    );
                    let term_hi = _mm512_mul_ps(
                        _mm512_cvtepi32_ps(_mm512_sub_epi32(ia_hi, bias)),
                        _mm512_mul_ps(ws_hi, asc),
                    );
                    out_lo[k] = _mm512_add_ps(out_lo[k], term_lo);
                    out_hi[k] = _mm512_add_ps(out_hi[k], term_hi);
                }
            }
            for k in 0..K {
                // SAFETY: as for the loads above.
                unsafe {
                    let out = acts.get_unchecked_mut(k).out.as_mut_ptr().add(tile.o0);
                    _mm512_mask_storeu_ps(out, m_lo, out_lo[k]);
                    if m_hi != 0 {
                        _mm512_mask_storeu_ps(out.add(16), m_hi, out_hi[k]);
                    }
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod amx {
    use std::arch::asm;
    use std::arch::x86_64::*;

    use super::{Act, Tile, Weights, AMX_QUADS, AMX_ROWS, PREFETCH_BYTES, TILE};

    /// The 64 bytes `ldtilecfg` reads: palette 1, then per tile register
    /// its bytes per row (`u16` at `16 + 2t`) and rows (`u8` at `48 + t`).
    /// `tmm0` is the activation tile A (`rows × 4·kq` signed bytes),
    /// `tmm1` / `tmm2` the low / high nibble planes B (`kq × 64` unsigned
    /// bytes: 16 outputs × 4 inputs per row), and `tmm4`–`tmm7` two pairs
    /// of i32 sums C (`rows × 16`: outputs `0..16` and `16..32`), one
    /// pair for even and one for odd groups of the sweep.
    #[repr(C, align(64))]
    struct TileConfig([u8; 64]);

    impl TileConfig {
        fn new(rows: usize, kq: usize) -> Self {
            let mut cfg = [0u8; 64];
            cfg[0] = 1;
            let b = [(1, kq, 64), (2, kq, 64)];
            let c = [4, 5, 6, 7].map(|t| (t, rows, 64));
            for (t, rows, bytes) in [(0, rows, 4 * kq)].into_iter().chain(b).chain(c) {
                cfg[16 + 2 * t..18 + 2 * t].copy_from_slice(&(bytes as u16).to_le_bytes());
                cfg[48 + t] = rows as u8;
            }
            TileConfig(cfg)
        }
    }

    /// One chunk's two nibble planes, the B tiles of its `tdpbsud`s: row
    /// `r` of `lo` / `hi` is quad `r`'s low / high nibbles, rows past the
    /// chunk's real quads zero.
    #[repr(C, align(64))]
    struct Planes {
        lo: [[u8; 64]; AMX_QUADS],
        hi: [[u8; 64]; AMX_QUADS],
    }

    /// A group's i32 sums as `tilestored` leaves them: row `m` holds
    /// activation `m`'s 32 outputs, C low then C high.
    #[derive(Clone, Copy)]
    #[repr(C, align(64))]
    struct Sums([[i32; TILE]; AMX_ROWS]);

    /// Zeroes C pair (`$c_lo`, `$c_hi`), then for each chunk of up to
    /// `$kq` of the quads `$quads` of `$tile` stages the chunk's planes
    /// into `$b`, loads A from the codes at `$codes` (rows `$stride`
    /// quads apart) and the planes, and adds both products into the
    /// pair; then stores the pair as the rows of the [`Sums`] `$out`.
    macro_rules! group {
        ($tile:expr, $quads:expr, $kq:expr, $codes:expr, $stride:expr, $b:expr, $out:expr,
         $c_lo:literal, $c_hi:literal) => {
            asm!(concat!("tilezero ", $c_lo), concat!("tilezero ", $c_hi), options(nostack, nomem));
            let quads = $quads;
            let mut c0 = quads.start;
            while c0 < quads.end {
                let n = $kq.min(quads.end - c0);
                stage($tile, c0..c0 + n, $kq, $b);
                asm!(
                    "tileloadd tmm0, [{a} + {sa}*1]",
                    "tileloadd tmm1, [{lo} + {sb}*1]",
                    "tileloadd tmm2, [{hi} + {sb}*1]",
                    concat!("tdpbsud ", $c_lo, ", tmm0, tmm1"),
                    concat!("tdpbsud ", $c_hi, ", tmm0, tmm2"),
                    a = in(reg) $codes.add(c0),
                    sa = in(reg) 4 * $stride,
                    lo = in(reg) $b.lo.as_ptr(),
                    hi = in(reg) $b.hi.as_ptr(),
                    sb = in(reg) 64usize,
                    options(nostack, readonly),
                );
                c0 += n;
            }
            asm!(
                concat!("tilestored [{c} + {s}*1], ", $c_lo),
                concat!("tilestored [{c} + {s}*1 + 64], ", $c_hi),
                c = in(reg) $out.0.as_mut_ptr(),
                s = in(reg) 4 * TILE,
                options(nostack),
            );
        };
    }

    /// AMX [`sweep`](super::sweep) of up to 16 activations, the rows of
    /// the A and C tiles. Per tile, groups go in pairs: each group's C
    /// pair (`tmm4`/`tmm5`, then `tmm6`/`tmm7`) starts at zero and, per
    /// chunk of up to `kq = min(AMX_QUADS, quads_per_group)` quads (one
    /// configuration fits every chunk), the chunk's blocks are split into
    /// their nibble planes, A is loaded in place from the code quads (row
    /// stride `4·quads` bytes) and two `tdpbsud` add signed codes ×
    /// unsigned nibbles into the pair. A short chunk's zero plane rows
    /// cancel the codes A reads past it. Both pairs are stored, and each
    /// activation's outputs are read once, take the two groups' rescales
    /// in ascending order (the scalar order) and are written once, masked
    /// to the tile's width. The configuration is loaded on entry and the
    /// tile state released on exit.
    ///
    /// # Safety
    ///
    /// * The CPU must support AVX512F, AVX512BW, AMX-TILE and AMX-INT8,
    ///   and the kernel must have granted the tile data state.
    /// * The length contract of [`sweep`](super::sweep), which it
    ///   asserts, with `1 ≤ acts.len() ≤ AMX_ROWS` and the codes laid out
    ///   as [`Act::codes`](super::Act::codes) says.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn sweep(
        w: &Weights<'_>,
        tiles: std::ops::Range<usize>,
        acts: &mut [Act<'_>],
    ) {
        let kq = AMX_QUADS.min(w.quads_per_group);
        let cfg = TileConfig::new(acts.len(), kq);
        let mut planes = Planes {
            lo: [[0; 64]; AMX_QUADS],
            hi: [[0; 64]; AMX_QUADS],
        };
        let mut sums = [Sums([[0; TILE]; AMX_ROWS]); 2];
        let codes = acts[0].codes.as_ptr();
        // SAFETY: `cfg` is a valid palette-1 configuration.
        unsafe { asm!("ldtilecfg [{}]", in(reg) cfg.0.as_ptr(), options(nostack, readonly)) };
        for t in tiles {
            let tile = w.tile(t);
            for g in (0..w.groups).step_by(2) {
                let both = g + 1 < w.groups;
                // SAFETY: a group's quads lie inside the tile; A's row
                // `m` reads the `kq` code quads from `c0` of activation
                // `m`'s codes, which `sweep` asserts hold `quads +
                // AMX_QUADS` and lie `quads` apart; B reads the `kq` rows
                // of each plane; C is stored as `rows` rows of 128 bytes;
                // the tiles are configured.
                unsafe {
                    let [s0, s1] = &mut sums;
                    group!(
                        &tile,
                        w.quads(g),
                        kq,
                        codes,
                        w.quads,
                        &mut planes,
                        s0,
                        "tmm4",
                        "tmm5"
                    );
                    if both {
                        group!(
                            &tile,
                            w.quads(g + 1),
                            kq,
                            codes,
                            w.quads,
                            &mut planes,
                            s1,
                            "tmm6",
                            "tmm7"
                        );
                    }
                    rescale(w, &tile, g, &sums[..1 + both as usize], acts);
                }
            }
        }
        // SAFETY: back to the initial tile state.
        unsafe { asm!("tilerelease", options(nostack, nomem)) };
    }

    /// Splits the blocks `quads` of `tile` into the first rows of
    /// `planes`, and zeroes the rest of its first `kq` rows.
    ///
    /// # Safety
    ///
    /// AVX512F, AVX512BW, `quads` inside the tile and at most `kq ≤
    /// AMX_QUADS` of them.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn stage(
        tile: &Tile<'_>,
        quads: std::ops::Range<usize>,
        kq: usize,
        planes: &mut Planes,
    ) {
        let nib = _mm512_set1_epi8(0x0F);
        for r in 0..kq {
            let (lo, hi) = if r < quads.len() {
                // SAFETY: the caller's contract; a block is 64 bytes
                // aligned to 64.
                let block = unsafe { tile.blocks.as_ptr().add(quads.start + r) }.cast::<i8>();
                _mm_prefetch::<_MM_HINT_T0>(block.wrapping_add(PREFETCH_BYTES));
                let v = unsafe { _mm512_load_si512(block.cast()) };
                (
                    _mm512_and_si512(v, nib),
                    _mm512_and_si512(_mm512_srli_epi16::<4>(v), nib),
                )
            } else {
                (_mm512_setzero_si512(), _mm512_setzero_si512())
            };
            // SAFETY: `r < kq ≤ AMX_QUADS`; the rows are 64-byte aligned.
            unsafe {
                _mm512_store_si512(planes.lo[r].as_mut_ptr().cast(), lo);
                _mm512_store_si512(planes.hi[r].as_mut_ptr().cast(), hi);
            }
        }
    }

    /// `out += (ia − 8·Σq) as f32 * (wsc * asc)` over `tile`'s outputs for
    /// groups `g0, g0 + 1, …` ascending, one per [`Sums`] of `sums`, each
    /// activation's `ia` a row of it.
    ///
    /// # Safety
    ///
    /// AVX512F, and the length contract of [`sweep`](super::sweep) with
    /// `g0 + sums.len() ≤ groups`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn rescale(
        w: &Weights<'_>,
        tile: &Tile<'_>,
        g0: usize,
        sums: &[Sums],
        acts: &mut [Act<'_>],
    ) {
        let lanes = |n: usize| (((1u32 << n.min(16)) - 1) & 0xFFFF) as __mmask16;
        let (m_lo, m_hi) = (lanes(tile.width), lanes(tile.width.saturating_sub(16)));
        // SAFETY: `scales` holds `groups · out_features`; only lanes
        // below `width` are read.
        let ws = |g: usize| unsafe {
            let ws = w.scales.as_ptr().add(g * w.out_features + tile.o0);
            let hi = if m_hi != 0 {
                _mm512_maskz_loadu_ps(m_hi, ws.add(16))
            } else {
                _mm512_setzero_ps()
            };
            (_mm512_maskz_loadu_ps(m_lo, ws), hi)
        };
        let ws: [_; 2] = std::array::from_fn(|k| ws(g0 + k.min(sums.len() - 1)));
        for (m, a) in acts.iter_mut().enumerate() {
            // SAFETY: `out` is `out_features` long and `o0` one of them;
            // only lanes below `width` are touched, and the high pointer
            // is only formed when it has any.
            let out = unsafe { a.out.as_mut_ptr().add(tile.o0) };
            let mut out_lo = unsafe { _mm512_maskz_loadu_ps(m_lo, out) };
            let mut out_hi = if m_hi != 0 {
                unsafe { _mm512_maskz_loadu_ps(m_hi, out.add(16)) }
            } else {
                _mm512_setzero_ps()
            };
            for (k, (sums, &(ws_lo, ws_hi))) in sums.iter().zip(&ws).enumerate() {
                // SAFETY: `g0 + k < groups ≤ qsum.len(), scales.len()`.
                let (qsum, asc) = unsafe {
                    (
                        *a.qsum.get_unchecked(g0 + k),
                        *a.scales.get_unchecked(g0 + k),
                    )
                };
                let (bias, asc) = (_mm512_set1_epi32(8 * qsum), _mm512_set1_ps(asc));
                // SAFETY: row `m < AMX_ROWS` is 32 i32s aligned to 64.
                let (ia_lo, ia_hi) = unsafe {
                    let p = sums.0.get_unchecked(m).as_ptr();
                    (
                        _mm512_load_si512(p.cast()),
                        _mm512_load_si512(p.add(16).cast()),
                    )
                };
                // `out += (ia − bias) as f32 * (wsc * asc)`, lane by lane.
                let term_lo = _mm512_mul_ps(
                    _mm512_cvtepi32_ps(_mm512_sub_epi32(ia_lo, bias)),
                    _mm512_mul_ps(ws_lo, asc),
                );
                let term_hi = _mm512_mul_ps(
                    _mm512_cvtepi32_ps(_mm512_sub_epi32(ia_hi, bias)),
                    _mm512_mul_ps(ws_hi, asc),
                );
                out_lo = _mm512_add_ps(out_lo, term_lo);
                out_hi = _mm512_add_ps(out_hi, term_hi);
            }
            // SAFETY: as for the loads.
            unsafe {
                _mm512_mask_storeu_ps(out, m_lo, out_lo);
                if m_hi != 0 {
                    _mm512_mask_storeu_ps(out.add(16), m_hi, out_hi);
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lightmamba_tensor::isa::detect;

    thread_local! {
        /// AMX sweeps this thread has run, so a test can tell the form
        /// ran.
        pub(crate) static AMX_SWEEPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    #[test]
    fn detect_is_stable_and_named() {
        assert_eq!(detect(), detect());
        let isa = active_isa();
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            let tier = if has!("avx2") && has!("avx512f") && has!("avx512bw") && has!("avx512vnni")
            {
                "avx512"
            } else if has!("avx2") {
                "avx2"
            } else {
                "scalar"
            };
            let amx = matches!(detect(), Isa::Avx512 { amx, .. } if amx.granted());
            assert_eq!(isa, if amx { "avx512+amx" } else { tier });
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(isa, "scalar");
    }

    #[test]
    fn flush_bound_keeps_i16_lanes_exact() {
        for qmax in [1, 3, 7, 15, 127] {
            let quads = flush_quads(qmax) as i32;
            assert!(2 * quads * 15 * qmax <= i16::MAX as i32, "qmax {qmax}");
            assert!(2 * (quads + 1) * 15 * qmax > i16::MAX as i32, "qmax {qmax}");
        }
        // The W4A4 recipe takes a whole 128-wide group (32 quads) in one
        // run; 8-bit activations flush every 8 quads (32 inputs).
        assert!(flush_quads(7) >= 32);
        assert_eq!(flush_quads(127), 8);
    }

    /// The outputs [`sweep`] must produce, straight from the block layout
    /// of the module docs: exact i32 dot products per group, then the
    /// rescale in the scalar order.
    fn sweep_naive(w: &Weights<'_>, acts: &mut [Act<'_>]) {
        for a in acts.iter_mut() {
            for (o, out) in a.out.iter_mut().enumerate() {
                let (t, lane) = (o / TILE, o % TILE);
                let (j, shift) = (lane % 16, 4 * (lane / 16));
                for g in 0..w.groups {
                    let mut ia = 0i32;
                    for p in w.quads(g) {
                        let q = a.codes[p].to_le_bytes();
                        for (i, &q) in q.iter().enumerate() {
                            let n = (w.blocks[t * w.quads + p].0[4 * j + i] >> shift) & 0x0F;
                            ia += n as i32 * q as i8 as i32;
                        }
                    }
                    let (asc, bias) = (a.scales[g], 8 * a.qsum[g]);
                    *out += (ia - bias) as f32 * (w.scales[g * w.out_features + o] * asc);
                }
            }
        }
    }

    /// Runs `sweep` under `isa` (in two calls, the first tile and the
    /// rest) and the naive sums on `out_features.div_ceil(32)` tiles of
    /// `blocks` (each tile's nibbles rotated differently) in groups of
    /// `qpg`, for `codes.len()` activations, and compares the outputs bit
    /// for bit.
    fn check(
        isa: Isa,
        blocks: &[Block],
        codes: &[Vec<CodeQuad>],
        qpg: usize,
        out_features: usize,
        qmax: i32,
    ) {
        let (quads, tiles) = (blocks.len(), out_features.div_ceil(TILE));
        let groups = quads.div_ceil(qpg);
        let all: Vec<Block> = (0..tiles)
            .flat_map(|t| {
                blocks
                    .iter()
                    .map(move |b| Block(b.0.map(|v| v.rotate_left(t as u32))))
            })
            .collect();
        // Power-of-two-free scales, so any change of float order shows.
        let wscales: Vec<f32> = (0..groups * out_features)
            .map(|i| 0.37 + i as f32 * 0.011)
            .collect();
        let ascales: Vec<f32> = (0..groups).map(|g| 1.3 - g as f32 * 0.07).collect();
        let qsums: Vec<Vec<i32>> = codes
            .iter()
            .map(|c| {
                (0..groups)
                    .map(|g| (c[g * qpg] & 0xFF) as i8 as i32 - 5)
                    .collect()
            })
            .collect();
        let w = Weights {
            blocks: &all,
            quads,
            quads_per_group: qpg,
            groups,
            scales: &wscales,
            out_features,
        };
        // The codes back to back and padded, as `gemm_rows` lays them
        // out for the AMX form.
        let mut all_codes: Vec<CodeQuad> = codes.concat();
        all_codes.resize(all_codes.len() + AMX_QUADS, 0);
        let run = |f: &mut dyn FnMut(&mut [Act<'_>])| -> Vec<Vec<u32>> {
            let mut outs: Vec<Vec<f32>> = (0..codes.len())
                .map(|k| vec![0.25 * k as f32 - 0.5; out_features])
                .collect();
            let mut acts: Vec<Act<'_>> = qsums
                .iter()
                .zip(outs.iter_mut())
                .enumerate()
                .map(|(k, (q, out))| Act {
                    codes: &all_codes[k * quads..],
                    qsum: q,
                    scales: &ascales,
                    out,
                })
                .collect();
            f(&mut acts);
            outs.iter()
                .map(|o| o.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let want = run(&mut |acts| sweep_naive(&w, acts));
        let got = run(&mut |acts| {
            sweep(isa, &w, 0..1, acts, flush_quads(qmax));
            sweep(isa, &w, 1..tiles, acts, flush_quads(qmax));
        });
        assert_eq!(
            got,
            want,
            "{isa:?} quads {quads} group {qpg} k {} out {out_features} qmax {qmax}",
            codes.len()
        );
    }

    /// Activation counts of the sweep tests: every [`KBLOCK`] remainder,
    /// and blocks around and at the AMX form's bounds.
    const ROWS: [usize; 9] = [1, 2, 3, 4, 5, 7, 8, 13, AMX_ROWS];

    #[test]
    fn dispatched_matches_scalar_on_all_nibbles() {
        // Every nibble value in every lane, extreme activation codes,
        // i16 runs of exactly `flush_quads` quads (the overflow bound),
        // groups that are not a multiple of the run or of an AMX chunk,
        // a ragged last tile and every K remainder and AMX block size —
        // each form this host has against the naive i32 sums.
        let block = |p: usize| {
            let mut b = [0u8; 64];
            for (j, v) in b.iter_mut().enumerate() {
                *v = match p % 3 {
                    0 => 0xFF,
                    1 => (j * 37 + p * 11) as u8,
                    _ => 0x00,
                };
            }
            Block(b)
        };
        for isa in Isa::supported() {
            for qmax in [7i32, 127] {
                let run = flush_quads(qmax);
                for (quads, qpg) in [(run, run), (2 * run + 3, run), (run + 1, run + 1)]
                    .into_iter()
                    .chain([1, 2, 3, 5, 7, 9, 16, 17, 32, 33].map(|qpg| (3 * qpg + 2, qpg)))
                {
                    let blocks: Vec<Block> = (0..quads).map(block).collect();
                    let extremes = [qmax as i8, -(qmax as i8)];
                    for k in ROWS {
                        let codes: Vec<Vec<CodeQuad>> = (0..k)
                            .map(|kk| {
                                (0..quads)
                                    .map(|p| {
                                        code_quad(std::array::from_fn(|t| {
                                            extremes[(kk + (p + t) / 3) % 2]
                                        }))
                                    })
                                    .collect()
                            })
                            .collect();
                        for out_features in [TILE, 5, 2 * TILE + 17] {
                            check(isa, &blocks, &codes, qpg, out_features, qmax);
                        }
                    }
                }
            }
            // All-ones weights against a constant extreme code reach the
            // i16 bound itself, and a 4096-input group the i32 one.
            for quads in [flush_quads(127), 1024] {
                let blocks = vec![Block([0xFF; 64]); quads];
                for q in [127i8, -127] {
                    for k in [1, AMX_ROWS] {
                        let codes = vec![vec![code_quad([q; QUAD]); quads]; k];
                        check(isa, &blocks, &codes, quads, TILE, 127);
                    }
                }
            }
        }
    }
}
