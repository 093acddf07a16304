//! The output-stationary W4A4 micro-kernel and its instruction-set
//! dispatch.
//!
//! [`crate::kernels::gemm_packed`] walks a packed weight tile by tile;
//! everything it does per tile funnels into one function, `mac_tile`:
//! *for up to four activations at once, add the integer dot products of
//! a run of input pairs into a tile's 32 accumulators*. The accumulators
//! stay where they are for the whole run (registers, in the AVX2 form)
//! while the weights stream past once and are shared by every activation
//! of the block — the dataflow of the paper's MMU.
//!
//! # The block the kernel consumes
//!
//! One block is 32 bytes: the 64 weights of one 32-output tile × one
//! input pair `(i, i+1)`, each stored as the unsigned nibble
//! `code + 8 ∈ [0, 15]`. For `j = 0..16`:
//!
//! ```text
//!              byte 2j                          byte 2j+1
//!   ┌────────────────┬─────────────┐  ┌──────────────────┬───────────────┐
//!   │ hi  w[i][16+j] │ lo  w[i][j] │  │ hi  w[i+1][16+j] │ lo  w[i+1][j] │
//!   └────────────────┴─────────────┘  └──────────────────┴───────────────┘
//! ```
//!
//! Masking the low nibbles of a block therefore yields, for outputs
//! `0..16` of the tile, the byte pairs `(w[i][j], w[i+1][j])`, and
//! shifting yields the same for outputs `16..32` — exactly the operand
//! shape of `maddubs_epi16(weights_u8, activation_pair_i8)`, whose i16
//! lane `j` is `w[i][j]·a[i] + w[i+1][j]·a[i+1]`. An AVX2 step is
//! load → `and` / `srli`+`and` → `maddubs` → `add_epi16`.
//!
//! Weights enter unsigned because `maddubs` wants one unsigned operand;
//! the caller removes the bias exactly afterwards (`Σ(c+8)·q − 8·Σq`).
//!
//! # Why i16 accumulators are exact
//!
//! A `maddubs` pair sum is at most `2·15·127 = 3810`, far from
//! saturation, and a lane that has absorbed `n` inputs holds at most
//! `n·15·qmaxₐ`. `flush_pairs` turns `n·15·qmaxₐ ≤ i16::MAX` into the
//! number of input pairs one `mac_tile` call may take; the caller never
//! passes more, and each call widens its i16 lanes into the caller's i32
//! accumulators before returning — the same kernel whether a group fits
//! in one call or not. W4A4 at group 128 reaches 13 440: one call per
//! group. 8-bit activations flush every 8 pairs (16 inputs).
//!
//! # Forms
//!
//! * **scalar** — always compiled; the same i16-then-widen sums as
//!   16-lane loops a baseline compiler vectorizes. It is the oracle
//!   tier-1 runs (in debug builds its i16 adds trap on overflow, so the
//!   bound above is checked on every test run) and the kernel of every
//!   host without the `simd` feature or without AVX2.
//! * **AVX2** (`x86_64`, behind the `simd` cargo feature), as above.
//!
//! Both forms compute the same integers, and every float operation
//! stays in the caller, so dispatched and scalar results are
//! bit-identical (pinned in `tests/kernel_props.rs`).
//!
//! There is no NEON form: the build image has no `aarch64` target to
//! compile-check one against, so `aarch64` runs the scalar form.

/// Outputs per weight tile.
pub(crate) const TILE: usize = 32;

/// Activations that share one pass over a tile's weights.
pub(crate) const KBLOCK: usize = 4;

/// One tile × one input pair of packed weights (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Block(pub(crate) [u8; TILE]);

/// One activation's codes for an input pair `(i, i+1)`: the two i8
/// codes, twice over (`[q₀, q₁, q₀, q₁]`, little-endian), so the AVX2
/// form broadcasts a pair with a plain 32-bit load.
pub(crate) type CodePair = i32;

/// Packs two activation codes into a [`CodePair`].
#[inline]
pub(crate) fn code_pair(q0: i8, q1: i8) -> CodePair {
    i32::from_le_bytes([q0 as u8, q1 as u8, q0 as u8, q1 as u8])
}

/// Largest number of input pairs one [`mac_tile`] call may accumulate
/// for activation codes bounded by `act_qmax`: the i16 lanes hold
/// `2·pairs·15·qmaxₐ`, which must not exceed `i16::MAX`.
#[inline]
pub(crate) fn flush_pairs(act_qmax: i32) -> usize {
    (i16::MAX as usize / (2 * 15 * act_qmax.max(1) as usize)).max(1)
}

/// Which instruction set the micro-kernel runs with.
///
/// Produced by [`detect`]; the scalar variant is always available and is
/// the reference the other is tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lanes {
    /// The portable scalar form (the bit-exactness oracle).
    Scalar,
    /// The 256-bit AVX2 form (x86_64, runtime-detected).
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx2,
}

/// Detects the best available instruction set once (cached) — an AVX2
/// CPUID check under the `simd` feature on x86_64, [`Lanes::Scalar`]
/// everywhere else.
pub fn detect() -> Lanes {
    static ACTIVE: std::sync::OnceLock<Lanes> = std::sync::OnceLock::new();
    *ACTIVE.get_or_init(|| {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return Lanes::Avx2;
            }
        }
        Lanes::Scalar
    })
}

/// Human-readable name of the detected instruction set ("avx2" or
/// "scalar") — surfaced by the bench bins so archived results record
/// what actually ran.
pub fn active_isa() -> &'static str {
    match detect() {
        Lanes::Scalar => "scalar",
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Lanes::Avx2 => "avx2",
    }
}

/// The micro-kernel: for each activation `k`, adds
/// `Σ_p blocks[p] · acts[k][p]` (the unsigned-weight dot products of
/// `blocks.len()` input pairs, per tile output) into `acc[k]`.
///
/// # Panics
///
/// Unless `acts.len() == acc.len() ≤ KBLOCK` and every `acts[k]` holds
/// one [`CodePair`] per block. The caller additionally keeps
/// `blocks.len() ≤ flush_pairs(qmaxₐ)` so the AVX2 lanes cannot
/// overflow (that one is an arithmetic contract, not a memory one).
#[inline]
pub(crate) fn mac_tile(
    lanes: Lanes,
    blocks: &[Block],
    acts: &[&[CodePair]],
    acc: &mut [[i32; TILE]],
) {
    assert!(acts.len() == acc.len() && acts.len() <= KBLOCK);
    assert!(acts.iter().all(|a| a.len() == blocks.len()));
    match lanes {
        Lanes::Scalar => mac_tile_scalar(blocks, acts, acc),
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: `Lanes::Avx2` only comes from `detect`, which verified
        // AVX2; the length contract is asserted just above.
        Lanes::Avx2 => unsafe {
            match acts.len() {
                1 => avx2::mac_tile::<1>(blocks, acts, acc),
                2 => avx2::mac_tile::<2>(blocks, acts, acc),
                3 => avx2::mac_tile::<3>(blocks, acts, acc),
                4 => avx2::mac_tile::<4>(blocks, acts, acc),
                _ => {}
            }
        },
    }
}

/// Scalar [`mac_tile`]: the same sums in the same i16-then-widen shape,
/// written as 16-lane loops over `u16` words so a baseline compiler
/// vectorizes them. Debug builds trap on i16 overflow, so every tier-1
/// run also checks the caller's [`flush_pairs`] bound.
fn mac_tile_scalar(blocks: &[Block], acts: &[&[CodePair]], acc: &mut [[i32; TILE]]) {
    const HALF: usize = TILE / 2;
    let mut lo = [[0i16; HALF]; KBLOCK];
    let mut hi = [[0i16; HALF]; KBLOCK];
    for (p, Block(bytes)) in blocks.iter().enumerate() {
        // One word per output lane: nibbles, low to high, are
        // (in 0, out j), (in 0, out 16+j), (in 1, out j), (in 1, out 16+j).
        let mut w = [[0i16; HALF]; 4];
        for (j, pair) in bytes.chunks_exact(2).enumerate() {
            let word = u16::from_le_bytes([pair[0], pair[1]]);
            for (n, w) in w.iter_mut().enumerate() {
                w[j] = ((word >> (4 * n)) & 0x0F) as i16;
            }
        }
        for ((a, lo), hi) in acts.iter().zip(&mut lo).zip(&mut hi) {
            let [q0, q1, ..] = a[p].to_le_bytes();
            let (q0, q1) = (q0 as i8 as i16, q1 as i8 as i16);
            for j in 0..HALF {
                lo[j] += w[0][j] * q0 + w[2][j] * q1;
                hi[j] += w[1][j] * q0 + w[3][j] * q1;
            }
        }
    }
    for ((acc, lo), hi) in acc.iter_mut().zip(&lo).zip(&hi) {
        for j in 0..HALF {
            acc[j] += lo[j] as i32;
            acc[HALF + j] += hi[j] as i32;
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use std::arch::x86_64::*;

    use super::{Block, CodePair, TILE};

    /// AVX2 [`mac_tile`](super::mac_tile) for exactly `K` activations:
    /// `2·K` i16 accumulator registers live across the whole run, each
    /// block is loaded and split into its two nibble planes once, and
    /// every activation pays one broadcast, two `maddubs` and two adds
    /// per block. The i16 lanes are widened into `acc` on the way out.
    ///
    /// # Safety
    ///
    /// * The CPU must support AVX2.
    /// * `acts.len() == acc.len() == K` and every `acts[k]` is at least
    ///   `blocks.len()` long — the loads below index by block.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mac_tile<const K: usize>(
        blocks: &[Block],
        acts: &[&[CodePair]],
        acc: &mut [[i32; TILE]],
    ) {
        debug_assert!(acts.len() == K && acc.len() == K);
        let nib = _mm256_set1_epi8(0x0F);
        let mut lo = [_mm256_setzero_si256(); K];
        let mut hi = [_mm256_setzero_si256(); K];
        for (p, block) in blocks.iter().enumerate() {
            // SAFETY: `Block` is 32 readable bytes; the load is unaligned.
            let v = unsafe { _mm256_loadu_si256(block.0.as_ptr() as *const __m256i) };
            let w_lo = _mm256_and_si256(v, nib);
            // A 16-bit shift drags bits across byte lanes; the mask
            // removes them.
            let w_hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), nib);
            for k in 0..K {
                // SAFETY: `p < blocks.len() ≤ acts[k].len()` per the
                // function contract.
                let q = _mm256_set1_epi32(unsafe { *acts.get_unchecked(k).get_unchecked(p) });
                lo[k] = _mm256_add_epi16(lo[k], _mm256_maddubs_epi16(w_lo, q));
                hi[k] = _mm256_add_epi16(hi[k], _mm256_maddubs_epi16(w_hi, q));
            }
        }
        for k in 0..K {
            // SAFETY: `k < K == acc.len()` per the function contract.
            let out = unsafe { acc.get_unchecked_mut(k) }.as_mut_ptr() as *mut __m256i;
            let quarters = [
                _mm256_castsi256_si128(lo[k]),
                _mm256_extracti128_si256::<1>(lo[k]),
                _mm256_castsi256_si128(hi[k]),
                _mm256_extracti128_si256::<1>(hi[k]),
            ];
            for (j, q) in quarters.into_iter().enumerate() {
                // SAFETY: `acc[k]` is 32 i32 = four unaligned 256-bit
                // slots; `j < 4`.
                unsafe {
                    let slot = out.add(j);
                    let sum = _mm256_add_epi32(_mm256_loadu_si256(slot), _mm256_cvtepi16_epi32(q));
                    _mm256_storeu_si256(slot, sum);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_stable_and_named() {
        assert_eq!(detect(), detect());
        let isa = active_isa();
        assert!(["scalar", "avx2"].contains(&isa), "unknown {isa}");
        if cfg!(not(feature = "simd")) {
            assert_eq!(detect(), Lanes::Scalar);
        }
    }

    #[test]
    fn flush_bound_keeps_i16_lanes_exact() {
        for qmax in [1, 3, 7, 15, 127] {
            let pairs = flush_pairs(qmax) as i32;
            assert!(2 * pairs * 15 * qmax <= i16::MAX as i32, "qmax {qmax}");
            assert!(2 * (pairs + 1) * 15 * qmax > i16::MAX as i32, "qmax {qmax}");
        }
        // The W4A4 recipe takes a whole 128-wide group in one call; 8-bit
        // activations flush every 8 pairs (16 inputs).
        assert!(flush_pairs(7) >= 64);
        assert_eq!(flush_pairs(127), 8);
    }

    /// The sums [`mac_tile`] must produce, straight from the block
    /// layout of the module docs, in i32.
    fn mac_tile_naive(blocks: &[Block], acts: &[&[CodePair]], acc: &mut [[i32; TILE]]) {
        for (a, acc) in acts.iter().zip(acc.iter_mut()) {
            for (Block(bytes), pair) in blocks.iter().zip(a.iter()) {
                let [q0, q1, ..] = pair.to_le_bytes();
                for (lane, acc) in acc.iter_mut().enumerate() {
                    let (j, shift) = (lane % 16, 4 * (lane / 16));
                    let w0 = (bytes[2 * j] >> shift) & 0x0F;
                    let w1 = (bytes[2 * j + 1] >> shift) & 0x0F;
                    *acc += w0 as i32 * q0 as i8 as i32 + w1 as i32 * q1 as i8 as i32;
                }
            }
        }
    }

    #[test]
    fn dispatched_matches_scalar_on_all_nibbles() {
        // Every nibble value in every lane, extreme activation codes,
        // runs of exactly `flush_pairs` blocks (the overflow bound),
        // every K remainder — scalar and dispatched against the naive
        // i32 sums.
        for qmax in [7i32, 127] {
            let pairs = flush_pairs(qmax);
            let blocks: Vec<Block> = (0..pairs)
                .map(|p| {
                    let mut b = [0u8; TILE];
                    for (j, v) in b.iter_mut().enumerate() {
                        *v = match p % 3 {
                            0 => 0xFF,
                            1 => (j * 37 + p * 11) as u8,
                            _ => 0x00,
                        };
                    }
                    Block(b)
                })
                .collect();
            let extremes = [qmax as i8, -(qmax as i8)];
            for k in 1..=KBLOCK {
                let codes: Vec<Vec<CodePair>> = (0..k)
                    .map(|kk| {
                        (0..pairs)
                            .map(|p| code_pair(extremes[kk % 2], extremes[(kk + p / 3) % 2]))
                            .collect()
                    })
                    .collect();
                let acts: Vec<&[CodePair]> = codes.iter().map(|c| &c[..]).collect();
                let mut want = vec![[3i32; TILE]; k];
                mac_tile_naive(&blocks, &acts, &mut want);
                for lanes in [Lanes::Scalar, detect()] {
                    let mut got = vec![[3i32; TILE]; k];
                    mac_tile(lanes, &blocks, &acts, &mut got);
                    assert_eq!(got, want, "{lanes:?} qmax {qmax} k {k}");
                }
            }
        }
        // All-ones weights against a constant extreme code reach the
        // bound itself.
        let pairs = flush_pairs(127);
        let blocks = vec![Block([0xFF; TILE]); pairs];
        let codes = vec![code_pair(127, 127); pairs];
        let mut got = [[0i32; TILE]];
        mac_tile(detect(), &blocks, &[&codes[..]], &mut got);
        assert_eq!(got[0], [2 * pairs as i32 * 15 * 127; TILE]);
    }
}
