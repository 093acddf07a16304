//! True-integer W4A4 decode kernels over packed 4-bit weights.
//!
//! [`crate::qmodel`]'s fake-quantized path evaluates PTQ *accuracy*: it
//! dequantizes to f32 at load and every step computes in f32. This
//! module is the execution half: weights live packed — **two 4-bit codes
//! per byte** plus one f32 scale per `(output, input group)` block — and
//! one GEMM ([`gemm_packed`]; [`gemv_packed`] is its one-activation
//! case) computes `i8 activations × u4 weights → integer accumulate →
//! one f32 rescale per group`, the arithmetic of the paper's MMU.
//!
//! # Layout: output-stationary tiles, reduction-interleaved
//!
//! ```text
//!  PackedW4.blocks, tile-major:
//!
//!  tile 0 (outputs 0..32)         tile 1 (outputs 32..64)       …
//!  ┌────────┬────────┬─────┬────────┐┌────────┬────────┬───
//!  │pair 0  │pair 1  │  …  │pair P-1││pair 0  │pair 1  │ …
//!  │in 0,1  │in 2,3  │     │        ││in 0,1  │in 2,3  │
//!  └────────┴────────┴─────┴────────┘└────────┴────────┴───
//!   32 B: 32 outputs × 2 inputs, nibbles `code + 8`   (crate::simd)
//!
//!  group g owns pairs g·⌈group/2⌉ ..: a group of odd length ends in a
//!  pair whose second input does not exist (weight nibble = code 0,
//!  activation code = 0); so does an odd `in_features`. Outputs past
//!  `out_features` in the last tile are code 0 and are never read back.
//! ```
//!
//! A tile's 32 integer accumulators stay put (in registers, in the AVX2
//! form) while that tile's blocks stream past once, and up to four
//! activations share each block as it passes — weights are fetched once
//! and reused by everything resident, the paper's dataflow. The
//! micro-kernel and its overflow bound live in [`crate::simd`].
//!
//! # Why `+8`, and why outputs do not move
//!
//! The weight nibble is stored unsigned (`code + 8 ∈ [0, 15]`) because
//! the AVX2 multiply-add wants one unsigned operand. The kernel thus
//! accumulates `Σ (c+8)·q` and the sweep subtracts `8·Σq` (per
//! activation and group, computed once) — both exact integers, so the
//! group's reduction `ia = Σ c·q` is the same integer any other
//! summation order produces. Padding positions carry activation code 0
//! and add nothing to either term. Everything after that is unchanged
//! from the first integer kernel this crate had: `out += ia as f32 *
//! (wsc * asc)`, multiply then add, groups in ascending order, one
//! output element at a time. Same integers into the same float
//! operations in the same order: logits are bit-identical across
//! layouts, batch sizes, K-block remainders and instruction sets.
//!
//! # Agreement with the fake-quant reference
//!
//! Both paths share one quantization grid (the codes come from the same
//! [`QuantizedTensor`] rounding), so they differ only in accumulation:
//! the integer kernel computes `Σ_g (Σ_{i∈g} qw·qa) · sw_g·sa_g` with the
//! inner sum exact, while the reference ([`gemv_reference`]) computes
//! `Σ_g Σ_{i∈g} (qw·sw_g)·(qa·sa_g)` in f32, group-blocked in the same
//! order.
//!
//! * With **power-of-two scales** the two are **bit-exact**: every
//!   partial product `qw·qa·2^e` and every group subtotal (bounded by
//!   `8 · 127 · group ≪ 2²⁴` for any group this crate meets) is exactly
//!   representable in f32, so no operation in either path rounds. The
//!   proptests pin this.
//! * With arbitrary scales the reference rounds once per element and the
//!   integer path once per group, so outputs agree to a few ulps of each
//!   group contribution (proptested against a relative bound).
//!
//! The kernels allocate nothing: activations quantize into a reusable
//! [`ActQuant`] scratch and outputs land in caller buffers, which is what
//! keeps the serving hot path allocation-free.

use lightmamba_tensor::isa::{detect, Isa};
use lightmamba_tensor::Tensor;

use crate::quantizer::{Granularity, QuantScheme, QuantizedTensor};
use crate::simd::{code_pair, flush_pairs, mac_tile, Block, CodePair, KBLOCK, TILE};
use crate::{QuantError, Result};

/// A weight matrix in packed 4-bit form for integer GEMM.
///
/// Logical layout matches the FP path — `(in_features, out_features)`,
/// activations multiply from the left. Quantization groups run along the
/// *input* (reduction) dimension — the reduction-friendly blocking of
/// the paper's DSP-packing MMU (Fig. 5b) — so the scale grid is one f32
/// per `(output, input-group)` block.
///
/// Physical storage is the **tiled, reduction-interleaved** layout the
/// micro-kernel consumes (module docs): `out_features.div_ceil(32)`
/// tiles, each a contiguous run of one 32-byte block per input pair.
/// Scales are held twice: output-major ([`PackedW4::scales`], the grid
/// order the quantizer produces) and group-major (`scales_t`, the order
/// the rescale consumes).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedW4 {
    /// `tiles × pairs` blocks, tile-major.
    blocks: Vec<Block>,
    /// One scale per `(output, group)` block, `groups_per_row` per
    /// output — the [`QuantizedTensor`] grid order.
    scales: Vec<f32>,
    /// The same scales transposed to `[group][output]`.
    scales_t: Vec<f32>,
    group: usize,
    groups_per_row: usize,
    /// Input pairs of a full group (`group.div_ceil(2)`): every group
    /// starts on a pair boundary, so an odd group ends in a half-empty
    /// pair.
    pairs_per_group: usize,
    /// Input pairs of one tile (the last group may be ragged).
    pairs: usize,
    in_features: usize,
    out_features: usize,
}

/// Nibble of a padding position (`code 0`): inputs past the end of an
/// odd group and outputs past the last tile's real ones.
const PAD: u8 = 0x88;

impl PackedW4 {
    /// Quantizes a `(in_features, out_features)` weight matrix under a
    /// per-group scheme with `bits ≤ 4` and packs the codes. The codes
    /// are produced by the shared [`QuantizedTensor`] on the transposed
    /// matrix, so the grid is identical to fake-quantizing the packed
    /// view — the agreement proofs above rely on exactly this.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidScheme`] unless the scheme is
    /// per-group with 2–4 bits.
    pub fn quantize(weight: &Tensor, scheme: QuantScheme) -> Result<Self> {
        scheme.validate()?;
        let group = match scheme.granularity {
            Granularity::PerGroup(g) => g,
            other => {
                return Err(QuantError::InvalidScheme(format!(
                    "packed 4-bit weights need per-group scales, got {other:?}"
                )))
            }
        };
        if scheme.bits > 4 {
            return Err(QuantError::InvalidScheme(format!(
                "packed nibble storage holds at most 4-bit codes, got {}",
                scheme.bits
            )));
        }
        let (in_features, out_features) = weight.as_matrix_dims()?;
        // Quantize the transposed view so groups run along the reduction
        // (input) dimension.
        let q = QuantizedTensor::quantize(&weight.transpose()?, scheme)?;
        PackedW4::from_codes(q.codes(), q.scales(), in_features, out_features, group)
    }

    /// Packs caller-supplied codes: `codes[o · in_features + i]` is the
    /// signed 4-bit code of output `o`, input `i`, and
    /// `scales[o · groups + g]` its group's scale — the
    /// [`QuantizedTensor`] order [`PackedW4::quantize`] feeds in. Any
    /// nibble value is accepted, including the −8 the symmetric
    /// quantizer never emits.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidScheme`] for a zero dimension or
    /// group, a code outside `[-8, 7]`, or slices of the wrong length.
    pub fn from_codes(
        codes: &[i8],
        scales: &[f32],
        in_features: usize,
        out_features: usize,
        group: usize,
    ) -> Result<Self> {
        if in_features == 0 || out_features == 0 || group == 0 {
            return Err(QuantError::InvalidScheme(format!(
                "packed weight needs non-zero dimensions, got {in_features}×{out_features} group {group}"
            )));
        }
        let groups_per_row = in_features.div_ceil(group);
        if codes.len() != in_features * out_features
            || scales.len() != out_features * groups_per_row
        {
            return Err(QuantError::InvalidScheme(format!(
                "{} codes and {} scales do not describe a {in_features}×{out_features} weight \
                 in groups of {group}",
                codes.len(),
                scales.len()
            )));
        }
        if let Some(c) = codes.iter().find(|c| !(-8..=7).contains(*c)) {
            return Err(QuantError::InvalidScheme(format!(
                "code {c} does not fit a signed nibble"
            )));
        }
        let pairs_per_group = group.div_ceil(2);
        let last_group = in_features - (groups_per_row - 1) * group;
        let pairs = (groups_per_row - 1) * pairs_per_group + last_group.div_ceil(2);
        let mut scales_t = vec![0.0f32; groups_per_row * out_features];
        for o in 0..out_features {
            for g in 0..groups_per_row {
                scales_t[g * out_features + o] = scales[o * groups_per_row + g];
            }
        }
        let mut packed = PackedW4 {
            blocks: vec![Block([PAD; TILE]); out_features.div_ceil(TILE) * pairs],
            scales: scales.to_vec(),
            scales_t,
            group,
            groups_per_row,
            pairs_per_group,
            pairs,
            in_features,
            out_features,
        };
        for o in 0..out_features {
            for i in 0..in_features {
                let (block, byte, shift) = packed.locate(i, o);
                let nib = (codes[o * in_features + i] + 8) as u8;
                let b = &mut packed.blocks[block].0[byte];
                *b = (*b & !(0x0F << shift)) | (nib << shift);
            }
        }
        Ok(packed)
    }

    /// Where weight `(input i, output o)` lives: block index, byte
    /// within the block, and the nibble's bit offset.
    #[inline]
    fn locate(&self, i: usize, o: usize) -> (usize, usize, u32) {
        let (g, r) = (i / self.group, i % self.group);
        let pair = g * self.pairs_per_group + r / 2;
        let (tile, lane) = (o / TILE, o % TILE);
        (
            tile * self.pairs + pair,
            2 * (lane % (TILE / 2)) + (r & 1),
            if lane < TILE / 2 { 0 } else { 4 },
        )
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Quantization group size along the input dimension.
    pub fn group(&self) -> usize {
        self.group
    }

    /// The per-`(row, group)` scales, row-major.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Gathers output channel `o`'s signed codes (one per input) into
    /// `out` (length `in_features`) — the logical "weight row" view used
    /// by the reference oracle and tests; the hot kernel never gathers.
    pub fn unpack_row_into(&self, o: usize, out: &mut [i8]) {
        for (i, v) in out.iter_mut().enumerate().take(self.in_features) {
            let (block, byte, shift) = self.locate(i, o);
            *v = ((self.blocks[block].0[byte] >> shift) & 0x0F) as i8 - 8;
        }
    }

    /// Storage footprint in bits of the weight stream an accelerator
    /// fetches: one nibble per parameter (an odd output width rounds
    /// each input's row up to a whole byte) plus FP16 scales. The host
    /// layout's tile and pair padding is not part of that stream and is
    /// not counted.
    pub fn storage_bits(&self) -> usize {
        self.in_features * self.out_features.div_ceil(2) * 8 + self.scales.len() * 16
    }

    /// Number of quantized parameters (the storage denominator).
    pub fn params(&self) -> usize {
        self.in_features * self.out_features
    }

    /// Reconstructs the dequantized weight in the logical `(in, out)`
    /// layout — the f32 tensor the fake-quant reference oracle computes
    /// with. Shares the packed grid exactly.
    pub fn dequantized_weight(&self) -> Tensor {
        let mut w = Tensor::zeros(&[self.in_features, self.out_features]);
        let data = w.data_mut();
        let mut row = vec![0i8; self.in_features];
        for o in 0..self.out_features {
            self.unpack_row_into(o, &mut row);
            for (i, &c) in row.iter().enumerate() {
                let s = self.scales[o * self.groups_per_row + i / self.group];
                data[i * self.out_features + o] = c as f32 * s;
            }
        }
        w
    }
}

/// Reusable activation-quantization scratch: per-group symmetric i8
/// codes plus one f32 scale per group. Buffers grow on first use and are
/// reused, so quantizing an activation vector allocates nothing in
/// steady state.
#[derive(Debug, Clone, Default)]
pub struct ActQuant {
    codes: Vec<i8>,
    scales: Vec<f32>,
    group: usize,
    len: usize,
    /// Largest code magnitude of the latest scheme (sets how many input
    /// pairs the micro-kernel may accumulate in i16, see [`crate::simd`]).
    qmax: i32,
}

impl ActQuant {
    /// An empty scratch; it warms up on first use.
    pub fn new() -> Self {
        ActQuant::default()
    }

    /// Quantizes `x` under a per-group scheme (2–8 bits), reusing the
    /// internal buffers. Codes and scales match [`QuantizedTensor`] on
    /// the same vector bit-for-bit: the same absmax → scale, and a
    /// branch-free rounding that gives its round-then-clamp code.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidScheme`] for non-per-group schemes or
    /// invalid bit widths.
    pub fn quantize(&mut self, x: &[f32], scheme: QuantScheme) -> Result<()> {
        scheme.validate()?;
        let group = match scheme.granularity {
            Granularity::PerGroup(g) => g,
            other => {
                return Err(QuantError::InvalidScheme(format!(
                    "activation scratch quantizes per group, got {other:?}"
                )))
            }
        };
        let qmax = scheme.qmax() as f32;
        self.codes.resize(x.len(), 0);
        self.scales.clear();
        for (chunk, codes) in x.chunks(group).zip(self.codes.chunks_mut(group)) {
            let absmax = chunk.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let scale = scheme.scale_for(absmax);
            for (c, &v) in codes.iter_mut().zip(chunk.iter()) {
                *c = round_code(v / scale, qmax) as i8;
            }
            self.scales.push(scale);
        }
        self.group = group;
        self.len = x.len();
        self.qmax = scheme.qmax();
        Ok(())
    }

    /// The quantized codes of the latest [`ActQuant::quantize`] call.
    pub fn codes(&self) -> &[i8] {
        &self.codes[..self.len]
    }

    /// One scale per group of the latest call.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Length of the latest quantized vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no vector has been quantized yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// `q.round().clamp(-qmax, qmax)` as an integer, for the integer `qmax`
/// of a 2–8-bit scheme, without `f32::round` (a `roundf` call per
/// element on baseline x86-64), so the quantize loop vectorises.
/// Clamping first cannot change the code: `round` is monotone and maps
/// `±qmax` to itself. After the clamp, `q − trunc(q)` is exact and
/// rounding half away from zero adds ±1 when that fraction reaches
/// ±0.5. NaN stays NaN through the clamp and truncates to 0, as
/// `NaN as i8` does.
#[inline]
fn round_code(q: f32, qmax: f32) -> i32 {
    let q = q.clamp(-qmax, qmax);
    let t = q as i32;
    let f = q - t as f32;
    t + i32::from(f >= 0.5) - i32::from(f <= -0.5)
}

fn check_gemv(w: &PackedW4, act: &ActQuant, out: &[f32]) -> Result<()> {
    if act.len() != w.in_features {
        return Err(QuantError::InvalidScheme(format!(
            "activation length {} does not match in_features {}",
            act.len(),
            w.in_features
        )));
    }
    if act.group != w.group {
        return Err(QuantError::InvalidScheme(format!(
            "activation group {} does not match weight group {}",
            act.group, w.group
        )));
    }
    if out.len() != w.out_features {
        return Err(QuantError::InvalidScheme(format!(
            "output length {} does not match out_features {}",
            out.len(),
            w.out_features
        )));
    }
    Ok(())
}

/// Reusable scratch of [`gemv_packed`] / [`gemm_packed`]: every
/// activation's codes re-laid as the code pairs the micro-kernel
/// broadcasts (each group padded to a whole pair with a zero code), and
/// `Σq` per `(activation, group)` for the `−8·Σq` correction. Grows to
/// the largest batch seen, then allocation-free.
#[derive(Debug, Clone, Default)]
pub struct GemvScratch {
    pairs: Vec<CodePair>,
    qsum: Vec<i32>,
}

impl GemvScratch {
    /// An empty scratch; it warms up on first use.
    pub fn new() -> Self {
        GemvScratch::default()
    }

    /// Lays `acts` out for a sweep over `w`; returns the largest code
    /// magnitude any of their schemes allows.
    fn load(&mut self, w: &PackedW4, acts: &[ActQuant]) -> i32 {
        self.pairs.clear();
        self.pairs.resize(acts.len() * w.pairs, 0);
        self.qsum.clear();
        let mut qmax = 1;
        for (act, pairs) in acts.iter().zip(self.pairs.chunks_exact_mut(w.pairs)) {
            qmax = qmax.max(act.qmax);
            for (codes, pairs) in act
                .codes()
                .chunks(w.group)
                .zip(pairs.chunks_mut(w.pairs_per_group))
            {
                self.qsum.push(codes.iter().map(|&q| q as i32).sum());
                for (q, pair) in codes.chunks(2).zip(pairs) {
                    *pair = code_pair(q[0], q.get(1).copied().unwrap_or(0));
                }
            }
        }
        qmax
    }
}

/// Integer GEMV: `out[o] = Σ_g (Σ_{i∈g} qw·qa) · sw[o,g]·sa[g]`, with the
/// inner reduction exact in integers and one f32 rescale per `(output,
/// group)` block — the arithmetic the DSP tree of the paper's MMU
/// performs. This is the one-activation case of [`gemm_packed`]: same
/// kernel, same loop, `scratch` allocation-free once warm.
///
/// The integer sweep runs on the instruction set
/// [`lightmamba_tensor::isa::detect`] picks (AVX2 on a capable `x86_64`
/// host, scalar otherwise); results are bit-identical either way — see
/// [`crate::simd`] for the argument and [`gemv_packed_scalar`] for the
/// pinned-scalar entry point.
///
/// # Errors
///
/// Returns [`QuantError::InvalidScheme`] on any shape or group mismatch.
pub fn gemv_packed(
    w: &PackedW4,
    act: &ActQuant,
    scratch: &mut GemvScratch,
    out: &mut [f32],
) -> Result<()> {
    gemm_rows(
        w,
        std::slice::from_ref(act),
        scratch,
        &mut [out],
        |o| &mut o[..],
        detect(),
    )
}

/// [`gemv_packed`] forced onto the scalar micro-kernel — the oracle the
/// SIMD dispatch is proptested bit-identical against, and the kernel
/// every host without AVX2 runs.
///
/// # Errors
///
/// Same conditions as [`gemv_packed`].
pub fn gemv_packed_scalar(
    w: &PackedW4,
    act: &ActQuant,
    scratch: &mut GemvScratch,
    out: &mut [f32],
) -> Result<()> {
    gemm_rows(
        w,
        std::slice::from_ref(act),
        scratch,
        &mut [out],
        |o| &mut o[..],
        Isa::Scalar,
    )
}

/// The fake-quant reference oracle for [`gemv_packed`]: dequantize both
/// operands element-wise and accumulate in f32, group-blocked in the
/// same group order. Bit-exact against the integer kernel under
/// power-of-two scales; within a few ulps per group otherwise (module
/// docs). This is deliberately the *slow honest* implementation.
///
/// # Errors
///
/// Same conditions as [`gemv_packed`].
pub fn gemv_reference(w: &PackedW4, act: &ActQuant, out: &mut [f32]) -> Result<()> {
    check_gemv(w, act, out)?;
    let qa = act.codes();
    let mut row = vec![0i8; w.in_features];
    for (o, out_v) in out.iter_mut().enumerate() {
        w.unpack_row_into(o, &mut row);
        let row_scales = &w.scales[o * w.groups_per_row..(o + 1) * w.groups_per_row];
        let mut acc = 0.0f32;
        for (g, (&wsc, &asc)) in row_scales.iter().zip(act.scales()).enumerate() {
            let start = g * w.group;
            let end = (start + w.group).min(w.in_features);
            let mut fsum = 0.0f32;
            for i in start..end {
                fsum += (row[i] as f32 * wsc) * (qa[i] as f32 * asc);
            }
            acc += fsum;
        }
        *out_v = acc;
    }
    Ok(())
}

/// Integer GEMM over a shared packed weight, output-stationary: each
/// tile's blocks are streamed once per four activations (and stay
/// L1-hot across the blocks of a larger batch), which is the software
/// analogue of the accelerator's shared weight stream. `outs[k]` is
/// resized to `out_features` (allocation-free once warm).
///
/// `outs[k]` is bit-identical to [`gemv_packed`] of `acts[k]` alone, and
/// the dispatched sweep is bit-identical to [`gemm_packed_scalar`].
///
/// # Errors
///
/// Returns [`QuantError::InvalidScheme`] on any shape or group mismatch,
/// including `acts.len() != outs.len()`.
pub fn gemm_packed(
    w: &PackedW4,
    acts: &[ActQuant],
    scratch: &mut GemvScratch,
    outs: &mut [Vec<f32>],
) -> Result<()> {
    gemm_packed_isa(w, acts, scratch, outs, detect())
}

/// [`gemm_packed`] forced onto the scalar micro-kernel — the oracle the
/// SIMD dispatch is proptested bit-identical against.
///
/// # Errors
///
/// Same conditions as [`gemm_packed`].
pub fn gemm_packed_scalar(
    w: &PackedW4,
    acts: &[ActQuant],
    scratch: &mut GemvScratch,
    outs: &mut [Vec<f32>],
) -> Result<()> {
    gemm_packed_isa(w, acts, scratch, outs, Isa::Scalar)
}

fn gemm_packed_isa(
    w: &PackedW4,
    acts: &[ActQuant],
    scratch: &mut GemvScratch,
    outs: &mut [Vec<f32>],
    isa: Isa,
) -> Result<()> {
    for out in outs.iter_mut() {
        out.resize(w.out_features, 0.0);
    }
    gemm_rows(w, acts, scratch, outs, |o| &mut o[..], isa)
}

/// [`gemm_packed`] writing into one `out_features`-long slice of each
/// `rows[k]`, picked by `out_of` — how the quantized model lands a
/// projection in its per-sequence scratch without staging copies.
///
/// # Errors
///
/// Same conditions as [`gemm_packed`].
pub(crate) fn gemm_packed_into<T>(
    w: &PackedW4,
    acts: &[ActQuant],
    scratch: &mut GemvScratch,
    rows: &mut [T],
    out_of: impl for<'a> Fn(&'a mut T) -> &'a mut [f32],
) -> Result<()> {
    gemm_rows(w, acts, scratch, rows, out_of, detect())
}

/// The one GEMM loop: tile-outer, then [`KBLOCK`] activations at a time,
/// then groups ascending. Per `(tile, activation block, group)` the
/// micro-kernel leaves `Σ (c+8)·q` in i32; the correction and the f32
/// rescale happen here, in the order every earlier kernel used
/// (`out += ia as f32 * (wsc * asc)`, one group after the other), which
/// is what keeps outputs bit-identical across kernels, batch sizes and
/// instruction sets.
fn gemm_rows<T>(
    w: &PackedW4,
    acts: &[ActQuant],
    scratch: &mut GemvScratch,
    rows: &mut [T],
    out_of: impl for<'a> Fn(&'a mut T) -> &'a mut [f32],
    isa: Isa,
) -> Result<()> {
    if acts.len() != rows.len() {
        return Err(QuantError::InvalidScheme(format!(
            "{} activations for {} outputs",
            acts.len(),
            rows.len()
        )));
    }
    for (act, row) in acts.iter().zip(rows.iter_mut()) {
        let out = out_of(row);
        check_gemv(w, act, out)?;
        out.fill(0.0);
    }
    let run = flush_pairs(scratch.load(w, acts));
    let groups = w.groups_per_row;
    let mut acc = [[0i32; TILE]; KBLOCK];
    for (tile, blocks) in w.blocks.chunks_exact(w.pairs).enumerate() {
        let o0 = tile * TILE;
        let o1 = (o0 + TILE).min(w.out_features);
        for k0 in (0..acts.len()).step_by(KBLOCK) {
            let kb = KBLOCK.min(acts.len() - k0);
            for g in 0..groups {
                let p0 = g * w.pairs_per_group;
                let p1 = (p0 + w.pairs_per_group).min(w.pairs);
                let acc = &mut acc[..kb];
                acc.fill([0; TILE]);
                let mut lo = p0;
                while lo < p1 {
                    let hi = (lo + run).min(p1);
                    let codes: [&[CodePair]; KBLOCK] = std::array::from_fn(|kk| {
                        let base = (k0 + kk) * w.pairs;
                        if kk < kb {
                            &scratch.pairs[base + lo..base + hi]
                        } else {
                            &[]
                        }
                    });
                    mac_tile(isa, &blocks[lo..hi], &codes[..kb], acc);
                    lo = hi;
                }
                let wscales = &w.scales_t[g * w.out_features..][o0..o1];
                for (kk, acc) in acc.iter().enumerate() {
                    let k = k0 + kk;
                    let asc = acts[k].scales()[g];
                    let bias = 8 * scratch.qsum[k * groups + g];
                    let out = &mut out_of(&mut rows[k])[o0..o1];
                    // With PoT scales every operation here is exact
                    // (module docs).
                    for ((out_v, &ia), &wsc) in out.iter_mut().zip(acc).zip(wscales) {
                        *out_v += (ia - bias) as f32 * (wsc * asc);
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_weight(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
        Tensor::from_fn(&[rows, cols], |_| rng.gen_range(-0.5f32..0.5))
    }

    fn w4(group: usize) -> QuantScheme {
        QuantScheme::weight_per_group(4, group)
    }

    #[test]
    fn packed_matches_quantized_tensor_grid() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = random_weight(&mut rng, 32, 24);
        let p = PackedW4::quantize(&w, w4(8)).unwrap();
        let wt = w.transpose().unwrap();
        let q = QuantizedTensor::quantize(&wt, w4(8)).unwrap();
        let mut row = vec![0i8; 32];
        for o in 0..24 {
            p.unpack_row_into(o, &mut row);
            assert_eq!(&row, &q.codes()[o * 32..(o + 1) * 32], "row {o}");
        }
        assert_eq!(p.scales(), q.scales());
        // Dequantized weight matches the transposed fake-quant grid.
        let dq = p.dequantized_weight();
        let dq_t = q.dequantize();
        for o in 0..24 {
            for i in 0..32 {
                assert_eq!(dq.data()[i * 24 + o], dq_t.data()[o * 32 + i], "({i},{o})");
            }
        }
    }

    #[test]
    fn gemv_matches_reference_closely() {
        let mut rng = StdRng::seed_from_u64(2);
        for &(inf, outf, group) in &[(64usize, 48usize, 16usize), (33, 7, 5), (128, 16, 128)] {
            let w = random_weight(&mut rng, inf, outf);
            let p = PackedW4::quantize(&w, w4(group)).unwrap();
            let x: Vec<f32> = (0..inf).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let mut act = ActQuant::new();
            act.quantize(&x, QuantScheme::act_per_group(4, group))
                .unwrap();
            let mut iacc = GemvScratch::new();
            let mut int_out = vec![0.0f32; outf];
            let mut ref_out = vec![0.0f32; outf];
            gemv_packed(&p, &act, &mut iacc, &mut int_out).unwrap();
            gemv_reference(&p, &act, &mut ref_out).unwrap();
            for (a, b) in int_out.iter().zip(ref_out.iter()) {
                assert!((a - b).abs() <= 1e-5 * b.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn gemv_is_bit_exact_under_pot_scales() {
        let mut rng = StdRng::seed_from_u64(3);
        let pot = |bits, group| QuantScheme {
            bits,
            granularity: Granularity::PerGroup(group),
            pot_scale: true,
        };
        let w = random_weight(&mut rng, 96, 40);
        let p = PackedW4::quantize(&w, pot(4, 16)).unwrap();
        let x: Vec<f32> = (0..96).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
        let mut act = ActQuant::new();
        act.quantize(&x, pot(4, 16)).unwrap();
        let mut iacc = GemvScratch::new();
        let mut int_out = vec![0.0f32; 40];
        let mut ref_out = vec![0.0f32; 40];
        gemv_packed(&p, &act, &mut iacc, &mut int_out).unwrap();
        gemv_reference(&p, &act, &mut ref_out).unwrap();
        assert_eq!(int_out, ref_out, "PoT scales must be bit-exact");
    }

    #[test]
    fn gemm_matches_gemv_per_row() {
        let mut rng = StdRng::seed_from_u64(4);
        let w = random_weight(&mut rng, 48, 32);
        let p = PackedW4::quantize(&w, w4(16)).unwrap();
        let mut acts = Vec::new();
        for _ in 0..3 {
            let x: Vec<f32> = (0..48).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let mut a = ActQuant::new();
            a.quantize(&x, QuantScheme::act_per_group(4, 16)).unwrap();
            acts.push(a);
        }
        let mut outs = vec![Vec::new(), Vec::new(), Vec::new()];
        let mut iacc = GemvScratch::new();
        gemm_packed(&p, &acts, &mut iacc, &mut outs).unwrap();
        for (a, out) in acts.iter().zip(&outs) {
            let mut single = vec![0.0f32; 32];
            let mut siacc = GemvScratch::new();
            gemv_packed(&p, a, &mut siacc, &mut single).unwrap();
            assert_eq!(out, &single);
        }
    }

    #[test]
    fn act_quant_matches_quantized_tensor() {
        let mut rng = StdRng::seed_from_u64(5);
        let x: Vec<f32> = (0..50).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
        let scheme = QuantScheme::act_per_group(4, 16);
        let mut act = ActQuant::new();
        act.quantize(&x, scheme).unwrap();
        let t = Tensor::from_vec(x.clone(), &[x.len()]).unwrap();
        let q = QuantizedTensor::quantize(&t, scheme).unwrap();
        assert_eq!(act.codes(), q.codes());
        assert_eq!(act.scales(), q.scales());
        // Reuse shrinks cleanly.
        act.quantize(&x[..10], scheme).unwrap();
        assert_eq!(act.len(), 10);
        assert_eq!(act.scales().len(), 1);
    }

    #[test]
    fn round_code_is_round_then_clamp() {
        let near = |v: f32| {
            let b = v.to_bits();
            [b.wrapping_sub(1), b, b + 1].map(f32::from_bits)
        };
        for bits in 2..=8u8 {
            let qmax = QuantScheme::act_per_group(bits, 1).qmax() as f32;
            // Every quarter step over ±(qmax + 2), and the floats on both
            // sides of each, so every tie and ±(qmax ± ½) is hit.
            let edge = 4 * (qmax as i32 + 2);
            let quarters = (-edge..=edge).map(|k| k as f32 / 4.0);
            let specials = [
                0.0,
                -0.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
                1e30,
                -1e30,
            ];
            for q in quarters.flat_map(near).chain(specials) {
                let want = q.round().clamp(-qmax, qmax) as i8;
                assert_eq!(round_code(q, qmax) as i8, want, "q {q} qmax {qmax}");
            }
        }
    }

    #[test]
    fn rejects_mismatched_shapes_and_schemes() {
        let mut rng = StdRng::seed_from_u64(6);
        let w = random_weight(&mut rng, 16, 8);
        assert!(PackedW4::quantize(&w, QuantScheme::weight_per_channel(4)).is_err());
        assert!(PackedW4::quantize(&w, w4(0)).is_err());
        assert!(PackedW4::quantize(&w, QuantScheme::weight_per_group(8, 4)).is_err());
        let p = PackedW4::quantize(&w, w4(8)).unwrap();
        let mut act = ActQuant::new();
        act.quantize(&[0.5; 16], QuantScheme::act_per_group(4, 4))
            .unwrap();
        let mut iacc = GemvScratch::new();
        let mut out = vec![0.0; 8];
        // Group mismatch.
        assert!(gemv_packed(&p, &act, &mut iacc, &mut out).is_err());
        act.quantize(&[0.5; 12], QuantScheme::act_per_group(4, 8))
            .unwrap();
        // Length mismatch.
        assert!(gemv_packed(&p, &act, &mut iacc, &mut out).is_err());
        act.quantize(&[0.5; 16], QuantScheme::act_per_group(4, 8))
            .unwrap();
        // Output length mismatch.
        assert!(gemv_packed(&p, &act, &mut iacc, &mut out[..4]).is_err());
        gemv_packed(&p, &act, &mut iacc, &mut out).unwrap();
        // Hand-built codes: wrong lengths, a value no nibble holds, an
        // empty dimension.
        assert!(PackedW4::from_codes(&[0; 6], &[1.0; 3], 2, 3, 2).is_ok());
        assert!(PackedW4::from_codes(&[0; 5], &[1.0; 3], 2, 3, 2).is_err());
        assert!(PackedW4::from_codes(&[0; 6], &[1.0; 6], 2, 3, 2).is_err());
        assert!(PackedW4::from_codes(&[0, 0, 8, 0, 0, 0], &[1.0; 3], 2, 3, 2).is_err());
        assert!(PackedW4::from_codes(&[], &[], 0, 3, 2).is_err());
    }

    #[test]
    fn storage_accounts_packed_bytes_and_scales() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = random_weight(&mut rng, 32, 16);
        let p = PackedW4::quantize(&w, w4(16)).unwrap();
        // 32 input rows × 8 bytes of nibbles + 16 outs × 2 groups of
        // 16-bit scales.
        assert_eq!(p.storage_bits(), 32 * 8 * 8 + 32 * 16);
        assert_eq!(p.params(), 512);
        // Odd output width pads each input row to a whole byte; the host
        // layout's own padding (a 5-wide tile of 32) is not counted.
        let w = random_weight(&mut rng, 16, 5);
        let p = PackedW4::quantize(&w, w4(16)).unwrap();
        assert_eq!(p.storage_bits(), 16 * 3 * 8 + 5 * 16);
    }
}
