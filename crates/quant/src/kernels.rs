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
//! # Layout: output-stationary tiles, reduction-interleaved by quads
//!
//! ```text
//!  PackedW4.blocks, tile-major:
//!
//!  tile 0 (outputs 0..32)          tile 1 (outputs 32..64)       …
//!  ┌────────┬────────┬─────┬────────┐┌────────┬────────┬───
//!  │quad 0  │quad 1  │  …  │quad Q-1││quad 0  │quad 1  │ …
//!  │in 0..4 │in 4..8 │     │        ││in 0..4 │in 4..8 │
//!  └────────┴────────┴─────┴────────┘└────────┴────────┴───
//!   64 B: 32 outputs × 4 inputs, nibbles `code + 8`   (crate::simd)
//!
//!  group g owns quads g·⌈group/4⌉ ..: a group whose length is not a
//!  multiple of 4 ends in a quad whose last inputs do not exist (weight
//!  nibble = code 0, activation code = 0); so does a ragged
//!  `in_features`. Outputs past `out_features` in the last tile are
//!  code 0 and are never read back.
//! ```
//!
//! A tile's 32 integer accumulators stay put (in registers, in the
//! vector forms) while that tile's blocks stream past once, and up to
//! four activations share each block as it passes — weights are fetched
//! once and reused by everything resident, the paper's dataflow. The
//! scalar, AVX2 and AVX-512 forms all read this one layout; the
//! micro-kernel and its overflow bounds live in [`crate::simd`].
//!
//! # Why `+8`, and why outputs do not move
//!
//! The weight nibble is stored unsigned (`code + 8 ∈ [0, 15]`) because
//! the byte multiply-adds of AVX2 and AVX-512 VNNI want one unsigned
//! operand. The kernel thus
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

use std::ops::Range;

use lightmamba_tensor::isa::{detect, Isa};
use lightmamba_tensor::Tensor;

#[cfg(any(doc, test))]
use crate::quantizer::QuantizedTensor;
use crate::quantizer::{Granularity, QuantScheme};
use crate::simd::{
    amx_form, code_quad, flush_quads, sweep, Act, Block, CodeQuad, Weights, AMX_QUADS, AMX_ROWS,
    KBLOCK, QUAD, TILE,
};
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
/// tiles, each a contiguous run of one 64-byte block per input quad.
/// Scales are held twice: output-major ([`PackedW4::scales`], the grid
/// order the quantizer produces) and group-major (`scales_t`, the order
/// the rescale consumes).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedW4 {
    /// `tiles × quads` blocks, tile-major.
    blocks: Vec<Block>,
    /// One scale per `(output, group)` block, `groups_per_row` per
    /// output — the [`QuantizedTensor`] grid order.
    scales: Vec<f32>,
    /// The same scales transposed to `[group][output]`.
    scales_t: Vec<f32>,
    group: usize,
    groups_per_row: usize,
    /// Input quads of a full group (`group.div_ceil(4)`): every group
    /// starts on a quad boundary, so a group of `4n + r` inputs ends in a
    /// quad with `4 − r` padding inputs.
    quads_per_group: usize,
    /// Input quads of one tile (the last group may be ragged).
    quads: usize,
    in_features: usize,
    out_features: usize,
}

impl PackedW4 {
    /// Quantizes a `(in_features, out_features)` weight matrix under a
    /// per-group scheme with `bits ≤ 4` and packs the codes, one
    /// 32-output tile at a time (`PackedW4::quantize_rows` over the
    /// tile's columns), so no transposed copy of the whole weight is
    /// made. Each output's codes and scales are those the shared
    /// [`QuantizedTensor`] gives the transposed matrix, so the grid is
    /// identical to fake-quantizing the packed view — the agreement
    /// proofs above rely on exactly this.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidScheme`] unless the scheme is
    /// per-group with 2–4 bits, and for the shapes
    /// [`PackedW4::from_codes`] rejects.
    pub fn quantize(weight: &Tensor, scheme: QuantScheme) -> Result<Self> {
        let (in_features, out_features) = weight.as_matrix_dims()?;
        let w = weight.data();
        PackedW4::quantize_rows(in_features, out_features, scheme, |outputs, rows| {
            // Output `o`'s inputs are column `o` of the weight.
            for (i, src) in w.chunks_exact(out_features).enumerate() {
                for (lane, &v) in src[outputs.clone()].iter().enumerate() {
                    rows[lane * in_features + i] = v;
                }
            }
            Ok(())
        })
    }

    /// Quantizes and packs an `in_features × out_features` weight given
    /// by its outputs' rows, one 32-output tile at a time:
    /// `fill(outputs, rows)` writes the inputs of outputs `outputs` into
    /// `rows`, `in_features` values per output. Each row is quantized on
    /// its own ([`QuantizedTensor::quantize`]'s per-group blocks), so the
    /// result is [`PackedW4::quantize`] of the matrix whose column `o` is
    /// output `o`'s row, whatever produced the rows; only one tile of
    /// them is held at a time.
    ///
    /// # Errors
    ///
    /// As [`PackedW4::quantize`]; an error of `fill` is passed on.
    pub(crate) fn quantize_rows(
        in_features: usize,
        out_features: usize,
        scheme: QuantScheme,
        mut fill: impl FnMut(Range<usize>, &mut [f32]) -> Result<()>,
    ) -> Result<Self> {
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
        let mut packed = PackedW4::empty(in_features, out_features, group)?;
        let isa = detect();
        let tile = TILE.min(out_features) * in_features;
        let (mut rows, mut codes) = (vec![0.0f32; tile], vec![0i8; tile]);
        let mut scales = Vec::with_capacity(out_features * packed.groups_per_row);
        for o0 in (0..out_features).step_by(TILE) {
            let outputs = o0..(o0 + TILE).min(out_features);
            let n = outputs.len() * in_features;
            fill(outputs, &mut rows[..n])?;
            for (row, codes) in rows[..n]
                .chunks_exact(in_features)
                .zip(codes.chunks_exact_mut(in_features))
            {
                quantize_groups(isa, row, group, scheme, codes, &mut scales);
            }
            packed.push_tile(&codes[..n]);
        }
        packed.set_scales(scales);
        Ok(packed)
    }

    /// Packs caller-supplied codes: `codes[o · in_features + i]` is the
    /// signed 4-bit code of output `o`, input `i`, and
    /// `scales[o · groups + g]` its group's scale — the
    /// [`QuantizedTensor`] order [`PackedW4::quantize`] produces. Any
    /// nibble value is accepted, including the −8 the symmetric
    /// quantizer never emits.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidScheme`] for a zero dimension or
    /// group, an `in_features` whose integer dot products could overflow
    /// i32 (`in_features · 15 · 127 ≥ 2³¹`, see [`crate::simd`]), a code
    /// outside `[-8, 7]`, or slices of the wrong length.
    pub fn from_codes(
        codes: &[i8],
        scales: &[f32],
        in_features: usize,
        out_features: usize,
        group: usize,
    ) -> Result<Self> {
        let mut packed = PackedW4::empty(in_features, out_features, group)?;
        if codes.len() != in_features * out_features
            || scales.len() != out_features * packed.groups_per_row
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
        for tile in codes.chunks(TILE * in_features) {
            packed.push_tile(tile);
        }
        packed.set_scales(scales.to_vec());
        Ok(packed)
    }

    /// A packed weight of this shape with no tile packed and no scale
    /// set yet.
    ///
    /// # Errors
    ///
    /// The shape errors of [`PackedW4::from_codes`].
    fn empty(in_features: usize, out_features: usize, group: usize) -> Result<Self> {
        if in_features == 0 || out_features == 0 || group == 0 {
            return Err(QuantError::InvalidScheme(format!(
                "packed weight needs non-zero dimensions, got {in_features}×{out_features} group {group}"
            )));
        }
        if in_features.saturating_mul(15 * 127) > i32::MAX as usize {
            return Err(QuantError::InvalidScheme(format!(
                "{in_features} inputs could overflow the kernel's i32 accumulators"
            )));
        }
        let groups_per_row = in_features.div_ceil(group);
        let quads_per_group = group.div_ceil(QUAD);
        let last_group = in_features - (groups_per_row - 1) * group;
        let quads = (groups_per_row - 1) * quads_per_group + last_group.div_ceil(QUAD);
        Ok(PackedW4 {
            blocks: Vec::with_capacity(out_features.div_ceil(TILE) * quads),
            scales: Vec::new(),
            scales_t: Vec::new(),
            group,
            groups_per_row,
            quads_per_group,
            quads,
            in_features,
            out_features,
        })
    }

    /// Packs the next tile: `codes` holds up to 32 outputs' codes,
    /// `in_features` each; lanes past them are padding.
    fn push_tile(&mut self, codes: &[i8]) {
        let in_features = self.in_features;
        // Each lane's codes; a lane past the last output reads none.
        let lane_codes: [&[i8]; TILE] = std::array::from_fn(|lane| {
            codes
                .get(lane * in_features..(lane + 1) * in_features)
                .unwrap_or(&[])
        });
        for quad in 0..self.quads {
            // The quad's inputs `i0..i0 + n` (module docs' layout).
            let (g, r0) = (
                quad / self.quads_per_group,
                QUAD * (quad % self.quads_per_group),
            );
            let i0 = g * self.group + r0;
            let n = QUAD.min(self.group - r0).min(in_features - i0);
            // A lane's four nibbles `code + 8` (`code ^ 8` in the low
            // four bits), code 0 where the input or the lane is padding.
            let nibbles = |lane: usize| {
                let mut quad = [0i8; QUAD];
                if let Some(c) = lane_codes[lane].get(i0..i0 + n) {
                    quad[..n].copy_from_slice(c);
                }
                (u32::from_le_bytes(quad.map(|c| c as u8)) ^ 0x0808_0808) & 0x0F0F_0F0F
            };
            let mut block = Block([0; TILE * QUAD / 2]);
            for (lane, bytes) in block.0.chunks_exact_mut(QUAD).enumerate() {
                let word = nibbles(lane) | nibbles(lane + TILE / 2) << 4;
                bytes.copy_from_slice(&word.to_le_bytes());
            }
            self.blocks.push(block);
        }
    }

    /// Sets the output-major scales and their group-major copy.
    fn set_scales(&mut self, scales: Vec<f32>) {
        let (groups, outputs) = (self.groups_per_row, self.out_features);
        self.scales_t = vec![0.0f32; groups * outputs];
        for (o, row) in scales.chunks_exact(groups).enumerate() {
            for (g, &s) in row.iter().enumerate() {
                self.scales_t[g * outputs + o] = s;
            }
        }
        self.scales = scales;
    }

    /// Where weight `(input i, output o)` lives: block index, byte
    /// within the block, and the nibble's bit offset.
    #[inline]
    fn locate(&self, i: usize, o: usize) -> (usize, usize, u32) {
        let (g, r) = (i / self.group, i % self.group);
        let quad = g * self.quads_per_group + r / QUAD;
        let (tile, lane) = (o / TILE, o % TILE);
        (
            tile * self.quads + quad,
            QUAD * (lane % (TILE / 2)) + r % QUAD,
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

    /// Every byte of the packed layout, block after block.
    #[cfg(test)]
    pub(crate) fn layout_bytes(&self) -> impl Iterator<Item = u8> + '_ {
        self.blocks.iter().flat_map(|b| b.0)
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
    /// layout's tile and quad padding is not part of that stream and is
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
    ///
    /// Walks the result row by row: input `i`'s codes for outputs
    /// `32t..32t + 32` are one nibble column of one block.
    pub fn dequantized_weight(&self) -> Tensor {
        let mut w = Tensor::zeros(&[self.in_features, self.out_features]);
        for (i, row) in w.data_mut().chunks_exact_mut(self.out_features).enumerate() {
            let (block, byte, _) = self.locate(i, 0);
            let scales = &self.scales_t[(i / self.group) * self.out_features..];
            for (o, (v, &s)) in row.iter_mut().zip(scales).enumerate() {
                let (tile, lane) = (o / TILE, o % TILE);
                let b = self.blocks[block + tile * self.quads].0[byte + QUAD * (lane % (TILE / 2))];
                let nib = if lane < TILE / 2 { b & 0x0F } else { b >> 4 };
                *v = (nib as i8 - 8) as f32 * s;
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
    /// quads the micro-kernel may accumulate in i16, see [`crate::simd`]).
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
    /// branch-free rounding that gives its round-then-clamp code. Runs
    /// the host's form ([`detect`]).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidScheme`] for non-per-group schemes or
    /// invalid bit widths.
    #[inline(always)]
    pub fn quantize(&mut self, x: &[f32], scheme: QuantScheme) -> Result<()> {
        self.quantize_on(detect(), x, scheme)
    }

    /// [`ActQuant::quantize`] on `isa`'s form: on `Isa::Avx512` 16 lanes
    /// at a time, the group's absmax and codes in registers. Every form
    /// gives the same codes and scales.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ActQuant::quantize`].
    #[inline(always)]
    pub(crate) fn quantize_on(&mut self, isa: Isa, x: &[f32], scheme: QuantScheme) -> Result<()> {
        scheme.validate()?;
        let group = match scheme.granularity {
            Granularity::PerGroup(g) => g,
            other => {
                return Err(QuantError::InvalidScheme(format!(
                    "activation scratch quantizes per group, got {other:?}"
                )))
            }
        };
        self.codes.resize(x.len(), 0);
        self.scales.clear();
        quantize_groups(isa, x, group, scheme, &mut self.codes, &mut self.scales);
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

/// Codes of `x` into `codes` (as long) and one scale per `group`-element
/// group pushed onto `scales`, on `isa`'s form ([`ActQuant::quantize_on`]);
/// [`QuantizedTensor::quantize`] runs its blocks through it as well.
#[inline(always)]
pub(crate) fn quantize_groups(
    isa: Isa,
    x: &[f32],
    group: usize,
    scheme: QuantScheme,
    codes: &mut [i8],
    scales: &mut Vec<f32>,
) {
    match isa {
        // SAFETY: no other crate can build an `Isa::Avx512`, and
        // `detect` / `Isa::supported` hand one out only where AVX512F is
        // present.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 { .. } => unsafe { avx512::quantize_groups(x, group, scheme, codes, scales) },
        _ => {
            let qmax = scheme.qmax() as f32;
            for (chunk, codes) in x.chunks(group).zip(codes.chunks_mut(group)) {
                let scale = scheme.scale_for(group_absmax(chunk));
                for (c, &v) in codes.iter_mut().zip(chunk.iter()) {
                    *c = round_code(v / scale, qmax) as i8;
                }
                scales.push(scale);
            }
        }
    }
}

/// The 16-lane form of [`ActQuant::quantize`]'s groups.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    use lightmamba_tensor::isa::lanes16::{load, mask16};

    use crate::quantizer::QuantScheme;

    /// Per group: the absmax over 16 lanes (`max(|v|, m)` returns `m`
    /// when `|v|` is NaN, `f32::max`'s rule; on the non-negative values
    /// left `max` is exact in any order), the scalar `scale_for`, then
    /// each code as [`super::round_code`] gives it — `v / scale` a true
    /// division, NaN to 0, the clamp, truncation, the ±½ fix-up — and
    /// narrowed to `i8` in the register.
    ///
    /// # Panics
    ///
    /// Unless `codes.len() == x.len()` and `group ≥ 1`.
    #[target_feature(enable = "avx512f")]
    pub(super) fn quantize_groups(
        x: &[f32],
        group: usize,
        scheme: QuantScheme,
        codes: &mut [i8],
        scales: &mut Vec<f32>,
    ) {
        assert!(codes.len() == x.len() && group >= 1);
        let qmax = scheme.qmax() as f32;
        let q = Rounding {
            hi: _mm512_set1_ps(qmax),
            lo: _mm512_set1_ps(-qmax),
            half: _mm512_set1_ps(0.5),
            neg_half: _mm512_set1_ps(-0.5),
            one: _mm512_set1_epi32(1),
        };
        for (chunk, codes) in x.chunks(group).zip(codes.chunks_mut(group)) {
            let (n, p, c) = (chunk.len(), chunk.as_ptr(), codes.as_mut_ptr());
            let mut m = _mm512_setzero_ps();
            let mut i = 0;
            // SAFETY (every strip call below): the strip's lanes lie
            // inside `chunk` and the equally long `codes`.
            while i + 16 <= n {
                m = unsafe { absmax_strip::<true>(p.add(i), !0, m) };
                i += 16;
            }
            if i < n {
                m = unsafe { absmax_strip::<false>(p.add(i), mask16(n - i), m) };
            }
            let scale = scheme.scale_for(_mm512_reduce_max_ps(m));
            let s = _mm512_set1_ps(scale);
            let mut i = 0;
            while i + 16 <= n {
                unsafe { code_strip::<true>(p.add(i), c.add(i), !0, s, &q) };
                i += 16;
            }
            if i < n {
                unsafe { code_strip::<false>(p.add(i), c.add(i), mask16(n - i), s, &q) };
            }
            scales.push(scale);
        }
    }

    /// The constants of [`code_strip`]'s rounding.
    struct Rounding {
        hi: __m512,
        lo: __m512,
        half: __m512,
        neg_half: __m512,
        one: __m512i,
    }

    /// `max(|v|, m)` lane-wise over one strip.
    ///
    /// # Safety
    ///
    /// AVX512F, and the strip's lanes must be readable.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn absmax_strip<const FULL: bool>(p: *const f32, k: __mmask16, m: __m512) -> __m512 {
        // SAFETY: the caller's contract.
        let v = unsafe { load::<FULL>(k, p) };
        _mm512_max_ps(_mm512_abs_ps(v), m)
    }

    /// One strip of codes, as [`super::round_code`] gives them for
    /// `v / scale`, narrowed to `i8` in the register.
    ///
    /// # Safety
    ///
    /// AVX512F, and the strip's lanes must be valid in both buffers.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn code_strip<const FULL: bool>(
        p: *const f32,
        c: *mut i8,
        k: __mmask16,
        s: __m512,
        r: &Rounding,
    ) {
        // SAFETY: the caller's contract.
        let q = _mm512_div_ps(unsafe { load::<FULL>(k, p) }, s);
        let q = _mm512_maskz_mov_ps(_mm512_cmp_ps_mask::<_CMP_ORD_Q>(q, q), q);
        let q = _mm512_min_ps(r.hi, _mm512_max_ps(r.lo, q));
        let t = _mm512_cvttps_epi32(q);
        let f = _mm512_sub_ps(q, _mm512_cvtepi32_ps(t));
        let t = _mm512_mask_add_epi32(t, _mm512_cmp_ps_mask::<_CMP_GE_OQ>(f, r.half), t, r.one);
        let t = _mm512_mask_sub_epi32(t, _mm512_cmp_ps_mask::<_CMP_LE_OQ>(f, r.neg_half), t, r.one);
        let codes = _mm512_cvtepi32_epi8(t);
        // SAFETY: the caller's contract.
        unsafe {
            if FULL {
                _mm_storeu_si128(c.cast(), codes);
            } else {
                _mm512_mask_cvtepi32_storeu_epi8(c, k, t);
            }
        }
    }
}

/// The largest `|v|` of `xs`, or 0 — [`QuantizedTensor`]'s
/// `fold(0.0, |m, v| m.max(v.abs()))` — taken over 8 lanes so it
/// vectorises. The order cannot show: `max` ignores NaN, and on the
/// non-negative values left it is associative and commutative.
#[inline(always)]
fn group_absmax(xs: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut chunks = xs.chunks_exact(8);
    for chunk in chunks.by_ref() {
        for (m, v) in lanes.iter_mut().zip(chunk) {
            *m = m.max(v.abs());
        }
    }
    let tail = chunks
        .remainder()
        .iter()
        .fold(0.0f32, |m, v| m.max(v.abs()));
    lanes.iter().fold(tail, |m, &v| m.max(v))
}

/// `q.round().clamp(-qmax, qmax)` as an integer, for the integer `qmax`
/// of a 2–8-bit scheme, without `f32::round` (a `roundf` call per
/// element on baseline x86-64) or the saturating `as i32` (a NaN and
/// range fix-up per element), so the quantize loop vectorises.
/// Clamping first cannot change the code: `round` is monotone and maps
/// `±qmax` to itself. NaN maps to 0, as `NaN as i8` does. After the
/// clamp, `q − trunc(q)` is exact and rounding half away from zero adds
/// ±1 when that fraction reaches ±0.5.
#[inline(always)]
fn round_code(q: f32, qmax: f32) -> i32 {
    let q = if q.is_nan() {
        0.0
    } else {
        q.clamp(-qmax, qmax)
    };
    // SAFETY: `q` is finite with `|q| ≤ qmax ≤ 127`, inside `i32`.
    let t = unsafe { q.to_int_unchecked::<i32>() };
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
/// activation's codes re-laid as the code quads the micro-kernel
/// broadcasts (each group padded to a whole quad with zero codes), back
/// to back and followed by 16 zero quads (`AMX_QUADS`), so the AMX form can
/// load its activation tiles in place; and `Σq` per `(activation,
/// group)` for the `−8·Σq` correction. Grows to the largest batch seen,
/// then allocation-free.
#[derive(Debug, Clone, Default)]
pub struct GemvScratch {
    quads: Vec<CodeQuad>,
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
        self.quads.clear();
        self.quads.resize(acts.len() * w.quads + AMX_QUADS, 0);
        self.qsum.clear();
        let mut qmax = 1;
        for (act, quads) in acts.iter().zip(self.quads.chunks_exact_mut(w.quads)) {
            qmax = qmax.max(act.qmax);
            let codes = act.codes();
            let groups = codes.chunks(w.group);
            self.qsum.extend(
                groups
                    .clone()
                    .map(|g| g.iter().map(|&q| q as i32).sum::<i32>()),
            );
            if w.group.is_multiple_of(QUAD) && codes.len().is_multiple_of(QUAD) {
                // Every group is whole quads, so the quads are the code
                // bytes read as little-endian words, back to back.
                for (quad, q) in quads.iter_mut().zip(codes.chunks_exact(QUAD)) {
                    *quad = code_quad(q.try_into().expect("a quad"));
                }
                continue;
            }
            // A ragged group: its last quad is padded with zero codes.
            for (codes, quads) in groups.zip(quads.chunks_mut(w.quads_per_group)) {
                for (q, quad) in codes.chunks(QUAD).zip(quads) {
                    *quad = code_quad(std::array::from_fn(|t| q.get(t).copied().unwrap_or(0)));
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
/// [`lightmamba_tensor::isa::detect`] picks (AVX-512 VNNI or AVX2 on a
/// capable `x86_64` host, scalar otherwise): [`gemv_packed_on`] of it.
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
    gemv_packed_on(detect(), w, act, scratch, out)
}

/// [`gemv_packed`] on `isa`'s micro-kernel. Results are bit-identical
/// whichever runs — see [`crate::simd`] for the argument; `Isa::Scalar`
/// is the oracle the others are tested against, and the kernel of every
/// host without AVX2.
///
/// # Errors
///
/// Same conditions as [`gemv_packed`].
pub fn gemv_packed_on(
    isa: Isa,
    w: &PackedW4,
    act: &ActQuant,
    scratch: &mut GemvScratch,
    out: &mut [f32],
) -> Result<()> {
    let acts = std::slice::from_ref(act);
    gemm_rows(isa, w, acts, scratch, &mut [out], |o| &mut o[..])
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
/// `outs[k]` is bit-identical to [`gemv_packed`] of `acts[k]` alone.
/// Runs the host's micro-kernel: [`gemm_packed_on`] of
/// [`lightmamba_tensor::isa::detect`].
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
    gemm_packed_on(detect(), w, acts, scratch, outs)
}

/// [`gemm_packed`] on `isa`'s micro-kernel, bit-identical whichever
/// runs ([`gemv_packed_on`]).
///
/// # Errors
///
/// Same conditions as [`gemm_packed`].
pub fn gemm_packed_on(
    isa: Isa,
    w: &PackedW4,
    acts: &[ActQuant],
    scratch: &mut GemvScratch,
    outs: &mut [Vec<f32>],
) -> Result<()> {
    for out in outs.iter_mut() {
        out.resize(w.out_features, 0.0);
    }
    gemm_rows(isa, w, acts, scratch, outs, |o| &mut o[..])
}

/// Bytes of weights one sweep takes for every [`KBLOCK`] of a larger
/// batch before moving on: small enough that they stay L1-hot from one
/// activation block to the next.
const L1_SWEEP_BYTES: usize = 16 << 10;

/// [`gemm_packed_on`] writing into one `out_features`-long slice of each
/// `rows[k]`, picked by `out_of` — how the quantized model lands a
/// projection in its per-sequence scratch without staging copies.
///
/// The one GEMM loop: runs of tiles, then [`AMX_ROWS`] activations at a
/// time, which `sweep` takes in one AMX pass when `isa` grants AMX and
/// there are at least `AMX_MIN_ROWS` of them, else [`KBLOCK`] at a
/// time. Per `(tiles, activation block)` the micro-kernel's `sweep` walks
/// each tile's groups ascending, leaves `Σ (c+8)·q` in i32, and applies
/// the correction and the f32 rescale in the order every earlier kernel
/// used (`out += ia as f32 * (wsc * asc)`, one group after the other),
/// which is what keeps outputs bit-identical across kernels, batch sizes
/// and instruction sets. A batch that is one pass over the weights
/// sweeps every tile in one call.
///
/// # Errors
///
/// Same conditions as [`gemm_packed`].
pub(crate) fn gemm_rows<T>(
    isa: Isa,
    w: &PackedW4,
    acts: &[ActQuant],
    scratch: &mut GemvScratch,
    rows: &mut [T],
    out_of: impl for<'a> Fn(&'a mut T) -> &'a mut [f32],
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
    let run = flush_quads(scratch.load(w, acts));
    let groups = w.groups_per_row;
    let weights = Weights {
        blocks: &w.blocks,
        quads: w.quads,
        quads_per_group: w.quads_per_group,
        groups,
        scales: &w.scales_t,
        out_features: w.out_features,
    };
    let tiles = w.out_features.div_ceil(TILE);
    let step = if acts.len() <= KBLOCK || amx_form(isa, acts.len()) {
        tiles
    } else {
        (L1_SWEEP_BYTES / (w.quads * std::mem::size_of::<Block>())).max(1)
    };
    for t0 in (0..tiles).step_by(step) {
        for k0 in (0..acts.len()).step_by(AMX_ROWS) {
            let kb = AMX_ROWS.min(acts.len() - k0);
            let mut lanes: [Act<'_>; AMX_ROWS] = Default::default();
            for ((lane, row), k) in lanes.iter_mut().zip(&mut rows[k0..k0 + kb]).zip(k0..) {
                *lane = Act {
                    codes: &scratch.quads[k * w.quads..],
                    qsum: &scratch.qsum[k * groups..][..groups],
                    scales: acts[k].scales(),
                    out: out_of(row),
                };
            }
            let sweep_tiles = t0..(t0 + step).min(tiles);
            sweep(isa, &weights, sweep_tiles, &mut lanes[..kb], run);
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

    /// The first packer: every block `PAD` (code 0 in both nibbles),
    /// then one [`PackedW4::locate`] and nibble read-modify-write per
    /// weight.
    fn pack_per_nibble(
        codes: &[i8],
        scales: &[f32],
        inf: usize,
        outf: usize,
        g: usize,
    ) -> PackedW4 {
        const PAD: u8 = 0x88;
        let mut p = PackedW4::from_codes(&vec![0; codes.len()], scales, inf, outf, g).unwrap();
        p.blocks
            .iter_mut()
            .for_each(|b| *b = Block([PAD; TILE * QUAD / 2]));
        for o in 0..outf {
            for i in 0..inf {
                let (block, byte, shift) = p.locate(i, o);
                let nib = (codes[o * inf + i] + 8) as u8;
                let b = &mut p.blocks[block].0[byte];
                *b = (*b & !(0x0F << shift)) | (nib << shift);
            }
        }
        p
    }

    #[test]
    fn packing_in_layout_order_matches_the_per_nibble_packer() {
        // Groups of every length mod 4, ragged last groups and tiles,
        // outputs past one tile or short of it, every code −8..=7.
        let mut rng = StdRng::seed_from_u64(11);
        for (inf, outf, group) in [
            (1usize, 1usize, 1usize),
            (3, 5, 2),
            (7, 31, 3),
            (20, 33, 16),
            (37, 64, 5),
            (130, 70, 128),
            (256, 97, 64),
        ] {
            let codes: Vec<i8> = (0..inf * outf).map(|_| rng.gen_range(-8i8..8)).collect();
            let scales: Vec<f32> = (0..outf * inf.div_ceil(group))
                .map(|_| rng.gen_range(0.1f32..1.0))
                .collect();
            let got = PackedW4::from_codes(&codes, &scales, inf, outf, group).unwrap();
            let want = pack_per_nibble(&codes, &scales, inf, outf, group);
            assert_eq!(got, want, "{inf}×{outf} group {group}");
            let mut row = vec![0i8; inf];
            for o in 0..outf {
                got.unpack_row_into(o, &mut row);
                assert_eq!(row, codes[o * inf..(o + 1) * inf], "output {o}");
            }
        }
    }

    #[test]
    fn tile_packing_matches_packing_the_transposed_weight() {
        // `quantize` packs one 32-output tile at a time; the oracle is
        // the whole-matrix path it replaced: transpose, quantize per
        // group, pack the codes. Output counts short of a tile, past
        // one and ragged; last groups short; outputs of all zeros, of
        // ±0, ±inf and NaN, and outliers.
        let mut rng = StdRng::seed_from_u64(12);
        for (inf, outf, group) in [
            (1usize, 1usize, 1usize),
            (20, 33, 16),
            (37, 45, 8),
            (64, 77, 64),
            (100, 102, 16),
            (130, 70, 128),
            (256, 97, 128),
        ] {
            let mut w = random_weight(&mut rng, inf, outf);
            let specials = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 40.0];
            for (k, v) in w.data_mut().iter_mut().enumerate() {
                match k % 7 {
                    _ if k % outf == outf / 2 => *v = 0.0,
                    3 => *v = specials[(k / 7) % specials.len()],
                    _ => {}
                }
            }
            let q = QuantizedTensor::quantize(&w.transpose().unwrap(), w4(group)).unwrap();
            let want = PackedW4::from_codes(q.codes(), q.scales(), inf, outf, group).unwrap();
            let got = PackedW4::quantize(&w, w4(group)).unwrap();
            assert_eq!(
                got.layout_bytes().collect::<Vec<_>>(),
                want.layout_bytes().collect::<Vec<_>>(),
                "{inf}×{outf} group {group}"
            );
            let bits = |p: &PackedW4| p.scales_t.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{inf}×{outf} group {group}");
            assert_eq!(
                got.scales().iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                q.scales().iter().map(|s| s.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(
                (got.quads, got.quads_per_group, got.groups_per_row),
                (want.quads, want.quads_per_group, want.groups_per_row)
            );
        }
        // A producer's error comes back as the packer's.
        let err = PackedW4::quantize_rows(8, 40, w4(8), |outputs, _| {
            if outputs.start == 32 {
                Err(QuantError::InvalidScheme("tile 1".into()))
            } else {
                Ok(())
            }
        });
        assert!(matches!(err, Err(QuantError::InvalidScheme(m)) if m == "tile 1"));
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

    /// Batch sizes of the GEMM tests: every K-block remainder, and
    /// blocks of 16 with remainders of 0, 3, 7 and 8 rows.
    const BATCHES: [usize; 12] = [1, 2, 3, 4, 5, 8, 16, 19, 23, 24, 32, 40];

    #[test]
    fn every_form_matches_scalar_on_groups_of_any_length() {
        // Groups that end part-way through a quad (padding inputs in the
        // last quad of every group) or an AMX chunk, a ragged last group
        // and last tile, every K-block remainder, AMX blocks with every
        // kind of remainder and both activation widths, through each
        // form this host has.
        let mut rng = StdRng::seed_from_u64(8);
        let quads = [16usize, 17, 32, 33].map(|q| 4 * q);
        for group in [1usize, 2, 3, 5, 7, 9].into_iter().chain(quads) {
            let (inf, outf) = (4 * group + 3, 37);
            let p = PackedW4::quantize(&random_weight(&mut rng, inf, outf), w4(group)).unwrap();
            for bits in [4u8, 8] {
                let acts: Vec<ActQuant> = (0..BATCHES[BATCHES.len() - 1])
                    .map(|_| {
                        let x: Vec<f32> = (0..inf).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
                        let mut a = ActQuant::new();
                        a.quantize(&x, QuantScheme::act_per_group(bits, group))
                            .unwrap();
                        a
                    })
                    .collect();
                let mut scratch = GemvScratch::new();
                let mut want = vec![Vec::new(); acts.len()];
                gemm_packed_on(Isa::Scalar, &p, &acts, &mut scratch, &mut want).unwrap();
                for isa in Isa::supported() {
                    for batch in BATCHES {
                        let mut got = vec![Vec::new(); batch];
                        gemm_packed_on(isa, &p, &acts[..batch], &mut scratch, &mut got).unwrap();
                        assert_eq!(got, want[..batch], "{isa:?} group {group} a{bits} b{batch}");
                    }
                }
            }
        }
    }

    #[test]
    fn amx_tile_state_is_per_thread() {
        // Two threads run GEMMs of different tile configurations (16 rows
        // in chunks of 16 quads; 9 rows in chunks of 5) at the same time;
        // each must keep getting the scalar result.
        let Some(isa) = Isa::supported().find(|&isa| crate::simd::amx_form(isa, AMX_ROWS)) else {
            eprintln!("AMX not granted on this host: skipped");
            return;
        };
        let mut rng = StdRng::seed_from_u64(10);
        let cases: Vec<_> = [(256usize, 70usize, 128usize, AMX_ROWS), (67, 45, 20, 9)]
            .into_iter()
            .map(|(inf, outf, group, rows)| {
                let p = PackedW4::quantize(&random_weight(&mut rng, inf, outf), w4(group)).unwrap();
                let acts: Vec<ActQuant> = (0..rows)
                    .map(|_| {
                        let x: Vec<f32> = (0..inf).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
                        let mut a = ActQuant::new();
                        a.quantize(&x, QuantScheme::act_per_group(4, group))
                            .unwrap();
                        a
                    })
                    .collect();
                let mut want = vec![Vec::new(); rows];
                gemm_packed_on(Isa::Scalar, &p, &acts, &mut GemvScratch::new(), &mut want).unwrap();
                (p, acts, want)
            })
            .collect();
        std::thread::scope(|s| {
            for (p, acts, want) in &cases {
                s.spawn(move || {
                    let mut scratch = GemvScratch::new();
                    let mut got = vec![Vec::new(); acts.len()];
                    for _ in 0..200 {
                        gemm_packed_on(isa, p, acts, &mut scratch, &mut got).unwrap();
                        assert_eq!(&got, want, "{} rows", acts.len());
                    }
                });
            }
        });
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
    fn every_act_quant_form_matches_the_scalar_form_and_quantized_tensor() {
        let lengths = [1usize, 7, 15, 16, 17, 31, 33, 127, 128, 129, 256, 512, 768];
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(1),
        ];
        let mut rng = StdRng::seed_from_u64(9);
        for isa in Isa::tiers() {
            for &len in &lengths {
                for group in [1usize, 7, 16, 33, 128] {
                    for bits in [4u8, 8] {
                        let mut x: Vec<f32> =
                            (0..len).map(|_| rng.gen_range(-6.0f32..6.0)).collect();
                        // An all-zero group, and (past it) the specials.
                        x.iter_mut().skip(group).take(group).for_each(|v| *v = 0.0);
                        for (v, s) in x.iter_mut().skip(2 * group).step_by(5).zip(specials) {
                            *v = s;
                        }
                        let scheme = QuantScheme::act_per_group(bits, group);
                        let (mut want, mut got) = ((vec![0; len], vec![]), (vec![0; len], vec![]));
                        quantize_groups(Isa::Scalar, &x, group, scheme, &mut want.0, &mut want.1);
                        quantize_groups(isa, &x, group, scheme, &mut got.0, &mut got.1);
                        let scale_bits =
                            |v: &[f32]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                        let case = format!("{isa:?} len {len} group {group} bits {bits}");
                        assert_eq!(got.0, want.0, "{case}");
                        assert_eq!(scale_bits(&got.1), scale_bits(&want.1), "{case}");
                        let t = Tensor::from_vec(x, &[len]).unwrap();
                        let q = QuantizedTensor::quantize(&t, scheme).unwrap();
                        assert_eq!(got.0, q.codes(), "{case}");
                        assert_eq!(scale_bits(&got.1), scale_bits(q.scales()), "{case}");
                    }
                }
            }
        }
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
