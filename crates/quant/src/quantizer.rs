//! Core integer quantizer: symmetric round-to-nearest at configurable
//! granularity, with optional power-of-two scale constraint.
//!
//! The paper's precision recipes (Sec. VI-A):
//! * **W8A8** — per-channel weights, per-token activations;
//! * **W4A4** — per-group (size 128) weights *and* activations;
//! * **SSM** — INT8 per-group with PoT scales ([`crate::pot`]).

use lightmamba_tensor::isa::detect;
use lightmamba_tensor::Tensor;

use crate::kernels::quantize_groups;
use crate::{pot, QuantError, Result};

/// Scale granularity of a quantizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// One scale for the whole tensor.
    PerTensor,
    /// One scale per output channel (matrix column) — weight quantization.
    PerChannel,
    /// One scale per row (token) — dynamic activation quantization.
    PerToken,
    /// One scale per contiguous group of this many elements along each row.
    PerGroup(usize),
}

/// A symmetric integer quantization scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantScheme {
    /// Bit width (2–8 supported).
    pub bits: u8,
    /// Scale granularity.
    pub granularity: Granularity,
    /// Constrain scales to powers of two (FPGA shift-only re-quantization).
    pub pot_scale: bool,
}

impl QuantScheme {
    /// Per-channel symmetric weights at `bits` (W8A8 weight recipe).
    pub fn weight_per_channel(bits: u8) -> Self {
        QuantScheme {
            bits,
            granularity: Granularity::PerChannel,
            pot_scale: false,
        }
    }

    /// Per-group symmetric weights (W4A4 weight recipe, group 128).
    pub fn weight_per_group(bits: u8, group: usize) -> Self {
        QuantScheme {
            bits,
            granularity: Granularity::PerGroup(group),
            pot_scale: false,
        }
    }

    /// Per-token symmetric activations (W8A8 activation recipe).
    pub fn act_per_token(bits: u8) -> Self {
        QuantScheme {
            bits,
            granularity: Granularity::PerToken,
            pot_scale: false,
        }
    }

    /// Per-group symmetric activations (W4A4 activation recipe).
    pub fn act_per_group(bits: u8, group: usize) -> Self {
        QuantScheme {
            bits,
            granularity: Granularity::PerGroup(group),
            pot_scale: false,
        }
    }

    /// INT8 per-group with power-of-two scales (the paper's SSM recipe).
    pub fn ssm_pot(group: usize) -> Self {
        QuantScheme {
            bits: 8,
            granularity: Granularity::PerGroup(group),
            pot_scale: true,
        }
    }

    /// Largest representable integer level (e.g. 7 for 4-bit symmetric).
    #[inline(always)]
    pub fn qmax(&self) -> i32 {
        (1i32 << (self.bits - 1)) - 1
    }

    /// Validates the scheme.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidScheme`] for bit widths outside 2–8 or
    /// zero group sizes.
    pub fn validate(&self) -> Result<()> {
        if !(2..=8).contains(&self.bits) {
            return Err(QuantError::InvalidScheme(format!(
                "bit width {} outside supported range 2..=8",
                self.bits
            )));
        }
        if let Granularity::PerGroup(0) = self.granularity {
            return Err(QuantError::InvalidScheme(
                "group size must be non-zero".into(),
            ));
        }
        Ok(())
    }

    /// Scale for a block with the given absolute maximum. A block whose
    /// scale would not be positive — all zeros, or so small that
    /// `absmax / qmax` underflows — gets scale 1 (its codes round to 0).
    #[inline(always)]
    pub fn scale_for(&self, absmax: f32) -> f32 {
        let raw = absmax / self.qmax() as f32;
        let raw = if raw > 0.0 { raw } else { 1.0 };
        if self.pot_scale {
            pot::round_scale_up(raw)
        } else {
            raw
        }
    }
}

/// An integer-quantized tensor: `i8` codes plus block scales.
///
/// Codes are stored row-major like the source tensor; `scales` has one
/// entry per quantization block in block order.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTensor {
    codes: Vec<i8>,
    scales: Vec<f32>,
    scheme: QuantScheme,
    dims: Vec<usize>,
}

impl QuantizedTensor {
    /// Quantizes `t` under `scheme`.
    ///
    /// Granularity mapping for a `(rows, cols)` matrix: `PerChannel` scales
    /// each column, `PerToken` each row, `PerGroup(g)` contiguous spans of
    /// `g` within each row. Vectors are treated as a single row.
    ///
    /// Each block is `v / scale` rounded half away from zero and clamped
    /// to `±qmax` (NaN to 0), its scale [`QuantScheme::scale_for`] of its
    /// largest `|v|`: the act-quant kernel (`ActQuant`) on the host's
    /// form, so weights and activations share one quantizer.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidScheme`] when the scheme is invalid or
    /// incompatible with the tensor rank.
    pub fn quantize(t: &Tensor, scheme: QuantScheme) -> Result<Self> {
        scheme.validate()?;
        let (rows, cols) = match t.dims() {
            [n] => (1usize, *n),
            [r, c] => (*r, *c),
            other => {
                return Err(QuantError::InvalidScheme(format!(
                    "quantization supports rank 1 or 2 tensors, got rank {}",
                    other.len()
                )))
            }
        };
        let data = t.data();
        let isa = detect();
        let mut codes = vec![0i8; data.len()];
        let mut scales = Vec::new();
        // One block of contiguous elements; an empty one still gets the
        // scale of an all-zero block.
        let block = |x: &[f32], codes: &mut [i8], scales: &mut Vec<f32>| {
            if x.is_empty() {
                scales.push(scheme.scale_for(0.0));
            } else {
                quantize_groups(isa, x, x.len(), scheme, codes, scales);
            }
        };
        match scheme.granularity {
            Granularity::PerTensor => block(data, &mut codes, &mut scales),
            Granularity::PerToken => {
                for r in 0..rows {
                    let span = r * cols..(r + 1) * cols;
                    block(&data[span.clone()], &mut codes[span], &mut scales);
                }
            }
            Granularity::PerChannel => {
                let (mut column, mut column_codes) = (vec![0.0f32; rows], vec![0i8; rows]);
                for c in 0..cols {
                    for (v, r) in column.iter_mut().zip(0..) {
                        *v = data[r * cols + c];
                    }
                    block(&column, &mut column_codes, &mut scales);
                    for (&q, r) in column_codes.iter().zip(0..) {
                        codes[r * cols + c] = q;
                    }
                }
            }
            Granularity::PerGroup(g) => {
                // A zero-width row has no groups (and `chunks` needs a
                // non-zero width).
                let width = cols.max(1);
                for (row, codes) in data.chunks(width).zip(codes.chunks_mut(width)) {
                    quantize_groups(isa, row, g, scheme, codes, &mut scales);
                }
            }
        }

        Ok(QuantizedTensor {
            codes,
            scales,
            scheme,
            dims: t.dims().to_vec(),
        })
    }

    /// Reconstructs the floating-point tensor (`codes · scale`).
    pub fn dequantize(&self) -> Tensor {
        let (rows, cols) = match self.dims.as_slice() {
            [n] => (1usize, *n),
            [r, c] => (*r, *c),
            _ => unreachable!("rank checked at quantization"),
        };
        let mut out = vec![0.0f32; self.codes.len()];
        match self.scheme.granularity {
            Granularity::PerTensor => {
                let s = self.scales[0];
                for (o, &q) in out.iter_mut().zip(self.codes.iter()) {
                    *o = q as f32 * s;
                }
            }
            Granularity::PerToken => {
                for r in 0..rows {
                    let s = self.scales[r];
                    for c in 0..cols {
                        out[r * cols + c] = self.codes[r * cols + c] as f32 * s;
                    }
                }
            }
            Granularity::PerChannel => {
                for r in 0..rows {
                    for c in 0..cols {
                        out[r * cols + c] = self.codes[r * cols + c] as f32 * self.scales[c];
                    }
                }
            }
            Granularity::PerGroup(g) => {
                let groups_per_row = cols.div_ceil(g);
                for r in 0..rows {
                    for c in 0..cols {
                        let s = self.scales[r * groups_per_row + c / g];
                        out[r * cols + c] = self.codes[r * cols + c] as f32 * s;
                    }
                }
            }
        }
        Tensor::from_vec(out, &self.dims).expect("shape preserved")
    }

    /// The integer codes.
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// The block scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The scheme used.
    pub fn scheme(&self) -> QuantScheme {
        self.scheme
    }

    /// Storage footprint in bits (codes at `bits` each plus FP16 scales) —
    /// drives the accelerator's DMA traffic model.
    pub fn storage_bits(&self) -> usize {
        self.codes.len() * self.scheme.bits as usize + self.scales.len() * 16
    }
}

/// Quantize-dequantize round trip ("fake quantization") of a tensor.
///
/// # Errors
///
/// Propagates scheme validation errors.
pub fn fake_quant(t: &Tensor, scheme: QuantScheme) -> Result<Tensor> {
    Ok(QuantizedTensor::quantize(t, scheme)?.dequantize())
}

/// Fake-quantizes a slice in place (vector treated as one token row).
///
/// Allocation-free: each block's scale is computed from its absmax and
/// the round-trip `round(v/s)·s` is applied directly, which is
/// bit-identical to quantizing through [`QuantizedTensor`] and
/// dequantizing (the i8 cast is the identity on in-range integers).
/// Decode hot paths call this per step, so it must not touch the heap.
///
/// # Errors
///
/// Propagates scheme validation errors.
pub fn fake_quant_slice(xs: &mut [f32], scheme: QuantScheme) -> Result<()> {
    scheme.validate()?;
    let qmax = scheme.qmax() as f32;
    let block = |b: &mut [f32]| {
        let absmax = b.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let scale = scheme.scale_for(absmax);
        for v in b.iter_mut() {
            *v = (*v / scale).round().clamp(-qmax, qmax) * scale;
        }
    };
    match scheme.granularity {
        // A slice is a single token row: per-tensor and per-token
        // coincide; per-channel degenerates to one scale per element.
        Granularity::PerTensor | Granularity::PerToken => block(xs),
        Granularity::PerChannel => {
            for v in xs.iter_mut() {
                block(std::slice::from_mut(v));
            }
        }
        Granularity::PerGroup(g) => {
            for chunk in xs.chunks_mut(g) {
                block(chunk);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tensor {
        Tensor::from_vec(vec![0.5, -1.0, 2.0, 8.0, -0.25, 0.75, -4.0, 1.5], &[2, 4]).unwrap()
    }

    /// The first quantizer: per block an index list, its absmax, then
    /// `(v / scale).round().clamp(-qmax, qmax) as i8` per element.
    fn quantize_by_index_lists(t: &Tensor, scheme: QuantScheme) -> (Vec<i8>, Vec<f32>) {
        let (rows, cols) = match t.dims() {
            [n] => (1usize, *n),
            [r, c] => (*r, *c),
            _ => unreachable!(),
        };
        let data = t.data();
        let qmax = scheme.qmax() as f32;
        let mut codes = vec![0i8; data.len()];
        let mut scales = Vec::new();
        let mut quant_block = |idx: &mut dyn Iterator<Item = usize>| {
            let indices: Vec<usize> = idx.collect();
            let absmax = indices.iter().fold(0.0f32, |m, &i| m.max(data[i].abs()));
            let scale = scheme.scale_for(absmax);
            for &i in &indices {
                codes[i] = (data[i] / scale).round().clamp(-qmax, qmax) as i8;
            }
            scales.push(scale);
        };
        match scheme.granularity {
            Granularity::PerTensor => quant_block(&mut (0..data.len())),
            Granularity::PerToken => {
                for r in 0..rows {
                    quant_block(&mut (r * cols..(r + 1) * cols));
                }
            }
            Granularity::PerChannel => {
                for c in 0..cols {
                    quant_block(&mut (0..rows).map(|r| r * cols + c));
                }
            }
            Granularity::PerGroup(g) => {
                for r in 0..rows {
                    let mut start = 0;
                    while start < cols {
                        let end = (start + g).min(cols);
                        quant_block(&mut (r * cols + start..r * cols + end));
                        start = end;
                    }
                }
            }
        }
        (codes, scales)
    }

    #[test]
    fn every_granularity_matches_the_index_list_quantizer() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        for (rows, cols) in [
            (1usize, 1usize),
            (3, 7),
            (5, 20),
            (17, 33),
            (4, 130),
            (0, 5),
            (2, 0),
        ] {
            for bits in [2u8, 4, 8] {
                let qmax = QuantScheme::act_per_token(bits).qmax() as f32;
                // Random values, ties `k + ½` of a unit scale (a block's
                // absmax is `qmax`), ±0, NaN, ±inf, subnormals, and
                // outliers that round everything else in their block to
                // 0.
                let t = Tensor::from_fn(&[rows, cols], |i| match i % 11 {
                    0 => qmax,
                    1 => (rng.gen_range(-4i32..4) as f32 + 0.5).clamp(-qmax, qmax),
                    2 => -0.0,
                    3 if i % 7 == 0 => f32::NAN,
                    4 if i % 5 == 0 => 1e30,
                    5 if i % 13 == 0 => f32::NEG_INFINITY,
                    6 => f32::from_bits(3),
                    _ => rng.gen_range(-3.0f32..3.0),
                });
                for granularity in [
                    Granularity::PerTensor,
                    Granularity::PerToken,
                    Granularity::PerChannel,
                    Granularity::PerGroup(1),
                    Granularity::PerGroup(4),
                    Granularity::PerGroup(16),
                    Granularity::PerGroup(128),
                ] {
                    for pot_scale in [false, true] {
                        let scheme = QuantScheme {
                            bits,
                            granularity,
                            pot_scale,
                        };
                        let q = QuantizedTensor::quantize(&t, scheme).unwrap();
                        let (codes, scales) = quantize_by_index_lists(&t, scheme);
                        let case = format!("{rows}×{cols} {scheme:?}");
                        assert_eq!(q.codes(), codes, "{case}");
                        let bits = |v: &[f32]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(q.scales()), bits(&scales), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn roundtrip_error_bounded_by_half_scale() {
        let t = sample();
        for scheme in [
            QuantScheme::weight_per_channel(8),
            QuantScheme::act_per_token(8),
            QuantScheme::weight_per_group(8, 2),
            QuantScheme {
                bits: 8,
                granularity: Granularity::PerTensor,
                pot_scale: false,
            },
        ] {
            let q = QuantizedTensor::quantize(&t, scheme).unwrap();
            let dq = q.dequantize();
            let max_scale = q.scales().iter().cloned().fold(0.0f32, f32::max);
            for (a, b) in t.data().iter().zip(dq.data().iter()) {
                assert!(
                    (a - b).abs() <= max_scale / 2.0 + 1e-6,
                    "{a} vs {b} under {scheme:?}"
                );
            }
        }
    }

    #[test]
    fn codes_stay_in_range() {
        let t = sample();
        for bits in [2u8, 3, 4, 8] {
            let q = QuantizedTensor::quantize(&t, QuantScheme::act_per_token(bits)).unwrap();
            let qmax = q.scheme().qmax() as i8;
            assert!(q.codes().iter().all(|&c| (-qmax..=qmax).contains(&c)));
        }
    }

    #[test]
    fn per_channel_scales_by_column() {
        let t = Tensor::from_vec(vec![1.0, 100.0, 2.0, 50.0], &[2, 2]).unwrap();
        let q = QuantizedTensor::quantize(&t, QuantScheme::weight_per_channel(8)).unwrap();
        assert_eq!(q.scales().len(), 2);
        assert!(q.scales()[1] > q.scales()[0]);
    }

    #[test]
    fn per_token_scales_by_row() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 100.0, 50.0], &[2, 2]).unwrap();
        let q = QuantizedTensor::quantize(&t, QuantScheme::act_per_token(8)).unwrap();
        assert_eq!(q.scales().len(), 2);
        assert!(q.scales()[1] > q.scales()[0]);
    }

    #[test]
    fn per_group_counts_groups() {
        let t = Tensor::zeros(&[2, 10]);
        let q = QuantizedTensor::quantize(&t, QuantScheme::weight_per_group(4, 4)).unwrap();
        // ceil(10/4) = 3 groups per row × 2 rows.
        assert_eq!(q.scales().len(), 6);
    }

    #[test]
    fn pot_scales_are_powers_of_two() {
        let t = sample();
        let q = QuantizedTensor::quantize(&t, QuantScheme::ssm_pot(4)).unwrap();
        for &s in q.scales() {
            assert!(crate::pot::is_pot(s), "scale {s} is not a power of two");
        }
    }

    #[test]
    fn pot_roundtrip_still_bounded() {
        let t = sample();
        let q = QuantizedTensor::quantize(&t, QuantScheme::ssm_pot(4)).unwrap();
        let dq = q.dequantize();
        let max_scale = q.scales().iter().cloned().fold(0.0f32, f32::max);
        for (a, b) in t.data().iter().zip(dq.data().iter()) {
            assert!((a - b).abs() <= max_scale / 2.0 + 1e-6);
        }
    }

    #[test]
    fn lower_bits_mean_higher_error() {
        let t = Tensor::from_fn(&[8, 32], |i| ((i * 2654435761) % 1000) as f32 / 100.0 - 5.0);
        let err = |bits| {
            let dq = fake_quant(&t, QuantScheme::act_per_token(bits)).unwrap();
            lightmamba_tensor::stats::sse(t.data(), dq.data())
        };
        assert!(err(4) > err(8));
        assert!(err(2) > err(4));
    }

    #[test]
    fn invalid_schemes_rejected() {
        let t = sample();
        assert!(QuantizedTensor::quantize(
            &t,
            QuantScheme {
                bits: 1,
                granularity: Granularity::PerTensor,
                pot_scale: false
            }
        )
        .is_err());
        assert!(QuantizedTensor::quantize(&t, QuantScheme::weight_per_group(4, 0)).is_err());
        let t3 = Tensor::zeros(&[2, 2, 2]);
        assert!(QuantizedTensor::quantize(&t3, QuantScheme::act_per_token(8)).is_err());
    }

    #[test]
    fn zero_tensor_quantizes_cleanly() {
        let t = Tensor::zeros(&[4]);
        let q = QuantizedTensor::quantize(&t, QuantScheme::act_per_token(4)).unwrap();
        assert!(q.dequantize().data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn storage_bits_accounts_codes_and_scales() {
        let t = Tensor::zeros(&[2, 128]);
        let q = QuantizedTensor::quantize(&t, QuantScheme::weight_per_group(4, 128)).unwrap();
        // 256 codes × 4 bits + 2 scales × 16 bits.
        assert_eq!(q.storage_bits(), 256 * 4 + 2 * 16);
    }

    #[test]
    fn a_denormal_block_quantizes_to_zero_not_nan() {
        // 2^-149 / qmax underflows to a zero scale, and 0 / 0 is NaN.
        let tiny = f32::from_bits(1);
        let block = [0.0, tiny, 0.0, -tiny];
        for scheme in [
            QuantScheme::act_per_group(4, 4),
            QuantScheme::act_per_token(8),
        ] {
            let mut xs = block;
            fake_quant_slice(&mut xs, scheme).unwrap();
            assert_eq!(xs, [0.0; 4], "{scheme:?}");
            let t = Tensor::from_vec(block.to_vec(), &[1, 4]).unwrap();
            let q = QuantizedTensor::quantize(&t, scheme).unwrap();
            assert_eq!(q.scales(), [1.0], "{scheme:?}");
        }
        // Every representable scale is kept as computed.
        let s = QuantScheme::act_per_token(8);
        assert_eq!(s.scale_for(127.0), 1.0);
        assert_eq!(s.scale_for(tiny * 127.0), tiny);
    }

    #[test]
    fn fake_quant_slice_roundtrips() {
        let mut xs = [0.5f32, -0.25, 1.0, 0.75];
        fake_quant_slice(&mut xs, QuantScheme::act_per_token(8)).unwrap();
        assert!((xs[2] - 1.0).abs() < 0.02);
    }

    #[test]
    fn vector_treated_as_single_row() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[4]).unwrap();
        let q = QuantizedTensor::quantize(&t, QuantScheme::act_per_token(8)).unwrap();
        assert_eq!(q.scales().len(), 1);
    }
}
