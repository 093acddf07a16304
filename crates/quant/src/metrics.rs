//! Quantization-error metrics (Table II, Fig. 4b).
//!
//! The paper's "quantization error" is the reconstruction error of a
//! tensor under a scheme: quantize, dequantize, sum of squared errors.
//! For activation studies the error is computed per token and summed, so
//! per-token dynamic quantization is modelled faithfully.

use lightmamba_tensor::stats::sse;
use lightmamba_tensor::Tensor;

use crate::quantizer::{fake_quant, QuantScheme};
use crate::Result;

/// Sum-of-squared-errors of a tensor under `scheme`.
///
/// # Errors
///
/// Propagates scheme validation errors.
pub fn quant_error(t: &Tensor, scheme: QuantScheme) -> Result<f32> {
    let dq = fake_quant(t, scheme)?;
    Ok(sse(t.data(), dq.data()))
}

/// Mean per-token quantization SSE of an activation matrix — the metric of
/// Table II (4-bit activation error of the out_proj input).
///
/// # Errors
///
/// Propagates scheme validation errors.
pub fn activation_quant_error(acts: &Tensor, scheme: QuantScheme) -> Result<f32> {
    let (tokens, _) = acts.as_matrix_dims().map_err(crate::QuantError::Tensor)?;
    let total = quant_error(acts, scheme)?;
    Ok(total / tokens.max(1) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantizer::Granularity;

    fn spiky() -> Tensor {
        let mut v = vec![0.1f32; 64];
        v[5] = 40.0;
        v[40] = -35.0;
        Tensor::from_vec(v, &[4, 16]).unwrap()
    }

    #[test]
    fn error_decreases_with_bits() {
        let t = Tensor::from_fn(&[4, 16], |i| ((i * 2654435761) % 997) as f32 / 100.0 - 5.0);
        let e4 = quant_error(&t, QuantScheme::act_per_token(4)).unwrap();
        let e8 = quant_error(&t, QuantScheme::act_per_token(8)).unwrap();
        assert!(e4 > e8, "e4 {e4} vs e8 {e8}");
    }

    #[test]
    fn finer_granularity_helps_on_spiky_data() {
        let t = spiky();
        let per_tensor = quant_error(
            &t,
            QuantScheme {
                bits: 4,
                granularity: Granularity::PerTensor,
                pot_scale: false,
            },
        )
        .unwrap();
        let per_group = quant_error(&t, QuantScheme::act_per_group(4, 4)).unwrap();
        assert!(per_group < per_tensor);
    }

    #[test]
    fn activation_error_is_per_token_mean() {
        let t = spiky();
        let total = quant_error(&t, QuantScheme::act_per_token(4)).unwrap();
        let per_tok = activation_quant_error(&t, QuantScheme::act_per_token(4)).unwrap();
        assert!((per_tok - total / 4.0).abs() < 1e-6);
    }

    #[test]
    fn zero_tensor_has_zero_error() {
        let t = Tensor::zeros(&[2, 8]);
        assert_eq!(quant_error(&t, QuantScheme::act_per_token(4)).unwrap(), 0.0);
    }
}
