//! Depthwise causal 1-D convolution — the `Conv` box of the Mamba block.
//!
//! Mamba2 applies a short (kernel size 4) depthwise causal convolution to
//! the concatenated `(x, B, C)` stream right after the input projection.
//! During autoregressive decode the convolution degenerates to a sliding
//! window per channel, which [`ConvState`] maintains.

use crate::{Result, Tensor, TensorError};

/// Rolling per-channel window for decode-time causal conv1d.
///
/// # Example
///
/// ```
/// use lightmamba_tensor::conv::ConvState;
/// use lightmamba_tensor::Tensor;
///
/// # fn main() -> Result<(), lightmamba_tensor::TensorError> {
/// // 2 channels, kernel width 3, identity-ish kernel weights.
/// let weight = Tensor::from_vec(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0], &[2, 3])?;
/// let bias = vec![0.0, 0.0];
/// let mut state = ConvState::new(2, 3);
/// let y1 = state.step(&[1.0, 10.0], &weight, &bias)?;
/// assert_eq!(y1, vec![1.0, 10.0]); // kernel picks the newest sample
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConvState {
    channels: usize,
    kernel: usize,
    /// `channels × kernel` ring of past inputs, oldest first.
    window: Vec<f32>,
}

impl ConvState {
    /// Creates a zero-initialized window for `channels` channels and a
    /// causal kernel of width `kernel`.
    pub fn new(channels: usize, kernel: usize) -> Self {
        ConvState {
            channels,
            kernel,
            window: vec![0.0; channels * kernel],
        }
    }

    /// Number of channels tracked by this state.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Kernel width tracked by this state.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Resets the window to zeros (start of a new sequence).
    pub fn reset(&mut self) {
        self.window.fill(0.0);
    }

    /// Copies `other`'s window into this state without reallocating —
    /// the restore half of decode-state pause/resume.
    ///
    /// # Panics
    ///
    /// Panics when the two states disagree on channels or kernel width;
    /// states of different model configurations are never
    /// interchangeable, so a mismatch is a caller bug.
    pub fn copy_from(&mut self, other: &ConvState) {
        assert_eq!(
            (self.channels, self.kernel),
            (other.channels, other.kernel),
            "conv state shape mismatch"
        );
        self.window.copy_from_slice(&other.window);
    }

    /// Pushes one new sample per channel and returns the depthwise causal
    /// convolution output for the current position.
    ///
    /// `weight` is `(channels, kernel)` with taps ordered oldest→newest;
    /// `bias` has one entry per channel.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `input`/`bias` lengths or
    /// the weight shape disagree with this state, and
    /// [`TensorError::InvalidArgument`] for a state of kernel width 0
    /// (there is no newest tap to push into).
    pub fn step(&mut self, input: &[f32], weight: &Tensor, bias: &[f32]) -> Result<Vec<f32>> {
        let mut out = vec![0.0f32; self.channels];
        self.step_into(input, weight, bias, &mut out)?;
        Ok(out)
    }

    /// [`ConvState::step`] writing into a caller-provided buffer of one
    /// entry per channel — the allocation-free variant decode hot paths
    /// use.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ConvState::step`], plus a shape error when
    /// `out` has the wrong length.
    pub fn step_into(
        &mut self,
        input: &[f32],
        weight: &Tensor,
        bias: &[f32],
        out: &mut [f32],
    ) -> Result<()> {
        if input.len() != self.channels || bias.len() != self.channels || out.len() != self.channels
        {
            return Err(TensorError::ShapeMismatch {
                left: vec![self.channels],
                right: vec![input.len(), bias.len(), out.len()],
            });
        }
        let (wc, wk) = weight.as_matrix_dims()?;
        if wc != self.channels || wk != self.kernel {
            return Err(TensorError::ShapeMismatch {
                left: vec![self.channels, self.kernel],
                right: vec![wc, wk],
            });
        }
        let Some(newest) = self.kernel.checked_sub(1) else {
            return Err(TensorError::InvalidArgument(
                "conv kernel width must be at least 1".into(),
            ));
        };
        // One pass per channel: each tap reads the sample that is about
        // to move into its slot, so shift and MAC share the loop. Taps
        // run oldest→newest — the sums of shift-then-dot, and of
        // `causal_conv1d`, bit for bit.
        let windows = self.window.chunks_exact_mut(self.kernel);
        let taps = weight.data().chunks_exact(self.kernel);
        for (((win, taps), (&x, &bias)), out) in windows
            .zip(taps)
            .zip(input.iter().zip(bias))
            .zip(out.iter_mut())
        {
            let mut acc = bias;
            for k in 0..newest {
                win[k] = win[k + 1];
                acc += taps[k] * win[k];
            }
            win[newest] = x;
            *out = acc + taps[newest] * x;
        }
        Ok(())
    }
}

/// Full-sequence depthwise causal conv1d (prefill path).
///
/// `input` is `(seq_len, channels)`, `weight` is `(channels, kernel)` with
/// taps ordered oldest→newest, `bias` has one entry per channel. Output
/// matches the input shape; positions before the kernel has filled are
/// zero-padded on the left, exactly as decode-time [`ConvState`] behaves
/// from a reset window.
///
/// # Errors
///
/// Returns a shape error when dimensions disagree.
pub fn causal_conv1d(input: &Tensor, weight: &Tensor, bias: &[f32]) -> Result<Tensor> {
    let (seq, channels) = input.as_matrix_dims()?;
    let (wc, kernel) = weight.as_matrix_dims()?;
    if wc != channels || bias.len() != channels {
        return Err(TensorError::ShapeMismatch {
            left: vec![channels],
            right: vec![wc, bias.len()],
        });
    }
    let x = input.data();
    let w = weight.data();
    let mut out = Tensor::zeros(&[seq, channels]);
    let o = out.data_mut();
    for t in 0..seq {
        for c in 0..channels {
            let taps = &w[c * kernel..(c + 1) * kernel];
            let mut acc = bias[c];
            for (k, tap) in taps.iter().enumerate() {
                // Tap k looks back (kernel-1-k) steps.
                let back = kernel - 1 - k;
                if t >= back {
                    acc += tap * x[(t - back) * channels + c];
                }
            }
            o[t * channels + c] = acc;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_weight() -> Tensor {
        // 1 channel, kernel [0.25, 0.5, 1.0] (oldest→newest).
        Tensor::from_vec(vec![0.25, 0.5, 1.0], &[1, 3]).unwrap()
    }

    #[test]
    fn state_step_matches_manual_window() {
        let w = simple_weight();
        let mut st = ConvState::new(1, 3);
        let y1 = st.step(&[1.0], &w, &[0.0]).unwrap();
        assert_eq!(y1, vec![1.0]); // window [0,0,1]
        let y2 = st.step(&[2.0], &w, &[0.0]).unwrap();
        assert_eq!(y2, vec![0.5 * 1.0 + 1.0 * 2.0]); // window [0,1,2]
        let y3 = st.step(&[3.0], &w, &[0.0]).unwrap();
        assert_eq!(y3, vec![0.25 * 1.0 + 0.5 * 2.0 + 1.0 * 3.0]);
    }

    #[test]
    fn bias_is_added() {
        let w = simple_weight();
        let mut st = ConvState::new(1, 3);
        let y = st.step(&[0.0], &w, &[5.0]).unwrap();
        assert_eq!(y, vec![5.0]);
    }

    #[test]
    fn reset_clears_history() {
        let w = simple_weight();
        let mut st = ConvState::new(1, 3);
        st.step(&[9.0], &w, &[0.0]).unwrap();
        st.reset();
        let y = st.step(&[1.0], &w, &[0.0]).unwrap();
        assert_eq!(y, vec![1.0]);
    }

    #[test]
    fn full_sequence_matches_stepwise() {
        let w = Tensor::from_vec(vec![0.1, -0.2, 0.7, 0.3, 0.5, -0.4], &[2, 3]).unwrap();
        let bias = [0.05, -0.1];
        let seq: Vec<f32> = (0..10).map(|i| (i as f32 * 0.37).sin()).collect();
        let input =
            Tensor::from_vec(seq.iter().flat_map(|&v| [v, -v]).collect(), &[10, 2]).unwrap();

        let full = causal_conv1d(&input, &w, &bias).unwrap();

        let mut st = ConvState::new(2, 3);
        for t in 0..10 {
            let got = st.step(input.row(t).unwrap(), &w, &bias).unwrap();
            for (c, &g) in got.iter().enumerate().take(2) {
                let want = full.get(&[t, c]).unwrap();
                assert!((g - want).abs() < 1e-6, "t={t} c={c}: {g} vs {want}");
            }
        }
    }

    #[test]
    fn shape_validation() {
        let w = simple_weight();
        let mut st = ConvState::new(1, 3);
        assert!(st.step(&[1.0, 2.0], &w, &[0.0, 0.0]).is_err());
        let bad_w = Tensor::zeros(&[2, 3]);
        assert!(st.step(&[1.0], &bad_w, &[0.0]).is_err());
        let input = Tensor::zeros(&[4, 1]);
        assert!(causal_conv1d(&input, &bad_w, &[0.0]).is_err());
    }

    #[test]
    fn zero_width_kernel_is_an_error_not_an_underflow() {
        let mut st = ConvState::new(3, 0);
        let w = Tensor::zeros(&[3, 0]);
        let mut out = [0.0f32; 3];
        let got = st.step_into(&[1.0; 3], &w, &[0.0; 3], &mut out);
        assert!(
            matches!(got, Err(TensorError::InvalidArgument(_))),
            "{got:?}"
        );
    }

    #[test]
    fn accessors() {
        let st = ConvState::new(3, 4);
        assert_eq!(st.channels(), 3);
        assert_eq!(st.kernel(), 4);
    }
}
