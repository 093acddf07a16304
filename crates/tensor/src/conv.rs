//! Depthwise causal 1-D convolution — the `Conv` box of the Mamba block.
//!
//! Mamba2 applies a short (kernel size 4) depthwise causal convolution to
//! the concatenated `(x, B, C)` stream right after the input projection.
//! During autoregressive decode the convolution degenerates to a sliding
//! window per channel, which [`ConvState`] maintains.
//!
//! The window is stored **tap-major** — `[kernel][channels]`, oldest tap
//! first — so a decode step is a handful of contiguous passes over
//! channels: shift one tap row down, add its products. Two steps share
//! that window:
//!
//! * [`ConvState::step_into`] takes the checkpoint's `(channels, kernel)`
//!   weights and returns the raw convolution;
//! * [`ConvState::step_silu_into`] is the decode hot path: it takes the
//!   weights tap-major too ([`tap_major`]) and applies SiLU as it stores,
//!   so the block's conv and activation are one pass.
//!
//! Both sum each channel as bias, then taps oldest → newest, one `mul`
//! and one `add` per tap — the order of [`causal_conv1d`] — so the fused
//! step is [`ConvState::step_into`] followed by
//! [`crate::activation::silu_slice`], bit for bit. On an AVX-512 host the
//! fused step is one pass per 16-channel strip: the strip's window rows,
//! taps and new input stay in registers from the shift to the SiLU.

use crate::activation::silu;
use crate::isa::{detect, Isa};
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
    /// `kernel × channels` past inputs, tap-major: row `k` holds every
    /// channel's sample `kernel − 1 − k` steps back (oldest row first).
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
        let newest = self.check_step(input, bias, out)?;
        let (wc, wk) = weight.as_matrix_dims()?;
        if wc != self.channels || wk != self.kernel {
            return Err(TensorError::ShapeMismatch {
                left: vec![self.channels, self.kernel],
                right: vec![wc, wk],
            });
        }
        // Taps oldest → newest: each pass moves one tap row down and adds
        // its products, so every channel sums bias, then its taps in order
        // — the sums of `causal_conv1d`, bit for bit.
        let (w, kernel) = (weight.data(), self.kernel);
        out.copy_from_slice(bias);
        for k in 0..newest {
            let row = self.shift_row(k);
            for (c, (o, &v)) in out.iter_mut().zip(row.iter()).enumerate() {
                *o += w[c * kernel + k] * v;
            }
        }
        self.newest_row().copy_from_slice(input);
        for (c, (o, &x)) in out.iter_mut().zip(input).enumerate() {
            *o += w[c * kernel + newest] * x;
        }
        Ok(())
    }

    /// [`ConvState::step_into`] followed by SiLU, in one pass: pushes
    /// one sample per channel and writes `silu(conv)` for the current
    /// position. `taps` is the weight tap-major, `(kernel, channels)`,
    /// as [`tap_major`] lays it out; the sums are [`ConvState::step_into`]'s
    /// and the activation is [`crate::activation::silu`], so the output
    /// is that of the two unfused calls, bit for bit. Runs the host's
    /// form: [`ConvState::step_silu_into_on`] of [`detect`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ConvState::step_into`], with the weight shape
    /// checked as `(kernel, channels)`.
    #[inline(always)]
    pub fn step_silu_into(
        &mut self,
        input: &[f32],
        taps: &Tensor,
        bias: &[f32],
        out: &mut [f32],
    ) -> Result<()> {
        self.step_silu_into_on(detect(), input, taps, bias, out)
    }

    /// [`ConvState::step_silu_into`] on `isa`'s form: on
    /// [`Isa::Avx512`] one pass per 16-channel strip, each window row
    /// loaded once for both its shift and its product and SiLU applied
    /// in registers; elsewhere tap row by tap row. Every form gives the
    /// same bits.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ConvState::step_silu_into`].
    #[inline(always)]
    pub fn step_silu_into_on(
        &mut self,
        isa: Isa,
        input: &[f32],
        taps: &Tensor,
        bias: &[f32],
        out: &mut [f32],
    ) -> Result<()> {
        let newest = self.check_step(input, bias, out)?;
        let (wk, wc) = taps.as_matrix_dims()?;
        if wc != self.channels || wk != self.kernel {
            return Err(TensorError::ShapeMismatch {
                left: vec![self.kernel, self.channels],
                right: vec![wk, wc],
            });
        }
        if self.channels == 0 {
            // Nothing to shift or sum, as in `step_into`.
            return Ok(());
        }
        let taps = taps.data();
        match isa {
            // SAFETY: only `detect` and `Isa::supported` build an
            // `Isa::Avx512`, and only where AVX512F is present.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 { .. } => unsafe {
                avx512::step_silu(&mut self.window, taps, input, bias, out)
            },
            _ => {
                let mut rows = taps.chunks_exact(self.channels);
                out.copy_from_slice(bias);
                for (k, t) in rows.by_ref().take(newest).enumerate() {
                    let row = self.shift_row(k);
                    for ((o, &t), &v) in out.iter_mut().zip(t).zip(row.iter()) {
                        *o += t * v;
                    }
                }
                let t = rows.next().expect("kernel ≥ 1 tap rows");
                self.newest_row().copy_from_slice(input);
                for ((o, &t), &x) in out.iter_mut().zip(t).zip(input) {
                    *o = silu(*o + t * x);
                }
            }
        }
        Ok(())
    }

    /// Validates one step's buffers against this state and returns the
    /// index of the newest tap.
    #[inline(always)]
    fn check_step(&self, input: &[f32], bias: &[f32], out: &[f32]) -> Result<usize> {
        if input.len() != self.channels || bias.len() != self.channels || out.len() != self.channels
        {
            return Err(TensorError::ShapeMismatch {
                left: vec![self.channels],
                right: vec![input.len(), bias.len(), out.len()],
            });
        }
        self.kernel.checked_sub(1).ok_or_else(|| {
            TensorError::InvalidArgument("conv kernel width must be at least 1".into())
        })
    }

    /// Moves tap row `k + 1` into row `k` and returns row `k`.
    #[inline(always)]
    fn shift_row(&mut self, k: usize) -> &[f32] {
        let ch = self.channels;
        let (lo, hi) = self.window.split_at_mut((k + 1) * ch);
        let row = &mut lo[k * ch..];
        row.copy_from_slice(&hi[..ch]);
        row
    }

    /// The newest tap row.
    #[inline(always)]
    fn newest_row(&mut self) -> &mut [f32] {
        let from = (self.kernel - 1) * self.channels;
        &mut self.window[from..]
    }
}

/// The 16-lane form of [`ConvState::step_silu_into`].
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    use crate::activation::avx512::silu;
    use crate::isa::lanes16::{load, mask16, store};

    /// One fused step over the tap-major `window` and `taps` (both
    /// `kernel × channels`, `channels = out.len()`): per 16-channel
    /// strip, the bias, then each window row shifted down one tap and
    /// its product added, oldest → newest, then the input pushed as the
    /// newest row and its product added, then SiLU as the strip is
    /// stored — the scalar sums in the scalar order.
    ///
    /// # Panics
    ///
    /// Unless the lengths are as stated, with `kernel ≥ 1`.
    #[target_feature(enable = "avx512f")]
    pub(super) fn step_silu(
        window: &mut [f32],
        taps: &[f32],
        input: &[f32],
        bias: &[f32],
        out: &mut [f32],
    ) {
        let ch = out.len();
        let kernel = window.len() / ch.max(1);
        assert!(kernel >= 1 && window.len() == kernel * ch && taps.len() == window.len());
        assert!(input.len() == ch && bias.len() == ch);
        let bufs = Bufs {
            window: window.as_mut_ptr(),
            taps: taps.as_ptr(),
            input: input.as_ptr(),
            bias: bias.as_ptr(),
            out: out.as_mut_ptr(),
            ch,
            kernel,
        };
        let mut c = 0;
        // SAFETY (both calls): every offset is `k·ch + c + lane` with
        // `k < kernel` and `c + lane < ch`, inside the asserted lengths.
        while c + 16 <= ch {
            unsafe { strip::<true>(&bufs, c, !0) };
            c += 16;
        }
        if c < ch {
            unsafe { strip::<false>(&bufs, c, mask16(ch - c)) };
        }
    }

    /// [`step_silu`]'s buffers.
    struct Bufs {
        window: *mut f32,
        taps: *const f32,
        input: *const f32,
        bias: *const f32,
        out: *mut f32,
        ch: usize,
        kernel: usize,
    }

    /// Channels `c..c + 16` (those `m` selects unless `FULL`) of
    /// [`step_silu`]: each window row is loaded once, for its shift and
    /// its product.
    ///
    /// # Safety
    ///
    /// AVX512F, and the strip's lanes must lie inside every buffer.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn strip<const FULL: bool>(b: &Bufs, c: usize, m: __mmask16) {
        let ch = b.ch;
        // SAFETY: the caller's contract.
        unsafe {
            let mut acc = load::<FULL>(m, b.bias.add(c));
            for k in 0..b.kernel - 1 {
                let v = load::<FULL>(m, b.window.add((k + 1) * ch + c));
                store::<FULL>(b.window.add(k * ch + c), m, v);
                let tap = load::<FULL>(m, b.taps.add(k * ch + c));
                acc = _mm512_add_ps(acc, _mm512_mul_ps(tap, v));
            }
            let newest = (b.kernel - 1) * ch + c;
            let x = load::<FULL>(m, b.input.add(c));
            store::<FULL>(b.window.add(newest), m, x);
            let tap = load::<FULL>(m, b.taps.add(newest));
            acc = _mm512_add_ps(acc, _mm512_mul_ps(tap, x));
            store::<FULL>(b.out.add(c), m, silu(acc));
        }
    }
}

/// Re-lays `(channels, kernel)` conv weights tap-major, `(kernel,
/// channels)`, in their own buffer — the weight layout
/// [`ConvState::step_silu_into`] streams.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] when `weight` is not a matrix.
pub fn tap_major(weight: Tensor) -> Result<Tensor> {
    let (channels, kernel) = weight.as_matrix_dims()?;
    let src = weight.data().to_vec();
    let mut data = weight.into_data();
    for (c, taps) in src.chunks_exact(kernel).enumerate() {
        for (k, &t) in taps.iter().enumerate() {
            data[k * channels + c] = t;
        }
    }
    Tensor::from_vec(data, &[kernel, channels])
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
    fn zero_channel_steps_are_ok_fused_or_not() {
        for kernel in 1..=4 {
            let mut st = ConvState::new(0, kernel);
            let got = st.step_into(&[], &Tensor::zeros(&[0, kernel]), &[], &mut []);
            assert!(got.is_ok(), "{got:?}");
            let got = st.step_silu_into(&[], &Tensor::zeros(&[kernel, 0]), &[], &mut []);
            assert!(got.is_ok(), "{got:?}");
        }
    }

    #[test]
    fn every_fused_step_form_matches_the_scalar_step_bit_for_bit() {
        use crate::activation::tests::{edge_values, same_bits, LENGTHS};
        for isa in Isa::tiers() {
            for kernel in 1..=4 {
                for (k, &ch) in LENGTHS.iter().enumerate() {
                    let seed = (10 * kernel + k) as u32;
                    let taps =
                        Tensor::from_vec(edge_values(kernel * ch, seed), &[kernel, ch]).unwrap();
                    let bias = edge_values(ch, seed + 1);
                    let (mut want, mut got) =
                        (ConvState::new(ch, kernel), ConvState::new(ch, kernel));
                    let (mut y_want, mut y_got) = (vec![0.0; ch], vec![0.0; ch]);
                    for step in 0..kernel + 2 {
                        let input = edge_values(ch, seed + 2 + step as u32);
                        want.step_silu_into_on(Isa::Scalar, &input, &taps, &bias, &mut y_want)
                            .unwrap();
                        got.step_silu_into_on(isa, &input, &taps, &bias, &mut y_got)
                            .unwrap();
                        assert!(same_bits(&y_got, &y_want), "{isa:?} k {kernel} ch {ch}");
                        assert!(
                            same_bits(&got.window, &want.window),
                            "{isa:?} k {kernel} ch {ch}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn accessors() {
        let st = ConvState::new(3, 4);
        assert_eq!(st.channels(), 3);
        assert_eq!(st.kernel(), 4);
    }
}
