//! Decode-time recurrent state.
//!
//! Unlike a Transformer's KV cache, Mamba's decode state is *fixed size*:
//! per layer a conv window and an `(nheads × headdim × d_state)` hidden
//! state. This is the property behind the flat throughput curve of the
//! paper's Fig. 9a and it is also why the whole state fits on-chip in the
//! accelerator (Sec. V-C budgets its URAM).

use lightmamba_tensor::conv::ConvState;

use crate::ssm::SsmDims;
use crate::MambaConfig;

/// Recurrent state of one Mamba block.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerState {
    /// Sliding window of the causal conv1d over `(x, B, C)`.
    pub conv: ConvState,
    /// Flattened SSM hidden state, stored `(nheads, d_state, headdim)`:
    /// per head, one row of `headdim` channels per state index, the order
    /// the scan streams ([`crate::ssm`], "State layout"). Its logical
    /// `[h][p][n]` view is [`crate::ssm::state_to_logical`].
    pub h: StateBuf,
}

/// A zero-initialised `f32` buffer whose first element sits on a 64-byte
/// boundary, so the 16-lane scan's loads and stores of the SSM state
/// never split a cache line. It derefs to `[f32]`; a clone starts on a
/// boundary of its own, and compares and prints as the slice it holds.
pub struct StateBuf {
    /// `len` values plus up to 15 of slack, so some element is aligned.
    buf: Vec<f32>,
    /// Index of the first aligned element of `buf`.
    start: usize,
    len: usize,
}

impl StateBuf {
    /// `len` zeros, the first on a 64-byte boundary.
    pub fn zeros(len: usize) -> Self {
        const LANES: usize = 64 / std::mem::size_of::<f32>();
        let buf = vec![0.0f32; len + LANES - 1];
        let start = buf.as_ptr().align_offset(64);
        assert!(start < LANES, "an f32 buffer reaches a 64-byte boundary");
        StateBuf { buf, start, len }
    }
}

impl std::ops::Deref for StateBuf {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl std::ops::DerefMut for StateBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf[self.start..self.start + self.len]
    }
}

impl Clone for StateBuf {
    fn clone(&self) -> Self {
        let mut copy = StateBuf::zeros(self.len);
        copy.copy_from_slice(self);
        copy
    }
}

impl PartialEq for StateBuf {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for StateBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl LayerState {
    /// Zero-initialized state for one layer of `cfg`.
    pub fn new(cfg: &MambaConfig) -> Self {
        let dims = SsmDims::new(cfg);
        LayerState {
            conv: ConvState::new(cfg.conv_dim(), cfg.d_conv),
            h: StateBuf::zeros(dims.state_len()),
        }
    }

    /// Resets to the zero state (start of a new sequence).
    pub fn reset(&mut self) {
        self.conv.reset();
        self.h.fill(0.0);
    }

    /// Copies `other` into this layer state without reallocating — the
    /// restore half of pause/resume (preemptive serving swaps states in
    /// and out of slots; the hot path must stay allocation-free).
    ///
    /// # Panics
    ///
    /// Panics on mismatched state shapes (different model configs).
    pub fn copy_from(&mut self, other: &LayerState) {
        assert_eq!(self.h.len(), other.h.len(), "ssm state shape mismatch");
        self.conv.copy_from(&other.conv);
        self.h.copy_from_slice(&other.h);
    }

    /// Bytes of state this layer keeps at `bits` bits per element — the
    /// quantity the accelerator must buffer on-chip.
    pub fn state_bytes(&self, bits: f64) -> f64 {
        (self.h.len() + self.conv.channels() * self.conv.kernel()) as f64 * bits / 8.0
    }
}

/// Recurrent state of the full model (one [`LayerState`] per block).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelState {
    /// Per-layer states, index-aligned with the model's blocks.
    pub layers: Vec<LayerState>,
}

impl ModelState {
    /// Zero-initialized state for `cfg`.
    pub fn new(cfg: &MambaConfig) -> Self {
        ModelState {
            layers: (0..cfg.n_layer).map(|_| LayerState::new(cfg)).collect(),
        }
    }

    /// Resets every layer (start of a new sequence).
    pub fn reset(&mut self) {
        for l in &mut self.layers {
            l.reset();
        }
    }

    /// Copies `other` into this state without reallocating. Because the
    /// state is fixed-size, this is the *entire* cost of resuming a
    /// paused sequence — there is no KV cache to reload.
    ///
    /// # Panics
    ///
    /// Panics on mismatched layer counts or per-layer shapes.
    pub fn copy_from(&mut self, other: &ModelState) {
        assert_eq!(
            self.layers.len(),
            other.layers.len(),
            "layer count mismatch"
        );
        for (l, o) in self.layers.iter_mut().zip(&other.layers) {
            l.copy_from(o);
        }
    }

    /// Total state bytes across layers at `bits` bits per element.
    pub fn total_state_bytes(&self, bits: f64) -> f64 {
        self.layers.iter().map(|l| l.state_bytes(bits)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssm_state_is_64_byte_aligned_new_cloned_and_restored() {
        let aligned = |st: &ModelState| {
            st.layers
                .iter()
                .all(|l| (l.h.as_ptr() as usize).is_multiple_of(64))
        };
        let cfg = MambaConfig::tiny();
        for _ in 0..8 {
            let mut st = ModelState::new(&cfg);
            st.layers[0].h[1] = 2.5;
            let copy = st.clone();
            assert!(aligned(&st) && aligned(&copy));
            assert_eq!(copy, st);
            assert_eq!(
                format!("{:?}", copy.layers[0].h),
                format!("{:?}", &*st.layers[0].h)
            );
            let mut restored = ModelState::new(&cfg);
            restored.copy_from(&st);
            assert!(aligned(&restored));
            assert_eq!(restored, st);
        }
    }

    #[test]
    fn state_sizes_follow_config() {
        let cfg = MambaConfig::tiny();
        let st = ModelState::new(&cfg);
        assert_eq!(st.layers.len(), cfg.n_layer);
        let dims = SsmDims::new(&cfg);
        assert_eq!(st.layers[0].h.len(), dims.state_len());
        assert_eq!(st.layers[0].conv.channels(), cfg.conv_dim());
    }

    #[test]
    fn copy_from_round_trips_without_shape_change() {
        let cfg = MambaConfig::tiny();
        let mut src = ModelState::new(&cfg);
        src.layers[0].h[0] = 3.5;
        src.layers[1].h[2] = -1.25;
        let mut dst = ModelState::new(&cfg);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        // Restore over a dirtied state lands exactly on the snapshot.
        dst.layers[0].h[0] = 99.0;
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "layer count mismatch")]
    fn copy_from_rejects_foreign_shapes() {
        let mut a = ModelState::new(&MambaConfig::tiny());
        let mut other_cfg = MambaConfig::tiny();
        other_cfg.n_layer += 1;
        let b = ModelState::new(&other_cfg);
        a.copy_from(&b);
    }

    #[test]
    fn reset_zeroes_everything() {
        let cfg = MambaConfig::tiny();
        let mut st = ModelState::new(&cfg);
        st.layers[0].h[0] = 5.0;
        st.reset();
        assert_eq!(st.layers[0].h[0], 0.0);
    }

    #[test]
    fn state_is_constant_in_sequence_length() {
        // The defining contrast with a KV cache: bytes depend only on the
        // config, never on how many tokens have been decoded.
        let cfg = MambaConfig::tiny();
        let st = ModelState::new(&cfg);
        let b = st.total_state_bytes(16.0);
        assert!(b > 0.0);
        // 2.7B state stays in the tens of MB even at FP16.
        let big = ModelState::new(&MambaConfig::preset(crate::ModelPreset::B2_7));
        let mb = big.total_state_bytes(16.0) / 1e6;
        assert!(mb > 50.0 && mb < 200.0, "2.7B state {mb} MB");
    }
}
