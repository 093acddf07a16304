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
    pub h: Vec<f32>,
}

impl LayerState {
    /// Zero-initialized state for one layer of `cfg`.
    pub fn new(cfg: &MambaConfig) -> Self {
        let dims = SsmDims::new(cfg);
        LayerState {
            conv: ConvState::new(cfg.conv_dim(), cfg.d_conv),
            h: vec![0.0; dims.state_len()],
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
