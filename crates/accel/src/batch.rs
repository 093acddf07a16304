//! Batch-aware decode costing for multi-sequence serving.
//!
//! The paper's decode model (see [`crate::sim`]) is single-stream: every
//! token streams the full weight set, so on a bandwidth-bound platform the
//! DMA term dominates and compute sits mostly idle. Serving many sequences
//! at once amortizes exactly that term — one weight pass feeds a matvec
//! *per resident sequence*, so per-layer cost becomes
//! `max(batch · compute, dma)` and aggregate throughput rises until the
//! accelerator crosses from memory-bound to compute-bound. Mamba2 makes
//! the resident set cheap to host: each extra sequence costs a fixed
//! per-layer state footprint (conv window + SSM state), never a growing
//! KV cache, which is what `lightmamba_serve` builds its slot pool on.

use lightmamba_model::LayerState;

use crate::sim::DecodeSimulator;
use crate::tiling::URAM_BYTES;

/// On-chip state precision: INT16, the same convention `tiling`'s
/// `h_state` buffer uses (the SSM state is kept wider than the W4A4
/// activations).
const STATE_BITS: f64 = 16.0;

/// Decode performance of one engine step that advances `batch` resident
/// sequences by one token each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchDecodeReport {
    /// Number of sequences advanced per step.
    pub batch: usize,
    /// Aggregate decode throughput across the batch.
    pub tokens_per_s: f64,
    /// Per-sequence decode throughput (`tokens_per_s / batch`).
    pub tokens_per_s_per_seq: f64,
    /// Cycles of one engine step (all resident sequences, one token each).
    pub cycles_per_step: f64,
    /// Compute-only cycles per step.
    pub compute_cycles: f64,
    /// DMA-only cycles per step (independent of `batch`: weights are
    /// streamed once and shared).
    pub dma_cycles: f64,
    /// Whether the DMA is still the bottleneck at this batch size.
    pub memory_bound: bool,
    /// On-chip bytes of per-layer recurrent state across the batch
    /// (INT16 state elements).
    pub layer_state_bytes: f64,
    /// Whether `batch` is within [`DecodeSimulator::max_resident_batch`]
    /// (URAM net of the design's compute buffers).
    pub state_fits_on_chip: bool,
}

impl DecodeSimulator {
    /// Per-layer recurrent state bytes of one resident sequence at the
    /// on-chip INT16 state precision. Derived from the model crate's own
    /// [`LayerState`] so the accelerator bound can never drift from the
    /// state the serve engine actually hosts.
    pub fn layer_state_bytes_per_seq(&self) -> f64 {
        LayerState::new(self.model()).state_bytes(STATE_BITS)
    }

    /// Largest batch whose per-layer state fits the URAM left over
    /// after the design's compute buffers ([`crate::resources`]) — the
    /// layer being processed must hold every resident sequence's state
    /// on-chip; layers are processed one at a time. The buffer budget
    /// already hosts one sequence's state slab, so the remainder prices
    /// additional sequences.
    pub fn max_resident_batch(&self) -> usize {
        let total = self.platform().uram_total as f64 * URAM_BYTES;
        let buffers =
            crate::resources::estimate(self.model(), self.config()).uram as f64 * URAM_BYTES;
        let per_seq = self.layer_state_bytes_per_seq();
        if per_seq <= 0.0 {
            return usize::MAX;
        }
        1 + ((total - buffers).max(0.0) / per_seq).floor() as usize
    }

    /// Decode report for an engine step advancing `batch` sequences.
    ///
    /// Weights are streamed once per step and shared across the batch
    /// (double-buffered against compute, as in the single-stream model);
    /// compute scales linearly with the number of resident sequences.
    ///
    /// # Panics
    ///
    /// Panics when `batch` is zero.
    pub fn batch_report(&self, batch: usize) -> BatchDecodeReport {
        assert!(batch > 0, "batch must be at least 1");
        let n_layer = self.model().n_layer as f64;
        let b = batch as f64;

        // Same per-layer and head terms as `decode_report`: compute
        // scales with batch, the shared weight stream does not.
        let layer_compute = self.layer_schedule().makespan as f64;
        let head_compute = self.lm_head_cycles() as f64;
        let layer_dma = self.layer_dma_cycles();
        let head_dma = self.head_dma_cycles();

        let cycles =
            n_layer * (b * layer_compute).max(layer_dma) + (b * head_compute).max(head_dma);
        let compute_cycles = b * (n_layer * layer_compute + head_compute);
        let dma_cycles = n_layer * layer_dma + head_dma;
        let tokens_per_s = b * self.platform().freq_hz / cycles;

        let layer_state_bytes = b * self.layer_state_bytes_per_seq();

        BatchDecodeReport {
            batch,
            tokens_per_s,
            tokens_per_s_per_seq: tokens_per_s / b,
            cycles_per_step: cycles,
            compute_cycles,
            dma_cycles,
            memory_bound: layer_dma > b * layer_compute,
            layer_state_bytes,
            state_fits_on_chip: batch <= self.max_resident_batch(),
        }
    }

    /// Aggregate throughput as a function of batch size — the serving
    /// analogue of Fig. 9a's flat single-stream curve.
    pub fn throughput_vs_batch(&self, batches: &[usize]) -> Vec<(usize, f64)> {
        batches
            .iter()
            .map(|&b| (b, self.batch_report(b).tokens_per_s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::AcceleratorConfig;
    use crate::platform::Platform;
    use lightmamba_model::{MambaConfig, ModelPreset};

    fn vck190_w4a4() -> DecodeSimulator {
        let platform = Platform::vck190();
        let model = MambaConfig::preset(ModelPreset::B2_7);
        let cfg = AcceleratorConfig::lightmamba_w4a4(&platform, &model);
        DecodeSimulator::new(platform, model, cfg)
    }

    #[test]
    fn batch_of_one_matches_single_stream_report() {
        let sim = vck190_w4a4();
        let single = sim.decode_report();
        let b1 = sim.batch_report(1);
        assert!((b1.tokens_per_s - single.tokens_per_s).abs() / single.tokens_per_s < 1e-9);
        assert!((b1.cycles_per_step - single.cycles_per_token).abs() < 1.0);
        assert_eq!(b1.memory_bound, single.memory_bound);
    }

    #[test]
    fn batching_amortizes_weight_streaming_on_vck190() {
        let sim = vck190_w4a4();
        let b1 = sim.batch_report(1);
        let b2 = sim.batch_report(2);
        let b32 = sim.batch_report(32);
        // Batch 2 already closes the DMA/compute gap of the co-designed
        // single-stream point (~1.3×)...
        assert!(b2.tokens_per_s > 1.2 * b1.tokens_per_s, "{b2:?}");
        // ...after which aggregate throughput sits flat on the compute
        // roofline: the engine was sized for single-stream decode.
        assert!(b32.tokens_per_s >= b2.tokens_per_s - 1e-9);
        assert!(b32.tokens_per_s < 1.05 * b2.tokens_per_s, "{b32:?}");
        // DMA term is shared: it must not grow with batch.
        assert!((b32.dma_cycles - b1.dma_cycles).abs() < 1.0);
    }

    #[test]
    fn throughput_eventually_goes_compute_bound() {
        let sim = vck190_w4a4();
        let big = sim.batch_report(4096);
        assert!(!big.memory_bound, "{big:?}");
        // Past the roofline knee, per-sequence throughput decays while
        // aggregate throughput saturates.
        let b1 = sim.batch_report(1);
        assert!(big.tokens_per_s_per_seq < b1.tokens_per_s);
    }

    #[test]
    fn aggregate_throughput_is_monotone_in_batch() {
        let sim = vck190_w4a4();
        let pts = sim.throughput_vs_batch(&[1, 2, 4, 8, 16, 32, 64, 128]);
        assert!(pts.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-9), "{pts:?}");
    }

    #[test]
    fn compute_bound_u280_gains_little_from_batching() {
        let platform = Platform::u280();
        let model = MambaConfig::preset(ModelPreset::B2_7);
        let cfg = AcceleratorConfig::lightmamba_u280(&platform, &model);
        let sim = DecodeSimulator::new(platform, model, cfg);
        let b1 = sim.batch_report(1);
        let b8 = sim.batch_report(8);
        // Already compute-bound at batch 1: scaling is sub-1.3× per 8×.
        assert!(b8.tokens_per_s < 1.3 * b1.tokens_per_s, "{b8:?}");
    }

    #[test]
    fn state_capacity_bounds_residency() {
        let sim = vck190_w4a4();
        let max = sim.max_resident_batch();
        assert!(max >= 1);
        let at_max = sim.batch_report(max);
        assert!(at_max.state_fits_on_chip);
        let beyond = sim.batch_report(max + 1);
        assert!(!beyond.state_fits_on_chip);
    }

    #[test]
    fn per_seq_state_is_megabytes_not_gigabytes() {
        // The fixed-size-state property: one 2.7B sequence's per-layer
        // state is ~1–2 MB, so tens of sequences fit on-chip.
        let sim = vck190_w4a4();
        let mb = sim.layer_state_bytes_per_seq() / 1e6;
        assert!((0.05..4.0).contains(&mb), "per-seq layer state {mb} MB");
    }
}
