//! Prior-accelerator baselines (Fig. 9a) and the paradigm taxonomy
//! (Table I).
//!
//! FlightLLM (FPGA'24) and DFX (MICRO'22) accelerate *Transformer* LLMs,
//! so their per-token cost includes reading a KV cache that grows with
//! the generated length — the mechanism behind their decaying curves in
//! Fig. 9a. The paper "simulated their performance based on the
//! parameters in each paper"; these analytic models do the same.

/// An analytic Transformer-accelerator baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerAccelBaseline {
    /// Name as shown in Fig. 9a.
    pub name: String,
    /// Model the accelerator runs (for the legend).
    pub model_name: String,
    /// Model parameter count.
    pub params: f64,
    /// Weight bits.
    pub weight_bits: f64,
    /// Effective memory bandwidth in bytes/s.
    pub effective_bandwidth: f64,
    /// Transformer layer count (KV traffic scales with it).
    pub n_layer: usize,
    /// Hidden width (KV bytes per token per layer = 2 × width × 2 bytes).
    pub d_model: usize,
    /// Fixed per-token overhead in seconds.
    pub per_token_overhead_s: f64,
}

impl TransformerAccelBaseline {
    /// FlightLLM on LLaMA2-7B (W3.5A8 on an Alveo-class FPGA with HBM).
    pub fn flightllm() -> Self {
        TransformerAccelBaseline {
            name: "FlightLLM".into(),
            model_name: "LLaMA2-7B".into(),
            params: 6.7e9,
            weight_bits: 3.5,
            effective_bandwidth: 250e9,
            n_layer: 32,
            d_model: 4096,
            per_token_overhead_s: 1.0e-3,
        }
    }

    /// DFX: FP16 GPT-2 1.5B on a multi-FPGA appliance.
    pub fn dfx() -> Self {
        TransformerAccelBaseline {
            name: "DFX".into(),
            model_name: "GPT2-1.5B".into(),
            params: 1.5e9,
            weight_bits: 16.0,
            // Multi-FPGA appliance, but FP16 weights and cross-device
            // synchronization keep the sustained rate well below HBM peak.
            effective_bandwidth: 120e9,
            n_layer: 48,
            d_model: 1600,
            per_token_overhead_s: 0.8e-3,
        }
    }

    /// Seconds to produce the token at position `t` (weights + KV read
    /// that has grown to `t` entries + overhead).
    pub fn token_latency_s(&self, position: usize) -> f64 {
        let weight_bytes = self.params * self.weight_bits / 8.0;
        // KV cache: K and V, FP16, per layer, per past token.
        let kv_bytes = 2.0 * 2.0 * (self.n_layer * self.d_model) as f64 * position as f64;
        (weight_bytes + kv_bytes) / self.effective_bandwidth + self.per_token_overhead_s
    }

    /// Average throughput when generating `output_len` tokens.
    pub fn avg_tokens_per_s(&self, output_len: usize) -> f64 {
        if output_len == 0 {
            return 0.0;
        }
        let total: f64 = (0..output_len).map(|t| self.token_latency_s(t)).sum();
        output_len as f64 / total
    }

    /// Throughput series over output lengths (Fig. 9a x-axis).
    pub fn throughput_vs_length(&self, lengths: &[usize]) -> Vec<(usize, f64)> {
        lengths
            .iter()
            .map(|&l| (l, self.avg_tokens_per_s(l)))
            .collect()
    }
}

/// One row of the paper's Table I (qualitative paradigm comparison).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParadigmRow {
    /// Work the row describes.
    pub work: &'static str,
    /// Spatial/temporal/partially-spatial architecture.
    pub architecture: &'static str,
    /// Model family supported.
    pub model: &'static str,
    /// Bit precision.
    pub bit_precision: &'static str,
    /// Qualitative latency.
    pub latency: &'static str,
    /// Element-wise-multiplication compatibility.
    pub em_compatibility: &'static str,
    /// Matrix-multiplication parallelism.
    pub mm_parallelism: &'static str,
}

/// The four rows of Table I.
pub fn paradigms() -> Vec<ParadigmRow> {
    vec![
        ParadigmRow {
            work: "Chen et al. [19]",
            architecture: "Spatial",
            model: "Transformer",
            bit_precision: "W4A8",
            latency: "Low",
            em_compatibility: "yes",
            mm_parallelism: "Mid",
        },
        ParadigmRow {
            work: "FlightLLM [7] / DFX [8]",
            architecture: "Temporal",
            model: "Transformer",
            bit_precision: "W3.5A8 or FP16",
            latency: "High",
            em_compatibility: "no",
            mm_parallelism: "High",
        },
        ParadigmRow {
            work: "LightMamba (ours)",
            architecture: "Partial Spatial",
            model: "Mamba",
            bit_precision: "W4A4",
            latency: "Low",
            em_compatibility: "yes",
            mm_parallelism: "High",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_growth_decays_throughput() {
        let f = TransformerAccelBaseline::flightllm();
        let short = f.avg_tokens_per_s(128);
        let long = f.avg_tokens_per_s(8192);
        assert!(long < short, "KV growth must decay throughput");
        assert!(short / long > 1.1, "decay too weak: {short} vs {long}");
    }

    #[test]
    fn flightllm_magnitude_is_tens_of_tokens() {
        // The paper's Fig. 9a places FlightLLM at the same order of
        // magnitude as an RTX 2070 running Mamba (tens of tokens/s).
        let f = TransformerAccelBaseline::flightllm();
        let t = f.avg_tokens_per_s(1024);
        assert!((20.0..120.0).contains(&t), "FlightLLM {t} tokens/s");
    }

    #[test]
    fn dfx_is_slower_than_flightllm_per_fig9a_regime() {
        let f = TransformerAccelBaseline::flightllm().avg_tokens_per_s(4096);
        let d = TransformerAccelBaseline::dfx().avg_tokens_per_s(4096);
        // DFX streams FP16 weights: heavier per token despite smaller model.
        assert!(d < f * 1.5, "dfx {d} vs flightllm {f}");
    }

    #[test]
    fn zero_length_is_zero_throughput() {
        assert_eq!(TransformerAccelBaseline::dfx().avg_tokens_per_s(0), 0.0);
    }

    #[test]
    fn series_is_monotonically_decaying() {
        let f = TransformerAccelBaseline::flightllm();
        let pts = f.throughput_vs_length(&[128, 1024, 4096, 8192]);
        for w in pts.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
    }

    #[test]
    fn table1_has_ours_winning_both_axes() {
        let rows = paradigms();
        assert_eq!(rows.len(), 3);
        let ours = rows.last().unwrap();
        assert_eq!(ours.latency, "Low");
        assert_eq!(ours.em_compatibility, "yes");
        assert_eq!(ours.mm_parallelism, "High");
        assert_eq!(ours.model, "Mamba");
    }
}
