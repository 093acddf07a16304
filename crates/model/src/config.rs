//! Mamba2 model hyper-parameters and the published model-family presets.

use crate::{ModelError, Result};

/// Named members of the Mamba2 model family evaluated in the paper
/// (Fig. 9b sweeps 130M → 2.7B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelPreset {
    /// Mamba2-130M: d_model 768, 24 layers.
    M130,
    /// Mamba2-370M: d_model 1024, 48 layers.
    M370,
    /// Mamba2-780M: d_model 1536, 48 layers.
    M780,
    /// Mamba2-1.3B: d_model 2048, 48 layers.
    B1_3,
    /// Mamba2-2.7B: d_model 2560, 64 layers — the paper's primary target.
    B2_7,
}

impl ModelPreset {
    /// All presets in ascending size order.
    pub const ALL: [ModelPreset; 5] = [
        ModelPreset::M130,
        ModelPreset::M370,
        ModelPreset::M780,
        ModelPreset::B1_3,
        ModelPreset::B2_7,
    ];

    /// Human-readable name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ModelPreset::M130 => "Mamba2-130M",
            ModelPreset::M370 => "Mamba2-370M",
            ModelPreset::M780 => "Mamba2-780M",
            ModelPreset::B1_3 => "Mamba2-1.3B",
            ModelPreset::B2_7 => "Mamba2-2.7B",
        }
    }
}

impl std::fmt::Display for ModelPreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Hyper-parameters of a Mamba2 model.
///
/// Derived quantities follow the reference implementation: `d_inner =
/// expand · d_model`, `nheads = d_inner / headdim`, the input projection
/// emits `(z, x, B, C, Δ)` with total width `2·d_inner + 2·ngroups·d_state
/// + nheads`, and conv1d covers the `(x, B, C)` slice.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MambaConfig {
    /// Residual-stream (embedding) width.
    pub d_model: usize,
    /// Number of Mamba blocks.
    pub n_layer: usize,
    /// SSM state dimension `N` per group.
    pub d_state: usize,
    /// Causal conv1d kernel width.
    pub d_conv: usize,
    /// Inner-width expansion factor (2 for all published Mamba2 models).
    pub expand: usize,
    /// Per-head channel count `P`.
    pub headdim: usize,
    /// Number of B/C groups (1 for all published Mamba2 models).
    pub ngroups: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
}

impl MambaConfig {
    /// Configuration of a published model-family member.
    pub fn preset(p: ModelPreset) -> Self {
        let (d_model, n_layer) = match p {
            ModelPreset::M130 => (768, 24),
            ModelPreset::M370 => (1024, 48),
            ModelPreset::M780 => (1536, 48),
            ModelPreset::B1_3 => (2048, 48),
            ModelPreset::B2_7 => (2560, 64),
        };
        MambaConfig {
            d_model,
            n_layer,
            d_state: 128,
            d_conv: 4,
            expand: 2,
            headdim: 64,
            ngroups: 1,
            vocab_size: 50288,
        }
    }

    /// A laptop-scale configuration with the same structure (used by tests
    /// and examples). `d_model = 48` keeps every dimension
    /// Hadamard-constructible.
    pub fn tiny() -> Self {
        MambaConfig {
            d_model: 48,
            n_layer: 2,
            d_state: 16,
            d_conv: 4,
            expand: 2,
            headdim: 24,
            ngroups: 1,
            vocab_size: 256,
        }
    }

    /// A mid-size configuration that is still fast to run end to end but
    /// has enough channels for meaningful outlier statistics.
    pub fn small() -> Self {
        MambaConfig {
            d_model: 96,
            n_layer: 4,
            d_state: 32,
            d_conv: 4,
            expand: 2,
            headdim: 48,
            ngroups: 1,
            vocab_size: 512,
        }
    }

    /// Validates structural constraints.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when `headdim` does not divide
    /// `d_inner`, any dimension is zero, or `ngroups` does not divide
    /// `nheads`.
    pub fn validate(&self) -> Result<()> {
        if self.d_model == 0
            || self.n_layer == 0
            || self.d_state == 0
            || self.d_conv == 0
            || self.expand == 0
            || self.headdim == 0
            || self.ngroups == 0
            || self.vocab_size == 0
        {
            return Err(ModelError::InvalidConfig(
                "all dimensions must be non-zero".into(),
            ));
        }
        if !self.d_inner().is_multiple_of(self.headdim) {
            return Err(ModelError::InvalidConfig(format!(
                "headdim {} must divide d_inner {}",
                self.headdim,
                self.d_inner()
            )));
        }
        if !self.nheads().is_multiple_of(self.ngroups) {
            return Err(ModelError::InvalidConfig(format!(
                "ngroups {} must divide nheads {}",
                self.ngroups,
                self.nheads()
            )));
        }
        Ok(())
    }

    /// Inner width `expand · d_model`.
    pub fn d_inner(&self) -> usize {
        self.expand * self.d_model
    }

    /// Number of SSM heads `d_inner / headdim`.
    pub fn nheads(&self) -> usize {
        self.d_inner() / self.headdim
    }

    /// Output width of the input projection: `(z, x, B, C, Δ)`.
    pub fn d_in_proj(&self) -> usize {
        2 * self.d_inner() + 2 * self.ngroups * self.d_state + self.nheads()
    }

    /// Channels covered by the causal conv1d: `(x, B, C)`.
    pub fn conv_dim(&self) -> usize {
        self.d_inner() + 2 * self.ngroups * self.d_state
    }

    /// Per-layer parameter count (weights only).
    pub fn params_per_layer(&self) -> usize {
        let d = self.d_model;
        let di = self.d_inner();
        let h = self.nheads();
        d * self.d_in_proj()              // in_proj
            + self.conv_dim() * self.d_conv + self.conv_dim() // conv w + b
            + 3 * h                        // A_log, dt_bias, D
            + di                           // gated-norm gamma
            + di * d                       // out_proj
            + d // pre-norm gamma
    }

    /// Total parameter count including embedding (LM head is tied).
    pub fn param_count(&self) -> usize {
        self.vocab_size * self.d_model + self.n_layer * self.params_per_layer() + self.d_model
        // final norm
    }

    /// Model size in bytes at the given weight bit-width (the quantity that
    /// bounds decode throughput on a bandwidth-limited platform).
    pub fn weight_bytes(&self, bits_per_weight: f64) -> f64 {
        self.param_count() as f64 * bits_per_weight / 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for p in ModelPreset::ALL {
            let cfg = MambaConfig::preset(p);
            cfg.validate().unwrap();
        }
        MambaConfig::tiny().validate().unwrap();
        MambaConfig::small().validate().unwrap();
    }

    #[test]
    fn derived_dims_for_2p7b() {
        let cfg = MambaConfig::preset(ModelPreset::B2_7);
        assert_eq!(cfg.d_inner(), 5120);
        assert_eq!(cfg.nheads(), 80);
        assert_eq!(cfg.d_in_proj(), 2 * 5120 + 2 * 128 + 80);
        assert_eq!(cfg.conv_dim(), 5120 + 256);
    }

    #[test]
    fn param_count_close_to_published() {
        let cfg = MambaConfig::preset(ModelPreset::B2_7);
        let params = cfg.param_count() as f64;
        assert!(
            (2.4e9..3.0e9).contains(&params),
            "2.7B preset has {params} params"
        );
        let cfg = MambaConfig::preset(ModelPreset::M130);
        let params = cfg.param_count() as f64;
        assert!(
            (1.0e8..1.7e8).contains(&params),
            "130M preset has {params} params"
        );
    }

    #[test]
    fn param_counts_are_monotone_in_size() {
        let counts: Vec<usize> = ModelPreset::ALL
            .iter()
            .map(|&p| MambaConfig::preset(p).param_count())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn validation_catches_bad_headdim() {
        let mut cfg = MambaConfig::tiny();
        cfg.headdim = 7;
        assert!(matches!(cfg.validate(), Err(ModelError::InvalidConfig(_))));
    }

    #[test]
    fn validation_catches_zero_dim() {
        let mut cfg = MambaConfig::tiny();
        cfg.d_state = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn weight_bytes_scales_with_precision() {
        let cfg = MambaConfig::preset(ModelPreset::B2_7);
        let fp16 = cfg.weight_bytes(16.0);
        let w4 = cfg.weight_bytes(4.0);
        assert!((fp16 / w4 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn preset_names() {
        assert_eq!(ModelPreset::B2_7.to_string(), "Mamba2-2.7B");
        assert_eq!(ModelPreset::ALL.len(), 5);
    }
}
