//! Scenario: why Mamba breaks channel-wise PTQ — the scattered-outlier
//! study behind the paper's Sec. III Challenge 1 and Fig. 2.
//!
//! Generates Transformer-style (fixed-channel) and Mamba-style (scattered)
//! activations, then shows that calibrated channel-wise scaling only
//! helps the first, while rotation helps both.
//!
//! Run with: `cargo run --example outlier_study`

use lightmamba_repro::core::experiments::{rotated_quant_error, transformed_quant_error};
use lightmamba_repro::hadamard::FactoredHadamard;
use lightmamba_repro::model::synth::{channel_persistence, synthetic_activations, OutlierPattern};
use lightmamba_repro::quant::metrics::activation_quant_error;
use lightmamba_repro::quant::quantizer::QuantScheme;
use lightmamba_repro::quant::smoothquant::smoothing_factors;
use lightmamba_repro::tensor::stats;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CHANNELS: usize = 1024;
const TOKENS: usize = 128;

fn study(name: &str, pattern: OutlierPattern, rng: &mut StdRng) {
    let calib = synthetic_activations(rng, TOKENS, CHANNELS, pattern);
    let eval = synthetic_activations(rng, TOKENS, CHANNELS, pattern);
    let persistence = channel_persistence(&eval, 8);
    let scheme = QuantScheme::act_per_group(4, 128);
    let rtn = activation_quant_error(&eval, scheme).expect("valid scheme");
    let factors = smoothing_factors(
        &stats::per_channel_absmax(&calib),
        &vec![1.0; CHANNELS],
        0.5,
    );
    let sq = transformed_quant_error(&eval, &factors, &[0.0; CHANNELS], scheme);
    let h = FactoredHadamard::new(CHANNELS).expect("constructible");
    let rot = rotated_quant_error(&eval, &h, scheme);
    println!("{name}:");
    println!("  outlier-channel persistence: {persistence:.3}");
    println!("  4-bit error  RTN {rtn:10.1} | SmoothQuant {sq:10.1} | rotation {rot:10.1}");
    println!(
        "  channel-wise scaling {} ({}x vs RTN); rotation {}x vs RTN\n",
        if sq < 0.8 * rtn {
            "works"
        } else {
            "fails to beat RTN"
        },
        sq / rtn,
        rot / rtn,
    );
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2025);
    study(
        "Transformer-style activations (fixed outlier channels)",
        OutlierPattern::FixedChannels {
            channels: 8,
            magnitude: 40.0,
        },
        &mut rng,
    );
    study(
        "Mamba-style activations (scattered outlier channels, Fig. 2c)",
        OutlierPattern::Scattered {
            channels_per_token: 8,
            magnitude: 40.0,
        },
        &mut rng,
    );
    println!("conclusion: calibrated channel factors require persistent outlier channels;");
    println!(
        "rotation amortizes outliers regardless of where they appear — the premise of LightMamba."
    );
}
