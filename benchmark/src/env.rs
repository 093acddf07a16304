//! The models a workload serves and the engine built over them.

use rand::rngs::StdRng;
use rand::SeedableRng;

use lightmamba_model::MambaModel;
use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};
use lightmamba_quant::qmodel::ExecMode;
use lightmamba_quant::QuantizedMamba;
use lightmamba_serve::backend::{FpBackend, W4A4Backend};
use lightmamba_serve::engine::ServeEngine;
use lightmamba_serve::registry::ModelRegistry;

use crate::workload::{model_config, Backends, Workload};
use crate::BenchError;

/// W4A4 group size of every quantized model in the benchmark.
pub const GROUP: usize = 128;

/// The FP reference and, where the workload needs it, its LightMamba
/// W4A4 quantization on the integer path.
#[derive(Debug)]
pub struct Models {
    /// `MambaModel::synthetic` of the bench configuration under `--seed`.
    pub fp: MambaModel,
    /// `quantize_model(LightMamba, w4a4_grouped(128))`, integer mode.
    pub w4a4: Option<QuantizedMamba>,
}

impl Models {
    /// Synthesizes the FP model and, for workloads serving W4A4, runs
    /// rotation-assisted PTQ and packing.
    pub fn build(workload: Workload, seed: u64) -> Result<Self, BenchError> {
        let fp = MambaModel::synthetic(model_config(), &mut StdRng::seed_from_u64(seed))?;
        let w4a4 = match workload.backends() {
            Backends::Fp => None,
            Backends::W4a4 | Backends::Both => Some(lightmamba_w4a4(&fp)?),
        };
        Ok(Models { fp, w4a4 })
    }

    /// The W4A4 model; panics on workloads that built none.
    pub fn w4a4(&self) -> &QuantizedMamba {
        self.w4a4.as_ref().expect("workload serves a W4A4 backend")
    }

    /// A fresh registry for `workload`: model 0 is FP unless the
    /// workload is W4A4-only; the W4A4 backend shares packed weights
    /// with [`Models::w4a4`] (the clone copies an `Arc`).
    pub fn registry(&self, workload: Workload) -> Result<ModelRegistry<'_>, BenchError> {
        let mut registry = ModelRegistry::new();
        let backends = workload.backends();
        if backends != Backends::W4a4 {
            registry.register("fp", Box::new(FpBackend::new(&self.fp)))?;
        }
        if backends != Backends::Fp {
            registry.register("w4a4", Box::new(W4A4Backend::new(self.w4a4().clone())))?;
        }
        Ok(registry)
    }

    /// A fresh engine for one round of `workload`: empty slot pool,
    /// cold prefix cache, step clock at zero, so every round executes
    /// the same step sequence.
    pub fn engine(&self, workload: Workload) -> Result<ServeEngine<'_>, BenchError> {
        Ok(ServeEngine::with_registry(
            self.registry(workload)?,
            workload.engine_config(),
        )?)
    }
}

/// LightMamba W4A4 PTQ of `fp`; must land on the integer kernel path.
pub fn lightmamba_w4a4(fp: &MambaModel) -> Result<QuantizedMamba, BenchError> {
    let q = quantize_model(fp, Method::LightMamba, &QuantSpec::w4a4_grouped(GROUP), &[])?;
    if q.exec_mode() != ExecMode::Integer {
        return Err(format!(
            "W4A4 model runs in {:?} mode, expected the integer kernels",
            q.exec_mode()
        )
        .into());
    }
    Ok(q)
}
