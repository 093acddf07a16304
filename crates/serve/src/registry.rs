//! Multi-model registry: named [`DecodeBackend`]s multiplexed over one
//! slot pool.
//!
//! The production pattern (cf. text-generation-inference's router) is an
//! engine generic over interchangeable model backends. Here several named
//! backends — e.g. the FP reference and its W4A4 quantization — share one
//! engine and one slot pool; each [`crate::request::GenRequest`] carries a
//! [`ModelId`] and the engine forms one sub-batch per model per step.
//!
//! Sharing a pool is sound because Mamba2's decode state depends only on
//! the model *configuration*, not the weights or their precision:
//! registration rejects a backend whose state shape differs from the
//! registry's first entry, so any slot can host any model's sequence.

use lightmamba_model::{MambaModel, ModelState};

use crate::backend::{DecodeBackend, FpBackend};
use crate::error::ServeError;

/// Index of a registered model; `GenRequest::model` names backends by it.
pub type ModelId = usize;

/// Whether two decode states are slot-interchangeable: same layer
/// count, same recurrent-state and conv-window dimensions per layer.
pub(crate) fn same_state_shape(a: &ModelState, b: &ModelState) -> bool {
    a.layers.len() == b.layers.len()
        && a.layers.iter().zip(&b.layers).all(|(x, y)| {
            x.h.len() == y.h.len()
                && x.conv.channels() == y.conv.channels()
                && x.conv.kernel() == y.conv.kernel()
        })
}

struct Entry<'m> {
    name: String,
    backend: Box<dyn DecodeBackend + 'm>,
}

/// Named decode backends sharing one slot pool.
///
/// The lifetime `'m` bounds borrowed backends ([`FpBackend`] borrows its
/// reference model); owning backends use `'static` implicitly.
#[derive(Default)]
pub struct ModelRegistry<'m> {
    entries: Vec<Entry<'m>>,
}

impl std::fmt::Debug for ModelRegistry<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.entries.iter().map(|e| &e.name))
            .finish()
    }
}

impl<'m> ModelRegistry<'m> {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry {
            entries: Vec::new(),
        }
    }

    /// A registry holding one FP backend named `"fp"` — the PR 1
    /// single-model engine, expressed in the backend layer.
    pub fn single(model: &'m MambaModel) -> Self {
        let mut r = ModelRegistry::new();
        r.register("fp", Box::new(FpBackend::new(model)))
            .expect("first registration cannot conflict");
        r
    }

    /// Registers a backend under `name` and returns its [`ModelId`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a duplicate name or a
    /// backend whose decode-state shape differs from the registry's
    /// existing entries (states must be slot-interchangeable).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        backend: Box<dyn DecodeBackend + 'm>,
    ) -> Result<ModelId, ServeError> {
        let name = name.into();
        if name.is_empty() {
            return Err(ServeError::InvalidConfig(
                "model name must be non-empty".into(),
            ));
        }
        if self.entries.iter().any(|e| e.name == name) {
            return Err(ServeError::InvalidConfig(format!(
                "model {name:?} is already registered"
            )));
        }
        if let Some(first) = self.entries.first() {
            if !same_state_shape(&first.backend.new_state(), &backend.new_state()) {
                return Err(ServeError::InvalidConfig(format!(
                    "model {name:?} has a decode-state shape incompatible with {:?}; \
                     backends sharing a slot pool must agree on state dimensions",
                    first.name
                )));
            }
        }
        self.entries.push(Entry { name, backend });
        Ok(self.entries.len() - 1)
    }

    /// Hands every registered backend the engine's shared worker pool
    /// ([`DecodeBackend::attach_pool`]); backends registered *after*
    /// this call stay sequential. [`crate::engine::ServeEngine`] calls
    /// it at construction when [`crate::engine::EngineConfig::threads`]
    /// asks for more than one thread.
    pub fn attach_pool(&mut self, pool: &std::sync::Arc<lightmamba_pool::WorkerPool>) {
        for e in &mut self.entries {
            e.backend.attach_pool(pool);
        }
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no model is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The backend registered under `id`, if any.
    pub fn get(&self, id: ModelId) -> Option<&dyn DecodeBackend> {
        self.entries.get(id).map(|e| e.backend.as_ref())
    }

    /// The name registered under `id`, if any.
    pub fn name_of(&self, id: ModelId) -> Option<&str> {
        self.entries.get(id).map(|e| e.name.as_str())
    }

    /// Resolves a model name to its id.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] when no backend is registered
    /// under `name`.
    pub fn id_of(&self, name: &str) -> Result<ModelId, ServeError> {
        self.entries
            .iter()
            .position(|e| e.name == name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))
    }

    /// Iterates `(id, name, backend)` in registration order — the order
    /// sub-batches execute within one engine step.
    pub fn iter(&self) -> impl Iterator<Item = (ModelId, &str, &dyn DecodeBackend)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(id, e)| (id, e.name.as_str(), e.backend.as_ref()))
    }

    /// The registered model with the narrowest weight stream (lowest
    /// [`crate::backend::CostProfile::weight_bits`]) — e.g. the W4A4
    /// backend in an FP + W4A4 registry. The engine's degradation
    /// controller routes degradable requests here under sustained
    /// overload. Ties resolve to the earliest registration; `None` on
    /// an empty registry.
    pub fn cheapest_model(&self) -> Option<ModelId> {
        self.entries
            .iter()
            .enumerate()
            .map(|(id, e)| (id, e.backend.cost_profile().weight_bits))
            .fold(
                None,
                |best: Option<(ModelId, f64)>, (id, bits)| match best {
                    Some((_, b)) if b <= bits => best,
                    _ => Some((id, bits)),
                },
            )
            .map(|(id, _)| id)
    }

    /// Vocabulary size of each registered model, indexed by [`ModelId`]
    /// — what request intake validates prompt tokens against.
    pub(crate) fn vocab_sizes(&self) -> Vec<usize> {
        self.entries
            .iter()
            .map(|e| e.backend.config().vocab_size)
            .collect()
    }

    /// A zeroed state shaped for the shared slot pool (from the first
    /// registered backend; registration guarantees all agree).
    ///
    /// # Panics
    ///
    /// Panics on an empty registry — the engine rejects that at
    /// construction.
    pub fn new_state(&self) -> ModelState {
        self.entries
            .first()
            .expect("registry must hold at least one model")
            .backend
            .new_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightmamba_model::MambaConfig;
    use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::backend::W4A4Backend;

    fn tiny_model() -> MambaModel {
        MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(9)).unwrap()
    }

    #[test]
    fn registers_and_resolves_names() {
        let model = tiny_model();
        let q = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
        let mut reg = ModelRegistry::new();
        let fp = reg
            .register("fp", Box::new(FpBackend::new(&model)))
            .unwrap();
        let w4 = reg.register("w4a4", Box::new(W4A4Backend::new(q))).unwrap();
        assert_eq!((fp, w4), (0, 1));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.id_of("w4a4").unwrap(), 1);
        assert_eq!(reg.name_of(0), Some("fp"));
        assert_eq!(reg.get(1).unwrap().name(), "w4a4");
    }

    #[test]
    fn cheapest_model_picks_the_narrowest_weight_stream() {
        let model = tiny_model();
        let q = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
        let mut reg = ModelRegistry::new();
        reg.register("fp", Box::new(FpBackend::new(&model)))
            .unwrap();
        let w4 = reg.register("w4a4", Box::new(W4A4Backend::new(q))).unwrap();
        assert_eq!(reg.cheapest_model(), Some(w4));
        assert_eq!(ModelRegistry::new().cheapest_model(), None);
    }

    #[test]
    fn unknown_model_name_is_rejected() {
        let model = tiny_model();
        let reg = ModelRegistry::single(&model);
        let err = reg.id_of("nonexistent").unwrap_err();
        assert!(matches!(err, ServeError::UnknownModel(ref n) if n == "nonexistent"));
    }

    #[test]
    fn duplicate_name_is_rejected() {
        let model = tiny_model();
        let mut reg = ModelRegistry::single(&model);
        let err = reg
            .register("fp", Box::new(FpBackend::new(&model)))
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)));
    }

    #[test]
    fn incompatible_state_shape_is_rejected() {
        let model = tiny_model();
        let mut other_cfg = MambaConfig::tiny();
        other_cfg.d_state = 32;
        let other = MambaModel::synthetic(other_cfg, &mut StdRng::seed_from_u64(2)).unwrap();
        let mut reg = ModelRegistry::single(&model);
        let err = reg
            .register("other", Box::new(FpBackend::new(&other)))
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)));
    }
}
