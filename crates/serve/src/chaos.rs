//! Deterministic chaos harness: seeded fault injection for the serving
//! engine.
//!
//! A [`FaultPlan`] is a reproducible schedule of fault windows over
//! engine *virtual time* (steps), generated from a seed — the same seed
//! always yields the same windows, so every chaos test and the
//! `serve_traffic --chaos` study replay exactly. A [`ChaosBackend`]
//! wraps any [`DecodeBackend`] and fires the plan against it: inside a
//! window the wrapped backend's batched advance (the trait's one
//! execution method, so the decode-step and prefill conveniences built
//! on it fault too) returns an error, panics, records a latency spike,
//! or poisons the next state restore —
//! outside the windows (and always at fault rate 0) the wrapper is a
//! transparent delegate, which is what keeps fault-free runs
//! bit-identical with the chaos layer compiled in.
//!
//! The schedule is keyed to the engine clock through the
//! [`DecodeBackend::on_step`] heartbeat, which the engine delivers to
//! *every* registered backend each step — quarantined ones included. A
//! backend sitting out its quarantine therefore still watches its fault
//! windows elapse, exactly like a real transient fault that clears
//! whether or not traffic hits it; that is what routing around a fault
//! domain buys.

use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lightmamba_model::{MambaConfig, ModelState};

use crate::backend::{CostProfile, DecodeBackend, PausedState};
use crate::error::ServeError;

/// What a fault window does to the wrapped backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The batched advance returns [`ServeError::BackendFault`].
    StepError,
    /// The batched advance panics (the engine's per-domain panic catch
    /// turns this into a contained fault).
    Panic,
    /// The advance succeeds but is recorded as a latency spike
    /// (observable via [`ChaosBackend::latency_spikes`]; virtual time
    /// is unaffected — a spike models host jitter, not model work).
    LatencySpike,
    /// A state restore performed inside the window is poisoned: the
    /// *next* batched advance detects the corruption and faults —
    /// modeling torn state discovered at first use, the failure mode
    /// the slot pool's re-zero-on-alloc defends against.
    RestoreCorruption,
}

/// One scheduled fault: `kind` is in force for engine steps
/// `start .. start + len`.
#[derive(Debug, Clone, Copy)]
pub struct FaultWindow {
    /// First engine step of the window.
    pub start: u64,
    /// Window length in steps (≥ 1).
    pub len: u64,
    /// The injected behavior.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// Whether the window is in force at `clock`.
    pub fn covers(&self, clock: u64) -> bool {
        clock >= self.start && clock < self.start + self.len
    }
}

/// A seeded, reproducible schedule of fault windows over engine steps.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan: the wrapper delegates transparently forever.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Generates a schedule from `seed`: fault windows of 1–3 steps,
    /// with gaps sized so that roughly `fault_rate` of the first
    /// `horizon` steps fall inside a window (e.g. `0.05` ≈ one short
    /// window every ~40 steps). Rates ≤ 0 yield an empty plan. The same
    /// `(seed, horizon, fault_rate)` always yields the same windows.
    pub fn seeded(seed: u64, horizon: u64, fault_rate: f64) -> Self {
        if fault_rate <= 0.0 || horizon == 0 {
            return FaultPlan::none();
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0063_6861_6f73_u64);
        let mean_len = 2.0;
        let mean_gap = (mean_len / fault_rate.min(1.0)).max(1.0);
        let mut windows = Vec::new();
        let mut t = 0u64;
        loop {
            let gap = rng.gen_range(0.5..1.5) * mean_gap;
            t = t.saturating_add(gap.max(1.0) as u64);
            if t >= horizon {
                break;
            }
            let len = rng.gen_range(1..4u64);
            let kind = match rng.gen_range(0..10u32) {
                0..=4 => FaultKind::StepError,
                5 | 6 => FaultKind::Panic,
                7 | 8 => FaultKind::RestoreCorruption,
                _ => FaultKind::LatencySpike,
            };
            windows.push(FaultWindow {
                start: t,
                len,
                kind,
            });
            t += len;
        }
        FaultPlan { windows }
    }

    /// A plan holding exactly `windows` (for handcrafted tests).
    pub fn from_windows(mut windows: Vec<FaultWindow>) -> Self {
        windows.sort_by_key(|w| w.start);
        FaultPlan { windows }
    }

    /// The scheduled windows, in start order.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// The window in force at `clock`, if any.
    pub fn active_at(&self, clock: u64) -> Option<&FaultWindow> {
        // Windows are few and sorted; a linear scan is cheaper than
        // bookkeeping and trivially correct.
        self.windows.iter().find(|w| w.covers(clock))
    }

    /// Whether no window is scheduled.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

/// A fault-injecting wrapper around any [`DecodeBackend`], driven by a
/// [`FaultPlan`]. Outside its windows (and always with an empty plan)
/// it is a transparent delegate — same outputs, bit for bit.
///
/// Interior mutability: the trait surface is `&self` and the engine
/// serializes all backend calls, so plain [`Cell`]s carry the clock and
/// counters (the backend is `Send`, not `Sync`, like every other
/// backend in the crate).
pub struct ChaosBackend<'m> {
    inner: Box<dyn DecodeBackend + 'm>,
    plan: FaultPlan,
    /// Engine clock, delivered via [`DecodeBackend::on_step`].
    clock: Cell<u64>,
    /// Set when a restore was poisoned; the next advance faults.
    corrupt_pending: Cell<bool>,
    injected: Cell<u64>,
    spikes: Cell<u64>,
}

impl std::fmt::Debug for ChaosBackend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosBackend")
            .field("inner", &self.inner.name())
            .field("windows", &self.plan.windows.len())
            .field("injected", &self.injected.get())
            .finish()
    }
}

impl<'m> ChaosBackend<'m> {
    /// Wraps `inner`, firing `plan` against it.
    pub fn new(inner: Box<dyn DecodeBackend + 'm>, plan: FaultPlan) -> Self {
        ChaosBackend {
            inner,
            plan,
            clock: Cell::new(0),
            corrupt_pending: Cell::new(false),
            injected: Cell::new(0),
            spikes: Cell::new(0),
        }
    }

    /// The schedule this wrapper fires.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Faults actually injected so far (windows that found no work
    /// inject nothing — an idle backend cannot fail a step).
    pub fn injected(&self) -> u64 {
        self.injected.get()
    }

    /// Latency spikes recorded so far.
    pub fn latency_spikes(&self) -> u64 {
        self.spikes.get()
    }

    fn fault(&self, message: String) -> ServeError {
        self.injected.set(self.injected.get() + 1);
        ServeError::BackendFault {
            model: self.inner.name().to_string(),
            message,
        }
    }
}

impl DecodeBackend for ChaosBackend<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn config(&self) -> &MambaConfig {
        self.inner.config()
    }

    fn new_state(&self) -> ModelState {
        self.inner.new_state()
    }

    fn reset_state(&self, state: &mut ModelState) {
        self.inner.reset_state(state);
    }

    fn save_state(&self, state: &ModelState) -> PausedState {
        self.inner.save_state(state)
    }

    fn restore_state(&self, paused: &PausedState, into: &mut ModelState) {
        self.inner.restore_state(paused, into);
        if matches!(
            self.plan.active_at(self.clock.get()),
            Some(w) if w.kind == FaultKind::RestoreCorruption
        ) {
            self.corrupt_pending.set(true);
        }
    }

    fn advance_batch_indexed(
        &self,
        items: &[(usize, &[u32])],
        states: &mut [ModelState],
    ) -> Result<Vec<(usize, Vec<f32>)>, ServeError> {
        let clock = self.clock.get();
        if self.corrupt_pending.replace(false) {
            return Err(self.fault(format!(
                "restored state failed its integrity check at step {clock}"
            )));
        }
        if let Some(w) = self.plan.active_at(clock) {
            match w.kind {
                FaultKind::StepError => {
                    return Err(self.fault(format!("injected step error at step {clock}")));
                }
                FaultKind::Panic => {
                    self.injected.set(self.injected.get() + 1);
                    panic!("chaos: injected backend panic at step {clock}");
                }
                FaultKind::LatencySpike => {
                    self.spikes.set(self.spikes.get() + 1);
                }
                FaultKind::RestoreCorruption => {}
            }
        }
        self.inner.advance_batch_indexed(items, states)
    }

    fn attach_pool(&mut self, pool: &std::sync::Arc<lightmamba_pool::WorkerPool>) {
        self.inner.attach_pool(pool);
    }

    fn pool_threads(&self) -> usize {
        self.inner.pool_threads()
    }

    fn on_step(&self, clock: u64) {
        self.clock.set(clock);
        self.inner.on_step(clock);
    }

    fn reset_after_fault(&self) {
        // An injected panic may have unwound through the wrapped
        // backend mid-step: forward the recovery so it rebuilds its
        // workspaces, and drop any pending poison with it.
        self.corrupt_pending.set(false);
        self.inner.reset_after_fault();
    }

    fn cost_profile(&self) -> CostProfile {
        self.inner.cost_profile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FpBackend;
    use lightmamba_model::MambaModel;

    fn tiny_model() -> MambaModel {
        MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(9)).unwrap()
    }

    #[test]
    fn seeded_plans_are_reproducible_and_rate_scaled() {
        let a = FaultPlan::seeded(7, 400, 0.05);
        let b = FaultPlan::seeded(7, 400, 0.05);
        assert!(!a.is_empty());
        assert_eq!(a.windows().len(), b.windows().len());
        for (x, y) in a.windows().iter().zip(b.windows()) {
            assert_eq!((x.start, x.len, x.kind), (y.start, y.len, y.kind));
        }
        // A different seed reshuffles the schedule.
        let c = FaultPlan::seeded(8, 400, 0.05);
        assert!(
            a.windows().len() != c.windows().len()
                || a.windows()
                    .iter()
                    .zip(c.windows())
                    .any(|(x, y)| x.start != y.start)
        );
        // Higher rates schedule more windows; zero rate schedules none.
        let dense = FaultPlan::seeded(7, 400, 0.5);
        assert!(dense.windows().len() > a.windows().len());
        assert!(FaultPlan::seeded(7, 400, 0.0).is_empty());
    }

    #[test]
    fn zero_rate_wrapper_is_transparent() {
        let model = tiny_model();
        let plain = FpBackend::new(&model);
        let wrapped = ChaosBackend::new(Box::new(FpBackend::new(&model)), FaultPlan::none());

        let mut s1 = vec![plain.new_state()];
        let mut s2 = vec![wrapped.new_state()];
        let toks: &[u32] = &[1, 2, 3];
        let r1 = plain.advance_batch_indexed(&[(0, toks)], &mut s1).unwrap();
        wrapped.on_step(0);
        let r2 = wrapped
            .advance_batch_indexed(&[(0, toks)], &mut s2)
            .unwrap();
        assert_eq!(r1, r2);
        assert_eq!(wrapped.injected(), 0);
    }

    #[test]
    fn step_error_window_fires_only_inside_the_window() {
        let model = tiny_model();
        let plan = FaultPlan::from_windows(vec![FaultWindow {
            start: 5,
            len: 2,
            kind: FaultKind::StepError,
        }]);
        let b = ChaosBackend::new(Box::new(FpBackend::new(&model)), plan);
        let mut states = vec![b.new_state()];
        let toks: &[u32] = &[1];

        b.on_step(4);
        assert!(b.advance_batch_indexed(&[(0, toks)], &mut states).is_ok());
        b.on_step(5);
        let err = b
            .advance_batch_indexed(&[(0, toks)], &mut states)
            .unwrap_err();
        assert!(matches!(err, ServeError::BackendFault { ref model, .. } if model == "fp"));
        // Every entry point faults inside the window, not only the one
        // the engine calls: a one-token decode step goes the same way.
        let before = states.clone();
        let err = b
            .forward_step_batch_indexed(&[(0, 1)], &mut states)
            .unwrap_err();
        assert!(matches!(err, ServeError::BackendFault { .. }), "{err:?}");
        assert!(b.prefill_batch(&[toks], &mut states).is_err());
        assert_eq!(states, before, "a faulted step advances nothing");
        b.on_step(7);
        assert!(b.advance_batch_indexed(&[(0, toks)], &mut states).is_ok());
        assert!(b.forward_step_batch_indexed(&[(0, 1)], &mut states).is_ok());
        assert_eq!(b.injected(), 3);
    }

    #[test]
    fn panic_window_panics_and_restore_corruption_poisons_next_advance() {
        let model = tiny_model();
        let plan = FaultPlan::from_windows(vec![
            FaultWindow {
                start: 2,
                len: 1,
                kind: FaultKind::Panic,
            },
            FaultWindow {
                start: 10,
                len: 1,
                kind: FaultKind::RestoreCorruption,
            },
        ]);
        let b = ChaosBackend::new(Box::new(FpBackend::new(&model)), plan);
        let mut states = vec![b.new_state()];
        let toks: &[u32] = &[1];

        b.on_step(2);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = b.advance_batch_indexed(&[(0, toks)], &mut states);
        }));
        assert!(panicked.is_err());
        b.reset_after_fault();

        // A restore inside the corruption window poisons the next
        // advance only.
        b.on_step(10);
        let saved = b.save_state(&states[0]);
        let mut into = b.new_state();
        b.restore_state(&saved, &mut into);
        b.on_step(11);
        let err = b
            .advance_batch_indexed(&[(0, toks)], &mut states)
            .unwrap_err();
        assert!(matches!(err, ServeError::BackendFault { .. }));
        assert!(b.advance_batch_indexed(&[(0, toks)], &mut states).is_ok());

        // A restore outside any window is clean.
        b.on_step(20);
        b.restore_state(&saved, &mut into);
        assert!(b.advance_batch_indexed(&[(0, toks)], &mut states).is_ok());
    }
}
