//! Fault-domain health tracking and overload shedding for the serving
//! engine.
//!
//! Each registered backend is one *fault domain*: an error return or a
//! caught panic from its batched advance fails only the requests that
//! domain was serving, never the engine ([`crate::engine::ServeEngine`]
//! wraps every per-model sub-batch in a panic catch). This module holds
//! the policy around that containment:
//!
//! * [`BackendHealth`] / `HealthTracker` — the per-model quarantine
//!   state machine. A fault moves a backend `Healthy →
//!   Quarantined { until, level }`; the quarantine window is a
//!   deterministic exponential backoff in engine steps
//!   (`BACKOFF_BASE << level`, saturating at `BACKOFF_MAX`: 4, 8, …,
//!   64 steps). When the window elapses the backend opens *half-way*:
//!   exactly one canary request is admitted to probe it. A clean
//!   advance readmits the backend (`HalfOpen → Healthy`); another fault
//!   deepens the quarantine (`HalfOpen → Quarantined { level + 1 }`).
//!   Everything is keyed to the engine's virtual clock, so the whole
//!   machine is deterministic and replayable.
//! * [`ResilienceConfig`] — the engine's fault-tolerance knobs:
//!   quarantine on/off and the bounded admission queue. The default
//!   keeps fault-free runs bit-identical to an engine without the fault
//!   layer: no queue bound, quarantine armed but inert until a fault.

use crate::registry::ModelId;

/// Health of one registered backend (one fault domain) as tracked by
/// the engine's quarantine machine. Read it via
/// [`crate::engine::ServeEngine::backend_health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendHealth {
    /// Serving normally; admission is unrestricted.
    Healthy,
    /// Faulted; no admission until the backoff window elapses.
    Quarantined {
        /// First engine step at which the backend may open half-way.
        until: u64,
        /// Consecutive-fault depth (drives the exponential backoff).
        level: u32,
    },
    /// Backoff elapsed; exactly one canary request probes the backend.
    /// A clean advance readmits it, another fault deepens quarantine.
    HalfOpen {
        /// The level the backend would return to on another fault + 1.
        level: u32,
    },
}

/// Fault-tolerance knobs of [`crate::engine::ServeEngine`], set via
/// [`crate::engine::ServeEngine::set_resilience`]. The default is
/// *inert on the fault-free path*: quarantine arms only after a fault
/// and the queue is unbounded — so an engine with the default config
/// produces bit-identical outputs to one predating the fault layer.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceConfig {
    /// Whether a faulting backend is quarantined. With `false` the
    /// engine still *contains* faults (the domain's residents retire as
    /// [`crate::request::FinishReason::Failed`]) but keeps feeding the
    /// faulty backend — the no-mitigation baseline the chaos study
    /// compares against.
    pub quarantine: bool,
    /// Bounded admission queue: an arrival finding this many requests
    /// already waiting is shed with
    /// [`crate::request::FinishReason::Rejected`] and a
    /// [`crate::request::Completion::retry_after_steps`] hint. `None`
    /// (the default) never sheds.
    pub queue_limit: Option<usize>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            quarantine: true,
            queue_limit: None,
        }
    }
}

impl ResilienceConfig {
    /// The no-mitigation baseline: faults are still isolated per domain
    /// but nothing is quarantined or shed. The chaos study runs the
    /// same fault schedule under this and under the default to show
    /// quarantine + shedding strictly improve goodput.
    pub fn none() -> Self {
        ResilienceConfig {
            quarantine: false,
            queue_limit: None,
        }
    }
}

/// Quarantine window of the first fault, in engine steps; each
/// consecutive fault doubles it.
pub(crate) const BACKOFF_BASE: u64 = 4;
/// Upper bound on the quarantine window.
pub(crate) const BACKOFF_MAX: u64 = 64;

/// Per-model quarantine state machine (engine-internal; exposed
/// read-only through [`crate::engine::ServeEngine::backend_health`]).
#[derive(Debug)]
pub(crate) struct HealthTracker {
    health: Vec<BackendHealth>,
    /// Fast path: when no backend is unhealthy the engine skips the
    /// per-step mask refresh and admission gating entirely.
    unhealthy: usize,
}

impl HealthTracker {
    pub(crate) fn new(models: usize) -> Self {
        HealthTracker {
            health: vec![BackendHealth::Healthy; models],
            unhealthy: 0,
        }
    }

    pub(crate) fn get(&self, mid: ModelId) -> BackendHealth {
        self.health[mid]
    }

    pub(crate) fn any_unhealthy(&self) -> bool {
        self.unhealthy > 0
    }

    /// `BACKOFF_BASE << level`, saturating at `BACKOFF_MAX` for every
    /// level. The shift is clamped first: past `log2(BACKOFF_MAX)` the
    /// window is already at the cap, and a clamped shift cannot push
    /// bits off the top (an unclamped `4 << 62` wraps to 0).
    fn backoff(level: u32) -> u64 {
        (BACKOFF_BASE << level.min(BACKOFF_MAX.ilog2())).min(BACKOFF_MAX)
    }

    /// Records a fault on `mid` at `clock`: a healthy or half-open
    /// backend enters (or deepens) quarantine. Returns the level
    /// entered.
    pub(crate) fn on_fault(&mut self, mid: ModelId, clock: u64) -> u32 {
        let level = match self.health[mid] {
            BackendHealth::Healthy => {
                self.unhealthy += 1;
                0
            }
            BackendHealth::HalfOpen { level } => level + 1,
            // A fault while already quarantined (the canary of a prior
            // half-open window raced the transition) deepens it too.
            BackendHealth::Quarantined { level, .. } => level + 1,
        };
        self.health[mid] = BackendHealth::Quarantined {
            until: clock + Self::backoff(level),
            level,
        };
        level
    }

    /// Advances quarantine windows at `clock`: every quarantined
    /// backend whose backoff elapsed opens half-way. Calls `opened` for
    /// each transition (allocation-free).
    pub(crate) fn tick(&mut self, clock: u64, mut opened: impl FnMut(ModelId, u32)) {
        if self.unhealthy == 0 {
            return;
        }
        for (mid, h) in self.health.iter_mut().enumerate() {
            if let BackendHealth::Quarantined { until, level } = *h {
                if clock >= until {
                    *h = BackendHealth::HalfOpen { level };
                    opened(mid, level);
                }
            }
        }
    }

    /// Records a clean advance on `mid`: a half-open backend is
    /// readmitted. Returns `true` on that recovery transition.
    pub(crate) fn on_clean_advance(&mut self, mid: ModelId) -> bool {
        if let BackendHealth::HalfOpen { .. } = self.health[mid] {
            self.health[mid] = BackendHealth::Healthy;
            self.unhealthy -= 1;
            true
        } else {
            false
        }
    }

    /// Writes the admission mask into `mask` (`true` = the model
    /// accepts no new admissions). Half-open backends read `false`: the
    /// policy should still offer picks so the engine can admit the one
    /// canary (the engine enforces that cap).
    pub(crate) fn fill_mask(&self, mask: &mut [bool]) {
        for (m, h) in mask.iter_mut().zip(&self.health) {
            *m = matches!(h, BackendHealth::Quarantined { .. });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_enters_quarantine_with_exponential_backoff() {
        let mut t = HealthTracker::new(2);
        assert_eq!(t.get(0), BackendHealth::Healthy);
        assert!(!t.any_unhealthy());

        let level = t.on_fault(0, 10);
        assert_eq!(level, 0);
        assert_eq!(
            t.get(0),
            BackendHealth::Quarantined {
                until: 10 + BACKOFF_BASE,
                level: 0
            }
        );
        assert!(t.any_unhealthy());
        // The other model is untouched.
        assert_eq!(t.get(1), BackendHealth::Healthy);
    }

    #[test]
    fn half_open_fault_deepens_and_clean_advance_recovers() {
        let mut t = HealthTracker::new(1);
        t.on_fault(0, 0);

        // Before the window: no transition.
        let mut opened = Vec::new();
        t.tick(BACKOFF_BASE - 1, |m, l| opened.push((m, l)));
        assert!(opened.is_empty());

        // Window elapsed: half-open.
        t.tick(BACKOFF_BASE, |m, l| opened.push((m, l)));
        assert_eq!(opened, vec![(0, 0)]);
        assert!(matches!(t.get(0), BackendHealth::HalfOpen { level: 0 }));

        // The canary faults: quarantine deepens, backoff doubles.
        let level = t.on_fault(0, BACKOFF_BASE);
        assert_eq!(level, 1);
        assert_eq!(
            t.get(0),
            BackendHealth::Quarantined {
                until: BACKOFF_BASE + BACKOFF_BASE * 2,
                level: 1
            }
        );

        // Next window elapses, the canary survives: healthy again.
        t.tick(BACKOFF_BASE * 3, |_, _| {});
        assert!(t.on_clean_advance(0));
        assert_eq!(t.get(0), BackendHealth::Healthy);
        assert!(!t.any_unhealthy());
        // Clean advances while healthy are not "recoveries".
        assert!(!t.on_clean_advance(0));
    }

    #[test]
    fn backoff_is_capped_and_never_zero() {
        assert_eq!(HealthTracker::backoff(0), 4);
        assert_eq!(HealthTracker::backoff(3), 32);
        assert_eq!(HealthTracker::backoff(4), 64);
        assert_eq!(HealthTracker::backoff(60), 64);
        // Depths whose shift pushes bits off the top saturate at the
        // cap instead of wrapping to a 1-step window.
        for level in [61, 62, 63, 64, u32::MAX] {
            assert_eq!(HealthTracker::backoff(level), 64, "level {level}");
        }
    }

    #[test]
    fn admission_mask_blocks_quarantined_but_not_half_open() {
        let mut t = HealthTracker::new(3);
        t.on_fault(1, 0);
        t.on_fault(2, 0);
        t.tick(BACKOFF_BASE, |_, _| {});
        t.on_fault(2, BACKOFF_BASE); // 2 back under quarantine
        t.tick(BACKOFF_BASE, |_, _| {}); // re-open 1? already open
        let mut mask = [false; 3];
        t.fill_mask(&mut mask);
        assert_eq!(mask, [false, false, true]);
    }
}
