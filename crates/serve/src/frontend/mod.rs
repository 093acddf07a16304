//! The async streaming serving frontend: the boundary between clients
//! and the engine's virtual-time loop.
//!
//! [`run_frontend`] moves a [`ServeEngine`] onto a dedicated thread and
//! hands the caller a cloneable [`FrontendHandle`]. Each
//! [`FrontendHandle::submit`] enqueues a [`crate::request::GenRequest`]
//! over the intake channel and returns a [`TokenStream`] — a bounded
//! per-request channel delivering [`StreamEvent`]s as the engine steps:
//! `Queued` at intake, `Started` at admission, one `Token` per sampled
//! token, then exactly one terminal `Done` / `Cancelled` / `Expired` /
//! `Failed` / `Rejected`.
//! This mirrors TGI-style server-sent token streaming, with the engine
//! thread standing in for the HTTP task.
//!
//! Cancellation is disconnect-shaped: dropping a [`TokenStream`] (or
//! calling [`TokenStream::cancel`]) sends a cancel over the intake, and
//! the engine evicts the request at the top of its next step — a
//! cancelled resident frees its slot within one step and the capacity
//! is re-offered to admission in that same step. The work already spent
//! is surfaced in [`crate::metrics::ServeReport`] (`cancellations`,
//! `wasted_token_advances`, `reclaimed_slot_steps`) and priced by the
//! cost model as `wasted_work_s`.
//!
//! Multi-turn chat rides the same machinery: a request tagged with
//! [`crate::request::GenRequest::with_session`] retires into a
//! [`crate::engine::SessionSnapshot`] that the frontend parks in a
//! capacity-bounded
//! LRU [`SessionStore`]. The session's next turn consumes the snapshot
//! ([`ServeEngine::submit_with_state`]): one fixed-size state restore —
//! priced as a single state-transfer DMA — replaces re-prefilling the
//! whole conversation, which is the serving payoff of Mamba2's
//! constant-size state (no KV cache to rebuild or spill).
//!
//! Backpressure: each stream's channel holds
//! [`FrontendConfig::stream_capacity`] undelivered events, and the
//! engine thread *blocks* on a full stream rather than dropping tokens.
//! A client that neither reads nor drops its stream therefore stalls
//! the whole engine — drop the stream to disconnect cleanly.

mod session;
mod stream;

pub use session::SessionStore;
pub use stream::{FrontendHandle, StreamEvent, TokenStream};

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, SyncSender, TryRecvError};

use crate::engine::{ServeEngine, StepEvent};
use crate::error::ServeError;
use crate::metrics::ServeReport;
use crate::observe::{EngineObs, ObsConfig};
use crate::request::{Completion, FinishReason, RequestId};
use crate::scheduler::Policy;
use stream::ClientMsg;

/// Limits of one [`run_frontend`] call.
#[derive(Debug, Clone, Copy)]
pub struct FrontendConfig {
    /// Undelivered events each [`TokenStream`] buffers before the
    /// engine thread blocks on it (must be at least 1).
    pub stream_capacity: usize,
    /// Most recently used session states the [`SessionStore`] parks
    /// between turns; older sessions fall back to re-prefilling.
    pub session_capacity: usize,
    /// When set, the engine thread runs with observability enabled
    /// ([`ServeEngine::enable_obs`]) and the finished [`EngineObs`] —
    /// metrics, spans, flight recorder — comes back in
    /// [`FrontendRun::obs`].
    pub obs: Option<ObsConfig>,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            stream_capacity: 16,
            session_capacity: 64,
            obs: None,
        }
    }
}

/// What a finished [`run_frontend`] call observed, alongside the
/// client closure's own return value.
#[derive(Debug)]
pub struct FrontendRun {
    /// The engine's run report (cancellations, wasted/reclaimed work,
    /// latency percentiles — everything a closed-loop run reports).
    pub report: ServeReport,
    /// Every completion record, including cancelled and expired ones.
    pub completions: Vec<Completion>,
    /// Session states still parked when the frontend shut down.
    pub sessions_stored: usize,
    /// Turns that resumed a parked session state (one state-transfer
    /// DMA each instead of a full-history re-prefill).
    pub session_resumes: u64,
    /// Session-tagged turns whose state was not parked (first turns,
    /// and sessions evicted by LRU pressure) — served from an empty
    /// state.
    pub session_misses: u64,
    /// Sessions the store evicted under LRU pressure.
    pub session_evictions: u64,
    /// Admissions that restored a cached shared-prefix state (see
    /// [`crate::prefix::PrefixCache`]); 0 with the cache off.
    pub prefix_hits: u64,
    /// Shared-prefix admissions that found no cached state; 0 with the
    /// cache off.
    pub prefix_misses: u64,
    /// The observability state accumulated by the engine thread, when
    /// [`FrontendConfig::obs`] was set (or the caller enabled it on the
    /// engine before handing it over): render with
    /// [`EngineObs::exposition`] / [`EngineObs::chrome_trace`] /
    /// [`EngineObs::flight_dump`].
    pub obs: Option<Box<EngineObs>>,
}

/// Runs `engine` on a dedicated thread while `client` drives it
/// through a [`FrontendHandle`] from this one. Returns once `client`
/// has returned *and* the engine has drained: the intake closes when
/// the last handle drops (the `client` closure owns the first; clones
/// count), after which the engine finishes its in-flight work and
/// reports.
///
/// The engine thread stamps each request's arrival at the step it
/// picks the submission up, steps only while there is work (idle waits
/// block on the intake instead of spinning), and stops at the engine's
/// `max_steps` budget even if streams are still open — their readers
/// then see a synthesized terminal [`StreamEvent::Failed`] (with
/// `step: None`) once the engine thread is gone.
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] for a zero `stream_capacity`.
/// Backend faults are not errors here: the engine contains them per
/// model and the affected streams end in [`StreamEvent::Failed`]; bad
/// submissions are refused by [`FrontendHandle::submit`] before they
/// reach the engine thread. Panics in `client` propagate after the
/// engine thread is shut down; panics on the engine thread propagate
/// after `client` returns.
///
/// # Example
///
/// ```
/// use lightmamba_model::{MambaConfig, MambaModel};
/// use lightmamba_serve::engine::{EngineConfig, ServeEngine};
/// use lightmamba_serve::frontend::{run_frontend, FrontendConfig, StreamEvent};
/// use lightmamba_serve::request::GenRequest;
/// use lightmamba_serve::scheduler::Fifo;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), lightmamba_serve::ServeError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let model = MambaModel::synthetic(MambaConfig::tiny(), &mut rng)
///     .map_err(lightmamba_serve::ServeError::from)?;
/// let engine = ServeEngine::new(
///     &model,
///     EngineConfig { slots: 2, max_steps: 10_000, prefill_chunk: 4, threads: 1, ..Default::default() },
/// )?;
/// let (tokens, run) = run_frontend(
///     engine,
///     Box::new(Fifo),
///     FrontendConfig::default(),
///     |handle| {
///         let mut stream = handle.submit(GenRequest::greedy(0, vec![1, 2, 3], 4))?;
///         let mut tokens = Vec::new();
///         while let Some(ev) = stream.recv() {
///             if let StreamEvent::Token { token, .. } = ev {
///                 tokens.push(token);
///             }
///         }
///         Ok::<_, lightmamba_serve::ServeError>(tokens)
///     },
/// )?;
/// assert_eq!(tokens?.len(), 4);
/// assert_eq!(run.report.completed, 1);
/// # Ok(())
/// # }
/// ```
pub fn run_frontend<R>(
    mut engine: ServeEngine<'_>,
    mut policy: Box<dyn Policy>,
    cfg: FrontendConfig,
    client: impl FnOnce(FrontendHandle) -> R,
) -> Result<(R, FrontendRun), ServeError> {
    if cfg.stream_capacity == 0 {
        return Err(ServeError::InvalidConfig(
            "stream_capacity must be at least 1".into(),
        ));
    }
    let (intake_tx, intake_rx) = channel::<ClientMsg>();
    let handle = FrontendHandle::new(
        intake_tx,
        engine.registry().vocab_sizes(),
        cfg.stream_capacity,
    );
    engine.enable_events();
    if let Some(obs_cfg) = cfg.obs {
        engine.enable_obs(obs_cfg);
    }

    std::thread::scope(|scope| {
        let engine_thread =
            scope.spawn(move || engine_loop(&mut engine, policy.as_mut(), cfg, &intake_rx));
        let client_result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| client(handle)));
        // The client closure owned the last intake sender (or its
        // panic dropped it), so the engine thread drains and exits.
        let run = match engine_thread.join() {
            Ok(run) => run,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        match client_result {
            Ok(r) => Ok((r, run?)),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// What the engine thread keeps between client messages.
struct Intake {
    store: SessionStore,
    streams: HashMap<RequestId, SyncSender<StreamEvent>>,
    session_resumes: u64,
    session_misses: u64,
}

/// The engine thread: drain intake, step, fan events out to streams.
fn engine_loop(
    engine: &mut ServeEngine<'_>,
    policy: &mut dyn Policy,
    cfg: FrontendConfig,
    intake: &Receiver<ClientMsg>,
) -> Result<FrontendRun, ServeError> {
    let max_steps = engine.config().max_steps;
    let mut st = Intake {
        store: SessionStore::new(cfg.session_capacity),
        streams: HashMap::new(),
        session_resumes: 0,
        session_misses: 0,
    };
    let mut delivered = 0usize; // cursor into engine.completions()
    let mut closed = false;

    loop {
        // Drain every queued client message without blocking…
        loop {
            match intake.try_recv() {
                Ok(msg) => st.handle(engine, msg)?,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    closed = true;
                    break;
                }
            }
        }
        // …and when idle, block on the intake instead of spinning:
        // virtual time only advances while requests are in flight.
        if !engine.has_work() {
            if closed {
                break;
            }
            match intake.recv() {
                Ok(msg) => {
                    st.handle(engine, msg)?;
                    continue; // drain any burst before stepping
                }
                Err(_) => break,
            }
        }
        if engine.clock() >= max_steps {
            break;
        }

        engine.step(policy)?;

        for ev in engine.take_events() {
            let (id, out) = match ev {
                StepEvent::Started { id, step } => (id, StreamEvent::Started { step }),
                StepEvent::Token { id, token, step } => (id, StreamEvent::Token { token, step }),
            };
            if let Some(tx) = st.streams.get(&id) {
                // A full stream blocks here (documented backpressure);
                // a closed one means the client disconnected between
                // our send and its Drop-cancel reaching the intake.
                if tx.send(out).is_err() {
                    st.streams.remove(&id);
                    engine.cancel(id);
                }
            }
        }
        let completions = engine.completions();
        for c in &completions[delivered..] {
            let out = match c.finish {
                FinishReason::Cancelled => StreamEvent::Cancelled {
                    step: c.finished_step,
                },
                FinishReason::DeadlineExceeded => StreamEvent::Expired {
                    step: c.finished_step,
                },
                FinishReason::Failed => StreamEvent::Failed {
                    step: Some(c.finished_step),
                },
                FinishReason::Rejected => StreamEvent::Rejected {
                    step: c.finished_step,
                    retry_after_steps: c.retry_after_steps.unwrap_or(1),
                },
                _ => StreamEvent::Done(Box::new(c.clone())),
            };
            if let Some(tx) = st.streams.remove(&c.id) {
                let _ = tx.send(out);
            }
        }
        delivered = completions.len();
        for (sid, snap) in engine.take_session_snapshots() {
            st.store.insert(sid, snap);
        }
    }

    let report = engine.report(policy);
    let (prefix_hits, prefix_misses) = (report.prefix_hits, report.prefix_misses);
    Ok(FrontendRun {
        report,
        completions: engine.completions().to_vec(),
        sessions_stored: st.store.len(),
        session_resumes: st.session_resumes,
        session_misses: st.session_misses,
        session_evictions: st.store.evictions(),
        prefix_hits,
        prefix_misses,
        obs: engine.take_obs(),
    })
}

impl Intake {
    /// Applies one client message: stamp, resume-or-submit, or cancel.
    fn handle(&mut self, engine: &mut ServeEngine<'_>, msg: ClientMsg) -> Result<(), ServeError> {
        match msg {
            ClientMsg::Submit { mut req, events } => {
                req.arrival_step = engine.clock();
                let id = req.id;
                // The stream is freshly created and capacity >= 1, so
                // the Queued event can never block.
                let _ = events.send(StreamEvent::Queued {
                    step: req.arrival_step,
                });
                let parked = req.session.and_then(|sid| self.store.take(sid));
                // A parked state the turn's model cannot take (its
                // pending token is outside that model's vocabulary) is
                // a miss like any other: the turn re-prefills.
                let resumed =
                    parked.is_some_and(|snap| engine.submit_with_state(req.clone(), snap).is_ok());
                if resumed {
                    self.session_resumes += 1;
                } else {
                    self.session_misses += u64::from(req.session.is_some());
                    engine.submit(vec![req])?;
                }
                self.streams.insert(id, events);
            }
            ClientMsg::Cancel(id) => engine.cancel(id),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, ServeEngine};
    use crate::request::GenRequest;
    use crate::scheduler::Fifo;
    use lightmamba_model::{MambaConfig, MambaModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model() -> MambaModel {
        MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(9)).unwrap()
    }

    fn engine(model: &MambaModel, slots: usize) -> ServeEngine<'_> {
        ServeEngine::new(
            model,
            EngineConfig {
                slots,
                max_steps: 50_000,
                prefill_chunk: 4,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn a_bad_token_submission_is_refused_while_a_concurrent_stream_completes() {
        // The handle applies the engine's own intake validation, so an
        // out-of-vocabulary prompt never reaches the engine thread —
        // where it would fault the backend under every other stream.
        let model = tiny_model();
        let vocab = model.config().vocab_size as u32;
        let ((bad, done), run) = run_frontend(
            engine(&model, 2),
            Box::new(Fifo),
            FrontendConfig::default(),
            |handle| {
                let good = handle
                    .submit(GenRequest::greedy(0, vec![1, 2, 3], 6))
                    .unwrap();
                let bad = handle
                    .submit(GenRequest::greedy(0, vec![1, vocab + 5], 6))
                    .map(|stream| stream.id());
                (bad, good.wait())
            },
        )
        .unwrap();
        assert!(matches!(bad, Err(ServeError::InvalidConfig(_))), "{bad:?}");
        let done = done.expect("the good stream ends in Done");
        assert_eq!(done.tokens.len(), 6);
        assert_eq!(run.report.completed, 1);
        assert_eq!((run.report.failed, run.report.backend_faults), (0, 0));
        assert_eq!(run.completions.len(), 1, "the refusal records nothing");
    }

    #[test]
    fn streamed_tokens_match_the_completion_record() {
        let model = tiny_model();
        let (client, run) = run_frontend(
            engine(&model, 2),
            Box::new(Fifo),
            FrontendConfig::default(),
            |handle| {
                let mut stream = handle
                    .submit(GenRequest::greedy(0, vec![1, 2, 3], 6))
                    .unwrap();
                let mut events = Vec::new();
                let mut tokens = Vec::new();
                let mut done = None;
                while let Some(ev) = stream.recv() {
                    match &ev {
                        StreamEvent::Token { token, .. } => tokens.push(*token),
                        StreamEvent::Done(c) => done = Some((**c).clone()),
                        _ => {}
                    }
                    events.push(ev);
                }
                assert!(stream.recv().is_none(), "stream stays closed");
                (events, tokens, done.expect("request ran to completion"))
            },
        )
        .unwrap();
        let (events, tokens, done) = client;
        // Queued, Started, then every token, then Done — in order.
        assert!(matches!(events[0], StreamEvent::Queued { .. }));
        assert!(matches!(events[1], StreamEvent::Started { .. }));
        assert!(events.last().unwrap().is_terminal());
        assert_eq!(tokens, done.tokens, "streamed tokens = recorded tokens");
        assert_eq!(run.report.completed, 1);
        assert_eq!(run.report.cancellations, 0);
        // The frontend-observed completion matches the engine record.
        assert_eq!(run.completions.len(), 1);
        assert_eq!(run.completions[0].tokens, done.tokens);
    }

    #[test]
    fn concurrent_clients_each_get_their_own_stream() {
        let model = tiny_model();
        let (totals, run) = run_frontend(
            engine(&model, 4),
            Box::new(Fifo),
            FrontendConfig::default(),
            |handle| {
                let workers: Vec<_> = (0..6u32)
                    .map(|i| {
                        let h = handle.clone();
                        std::thread::spawn(move || {
                            let req =
                                GenRequest::greedy(0, vec![i + 1, i + 2], 3 + (i as usize % 3));
                            let stream = h.submit(req).unwrap();
                            stream.wait().expect("completes")
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().unwrap())
                    .collect::<Vec<_>>()
            },
        )
        .unwrap();
        assert_eq!(totals.len(), 6);
        assert_eq!(run.report.completed, 6);
        // Ids were assigned uniquely across racing clients.
        let mut ids: Vec<_> = totals.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 6);
    }

    #[test]
    fn dropping_a_stream_cancels_and_frees_the_slot() {
        let model = tiny_model();
        let (kept, run) = run_frontend(
            engine(&model, 1),
            Box::new(Fifo),
            FrontendConfig::default(),
            |handle| {
                // The hog holds the only slot; drop it after its first
                // token, then a second request must still get served.
                let mut hog = handle
                    .submit(GenRequest::greedy(0, vec![1, 2], 400))
                    .unwrap();
                loop {
                    match hog.recv() {
                        Some(StreamEvent::Token { .. }) => break,
                        Some(_) => continue,
                        None => panic!("hog must stream at least one token"),
                    }
                }
                drop(hog);
                let next = handle.submit(GenRequest::greedy(0, vec![3, 4], 4)).unwrap();
                next.wait().expect("slot was reclaimed")
            },
        )
        .unwrap();
        assert_eq!(kept.tokens.len(), 4);
        assert_eq!(run.report.cancellations, 1);
        assert!(run.report.wasted_token_advances > 0);
        assert!(run.report.reclaimed_slot_steps > 0);
        assert_eq!(run.report.completed, 1, "only the survivor finished");
        // The hog's record is present and marked cancelled.
        assert!(run
            .completions
            .iter()
            .any(|c| c.finish == FinishReason::Cancelled));
    }

    #[test]
    fn explicit_cancel_still_delivers_a_terminal_event() {
        let model = tiny_model();
        let (saw_cancelled, run) = run_frontend(
            engine(&model, 1),
            Box::new(Fifo),
            FrontendConfig::default(),
            |handle| {
                let mut stream = handle
                    .submit(GenRequest::greedy(0, vec![1, 2], 400))
                    .unwrap();
                let mut cancelled = false;
                while let Some(ev) = stream.recv() {
                    if matches!(ev, StreamEvent::Token { .. }) && !cancelled {
                        stream.cancel();
                        cancelled = true;
                    }
                    if matches!(ev, StreamEvent::Cancelled { .. }) {
                        return true;
                    }
                }
                false
            },
        )
        .unwrap();
        assert!(saw_cancelled, "cancel must surface as a terminal event");
        assert_eq!(run.report.cancellations, 1);
    }

    #[test]
    fn sessions_resume_across_turns_through_the_store() {
        let model = tiny_model();
        let (turns, run) = run_frontend(
            engine(&model, 2),
            Box::new(Fifo),
            FrontendConfig::default(),
            |handle| {
                let mut turns = Vec::new();
                for turn in 0..3u32 {
                    let req = GenRequest::greedy(0, vec![10 + turn, 20 + turn], 4).with_session(42);
                    let stream = handle.submit(req).unwrap();
                    turns.push(stream.wait().expect("turn completes"));
                }
                turns
            },
        )
        .unwrap();
        assert_eq!(turns.len(), 3);
        assert_eq!(run.report.completed, 3);
        assert_eq!(run.session_misses, 1, "first turn starts cold");
        assert_eq!(run.session_resumes, 2, "later turns restore the state");
        assert_eq!(run.sessions_stored, 1, "the session is parked again");
        assert_eq!(run.session_evictions, 0);
        // Each resume is one state restore + one save in the trace.
        let moves: usize = run.report.trace.state_moves_per_step.iter().sum();
        assert_eq!(moves, 2 * 2 + 1, "3 saves + 2 restores");
    }

    #[test]
    fn a_session_state_the_next_model_cannot_take_is_a_miss_not_an_engine_error() {
        use crate::backend::FpBackend;
        use crate::registry::ModelRegistry;
        // Same state shape, smaller vocabulary: the first turn's pending
        // token is out of range for the second turn's model, so the
        // resume is refused at engine intake — which must cost the
        // session its shortcut, not every client its engine thread.
        let big = tiny_model();
        let narrow = MambaConfig {
            vocab_size: 64,
            ..MambaConfig::tiny()
        };
        let small = MambaModel::synthetic(narrow, &mut StdRng::seed_from_u64(4)).unwrap();
        let mut registry = ModelRegistry::new();
        registry
            .register("big", Box::new(FpBackend::new(&big)))
            .unwrap();
        registry
            .register("small", Box::new(FpBackend::new(&small)))
            .unwrap();
        let engine = ServeEngine::with_registry(registry, EngineConfig::default()).unwrap();
        let ((first, second), run) = run_frontend(
            engine,
            Box::new(Fifo),
            FrontendConfig::default(),
            |handle| {
                let turn = |model, prompt| {
                    let req = GenRequest::greedy(0, prompt, 3)
                        .on_model(model)
                        .with_session(5);
                    handle.submit(req).unwrap().wait()
                };
                (turn(0, vec![1, 2, 3]), turn(1, vec![4, 5]))
            },
        )
        .unwrap();
        let pending = *first.expect("turn 1 completes").tokens.last().unwrap();
        assert!(pending >= 64, "turn 1 must park an out-of-range token");
        assert_eq!(second.expect("turn 2 re-prefills").tokens.len(), 3);
        assert_eq!((run.session_resumes, run.session_misses), (0, 2));
        assert_eq!(run.report.completed, 2);
    }

    #[test]
    fn obs_enabled_via_config_rides_back_in_the_run() {
        let model = tiny_model();
        let cfg = FrontendConfig {
            obs: Some(crate::observe::ObsConfig::default()),
            ..FrontendConfig::default()
        };
        let (done, run) = run_frontend(engine(&model, 2), Box::new(Fifo), cfg, |handle| {
            let req = GenRequest::greedy(0, vec![5, 6, 7], 4).with_session(7);
            let stream = handle.submit(req).unwrap();
            stream.wait().expect("completes")
        })
        .unwrap();
        assert_eq!(done.tokens.len(), 4);
        let obs = run.obs.expect("obs was enabled through FrontendConfig");
        let text = obs.exposition();
        assert!(text.contains("engine_completions_total 1"), "{text}");
        assert!(text.contains("engine_session_parks_total 1"), "{text}");
        // The flight recorder saw every step and the full lifecycle.
        assert_eq!(obs.flight.steps().len(), run.report.trace.steps());
        let timeline = obs.flight.timeline(done.id);
        assert!(!timeline.is_empty(), "lifecycle timeline was recorded");
        // Phase spans were recorded under the step spans.
        assert!(obs.spans.spans().iter().any(|s| s.name == "step"));
        assert!(obs.spans.spans().iter().any(|s| s.name == "advance"));
        assert_eq!(obs.spans.open_depth(), 0, "all spans closed");
    }

    #[test]
    fn a_dead_engine_thread_fails_streams_instead_of_hanging() {
        use crate::scheduler::AdmissionCtx;
        use std::sync::{Arc, Mutex};

        // A policy that detonates on its first admission decision kills
        // the engine thread the hard way — nothing catches it.
        struct Bomb;
        impl crate::scheduler::Policy for Bomb {
            fn select(&mut self, _ctx: &AdmissionCtx<'_>) -> Vec<usize> {
                panic!("policy exploded")
            }
            fn name(&self) -> &'static str {
                "bomb"
            }
        }

        let model = tiny_model();
        let seen: Arc<Mutex<Vec<StreamEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let seen_by_client = Arc::clone(&seen);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_frontend(
                engine(&model, 1),
                Box::new(Bomb),
                FrontendConfig::default(),
                move |handle| {
                    let mut stream = handle.submit(GenRequest::greedy(0, vec![1, 2], 4)).unwrap();
                    while let Some(ev) = stream.recv() {
                        seen_by_client.lock().unwrap().push(ev);
                    }
                },
            )
        }));
        // The engine thread's panic propagates out of run_frontend…
        assert!(run.is_err(), "the engine panic must not be swallowed");
        // …but the client's reader observed an explicit terminal
        // failure first instead of hanging or ending silently.
        let seen = seen.lock().unwrap();
        assert!(matches!(seen[0], StreamEvent::Queued { .. }));
        assert!(
            matches!(seen.last(), Some(StreamEvent::Failed { step: None })),
            "{seen:?}"
        );
    }

    #[test]
    fn a_step_budget_stop_fails_open_streams() {
        let model = tiny_model();
        let eng = ServeEngine::new(
            &model,
            EngineConfig {
                slots: 1,
                max_steps: 3,
                prefill_chunk: 4,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let (events, run) =
            run_frontend(eng, Box::new(Fifo), FrontendConfig::default(), |handle| {
                // Far more tokens than three steps can produce: the engine
                // stops at its budget with the stream still open.
                let mut stream = handle
                    .submit(GenRequest::greedy(0, vec![1, 2], 400))
                    .unwrap();
                let mut events = Vec::new();
                while let Some(ev) = stream.recv() {
                    events.push(ev);
                }
                events
            })
            .unwrap();
        assert!(matches!(
            events.last(),
            Some(StreamEvent::Failed { step: None })
        ));
        assert_eq!(run.report.completed, 0);
    }

    #[test]
    fn a_backend_fault_surfaces_as_a_failed_stream_event() {
        use crate::backend::FpBackend;
        use crate::chaos::{ChaosBackend, FaultKind, FaultPlan, FaultWindow};
        use crate::registry::ModelRegistry;

        let model = tiny_model();
        let mut reg = ModelRegistry::new();
        let plan = FaultPlan::from_windows(vec![FaultWindow {
            start: 1,
            len: 2,
            kind: FaultKind::StepError,
        }]);
        reg.register(
            "flaky",
            Box::new(ChaosBackend::new(Box::new(FpBackend::new(&model)), plan)),
        )
        .unwrap();
        let eng = ServeEngine::with_registry(
            reg,
            EngineConfig {
                slots: 1,
                max_steps: 50_000,
                prefill_chunk: 4,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let (failed_at, run) =
            run_frontend(eng, Box::new(Fifo), FrontendConfig::default(), |handle| {
                let mut stream = handle.submit(GenRequest::greedy(0, vec![1, 2], 8)).unwrap();
                let mut failed_at = None;
                while let Some(ev) = stream.recv() {
                    if let StreamEvent::Failed { step } = ev {
                        failed_at = Some(step);
                    }
                }
                failed_at
            })
            .unwrap();
        // The fault was delivered as a real terminal event with the
        // engine step it happened at — not a synthesized death.
        assert_eq!(failed_at, Some(Some(1)));
        assert_eq!(run.report.failed, 1);
        assert!(run.report.backend_faults >= 1);
    }

    #[test]
    fn an_overloaded_frontend_rejects_with_a_retry_hint() {
        let model = tiny_model();
        let mut eng = engine(&model, 1);
        eng.set_resilience(crate::resilience::ResilienceConfig {
            queue_limit: Some(0),
            ..crate::resilience::ResilienceConfig::default()
        });
        let (event, run) = run_frontend(eng, Box::new(Fifo), FrontendConfig::default(), |handle| {
            let mut stream = handle.submit(GenRequest::greedy(0, vec![1, 2], 4)).unwrap();
            let mut terminal = None;
            while let Some(ev) = stream.recv() {
                if ev.is_terminal() {
                    terminal = Some(ev);
                }
            }
            terminal.expect("a shed request still gets its terminal event")
        })
        .unwrap();
        match event {
            StreamEvent::Rejected {
                retry_after_steps, ..
            } => assert!(retry_after_steps >= 1),
            other => panic!("expected Rejected, got {other:?}"),
        }
        assert_eq!(run.report.rejected, 1);
        assert_eq!(run.report.completed, 0);
    }

    #[test]
    fn zero_stream_capacity_is_rejected() {
        let model = tiny_model();
        let cfg = FrontendConfig {
            stream_capacity: 0,
            ..FrontendConfig::default()
        };
        assert!(run_frontend(engine(&model, 1), Box::new(Fifo), cfg, |_| ()).is_err());
    }
}
