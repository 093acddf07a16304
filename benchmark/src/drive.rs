//! One round of a serving workload: the two ways requests are driven
//! (through the streaming frontend, or directly on the engine), the
//! wall-clock samples taken around every call, and — on traced rounds —
//! the harness spans.

use std::time::Instant;

use lightmamba_serve::engine::{ServeEngine, StepEvent};
use lightmamba_serve::frontend::{run_frontend, FrontendConfig, StreamEvent};
use lightmamba_serve::metrics::ServeReport;
use lightmamba_serve::observe::{EngineObs, ObsConfig};
use lightmamba_serve::request::{Completion, GenRequest};
use lightmamba_serve::ServeError;

use crate::env::Models;
use crate::trace::Tracer;
use crate::workload::Workload;
use crate::BenchError;

/// Everything one round produced.
#[derive(Debug, Default)]
pub struct Round {
    /// First submission → last terminal event, seconds.
    pub wall_s: f64,
    /// Output tokens delivered.
    pub tokens: u64,
    /// Request due → end of the step (or arrival of the stream event)
    /// that delivered its first token, milliseconds.
    pub ttft_ms: Vec<f64>,
    /// Gaps between consecutive tokens of one request, milliseconds.
    pub itl_ms: Vec<f64>,
    /// `ServeEngine::step`, milliseconds (direct drive).
    pub step_ms: Vec<f64>,
    /// `ServeEngine::submit` / `FrontendHandle::submit`, microseconds.
    pub submit_us: Vec<f64>,
    /// `ServeEngine::take_events`, microseconds (direct drive).
    pub take_events_us: Vec<f64>,
    /// Submit → `Queued` stream event, microseconds (frontend).
    pub queued_us: Vec<f64>,
    /// Completion records, in retirement order.
    pub completions: Vec<Completion>,
    /// The engine's report.
    pub report: Option<ServeReport>,
    /// Harness and engine spans (traced rounds).
    pub tracer: Option<Tracer>,
    /// Engine spans dropped by the recorder (traced rounds; must be 0).
    pub spans_dropped: u64,
}

/// Whether a round records spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    /// Timed round: no spans, engine observability off.
    Off,
    /// Traced round: harness spans plus `ServeEngine::enable_obs`.
    On,
}

/// Runs one round of `workload` over `requests` the way the workload
/// prescribes.
pub fn run_round(
    models: &Models,
    workload: Workload,
    requests: &[GenRequest],
    tracing: Tracing,
) -> Result<Round, BenchError> {
    match workload {
        Workload::SingleStream => drive_frontend(models, workload, requests, tracing),
        _ => drive_direct(models, workload, requests, tracing),
    }
}

/// An observability configuration whose span buffer cannot overflow on
/// `requests`: every step records at most 16 spans, and a run takes at
/// most one step per fed chunk and sampled token plus its idle arrivals.
fn obs_config(workload: Workload, requests: &[GenRequest]) -> ObsConfig {
    let chunk = workload.engine_config().prefill_chunk;
    let steps: usize = requests
        .iter()
        .map(|r| r.prompt.len().div_ceil(chunk) + r.max_new_tokens + 2)
        .sum::<usize>()
        + requests.last().map_or(0, |r| r.arrival_step as usize);
    ObsConfig {
        span_capacity: 16 * (steps + 64),
        ..ObsConfig::default()
    }
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

fn us(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e6
}

/// Moves the engine's spans into the tracer and notes drops.
fn absorb_obs(round: &mut Round, obs: Option<Box<EngineObs>>, obs_epoch: Instant) {
    if let (Some(tracer), Some(obs)) = (round.tracer.as_mut(), obs) {
        tracer.merge_engine(obs_epoch, obs.spans.spans());
        round.spans_dropped = obs.spans.dropped();
    }
}

/// Per-request wall-clock marks of a direct-drive round, indexed by id.
#[derive(Debug, Clone, Copy, Default)]
struct Marks {
    due: Option<Instant>,
    started: Option<Instant>,
    first_token: Option<Instant>,
    last_token: Option<Instant>,
}

/// Direct drive: `submit` / `step` / `take_events` from this thread. A
/// closed loop holds `workload.concurrency()` requests in flight and
/// stamps each arrival at the clock of the step about to run; an open
/// loop submits the whole list up front on its generated arrival steps
/// and times each request from the wall time its arrival step began.
/// Public so the frontend workload's list can also be driven directly:
/// its channel hop is read against this step.
pub fn drive_direct(
    models: &Models,
    workload: Workload,
    requests: &[GenRequest],
    tracing: Tracing,
) -> Result<Round, BenchError> {
    let mut engine: ServeEngine<'_> = models.engine(workload)?;
    let mut policy = workload.policy();
    engine.enable_events();
    let mut round = Round::default();
    let mut obs_epoch = Instant::now();
    if tracing == Tracing::On {
        round.tracer = Some(Tracer::new());
        engine.enable_obs(obs_config(workload, requests));
        obs_epoch = Instant::now();
    }

    let mut marks = vec![Marks::default(); requests.len()];
    let mut next = 0usize; // next request to submit (closed loop)
    let mut arrived = 0usize; // next request to fall due (open loop)
    let mut in_flight = 0usize;
    let mut delivered = 0usize;
    let closed = workload.concurrency();
    let begin = Instant::now();
    if closed.is_none() {
        let t0 = Instant::now();
        engine.submit(requests.to_vec())?;
        round
            .submit_us
            .push(us(t0, Instant::now()) / requests.len().max(1) as f64);
    }
    loop {
        if let Some(limit) = closed {
            while in_flight < limit && next < requests.len() {
                let mut req = requests[next].clone();
                req.arrival_step = engine.clock();
                let t0 = Instant::now();
                engine.submit(vec![req])?;
                let t1 = Instant::now();
                marks[next].due = Some(t0);
                round.submit_us.push(us(t0, t1));
                if let Some(tr) = round.tracer.as_mut() {
                    tr.push("engine.submit", t0, t1, None, Some(next as u64), None);
                }
                next += 1;
                in_flight += 1;
            }
        }
        if !engine.has_work() {
            break;
        }
        let clock = engine.clock();
        let t0 = Instant::now();
        while closed.is_none()
            && arrived < requests.len()
            && requests[arrived].arrival_step <= clock
        {
            marks[arrived].due = Some(t0);
            arrived += 1;
        }
        engine.step(policy.as_mut())?;
        let t1 = Instant::now();
        let events = engine.take_events();
        let t2 = Instant::now();
        round.step_ms.push(ms(t0, t1));
        round.take_events_us.push(us(t1, t2));
        if let Some(tr) = round.tracer.as_mut() {
            tr.push("engine.step", t0, t1, None, None, Some(clock));
            tr.push("engine.take_events", t1, t2, None, None, Some(clock));
        }
        for ev in events {
            match ev {
                StepEvent::Started { id, .. } => marks[id as usize].started = Some(t0),
                StepEvent::Token { id, .. } => {
                    let m = &mut marks[id as usize];
                    round.tokens += 1;
                    match m.last_token {
                        None => {
                            m.first_token = Some(t1);
                            let due = m.due.expect("a token implies the request fell due");
                            round.ttft_ms.push(ms(due, t1));
                        }
                        Some(prev) => round.itl_ms.push(ms(prev, t1)),
                    }
                    m.last_token = Some(t1);
                }
            }
        }
        let done = engine.completions();
        for c in &done[delivered..] {
            in_flight = in_flight.saturating_sub(1);
            let m = marks[c.id as usize];
            if let (Some(tr), Some(due), Some(started), Some(first)) =
                (round.tracer.as_mut(), m.due, m.started, m.first_token)
            {
                tr.request(c.id, due, started, first, t1);
            }
        }
        delivered = done.len();
    }
    round.wall_s = begin.elapsed().as_secs_f64();
    round.report = Some(engine.report(policy.as_ref()));
    round.completions = engine.completions().to_vec();
    let obs = engine.take_obs();
    absorb_obs(&mut round, obs, obs_epoch);
    Ok(round)
}

/// One client through `serve::frontend::run_frontend`, concurrency 1:
/// the next request is submitted when the previous stream ends. Every
/// time is read on the client thread, at the moment the event arrives.
fn drive_frontend(
    models: &Models,
    workload: Workload,
    requests: &[GenRequest],
    tracing: Tracing,
) -> Result<Round, BenchError> {
    let engine = models.engine(workload)?;
    let cfg = FrontendConfig {
        obs: (tracing == Tracing::On).then(|| obs_config(workload, requests)),
        ..FrontendConfig::default()
    };
    // `run_frontend` builds the engine's span recorder first thing, so
    // this instant is its epoch to within the call overhead.
    let obs_epoch = Instant::now();
    let (client, run) = run_frontend(engine, workload.policy(), cfg, |handle| {
        let mut c = Round {
            tracer: (tracing == Tracing::On).then(Tracer::new),
            ..Round::default()
        };
        let begin = Instant::now();
        for req in requests {
            let t0 = Instant::now();
            let mut stream = handle.submit(req.clone())?;
            let t1 = Instant::now();
            c.submit_us.push(us(t0, t1));
            let id = stream.id();
            if let Some(tr) = c.tracer.as_mut() {
                tr.push("frontend.submit", t0, t1, None, Some(id), None);
            }
            let (mut started, mut first, mut last) = (None, None, None::<Instant>);
            loop {
                let r0 = Instant::now();
                let ev = stream.recv();
                let now = Instant::now();
                if let Some(tr) = c.tracer.as_mut() {
                    tr.push("stream.recv", r0, now, None, Some(id), None);
                }
                match ev {
                    Some(StreamEvent::Queued { .. }) => c.queued_us.push(us(t0, now)),
                    Some(StreamEvent::Started { .. }) => started = Some(now),
                    Some(StreamEvent::Token { .. }) => {
                        c.tokens += 1;
                        match last {
                            None => {
                                first = Some(now);
                                c.ttft_ms.push(ms(t0, now));
                            }
                            Some(prev) => c.itl_ms.push(ms(prev, now)),
                        }
                        last = Some(now);
                    }
                    // Any terminal event, or a stream that ended.
                    Some(_) | None => {
                        if let (Some(tr), Some(s), Some(f)) = (c.tracer.as_mut(), started, first) {
                            tr.request(id, t0, s, f, now);
                        }
                        break;
                    }
                }
            }
        }
        c.wall_s = begin.elapsed().as_secs_f64();
        Ok::<Round, ServeError>(c)
    })?;
    let mut round = client?;
    round.completions = run.completions;
    round.report = Some(run.report);
    absorb_obs(&mut round, run.obs, obs_epoch);
    Ok(round)
}
