//! Harness-side spans: recorded in memory around every call into a
//! layer, merged with the engine's own phase spans, and written out as
//! one Chrome trace when the run ends.

use std::time::Instant;

use lightmamba_obs::trace::{ChromeTraceBuilder, Span};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct HSpan {
    /// Span name (`engine.step`, `request`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request the span belongs to; spans of one request share it.
    pub req: Option<u64>,
    /// Engine step, for spans tied to one.
    pub step: Option<u64>,
}

/// In-memory span recorder of one traced round.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<HSpan>,
}

/// Chrome-trace lane of the harness's own calls.
const TID_HARNESS: u32 = 1;
/// Lane of the engine's phase spans (its own thread under the frontend).
const TID_ENGINE: u32 = 2;
/// Lane of the per-request lifecycle spans.
const TID_REQUESTS: u32 = 3;

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index (a later span's
    /// `parent`).
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: Option<u64>,
        step: Option<u64>,
    ) -> usize {
        let start_ns = self.ns(start);
        self.spans.push(HSpan {
            name,
            start_ns,
            dur_ns: self.ns(end).saturating_sub(start_ns),
            parent,
            req,
            step,
        });
        self.spans.len() - 1
    }

    /// Records the four lifecycle spans of one request: `request`
    /// (due → terminal) parenting `queue`, `prefill` and `decode`.
    pub fn request(
        &mut self,
        id: u64,
        due: Instant,
        started: Instant,
        first_token: Instant,
        done: Instant,
    ) {
        let root = self.push("request", due, done, None, Some(id), None);
        self.push("queue", due, started, Some(root), Some(id), None);
        self.push("prefill", started, first_token, Some(root), Some(id), None);
        self.push("decode", first_token, done, Some(root), Some(id), None);
    }

    /// Merges the engine's phase spans, recorded against `engine_epoch`.
    /// A `step` span becomes the child of the harness `engine.step` span
    /// of the same step when there is one (direct drive; under the
    /// frontend the engine runs on its own thread and its steps stay
    /// roots); deeper spans hang off the enclosing engine span.
    pub fn merge_engine(&mut self, engine_epoch: Instant, spans: &[Span]) {
        let offset = self.ns(engine_epoch);
        let step_parent: std::collections::HashMap<u64, usize> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "engine.step")
            .filter_map(|(i, s)| s.step.map(|st| (st, i)))
            .collect();
        // The recorder stores spans in completion order: children before
        // their parent. Walk backwards so each parent is placed first.
        let mut open: Vec<(u32, usize)> = Vec::new();
        for s in spans.iter().rev() {
            while open.last().is_some_and(|&(d, _)| d >= s.depth) {
                open.pop();
            }
            let parent = match open.last() {
                Some(&(_, idx)) => Some(idx),
                None => step_parent.get(&s.step).copied(),
            };
            self.spans.push(HSpan {
                name: engine_name(s.name),
                start_ns: offset + s.start_ns,
                dur_ns: s.dur_ns,
                parent,
                req: None,
                step: Some(s.step),
            });
            open.push((s.depth, self.spans.len() - 1));
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[HSpan] {
        &self.spans
    }

    /// Renders the Chrome trace-event document.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let mut b = ChromeTraceBuilder::new();
        b.process_name(1, workload);
        for (i, s) in self.spans.iter().enumerate() {
            let tid = if s.req.is_some() {
                TID_REQUESTS
            } else if s.name.starts_with("engine.phase.") {
                TID_ENGINE
            } else {
                TID_HARNESS
            };
            let opt = |v: Option<u64>| v.map_or(f64::NAN, |v| v as f64);
            b.complete_event(
                s.name,
                "bench",
                1,
                tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                &[
                    ("id", i as f64),
                    ("parent", s.parent.map_or(f64::NAN, |p| p as f64)),
                    ("req", opt(s.req)),
                    ("step", opt(s.step)),
                ],
            );
        }
        b.finish()
    }
}

/// Engine phase names, prefixed so they cannot be mistaken for the
/// harness's own `engine.*` call spans.
fn engine_name(name: &'static str) -> &'static str {
    match name {
        "step" => "engine.phase.step",
        "cancel" => "engine.phase.cancel",
        "expire" => "engine.phase.expire",
        "doom" => "engine.phase.doom",
        "preempt" => "engine.phase.preempt",
        "admit" => "engine.phase.admit",
        "advance" => "engine.phase.advance",
        "sub_batch" => "engine.phase.sub_batch",
        "sample" => "engine.phase.sample",
        "retire" => "engine.phase.retire",
        _ => "engine.phase.other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightmamba_obs::trace::SpanRecorder;
    use std::time::Duration;

    #[test]
    fn engine_spans_nest_under_the_matching_step() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let step = t.push(
            "engine.step",
            t0,
            t0 + Duration::from_millis(1),
            None,
            None,
            Some(7),
        );
        let mut rec = SpanRecorder::with_capacity(8);
        let epoch = Instant::now();
        rec.begin("step", "fifo", 7);
        rec.begin("advance", "fifo", 7);
        rec.begin("sub_batch", "fifo", 7);
        rec.end();
        rec.end();
        rec.begin("sample", "fifo", 7);
        rec.end();
        rec.end();
        t.merge_engine(epoch, rec.spans());
        let by_name = |n: &str| t.spans().iter().position(|s| s.name == n).unwrap();
        let (e_step, adv, sub, sam) = (
            by_name("engine.phase.step"),
            by_name("engine.phase.advance"),
            by_name("engine.phase.sub_batch"),
            by_name("engine.phase.sample"),
        );
        assert_eq!(t.spans()[e_step].parent, Some(step));
        assert_eq!(t.spans()[adv].parent, Some(e_step));
        assert_eq!(t.spans()[sub].parent, Some(adv));
        assert_eq!(t.spans()[sam].parent, Some(e_step));
        assert!(lightmamba_obs::json::parse(&t.chrome_trace("w")).is_ok());
    }
}
