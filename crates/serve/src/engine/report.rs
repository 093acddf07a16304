//! The aggregate run report, folded from the completion records.

use super::ServeEngine;
use crate::metrics::{ClassBreakdown, ModelBreakdown, Percentiles, ServeReport};
use crate::prefix::PrefixCache;
use crate::request::{Completion, FinishReason, Priority};
use crate::scheduler::Policy;

/// The tallies and latency percentiles of one slice of completions —
/// the whole run, one model's, or one priority class's.
#[derive(Default)]
struct Summary {
    /// Requests that ran to completion (max-tokens or EOS); the
    /// latency samples cover exactly these.
    completed: usize,
    evicted: usize,
    deadline_total: usize,
    deadline_hits: usize,
    preempted: usize,
    /// Tokens generated by the completed requests.
    generated_tokens: u64,
    ttft_steps: Vec<f64>,
    e2e_steps: Vec<f64>,
    queue_steps: Vec<f64>,
}

impl Summary {
    fn of<'c>(completions: impl Iterator<Item = &'c Completion>) -> Self {
        let mut s = Summary::default();
        for c in completions {
            // `deadline_hit` is `None` for cancelled, failed and
            // rejected requests even when they carried a budget: a
            // client withdrawal, an infrastructure fault or an
            // admission shed is not a scheduling outcome.
            if let Some(hit) = c.deadline_hit() {
                s.deadline_total += 1;
                s.deadline_hits += usize::from(hit);
            }
            s.evicted += usize::from(c.finish == FinishReason::DeadlineExceeded);
            s.preempted += usize::from(c.preemptions > 0);
            if matches!(c.finish, FinishReason::MaxTokens | FinishReason::Eos) {
                s.completed += 1;
                s.generated_tokens += c.tokens.len() as u64;
                s.ttft_steps.extend(c.ttft_steps().map(|t| t as f64));
                s.e2e_steps.extend(c.e2e_steps().map(|e| e as f64));
                s.queue_steps.extend(c.queue_steps().map(|q| q as f64));
            }
        }
        s
    }
}

impl ServeEngine<'_> {
    /// Builds the aggregate report for the run so far. The policy names
    /// itself ([`Policy::name`]); no stringly-typed tag.
    pub fn report(&self, policy: &dyn Policy) -> ServeReport {
        let all = Summary::of(self.completions.iter());
        let per_model = self
            .registry
            .iter()
            .map(|(mid, name, _)| {
                let s = Summary::of(self.completions.iter().filter(|c| c.model == mid));
                ModelBreakdown {
                    model: mid,
                    name: name.to_string(),
                    completed: s.completed,
                    evicted: s.evicted,
                    generated_tokens: s.generated_tokens,
                    processed_tokens: self.processed_per_model[mid],
                    ttft_steps: Percentiles::of(&s.ttft_steps),
                    e2e_steps: Percentiles::of(&s.e2e_steps),
                }
            })
            .collect();
        let per_class = Priority::ALL
            .iter()
            .map(|&priority| {
                let s = Summary::of(self.completions.iter().filter(|c| c.priority == priority));
                ClassBreakdown {
                    priority,
                    completed: s.completed,
                    evicted: s.evicted,
                    deadline_total: s.deadline_total,
                    deadline_hits: s.deadline_hits,
                    ttft_steps: Percentiles::of(&s.ttft_steps),
                    e2e_steps: Percentiles::of(&s.e2e_steps),
                    queue_steps: Percentiles::of(&s.queue_steps),
                }
            })
            .collect();
        let budget = self.cfg.token_budget;
        ServeReport {
            policy: policy.name(),
            completed: self.totals.completed,
            evicted: self.totals.evicted,
            failed: self.totals.failed,
            rejected: self.totals.rejected,
            backend_faults: self.totals.backend_faults,
            quarantine_entries: self.totals.quarantine_entries,
            quarantine_recoveries: self.totals.quarantine_recoveries,
            cancellations: self.totals.cancellations,
            wasted_token_advances: self.totals.wasted_advances,
            reclaimed_slot_steps: self.totals.reclaimed_slot_steps,
            steps: self.clock,
            generated_tokens: self.totals.decode_tokens,
            prefill_tokens: self.totals.prefill_tokens,
            deadline_total: all.deadline_total,
            deadline_hits: all.deadline_hits,
            preemptions: self.totals.preemptions,
            resumes: self.totals.resumes,
            // Requests touched by preemption at least once: finished
            // ones carry the count in their completion; in-flight
            // (resident or paused) ones are counted live so mid-run
            // reports are honest.
            preempted_requests: all.preempted
                + self.active.iter().filter(|s| s.run.preemptions > 0).count()
                + self.paused.len(),
            resume_latency_steps: Percentiles::of(&self.resume_latency),
            ttft_steps: Percentiles::of(&all.ttft_steps),
            e2e_steps: Percentiles::of(&all.e2e_steps),
            queue_steps: Percentiles::of(&all.queue_steps),
            mean_occupancy: self.trace.mean_batch() / self.pool.capacity() as f64,
            budget_deferrals: self.totals.budget_deferrals,
            budget_prefill_utilization: budget.map(|b| match self.trace.steps() as u64 {
                0 => 0.0,
                steps => {
                    let fed: u64 = self.trace.prefill_per_step.iter().map(|&p| p as u64).sum();
                    fed as f64 / (steps * b.max_prefill_tokens_per_step as u64) as f64
                }
            }),
            budget_resident_utilization: budget.map(|b| {
                let peak = self.trace.resident_tokens_per_step.iter().max();
                peak.copied().unwrap_or(0) as f64 / b.max_total_tokens as f64
            }),
            prefix_hits: self.prefix.as_ref().map_or(0, PrefixCache::hits),
            prefix_misses: self.prefix.as_ref().map_or(0, PrefixCache::misses),
            session_restores: self.totals.session_restores,
            per_model,
            per_class,
            trace: self.trace.clone(),
        }
    }
}
