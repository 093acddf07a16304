//! Regression pins for the prefix cache and token budget living
//! alongside parked sessions: the prefix cache's LRU bound stays exact
//! under engine traffic, a session resume takes precedence over the
//! prefix cache, and no state — slot, paused snapshot, pending resume
//! or cached prefix — leaks across a drain.

use lightmamba_serve::engine::{EngineConfig, ServeEngine};
use lightmamba_serve::request::GenRequest;
use lightmamba_serve::scheduler::{Fifo, TokenBudget};

mod common;
use common::{cfg, tiny_model};

/// A request whose prompt is `prefix ++ [id-specific tail]`, marked for
/// prefix caching.
fn bearer(id: u64, prefix_tag: u32, k: usize, gen: usize) -> GenRequest {
    let mut prompt = vec![prefix_tag; k];
    prompt.extend_from_slice(&[(id % 50) as u32 + 1, (id % 7) as u32 + 60]);
    GenRequest::greedy(id, prompt, gen).with_shared_prefix(k)
}

#[test]
fn prefix_cache_lru_bound_is_exact_under_eviction_pressure() {
    let model = tiny_model();
    let mut engine = ServeEngine::new(
        &model,
        EngineConfig {
            prefix_cache: Some(2),
            ..cfg(2, 2)
        },
    )
    .unwrap();

    // Five distinct prefixes through a 2-entry cache: every harvest
    // lands, evicting the oldest; the bound never stretches.
    let distinct = 5u64;
    engine
        .submit(
            (0..distinct)
                .map(|id| bearer(id, 200 + id as u32, 6, 3))
                .collect(),
        )
        .unwrap();
    let mut policy = Fifo;
    engine.run(&mut policy).unwrap();
    {
        let cache = engine.prefix_cache().unwrap();
        assert_eq!(cache.misses(), distinct, "each first bearer misses");
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 2, "the LRU bound is exact, not approximate");
        assert_eq!(cache.capacity(), 2);
        assert_eq!(
            cache.evictions(),
            distinct - 2,
            "every harvest past capacity evicted exactly one entry"
        );
    }

    // A second wave over the two *surviving* prefixes hits without
    // inserting; a wave over an evicted one misses and re-harvests.
    let survivors: Vec<GenRequest> = (0..2u64)
        .map(|i| {
            let mut r = bearer(10 + i, 200 + (distinct - 2 + i) as u32, 6, 3);
            r.arrival_step = engine.clock();
            r
        })
        .collect();
    engine.submit(survivors).unwrap();
    engine.run(&mut policy).unwrap();
    let cache = engine.prefix_cache().unwrap();
    assert_eq!(cache.hits(), 2, "surviving entries serve later bearers");
    assert_eq!(cache.misses(), distinct);
    assert_eq!(cache.len(), 2);
    assert_eq!(cache.evictions(), distinct - 2, "hits never evict");
}

#[test]
fn prefix_cache_sessions_and_budget_interact_without_leaking_state() {
    let model = tiny_model();
    let mut engine = ServeEngine::new(
        &model,
        EngineConfig {
            prefix_cache: Some(2),
            token_budget: Some(TokenBudget::new(8, 40).unwrap()),
            ..cfg(3, 2)
        },
    )
    .unwrap();

    // Turn 1: five session-tagged bearers of three distinct prefixes,
    // throttled by the budget, harvesting through the 2-entry cache.
    let turn1: Vec<GenRequest> = (0..5u64)
        .map(|id| bearer(id, 240 + (id % 3) as u32, 5, 4).with_session(id))
        .collect();
    engine.submit(turn1).unwrap();
    let mut policy = Fifo;
    let report = engine.run(&mut policy).unwrap();
    assert_eq!(report.completed, 5);

    // Turn 2: resume two of the parked sessions with prompts that
    // carry a cached shared prefix. The resume must take precedence
    // over the prefix cache (the parked state already contains the
    // whole history), so the cache counters stay put.
    let cache_before = {
        let c = engine.prefix_cache().unwrap();
        (c.hits(), c.misses(), c.len())
    };
    for (i, sid) in [3u64, 4u64].into_iter().enumerate() {
        let mut r = bearer(100 + i as u64, 240 + (sid % 3) as u32, 5, 3).with_session(sid);
        r.arrival_step = engine.clock();
        engine.submit(vec![r]).unwrap();
    }
    assert_eq!(engine.pending_resumes(), 2);
    let resumed = engine.run(&mut policy).unwrap();
    assert_eq!(resumed.session_restores, 2);
    {
        let c = engine.prefix_cache().unwrap();
        assert_eq!(
            (c.hits(), c.misses(), c.len()),
            cache_before,
            "session resumes never touch the prefix cache"
        );
    }

    // Nothing leaked anywhere: slots all free, no paused sequences, no
    // pending resume states, every request retired exactly once.
    assert!(!engine.has_work());
    assert_eq!(engine.free_slots(), engine.capacity());
    assert_eq!(engine.paused_count(), 0);
    assert_eq!(engine.pending_resumes(), 0);
    assert_eq!(engine.completions().len(), 7);
    let final_report = engine.report(&policy);
    assert_eq!(final_report.completed, 7);
    assert!(final_report.budget_deferrals > 0 || !final_report.trace.prefill_per_step.is_empty());
}
