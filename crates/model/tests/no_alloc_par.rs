//! Pins the threaded hot-path contract: steady-state batched decode
//! through the worker pool performs **zero heap allocations** on every
//! participating thread. A counting global allocator wraps the system
//! allocator; after a warm-up phase (every lane's buffers grow
//! to their shapes, the pool's threads are already parked on
//! their condvar) the allocation counter must not move.
//!
//! The same workspace then alternates pooled and unpooled steps — one
//! workspace type serves both — and must stay allocation-free and
//! bit-identical to a workspace that never saw a pool.
//!
//! This file holds exactly one test so no parallel test can inject
//! allocations into the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use lightmamba_model::{batch, DecodeWorkspace, MambaConfig, MambaModel};
use lightmamba_pool::WorkerPool;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(p, l, n)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_parallel_decode_allocates_nothing() {
    let model = MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(3)).unwrap();
    let batch = 6;
    let pool = WorkerPool::new(4);
    let mut states: Vec<_> = (0..batch).map(|_| model.new_state()).collect();
    let mut ws = DecodeWorkspace::new();
    let mut items: Vec<(usize, u32)> = (0..batch).map(|k| (k, 0u32)).collect();

    let mut step =
        |t: usize, states: &mut [_], pool: Option<&WorkerPool>, ws: &mut DecodeWorkspace| {
            for (k, item) in items.iter_mut().enumerate() {
                item.1 = ((t * 11 + k * 5) % 256) as u32;
            }
            batch::step(&model, &items, states, pool, ws).unwrap();
            assert_eq!(ws.logits().len(), batch);
        };

    // Warm-up: every lane's buffers grow to their shapes and the pool
    // settles into its park/dispatch rhythm.
    for t in 0..3 {
        step(t, &mut states, Some(&pool), &mut ws);
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    for t in 3..40 {
        step(t, &mut states, Some(&pool), &mut ws);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state 4-thread FP decode allocated {} times over 37 steps",
        after - before
    );

    // One workspace, pooled and unpooled steps in turn, against a twin
    // that only ever runs the one-lane cut.
    let mut twin_states = states.clone();
    let mut twin_ws = DecodeWorkspace::new();
    let mut alternate = |t: usize| {
        step(
            t,
            &mut states,
            t.is_multiple_of(2).then_some(&pool),
            &mut ws,
        );
        step(t, &mut twin_states, None, &mut twin_ws);
        assert_eq!(ws.logits(), twin_ws.logits(), "step {t} diverged");
    };
    for t in 40..46 {
        alternate(t);
    }
    let before = ALLOCS.load(Ordering::SeqCst);
    for t in 46..70 {
        alternate(t);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "alternating pooled and unpooled steps on one warm workspace allocated {} times",
        after - before
    );
}
