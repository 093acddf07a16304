//! Pins the threaded quantized hot-path contract: steady-state batched
//! integer-W4A4 decode cut into lanes across a 4-thread worker pool — at batch
//! 16 and across a 16 → 3 → 16 change of batch size — performs **zero
//! heap allocations** on every participating thread. A counting
//! global allocator wraps the system allocator; after warm-up (each
//! lane's buffers have grown to their shapes) the
//! counter must not move.
//!
//! The same workspace then alternates pooled and unpooled steps — one
//! workspace type serves both — and must stay allocation-free and
//! bit-identical to a workspace that never saw a pool.
//!
//! This file holds exactly one test so no parallel test can inject
//! allocations into the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use lightmamba_model::{batch, MambaConfig, MambaModel};
use lightmamba_pool::WorkerPool;
use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};
use lightmamba_quant::qmodel::{ExecMode, QuantWorkspace};
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
fn steady_state_parallel_quantized_decode_allocates_nothing() {
    let model = MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(3)).unwrap();
    let q = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
    assert_eq!(q.exec_mode(), ExecMode::Integer);

    // Full, shrunk, full again: per-lane scratch grows to its largest
    // lane once; a smaller step (fewer lanes, one sequence each)
    // must neither free nor regrow it.
    let batches = [16usize, 3, 16];
    let largest = batches[0];
    let pool = WorkerPool::new(4);
    let mut states: Vec<_> = (0..largest).map(|_| q.new_state()).collect();
    let mut ws = QuantWorkspace::new();
    let mut items: Vec<(usize, u32)> = (0..largest).map(|k| (k, 0u32)).collect();

    type Pool<'p> = Option<&'p WorkerPool>;
    let mut step = |t: usize, n: usize, states: &mut [_], pool: Pool, ws: &mut QuantWorkspace| {
        for (k, item) in items.iter_mut().enumerate() {
            item.1 = ((t * 11 + k * 5) % 256) as u32;
        }
        batch::step(&q, &items[..n], states, pool, ws).unwrap();
        assert_eq!(ws.logits().len(), n);
    };

    // Warm-up: per-lane scratch grows to final shapes, pool settles.
    for t in 0..3 {
        step(t, largest, &mut states, Some(&pool), &mut ws);
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    for (phase, &batch) in batches.iter().enumerate() {
        for t in 0..12 {
            step(3 + phase * 12 + t, batch, &mut states, Some(&pool), &mut ws);
        }
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state 4-thread integer-W4A4 decode allocated {} times over 36 steps at batch {batches:?}",
        after - before
    );

    // One workspace, pooled and unpooled steps in turn, against a twin
    // that only ever runs the one-lane cut.
    let mut twin_states = states.clone();
    let mut twin_ws = QuantWorkspace::new();
    let mut alternate = |t: usize| {
        let pool = t.is_multiple_of(2).then_some(&pool);
        step(t, largest, &mut states, pool, &mut ws);
        step(t, largest, &mut twin_states, None, &mut twin_ws);
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
