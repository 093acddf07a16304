//! Pins the threaded quantized hot-path contract: steady-state batched
//! integer-W4A4 decode sharded across a 4-thread worker pool — at batch
//! 16 and across a 16 → 3 → 16 change of batch size — performs **zero
//! heap allocations** on every participating thread. A counting
//! global allocator wraps the system allocator; after warm-up (each
//! worker's private workspace has grown to its shard's shapes) the
//! counter must not move.
//!
//! This file holds exactly one test so no parallel test can inject
//! allocations into the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use lightmamba_model::{MambaConfig, MambaModel};
use lightmamba_pool::WorkerPool;
use lightmamba_quant::qmodel::{ExecMode, Precision};
use lightmamba_quant::{ParQuantWorkspace, PreparedModel, QuantizedMamba};
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
    let prepared = PreparedModel::from_reference(&model).unwrap();
    let q = QuantizedMamba::new(prepared, Precision::w4a4(16)).unwrap();
    assert_eq!(q.exec_mode(), ExecMode::Integer);

    // Full, shrunk, full again: per-shard scratch grows to its largest
    // sub-batch once; a smaller step (fewer shards, one sequence each)
    // must neither free nor regrow it.
    let batches = [16usize, 3, 16];
    let largest = batches[0];
    let pool = WorkerPool::new(4);
    let mut states: Vec<_> = (0..largest).map(|_| q.new_state()).collect();
    let mut ws = ParQuantWorkspace::new();
    let mut items: Vec<(usize, u32)> = (0..largest).map(|k| (k, 0u32)).collect();

    let mut step = |t: usize, batch: usize, states: &mut [_], ws: &mut ParQuantWorkspace| {
        for (k, item) in items.iter_mut().enumerate() {
            item.1 = ((t * 11 + k * 5) % 256) as u32;
        }
        q.forward_step_batch_indexed_par_with(&items[..batch], states, &pool, ws)
            .unwrap();
        assert_eq!(ws.logits().count(), batch);
    };

    // Warm-up: per-worker scratch grows to final shapes, pool settles.
    for t in 0..3 {
        step(t, largest, &mut states, &mut ws);
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    for (phase, &batch) in batches.iter().enumerate() {
        for t in 0..12 {
            step(3 + phase * 12 + t, batch, &mut states, &mut ws);
        }
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state 4-thread integer-W4A4 decode allocated {} times over 36 steps at batch {batches:?}",
        after - before
    );
}
