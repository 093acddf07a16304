//! Pins the quantized hot-path contract: steady-state batched decode —
//! on both the packed-integer path and the fake-quant oracle path, at
//! batch 16 and across a 16 → 3 → 16 change of batch size — performs
//! **zero heap allocations** through the workspace API. A
//! counting global allocator wraps the system allocator; after warm-up
//! the counter must not move.
//!
//! This file holds exactly one test so no parallel test can inject
//! allocations into the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use lightmamba_model::{MambaConfig, MambaModel};
use lightmamba_quant::qmodel::{ExecMode, Precision, QuantWorkspace};
use lightmamba_quant::{PreparedModel, QuantizedMamba};
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

/// Batch sizes of the measured window: full, shrunk, full again — the
/// per-sequence scratch grows to the largest batch once and a smaller
/// step must neither free nor regrow it.
const BATCHES: [usize; 3] = [16, 3, 16];

fn drive(q: &QuantizedMamba, label: &str) {
    let largest = BATCHES[0];
    let mut states: Vec<_> = (0..largest).map(|_| q.new_state()).collect();
    let mut ws = QuantWorkspace::new();
    let mut items: Vec<(usize, u32)> = (0..largest).map(|k| (k, 0u32)).collect();

    let mut step = |t: usize, batch: usize, states: &mut [_], ws: &mut QuantWorkspace| {
        for (k, item) in items.iter_mut().enumerate() {
            item.1 = ((t * 11 + k * 5) % 256) as u32;
        }
        q.forward_step_batch_indexed_with(&items[..batch], states, ws)
            .unwrap();
        assert_eq!(ws.logits().len(), batch);
    };

    for t in 0..3 {
        step(t, largest, &mut states, &mut ws);
    }
    let before = ALLOCS.load(Ordering::SeqCst);
    for (phase, &batch) in BATCHES.iter().enumerate() {
        for t in 0..12 {
            step(3 + phase * 12 + t, batch, &mut states, &mut ws);
        }
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state {label} decode allocated {} times over 36 steps at batch {BATCHES:?}",
        after - before
    );
}

#[test]
fn steady_state_quantized_decode_allocates_nothing() {
    let model = MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(3)).unwrap();
    let prepared = PreparedModel::from_reference(&model).unwrap();
    let q_int = QuantizedMamba::new(prepared, Precision::w4a4(16)).unwrap();
    assert_eq!(q_int.exec_mode(), ExecMode::Integer);
    drive(&q_int, "integer-W4A4");
    let q_fake = q_int.with_exec_mode(ExecMode::FakeQuant).unwrap();
    drive(&q_fake, "fake-quant oracle");
}
