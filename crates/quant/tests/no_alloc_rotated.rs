//! Pins the online rotation's part of the hot-path contract: a
//! LightMamba model whose `d_inner` is not a power of two (the tiny
//! config's 96 = 8 × 12, so the online Hadamard runs its matrix factor
//! on every row and its FHT down every column) decodes in steady state
//! with **zero heap allocations**. A counting global allocator wraps the
//! system allocator.
//!
//! This file holds exactly one test so no parallel test can inject
//! allocations into the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use lightmamba_model::{MambaConfig, MambaModel};
use lightmamba_quant::pipeline::{quantize_model, Method, QuantSpec};
use lightmamba_quant::qmodel::QuantWorkspace;
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
fn steady_state_rotated_decode_allocates_nothing() {
    let cfg = MambaConfig::tiny();
    assert!(!cfg.d_inner().is_power_of_two());
    let model = MambaModel::synthetic(cfg, &mut StdRng::seed_from_u64(3)).unwrap();
    let q = quantize_model(
        &model,
        Method::LightMamba,
        &QuantSpec::w4a4_grouped(16),
        &[],
    )
    .unwrap();
    let mut state = q.new_state();
    let mut ws = QuantWorkspace::new();
    let step = |t: u32, state: &mut _, ws: &mut QuantWorkspace| {
        q.forward_step_batch_indexed_with(&[(0, t * 7 % 256)], std::slice::from_mut(state), ws)
            .unwrap();
    };
    for t in 0..3 {
        step(t, &mut state, &mut ws);
    }
    let before = ALLOCS.load(Ordering::SeqCst);
    for t in 3..13 {
        step(t, &mut state, &mut ws);
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(allocs, 0, "10 steady-state steps allocated {allocs} times");
}
