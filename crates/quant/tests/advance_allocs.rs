//! Pins what a warm ragged `advance` allocates on the integer-W4A4 path:
//! exactly the vectors it returns — the outer vector and one logits
//! vector per item — and nothing else. The rows, the wanted flags and
//! every per-row buffer live in the workspace. A counting global
//! allocator wraps the system allocator.
//!
//! This file holds exactly one test so no parallel test can inject
//! allocations into the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use lightmamba_model::{batch, MambaConfig, MambaModel};
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
fn warm_ragged_advance_allocates_only_what_it_returns() {
    let model = MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(3)).unwrap();
    let q = quantize_model(&model, Method::Rtn, &QuantSpec::w4a4_grouped(16), &[]).unwrap();
    assert_eq!(q.exec_mode(), ExecMode::Integer);

    // A 4-token prefill chunk beside three decoders, then 16 decoders.
    let chunk: Vec<u32> = vec![5, 9, 2, 40];
    let tokens: Vec<[u32; 1]> = (0..16u32).map(|k| [k * 7 + 1]).collect();
    let ragged: Vec<(usize, &[u32])> = vec![
        (0, &chunk),
        (1, &tokens[1]),
        (2, &tokens[2]),
        (3, &tokens[3]),
    ];
    let decode: Vec<(usize, &[u32])> = tokens.iter().map(|t| &t[..]).enumerate().collect();
    let mut states: Vec<_> = (0..16).map(|_| q.new_state()).collect();
    let mut ws = QuantWorkspace::new();

    // Warm-up: every buffer grows to both shapes.
    for _ in 0..3 {
        for items in [&ragged, &decode] {
            batch::advance(&q, items, &mut states, None, &mut ws).unwrap();
        }
    }

    for items in [&ragged, &decode] {
        let before = ALLOCS.load(Ordering::SeqCst);
        let logits = batch::advance(&q, items, &mut states, None, &mut ws).unwrap();
        let allocs = ALLOCS.load(Ordering::SeqCst) - before;
        assert_eq!(logits.len(), items.len());
        assert_eq!(
            allocs,
            items.len() + 1,
            "a warm advance of {} items allocated {allocs} times",
            items.len()
        );
    }
}
