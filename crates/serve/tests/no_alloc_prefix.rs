//! Pins the prefix-cache hot path: once a snapshot is harvested, a
//! cache hit — key hash, prefix verification, LRU tick bump, and the
//! state restore into an engine slot — performs **zero heap
//! allocations**. Misses on the lookup path are equally free. Only the
//! one-time harvest (snapshotting the state, inserting the entry) may
//! allocate.
//!
//! This file holds exactly one test so no parallel test can inject
//! allocations into the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use lightmamba_model::{MambaConfig, MambaModel};
use lightmamba_serve::backend::{DecodeBackend, FpBackend};
use lightmamba_serve::prefix::{hash_prefix, PrefixCache};
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
fn prefix_cache_lookup_and_restore_allocate_nothing() {
    let model = MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(3)).unwrap();
    let backend = FpBackend::new(&model);
    let prefix: Vec<u32> = (1..=16).collect();
    let other: Vec<u32> = (100..=115).collect();

    // One-time harvest: prefill the prefix, snapshot the state, park it
    // in the cache. This side may allocate (it clones the state).
    let mut state = backend.new_state();
    backend
        .advance_batch_indexed(&[(0, prefix.as_slice())], std::slice::from_mut(&mut state))
        .unwrap();
    let mut cache = PrefixCache::new(4);
    cache.insert(0, &prefix, backend.save_state(&state));

    // The slot a hit restores into, pre-shaped like every pool slot.
    let mut slot = backend.new_state();

    // Warm-up: exercise the full hit and miss paths once.
    let snap = cache.lookup(0, &prefix).expect("warmed entry");
    backend.restore_state(snap, &mut slot);
    assert!(cache.lookup(0, &other).is_none());

    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..64 {
        // Hashing is allocation-free on its own...
        std::hint::black_box(hash_prefix(&prefix));
        // ...and so is the full admission-path sequence: hit lookup
        // (hash + token-exact verification + LRU tick) and state
        // restore into the resident slot...
        let snap = cache.lookup(0, &prefix).expect("entry never evicted");
        backend.restore_state(snap, &mut slot);
        // ...and the miss every non-bearer request takes.
        assert!(cache.lookup(0, &other).is_none());
        assert!(!cache.contains(1, &prefix), "other models never share");
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "the prefix-cache step path allocated {} times over 64 hits + misses",
        after - before
    );
    assert_eq!(cache.hits(), 65);
    assert_eq!(cache.misses(), 65);
}
