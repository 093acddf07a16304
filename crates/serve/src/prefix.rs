//! The shared-prefix state cache: post-prefix snapshots, restored
//! instead of re-prefilled.
//!
//! A Mamba2 prompt prefix compresses into one fixed-size
//! [`ModelState`](lightmamba_model::ModelState) — there is no KV cache
//! growing with prefix length — so a cache entry for a K-token system
//! prompt costs the same slab as one for a 4-token one. When a request
//! arrives carrying [`crate::request::GenRequest::shared_prefix`], the
//! engine looks its prefix up here: a hit restores the snapshot into
//! the freshly claimed slot ([`DecodeBackend::restore_state`]
//! semantics, one state-transfer DMA) and prefill begins *after* the
//! prefix; a miss marks the sequence for harvest, and the engine
//! snapshots its state the moment prefill crosses the prefix boundary
//! — exactly the clip-at-boundary feeding that makes chunked prefill
//! bit-exact guarantees the snapshot equals a run that prefilled the
//! prefix alone.
//!
//! Entries are keyed by `(model, FNV-1a hash of the prefix tokens)`
//! and verified against the stored token run on lookup, so a hash
//! collision degrades to a miss, never a wrong state. Eviction is the
//! same tick-LRU as the engine's parked session states: bounded
//! footprint is `capacity` state slabs, full stop.
//!
//! [`DecodeBackend::restore_state`]: crate::backend::DecodeBackend::restore_state

use crate::backend::PausedState;
use crate::lru::Lru;

/// FNV-1a over the prefix tokens' little-endian bytes. Deterministic
/// across runs and platforms (unlike `DefaultHasher`), so cache keys —
/// and therefore hit/miss traces — are reproducible, which the
/// bit-identity proptests rely on. Allocation-free.
pub fn hash_prefix(tokens: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &t in tokens {
        for b in t.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[derive(Debug)]
struct Entry {
    /// The exact token run this entry's state summarizes — compared on
    /// lookup so a hash collision is a miss, not a wrong restore.
    prefix: Vec<u32>,
    state: PausedState,
}

/// A capacity-bounded LRU map from `(model, prefix-hash)` to the
/// post-prefix [`PausedState`]. See the [module docs](self) for the
/// protocol; see [`crate::engine::EngineConfig::prefix_cache`] to turn
/// it on.
#[derive(Debug)]
pub struct PrefixCache {
    entries: Lru<(usize, u64), Entry>,
    hits: u64,
    misses: u64,
}

impl PrefixCache {
    /// An empty cache holding at most `capacity` snapshots.
    /// `capacity` must be > 0 (a zero-capacity cache would harvest
    /// states only to drop them — turn the cache off instead).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "prefix cache capacity must be > 0");
        PrefixCache {
            entries: Lru::new(capacity),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up the snapshot for `prefix` under `model`, refreshing its
    /// recency and counting the hit/miss. Allocation-free: one hash,
    /// two probes, one slice compare. Returns a borrow — the caller
    /// copies it into a slot ([`lightmamba_model::ModelState::copy_from`])
    /// rather than consuming it, so one entry serves any number of
    /// requests.
    pub fn lookup(&mut self, model: usize, prefix: &[u32]) -> Option<&PausedState> {
        let key = (model, hash_prefix(prefix));
        if self.entries.get(&key).is_none_or(|e| e.prefix != prefix) {
            self.misses += 1;
            return None;
        }
        self.hits += 1;
        self.entries.touch(&key).map(|e| &e.state)
    }

    /// Whether a snapshot for `prefix` under `model` is cached, without
    /// touching recency or the hit/miss counters (the engine's harvest
    /// check). Allocation-free.
    pub fn contains(&self, model: usize, prefix: &[u32]) -> bool {
        self.entries
            .get(&(model, hash_prefix(prefix)))
            .is_some_and(|e| e.prefix == prefix)
    }

    /// Caches the post-prefix snapshot, refreshing recency (an existing
    /// entry for the same prefix is replaced). When the cache would
    /// exceed its capacity, the least-recently-touched entry is
    /// evicted.
    pub fn insert(&mut self, model: usize, prefix: &[u32], state: PausedState) {
        let entry = Entry {
            prefix: prefix.to_vec(),
            state,
        };
        self.entries.insert((model, hash_prefix(prefix)), entry);
    }

    /// Cached snapshots right now (always `<= capacity`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Lookups that restored a snapshot.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing (or a colliding entry).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted by LRU pressure so far.
    pub fn evictions(&self) -> u64 {
        self.entries.evictions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightmamba_model::{MambaConfig, ModelState};

    fn state() -> PausedState {
        PausedState::new(ModelState::new(&MambaConfig::tiny()))
    }

    #[test]
    fn hash_is_deterministic_and_position_sensitive() {
        assert_eq!(hash_prefix(&[1, 2, 3]), hash_prefix(&[1, 2, 3]));
        assert_ne!(hash_prefix(&[1, 2, 3]), hash_prefix(&[3, 2, 1]));
        assert_ne!(hash_prefix(&[1, 2]), hash_prefix(&[1, 2, 3]));
        assert_ne!(hash_prefix(&[]), hash_prefix(&[0]));
    }

    #[test]
    fn lookup_counts_and_refreshes_recency() {
        let mut cache = PrefixCache::new(2);
        assert!(cache.lookup(0, &[1, 2]).is_none());
        assert_eq!(cache.misses(), 1);
        cache.insert(0, &[1, 2], state());
        cache.insert(0, &[3, 4], state());
        // Touch [1,2] so [3,4] becomes the LRU victim.
        assert!(cache.lookup(0, &[1, 2]).is_some());
        assert_eq!(cache.hits(), 1);
        cache.insert(0, &[5, 6], state());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.contains(0, &[1, 2]));
        assert!(!cache.contains(0, &[3, 4]));
        assert!(cache.contains(0, &[5, 6]));
    }

    #[test]
    fn capacity_is_a_hard_bound() {
        let mut cache = PrefixCache::new(3);
        for i in 0..50u32 {
            cache.insert(0, &[i], state());
            assert!(cache.len() <= 3);
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 47);
        for i in 47..50u32 {
            assert!(cache.contains(0, &[i]));
        }
    }

    #[test]
    fn models_do_not_share_entries() {
        let mut cache = PrefixCache::new(4);
        cache.insert(0, &[1, 2], state());
        assert!(cache.contains(0, &[1, 2]));
        assert!(!cache.contains(1, &[1, 2]));
        assert!(cache.lookup(1, &[1, 2]).is_none());
    }

    #[test]
    #[should_panic(expected = "capacity must be > 0")]
    fn zero_capacity_is_rejected() {
        let _ = PrefixCache::new(0);
    }
}
