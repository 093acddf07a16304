//! The tick-LRU map behind the engine's two state caches: the
//! shared-prefix cache ([`crate::prefix::PrefixCache`]) and the parked
//! session states. Both hold fixed-size Mamba states, so bounding the
//! entry count bounds the footprint: `capacity` state slabs, full stop.

use std::collections::HashMap;
use std::hash::Hash;

/// A capacity-bounded map that evicts its least-recently-touched entry.
/// Every insert and [`Lru::touch`] stamps the entry with a fresh tick;
/// eviction removes the oldest stamp.
#[derive(Debug)]
pub(crate) struct Lru<K, V> {
    capacity: usize,
    tick: u64,
    entries: HashMap<K, (u64, V)>,
    evictions: u64,
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    /// An empty map holding at most `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            tick: 0,
            entries: HashMap::new(),
            evictions: 0,
        }
    }

    /// Inserts `value` under `key` as the most recent entry (an existing
    /// entry for `key` is replaced), evicting the least-recently-touched
    /// entry past capacity.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        self.entries.insert(key, (self.tick, value));
        while self.entries.len() > self.capacity {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(&k, _)| k)
                .expect("len > capacity implies non-empty");
            self.entries.remove(&oldest);
            self.evictions += 1;
        }
    }

    /// The entry under `key`, without touching its recency.
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|(_, v)| v)
    }

    /// The entry under `key`, made the most recent.
    pub(crate) fn touch(&mut self, key: &K) -> Option<&V> {
        let (tick, value) = self.entries.get_mut(key)?;
        self.tick += 1;
        *tick = self.tick;
        Some(value)
    }

    /// Removes and returns the entry under `key`.
    pub(crate) fn take(&mut self, key: &K) -> Option<V> {
        self.entries.remove(key).map(|(_, v)| v)
    }

    /// Entries right now (always `<= capacity`).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The configured bound.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries evicted by capacity pressure so far.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut lru = Lru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        // Re-inserting refreshes 1, so 3 evicts 2.
        lru.insert(1, 11);
        lru.insert(3, 30);
        assert_eq!((lru.len(), lru.evictions()), (2, 1));
        assert_eq!(
            (lru.get(&1), lru.get(&2), lru.get(&3)),
            (Some(&11), None, Some(&30))
        );
        // A touch refreshes too, a `get` does not: 4 now evicts 3.
        assert_eq!(lru.touch(&1), Some(&11));
        assert_eq!(lru.touch(&2), None);
        assert_eq!(lru.get(&3), Some(&30));
        lru.insert(4, 40);
        assert_eq!((lru.get(&1), lru.get(&3)), (Some(&11), None));
        // `take` consumes the entry.
        assert_eq!(lru.take(&1), Some(11));
        assert_eq!(lru.take(&1), None);
        assert_eq!((lru.len(), lru.evictions()), (1, 2));
    }

    #[test]
    fn capacity_is_a_hard_bound() {
        let mut lru = Lru::new(3);
        for key in 0..50u64 {
            lru.insert(key, key);
            assert!(lru.len() <= lru.capacity());
        }
        assert_eq!((lru.len(), lru.evictions()), (3, 47));
        // The survivors are exactly the three most recent.
        for key in 47..50 {
            assert_eq!(lru.get(&key), Some(&key));
        }
    }
}
