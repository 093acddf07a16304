//! The fixed slot pool of per-sequence recurrent states.
//!
//! Because Mamba2's decode state is fixed-size (`LayerState` holds a conv
//! window plus the SSM hidden state, independent of sequence length),
//! admission control degenerates to slot counting: every resident
//! sequence costs the same, statically known number of bytes. This is
//! the contrast with paged-KV transformer serving, where admission must
//! reason about growing, length-dependent cache footprints.
//!
//! The same property makes *preemption* nearly free: pausing a resident
//! sequence is one fixed-size state copy out of its slot
//! ([`SlotPool::states`] → [`crate::backend::DecodeBackend::save_state`]),
//! after which the slot is released for urgent work; resuming copies the
//! snapshot back into any free slot. There is no KV cache to spill or
//! re-page, so the engine's preemptive policies treat pause/resume as an
//! ordinary scheduling move rather than a last resort.

use lightmamba_model::ModelState;

/// A fixed pool of `ModelState`s with O(1) slot alloc/free (allocation
/// zeroes the fixed-size state; no heap traffic after construction).
#[derive(Debug, Clone)]
pub struct SlotPool {
    states: Vec<ModelState>,
    free: Vec<usize>,
    in_use: Vec<bool>,
}

impl SlotPool {
    /// Builds a pool of `capacity` zeroed states shaped like `template`.
    /// Taking a state (not a model) keeps the pool backend-agnostic: any
    /// [`crate::backend::DecodeBackend`] whose states match the template
    /// can host sequences in this pool.
    pub fn new(template: &ModelState, capacity: usize) -> Self {
        SlotPool {
            states: (0..capacity)
                .map(|_| {
                    let mut s = template.clone();
                    s.reset();
                    s
                })
                .collect(),
            free: (0..capacity).rev().collect(),
            in_use: vec![false; capacity],
        }
    }

    /// Total slots.
    pub fn capacity(&self) -> usize {
        self.states.len()
    }

    /// Currently free slots.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Claims a slot, resetting its state for a fresh sequence. Returns
    /// `None` when the pool is exhausted.
    pub fn alloc(&mut self) -> Option<usize> {
        let slot = self.free.pop()?;
        self.in_use[slot] = true;
        self.states[slot].reset();
        Some(slot)
    }

    /// Returns a slot to the pool.
    ///
    /// # Panics
    ///
    /// Panics on double-free or out-of-range slots — both are engine
    /// bugs, not recoverable conditions.
    pub fn release(&mut self, slot: usize) {
        assert!(slot < self.capacity(), "slot {slot} out of range");
        assert!(self.in_use[slot], "double free of slot {slot}");
        self.in_use[slot] = false;
        self.free.push(slot);
    }

    /// The backing states, indexed by slot (the batched forward API
    /// takes this slice plus `(slot, token)` pairs).
    pub fn states_mut(&mut self) -> &mut [ModelState] {
        &mut self.states
    }

    /// Read-only view of the backing states — what
    /// [`crate::backend::DecodeBackend::save_state`] snapshots when the
    /// engine preempts a resident sequence (the slot itself is then
    /// released and may be rewound for another sequence; the snapshot
    /// owns the paused sequence's entire resident footprint).
    pub fn states(&self) -> &[ModelState] {
        &self.states
    }

    /// Bytes of recurrent state one slot keeps at `bits` bits/element —
    /// the per-sequence admission cost.
    pub fn state_bytes_per_slot(&self, bits: f64) -> f64 {
        self.states
            .first()
            .map(|s| s.total_state_bytes(bits))
            .unwrap_or(0.0)
    }

    /// Bytes across the whole pool at `bits` bits/element.
    pub fn total_state_bytes(&self, bits: f64) -> f64 {
        self.state_bytes_per_slot(bits) * self.capacity() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightmamba_model::MambaConfig;

    fn pool(capacity: usize) -> SlotPool {
        SlotPool::new(&ModelState::new(&MambaConfig::tiny()), capacity)
    }

    #[test]
    fn alloc_free_conserves_slots() {
        let mut p = pool(4);
        assert_eq!(p.free_count(), 4);
        let a = p.alloc().unwrap();
        let b = p.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(p.free_count(), 2);
        p.release(a);
        assert_eq!(p.free_count(), 3);
        let c = p.alloc().unwrap();
        assert_eq!(c, a, "LIFO reuse of the freed slot");
        assert_eq!(p.free_count(), p.capacity() - 2);
    }

    #[test]
    fn exhausted_pool_returns_none() {
        let mut p = pool(2);
        assert!(p.alloc().is_some());
        assert!(p.alloc().is_some());
        assert!(p.alloc().is_none());
    }

    #[test]
    fn alloc_resets_state() {
        let mut p = pool(1);
        let s = p.alloc().unwrap();
        p.states_mut()[s].layers[0].h[0] = 42.0;
        p.release(s);
        let s2 = p.alloc().unwrap();
        assert_eq!(s2, s);
        assert_eq!(p.states_mut()[s2].layers[0].h[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut p = pool(2);
        let s = p.alloc().unwrap();
        p.release(s);
        p.release(s);
    }

    #[test]
    fn state_bytes_accounting_is_per_slot_constant() {
        let p = pool(8);
        let per = p.state_bytes_per_slot(16.0);
        assert!(per > 0.0);
        assert_eq!(p.total_state_bytes(16.0), per * 8.0);
    }
}
