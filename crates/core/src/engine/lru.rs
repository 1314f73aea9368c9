//! The one bounded cache of the engine: the schedule cache
//! ([`schedule_for`](super::schedule::schedule_for)) and the session registry
//! ([`SessionRegistry`](super::serving::SessionRegistry)) are two instances of [`Lru`].
//!
//! Pochoir compiles a decomposition once and replays it (paper §3); both caches
//! memoize that compile step, at the level of a schedule and of a whole session, under
//! one contract:
//!
//! * **Exactly once per key.** Every key owns a once-cell slot.  The first lookup of a
//!   cold key runs `init` with no map lock held; concurrent lookups of the key block on
//!   the cell and share its value.
//! * **In-flight slots are never evicted**, so a lookup blocked on a cell never loses
//!   it.  A panicking `init` drops its slot and the panic propagates, so the next
//!   lookup runs `init` afresh instead of finding a wedged key.
//! * **Weights are read live.** The leaf budget charges every completed entry its
//!   [`Weigh::weight`] when the budget is enforced — after every lookup — so an entry
//!   whose weight grew since its last lookup is charged what it weighs now.
//! * **Eviction** drops least-recently-used entries until the entry cap and the leaf
//!   budget both hold, never the key just looked up and never an in-flight slot: a
//!   single over-budget entry stays (it is in use).  Eviction drops only the cache's
//!   `Arc`; holders keep theirs.
//!
//! Blocking on a cell inside a pool job is safe: `init` compiles serially, joins no
//! pool job and takes no once-cell of the same cache, so the initializing thread
//! finishes without help from any thread waiting on it (docs/serving.md, "Parallel
//! execution").

use crate::engine::faults::lock_recover;
use std::any::Any;
use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A cacheable value and its weight against the leaf budget.
pub(crate) trait Weigh: Any + Send + Sync {
    /// The value's current weight in base-case leaves, the dominant memory term.
    /// Read under the cache's lock, so it must not block: a session's pinned-leaf
    /// count is an atomic, never its pin-set mutex (held across whole compiles).
    fn weight(&self) -> usize;
}

/// Outcome of a cache lookup: the schedule cache's
/// [`schedule_for`](super::schedule::schedule_for) and the session registry's
/// [`get_or_compile`](super::serving::SessionRegistry::get_or_compile).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheLookup {
    /// Whether the value was served without compiling on this lookup.
    pub hit: bool,
    /// Entries evicted (LRU-first) by this lookup.
    pub evicted: u64,
}

/// Cumulative lookup counters of one [`Lru`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct LruCounts {
    /// Lookups served a value another lookup computed.
    pub hits: u64,
    /// Lookups whose `init` ran and returned (failed attempts are not counted).
    pub misses: u64,
    /// Entries evicted under the entry cap or the leaf budget.
    pub evictions: u64,
}

type Slot = Arc<OnceLock<Arc<dyn Weigh>>>;

struct Entry {
    slot: Slot,
    /// Clock reading of the entry's last lookup: the recency order.
    last_used: u64,
}

struct Table<K> {
    entries: HashMap<K, Entry>,
    /// Advances on every lookup.
    clock: u64,
}

impl<K: Clone + Eq + Hash> Table<K> {
    /// Removes the least recently used completed entry other than `keep` and returns
    /// its weight; `None` when every other entry is in flight.  The one eviction
    /// primitive behind both the entry cap and the leaf budget.
    fn evict_lru(&mut self, keep: &K) -> Option<usize> {
        let victim = self
            .entries
            .iter()
            .filter(|(key, entry)| *key != keep && entry.slot.get().is_some())
            .min_by_key(|(_, entry)| entry.last_used)
            .map(|(key, _)| key.clone())?;
        let entry = self.entries.remove(&victim)?;
        Some(entry.slot.get().map_or(0, |value| value.weight()))
    }
}

/// A least-recently-used cache bounded by an entry cap and a leaf budget, computing
/// each key's value exactly once (see the module docs for the full contract).
pub(crate) struct Lru<K> {
    table: Mutex<Table<K>>,
    capacity: AtomicUsize,
    /// Total weight the completed entries may carry.  A constant of each instance;
    /// tests raise it on an instance they own.
    pub(super) leaf_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Clone + Eq + Hash> Lru<K> {
    /// A cache of at most `capacity` entries (clamped to ≥ 1) and `leaf_budget` total
    /// weight.
    pub(crate) fn new(capacity: usize, leaf_budget: usize) -> Self {
        Lru {
            table: Mutex::new(Table {
                entries: HashMap::new(),
                clock: 0,
            }),
            capacity: AtomicUsize::new(capacity.max(1)),
            leaf_budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns `key`'s value, running `init` for it exactly once across concurrent
    /// lookups, then enforces the leaf budget.  A panic in `init` propagates after
    /// the key's slot is dropped.
    ///
    /// Keys must determine the value's type (the schedule and registry keys carry the
    /// dimensionality); a key that resolves to another type panics.
    pub(crate) fn get_or_init<V: Weigh>(
        &self,
        key: K,
        init: impl FnOnce() -> V,
    ) -> (Arc<V>, CacheLookup) {
        let (slot, mut evicted) = self.slot(&key);
        let mut ran = false;
        let resolved = catch_unwind(AssertUnwindSafe(|| {
            Arc::clone(slot.get_or_init(|| {
                ran = true;
                Arc::new(init()) as Arc<dyn Weigh>
            }))
        }));
        let value = match resolved {
            Ok(value) => value,
            Err(payload) => {
                self.forget_in_flight(&key, &slot);
                resume_unwind(payload)
            }
        };
        evicted += self.enforce_leaf_budget(&key);
        let counter = if ran { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        let value: Arc<dyn Any + Send + Sync> = value;
        let value = value
            .downcast::<V>()
            .unwrap_or_else(|_| panic!("a cache key resolved to a value of another type"));
        (value, CacheLookup { hit: !ran, evicted })
    }

    /// The slot for `key` and the number of entries evicted to make room.  A hit
    /// touches the entry; a cold key gets an empty slot once LRU entries beyond the
    /// entry cap are gone.
    fn slot(&self, key: &K) -> (Slot, u64) {
        let capacity = self.capacity.load(Ordering::Relaxed);
        let mut table = lock_recover(&self.table);
        table.clock += 1;
        let now = table.clock;
        if let Some(entry) = table.entries.get_mut(key) {
            entry.last_used = now;
            return (Arc::clone(&entry.slot), 0);
        }
        // With every entry in flight the cap is exceeded for now rather than break
        // exactly-once initialization.
        let mut evicted = 0;
        while table.entries.len() >= capacity && table.evict_lru(key).is_some() {
            evicted += 1;
        }
        let slot = Slot::default();
        table.entries.insert(
            key.clone(),
            Entry {
                slot: Arc::clone(&slot),
                last_used: now,
            },
        );
        (slot, evicted)
    }

    /// Drops `key`'s slot after its `init` panicked, unless another lookup has since
    /// replaced or completed it.
    fn forget_in_flight(&self, key: &K, slot: &Slot) {
        let mut table = lock_recover(&self.table);
        let stale = table
            .entries
            .get(key)
            .is_some_and(|entry| Arc::ptr_eq(&entry.slot, slot) && slot.get().is_none());
        if stale {
            table.entries.remove(key);
        }
    }

    /// Evicts LRU completed entries other than `current` until the live total weight
    /// fits the leaf budget; returns the number evicted.
    fn enforce_leaf_budget(&self, current: &K) -> u64 {
        let mut table = lock_recover(&self.table);
        let mut total: usize = table
            .entries
            .values()
            .filter_map(|entry| entry.slot.get())
            .map(|value| value.weight())
            .sum();
        let mut evicted = 0;
        while total > self.leaf_budget {
            let Some(weight) = table.evict_lru(current) else {
                break;
            };
            total = total.saturating_sub(weight);
            evicted += 1;
        }
        evicted
    }

    /// Drops `key`'s entry; returns whether it existed.
    pub(crate) fn remove(&self, key: &K) -> bool {
        lock_recover(&self.table).entries.remove(key).is_some()
    }

    /// Drops every entry (the counters are kept).
    pub(crate) fn clear(&self) {
        lock_recover(&self.table).entries.clear();
    }

    /// Number of entries, in-flight slots included.
    pub(crate) fn len(&self) -> usize {
        lock_recover(&self.table).entries.len()
    }

    /// Sets the entry cap (clamped to ≥ 1); takes effect on the next cold key.
    pub(crate) fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity.max(1), Ordering::Relaxed);
    }

    /// A snapshot of the cumulative counters.
    pub(crate) fn counts(&self) -> LruCounts {
        LruCounts {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// A value weighing `.0` leaves.
    struct Leaves(usize);
    impl Weigh for Leaves {
        fn weight(&self) -> usize {
            self.0
        }
    }

    fn lookup(lru: &Lru<i64>, key: i64, leaves: usize) -> (Arc<Leaves>, CacheLookup) {
        lru.get_or_init(key, || Leaves(leaves))
    }

    #[test]
    fn a_single_over_budget_entry_stays() {
        let lru = Lru::new(8, 5);
        let (a, first) = lookup(&lru, 1, 50);
        assert_eq!(first.evicted, 0);
        let (b, again) = lookup(&lru, 1, 50);
        assert!(again.hit && Arc::ptr_eq(&a, &b));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn a_panicking_init_leaves_no_wedged_slot() {
        let lru = Lru::new(1, usize::MAX);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            lru.get_or_init(7, || -> Leaves { panic!("compile failed") })
        }));
        assert!(panicked.is_err());
        assert_eq!(lru.len(), 0, "the failed slot is dropped");
        assert_eq!(
            lru.counts(),
            LruCounts::default(),
            "a failed attempt is no miss"
        );
        // The key initializes afresh, and capacity 1 can evict it again: nothing
        // in-flight is left behind to pin.
        let (value, look) = lookup(&lru, 7, 3);
        assert!(!look.hit);
        assert_eq!(value.0, 3);
        let (_, other) = lookup(&lru, 8, 3);
        assert_eq!(other.evicted, 1);
    }

    #[test]
    fn in_flight_slots_are_never_evicted() {
        // Capacity 1: while key 1 initializes, a lookup of key 2 may not evict it, so
        // the next lookup of key 1 still shares its one initialization.
        let lru = Lru::new(1, usize::MAX);
        let started = Barrier::new(2);
        let released = Barrier::new(2);
        std::thread::scope(|scope| {
            let slow = scope.spawn(|| {
                lru.get_or_init(1, || {
                    started.wait();
                    released.wait();
                    Leaves(1)
                })
            });
            started.wait();
            let (_, other) = lookup(&lru, 2, 1);
            assert_eq!(other.evicted, 0, "the in-flight slot is pinned");
            assert_eq!(lru.len(), 2, "the cap is exceeded rather than evict it");
            released.wait();
            let (first, _) = slow.join().unwrap();
            let (again, look) = lookup(&lru, 1, 99);
            assert!(look.hit);
            assert!(Arc::ptr_eq(&first, &again));
        });
    }
}
