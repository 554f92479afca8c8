//! The weighted LRU map under every cache of the serving stack: the
//! plan and apply-profile caches (`heterosvd::plan_cache`,
//! `heterosvd::apply`), the per-client factor cache
//! (`heterosvd::factor_cache`) and the versioned factor store
//! (`factor_store`) are thin typed wrappers over [`ByteLru`].
//!
//! * **Weights.** Each entry weighs its resident bytes in the
//!   byte-budgeted caches and 1 in the count-bounded ones. An insert
//!   evicts least-recently-used *other* keys while the resident weight
//!   exceeds the budget; the key just inserted is never evicted.
//! * **O(log n) eviction.** Every access restamps its entry with a
//!   unique clock tick, and a `BTreeMap` from stamp to key keeps the
//!   recency order, so the victim is the first entry of that index.
//! * **Insert sequence.** A per-key insert counter survives eviction:
//!   it is the factor store's version and the plan cache's build count.
//! * **Counters.** Plain `u64`s under the map's mutex, so every snapshot
//!   is consistent. [`ByteLru::stats`] closes the hit-rate window;
//!   [`ByteLru::totals`] (used by `Debug`) leaves it open.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};

/// Counter snapshot of a [`ByteLru`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LruStats {
    /// Lookups that found a resident entry.
    pub hits: u64,
    /// Lookups whose key was not resident (never inserted or evicted).
    pub misses: u64,
    /// Entries removed by the budget.
    pub evictions: u64,
    /// Inserts, first inserts and replacements alike.
    pub inserts: u64,
    /// Entries currently resident.
    pub resident: u64,
    /// Total weight currently charged against the budget.
    pub resident_weight: u64,
    /// The configured budget.
    pub budget: u64,
    /// Hit fraction over the window since the previous
    /// [`ByteLru::stats`] call (0.0 when the window saw no lookups).
    pub hit_rate_window: f64,
}

struct Entry<V> {
    value: Arc<V>,
    weight: usize,
    stamp: u64,
}

struct Inner<K, V> {
    entries: HashMap<K, Entry<V>>,
    /// stamp -> key, ascending stamp = least recently used first.
    recency: BTreeMap<u64, K>,
    /// Inserts per key; never pruned, so the sequence survives eviction.
    insert_seq: HashMap<K, u64>,
    resident_weight: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    inserts: u64,
    /// (hits, lookups) at the start of the current hit-rate window.
    window: (u64, u64),
}

impl<K: Eq + Hash + Clone, V> Inner<K, V> {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Looks `key` up, restamping it on a hit and counting the outcome.
    fn lookup(&mut self, key: &K) -> Option<Arc<V>> {
        let stamp = self.tick();
        match self.entries.get_mut(key) {
            Some(entry) => {
                self.recency.remove(&entry.stamp);
                self.recency.insert(stamp, key.clone());
                entry.stamp = stamp;
                self.hits += 1;
                Some(Arc::clone(&entry.value))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: K, value: Arc<V>, weight: usize, budget: usize) {
        *self.insert_seq.entry(key.clone()).or_insert(0) += 1;
        let stamp = self.tick();
        self.recency.insert(stamp, key.clone());
        let entry = Entry {
            value,
            weight,
            stamp,
        };
        if let Some(old) = self.entries.insert(key.clone(), entry) {
            self.recency.remove(&old.stamp);
            self.resident_weight -= old.weight;
        }
        self.resident_weight += weight;
        self.inserts += 1;
        while self.resident_weight > budget && self.entries.len() > 1 {
            // The key just inserted holds the newest stamp, so the
            // oldest other key is at most one step into the index.
            let Some((&stamp, _)) = self.recency.iter().find(|(_, k)| **k != key) else {
                break;
            };
            let victim = self.recency.remove(&stamp).expect("stamp just found");
            let evicted = self
                .entries
                .remove(&victim)
                .expect("indexed key is resident");
            self.resident_weight -= evicted.weight;
            self.evictions += 1;
        }
    }

    fn snapshot(&self, budget: usize) -> LruStats {
        let (hits0, lookups0) = self.window;
        let lookups = self.hits + self.misses - lookups0;
        let hit_rate_window = if lookups == 0 {
            0.0
        } else {
            (self.hits - hits0) as f64 / lookups as f64
        };
        LruStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            inserts: self.inserts,
            resident: self.entries.len() as u64,
            resident_weight: self.resident_weight as u64,
            budget: budget as u64,
            hit_rate_window,
        }
    }
}

/// Thread-safe LRU map from `K` to `Arc<V>` bounded by a total weight.
/// One mutex guards the map, the recency index and the counters; a hit
/// is an O(1) `Arc` clone, and readers pinning an evicted or replaced
/// value keep it alive until they drop it.
pub struct ByteLru<K, V> {
    budget: usize,
    inner: Mutex<Inner<K, V>>,
}

impl<K: Eq + Hash + Clone, V> std::fmt::Debug for ByteLru<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByteLru")
            .field("totals", &self.totals())
            .finish()
    }
}

impl<K: Eq + Hash + Clone, V> ByteLru<K, V> {
    /// Creates a cache that evicts least-recently-used entries once the
    /// resident weight exceeds `budget`.
    pub fn new(budget: usize) -> Self {
        ByteLru {
            budget,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                recency: BTreeMap::new(),
                insert_seq: HashMap::new(),
                resident_weight: 0,
                clock: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                inserts: 0,
                window: (0, 0),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.inner
            .lock()
            .expect("a thread panicked while holding the LRU lock")
    }

    /// Looks up `key`, marking it most recently used. Counts a hit, or
    /// a miss when the key is not resident.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        self.lock().lookup(key)
    }

    /// Inserts the value `build(seq)` returns, together with its weight,
    /// as `key`'s entry, replacing any previous one. `seq` is the key's
    /// 1-based insert sequence number, which continues across evictions.
    /// Least-recently-used *other* keys are then evicted while the
    /// resident weight exceeds the budget.
    pub fn insert_with(&self, key: K, build: impl FnOnce(u64) -> (V, usize)) -> Arc<V> {
        let mut inner = self.lock();
        let seq = inner.insert_seq.get(&key).map_or(1, |seq| seq + 1);
        let (value, weight) = build(seq);
        let value = Arc::new(value);
        inner.insert(key, Arc::clone(&value), weight, self.budget);
        value
    }

    /// Returns `key`'s entry (a hit), or counts a miss and inserts what
    /// `build` returns. The build runs under the lock, so concurrent
    /// callers missing on one key trigger exactly one build. A failed
    /// build caches nothing.
    ///
    /// # Errors
    ///
    /// Propagates the error `build` returns.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<(V, usize), E>,
    ) -> Result<Arc<V>, E> {
        let mut inner = self.lock();
        if let Some(value) = inner.lookup(&key) {
            return Ok(value);
        }
        let (value, weight) = build()?;
        let value = Arc::new(value);
        inner.insert(key, Arc::clone(&value), weight, self.budget);
        Ok(value)
    }

    /// `key`'s resident value without touching its recency or counting
    /// a lookup.
    pub fn peek(&self, key: &K) -> Option<Arc<V>> {
        self.lock().entries.get(key).map(|e| Arc::clone(&e.value))
    }

    /// How many times `key` has been inserted (0 = never). The count
    /// survives eviction.
    pub fn inserts_of(&self, key: &K) -> u64 {
        self.lock().insert_seq.get(key).copied().unwrap_or(0)
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every resident key with its weight, in no particular order.
    pub fn resident_weights(&self) -> Vec<(K, usize)> {
        self.lock()
            .entries
            .iter()
            .map(|(k, e)| (k.clone(), e.weight))
            .collect()
    }

    /// Counter snapshot that leaves the hit-rate window open:
    /// `hit_rate_window` reads the window so far.
    pub fn totals(&self) -> LruStats {
        self.lock().snapshot(self.budget)
    }

    /// Counter snapshot for the metrics path. Reading it closes the
    /// current hit-rate window and opens the next one.
    pub fn stats(&self) -> LruStats {
        let mut inner = self.lock();
        let stats = inner.snapshot(self.budget);
        inner.window = (inner.hits, inner.hits + inner.misses);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used_others_and_keeps_the_newest() {
        let lru = ByteLru::new(2);
        lru.insert_with(1u64, |seq| (seq, 1));
        lru.insert_with(2, |seq| (seq, 1));
        lru.get(&1).unwrap(); // key 2 is now the LRU
        lru.insert_with(3, |seq| (seq, 1));
        assert!(lru.peek(&1).is_some() && lru.peek(&3).is_some());
        assert!(lru.peek(&2).is_none(), "LRU key evicted");
        // An entry heavier than the whole budget evicts every other key
        // but stays resident itself.
        lru.insert_with(4, |seq| (seq, 10));
        assert_eq!(lru.resident_weights(), vec![(4, 10)]);
        assert_eq!(lru.totals().evictions, 3);
    }

    #[test]
    fn stats_window_tracks_recent_hit_rate() {
        let lru = ByteLru::new(8);
        lru.insert_with(1u64, |seq| (seq, 1));
        lru.get(&1).unwrap(); // hit
        assert!(lru.get(&2).is_none()); // miss

        // totals reads the open window without closing it.
        assert_eq!(lru.totals().hit_rate_window, 0.5);
        assert_eq!(lru.stats().hit_rate_window, 0.5);
        // The window restarts: an all-hit stretch reads 1.0 even though
        // the lifetime rate is 3/4.
        lru.get(&1).unwrap();
        lru.get(&1).unwrap();
        let second = lru.stats();
        assert_eq!(second.hit_rate_window, 1.0);
        assert_eq!((second.hits, second.misses), (3, 1));
        // An empty window reads 0.0, not NaN.
        assert_eq!(lru.stats().hit_rate_window, 0.0);
    }

    #[test]
    fn concurrent_gets_and_inserts_keep_the_ledger() {
        let lru = ByteLru::new(3);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let lru = &lru;
                s.spawn(move || {
                    for i in 0..50 {
                        if i % 10 == 0 {
                            lru.insert_with(t, |seq| (seq, 1));
                        }
                        lru.get(&(t % 2));
                    }
                });
            }
        });
        let stats = lru.stats();
        assert_eq!((stats.inserts, stats.hits + stats.misses), (4 * 5, 4 * 50));
        assert!(stats.resident <= 3 && stats.resident == stats.resident_weight);
    }
}
