//! Per-client incremental-SVD factor cache.
//!
//! The warm-start and low-rank update paths (see
//! [`svd_kernels::incremental`]) only pay off when the previous solve's
//! factors are still around by the time the client's next matrix
//! arrives. This module provides that residency layer for the serving
//! path:
//!
//! * **Per-client entries** — each [`FactorCacheEntry`] snapshots one
//!   client's previous matrix (the delta baseline), its recovered right
//!   basis `V` and spectrum `Σ` (the warm-start seed), the truncated
//!   factors (the Brand-update state), and how many warm solves have
//!   run since the last full recompute (the staleness counter).
//! * **Fingerprinting** — entries carry a content hash of the matrix
//!   they were computed from, so an unchanged resubmission is detected
//!   in O(mn) hashing without forming a delta.
//! * **LRU byte-budget eviction** — the cache charges each entry its
//!   full resident payload and evicts least-recently-used clients past
//!   the budget. The cache is a typed wrapper over the shared LRU
//!   primitive [`svd_kernels::lru::ByteLru`]. An evicted client simply
//!   takes the full-recompute path on its next update — eviction can
//!   never serve a stale basis.
//! * **Counters** — hit / miss / eviction / publish totals plus a
//!   windowed hit rate and per-client resident bytes surface through
//!   [`FactorCache::stats`] for the metrics report.

use serde::Serialize;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use svd_kernels::lru::{ByteLru, LruStats};
use svd_kernels::{Matrix, TruncatedSvd};

/// Identifier of a client whose incremental state the cache holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct ClientId(pub u64);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client-{}", self.0)
    }
}

/// Content hash of a matrix: shape plus the exact bit pattern of every
/// element. Two matrices fingerprint equal iff they are bit-identical,
/// which is exactly the "nothing changed, serve the cached factors"
/// fast path.
pub fn fingerprint_matrix(a: &Matrix<f32>) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    a.rows().hash(&mut h);
    a.cols().hash(&mut h);
    for &x in a.as_slice() {
        x.to_bits().hash(&mut h);
    }
    h.finish()
}

/// One client's cached incremental-SVD state: everything the update
/// router needs to classify the next matrix and run the warm-start or
/// low-rank fast path. Immutable behind an `Arc` — refreshes publish a
/// replacement entry, and in-flight updates pin whatever entry they
/// admitted against even if a republish or eviction replaces it.
#[derive(Debug, Clone)]
pub struct FactorCacheEntry {
    /// Which client this state belongs to.
    pub client: ClientId,
    /// [`fingerprint_matrix`] of `a_prev`.
    pub fingerprint: u64,
    /// The matrix the factors below were computed from — the baseline
    /// the next update's delta is measured against.
    pub a_prev: Matrix<f32>,
    /// Right singular basis of `a_prev` (the warm-start seed).
    pub v: Matrix<f32>,
    /// Singular values of `a_prev`, descending.
    pub sigma: Vec<f32>,
    /// Truncated factors of `a_prev` (the Brand-update state).
    pub truncated: TruncatedSvd<f32>,
    /// Warm/low-rank solves since the last full recompute — compared
    /// against [`svd_kernels::StalenessBound::max_warm_solves`].
    pub warm_solves_since_full: u32,
    /// Resident payload the cache charges for this entry.
    pub bytes: usize,
}

fn matrix_bytes(a: &Matrix<f32>) -> usize {
    std::mem::size_of_val(a.as_slice())
}

impl FactorCacheEntry {
    /// Builds an entry, computing its fingerprint and byte charge.
    pub fn new(
        client: ClientId,
        a_prev: Matrix<f32>,
        v: Matrix<f32>,
        sigma: Vec<f32>,
        truncated: TruncatedSvd<f32>,
        warm_solves_since_full: u32,
    ) -> Self {
        let fingerprint = fingerprint_matrix(&a_prev);
        let bytes = matrix_bytes(&a_prev)
            + matrix_bytes(&v)
            + sigma.len() * std::mem::size_of::<f32>()
            + truncated.approx_bytes();
        FactorCacheEntry {
            client,
            fingerprint,
            a_prev,
            v,
            sigma,
            truncated,
            warm_solves_since_full,
            bytes,
        }
    }

    /// `true` when `a` is bit-identical to the matrix this entry was
    /// computed from (the zero-delta fast path).
    pub fn matches(&self, a: &Matrix<f32>) -> bool {
        self.a_prev.rows() == a.rows()
            && self.a_prev.cols() == a.cols()
            && self.fingerprint == fingerprint_matrix(a)
    }
}

/// Resident bytes of one client (stats breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ClientBytes {
    /// The client.
    pub client: u64,
    /// Bytes its entry currently charges against the budget.
    pub bytes: u64,
}

/// Counter snapshot of a [`FactorCache`] (serialized into the serving
/// metrics report).
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct FactorCacheStats {
    /// Lookups that found a resident entry.
    pub hits: u64,
    /// Lookups for clients not resident (never published or evicted).
    pub misses: u64,
    /// Entries removed by the byte-budget LRU policy.
    pub evictions: u64,
    /// Entries published (first publishes and refreshes alike).
    pub publishes: u64,
    /// Bytes currently charged against the budget.
    pub resident_bytes: u64,
    /// Clients currently resident.
    pub resident_clients: u64,
    /// The configured byte budget.
    pub byte_budget: u64,
    /// Hit fraction over the window since the previous `stats()` call
    /// (0.0 when the window saw no lookups) — same windowed idiom as
    /// the serving throughput gauge.
    pub hit_rate_window: f64,
    /// Per-client resident bytes, ascending by client id.
    pub clients: Vec<ClientBytes>,
}

/// Thread-safe per-client factor cache with LRU byte-budget eviction,
/// a typed wrapper over [`svd_kernels::lru::ByteLru`] keyed by client
/// id and weighted by each entry's resident bytes (entries are
/// `Arc`-shared, so gets are O(1) pointer clones).
#[derive(Debug)]
pub struct FactorCache {
    lru: ByteLru<u64, FactorCacheEntry>,
}

impl FactorCache {
    /// Creates a cache that evicts least-recently-used clients once the
    /// resident payload exceeds `byte_budget` bytes. The most recently
    /// published client is always retained, even when its entry alone
    /// exceeds the budget — a cache that cannot hold the entry it was
    /// just handed would make every update a guaranteed miss.
    pub fn new(byte_budget: usize) -> Self {
        FactorCache {
            lru: ByteLru::new(byte_budget),
        }
    }

    /// Publishes `entry` as the client's current state, replacing any
    /// previous entry (in-flight readers holding the old `Arc` keep it
    /// alive until they finish) and evicting least-recently-used
    /// *other* clients while the cache exceeds its byte budget.
    pub fn publish(&self, entry: FactorCacheEntry) -> Arc<FactorCacheEntry> {
        let bytes = entry.bytes;
        self.lru.insert_with(entry.client.0, |_| (entry, bytes))
    }

    /// Looks up the client's resident entry, bumping its LRU stamp.
    /// Returns `None` (a recorded miss) when the client was never
    /// published or has been evicted — the caller then takes the full
    /// recompute path, so eviction can never serve a stale basis.
    pub fn get(&self, client: ClientId) -> Option<Arc<FactorCacheEntry>> {
        self.lru.get(&client.0)
    }

    /// Number of clients currently resident.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// One consistent counter snapshot that leaves the windowed
    /// hit-rate state untouched, so background readers diffing the
    /// counters on their own cadence — e.g. an autoscale controller —
    /// do not clobber the window [`stats`](Self::stats) reports to
    /// scrapes.
    pub fn totals(&self) -> LruStats {
        self.lru.totals()
    }

    /// Counter snapshot for the metrics path. Reading the snapshot
    /// closes the current hit-rate window and opens the next one.
    pub fn stats(&self) -> FactorCacheStats {
        let mut clients: Vec<ClientBytes> = self
            .lru
            .resident_weights()
            .into_iter()
            .map(|(client, bytes)| ClientBytes {
                client,
                bytes: bytes as u64,
            })
            .collect();
        clients.sort_by_key(|c| c.client);
        let s = self.lru.stats();
        // Resident totals come from the breakdown's snapshot, so the
        // per-client bytes always sum to them.
        FactorCacheStats {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            publishes: s.inserts,
            resident_bytes: clients.iter().map(|c| c.bytes).sum(),
            resident_clients: clients.len() as u64,
            byte_budget: s.budget,
            hit_rate_window: s.hit_rate_window,
            clients,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svd_kernels::{hestenes_jacobi, JacobiOptions};

    fn entry(client: u64, n: usize, scale: f32, warm_solves: u32) -> FactorCacheEntry {
        let a = Matrix::from_fn(n, n, |r, c| {
            scale * (((r * 31 + c * 7 + 3) % 13) as f32 / 6.0 - 1.0)
                + if r == c { 2.0 * scale } else { 0.0 }
        });
        let svd = hestenes_jacobi(
            &a,
            &JacobiOptions {
                precision: 1e-5,
                compute_v: true,
                adaptive: false,
                ..Default::default()
            },
        )
        .unwrap();
        let v = svd.v.clone().unwrap();
        let sigma = svd.sorted_singular_values();
        let truncated = svd.truncate(&a, (n / 2).max(1)).unwrap();
        FactorCacheEntry::new(ClientId(client), a, v, sigma, truncated, warm_solves)
    }

    #[test]
    fn publish_then_get_round_trips() {
        let cache = FactorCache::new(1 << 20);
        let e = entry(7, 8, 1.0, 0);
        let bytes = e.bytes;
        let published = cache.publish(e);
        let got = cache.get(ClientId(7)).unwrap();
        assert!(Arc::ptr_eq(&published, &got));
        assert!(got.matches(&published.a_prev));
        assert_eq!(got.warm_solves_since_full, 0);
        assert!(cache.get(ClientId(8)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.publishes), (1, 1, 1));
        assert_eq!(stats.resident_bytes, bytes as u64);
        assert_eq!(
            stats.clients,
            vec![ClientBytes {
                client: 7,
                bytes: bytes as u64
            }]
        );
    }

    #[test]
    fn fingerprint_detects_any_bit_change() {
        let e = entry(1, 8, 1.0, 0);
        let mut tweaked = e.a_prev.clone();
        assert!(e.matches(&tweaked));
        tweaked[(3, 5)] += 1e-7;
        assert!(!e.matches(&tweaked), "bit change must break the match");
        let smaller = Matrix::from_fn(4, 4, |r, c| e.a_prev[(r, c)]);
        assert!(!e.matches(&smaller), "shape change must break the match");
    }

    #[test]
    fn eviction_forces_full_recompute_not_a_stale_basis() {
        // The staleness property at the cache level: once evicted, a
        // client's basis is unreachable — `get` returns `None` and the
        // router must take the full path. The refreshed entry then
        // restarts the warm-solve counter from zero.
        let one = entry(0, 8, 1.0, 0).bytes;
        let cache = FactorCache::new(one);
        cache.publish(entry(1, 8, 1.0, 7));
        cache.publish(entry(2, 8, 1.0, 0)); // evicts client 1
        assert!(cache.get(ClientId(1)).is_none());
        let refreshed = cache.publish(entry(1, 8, 3.0, 0));
        assert_eq!(refreshed.warm_solves_since_full, 0);
    }

    #[test]
    fn per_client_bytes_sum_to_resident() {
        let cache = FactorCache::new(1 << 20);
        cache.publish(entry(3, 8, 1.0, 0));
        cache.publish(entry(1, 16, 1.0, 0));
        cache.publish(entry(2, 8, 2.0, 0));
        let stats = cache.stats();
        assert_eq!(stats.clients.len(), 3);
        let ids: Vec<u64> = stats.clients.iter().map(|c| c.client).collect();
        assert_eq!(ids, vec![1, 2, 3], "ascending by client id");
        let sum: u64 = stats.clients.iter().map(|c| c.bytes).sum();
        assert_eq!(sum, stats.resident_bytes);
    }
}
