//! Versioned, byte-budgeted store of truncated SVD factors.
//!
//! A decompose-rarely / apply-constantly serving system keeps the rank-r
//! factors (U_r, Σ_r, V_r) of each client model resident between
//! requests. This crate provides that residency layer:
//!
//! * **Versioning** — each successful decompose publishes a new immutable
//!   [`PublishedFactors`] version behind an `Arc`. Readers clone the
//!   `Arc` and never block writers; in-flight applies pin whatever
//!   version they admitted against even if a republish or eviction
//!   replaces it mid-flight.
//! * **LRU byte-budget eviction** — the store charges each model its
//!   factor payload ([`svd_kernels::TruncatedSvd::approx_bytes`]) and
//!   evicts least-recently-used models when the total exceeds the
//!   budget. The store is a typed wrapper over the shared LRU primitive
//!   [`svd_kernels::lru::ByteLru`], which evicts in O(log n).
//! * **Accuracy metadata** — every version carries the retained-energy
//!   fraction and tail singular value of its truncation, so serving can
//!   report how lossy each model's compression is.
//! * **Counters** — hit / miss / eviction / publish totals surface
//!   through [`FactorStore::stats`] for the metrics path.

#![warn(missing_docs)]

use serde::Serialize;
use std::sync::Arc;
use svd_kernels::lru::ByteLru;
use svd_kernels::TruncatedSvd;

/// Identifier of a client model whose factors the store holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct ModelId(pub u64);

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model-{}", self.0)
    }
}

/// Rank / accuracy metadata attached to a published factor version.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FactorMeta {
    /// Row count `m` of the decomposed matrix.
    pub rows: usize,
    /// Column count `n` of the decomposed matrix.
    pub cols: usize,
    /// Retained rank `r`.
    pub rank: usize,
    /// First discarded singular value `σ_{r+1}` (Eckart–Young spectral
    /// error of the truncation; zero at full rank).
    pub tail_sigma: f32,
    /// Fraction of squared Frobenius energy the truncation keeps.
    pub retained_energy: f64,
    /// Resident payload the store charges for this version.
    pub bytes: usize,
}

/// One immutable published version of a model's truncated factors.
#[derive(Debug, Clone, PartialEq)]
pub struct PublishedFactors {
    /// Which model this version belongs to.
    pub model: ModelId,
    /// Monotonic per-model version number, starting at 1. The counter
    /// survives eviction: re-publishing an evicted model continues the
    /// sequence rather than restarting it.
    pub version: u64,
    /// The rank-r factors served for this version.
    pub factors: TruncatedSvd<f32>,
    /// Rank / accuracy metadata of the truncation.
    pub meta: FactorMeta,
}

/// Counter snapshot of a [`FactorStore`] (serialized into the serving
/// metrics report).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct FactorStoreStats {
    /// Lookups that found a resident version.
    pub hits: u64,
    /// Lookups for models not resident (never published or evicted).
    pub misses: u64,
    /// Models removed by the byte-budget LRU policy.
    pub evictions: u64,
    /// Versions published.
    pub publishes: u64,
    /// Bytes currently charged against the budget.
    pub resident_bytes: u64,
    /// Models currently resident.
    pub resident_models: u64,
    /// The configured byte budget.
    pub byte_budget: u64,
    /// Hit fraction over the window since the previous
    /// [`FactorStore::stats`] call (0.0 when the window saw no
    /// lookups). Lifetime totals above never reset; this windowed view
    /// is what an autoscaler or dashboard should watch — the same
    /// idiom as the serving throughput gauge.
    pub hit_rate_window: f64,
}

/// Thread-safe versioned store of truncated factors with LRU
/// byte-budget eviction, a typed wrapper over
/// [`svd_kernels::lru::ByteLru`] keyed by model id and weighted by
/// factor payload bytes. Factor payloads are `Arc`-shared, so gets are
/// O(1) pointer clones and publishes never copy factor data under the
/// lock.
#[derive(Debug)]
pub struct FactorStore {
    lru: ByteLru<u64, PublishedFactors>,
}

impl FactorStore {
    /// Creates a store that evicts least-recently-used models once the
    /// resident factor payload exceeds `byte_budget` bytes. The most
    /// recently published model is always retained, even when it alone
    /// exceeds the budget — a store that cannot hold the model it was
    /// just asked to serve would livelock the decompose-publish path.
    pub fn new(byte_budget: usize) -> Self {
        FactorStore {
            lru: ByteLru::new(byte_budget),
        }
    }

    /// Publishes `factors` as the next version of `model`, returning the
    /// immutable published handle. The previous version (if any) is
    /// unlinked immediately — in-flight readers holding its `Arc` keep
    /// it alive until they finish — and least-recently-used *other*
    /// models are evicted while the store exceeds its byte budget.
    pub fn publish(&self, model: ModelId, factors: TruncatedSvd<f32>) -> Arc<PublishedFactors> {
        let bytes = factors.approx_bytes();
        let meta = FactorMeta {
            rows: factors.rows(),
            cols: factors.cols(),
            rank: factors.rank(),
            tail_sigma: factors.tail_sigma,
            retained_energy: factors.retained_energy,
            bytes,
        };
        self.lru.insert_with(model.0, |version| {
            let published = PublishedFactors {
                model,
                version,
                factors,
                meta,
            };
            (published, bytes)
        })
    }

    /// Looks up the latest resident version of `model`, bumping its LRU
    /// stamp. Returns `None` (a recorded miss) when the model was never
    /// published or has been evicted.
    pub fn get(&self, model: ModelId) -> Option<Arc<PublishedFactors>> {
        self.lru.get(&model.0)
    }

    /// Latest published version number of `model`, if resident.
    pub fn version_of(&self, model: ModelId) -> Option<u64> {
        self.lru.peek(&model.0).map(|p| p.version)
    }

    /// Number of models currently resident.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the store holds no models.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Counter snapshot for the metrics path. Reading the snapshot
    /// closes the current hit-rate window and opens the next one.
    pub fn stats(&self) -> FactorStoreStats {
        let s = self.lru.stats();
        FactorStoreStats {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            publishes: s.inserts,
            resident_bytes: s.resident_weight,
            resident_models: s.resident,
            byte_budget: s.budget,
            hit_rate_window: s.hit_rate_window,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svd_kernels::{hestenes_jacobi, JacobiOptions, Matrix};

    fn factors(m: usize, n: usize, rank: usize, seed: u64) -> TruncatedSvd<f32> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0f32..1.0));
        let svd = hestenes_jacobi(
            &a,
            &JacobiOptions {
                precision: 1e-5,
                compute_v: false,
                ..Default::default()
            },
        )
        .unwrap();
        svd.truncate(&a, rank).unwrap()
    }

    #[test]
    fn publish_then_get_round_trips() {
        let store = FactorStore::new(1 << 20);
        let f = factors(8, 4, 2, 1);
        let published = store.publish(ModelId(7), f.clone());
        assert_eq!(published.version, 1);
        assert_eq!(published.meta.rank, 2);
        assert_eq!(published.meta.bytes, f.approx_bytes());
        let got = store.get(ModelId(7)).unwrap();
        assert!(Arc::ptr_eq(&published, &got));
        assert!(store.get(ModelId(8)).is_none());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.publishes), (1, 1, 1));
        assert_eq!(stats.resident_models, 1);
        assert_eq!(stats.resident_bytes, f.approx_bytes() as u64);
    }

    #[test]
    fn republish_bumps_version_and_keeps_old_readers_alive() {
        let store = FactorStore::new(1 << 20);
        let v1 = store.publish(ModelId(1), factors(8, 4, 2, 1));
        let v2 = store.publish(ModelId(1), factors(8, 4, 3, 2));
        assert_eq!((v1.version, v2.version), (1, 2));
        // The store serves the newest version...
        assert_eq!(store.get(ModelId(1)).unwrap().version, 2);
        // ...while the pinned v1 Arc still resolves (readers never block
        // or see freed data).
        assert_eq!(v1.meta.rank, 2);
        assert_eq!(store.stats().resident_models, 1);
    }

    #[test]
    fn version_counter_survives_eviction() {
        let f = factors(8, 4, 2, 1);
        let budget = f.approx_bytes(); // exactly one model fits
        let store = FactorStore::new(budget);
        store.publish(ModelId(1), f.clone());
        store.publish(ModelId(2), factors(8, 4, 2, 2)); // evicts model 1
        assert!(store.get(ModelId(1)).is_none());
        let republished = store.publish(ModelId(1), f);
        assert_eq!(republished.version, 2, "version continues after eviction");
    }

    #[test]
    fn debug_output_leaves_the_hit_rate_window_open() {
        let store = FactorStore::new(1 << 20);
        store.publish(ModelId(1), factors(8, 4, 2, 1));
        store.get(ModelId(1)).unwrap(); // hit
        let printed = format!("{store:?}");
        assert!(printed.contains("hits: 1"), "{printed}");
        assert!(store.get(ModelId(2)).is_none()); // miss
        assert_eq!(store.stats().hit_rate_window, 0.5);
    }
}
