//! Modeled rank-r apply pipeline: `y = U_r·Σ_r·V_rᵀ·x` on the AIE array.
//!
//! Decompose-once / apply-constantly serving streams each inference
//! request through a three-kernel dataflow chain (the Mapping-Multiple-
//! LSTM-Models dataflow: KernelV → KernelS → KernelU), charged with the
//! same Eq. 8–14 timing decomposition the decompose path uses:
//!
//! * **PLIO-in** (Eq. 8) — the n-element input vector `x` streams PL→AIE
//!   through one PLIO port.
//! * **V stage** — `t = V_rᵀ·x`: r dot products of length n, spread
//!   round-robin over the `P_eng` engines (⌈r/P_eng⌉ waves of one
//!   streaming MAC pass each).
//! * **S stage** — `s = Σ_r·t`: one element-wise scaling pass over the r
//!   coefficients.
//! * **U stage** — `y = Σⱼ sⱼ·uⱼ`: r AXPYs of length m over the same
//!   `P_eng` engines, plus `min(P_eng, r) − 1` combining passes to
//!   reduce the per-engine partial outputs.
//! * **PLIO-out** (Eq. 8) — the m-element result `y` streams AIE→PL.
//!
//! Batches of applies share the array via the Eq. 14 system time
//! `⌈B / P_task⌉ · t_apply`. Like decompose timing, the apply timeline
//! is a pure function of `(m, n, r, P_eng, calibration, PL frequency)`,
//! so a [`ApplyProfileCache`] (a typed wrapper over the shared LRU
//! primitive [`svd_kernels::lru::ByteLru`]) memoizes one probe per shape
//! and replays it for every steady-state apply — O(1) instead of
//! O(r·(m + n)).

use crate::HeteroSvdError;
use aie_sim::calibration::Calibration;
use aie_sim::kernel::KernelCostModel;
use aie_sim::plio::PlioModel;
use aie_sim::stats::SimStats;
use aie_sim::time::{Frequency, TimePs};
use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};
use svd_kernels::lru::ByteLru;

/// The shape of one rank-r apply: factors of an m×n matrix truncated to
/// rank r.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ApplyShape {
    /// Rows m of the decomposed matrix (length of the output `y`).
    pub rows: usize,
    /// Columns n of the decomposed matrix (length of the input `x`).
    pub cols: usize,
    /// Retained rank r.
    pub rank: usize,
}

impl ApplyShape {
    /// Validates and builds a shape.
    ///
    /// # Errors
    ///
    /// [`HeteroSvdError::InvalidConfig`] when a dimension is zero or the
    /// rank exceeds `min(rows, cols)`.
    pub fn new(rows: usize, cols: usize, rank: usize) -> Result<Self, HeteroSvdError> {
        if rows == 0 || cols == 0 {
            return Err(HeteroSvdError::InvalidConfig(format!(
                "apply shape {rows}x{cols} has a zero dimension"
            )));
        }
        if rank == 0 || rank > rows.min(cols) {
            return Err(HeteroSvdError::InvalidConfig(format!(
                "apply rank {rank} outside 1..={}",
                rows.min(cols)
            )));
        }
        Ok(ApplyShape { rows, cols, rank })
    }
}

/// Per-stage timing of one rank-r apply, in the order the dataflow chain
/// visits the stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApplyTiming {
    /// Eq. 8 PLIO transfer of the n-element input vector.
    pub plio_in: TimePs,
    /// KernelV: `t = V_rᵀ·x` (⌈r/P_eng⌉ MAC-pass waves of length n).
    pub v_stage: TimePs,
    /// KernelS: `s = Σ_r·t` (one MAC pass of length r).
    pub s_stage: TimePs,
    /// KernelU: `y = Σ sⱼ·uⱼ` plus the partial-output reduction.
    pub u_stage: TimePs,
    /// Eq. 8 PLIO transfer of the m-element output vector.
    pub plio_out: TimePs,
    /// End-to-end apply latency (sum of the stages).
    pub total: TimePs,
}

impl ApplyTiming {
    /// Eq. 14 system time of a batch of `batch` applies sharing the
    /// array at task parallelism `p_task`: `⌈B / P_task⌉ · total`.
    pub fn system_time(&self, batch: usize, p_task: usize) -> TimePs {
        let waves = batch.div_ceil(p_task.max(1)) as u64;
        TimePs(self.total.0 * waves)
    }
}

/// One probed apply profile: the timing plus the resource-charging
/// stats of a single apply at its shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApplyProfile {
    /// The shape this profile was probed at.
    pub shape: ApplyShape,
    /// Per-stage timing.
    pub timing: ApplyTiming,
    /// Resource counters of one apply (PLIO bytes/busy, engine busy,
    /// MAC-pass invocations) for utilization reporting.
    pub stats: SimStats,
}

/// Analytic cost model of the apply dataflow chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApplyModel {
    plio: PlioModel,
    kernels: KernelCostModel,
    p_eng: usize,
    p_task: usize,
    pl_freq: Frequency,
    calibration: Calibration,
}

impl ApplyModel {
    /// Builds the model.
    ///
    /// # Errors
    ///
    /// [`HeteroSvdError::InvalidConfig`] when a parallelism knob is zero.
    pub fn new(
        p_eng: usize,
        p_task: usize,
        pl_freq: Frequency,
        calibration: Calibration,
    ) -> Result<Self, HeteroSvdError> {
        if p_eng == 0 || p_task == 0 {
            return Err(HeteroSvdError::InvalidConfig(
                "apply model requires P_eng >= 1 and P_task >= 1".into(),
            ));
        }
        Ok(ApplyModel {
            plio: PlioModel::new(calibration, pl_freq),
            kernels: KernelCostModel::new(calibration),
            p_eng,
            p_task,
            pl_freq,
            calibration,
        })
    }

    /// Builds the model from the knobs of an accelerator config (the
    /// serving path shares one calibration between decompose and apply).
    pub fn from_config(config: &crate::HeteroSvdConfig) -> Result<Self, HeteroSvdError> {
        ApplyModel::new(
            config.engine_parallelism,
            config.task_parallelism,
            config.pl_freq,
            config.calibration,
        )
    }

    /// Engine parallelism the stages are spread over.
    pub fn engine_parallelism(&self) -> usize {
        self.p_eng
    }

    /// Task parallelism of the Eq. 14 batch system time.
    pub fn task_parallelism(&self) -> usize {
        self.p_task
    }

    /// Simulates one apply at `shape`, charging every stage.
    ///
    /// The result is a pure function of `(shape, P_eng, calibration,
    /// PL frequency)`; [`ApplyProfileCache`] relies on this determinism
    /// to make replays exact.
    pub fn simulate(&self, shape: ApplyShape) -> ApplyProfile {
        let ApplyShape { rows, cols, rank } = shape;
        let elem = std::mem::size_of::<f32>();

        // Eq. 8 PLIO charges: one packetized stream per vector.
        let plio_in = self.plio.transfer_time(cols * elem, 1);
        let plio_out = self.plio.transfer_time(rows * elem, 1);

        // KernelV: r dot products of length n in ⌈r/P_eng⌉ waves.
        let v_waves = rank.div_ceil(self.p_eng) as u64;
        let v_pass = self.kernels.mac_pass_time(cols);
        let v_stage = TimePs(v_waves * v_pass.0);

        // KernelS: one scaling pass over the r coefficients.
        let s_stage = self.kernels.mac_pass_time(rank);

        // KernelU: r AXPYs of length m in ⌈r/P_eng⌉ waves, then the
        // per-engine partial outputs combine in min(P_eng, r) − 1
        // sequential passes.
        let u_waves = rank.div_ceil(self.p_eng) as u64;
        let u_pass = self.kernels.mac_pass_time(rows);
        let reduce_passes = (self.p_eng.min(rank) - 1) as u64;
        let u_stage = TimePs((u_waves + reduce_passes) * u_pass.0);

        let total = TimePs(plio_in.0 + v_stage.0 + s_stage.0 + u_stage.0 + plio_out.0);
        let timing = ApplyTiming {
            plio_in,
            v_stage,
            s_stage,
            u_stage,
            plio_out,
            total,
        };

        // Per-engine busy time sums the MAC passes each engine actually
        // runs; invocation counts feed the ops column of the
        // utilization report.
        let mac_invocations = rank as u64 + 1 + rank as u64 + reduce_passes;
        let engine_busy = rank as u64 * v_pass.0
            + self.kernels.mac_pass_time(rank).0
            + (rank as u64 + reduce_passes) * u_pass.0;
        let stats = SimStats {
            elapsed: total,
            plio_bytes_in: cols * elem,
            plio_bytes_out: rows * elem,
            plio_transfers: 2,
            plio_busy: TimePs(plio_in.0 + plio_out.0),
            norm_invocations: mac_invocations as usize,
            orth_busy: TimePs(engine_busy),
            iterations: 1,
            ..SimStats::default()
        };
        ApplyProfile {
            shape,
            timing,
            stats,
        }
    }
}

/// Cache key: the apply shape plus a fingerprint of every model knob the
/// timing depends on (`P_eng`, PL frequency, calibration). `P_task` is
/// deliberately excluded — it only scales the Eq. 14 batch system time,
/// not the per-apply profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ApplyProfileKey {
    shape: ApplyShape,
    fingerprint: u64,
}

impl ApplyProfileKey {
    /// Derives the profile key of `model` at `shape`.
    pub fn of(model: &ApplyModel, shape: ApplyShape) -> Self {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        model.p_eng.hash(&mut h);
        model.pl_freq.mhz().to_bits().hash(&mut h);
        serde_json::to_string(&model.calibration)
            .expect("calibration serializes infallibly")
            .hash(&mut h);
        ApplyProfileKey {
            shape,
            fingerprint: h.finish(),
        }
    }
}

/// LRU cache of apply profiles keyed per `(n, r, P_eng, calibration)`:
/// probe once, replay ever after. A typed wrapper over
/// [`svd_kernels::lru::ByteLru`] where every profile weighs 1 and the
/// budget is the capacity.
pub struct ApplyProfileCache {
    lru: ByteLru<ApplyProfileKey, ApplyProfile>,
}

impl ApplyProfileCache {
    /// Creates a cache retaining at most `capacity` profiles.
    pub fn new(capacity: usize) -> Self {
        ApplyProfileCache {
            lru: ByteLru::new(capacity.max(1)),
        }
    }

    /// Returns the cached profile for `model` at `shape`, probing (one
    /// live simulation) on first use. Replays are exact: the probe is a
    /// pure function of the key.
    pub fn get_or_probe(&self, model: &ApplyModel, shape: ApplyShape) -> Arc<ApplyProfile> {
        let key = ApplyProfileKey::of(model, shape);
        self.lru
            .get_or_try_insert_with(key, || Ok((model.simulate(shape), 1)))
            .unwrap_or_else(|never: Infallible| match never {})
    }

    /// How many profiles are resident.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// `true` when no profiles are cached.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// How many live probes `model`-at-`shape` has triggered (0 = never
    /// probed, 1 = probed once and replayed since).
    pub fn probes_for(&self, model: &ApplyModel, shape: ApplyShape) -> u64 {
        self.lru.inserts_of(&ApplyProfileKey::of(model, shape))
    }

    /// Counter snapshot for the metrics path.
    pub fn stats(&self) -> crate::plan_cache::CacheStats {
        self.lru.stats().into()
    }
}

/// Maximum apply profiles the process-wide cache retains. Each profile
/// is a few hundred bytes, so the cache comfortably covers every
/// (model, rank) pair a serving mix sweeps.
pub const GLOBAL_APPLY_PROFILE_CAPACITY: usize = 64;

/// The process-wide apply-profile cache the serving path uses.
pub fn global_profiles() -> &'static ApplyProfileCache {
    static GLOBAL: OnceLock<ApplyProfileCache> = OnceLock::new();
    GLOBAL.get_or_init(|| ApplyProfileCache::new(GLOBAL_APPLY_PROFILE_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(p_eng: usize) -> ApplyModel {
        ApplyModel::new(p_eng, 4, Frequency::from_mhz(208.3), Calibration::DEFAULT).unwrap()
    }

    fn shape(rows: usize, cols: usize, rank: usize) -> ApplyShape {
        ApplyShape::new(rows, cols, rank).unwrap()
    }

    #[test]
    fn shape_validation_rejects_degenerate_shapes() {
        assert!(ApplyShape::new(0, 4, 1).is_err());
        assert!(ApplyShape::new(4, 0, 1).is_err());
        assert!(ApplyShape::new(4, 4, 0).is_err());
        assert!(ApplyShape::new(8, 4, 5).is_err());
        assert!(ApplyShape::new(8, 4, 4).is_ok());
    }

    #[test]
    fn model_rejects_zero_parallelism() {
        assert!(ApplyModel::new(0, 4, Frequency::from_mhz(208.3), Calibration::DEFAULT).is_err());
        assert!(ApplyModel::new(2, 0, Frequency::from_mhz(208.3), Calibration::DEFAULT).is_err());
    }

    #[test]
    fn timing_sums_stages_and_charges_both_plio_directions() {
        let m = model(2);
        let p = m.simulate(shape(256, 128, 16));
        let t = p.timing;
        assert_eq!(
            t.total.0,
            t.plio_in.0 + t.v_stage.0 + t.s_stage.0 + t.u_stage.0 + t.plio_out.0
        );
        // Output vector (256 floats) outweighs the input (128 floats).
        assert!(t.plio_out > t.plio_in);
        assert_eq!(p.stats.plio_transfers, 2);
        assert_eq!(p.stats.plio_bytes_in, 128 * 4);
        assert_eq!(p.stats.plio_bytes_out, 256 * 4);
        assert_eq!(p.stats.elapsed, t.total);
        assert_eq!(p.stats.iterations, 1);
    }

    #[test]
    fn latency_grows_with_rank_and_shrinks_with_engines() {
        let m2 = model(2);
        let low = m2.simulate(shape(256, 256, 4)).timing.total;
        let high = m2.simulate(shape(256, 256, 32)).timing.total;
        assert!(high > low, "rank 32 {high:?} <= rank 4 {low:?}");

        let m8 = model(8);
        let wide = m8.simulate(shape(256, 256, 32)).timing.total;
        assert!(wide < high, "P_eng 8 {wide:?} >= P_eng 2 {high:?}");
    }

    #[test]
    fn system_time_follows_eq14() {
        let m = model(2);
        let t = m.simulate(shape(128, 64, 8)).timing;
        assert_eq!(t.system_time(1, 4), t.total);
        assert_eq!(t.system_time(4, 4), t.total);
        assert_eq!(t.system_time(5, 4).0, 2 * t.total.0);
        assert_eq!(t.system_time(8, 2).0, 4 * t.total.0);
    }

    #[test]
    fn simulate_is_deterministic() {
        let m = model(4);
        let s = shape(512, 256, 24);
        assert_eq!(m.simulate(s), m.simulate(s));
    }

    #[test]
    fn profile_cache_probes_once_and_replays_exactly() {
        let cache = ApplyProfileCache::new(8);
        let m = model(2);
        let s = shape(256, 128, 16);
        let first = cache.get_or_probe(&m, s);
        let second = cache.get_or_probe(&m, s);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.probes_for(&m, s), 1);
        // Replay invariance: the cached profile equals a live simulation.
        assert_eq!(*first, m.simulate(s));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn profile_cache_splits_on_engine_count_but_not_task_count() {
        let cache = ApplyProfileCache::new(8);
        let s = shape(128, 64, 8);
        let a = cache.get_or_probe(&model(2), s);
        let b = cache.get_or_probe(&model(4), s);
        assert!(!Arc::ptr_eq(&a, &b));
        // Same P_eng, different P_task: shared profile.
        let c = cache.get_or_probe(
            &ApplyModel::new(2, 9, Frequency::from_mhz(208.3), Calibration::DEFAULT).unwrap(),
            s,
        );
        assert!(Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn utilization_report_accepts_apply_stats() {
        use crate::obs::{ResourceCounts, UtilizationReport};
        let m = model(2);
        let p = m.simulate(shape(256, 128, 16));
        let report = UtilizationReport::from_stats(
            &p.stats,
            ResourceCounts {
                plio_ports: 2,
                aie_cores: 2,
                dma_channels: 0,
                ddr_controllers: 0,
            },
        );
        // PLIO and the engines saw work; DMA/DDR safely report zero.
        let by_name = |name: &str| {
            report
                .resources
                .iter()
                .find(|r| r.kind.name() == name)
                .unwrap()
                .busy_fraction
        };
        assert!(by_name("plio") > 0.0);
        assert!(by_name("aie_core") > 0.0);
        assert_eq!(by_name("dma"), 0.0);
        assert_eq!(by_name("ddr"), 0.0);
    }
}
