//! Hot-path microbenchmark: the orthogonalization sweep before and
//! after the PR-2 optimizations.
//!
//! Three variants run the same functional workload (one full
//! round-robin sweep over every block pair):
//!
//! * **baseline** — a frozen copy of the pre-optimization
//!   `OrthPipeline`: scalar (non-chunked) rotation kernels, per-pass
//!   `pair_columns` allocation, per-layer `pairs_by_slot` clones and
//!   fresh scratch `Vec`s, and a private `Placement::plan` per pipeline.
//! * **optimized-serial** — the current pipeline (hoisted scratch,
//!   chunked 8-lane kernels, shared [`heterosvd::PlanHandle`]).
//! * **round-parallel** — the current pipeline with a helper lent from
//!   a one-worker [`BatchPool`]: each round's passes split between two
//!   threads. Its checksum must equal optimized-serial's.
//!
//! Reported per variant: mean ns per block-pair pass, full sweeps per
//! second, heap allocations per pass (from a counting allocator the
//! calling binary installs), and a matrix checksum after the measured
//! sweeps.

use heterosvd::orth_pipeline::OrthPipeline;
use heterosvd::{BatchPool, HeteroSvdConfig, HeteroSvdError, Placement, PlanHandle, PlioPlan};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use aie_sim::dma::DmaModel;
use aie_sim::kernel::KernelCostModel;
use aie_sim::pl::PlModel;
use aie_sim::plio::{PlioDirection, PlioModel};
use aie_sim::stats::SimStats;
use aie_sim::time::TimePs;
use aie_sim::timeline::Timeline;
use svd_kernels::block::{BlockPairSchedule, BlockPartition};
use svd_kernels::rotation::orthogonalize_pair_gated_scalar;
use svd_kernels::Matrix;
use svd_orderings::movement::{classify, AccessKind, Movement};
use svd_orderings::HardwareSchedule;

/// Counting [`GlobalAlloc`] for the binaries that drive this benchmark.
///
/// Delegates to [`System`] and counts every `alloc`/`realloc`; install
/// with `#[global_allocator]` and pass `&|| ALLOC.count()` to [`run`] so
/// allocations-per-pass can be reported.
pub struct CountingAllocator {
    count: AtomicU64,
}

impl CountingAllocator {
    /// A fresh zero-count allocator (const so it can back a static).
    pub const fn new() -> Self {
        CountingAllocator {
            count: AtomicU64::new(0),
        }
    }

    /// Allocations (plus reallocations) observed so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        CountingAllocator::new()
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// One measured variant of the sweep hot path.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct HotpathRow {
    /// `baseline`, `optimized-serial` or `round-parallel`.
    pub variant: String,
    /// Mean wall-clock nanoseconds per block-pair pass.
    pub ns_per_pass: f64,
    /// Full round-robin sweeps per second.
    pub sweeps_per_sec: f64,
    /// Heap allocations per pass during the measured sweeps.
    pub allocations_per_pass: f64,
    /// Sum of all matrix entries after the measured sweeps.
    pub checksum: f64,
}

/// The complete hot-path report (serialized to `BENCH_hotpath.json`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct HotpathReport {
    /// Matrix dimension of the workload (n×n).
    pub n: usize,
    /// Engine parallelism `P_eng` (k orth-AIEs per layer).
    pub p_eng: usize,
    /// Block-pair passes in one full sweep.
    pub passes_per_sweep: usize,
    /// Measured sweeps per variant (after one warm-up sweep).
    pub measured_sweeps: usize,
    /// One row per measured variant.
    pub results: Vec<HotpathRow>,
    /// `baseline.ns_per_pass / optimized-serial.ns_per_pass`.
    pub speedup_serial: f64,
    /// `optimized-serial.ns_per_pass / round-parallel.ns_per_pass`.
    pub speedup_round_parallel: f64,
}

impl HotpathReport {
    /// Whether the round-parallel sweeps left the matrix bit for bit
    /// where the serial ones did.
    pub fn round_parallel_identical(&self) -> bool {
        let checksum = |variant: &str| {
            self.results
                .iter()
                .find(|r| r.variant == variant)
                .map(|r| r.checksum.to_bits())
        };
        checksum("optimized-serial").is_some()
            && checksum("optimized-serial") == checksum("round-parallel")
    }
}

fn test_matrix(n: usize) -> Matrix<f32> {
    Matrix::from_fn(n, n, |r, c| {
        (((r * 31 + c * 17 + 3) % 13) as f32) / 3.0 - 2.0 + if r == c { 2.0 } else { 0.0 }
    })
}

fn checksum(b: &Matrix<f32>) -> f64 {
    b.as_slice().iter().map(|&x| x as f64).sum()
}

fn config(n: usize, p_eng: usize) -> Result<HeteroSvdConfig, HeteroSvdError> {
    HeteroSvdConfig::builder(n, n)
        .engine_parallelism(p_eng)
        .pl_freq_mhz(208.3)
        .build()
}

/// Measures both variants on an `n×n` functional workload and
/// returns the report. `alloc_count` reads the calling binary's
/// [`CountingAllocator`] (pass `&|| 0` to skip allocation accounting).
pub fn run(
    n: usize,
    p_eng: usize,
    measured_sweeps: usize,
    alloc_count: &dyn Fn() -> u64,
) -> Result<HotpathReport, HeteroSvdError> {
    assert!(measured_sweeps > 0, "need at least one measured sweep");
    let cfg = config(n, p_eng)?;
    let passes_per_sweep = {
        let p = BlockPartition::new(n, p_eng)
            .expect("validated")
            .num_blocks();
        BlockPairSchedule::round_robin(p).iter().count()
    };

    let mut results = Vec::with_capacity(3);
    let measure = |variant: &str, sweep: &mut dyn FnMut(&mut Matrix<f32>)| {
        let mut b = test_matrix(n);
        sweep(&mut b); // warm-up
        let allocs_before = alloc_count();
        let start = Instant::now();
        for _ in 0..measured_sweeps {
            sweep(&mut b);
        }
        let elapsed = start.elapsed();
        row(
            variant,
            elapsed,
            measured_sweeps,
            passes_per_sweep,
            alloc_count() - allocs_before,
            checksum(&b),
        )
    };
    let floor_sq = test_matrix(n).column_norm_floor_sq();

    // ---- Baseline: frozen pre-optimization pipeline. ----
    let placement = Placement::plan(&cfg)?;
    let mut baseline = BaselinePipeline::new(&cfg, &placement);
    baseline.set_norm_floor_sq(floor_sq);
    results.push(measure("baseline", &mut |b| baseline.run_iteration(b)));

    // ---- Optimized serial. ----
    let plan = PlanHandle::build(&cfg)?;
    let mut serial = OrthPipeline::new(&cfg, &plan);
    serial.set_norm_floor_sq(floor_sq);
    results.push(measure("optimized-serial", &mut |b| {
        serial.run_iteration(b);
    }));

    // ---- Round-parallel: the same pipeline plus a lent helper. ----
    let pool = BatchPool::new(1);
    let mut helped = OrthPipeline::new(&cfg, &plan);
    helped.set_norm_floor_sq(floor_sq);
    helped.lend_helper(&pool);
    while !helped.helper_attached() {
        std::thread::yield_now();
    }
    results.push(measure("round-parallel", &mut |b| {
        helped.run_iteration(b);
    }));
    helped.release_helper()?;

    let ns = |variant: &str| {
        results
            .iter()
            .find(|r| r.variant == variant)
            .map(|r| r.ns_per_pass)
    };
    let baseline_ns = ns("baseline").unwrap_or(f64::NAN);
    let serial_ns = ns("optimized-serial").unwrap_or(f64::NAN);
    let parallel_ns = ns("round-parallel").unwrap_or(f64::NAN);
    Ok(HotpathReport {
        n,
        p_eng,
        passes_per_sweep,
        measured_sweeps,
        speedup_serial: baseline_ns / serial_ns,
        speedup_round_parallel: serial_ns / parallel_ns,
        results,
    })
}

/// Runs `sweeps` frozen-baseline sweeps on a fresh `n×n` workload and
/// returns the final matrix checksum (for `benches/hotpath.rs`).
pub fn sweep_baseline(n: usize, p_eng: usize, sweeps: usize) -> Result<f64, HeteroSvdError> {
    let cfg = config(n, p_eng)?;
    let placement = Placement::plan(&cfg)?;
    let mut pipe = BaselinePipeline::new(&cfg, &placement);
    let mut b = test_matrix(n);
    pipe.set_norm_floor_sq(b.column_norm_floor_sq());
    for _ in 0..sweeps {
        pipe.run_iteration(&mut b);
    }
    Ok(checksum(&b))
}

/// Runs `sweeps` optimized sweeps on a fresh `n×n` workload and returns
/// the final matrix checksum.
pub fn sweep_optimized(n: usize, p_eng: usize, sweeps: usize) -> Result<f64, HeteroSvdError> {
    let cfg = config(n, p_eng)?;
    let plan = PlanHandle::build(&cfg)?;
    let mut pipe = OrthPipeline::new(&cfg, &plan);
    let mut b = test_matrix(n);
    pipe.set_norm_floor_sq(b.column_norm_floor_sq());
    for _ in 0..sweeps {
        pipe.run_iteration(&mut b);
    }
    Ok(checksum(&b))
}

fn row(
    variant: &str,
    elapsed: std::time::Duration,
    sweeps: usize,
    passes_per_sweep: usize,
    allocations: u64,
    checksum: f64,
) -> HotpathRow {
    let total_passes = (sweeps * passes_per_sweep) as f64;
    let secs = elapsed.as_secs_f64();
    HotpathRow {
        variant: variant.to_string(),
        ns_per_pass: secs * 1e9 / total_passes,
        sweeps_per_sec: sweeps as f64 / secs,
        allocations_per_pass: allocations as f64 / total_passes,
        checksum,
    }
}

/// Frozen copy of the pre-optimization `OrthPipeline` (the PR-1 hot
/// path), kept verbatim as the benchmark baseline: scalar rotation
/// kernels, a `pair_columns` allocation per pass, and a `pairs_by_slot`
/// clone plus four fresh scratch `Vec`s per layer. Do not optimize —
/// its cost profile IS the measurement.
struct BaselinePipeline<'a> {
    config: &'a HeteroSvdConfig,
    placement: &'a Placement,
    schedule: HardwareSchedule,
    partition: BlockPartition,
    plan: PlioPlan,
    plio: PlioModel,
    dma: DmaModel,
    kernels: KernelCostModel,
    pl: PlModel,
    plio_in: Vec<Timeline>,
    plio_out: Vec<Timeline>,
    cores: Vec<Timeline>,
    dma_channels: Vec<Timeline>,
    wrap_channels: Vec<Timeline>,
    switch_channels: Vec<Timeline>,
    block_ready: Vec<TimePs>,
    norm_floor_sq: f32,
    stats: SimStats,
}

impl<'a> BaselinePipeline<'a> {
    fn new(config: &'a HeteroSvdConfig, placement: &'a Placement) -> Self {
        let k = config.engine_parallelism;
        let layers = placement.num_layers();
        let partition =
            BlockPartition::new(config.cols, k).expect("config validation guarantees divisibility");
        let plan = PlioPlan::standard();
        BaselinePipeline {
            config,
            placement,
            schedule: HardwareSchedule::new(k, config.ordering),
            partition,
            plan,
            plio: PlioModel::new(config.calibration, config.pl_freq),
            dma: DmaModel::new(config.calibration),
            kernels: KernelCostModel::new(config.calibration),
            pl: PlModel::new(config.calibration),
            plio_in: vec![Timeline::new(); plan.orth_in],
            plio_out: vec![Timeline::new(); plan.orth_out],
            cores: vec![Timeline::new(); layers * k],
            dma_channels: vec![Timeline::new(); layers.max(1) * k],
            wrap_channels: vec![Timeline::new(); layers.max(1)],
            switch_channels: vec![Timeline::new(); layers.max(1)],
            block_ready: vec![TimePs::ZERO; partition.num_blocks()],
            norm_floor_sq: 0.0,
            stats: SimStats::new(),
        }
    }

    fn set_norm_floor_sq(&mut self, floor_sq: f32) {
        self.norm_floor_sq = floor_sq;
    }

    fn run_iteration(&mut self, b: &mut Matrix<f32>) {
        let p = self.partition.num_blocks();
        let schedule = BlockPairSchedule::round_robin(p);
        for (u, v) in schedule.iter() {
            let cols = self.partition.pair_columns(u, v);
            self.run_pass(b, u, v, &cols);
        }
        self.stats.iterations += 1;
    }

    fn run_pass(&mut self, b: &mut Matrix<f32>, u: usize, v: usize, cols: &[usize]) -> TimePs {
        let k = self.config.engine_parallelism;
        let m_bytes = self.config.column_bytes();
        let num_cols = cols.len();
        let ready = self.block_ready[u].max(self.block_ready[v]);

        let tx_dur =
            self.plio
                .throttled_transfer_time(m_bytes, 1, PlioDirection::ToAie, self.plan.orth_in);
        let mut col_avail = vec![TimePs::ZERO; num_cols];
        for (local, _global) in cols.iter().enumerate() {
            let port = self.plan.input_port_of_column(local, k);
            let (_, end) = self.plio_in[port].schedule(ready, tx_dur);
            col_avail[local] = end;
            self.stats.plio_bytes_in += m_bytes;
            self.stats.plio_busy += tx_dur;
        }

        let layers = self.placement.num_layers();
        let mut prev_end = vec![TimePs::ZERO; k];
        for layer in 0..layers {
            let pairs = self.schedule.layers()[layer].pairs_by_slot.clone();
            let mut slot_ready = vec![TimePs::ZERO; k];

            if layer == 0 {
                for (s, &(i, j)) in pairs.iter().enumerate() {
                    slot_ready[s] = col_avail[i].max(col_avail[j]);
                }
            } else {
                self.movement_ready(layer, &prev_end, &mut slot_ready, m_bytes);
            }

            let orth_dur = self.kernels.orth_time(self.config.rows);
            let mut layer_end = vec![TimePs::ZERO; k];
            for (s, &(i, j)) in pairs.iter().enumerate() {
                let (_, end) = self.cores[layer * k + s].schedule(slot_ready[s], orth_dur);
                layer_end[s] = end;
                self.stats.orth_invocations += 1;
                self.stats.orth_busy += orth_dur;
                let (ci, cj) = b.col_pair_mut(cols[i], cols[j]);
                orthogonalize_pair_gated_scalar(ci, cj, self.norm_floor_sq);
            }
            prev_end = layer_end;
        }

        let last_pairs = &self.schedule.layers()[layers - 1].pairs_by_slot;
        let mut col_slot = vec![0usize; num_cols];
        for (s, &(i, j)) in last_pairs.iter().enumerate() {
            col_slot[i] = s;
            col_slot[j] = s;
        }
        let rx_dur =
            self.plio
                .throttled_transfer_time(m_bytes, 1, PlioDirection::ToPl, self.plan.orth_in);
        let mut block_u_end = TimePs::ZERO;
        let mut block_v_end = TimePs::ZERO;
        for local in 0..num_cols {
            let port = self.plan.output_port_of_column(local, k);
            let rx_ready = prev_end[col_slot[local]];
            let (_, end) = self.plio_out[port].schedule(rx_ready, rx_dur);
            self.stats.plio_bytes_out += m_bytes;
            self.stats.plio_busy += rx_dur;
            if local < k {
                block_u_end = block_u_end.max(end);
            } else {
                block_v_end = block_v_end.max(end);
            }
        }

        let hls = self.pl.hls_overhead(1, self.config.pl_freq);
        self.block_ready[u] = block_u_end + hls;
        self.block_ready[v] = block_v_end + hls;
        self.block_ready[u].max(self.block_ready[v])
    }

    fn movement_ready(
        &mut self,
        layer: usize,
        prev_end: &[TimePs],
        slot_ready: &mut [TimePs],
        m_bytes: usize,
    ) {
        let k = self.config.engine_parallelism;
        let src_row = self.placement.row_of_layer(layer - 1);
        let dest_row = self.placement.row_of_layer(layer);
        let band_break = self.placement.is_band_break(layer - 1);

        let movements = self
            .config
            .ordering
            .transition_movements_rows(src_row, dest_row, k);
        let neighbor = self.kernels.neighbor_handoff_time();
        let lateral_dur = self.dma.transfer_time_with_hops(m_bytes, 2);
        let wrap_dur = self.dma.transfer_time_with_hops(m_bytes, k as u64 + 1);
        let break_dur = self.dma.transfer_time_with_hops(m_bytes, 3);

        for (idx, movement) in movements.iter().enumerate() {
            let slot = idx % k;
            let producer = match movement {
                Movement::Straight => slot,
                Movement::Leftward => (slot + 1).min(k - 1),
                Movement::Rightward => slot.saturating_sub(1),
                Movement::Wraparound => k - 1,
            };
            let ready = prev_end[producer];
            let channel = layer * k + producer;
            let arrival = if band_break {
                let (_, mid) = self.dma_channels[channel].schedule(ready, break_dur);
                let (_, end) = self.dma_channels[channel].schedule(mid, break_dur);
                self.stats.dma_transfers += 2;
                self.stats.dma_bytes += 2 * m_bytes;
                end
            } else {
                match classify(*movement, dest_row, self.config.dataflow) {
                    AccessKind::Neighbor => {
                        self.stats.neighbor_accesses += 1;
                        ready + neighbor
                    }
                    AccessKind::Dma if *movement == Movement::Wraparound => {
                        let (_, end) = self.wrap_channels[layer].schedule(ready, wrap_dur);
                        self.stats.dma_transfers += 1;
                        self.stats.dma_bytes += m_bytes;
                        end
                    }
                    AccessKind::Dma => {
                        let (_, end) = self.switch_channels[layer].schedule(ready, lateral_dur);
                        self.stats.dma_transfers += 1;
                        self.stats.dma_bytes += m_bytes;
                        end
                    }
                }
            };
            slot_ready[slot] = slot_ready[slot].max(arrival);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The report is internally consistent on a small workload, the
    /// optimized variant's checksum matches a fresh optimized sweep, and
    /// the round-parallel variant's matches the serial one.
    #[test]
    fn small_workload_report_is_consistent() {
        let report = run(32, 4, 2, &|| 0).unwrap();
        assert_eq!(report.n, 32);
        assert_eq!(report.results.len(), 3);
        assert!(report.round_parallel_identical());
        for r in &report.results {
            assert!(
                r.ns_per_pass > 0.0,
                "{}: ns/pass must be positive",
                r.variant
            );
            assert!(r.sweeps_per_sec > 0.0);
            assert!(r.checksum.is_finite());
        }
        assert_eq!(
            report.results[1].checksum.to_bits(),
            sweep_optimized(32, 4, 3).unwrap().to_bits(),
            "warm-up plus two measured sweeps is three sweeps"
        );
    }

    /// The frozen baseline converges like the real pipeline: sweeps
    /// drive columns toward orthogonality.
    #[test]
    fn baseline_pipeline_orthogonalizes() {
        let cfg = config(16, 2).unwrap();
        let placement = Placement::plan(&cfg).unwrap();
        let mut pipe = BaselinePipeline::new(&cfg, &placement);
        let mut b = test_matrix(16);
        pipe.set_norm_floor_sq(b.column_norm_floor_sq());
        for _ in 0..8 {
            pipe.run_iteration(&mut b);
        }
        let (c0, c1) = b.col_pair_mut(0, 1);
        let dot: f64 = c0
            .iter()
            .zip(c1.iter())
            .map(|(&x, &y)| (x * y) as f64)
            .sum();
        assert!(dot.abs() < 1e-3, "columns 0/1 still correlated: {dot}");
    }
}
