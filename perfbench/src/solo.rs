//! Solo accelerator runs: the reference that served factors must match
//! bit for bit, the f64 golden model, the perf-model residual, and the
//! per-shape accelerator layer metrics.

use crate::metrics::{residual_name, Measured};
use crate::stats::median;
use heterosvd::{Accelerator, FidelityMode, HeteroSvdConfig, HeteroSvdOutput, ResourceKind};
use perf_model::{estimate, DesignPoint};
use std::time::Instant;
use svd_kernels::jacobi::{hestenes_jacobi, JacobiOptions, SvdResult};
use svd_kernels::verify::singular_value_error;
use svd_kernels::Matrix;

/// Largest singular-value error against the f64 golden model a run may
/// show, relative to σ_max: the repository's accuracy gate up to 512².
pub const SV_ERR_LIMIT: f64 = 1e-5;

/// Timing-only repeats behind one `replay.host_us` median.
const REPLAY_REPEATS: usize = 9;

/// One functional run on its own accelerator, with its host time.
pub struct Solo {
    /// The run's output.
    pub output: HeteroSvdOutput,
    /// Host time of the run, in ms.
    pub host_ms: f64,
}

/// Runs `a` alone on an accelerator built from `config`.
pub fn run(config: &HeteroSvdConfig, a: &Matrix<f64>) -> Result<Solo, String> {
    let accelerator = Accelerator::new(config.clone()).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let output = accelerator.run(a).map_err(|e| e.to_string())?;
    Ok(Solo {
        host_ms: start.elapsed().as_secs_f64() * 1e3,
        output,
    })
}

/// Whether two factorizations agree bit for bit (singular values and
/// left factors).
pub fn bit_identical(a: &SvdResult<f32>, b: &SvdResult<f32>) -> bool {
    a.sigma
        .iter()
        .map(|x| x.to_bits())
        .eq(b.sigma.iter().map(|x| x.to_bits()))
        && a.u
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .eq(b.u.as_slice().iter().map(|x| x.to_bits()))
}

/// Largest singular-value error of `output` against the f64 golden
/// model of `a`, relative to the largest singular value.
pub fn golden_error(a: &Matrix<f64>, output: &HeteroSvdOutput) -> Result<f64, String> {
    let golden = hestenes_jacobi(a, &JacobiOptions::default()).map_err(|e| e.to_string())?;
    Ok(singular_value_error(
        &golden.sorted_singular_values(),
        &output.result.sorted_singular_values(),
    ))
}

/// Records `sv_err_max` — per matrix, the largest singular-value error
/// against the golden model; over the sample, the mean, so one unlucky
/// matrix does not move it — and checks every matrix against
/// [`SV_ERR_LIMIT`].
pub fn record_accuracy(measured: &mut Measured, checks: &mut crate::Checks, errors: &[f64]) {
    measured.set("sv_err_max", crate::stats::mean(errors));
    let worst = errors.iter().copied().fold(0.0, f64::max);
    checks.check(
        worst <= SV_ERR_LIMIT,
        format!("singular-value error {worst:e} above {SV_ERR_LIMIT:e}"),
    );
}

/// `config` in timing-only mode at a fixed iteration count: the same
/// modeled task as a functional run that took `iterations`, without
/// the math.
pub fn timing_only(config: &HeteroSvdConfig, iterations: usize) -> HeteroSvdConfig {
    let mut config = config.clone();
    config.fidelity = FidelityMode::TimingOnly;
    config.fixed_iterations = Some(iterations);
    config
}

/// Median host time, in µs, of a timing-only run replaying `iterations`.
pub fn replay_host_us(config: &HeteroSvdConfig, iterations: usize) -> Result<f64, String> {
    let config = timing_only(config, iterations);
    let accelerator = Accelerator::new(config.clone()).map_err(|e| e.to_string())?;
    let zeros = Matrix::zeros(config.rows, config.cols);
    let mut samples = Vec::with_capacity(REPLAY_REPEATS);
    for _ in 0..REPLAY_REPEATS {
        let start = Instant::now();
        accelerator.run(&zeros).map_err(|e| e.to_string())?;
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&samples))
}

/// Signed perf-model residual, in percent of the simulated task time,
/// of `config` at the iteration count `output` ran.
pub fn residual_pct(config: &HeteroSvdConfig, output: &HeteroSvdOutput) -> f64 {
    let est = estimate(&DesignPoint {
        rows: config.rows,
        cols: config.cols,
        engine_parallelism: config.engine_parallelism,
        task_parallelism: config.task_parallelism,
        pl_freq_mhz: config.pl_freq.mhz(),
        iterations: output.timing.iterations(),
    });
    let sim = output.timing.task_time.as_secs();
    (est.task.as_secs() - sim) / sim * 100.0
}

/// Records the modeled-device and perf-model metrics of shape `n` from
/// one functional output: exact for a given input.
pub fn record_model(measured: &mut Measured, config: &HeteroSvdConfig, output: &HeteroSvdOutput) {
    let n = config.cols;
    let timing = &output.timing;
    measured.set(format!("model.task_ms.{n}"), timing.task_time.as_millis());
    measured.set(format!("model.ddr_ms.{n}"), timing.ddr_time.as_millis());
    measured.set(
        format!("model.iter_ms.{n}"),
        timing.avg_iteration().as_millis(),
    );
    measured.set(format!("model.norm_ms.{n}"), timing.norm_time.as_millis());
    measured.set(format!("model.iterations.{n}"), timing.iterations() as f64);
    measured.set(
        format!("dma.transfers.{n}"),
        output.stats.dma_transfers as f64,
    );
    if let Some(util) = &output.utilization {
        for r in &util.resources {
            let kind = match r.kind {
                ResourceKind::Plio => "plio",
                ResourceKind::AieCore => "aie_core",
                ResourceKind::Dma => "dma",
                ResourceKind::Ddr => "ddr",
            };
            measured.set(format!("util.{kind}.{n}"), r.busy_fraction);
        }
    }
    if let Some(adaptive) = &output.adaptive {
        measured.set(
            format!("kernels.gated_rotations.{n}"),
            adaptive.gated_rotations as f64,
        );
        measured.set(
            format!("kernels.memo_skips.{n}"),
            adaptive.memo_skips as f64,
        );
    }
    measured.set(
        residual_name(n, config.engine_parallelism),
        residual_pct(config, output),
    );
}

/// Records the host-side accelerator layer metrics of shape `n`:
/// functional math (a functional run minus its timing-only replay) and
/// the replay itself.
pub fn record_host(
    measured: &mut Measured,
    config: &HeteroSvdConfig,
    functional_host_ms: f64,
    iterations: usize,
) -> Result<(), String> {
    let n = config.cols;
    let replay_us = replay_host_us(config, iterations)?;
    measured.set(format!("replay.host_us.{n}"), replay_us);
    measured.set(
        format!("kernels.host_ms.{n}"),
        functional_host_ms - replay_us / 1e3,
    );
    Ok(())
}
