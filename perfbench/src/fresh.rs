//! Measurements that need a fresh process, before `heterosvd::plan_cache`
//! holds any plan and `heterosvd::replay` any timing profile: the cold
//! set-up behind `setup_s` and the first accelerator behind
//! `plan.first_run_ms`. The benchmark binary re-runs itself as the
//! child and waits for it.

use crate::metrics::Measured;
use crate::stats::median;
use crate::RunArgs;
use heterosvd::{Accelerator, FidelityMode, HeteroSvdConfig};
use std::process::Command;
use std::time::Instant;
use svd_kernels::Matrix;

/// Flag that makes the binary a set-up child: it sets the workload up
/// once and prints the seconds that took.
pub const SETUP_FLAG: &str = "--setup-probe";
/// Flag that makes the binary a plan child (see [`plan_child`]).
pub const PLAN_FLAG: &str = "--plan-probe";
/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// One accelerator point: `(n, P_eng, P_task, iterations)`.
pub type Point = (usize, usize, usize, usize);

/// Runs this binary with `args` and returns what it printed.
fn child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("child {args:?} did not start: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Median cold set-up time, in s, of `args`' workload over
/// [`SETUP_REPEATS`] fresh processes.
pub fn setup_s(args: &RunArgs) -> Result<f64, String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let out = child(&[
            SETUP_FLAG.into(),
            "--workload".into(),
            args.workload.clone(),
            "--seed".into(),
            args.seed.to_string(),
        ])?;
        let secs = out
            .trim()
            .parse()
            .map_err(|_| format!("set-up child printed {out:?}"))?;
        times.push(secs);
    }
    Ok(median(&times))
}

/// Times the first accelerator of each point in a fresh process and
/// records `plan.first_run_ms.<n>`.
pub fn plan_probe(points: &[Point], measured: &mut Measured) -> Result<(), String> {
    let spec: Vec<String> = points
        .iter()
        .map(|(n, p_eng, p_task, iters)| format!("{n}:{p_eng}:{p_task}:{iters}"))
        .collect();
    let out = child(&[PLAN_FLAG.into(), spec.join(",")])?;
    for line in out.lines() {
        let parsed = line
            .split_once(' ')
            .and_then(|(n, ms)| Some((n, ms.parse::<f64>().ok()?)));
        let (n, ms) = parsed.ok_or_else(|| format!("plan child printed {line:?}"))?;
        measured.set(format!("plan.first_run_ms.{n}"), ms);
    }
    Ok(())
}

/// The plan child: builds each point's first accelerator and runs it
/// once timing-only, printing `<n> <ms>` per point.
pub fn plan_child(spec: &str) -> Result<(), String> {
    for point in spec.split(',') {
        let fields: Vec<usize> = point
            .split(':')
            .map(|f| f.parse().map_err(|_| format!("bad plan point {point:?}")))
            .collect::<Result<_, _>>()?;
        let [n, p_eng, p_task, iters] = fields[..] else {
            return Err(format!("bad plan point {point:?}"));
        };
        let start = Instant::now();
        let config = HeteroSvdConfig::builder(n, n)
            .engine_parallelism(p_eng)
            .task_parallelism(p_task)
            .fidelity(FidelityMode::TimingOnly)
            .fixed_iterations(iters)
            .build()
            .map_err(|e| e.to_string())?;
        let accelerator = Accelerator::new(config).map_err(|e| e.to_string())?;
        accelerator
            .run(&Matrix::zeros(n, n))
            .map_err(|e| e.to_string())?;
        println!("{n} {}", start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(())
}
