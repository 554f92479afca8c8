//! `accel-batch`: the accelerator alone, in a closed loop, on a fixed
//! seeded batch set at the paper's sizes — 128²×8, 256²×4, 512²×1 at
//! P_eng 4 / P_task 4 — plus timing-only runs at 32² and 64² with
//! P_eng 8.
//!
//! Modeled Eq. 8–14 time, DMA counts, model error and accuracy repeat
//! bit for bit here, so they gate exactly; host time is almost all
//! functional math, so serving-layer changes should not move it.

use crate::metrics::Measured;
use crate::spans::Span;
use crate::stats::{median, tail};
use crate::trace::mix_seed;
use crate::{fresh, solo, Checks, Run, RunArgs};
use aie_sim::TimePs;
use heterosvd::{Accelerator, HeteroSvdConfig, HeteroSvdOutput};
use heterosvd_bench::workload::random_matrix;
use heterosvd_dse::{run_dse, run_mix_dse, DseConfig, ObservedShape, WorkloadMix};
use std::time::{Duration, Instant};
use svd_kernels::Matrix;

/// One accelerator point of the batch set.
#[derive(Debug, Clone, Copy)]
struct Point {
    n: usize,
    p_eng: usize,
    p_task: usize,
    batch: usize,
    /// Run functionally in the loop (otherwise timing-only there, with
    /// one functional run outside it to fix the iteration count).
    functional: bool,
}

const POINTS: [Point; 5] = [
    Point {
        n: 128,
        p_eng: 4,
        p_task: 4,
        batch: 8,
        functional: true,
    },
    Point {
        n: 256,
        p_eng: 4,
        p_task: 4,
        batch: 4,
        functional: true,
    },
    Point {
        n: 512,
        p_eng: 4,
        p_task: 4,
        batch: 1,
        functional: true,
    },
    Point {
        n: 32,
        p_eng: 8,
        p_task: 1,
        batch: 1,
        functional: false,
    },
    Point {
        n: 64,
        p_eng: 8,
        p_task: 1,
        batch: 1,
        functional: false,
    },
];

/// Span layers.
const FUNCTIONAL: &str = "heterosvd::accelerator.run_many";
const TIMING_ONLY: &str = "heterosvd::replay.run_many";
const PASS: &str = "accel.pass";

impl Point {
    fn config(&self) -> Result<HeteroSvdConfig, String> {
        HeteroSvdConfig::builder(self.n, self.n)
            .engine_parallelism(self.p_eng)
            .task_parallelism(self.p_task)
            .build()
            .map_err(|e| e.to_string())
    }
}

/// What the first pass produced at one point: the outputs of its batch
/// and the Eq. 14 system time.
struct First {
    outputs: Vec<HeteroSvdOutput>,
    system: TimePs,
}

/// What a closed loop over the batch set measured.
struct Looped {
    tasks: usize,
    /// Functional tasks per host second of each pass.
    pass_rates: Vec<f64>,
    /// Wall time of each pass over the batch set, in ms.
    pass_ms: Vec<f64>,
    spans: Vec<Span>,
}

fn input(seed: u64, point: &Point, i: usize) -> Matrix<f64> {
    let stream = (point.n as u64) << 8 | point.p_eng as u64;
    random_matrix(point.n, point.n, mix_seed(seed, stream, i as u64))
}

/// The DSE sweep over the batch set's shapes: one sweep per shape and
/// one over their mix. Returns the mix's best tasks per second.
fn sweep() -> f64 {
    let functional = POINTS.iter().filter(|p| p.functional);
    for p in functional.clone() {
        run_dse(&DseConfig::new(p.n, p.n).batch(p.batch));
    }
    let mix = WorkloadMix {
        shapes: functional
            .map(|p| ObservedShape {
                rows: p.n,
                cols: p.n,
                weight: p.batch as f64,
                batch_fill: p.batch as f64,
            })
            .collect(),
        iterations: DseConfig::new(1, 1).iterations,
        array_packing: false,
        observed_wave_width: 0.0,
    };
    let base = DseConfig::new(POINTS[0].n, POINTS[0].n);
    run_mix_dse(&base, &mix)
        .best()
        .map_or(0.0, |best| best.weighted_throughput)
}

/// What set-up built: the DSE sweep's result and every point's
/// accelerator.
pub struct Setup {
    accelerators: Vec<Accelerator>,
    sweep_ms: f64,
    best_tasks_per_s: f64,
    /// Seconds the whole set-up took.
    pub secs: f64,
}

/// Set-up: the DSE sweep, then every point's accelerator and timing
/// profile.
pub fn setup() -> Result<Setup, String> {
    let start = Instant::now();
    let best_tasks_per_s = sweep();
    let sweep_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut accelerators = Vec::with_capacity(POINTS.len());
    for p in &POINTS {
        let config = p.config()?;
        Accelerator::new(solo::timing_only(&config, 1))
            .and_then(|a| a.run(&Matrix::zeros(p.n, p.n)))
            .map_err(|e| e.to_string())?;
        accelerators.push(Accelerator::new(config).map_err(|e| e.to_string())?);
    }
    Ok(Setup {
        accelerators,
        sweep_ms,
        best_tasks_per_s,
        secs: start.elapsed().as_secs_f64(),
    })
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Result<Run, String> {
    let mut checks = Checks::default();
    let mut measured = Measured::default();
    let configs: Vec<HeteroSvdConfig> =
        POINTS.iter().map(Point::config).collect::<Result<_, _>>()?;
    let inputs: Vec<Vec<Matrix<f64>>> = POINTS
        .iter()
        .map(|p| (0..p.batch).map(|i| input(args.seed, p, i)).collect())
        .collect();
    // Set-up is timed cold, in fresh processes; this one's is untimed.
    let setup_s = if args.traced {
        None
    } else {
        Some(fresh::setup_s(args)?)
    };
    let Setup {
        accelerators,
        sweep_ms,
        best_tasks_per_s,
        ..
    } = setup()?;

    // The timing-only points' iteration counts come from one functional
    // run each, outside the loop.
    let mut solos: Vec<Option<solo::Solo>> = Vec::new();
    for ((p, c), batch) in POINTS.iter().zip(&configs).zip(&inputs) {
        solos.push(if p.functional {
            None
        } else {
            Some(solo::run(c, &batch[0])?)
        });
    }

    let mut first: Vec<Option<First>> = POINTS.iter().map(|_| None).collect();
    let mut run_loop =
        |length: Duration, traced: bool, checks: &mut Checks| -> Result<Looped, String> {
            let start = Instant::now();
            let mut looped = Looped {
                tasks: 0,
                pass_rates: Vec::new(),
                pass_ms: Vec::new(),
                spans: Vec::new(),
            };
            let mut pass = 0u64;
            while pass == 0 || start.elapsed() < length {
                let pass_start = start.elapsed();
                for (i, p) in POINTS.iter().enumerate().filter(|(_, p)| p.functional) {
                    let call_start = start.elapsed();
                    let (outputs, system) = accelerators[i]
                        .run_many(&inputs[i])
                        .map_err(|e| e.to_string())?;
                    let call_end = start.elapsed();
                    looped.tasks += p.batch;
                    if traced {
                        looped.spans.push(Span {
                            id: pass,
                            layer: FUNCTIONAL,
                            parent: PASS,
                            start: call_start,
                            end: call_end,
                        });
                    }
                    match &first[i] {
                        None => first[i] = Some(First { outputs, system }),
                        Some(f) => checks.check(
                            f.system == system
                                && f.outputs
                                    .iter()
                                    .zip(&outputs)
                                    .all(|(a, b)| solo::bit_identical(&a.result, &b.result)),
                            format!(
                                "{}²: a repeated batch changed its factors or modeled time",
                                p.n
                            ),
                        ),
                    }
                }
                for (i, p) in POINTS.iter().enumerate() {
                    let reference = match (&first[i], &solos[i]) {
                        (Some(f), _) => &f.outputs[0],
                        (None, Some(s)) => &s.output,
                        (None, None) => unreachable!("every point has a functional reference"),
                    };
                    let config = solo::timing_only(&configs[i], reference.timing.iterations());
                    let zeros = vec![Matrix::zeros(p.n, p.n); p.batch];
                    let call_start = start.elapsed();
                    let (outputs, _) = Accelerator::new(config)
                        .and_then(|a| a.run_many(&zeros))
                        .map_err(|e| e.to_string())?;
                    if traced {
                        looped.spans.push(Span {
                            id: pass,
                            layer: TIMING_ONLY,
                            parent: PASS,
                            start: call_start,
                            end: start.elapsed(),
                        });
                    }
                    checks.check(
                        outputs[0].timing.task_time == reference.timing.task_time,
                        format!(
                            "{}² P_eng {}: timing-only replay differs from the functional run",
                            p.n, p.p_eng
                        ),
                    );
                }
                let pass_end = start.elapsed();
                let pass_tasks: usize = POINTS
                    .iter()
                    .filter(|p| p.functional)
                    .map(|p| p.batch)
                    .sum();
                let pass_s = (pass_end - pass_start).as_secs_f64();
                looped.pass_rates.push(pass_tasks as f64 / pass_s);
                looped.pass_ms.push(pass_s * 1e3);
                if traced {
                    looped.spans.push(Span {
                        id: pass,
                        layer: PASS,
                        parent: "",
                        start: pass_start,
                        end: pass_end,
                    });
                }
                pass += 1;
            }
            Ok(looped)
        };

    let (looped, overhead, attempted) = if args.traced {
        let untraced = run_loop(args.seconds / 2, false, &mut checks)?;
        let traced = run_loop(args.seconds / 2, true, &mut checks)?;
        let rate = |l: &Looped| median(&l.pass_rates);
        let overhead = (rate(&untraced) - rate(&traced)) / rate(&untraced) * 100.0;
        let attempted = untraced.tasks + traced.tasks;
        (traced, Some(overhead), attempted)
    } else {
        let looped = run_loop(args.seconds, false, &mut checks)?;
        let attempted = looped.tasks;
        (looped, None, attempted)
    };

    // Checks and exact metrics over the batch set.
    let (mut modeled_ms, mut sv_errs, mut model_err) = (0.0, Vec::new(), 0.0f64);
    let mut plan_points = Vec::new();
    for (i, p) in POINTS.iter().enumerate() {
        let (reference, host_ms) = match (&first[i], solos[i].take()) {
            (Some(f), _) => {
                modeled_ms += f.system.as_millis();
                for (a, out) in inputs[i].iter().zip(&f.outputs) {
                    sv_errs.push(solo::golden_error(a, out)?);
                }
                let alone = solo::run(&configs[i], &inputs[i][0])?;
                checks.check(
                    solo::bit_identical(&alone.output.result, &f.outputs[0].result),
                    format!("{}²: batched factors differ from a solo run", p.n),
                );
                (alone.output, alone.host_ms)
            }
            (None, Some(s)) => {
                sv_errs.push(solo::golden_error(&inputs[i][0], &s.output)?);
                (s.output, s.host_ms)
            }
            (None, None) => unreachable!("every point has a functional reference"),
        };
        model_err = model_err.max(solo::residual_pct(&configs[i], &reference).abs());
        let iterations = reference.timing.iterations();
        if args.traced {
            solo::record_model(&mut measured, &configs[i], &reference);
            solo::record_host(&mut measured, &configs[i], host_ms, iterations)?;
        }
        plan_points.push((p.n, p.p_eng, p.p_task, iterations));
    }
    measured.set("modeled_ms", modeled_ms);
    solo::record_accuracy(&mut measured, &mut checks, &sv_errs);
    measured.set("model_err_pct", model_err);

    if let Some(overhead) = overhead {
        measured.set("trace.overhead_pct", overhead);
        measured.set("dse.sweep_ms", sweep_ms);
        measured.set("dse.best_tasks_per_s", best_tasks_per_s);
        fresh::plan_probe(&plan_points, &mut measured)?;
    } else {
        // A median over passes keeps a burst of outside load during one
        // pass from moving the result.
        measured.set("throughput_rps", median(&looped.pass_rates));
        // One caller, one request per pass over the batch set: a pass is
        // the latency it sees. Too few passes for a tail, so the tail
        // rule reads the median.
        measured.set("p50_ms", median(&looped.pass_ms));
        measured.set("p99_ms", tail(&looped.pass_ms, 0.99));
        // Every task runs a factorization.
        measured.set("write_p99_ms", tail(&looped.pass_ms, 0.99));
        measured.set("setup_s", setup_s.expect("untraced runs time set-up"));
    }
    measured.set("served_frac", 1.0);
    Ok(Run {
        checks,
        attempted: attempted as u64,
        failed: 0,
        measured,
        spans: looped.spans,
    })
}
