//! `decompose-mix`: open-loop decomposes of seeded square matrices,
//! 64² : 128² = 90 : 10, the 128² share tagged interactive.
//!
//! Functional Jacobi math and replica execution dominate host time here,
//! so kernel and batching changes show; the rare 128² share sets the
//! queue-wait tail a scheduler change would move.

use crate::metrics::Measured;
use crate::serve_run::{ServingWorkload, STREAM_SETUP};
use crate::serving::{self, Outcome, Payload, Record, Response};
use crate::trace::{mix_seed, Event, Mix, Op};
use crate::{fresh, solo, Checks};
use heterosvd_bench::workload::random_matrix;
use heterosvd_serve::{ServeConfig, SloClass, SvdService};
use std::time::Duration;

/// `(n, share, interactive)`.
const SHAPES: [(usize, f64, bool); 2] = [(64, 0.9, false), (128, 0.1, true)];
/// Open-loop rate: about a fifth of the closed-loop capacity, so the
/// service stays clear of the queueing knee even while the shared host
/// runs slow.
const RATE: f64 = 120.0;
/// Closed-loop requests in flight: enough to fill both replicas'
/// batches.
const WINDOW: usize = 32;
/// Sampled requests verified per shape.
const SAMPLE: [usize; 2] = [24, 8];
/// Warm-up requests per shape, enough to reach both replicas.
const WARM_UP: usize = 8;

/// The workload's state.
#[derive(Default)]
pub struct DecomposeMix {
    seed: u64,
    plan_points: Vec<fresh::Point>,
}

impl DecomposeMix {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Self {
        DecomposeMix {
            seed,
            ..DecomposeMix::default()
        }
    }
}

impl ServingWorkload for DecomposeMix {
    fn config(&self) -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 512,
            ..ServeConfig::default()
        }
    }

    fn mix(&self) -> Mix {
        Mix::Decompose(SHAPES.to_vec())
    }

    fn rate(&self) -> f64 {
        RATE
    }

    fn window(&self) -> usize {
        WINDOW
    }

    fn setup(&mut self, service: &SvdService) -> Result<(), String> {
        for (n, _, interactive) in SHAPES {
            let handles: Vec<_> = (0..WARM_UP)
                .map(|i| {
                    let event = Event {
                        due: Duration::ZERO,
                        op: Op::Decompose { n, interactive },
                        seed: mix_seed(self.seed, STREAM_SETUP, (n * WARM_UP + i) as u64),
                        sampled: false,
                    };
                    serving::submit(service, self.payload(&event))
                })
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            for handle in handles {
                serving::wait(handle).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    fn payload(&mut self, event: &Event) -> Payload {
        match event.op {
            Op::Decompose { n, interactive } => {
                let class = if interactive {
                    SloClass::Interactive
                } else {
                    SloClass::Batch
                };
                Payload::Decompose(random_matrix(n, n, event.seed), class)
            }
            op => unreachable!("decompose-mix never issues {op:?}"),
        }
    }

    fn is_write(&self, _op: Op) -> bool {
        // Every request runs a factorization.
        true
    }

    fn verify(
        &mut self,
        service: &SvdService,
        open: &[&Record],
        traced: bool,
        measured: &mut Measured,
        checks: &mut Checks,
    ) -> Result<(), String> {
        let mut modeled_ms = 0.0;
        let mut sv_errs = Vec::new();
        let mut model_err = 0.0f64;
        for ((n, _, _), want) in SHAPES.into_iter().zip(SAMPLE) {
            let config = service
                .config()
                .accelerator_config((n, n))
                .map_err(|e| e.to_string())?;
            let sample: Vec<_> = open
                .iter()
                .filter(|r| matches!(r.event.op, Op::Decompose { n: m, .. } if m == n))
                .filter_map(|r| match (&r.kept, &r.outcome) {
                    (Some(Payload::Decompose(a, _)), Outcome::Served(served)) => {
                        match served.response.as_deref() {
                            Some(Response::Svd(s)) => Some((a, s)),
                            _ => None,
                        }
                    }
                    _ => None,
                })
                .take(want)
                .collect();
            checks.check(
                sample.len() == want,
                format!("{n}²: {} of {want} sampled decomposes served", sample.len()),
            );
            let mut host_ms = Vec::new();
            for (i, (a, served)) in sample.into_iter().enumerate() {
                let reference = solo::run(&config, a)?;
                checks.check(
                    solo::bit_identical(&served.output.result, &reference.output.result),
                    format!("{n}²: served factors differ from a solo run"),
                );
                sv_errs.push(solo::golden_error(a, &reference.output)?);
                modeled_ms += reference.output.timing.task_time.as_millis();
                host_ms.push(reference.host_ms);
                if i == 0 {
                    model_err = model_err.max(solo::residual_pct(&config, &reference.output).abs());
                    let iterations = reference.output.timing.iterations();
                    if traced {
                        solo::record_model(measured, &config, &reference.output);
                    }
                    self.plan_points.push((
                        n,
                        config.engine_parallelism,
                        config.task_parallelism,
                        iterations,
                    ));
                }
            }
            if traced {
                let iterations = self.plan_points.last().map_or(1, |p| p.3);
                solo::record_host(
                    measured,
                    &config,
                    crate::stats::median(&host_ms),
                    iterations,
                )?;
            }
        }
        measured.set("modeled_ms", modeled_ms);
        solo::record_accuracy(measured, checks, &sv_errs);
        measured.set("model_err_pct", model_err);
        Ok(())
    }

    fn plan_points(&self) -> Vec<fresh::Point> {
        self.plan_points.clone()
    }
}
