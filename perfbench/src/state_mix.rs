//! `state-mix`: open-loop reads and writes of service state. 85% rank-8
//! applies over Zipf-popular published 64² models, 5% versioned
//! republishes, 10% small-drift incremental updates from a few clients.
//!
//! Applies cost microseconds of math but wait behind writes in the same
//! queue, so admission, queue, batcher, store and cache layers dominate;
//! writes beside reads show a change that speeds one at the other's
//! cost.

use crate::metrics::Measured;
use crate::serve_run::{ServingWorkload, STREAM_SETUP};
use crate::serving::{self, Outcome, Payload, Record, Response};
use crate::trace::{mix_seed, Event, Mix, Op};
use crate::{fresh, solo, Checks};
use heterosvd_bench::workload::random_matrix;
use heterosvd_serve::{ClientId, ModelId, ServeConfig, SvdResponse, SvdService, UpdateRoute};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use svd_kernels::Matrix;

/// Seed stream of the clients' starting matrices.
const STREAM_CLIENTS: u64 = 100;
/// Matrix size of every model and client.
const N: usize = 64;
/// Published models; the store budget holds all of them, so no apply is
/// refused for an evicted model.
const MODELS: u64 = 256;
/// Truncation rank of published factors.
const RANK: usize = 8;
/// Zipf exponent of apply popularity.
const ZIPF_S: f64 = 1.0;
/// Clients sending incremental updates.
const CLIENTS: u64 = 8;
/// Factor-cache budget: room for about six of the eight clients, so the
/// cache evicts and an evicted client falls back to a full recompute.
const FACTOR_CACHE_BYTES: usize = 6 * 72 * 1024;
/// Open-loop rate: about a quarter of the closed-loop capacity, so the
/// service stays clear of the queueing knee even while the shared host
/// runs slow.
const RATE: f64 = 200.0;
/// Closed-loop requests in flight.
const WINDOW: usize = 32;
/// Set-up publishes verified (models `0..SETUP_SAMPLE`).
const SETUP_SAMPLE: usize = 48;
/// Sampled republishes verified.
const REPUBLISH_SAMPLE: usize = 4;
/// Least sampled applies that must be verifiable.
const MIN_APPLY_CHECKS: usize = 10;

/// The workload's state.
pub struct StateMix {
    seed: u64,
    /// Each client's current matrix; the next update drifts it.
    clients: Vec<Option<Matrix<f64>>>,
    /// Matrices and responses of the verified set-up publishes.
    published: Vec<(Matrix<f64>, SvdResponse)>,
    plan_points: Vec<fresh::Point>,
}

impl StateMix {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Self {
        StateMix {
            seed,
            clients: vec![None; CLIENTS as usize],
            published: Vec::new(),
            plan_points: Vec::new(),
        }
    }
}

/// A unit vector of `len` uniform draws.
fn unit(rng: &mut StdRng, len: usize) -> Vec<f64> {
    let v: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    v.into_iter().map(|x| x / norm).collect()
}

/// Drifts `a` a little: mostly a rank-1 bump of 3% of its norm (the
/// low-rank route), otherwise a rank-12 drift of 4% (too wide for the
/// low-rank route, so it warm-starts).
fn drift(a: &mut Matrix<f64>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (rank, share) = if rng.gen_bool(0.7) {
        (1, 0.03)
    } else {
        (12, 0.04)
    };
    let scale = share * a.frobenius_norm() / (rank as f64).sqrt();
    for _ in 0..rank {
        let u = unit(&mut rng, a.rows());
        let v = unit(&mut rng, a.cols());
        for (c, vc) in v.iter().enumerate() {
            for (r, ur) in u.iter().enumerate() {
                a[(r, c)] += scale * ur * vc;
            }
        }
    }
}

impl ServingWorkload for StateMix {
    fn config(&self) -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 512,
            factor_cache_bytes: FACTOR_CACHE_BYTES,
            incremental: true,
            ..ServeConfig::default()
        }
    }

    fn mix(&self) -> Mix {
        Mix::State {
            models: MODELS,
            zipf_s: ZIPF_S,
            clients: CLIENTS,
            publish: 0.05,
            update: 0.10,
        }
    }

    fn rate(&self) -> f64 {
        RATE
    }

    fn window(&self) -> usize {
        WINDOW
    }

    fn setup(&mut self, service: &SvdService) -> Result<(), String> {
        self.clients = vec![None; CLIENTS as usize];
        self.published.clear();
        let matrices: Vec<Matrix<f64>> = (0..MODELS)
            .map(|m| random_matrix(N, N, mix_seed(self.seed, STREAM_SETUP, m)))
            .collect();
        let handles: Vec<_> = matrices
            .iter()
            .enumerate()
            .map(|(m, a)| {
                serving::submit(
                    service,
                    Payload::Publish(ModelId(m as u64), a.clone(), RANK),
                )
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        for (m, (handle, a)) in handles.into_iter().zip(matrices).enumerate() {
            let response = serving::wait(handle).map_err(|e| e.to_string())?;
            if let (true, Response::Svd(r)) = (m < SETUP_SAMPLE, response) {
                self.published.push((a, r));
            }
        }
        Ok(())
    }

    fn payload(&mut self, event: &Event) -> Payload {
        match event.op {
            Op::Publish { model } => {
                Payload::Publish(ModelId(model), random_matrix(N, N, event.seed), RANK)
            }
            Op::Apply { model } => {
                let mut rng = StdRng::seed_from_u64(event.seed);
                let x = (0..N).map(|_| rng.gen_range(-1.0..1.0)).collect();
                Payload::Apply(ModelId(model), x)
            }
            Op::Update { client } => {
                let base = mix_seed(self.seed, STREAM_CLIENTS, client);
                let a =
                    self.clients[client as usize].get_or_insert_with(|| random_matrix(N, N, base));
                drift(a, event.seed);
                Payload::Update(ClientId(client), a.clone())
            }
            op @ Op::Decompose { .. } => unreachable!("state-mix never issues {op:?}"),
        }
    }

    fn is_write(&self, op: Op) -> bool {
        op.is_write()
    }

    fn verify(
        &mut self,
        service: &SvdService,
        open: &[&Record],
        traced: bool,
        measured: &mut Measured,
        checks: &mut Checks,
    ) -> Result<(), String> {
        let config = service
            .config()
            .accelerator_config((N, N))
            .map_err(|e| e.to_string())?;
        let republished: Vec<(&Matrix<f64>, &SvdResponse)> = open
            .iter()
            .filter_map(|r| match (&r.kept, &r.outcome) {
                (Some(Payload::Publish(_, a, _)), Outcome::Served(served)) => {
                    match served.response.as_deref() {
                        Some(Response::Svd(s)) => Some((a, s)),
                        _ => None,
                    }
                }
                _ => None,
            })
            .take(REPUBLISH_SAMPLE)
            .collect();
        checks.check(
            republished.len() == REPUBLISH_SAMPLE,
            format!(
                "{} of {REPUBLISH_SAMPLE} sampled republishes served",
                republished.len()
            ),
        );
        let sample = self
            .published
            .iter()
            .map(|(a, r)| (a, r))
            .chain(republished);
        let (mut modeled_ms, mut sv_errs) = (0.0, Vec::new());
        let mut host_ms = Vec::new();
        for (i, (a, served)) in sample.enumerate() {
            let reference = solo::run(&config, a)?;
            checks.check(
                solo::bit_identical(&served.output.result, &reference.output.result),
                "published factors differ from a solo run",
            );
            sv_errs.push(solo::golden_error(a, &reference.output)?);
            modeled_ms += reference.output.timing.task_time.as_millis();
            host_ms.push(reference.host_ms);
            if i == 0 {
                measured.set(
                    "model_err_pct",
                    solo::residual_pct(&config, &reference.output).abs(),
                );
                if traced {
                    solo::record_model(measured, &config, &reference.output);
                }
                self.plan_points = vec![(
                    N,
                    config.engine_parallelism,
                    config.task_parallelism,
                    reference.output.timing.iterations(),
                )];
            }
        }
        measured.set("modeled_ms", modeled_ms);
        solo::record_accuracy(measured, checks, &sv_errs);
        if traced {
            let iterations = self.plan_points[0].3;
            solo::record_host(
                measured,
                &config,
                crate::stats::median(&host_ms),
                iterations,
            )?;
        }

        // Applies: bit-identical to the direct truncated product of the
        // version they were served from, while that version is resident.
        let mut apply_checks = 0;
        for r in open {
            let (Some(Payload::Apply(model, x)), Outcome::Served(s)) = (&r.kept, &r.outcome) else {
                continue;
            };
            let Some(Response::Apply(served)) = s.response.as_deref() else {
                continue;
            };
            let Some(factors) = service.store().get(*model) else {
                continue;
            };
            if factors.version != served.version {
                continue;
            }
            let xf: Vec<f32> = x.iter().map(|&v| v as f32).collect();
            let direct = factors
                .factors
                .apply_rank(&xf, served.rank)
                .map_err(|e| e.to_string())?;
            checks.check(
                direct
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(served.y.iter().map(|v| v.to_bits())),
                format!(
                    "apply of {model} v{} differs from the direct product",
                    served.version
                ),
            );
            apply_checks += 1;
        }
        checks.check(
            apply_checks >= MIN_APPLY_CHECKS,
            format!("only {apply_checks} sampled applies could be verified"),
        );

        // Updates that took the full-recompute route are the cold path
        // and must match a solo run.
        for r in open {
            if let (Some(Payload::Update(_, a)), Outcome::Served(s)) = (&r.kept, &r.outcome) {
                let Some(Response::Update(u)) = s.response.as_deref() else {
                    continue;
                };
                if let (UpdateRoute::Full(_), Some(output)) = (u.route, &u.output) {
                    let reference = solo::run(&config, a)?;
                    checks.check(
                        solo::bit_identical(&output.result, &reference.output.result),
                        "full-recompute update differs from a solo run",
                    );
                }
            }
        }
        Ok(())
    }

    fn plan_points(&self) -> Vec<fresh::Point> {
        self.plan_points.clone()
    }
}
