//! The shape shared by the two serving workloads: timed set-up, an
//! open-loop latency phase, a closed-loop capacity phase, and checks on
//! a seeded sample of what was served.

use crate::metrics::Measured;
use crate::serving::{self, Outcome, Pacing, Payload, Phase, Record};
use crate::spans::lengths_ms;
use crate::stats::{median, tail};
use crate::trace::{Event, Mix, Op, Source};
use crate::{Checks, Run, RunArgs};
use heterosvd_serve::{ServeConfig, ServeError, SvdService, UpdateRoute};
use std::time::{Duration, Instant};

/// Rounds an untraced run is cut into. Each round runs an open-loop
/// phase, then a closed-loop one; end-to-end values are medians over
/// rounds, so a burst of outside load slows one round, not the result.
const ROUNDS: u32 = 10;
/// Share of a round spent in its open-loop phase; the closed-loop phase
/// takes the rest.
const OPEN_SHARE: f64 = 0.6;
/// Share of a closed-loop phase discarded while its window fills.
const CLOSED_WARMUP: f64 = 0.1;
/// A generator whose p99 lateness exceeds this did not keep to its
/// schedule, and the run is marked. Wake-up jitter of a few ms is normal
/// on a two-CPU host whose replicas keep both CPUs busy.
const LATE_LIMIT_MS: f64 = 10.0;
/// Share of the median request's latency its admit, queue, linger and
/// exec spans should cover; below it the generator's own lateness is a
/// large part of the number, and the run is marked.
const MIN_ATTRIBUTED_PCT: f64 = 90.0;

/// Trace streams, so phases never share random draws; round `r` of an
/// untraced run uses `stream + 4 * r`.
pub const STREAM_SETUP: u64 = 0;
const STREAM_OPEN: u64 = 1;
const STREAM_CLOSED: u64 = 2;
const STREAM_TRACED: u64 = 3;

/// A workload served by an in-process `SvdService`.
pub trait ServingWorkload {
    /// The service configuration.
    fn config(&self) -> ServeConfig;
    /// The request mix.
    fn mix(&self) -> Mix;
    /// Open-loop arrival rate, per second.
    fn rate(&self) -> f64;
    /// Closed-loop requests in flight.
    fn window(&self) -> usize;
    /// Warms the service and publishes what the workload reads.
    fn setup(&mut self, service: &SvdService) -> Result<(), String>;
    /// The payload of one request.
    fn payload(&mut self, event: &Event) -> Payload;
    /// Whether `op` counts toward `write_p99_ms`.
    fn is_write(&self, op: Op) -> bool;
    /// Checks the sampled requests among `open` (the open-loop records,
    /// in send order) against the reference models and records the exact
    /// metrics; with `traced`, also the accelerator layer metrics of the
    /// workload's shapes.
    fn verify(
        &mut self,
        service: &SvdService,
        open: &[&Record],
        traced: bool,
        measured: &mut Measured,
        checks: &mut Checks,
    ) -> Result<(), String>;
    /// Accelerator points the plan probe builds, known after `verify`.
    fn plan_points(&self) -> Vec<crate::fresh::Point>;
}

/// Starts the workload's service and sets it up; returns it with the
/// seconds that took.
pub fn setup(workload: &mut dyn ServingWorkload) -> Result<(SvdService, f64), String> {
    let start = Instant::now();
    let service = SvdService::start(workload.config()).map_err(|e| e.to_string())?;
    workload.setup(&service)?;
    Ok((service, start.elapsed().as_secs_f64()))
}

/// Runs a serving workload.
pub fn run(mut workload: impl ServingWorkload, args: &RunArgs) -> Result<Run, String> {
    // Set-up is timed cold, in fresh processes; this one's is untimed.
    let setup_s = if args.traced {
        None
    } else {
        Some(crate::fresh::setup_s(args)?)
    };
    let (service, _) = setup(&mut workload)?;
    let mut measured = Measured::default();
    let mut checks = Checks::default();

    let phase = |workload: &mut dyn ServingWorkload, stream, pacing, length, traced| {
        let mut source = Source::new(workload.mix(), args.seed, stream);
        match pacing {
            Pacing::Open => {
                let events = source.open_loop(workload.rate(), length);
                serving::run_phase(&service, events.into_iter(), pacing, traced, |e| {
                    workload.payload(e)
                })
            }
            Pacing::Closed { .. } => {
                // Only the open phase's sample is verified.
                let events = std::iter::repeat_with(move || Event {
                    sampled: false,
                    ..source.next_event(Duration::ZERO)
                });
                serving::run_phase(&service, events, pacing, traced, |e| workload.payload(e))
            }
        }
    };

    let (opens, closeds, traced) = if args.traced {
        let half = args.seconds / 2;
        let untraced = phase(&mut workload, STREAM_OPEN, Pacing::Open, half, false);
        let traced = phase(&mut workload, STREAM_TRACED, Pacing::Open, half, true);
        (vec![untraced], Vec::new(), Some(traced))
    } else {
        let round = args.seconds / ROUNDS;
        let open_len = round.mul_f64(OPEN_SHARE);
        let closed_len = round - open_len;
        let pacing = Pacing::Closed {
            window: workload.window(),
            length: closed_len,
        };
        let (mut opens, mut closeds) = (Vec::new(), Vec::new());
        for r in 0..u64::from(ROUNDS) {
            let open_stream = STREAM_OPEN + 4 * r;
            opens.push(phase(
                &mut workload,
                open_stream,
                Pacing::Open,
                open_len,
                false,
            ));
            let closed_stream = STREAM_CLOSED + 4 * r;
            closeds.push(phase(
                &mut workload,
                closed_stream,
                pacing,
                closed_len,
                false,
            ));
        }
        (opens, closeds, None)
    };

    let phases: Vec<&Phase> = opens
        .iter()
        .chain(&closeds)
        .chain(traced.as_ref())
        .collect();
    for (i, p) in phases.iter().enumerate() {
        checks.check(
            p.ledger_ok,
            format!("phase {i}: service ledger disagrees with the generator"),
        );
        checks.check(!p.records.is_empty(), format!("phase {i} sent nothing"));
    }
    let attempted: usize = phases.iter().map(|p| p.records.len()).sum();
    let missed: usize = phases.iter().map(|p| p.missed()).sum();
    if missed > 0 {
        let first: Vec<String> = phases
            .iter()
            .flat_map(|p| &p.records)
            .filter_map(|r| match &r.outcome {
                Outcome::Refused(e) => Some(format!("refused: {e}")),
                Outcome::Failed(e) => Some(format!("failed: {e}")),
                Outcome::Served(_) => None,
            })
            .take(5)
            .collect();
        eprintln!(
            "perfbench: {missed} of {attempted} requests missed; first: {}",
            first.join("; ")
        );
    }

    let measured_phases: Vec<&Phase> = match &traced {
        Some(t) => vec![t],
        None => opens.iter().collect(),
    };
    let late: Vec<f64> = measured_phases
        .iter()
        .flat_map(|p| &p.records)
        .map(|r| r.late().as_secs_f64() * 1e3)
        .collect();
    let late_p99 = tail(&late, 0.99);
    if late_p99 > LATE_LIMIT_MS {
        eprintln!(
            "perfbench: generator fell behind: late p99 {late_p99:.3} ms > {LATE_LIMIT_MS} ms; \
             latencies include the lag"
        );
    }

    let sample: Vec<&Record> = measured_phases.iter().flat_map(|p| &p.records).collect();
    workload.verify(&service, &sample, args.traced, &mut measured, &mut checks)?;

    if let Some(traced) = &traced {
        measured.set("gen.late_p99_ms", late_p99);
        measured.set("gen.late_max_ms", late.iter().copied().fold(0.0, f64::max));
        let before = median(&latencies(&opens[0], &|_| true));
        let after = median(&latencies(traced, &|_| true));
        measured.set("trace.overhead_pct", (after - before) / before * 100.0);
        layer_metrics(
            traced,
            &service,
            workload.config().max_batch,
            &mut measured,
            &mut checks,
        );
        crate::fresh::plan_probe(&workload.plan_points(), &mut measured)?;
    } else {
        // Each round's statistic, then the median over rounds. A round's
        // tail is the highest percentile, at most p99, with ten of its
        // requests beyond it.
        let per_round = |stat: &dyn Fn(&[f64]) -> f64, keep: &dyn Fn(Op) -> bool| {
            let values: Vec<f64> = opens
                .iter()
                .map(|p| finite_or(stat(&latencies(p, keep)), p.length))
                .collect();
            median(&values)
        };
        let p99 = |ms: &[f64]| tail(ms, 0.99);
        measured.set("p50_ms", per_round(&median, &|_| true));
        measured.set("p99_ms", per_round(&p99, &|_| true));
        measured.set("write_p99_ms", per_round(&p99, &|op| workload.is_write(op)));
        let rates: Vec<f64> = closeds
            .iter()
            .map(|p| p.throughput(CLOSED_WARMUP))
            .collect();
        measured.set("throughput_rps", median(&rates));
        measured.set("setup_s", setup_s.expect("untraced runs time set-up"));
    }
    measured.set(
        "served_frac",
        (attempted - missed) as f64 / attempted.max(1) as f64,
    );
    service.shutdown();
    Ok(Run {
        checks,
        attempted: attempted as u64,
        failed: missed as u64,
        measured,
        spans: traced.map_or_else(Vec::new, |t| t.spans),
    })
}

/// Due-to-done latencies, in ms, of the requests whose op passes
/// `keep`; a refused or failed request is infinite.
fn latencies(phase: &Phase, keep: &dyn Fn(Op) -> bool) -> Vec<f64> {
    phase
        .records
        .iter()
        .filter(|r| keep(r.event.op))
        .map(|r| r.latency_ms())
        .collect()
}

/// A percentile that landed on a miss reads as the whole window: no
/// client waited longer than that for a reply it never got.
fn finite_or(value: f64, window: Duration) -> f64 {
    if value.is_finite() {
        value
    } else {
        window.as_secs_f64() * 1e3
    }
}

/// Per-layer metrics of the serving layers, from a traced phase.
fn layer_metrics(
    phase: &Phase,
    service: &SvdService,
    max_batch: usize,
    measured: &mut Measured,
    checks: &mut Checks,
) {
    use crate::serving::{ADMIT, EXEC_APPLY, EXEC_DECOMPOSE, EXEC_UPDATE, LINGER, QUEUE};
    let spans = &phase.spans;
    let admit_us: Vec<f64> = lengths_ms(spans, ADMIT).iter().map(|ms| ms * 1e3).collect();
    measured.set("admit.p50_us", median(&admit_us));
    measured.set("admit.p99_us", tail(&admit_us, 0.99));
    let refused = |f: fn(&ServeError) -> bool| {
        phase
            .records
            .iter()
            .filter(|r| matches!(&r.outcome, Outcome::Refused(e) if f(e)))
            .count() as f64
    };
    measured.set(
        "admit.refused_queue_full",
        refused(|e| matches!(e, ServeError::QueueFull { .. })),
    );
    measured.set(
        "admit.refused_invalid",
        refused(|e| matches!(e, ServeError::InvalidRequest(_))),
    );
    measured.set(
        "admit.refused_other",
        refused(|e| {
            !matches!(
                e,
                ServeError::QueueFull { .. } | ServeError::InvalidRequest(_)
            )
        }),
    );
    let queue = lengths_ms(spans, QUEUE);
    measured.set("queue.wait_p50_ms", median(&queue));
    measured.set("queue.wait_p99_ms", tail(&queue, 0.99));
    let linger = lengths_ms(spans, LINGER);
    measured.set("batch.linger_p50_ms", median(&linger));
    measured.set("batch.linger_p99_ms", tail(&linger, 0.99));
    let exec: Vec<f64> = [EXEC_DECOMPOSE, EXEC_APPLY, EXEC_UPDATE]
        .iter()
        .flat_map(|layer| lengths_ms(spans, layer))
        .collect();
    measured.set("exec.p50_ms", median(&exec));
    measured.set("exec.p99_ms", tail(&exec, 0.99));
    let apply_us: Vec<f64> = lengths_ms(spans, EXEC_APPLY)
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    measured.set("apply.exec_p50_us", median(&apply_us));
    measured.set(
        "update.exec_p50_ms",
        median(&lengths_ms(spans, EXEC_UPDATE)),
    );

    let served: Vec<&heterosvd_serve::LatencyRecord> =
        phase.records.iter().filter_map(|r| r.latency()).collect();
    let batch: Vec<f64> = served.iter().map(|l| l.batch_size as f64).collect();
    let size_mean = crate::stats::mean(&batch);
    measured.set("batch.size_mean", size_mean);
    measured.set("batch.fill", size_mean / max_batch as f64);
    let sim_ms: Vec<f64> = served.iter().map(|l| l.sim_exec_ps as f64 / 1e9).collect();
    measured.set("exec.sim_ms_p50", median(&sim_ms));
    let interactive = latencies(phase, &serving::is_interactive);
    measured.set(
        "class.interactive_p99_ms",
        finite_or(tail(&interactive, 0.99), phase.length),
    );

    let routes: Vec<(UpdateRoute, Option<usize>)> = phase
        .records
        .iter()
        .filter_map(|r| match &r.outcome {
            Outcome::Served(served) => served.route,
            _ => None,
        })
        .collect();
    if !routes.is_empty() {
        let share = |f: fn(&UpdateRoute) -> bool| {
            routes.iter().filter(|(route, _)| f(route)).count() as f64 / routes.len() as f64
        };
        measured.set(
            "update.route_lowrank_frac",
            share(|r| matches!(r, UpdateRoute::LowRank { .. })),
        );
        measured.set(
            "update.route_warm_frac",
            share(|r| matches!(r, UpdateRoute::WarmStart)),
        );
        measured.set(
            "update.route_full_frac",
            share(|r| matches!(r, UpdateRoute::Full(_))),
        );
        let saved: Vec<f64> = routes
            .iter()
            .filter_map(|(_, s)| s.map(|s| s as f64))
            .collect();
        measured.set("update.warm_iters_saved_mean", crate::stats::mean(&saved));
    }
    let store = service.store().stats();
    measured.set("store.resident_models", store.resident_models as f64);
    measured.set("store.versions_published", store.publishes as f64);

    // Attribution. Every served request's queue wait and linger must fit
    // inside its wall time (exec is the rest), so admit + queue + linger
    // + exec + generator lateness is its due-to-done latency exactly.
    let consistent = phase
        .records
        .iter()
        .filter_map(Record::latency)
        .all(|l| l.queue_wait + l.batch_linger <= l.wall_total);
    checks.check(
        consistent,
        "a request's queue wait plus linger exceeds its wall time",
    );
    let mut by_latency: Vec<_> = phase
        .records
        .iter()
        .filter(|r| r.latency().is_some())
        .collect();
    by_latency.sort_by(|a, b| a.latency_ms().total_cmp(&b.latency_ms()));
    if let Some(r) = by_latency.get(by_latency.len() / 2) {
        let l = r.latency().expect("filtered to served");
        let covered = (r.admit + l.wall_total).as_secs_f64() * 1e3;
        let share = covered / r.latency_ms() * 100.0;
        measured.set("attr.p50_layer_share_pct", share);
        if share < MIN_ATTRIBUTED_PCT {
            eprintln!(
                "perfbench: the layers cover only {share:.1}% of the median request's latency; \
                 the rest is the generator's lateness"
            );
        }
    }
}
