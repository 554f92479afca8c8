//! Load generation against an in-process `SvdService`.
//!
//! One submitter (the calling thread) and one collector thread — the
//! host has two CPUs and the service's own threads need them. Open-loop
//! requests are timed from when they were due; closed-loop phases keep
//! a fixed number of requests in flight to measure capacity.

use crate::spans::Span;
use crate::trace::{Event, Op};
use heterosvd_serve::{
    ApplyHandle, ApplyResponse, ClientId, LatencyRecord, ModelId, RequestHandle, ServeError,
    SloClass, SubmitOptions, SvdResponse, SvdService, UpdateHandle, UpdateResponse, UpdateRoute,
};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};
use svd_kernels::Matrix;

/// A request body, built from an [`Event`] by its workload.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Decompose `matrix`.
    Decompose(Matrix<f64>, SloClass),
    /// Decompose `matrix` and publish its rank-`r` truncation.
    Publish(ModelId, Matrix<f64>, usize),
    /// Apply a published model to `x`.
    Apply(ModelId, Vec<f64>),
    /// Incremental update of a client's matrix.
    Update(ClientId, Matrix<f64>),
}

/// An admitted request's handle.
pub enum Handle {
    /// Decompose or publish.
    Svd(RequestHandle),
    /// Apply.
    Apply(ApplyHandle),
    /// Incremental update.
    Update(UpdateHandle),
}

/// A served response.
#[derive(Debug)]
pub enum Response {
    /// Decompose or publish.
    Svd(SvdResponse),
    /// Apply.
    Apply(ApplyResponse),
    /// Incremental update.
    Update(UpdateResponse),
}

impl Response {
    /// The service's latency split of the request.
    pub fn latency(&self) -> &LatencyRecord {
        match self {
            Response::Svd(r) => &r.latency,
            Response::Apply(r) => &r.latency,
            Response::Update(r) => &r.latency,
        }
    }
}

/// Submits `payload`, never blocking.
pub fn submit(service: &SvdService, payload: Payload) -> Result<Handle, ServeError> {
    Ok(match payload {
        Payload::Decompose(matrix, class) => Handle::Svd(service.try_submit_with(
            matrix,
            SubmitOptions {
                class,
                ..SubmitOptions::default()
            },
        )?),
        Payload::Publish(model, matrix, rank) => {
            Handle::Svd(service.try_submit_publish(model, matrix, rank)?)
        }
        Payload::Apply(model, x) => Handle::Apply(service.try_submit_apply(model, &x, None)?),
        Payload::Update(client, matrix) => {
            Handle::Update(service.try_submit_update(client, matrix)?)
        }
    })
}

impl Handle {
    fn is_finished(&self) -> bool {
        match self {
            Handle::Svd(h) => h.is_finished(),
            Handle::Apply(h) => h.is_finished(),
            Handle::Update(h) => h.is_finished(),
        }
    }
}

/// How often a closed-loop collector looks for finished requests.
const POLL: Duration = Duration::from_micros(250);

/// Waits for an admitted request's response.
pub fn wait(handle: Handle) -> Result<Response, ServeError> {
    Ok(match handle {
        Handle::Svd(h) => Response::Svd(h.wait()?),
        Handle::Apply(h) => Response::Apply(h.wait()?),
        Handle::Update(h) => Response::Update(h.wait()?),
    })
}

/// How one request ended.
#[derive(Debug)]
pub enum Outcome {
    /// Admission refused it.
    Refused(ServeError),
    /// Admitted, then failed.
    Failed(ServeError),
    /// Served.
    Served(Served),
}

/// What the generator keeps of a served request: the latency split and
/// update route always, the whole response only for the verification
/// sample, so memory does not grow with the request count.
#[derive(Debug)]
pub struct Served {
    /// The service's latency split.
    pub latency: LatencyRecord,
    /// Route and warm-start iterations saved, for an update.
    pub route: Option<(UpdateRoute, Option<usize>)>,
    /// The response, when the request was sampled.
    pub response: Option<Box<Response>>,
}

impl Served {
    fn new(response: Response, keep: bool) -> Self {
        let route = match &response {
            Response::Update(u) => Some((u.route, u.warm_start.map(|w| w.iterations_saved()))),
            _ => None,
        };
        Served {
            latency: *response.latency(),
            route,
            response: keep.then(|| Box::new(response)),
        }
    }
}

/// One request as the generator saw it.
#[derive(Debug)]
pub struct Record {
    /// The request's trace event.
    pub event: Event,
    /// The payload, kept for verification when the event is sampled.
    pub kept: Option<Payload>,
    /// When the submit call started, after the phase start.
    pub call_start: Duration,
    /// Time inside the submit call (admission).
    pub admit: Duration,
    /// How the request ended.
    pub outcome: Outcome,
}

impl Record {
    /// The service's latency split, when served.
    pub fn latency(&self) -> Option<&LatencyRecord> {
        match &self.outcome {
            Outcome::Served(served) => Some(&served.latency),
            _ => None,
        }
    }

    /// When the submit call returned, after the phase start.
    pub fn submitted(&self) -> Duration {
        self.call_start + self.admit
    }

    /// How late the generator issued the request.
    pub fn late(&self) -> Duration {
        self.call_start.saturating_sub(self.event.due)
    }

    /// Latency from when the request was due to completion; infinite
    /// for a refused or failed request, which misses any limit.
    pub fn latency_ms(&self) -> f64 {
        match self.latency() {
            Some(l) => {
                (self.submitted().saturating_sub(self.event.due) + l.wall_total).as_secs_f64() * 1e3
            }
            None => f64::INFINITY,
        }
    }

    /// Completion instant after the phase start, when served.
    pub fn completed(&self) -> Option<Duration> {
        self.latency().map(|l| self.submitted() + l.wall_total)
    }
}

/// A request on its way from the submitter to the collector.
struct Sent {
    id: u64,
    event: Event,
    kept: Option<Payload>,
    call_start: Duration,
    admit: Duration,
    handle: Result<Handle, ServeError>,
}

/// Whether the phase paces requests by their due times or by a window.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Send each event when due.
    Open,
    /// Keep `window` requests in flight until `length` has passed.
    Closed {
        /// Requests in flight.
        window: usize,
        /// Phase length.
        length: Duration,
    },
}

/// What a phase sent and how each request ended.
#[derive(Debug)]
pub struct Phase {
    /// One record per request sent, in send order.
    pub records: Vec<Record>,
    /// Phase length: the last due time (open) or the window length
    /// (closed).
    pub length: Duration,
    /// Whether the service's own counters agree with the records.
    pub ledger_ok: bool,
    /// Spans recorded around each request, when traced.
    pub spans: Vec<Span>,
}

impl Phase {
    /// Requests refused or failed.
    pub fn missed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.latency().is_none())
            .count()
    }

    /// Completions per second after the phase's first `warm_share`,
    /// counted by completion instant.
    pub fn throughput(&self, warm_share: f64) -> f64 {
        let from = self.length.mul_f64(warm_share);
        let done = self
            .records
            .iter()
            .filter_map(Record::completed)
            .filter(|&c| c >= from && c < self.length)
            .count();
        done as f64 / (self.length - from).as_secs_f64()
    }
}

/// Layer a served request's execution span is named after.
fn exec_layer(op: Op) -> &'static str {
    match op {
        Op::Decompose { .. } | Op::Publish { .. } => EXEC_DECOMPOSE,
        Op::Apply { .. } => EXEC_APPLY,
        Op::Update { .. } => EXEC_UPDATE,
    }
}

/// Root span of a request: from when it was due to its completion.
pub const REQUEST: &str = "request";
/// Time inside `SvdService::try_submit*`.
pub const ADMIT: &str = "serve::service.admit";
/// `LatencyRecord::queue_wait`.
pub const QUEUE: &str = "serve::queue";
/// `LatencyRecord::batch_linger`.
pub const LINGER: &str = "serve::batcher";
/// Replica execution of a decompose or publish.
pub const EXEC_DECOMPOSE: &str = "heterosvd::accelerator.run_many_f32";
/// Replica execution of an apply.
pub const EXEC_APPLY: &str = "heterosvd::apply";
/// Replica execution of an incremental update.
pub const EXEC_UPDATE: &str = "svd_kernels::incremental";

/// The spans of one served request, from the service's latency split.
fn served_spans(id: u64, event: &Event, submitted: Duration, l: &LatencyRecord) -> [Span; 4] {
    let queued = submitted + l.queue_wait;
    let lingered = queued + l.batch_linger;
    let done = submitted + l.wall_total;
    let span = |layer, parent, start, end| Span {
        id,
        layer,
        parent,
        start,
        end,
    };
    [
        span(REQUEST, "", event.due, done),
        span(QUEUE, REQUEST, submitted, queued),
        span(LINGER, REQUEST, queued, lingered),
        span(exec_layer(event.op), REQUEST, lingered, done.max(lingered)),
    ]
}

/// Runs one phase against `service`: `events` supplies the requests and
/// `build` turns each into its payload, before the request is due, so
/// input generation never delays a send. With `traced`, both threads
/// record spans as they go.
pub fn run_phase(
    service: &SvdService,
    events: impl Iterator<Item = Event>,
    pacing: Pacing,
    traced: bool,
    mut build: impl FnMut(&Event) -> Payload,
) -> Phase {
    let before = service.metrics();
    let (to_collector, from_submitter) = mpsc::channel::<Sent>();
    let (to_submitter, tokens) = mpsc::channel::<()>();
    let window = match pacing {
        Pacing::Open => 0,
        Pacing::Closed { window, .. } => window,
    };
    for _ in 0..window {
        to_submitter.send(()).expect("token receiver is alive");
    }
    let start = Instant::now();
    let (records, length, spans) = thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut records = Vec::new();
            let mut spans = Vec::new();
            let mut finish = |sent: Sent, records: &mut Vec<Record>| {
                let outcome = match sent.handle {
                    Ok(handle) => match wait(handle) {
                        Ok(response) => Outcome::Served(Served::new(response, sent.event.sampled)),
                        Err(e) => Outcome::Failed(e),
                    },
                    Err(e) => Outcome::Refused(e),
                };
                let record = Record {
                    event: sent.event,
                    kept: sent.kept,
                    call_start: sent.call_start,
                    admit: sent.admit,
                    outcome,
                };
                if let (true, Some(l)) = (traced, record.latency()) {
                    spans.extend(served_spans(sent.id, &record.event, record.submitted(), l));
                }
                records.push(record);
            };
            if window == 0 {
                // Open loop: the service's own clock times each request,
                // so waiting in send order loses nothing.
                for sent in from_submitter {
                    finish(sent, &mut records);
                }
            } else {
                // Closed loop: free a slot the moment any request
                // finishes, as independent clients would.
                let mut pending: Vec<Sent> = Vec::new();
                let mut open = true;
                while open || !pending.is_empty() {
                    while let Ok(sent) = from_submitter.try_recv() {
                        pending.push(sent);
                    }
                    let done = pending
                        .iter()
                        .position(|s| s.handle.as_ref().map_or(true, Handle::is_finished));
                    match done {
                        Some(i) => {
                            finish(pending.swap_remove(i), &mut records);
                            // The submitter may already have stopped.
                            let _ = to_submitter.send(());
                        }
                        None if pending.is_empty() && open => match from_submitter.recv() {
                            Ok(sent) => pending.push(sent),
                            Err(_) => open = false,
                        },
                        None => {
                            thread::sleep(POLL);
                            if let Err(mpsc::TryRecvError::Disconnected) =
                                from_submitter.try_recv().map(|sent| pending.push(sent))
                            {
                                open = false;
                            }
                        }
                    }
                }
            }
            records.sort_by_key(|r| r.call_start);
            (records, spans)
        });
        let mut length = Duration::ZERO;
        let mut admit_spans = Vec::new();
        for (id, event) in events.enumerate() {
            let payload = build(&event);
            let kept = event.sampled.then(|| payload.clone());
            match pacing {
                Pacing::Open => {
                    length = event.due;
                    if let Some(wait) = (start + event.due).checked_duration_since(Instant::now()) {
                        thread::sleep(wait);
                    }
                }
                Pacing::Closed { length: limit, .. } => {
                    length = limit;
                    tokens
                        .recv()
                        .expect("collector returns a token per request");
                    if start.elapsed() >= limit {
                        break;
                    }
                }
            }
            let call_start = start.elapsed();
            let handle = submit(service, payload);
            let admit = start.elapsed() - call_start;
            if traced {
                admit_spans.push(Span {
                    id: id as u64,
                    layer: ADMIT,
                    parent: REQUEST,
                    start: call_start,
                    end: call_start + admit,
                });
            }
            to_collector
                .send(Sent {
                    id: id as u64,
                    event,
                    kept,
                    call_start,
                    admit,
                    handle,
                })
                .expect("collector is alive");
        }
        drop(to_collector);
        let (records, mut spans) = collector.join().expect("collector thread panicked");
        spans.extend(admit_spans);
        (records, length, spans)
    });
    let after = service.metrics();
    let served = records.iter().filter(|r| r.latency().is_some()).count() as u64;
    let admitted = records
        .iter()
        .filter(|r| !matches!(r.outcome, Outcome::Refused(_)))
        .count() as u64;
    let ledger_ok = after.submitted - before.submitted == admitted
        && after.completed_ok - before.completed_ok == served;
    Phase {
        records,
        length,
        ledger_ok,
        spans,
    }
}

/// Whether `op` is tagged interactive.
pub fn is_interactive(op: Op) -> bool {
    matches!(
        op,
        Op::Decompose {
            interactive: true,
            ..
        }
    )
}
