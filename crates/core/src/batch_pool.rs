//! Persistent, bounded worker pool for batch factorizations.
//!
//! [`crate::Accelerator::run_many`] used to spawn one OS thread per
//! matrix per batch — thread creation on every call, unbounded
//! concurrency for large batches. The pool replaces that with a fixed
//! set of long-lived workers (sized to the host, capped at
//! [`MAX_BATCH_WORKERS`]) shared process-wide: batches from every
//! accelerator and every serving replica feed one queue, tasks drain as
//! workers free up, and results return to each caller in submission
//! order.
//!
//! A panicking task is contained on the worker (which survives and
//! keeps serving) and surfaces to its caller as
//! [`HeteroSvdError::WorkerPanicked`], matching the old scoped-thread
//! semantics.
//!
//! # Lending a worker to one run
//!
//! A run may borrow an idle worker as a helper
//! ([`BatchPool::lend_helper`]; the round-parallel sweep of
//! [`crate::orth_pipeline`] is the user). The helper is an ordinary job
//! in the queue, and the protocol keeps it from ever blocking the pool:
//!
//! * the run never waits for a helper that has not started — a helper
//!   that starts after its run closed the lease is a no-op;
//! * the helper works only while [`HelperLink::keep_going`] holds and
//!   detaches at its next boundary once the run closes or the queue
//!   holds work, so queued batches wait at most one such boundary;
//! * closing the lease waits for an attached helper to detach, so the
//!   run's data outlives every access, and a helper panic surfaces as
//!   [`HeteroSvdError::WorkerPanicked`] from [`HelperLease::close`].
//!
//! Tasks still must not block on [`BatchPool::run_batch`] — a task
//! waiting for pool capacity it is occupying would deadlock once every
//! worker does it. The accelerator's tasks are plain `run_owned` calls,
//! which never wait on the queue (a lent helper is waited for only while
//! it is running).

use crate::accelerator::HeteroSvdOutput;
use crate::HeteroSvdError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};

/// Upper bound on pool workers; beyond this, batch tasks queue.
pub const MAX_BATCH_WORKERS: usize = 16;

type BatchResult = Result<HeteroSvdOutput, HeteroSvdError>;
type BatchTask = Box<dyn FnOnce() -> BatchResult + Send + 'static>;

/// A type-erased unit of pool work: the thunk owns its task, its reply
/// channel, and its panic handling, so workers stay oblivious to the
/// result type and the pool can serve heterogeneous callers
/// (factorizations, DSE sweeps, …) from one queue.
struct Job {
    thunk: Box<dyn FnOnce() + Send + 'static>,
}

/// Occupancy counters shared by the pool handle and its workers.
#[derive(Debug, Default)]
struct Load {
    /// Workers waiting for a job.
    idle: AtomicUsize,
    /// Jobs submitted and not yet taken by a worker.
    queued: AtomicUsize,
}

/// A fixed-size pool of batch workers fed by one shared queue.
pub struct BatchPool {
    submit: Sender<Job>,
    workers: usize,
    load: Arc<Load>,
}

impl BatchPool {
    /// Spawns a pool with `workers` long-lived worker threads.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (submit, jobs) = channel::<Job>();
        let jobs = Arc::new(Mutex::new(jobs));
        let load = Arc::new(Load::default());
        for i in 0..workers {
            let jobs = Arc::clone(&jobs);
            let load = Arc::clone(&load);
            std::thread::Builder::new()
                .name(format!("svd-batch-{i}"))
                .spawn(move || worker_main(jobs, load))
                .expect("failed to spawn batch worker");
        }
        BatchPool {
            submit,
            workers,
            load,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Workers waiting for a job with no queued job already bound for
    /// them: how many could start new work right now. A snapshot — it
    /// may change as soon as it is read.
    pub fn idle_workers(&self) -> usize {
        let queued = self.load.queued.load(Ordering::Relaxed);
        self.load
            .idle
            .load(Ordering::Relaxed)
            .saturating_sub(queued)
    }

    /// Lends one worker to the caller's run: queues a helper job that
    /// calls `help` if it starts before the returned lease is closed,
    /// and does nothing otherwise. `help` should return once
    /// [`HelperLink::keep_going`] turns false. See the module docs for
    /// the protocol; callers decide whether a worker is idle
    /// ([`Self::idle_workers`]) before lending.
    pub fn lend_helper(&self, help: impl FnOnce(&HelperLink) + Send + 'static) -> HelperLease {
        let link = Arc::new(HelperLink {
            state: AtomicU8::new(WAITING),
            closing: AtomicBool::new(false),
            load: Arc::clone(&self.load),
            panic: Mutex::new(None),
        });
        let helper = Arc::clone(&link);
        self.enqueue(Job {
            thunk: Box::new(move || {
                if helper
                    .state
                    .compare_exchange(WAITING, ATTACHED, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    // The run closed the lease before this job started.
                    return;
                }
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| help(&helper))) {
                    *helper.panic.lock().unwrap_or_else(|p| p.into_inner()) =
                        Some(HeteroSvdError::worker_panicked(payload.as_ref()));
                }
                helper.state.store(DETACHED, Ordering::Release);
            }),
        });
        HelperLease { link }
    }

    fn enqueue(&self, job: Job) {
        self.load.queued.fetch_add(1, Ordering::Relaxed);
        // Workers live for the whole process; the queue never closes.
        self.submit.send(job).expect("batch pool queue closed");
    }

    /// Runs every task on the pool and returns their results in
    /// submission order, or the first (by submission order) error.
    ///
    /// # Errors
    ///
    /// The first failing task's error; a panicking task surfaces as
    /// [`HeteroSvdError::WorkerPanicked`].
    pub fn run_batch(&self, tasks: Vec<BatchTask>) -> Result<Vec<HeteroSvdOutput>, HeteroSvdError> {
        self.run_batch_with(tasks)
    }

    /// [`Self::run_batch`] for arbitrary result types: runs every task
    /// on the pool and returns their `Ok` values in submission order,
    /// or the first (by submission order) error.
    ///
    /// This is the entry point for non-factorization batch work (the
    /// DSE sweep parallelizes its `P_eng` columns here), so the whole
    /// workspace shares one bounded set of worker threads instead of
    /// spawning scoped threads per call site.
    ///
    /// # Errors
    ///
    /// The first failing task's error; a panicking task surfaces as
    /// [`HeteroSvdError::WorkerPanicked`].
    pub fn run_batch_with<T, F>(&self, tasks: Vec<F>) -> Result<Vec<T>, HeteroSvdError>
    where
        T: Send + 'static,
        F: FnOnce() -> Result<T, HeteroSvdError> + Send + 'static,
    {
        let n = tasks.len();
        let (reply, results) = channel::<(usize, Result<T, HeteroSvdError>)>();
        for (seq, task) in tasks.into_iter().enumerate() {
            let reply = reply.clone();
            let job = Job {
                thunk: Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(task)).unwrap_or_else(|payload| {
                        Err(HeteroSvdError::worker_panicked(payload.as_ref()))
                    });
                    // The caller may have bailed on an earlier error;
                    // that is fine.
                    let _ = reply.send((seq, result));
                }),
            };
            self.enqueue(job);
        }
        drop(reply);
        let mut slots: Vec<Option<Result<T, HeteroSvdError>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (seq, result) = results.recv().map_err(|_| {
                HeteroSvdError::WorkerPanicked("batch pool reply channel closed".into())
            })?;
            slots[seq] = Some(result);
        }
        slots
            .into_iter()
            .map(|r| r.expect("every task replies exactly once"))
            .collect()
    }
}

fn worker_main(jobs: Arc<Mutex<Receiver<Job>>>, load: Arc<Load>) {
    loop {
        load.idle.fetch_add(1, Ordering::Relaxed);
        let job = {
            let queue = match jobs.lock() {
                Ok(queue) => queue,
                Err(poisoned) => poisoned.into_inner(),
            };
            match queue.recv() {
                Ok(job) => job,
                // Queue dropped: the pool is gone, retire the worker.
                Err(_) => return,
            }
        };
        load.queued.fetch_sub(1, Ordering::Relaxed);
        load.idle.fetch_sub(1, Ordering::Relaxed);
        // The thunk contains its own panic barrier and reply; nothing
        // here can unwind across the loop.
        (job.thunk)();
    }
}

/// Helper states: queued, working, gone; or refused (closed first).
const WAITING: u8 = 0;
const ATTACHED: u8 = 1;
const DETACHED: u8 = 2;
const CLOSED: u8 = 3;

/// The lent worker's side of a [`HelperLease`].
#[derive(Debug)]
pub struct HelperLink {
    state: AtomicU8,
    closing: AtomicBool,
    load: Arc<Load>,
    panic: Mutex<Option<HeteroSvdError>>,
}

impl HelperLink {
    /// Whether the helper should keep working: `false` once the run is
    /// closing the lease or the pool's queue holds work.
    pub fn keep_going(&self) -> bool {
        !self.closing.load(Ordering::Acquire) && self.load.queued.load(Ordering::Relaxed) == 0
    }
}

/// The run's side of a worker lent by [`BatchPool::lend_helper`].
/// Dropping it closes it (waiting for an attached helper to detach).
#[derive(Debug)]
pub struct HelperLease {
    link: Arc<HelperLink>,
}

impl HelperLease {
    /// Whether the helper has started and not yet detached.
    pub fn attached(&self) -> bool {
        self.link.state.load(Ordering::Acquire) == ATTACHED
    }

    /// Whether the helper has detached: it no longer touches the run's
    /// data (everything it did happens-before this returning `true`).
    pub fn detached(&self) -> bool {
        self.link.state.load(Ordering::Acquire) == DETACHED
    }

    /// Ends the loan: a helper that has not started never will, and an
    /// attached one is waited for until it detaches.
    ///
    /// # Errors
    ///
    /// [`HeteroSvdError::WorkerPanicked`] when the helper panicked.
    pub fn close(self) -> Result<(), HeteroSvdError> {
        self.shut();
        let panic = self
            .link
            .panic
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take();
        panic.map_or(Ok(()), Err)
    }

    /// Refuses a helper that has not started, or waits for an attached
    /// one to detach. Idempotent.
    fn shut(&self) {
        self.link.closing.store(true, Ordering::Release);
        // Fails when the helper already attached, or on a second call.
        let _ =
            self.link
                .state
                .compare_exchange(WAITING, CLOSED, Ordering::AcqRel, Ordering::Acquire);
        let mut backoff = Backoff::default();
        while self.attached() {
            backoff.snooze();
        }
    }
}

impl Drop for HelperLease {
    fn drop(&mut self) {
        self.shut();
    }
}

/// Bounded spinning, then yielding: the wait of both sides of a loan.
#[derive(Debug, Default)]
pub(crate) struct Backoff {
    spins: u32,
}

impl Backoff {
    /// Spins this many times before each wait starts yielding.
    const SPIN_LIMIT: u32 = 1 << 10;

    /// Waits a little: a CPU spin hint while the wait is young, a
    /// yield to the scheduler after that.
    pub(crate) fn snooze(&mut self) {
        if self.spins < Self::SPIN_LIMIT {
            self.spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// The host's reported parallelism, with a fallback of 1.
fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The process-wide pool every [`crate::Accelerator::run_many`] call
/// shares, sized to the host's available parallelism.
pub fn global() -> &'static BatchPool {
    static GLOBAL: OnceLock<BatchPool> = OnceLock::new();
    GLOBAL.get_or_init(|| BatchPool::new(available_workers().clamp(1, MAX_BATCH_WORKERS)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orth_pipeline::OrthPipeline;
    use crate::{Accelerator, HeteroSvdConfig, PlanHandle};
    use svd_kernels::Matrix;

    fn tiny_output() -> BatchResult {
        let cfg = HeteroSvdConfig::builder(16, 16)
            .engine_parallelism(2)
            .pl_freq_mhz(208.3)
            .build()
            .unwrap();
        let acc = Accelerator::new(cfg).unwrap();
        let a = Matrix::from_fn(16, 16, |r, c| {
            ((r * 41 + c * 17 + 5) % 23) as f64 / 5.0 - 2.0 + if r == c { 2.0 } else { 0.0 }
        });
        acc.run(&a)
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = BatchPool::new(3);
        let tasks: Vec<BatchTask> = (0..6).map(|_| Box::new(tiny_output) as BatchTask).collect();
        let outs = pool.run_batch(tasks).unwrap();
        assert_eq!(outs.len(), 6);
        // The pool persists: a second batch reuses the same workers.
        let again: Vec<BatchTask> = (0..2).map(|_| Box::new(tiny_output) as BatchTask).collect();
        assert_eq!(pool.run_batch(again).unwrap().len(), 2);
    }

    #[test]
    fn panicking_task_surfaces_as_error_and_pool_survives() {
        let pool = BatchPool::new(2);
        let tasks: Vec<BatchTask> = vec![
            Box::new(tiny_output),
            Box::new(|| panic!("injected batch worker failure")),
        ];
        let err = pool.run_batch(tasks).unwrap_err();
        assert!(
            matches!(
                &err,
                HeteroSvdError::WorkerPanicked(msg) if msg.contains("injected batch worker failure")
            ),
            "unexpected error: {err:?}"
        );
        // The worker that contained the panic still serves new tasks.
        let tasks: Vec<BatchTask> = (0..4).map(|_| Box::new(tiny_output) as BatchTask).collect();
        assert_eq!(pool.run_batch(tasks).unwrap().len(), 4);
    }

    /// Waits until `done` holds, yielding.
    fn wait_for(done: impl Fn() -> bool) {
        while !done() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn late_helper_is_a_no_op() {
        let pool = BatchPool::new(1);
        let (release, gate) = channel::<()>();
        let helped = Arc::new(AtomicBool::new(false));
        let busy_started = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            let started = Arc::clone(&busy_started);
            let busy = s.spawn(|| {
                pool.run_batch_with(vec![move || {
                    started.store(true, Ordering::SeqCst);
                    gate.recv().ok();
                    Ok(())
                }])
            });
            // The only worker is now busy, so the helper job queues.
            wait_for(|| busy_started.load(Ordering::SeqCst));
            let flag = Arc::clone(&helped);
            let lease = pool.lend_helper(move |_| flag.store(true, Ordering::SeqCst));
            assert!(!lease.attached());
            // Closing never waits for a helper that has not started.
            lease.close().unwrap();
            release.send(()).unwrap();
            busy.join().unwrap().unwrap();
        });
        // The queue is FIFO with one worker: once this batch ran, the
        // helper job ran before it, as a no-op.
        pool.run_batch_with(vec![|| Ok(())]).unwrap();
        assert!(!helped.load(Ordering::SeqCst));
    }

    #[test]
    fn queued_batch_waits_at_most_one_round_for_the_helper() {
        let pool = BatchPool::new(1);
        let cfg = HeteroSvdConfig::builder(64, 64)
            .engine_parallelism(2)
            .pl_freq_mhz(208.3)
            .build()
            .unwrap();
        let plan = PlanHandle::build(&cfg).unwrap();
        let mut pipe = OrthPipeline::new(&cfg, &plan);
        pipe.lend_helper(&pool);
        wait_for(|| pipe.helper_attached());
        let share = pipe.round_share().expect("a helper is lent");
        let batch_done = AtomicBool::new(false);
        let (open, helper_last) = std::thread::scope(|s| {
            let batch = s.spawn(|| {
                // Let the helper work a few rounds first.
                wait_for(|| share.rounds().1 >= 3);
                let (open, _) = share.rounds();
                let probe = Arc::clone(&share);
                // The task starts only once the helper has left the
                // worker, so it reads the helper's final round.
                let last = pool.run_batch_with(vec![move || Ok(probe.rounds().1)]);
                batch_done.store(true, Ordering::SeqCst);
                (open, last.unwrap()[0])
            });
            let mut b = Matrix::from_fn(64, 64, |r, c| {
                ((r * 41 + c * 17 + 5) % 23) as f32 / 5.0 - 2.0 + if r == c { 2.0 } else { 0.0 }
            });
            let mut iterations = 0;
            while !batch_done.load(Ordering::SeqCst) && iterations < 2_000 {
                pipe.run_iteration(&mut b);
                iterations += 1;
            }
            assert!(
                batch_done.load(Ordering::SeqCst),
                "the batch was still queued after {iterations} iterations"
            );
            pipe.release_helper().unwrap();
            batch.join().unwrap()
        });
        assert!(
            helper_last <= open + 1,
            "the helper claimed in round {helper_last} after work queued during round {open}"
        );
    }

    #[test]
    fn helper_panic_surfaces_as_error_and_pool_survives() {
        let pool = BatchPool::new(1);
        let lease = pool.lend_helper(|_| panic!("injected helper failure"));
        wait_for(|| lease.detached());
        let err = lease.close().unwrap_err();
        assert!(
            matches!(
                &err,
                HeteroSvdError::WorkerPanicked(msg) if msg.contains("injected helper failure")
            ),
            "unexpected error: {err:?}"
        );
        let tasks: Vec<BatchTask> = (0..2).map(|_| Box::new(tiny_output) as BatchTask).collect();
        assert_eq!(pool.run_batch(tasks).unwrap().len(), 2);
    }
}
