//! Budget-aware job scheduling: a bounded admission queue over a fixed
//! worker pool, replacing the thread-per-job spawn of the first anytime
//! engine (DESIGN.md §10.2).
//!
//! [`Engine::submit`](super::Engine::submit) used to spawn one OS thread
//! per job, which serves a single interactive caller fine but melts under
//! service traffic: a burst of submissions became a burst of threads with
//! no admission control at all. The [`Scheduler`] bounds both dimensions:
//!
//! * **Concurrency cap** — at most `max_concurrent` jobs execute at once,
//!   on long-lived worker threads created lazily on first submission.
//! * **Bounded admission queue** — at most `queue_capacity` jobs wait;
//!   beyond that, [`Scheduler::try_submit_with`] sheds load with
//!   [`AdmissionError::QueueFull`] carrying a retry hint (the service layer
//!   translates it to HTTP 429 + `Retry-After`).
//! * **Shortest-budget-first ordering** — queued jobs run in ascending
//!   order of their *declared* wall-clock budget (ties broken FIFO;
//!   budget-less jobs are treated as unbounded and run last). A declared
//!   budget is the caller's own statement of how long the job may take, so
//!   it doubles as a size estimate: letting short jobs overtake long ones
//!   bounds queueing delay for exactly the callers that asked to be quick.
//! * **Recovered-first re-admission** — jobs re-admitted from a durable
//!   journal after a restart ([`Scheduler::submit_recovered_with`]) form a
//!   strictly higher admission class: they run before every fresh
//!   submission, in plain re-admission (FIFO) order, ignoring their
//!   declared budgets. Recovery replays the journal in ascending job-id
//!   order, so the execution order of interrupted work is a deterministic
//!   function of the journal alone — budget-based overtaking by new
//!   traffic could otherwise reorder (and starve) the very jobs the
//!   restart promised to finish.
//! * **Never-shed rounds** — the next round of a job that already holds
//!   its place ([`Scheduler::resubmit_with`]: a service's follow job
//!   re-solving after an edit) joins the fresh class in budget order but
//!   is never shed. A caller that keeps at most one round of each such job
//!   queued or running lets the queue exceed `queue_capacity` by at most
//!   the number of those jobs.
//!
//! Running jobs are never shed and never preempted — cancellation stays
//! cooperative through each job's [`CancelToken`], exactly as in the
//! thread-per-job engine. Queued jobs whose token is cancelled before a
//! worker picks them up still execute (the kernel observes the token at
//! its first checkpoint and returns immediately), so every accepted job
//! produces a report and no [`JobHandle::wait`] ever dangles.
//!
//! A job reports through its [`JobHooks`]: the sink's listener sees each
//! event as the kernel publishes it, and the worker that ran the job
//! calls its completion exactly once with the result — after a kernel
//! panic and after a drain-cancel too. That is the only completion path;
//! a [`JobHandle`] is the in-process adapter over the same two hooks.

use super::job::{CancelToken, JobHandle, JobHooks};
use super::request::AggregationRequest;
use super::Engine;
use crate::algorithms::MatrixCache;
use crate::telemetry::{Gauge, MetricsRegistry};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default bound on the admission queue (waiting jobs, not running ones).
pub const DEFAULT_QUEUE_CAPACITY: usize = 128;

/// How a [`Scheduler`] is shaped: its concurrency cap and queue bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Maximum number of jobs executing at once (worker-pool width, ≥ 1).
    pub max_concurrent: usize,
    /// Maximum number of *queued* (admitted but not yet running) jobs
    /// before [`Scheduler::try_submit_with`] sheds load (≥ 1).
    pub queue_capacity: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_concurrent: crate::parallel::num_threads(),
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
        }
    }
}

impl SchedulerConfig {
    pub(crate) fn normalized(self) -> Self {
        SchedulerConfig {
            max_concurrent: self.max_concurrent.max(1),
            queue_capacity: self.queue_capacity.max(1),
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The admission queue is at capacity; retry after the hint (the
    /// shortest declared budget among the jobs ahead, clamped to
    /// `[1s, 60s]` — a heuristic, not a guarantee).
    QueueFull {
        /// Jobs currently waiting.
        queued: usize,
        /// The queue bound they hit.
        capacity: usize,
        /// Suggested wait before retrying.
        retry_after: Duration,
    },
    /// The scheduler is shutting down and accepts no new work.
    ShuttingDown,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull {
                queued,
                capacity,
                retry_after,
            } => write!(
                f,
                "admission queue full ({queued}/{capacity} jobs waiting); retry in {:.0?}",
                retry_after
            ),
            AdmissionError::ShuttingDown => write!(f, "scheduler is shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// A point-in-time view of the scheduler, for observability (`/healthz`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Jobs admitted but not yet running.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// The admission-queue bound.
    pub queue_capacity: usize,
    /// The concurrency cap.
    pub max_concurrent: usize,
}

/// One admitted, not-yet-running job.
struct QueuedJob {
    request: AggregationRequest,
    hooks: JobHooks,
    seq: u64,
    /// Re-admitted from a journal after a restart: runs ahead of every
    /// fresh submission, FIFO within the recovered class.
    recovered: bool,
    /// When the job entered the queue — the queue-wait phase starts here.
    enqueued: Instant,
}

impl QueuedJob {
    /// Priority key: recovered jobs first (FIFO among themselves — their
    /// budget is ignored so re-admission order is the journal's order),
    /// then ascending declared budget, FIFO within a budget class;
    /// budget-less jobs sort after every bounded one.
    fn key(&self) -> (u8, Duration, u64) {
        if self.recovered {
            (0, Duration::ZERO, self.seq)
        } else {
            (1, self.request.budget.unwrap_or(Duration::MAX), self.seq)
        }
    }
}

#[derive(Default)]
struct State {
    queue: Vec<QueuedJob>,
    /// The jobs currently executing — their declared budget (for the
    /// retry hint) and cancel token (for drain-cancel), keyed by seq.
    running: Vec<(u64, Option<Duration>, CancelToken)>,
    next_seq: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for queued jobs (or shutdown).
    work_ready: Condvar,
    /// Blocking submitters wait here for queue space.
    space_ready: Condvar,
    config: SchedulerConfig,
    /// The owning engine's telemetry registry (threaded into every
    /// executed job).
    metrics: Arc<MetricsRegistry>,
    /// Pre-resolved `rawt_queue_depth` gauge: admission and dequeue are
    /// on the hot path, so the handle is resolved once, not per job.
    queued_gauge: Arc<Gauge>,
    /// Pre-resolved `rawt_jobs_running` gauge.
    running_gauge: Arc<Gauge>,
}

impl Shared {
    fn class_of(recovered: bool) -> &'static str {
        if recovered {
            "recovered"
        } else {
            "fresh"
        }
    }

    /// Record `n` admissions of one class: the per-class counter plus the
    /// queue-depth gauge.
    fn count_admitted(&self, recovered: bool, n: u64) {
        self.metrics
            .counter(
                "rawt_jobs_admitted_total",
                "Jobs admitted into the scheduler queue, by admission class.",
                &[("class", Shared::class_of(recovered))],
            )
            .add(n);
        self.queued_gauge.add(n as i64);
    }

    /// Record `n` submissions shed with `QueueFull` (only the shedding
    /// entry points count — the blocking `submit` loop retries instead of
    /// shedding, and recovered re-admission never sheds).
    fn count_shed(&self, n: u64) {
        self.metrics
            .counter(
                "rawt_jobs_shed_total",
                "Submissions refused with QueueFull, by admission class.",
                &[("class", "fresh")],
            )
            .add(n);
    }
}

/// The budget-aware scheduler behind [`Engine::submit`]. See the module
/// docs for the admission/ordering/shedding rules.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("Scheduler")
            .field("config", &self.shared.config)
            .field("queued", &stats.queued)
            .field("running", &stats.running)
            .finish()
    }
}

impl Scheduler {
    /// A scheduler executing jobs against `cache`, its worker pool spawned
    /// eagerly (the engine constructs the scheduler lazily, on the first
    /// submission, so engines that only ever `run` never pay for it).
    pub fn new(
        config: SchedulerConfig,
        cache: Arc<MatrixCache>,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        let config = config.normalized();
        let queued_gauge = metrics.gauge(
            "rawt_queue_depth",
            "Jobs admitted but not yet running.",
            &[],
        );
        let running_gauge = metrics.gauge("rawt_jobs_running", "Jobs currently executing.", &[]);
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            work_ready: Condvar::new(),
            space_ready: Condvar::new(),
            config,
            metrics,
            queued_gauge,
            running_gauge,
        });
        let workers = (0..config.max_concurrent)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let cache = Arc::clone(&cache);
                std::thread::Builder::new()
                    .name(format!("rank-sched-{i}"))
                    .spawn(move || worker_loop(&shared, &cache))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Scheduler {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Admit `request` if the queue has room; otherwise shed it. Reports
    /// through caller-built `hooks` (`JobHandle::attach` builds a
    /// handle's). On refusal the hooks are dropped and the completion is
    /// never called; once admitted, it is called exactly once.
    pub fn try_submit_with(
        &self,
        request: AggregationRequest,
        hooks: JobHooks,
    ) -> Result<(), AdmissionError> {
        self.admit(request, hooks, false, true)
            .map_err(|(_, _, e)| {
                if matches!(e, AdmissionError::QueueFull { .. }) {
                    self.shared.count_shed(1);
                }
                e
            })
    }

    /// Admit a whole batch as one unit, one set of hooks per request:
    /// either every request fits in the queue together, or none is
    /// admitted (a partially admitted panel would leave the caller holding
    /// half a batch with no way to retry the rest under the same admission
    /// decision).
    pub fn try_submit_batch_with(
        &self,
        jobs: Vec<(AggregationRequest, JobHooks)>,
    ) -> Result<(), AdmissionError> {
        let mut state = self.shared.state.lock().expect("scheduler state poisoned");
        if state.shutdown {
            return Err(AdmissionError::ShuttingDown);
        }
        if state.queue.len() + jobs.len() > self.shared.config.queue_capacity {
            let err = AdmissionError::QueueFull {
                queued: state.queue.len(),
                capacity: self.shared.config.queue_capacity,
                retry_after: retry_hint(&state),
            };
            drop(state);
            self.shared.count_shed(jobs.len() as u64);
            return Err(err);
        }
        let admitted = jobs.len() as u64;
        for (request, hooks) in jobs {
            let seq = state.next_seq;
            state.next_seq += 1;
            state.queue.push(QueuedJob {
                request,
                hooks,
                seq,
                recovered: false,
                enqueued: Instant::now(),
            });
        }
        drop(state);
        self.shared.count_admitted(false, admitted);
        self.shared.work_ready.notify_all();
        Ok(())
    }

    /// Admit the next round of a job that already holds its place: the
    /// fresh class, in budget order, but never shed for a full queue —
    /// refused only while shutting down. The caller bounds the overshoot:
    /// with at most one round of each such job queued or running, the
    /// queue exceeds `queue_capacity` by at most the number of those jobs.
    pub fn resubmit_with(
        &self,
        request: AggregationRequest,
        hooks: JobHooks,
    ) -> Result<(), AdmissionError> {
        self.admit(request, hooks, false, false)
            .map_err(|(_, _, e)| e)
    }

    /// Admit one job, returning the request and hooks on rejection so the
    /// blocking path can retry them. `capped` jobs are refused when the
    /// queue is full.
    // The large Err is the point: rejection hands the request back so
    // `submit` can retry it without a clone on the admission fast path.
    #[allow(clippy::result_large_err)]
    fn admit(
        &self,
        request: AggregationRequest,
        hooks: JobHooks,
        recovered: bool,
        capped: bool,
    ) -> Result<(), (AggregationRequest, JobHooks, AdmissionError)> {
        let mut state = self.shared.state.lock().expect("scheduler state poisoned");
        if state.shutdown {
            return Err((request, hooks, AdmissionError::ShuttingDown));
        }
        if capped && state.queue.len() >= self.shared.config.queue_capacity {
            let err = AdmissionError::QueueFull {
                queued: state.queue.len(),
                capacity: self.shared.config.queue_capacity,
                retry_after: retry_hint(&state),
            };
            return Err((request, hooks, err));
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        state.queue.push(QueuedJob {
            request,
            hooks,
            seq,
            recovered,
            enqueued: Instant::now(),
        });
        drop(state);
        self.shared.count_admitted(recovered, 1);
        self.shared.work_ready.notify_one();
        Ok(())
    }

    /// Admit `request`, blocking until the queue has room (the in-process
    /// compatibility path; remote front ends use
    /// [`Scheduler::try_submit_with`] and shed instead).
    ///
    /// # Panics
    ///
    /// Panics if the scheduler is shut down while waiting — submitting to
    /// an engine being torn down is a caller bug.
    pub fn submit(&self, request: AggregationRequest) -> JobHandle {
        let (handle, hooks) = JobHandle::attach();
        self.submit_class(request, hooks, false);
        handle
    }

    /// Blocking admission into the **recovered** class, reporting through
    /// caller-built hooks: the job runs before every fresh submission, FIFO
    /// among recovered jobs (see the module docs). This is the
    /// restart-recovery path — the service re-admits journaled jobs with
    /// it in ascending job-id order, which makes the post-restart
    /// execution order a deterministic function of the journal. Blocking
    /// (rather than shedding) is deliberate: recovery happens before the
    /// server starts accepting traffic, and a journal holding more
    /// interrupted jobs than the queue bound must wait for room, not drop
    /// work it promised to finish.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler is shut down while waiting, exactly like
    /// [`Scheduler::submit`].
    pub fn submit_recovered_with(&self, request: AggregationRequest, hooks: JobHooks) {
        self.submit_class(request, hooks, true);
    }

    fn submit_class(&self, request: AggregationRequest, hooks: JobHooks, recovered: bool) {
        let mut job = (request, hooks);
        loop {
            match self.admit(job.0, job.1, recovered, true) {
                Ok(()) => return,
                Err((_, _, AdmissionError::ShuttingDown)) => {
                    panic!("Engine::submit on a shut-down engine")
                }
                Err((request, hooks, AdmissionError::QueueFull { .. })) => {
                    job = (request, hooks);
                    let state = self.shared.state.lock().expect("scheduler state poisoned");
                    drop(
                        self.shared
                            .space_ready
                            .wait_while(state, |s| {
                                !s.shutdown && s.queue.len() >= self.shared.config.queue_capacity
                            })
                            .expect("scheduler state poisoned"),
                    );
                }
            }
        }
    }

    /// Current queue/running counts.
    pub fn stats(&self) -> SchedulerStats {
        let state = self.shared.state.lock().expect("scheduler state poisoned");
        SchedulerStats {
            queued: state.queue.len(),
            running: state.running.len(),
            queue_capacity: self.shared.config.queue_capacity,
            max_concurrent: self.shared.config.max_concurrent,
        }
    }

    /// The scheduler's shape.
    pub fn config(&self) -> SchedulerConfig {
        self.shared.config
    }

    /// Stop accepting work, cooperatively cancel every queued *and*
    /// running job, and join the workers once the queue has drained
    /// (cancelled queued jobs still execute — each stops at its first
    /// checkpoint — so every outstanding [`JobHandle`] resolves).
    pub fn shutdown_drain(&self) {
        let (queued, running) = {
            let mut state = self.shared.state.lock().expect("scheduler state poisoned");
            state.shutdown = true;
            for job in &state.queue {
                job.hooks.cancel.cancel();
            }
            for (_, _, token) in &state.running {
                token.cancel();
            }
            (state.queue.len() as u64, state.running.len() as u64)
        };
        let drain_help = "Jobs cooperatively cancelled by shutdown_drain, by stage.";
        self.shared
            .metrics
            .counter(
                "rawt_jobs_drain_cancelled_total",
                drain_help,
                &[("stage", "queued")],
            )
            .add(queued);
        self.shared
            .metrics
            .counter(
                "rawt_jobs_drain_cancelled_total",
                drain_help,
                &[("stage", "running")],
            )
            .add(running);
        self.shared.work_ready.notify_all();
        self.shared.space_ready.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().expect("worker list poisoned"));
        for worker in workers {
            let _ = worker.join();
        }
    }
}

impl Drop for Scheduler {
    /// Dropping the scheduler (usually via its [`Engine`]) signals
    /// shutdown but does **not** join or cancel: workers drain the
    /// remaining queue normally and then exit, so a handle obtained from a
    /// since-dropped engine still yields its report
    /// (`Engine::new().submit(…)` is a supported pattern).
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().expect("scheduler state poisoned");
        state.shutdown = true;
        drop(state);
        self.shared.work_ready.notify_all();
        self.shared.space_ready.notify_all();
    }
}

/// Retry hint for a shed submission: the shortest declared budget among
/// the jobs ahead (queued and running) approximates when a slot frees up;
/// clamped to `[1s, 60s]` so the hint is neither zero nor absurd.
fn retry_hint(state: &State) -> Duration {
    let queued = state.queue.iter().filter_map(|j| j.request.budget);
    let running = state.running.iter().filter_map(|(_, budget, _)| *budget);
    let shortest = queued
        .chain(running)
        .min()
        .unwrap_or(Duration::from_secs(1));
    shortest.clamp(Duration::from_secs(1), Duration::from_secs(60))
}

fn worker_loop(shared: &Shared, cache: &Arc<MatrixCache>) {
    let queue_wait_hist = shared.metrics.histogram(
        "rawt_queue_wait_seconds",
        "Time jobs spent in the admission queue before a worker picked them up.",
        &[],
    );
    loop {
        let job = {
            let mut state = shared.state.lock().expect("scheduler state poisoned");
            let job = loop {
                if let Some(i) = next_index(&state.queue) {
                    break state.queue.swap_remove(i);
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .expect("scheduler state poisoned");
            };
            // Register as running inside the same critical section that
            // dequeues, so a concurrent drain never misses the job's token.
            state
                .running
                .push((job.seq, job.request.budget, job.hooks.cancel.clone()));
            job
        };
        shared.queued_gauge.dec();
        shared.running_gauge.inc();
        let queue_wait = job.enqueued.elapsed();
        queue_wait_hist.record(queue_wait);
        shared.space_ready.notify_one();
        let result = catch_unwind(AssertUnwindSafe(|| {
            Engine::execute(
                &job.request,
                cache,
                &shared.metrics,
                &job.hooks.sink,
                job.hooks.cancel.clone(),
                queue_wait,
            )
        }));
        // Release the request's dataset and matrix before the report is
        // delivered: a caller that edits its live session as soon as it
        // holds the report must find them unshared, or the edit copies.
        drop(job.request);
        if result.is_err() {
            // A panicking kernel never reached `close`; drop the listener
            // so a handle's event stream ends and is not stranded.
            job.hooks.sink.close();
        }
        shared.running_gauge.dec();
        shared
            .state
            .lock()
            .expect("scheduler state poisoned")
            .running
            .retain(|(seq, _, _)| *seq != job.seq);
        // The one completion path. A panicking completion must not take
        // this worker down with it: the pool would shrink for good.
        let completion = job.hooks.completion;
        let _ = catch_unwind(AssertUnwindSafe(move || completion(result)));
    }
}

/// Index of the queued job with the smallest (class, budget, seq) key.
/// Linear
/// scan: the queue is bounded and small, and pops are rare relative to
/// the work each job represents.
fn next_index(queue: &[QueuedJob]) -> Option<usize> {
    queue
        .iter()
        .enumerate()
        .min_by_key(|(_, j)| j.key())
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AlgoSpec, Event, IncumbentSink, Listener, Outcome};
    use crate::parse::parse_ranking;
    use crate::Dataset;

    fn tiny_dataset() -> Dataset {
        Dataset::new(vec![
            parse_ranking("[{0},{3},{1,2}]").unwrap(),
            parse_ranking("[{0},{1,2},{3}]").unwrap(),
            parse_ranking("[{3},{0,2},{1}]").unwrap(),
        ])
        .unwrap()
    }

    fn sched(max_concurrent: usize, queue_capacity: usize) -> Scheduler {
        Scheduler::new(
            SchedulerConfig {
                max_concurrent,
                queue_capacity,
            },
            Arc::new(MatrixCache::new()),
            Arc::new(MetricsRegistry::new()),
        )
    }

    /// Shedding admission of a job watched through a handle.
    fn try_submit(s: &Scheduler, request: AggregationRequest) -> Result<JobHandle, AdmissionError> {
        let (handle, hooks) = JobHandle::attach();
        s.try_submit_with(request, hooks).map(|()| handle)
    }

    /// Recovered-class admission of a job watched through a handle.
    fn submit_recovered(s: &Scheduler, request: AggregationRequest) -> JobHandle {
        let (handle, hooks) = JobHandle::attach();
        s.submit_recovered_with(request, hooks);
        handle
    }

    /// All-or-nothing admission of a panel, one handle per request.
    fn try_submit_batch(
        s: &Scheduler,
        requests: Vec<AggregationRequest>,
    ) -> Result<Vec<JobHandle>, AdmissionError> {
        let (handles, jobs): (Vec<_>, Vec<_>) = requests
            .into_iter()
            .map(|request| {
                let (handle, hooks) = JobHandle::attach();
                (handle, (request, hooks))
            })
            .unzip();
        s.try_submit_batch_with(jobs).map(|()| handles)
    }

    #[test]
    fn runs_a_job_to_completion() {
        let s = sched(1, 4);
        let handle = try_submit(&s, AggregationRequest::new(tiny_dataset(), AlgoSpec::Exact))
            .expect("admitted");
        let report = handle.wait();
        assert_eq!(report.score, 5);
        assert_eq!(report.outcome, Outcome::Optimal);
    }

    #[test]
    fn sheds_load_when_the_queue_is_full_without_touching_running_jobs() {
        let s = sched(1, 1);
        // Occupy the single worker with a long multi-start job; its
        // per-repeat checkpoints make it promptly cancellable afterwards.
        let blocker = try_submit(
            &s,
            AggregationRequest::new(
                tiny_dataset(),
                AlgoSpec::BestOf {
                    base: Box::new(AlgoSpec::KwikSort),
                    runs: 200_000,
                },
            ),
        )
        .expect("admitted");
        // Wait until it is actually running so the next job queues.
        while s.stats().running == 0 {
            std::thread::yield_now();
        }
        let queued = try_submit(&s, AggregationRequest::new(tiny_dataset(), AlgoSpec::Exact))
            .expect("queue has room");
        let shed = try_submit(&s, AggregationRequest::new(tiny_dataset(), AlgoSpec::Borda));
        match shed {
            Err(AdmissionError::QueueFull {
                queued: q,
                capacity,
                retry_after,
            }) => {
                assert_eq!((q, capacity), (1, 1));
                assert!(retry_after >= Duration::from_secs(1));
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        blocker.cancel();
        let cancelled = blocker.wait();
        assert_eq!(cancelled.outcome, Outcome::Cancelled);
        // The queued job was never dropped: it runs after the blocker.
        assert_eq!(queued.wait().score, 5);
    }

    #[test]
    fn queued_jobs_run_shortest_declared_budget_first() {
        let s = sched(1, 8);
        let blocker = try_submit(
            &s,
            AggregationRequest::new(
                tiny_dataset(),
                AlgoSpec::BestOf {
                    base: Box::new(AlgoSpec::KwikSort),
                    runs: 200_000,
                },
            ),
        )
        .expect("admitted");
        while s.stats().running == 0 {
            std::thread::yield_now();
        }
        // Queue: no-budget first, then long, then short — they must run
        // short, long, no-budget.
        let unbounded = try_submit(&s, AggregationRequest::new(tiny_dataset(), AlgoSpec::Exact))
            .expect("admitted");
        let long = try_submit(
            &s,
            AggregationRequest::new(tiny_dataset(), AlgoSpec::Exact)
                .with_budget(Duration::from_secs(600)),
        )
        .expect("admitted");
        let short = try_submit(
            &s,
            AggregationRequest::new(tiny_dataset(), AlgoSpec::Exact)
                .with_budget(Duration::from_secs(1)),
        )
        .expect("admitted");
        // Inspect the drain order through the queue itself: pop order is
        // determined by `next_index`, exercised by releasing the worker.
        {
            let state = s.shared.state.lock().unwrap();
            let order: Vec<u64> = {
                let mut q: Vec<_> = state.queue.iter().map(|j| j.key()).collect();
                q.sort();
                q.into_iter().map(|(_, _, seq)| seq).collect()
            };
            assert_eq!(order, vec![3, 2, 1], "short budget first, FIFO last");
        }
        blocker.cancel();
        let _ = blocker.wait();
        for h in [short, long, unbounded] {
            assert_eq!(h.wait().score, 5);
        }
    }

    #[test]
    fn recovered_jobs_run_before_fresh_ones_in_fifo_order() {
        let s = sched(1, 8);
        let blocker = try_submit(
            &s,
            AggregationRequest::new(
                tiny_dataset(),
                AlgoSpec::BestOf {
                    base: Box::new(AlgoSpec::KwikSort),
                    runs: 200_000,
                },
            ),
        )
        .expect("admitted");
        while s.stats().running == 0 {
            std::thread::yield_now();
        }
        // A fresh short-budget job would normally overtake everything;
        // recovered jobs (even budget-less ones, admitted later) must
        // still come first, in their own admission order.
        let fresh = try_submit(
            &s,
            AggregationRequest::new(tiny_dataset(), AlgoSpec::Exact)
                .with_budget(Duration::from_secs(1)),
        )
        .expect("admitted");
        let recovered_a = submit_recovered(
            &s,
            AggregationRequest::new(tiny_dataset(), AlgoSpec::Exact)
                .with_budget(Duration::from_secs(600)),
        );
        let recovered_b =
            submit_recovered(&s, AggregationRequest::new(tiny_dataset(), AlgoSpec::Exact));
        {
            let state = s.shared.state.lock().unwrap();
            let order: Vec<u64> = {
                let mut q: Vec<_> = state.queue.iter().map(|j| j.key()).collect();
                q.sort();
                q.into_iter().map(|(_, _, seq)| seq).collect()
            };
            // seqs: blocker=0 (running), fresh=1, recovered_a=2, recovered_b=3.
            assert_eq!(order, vec![2, 3, 1], "recovered FIFO first, then fresh");
        }
        blocker.cancel();
        let _ = blocker.wait();
        for h in [recovered_a, recovered_b, fresh] {
            assert_eq!(h.wait().score, 5);
        }
    }

    #[test]
    fn batch_admission_is_all_or_nothing() {
        let s = sched(1, 3);
        let blocker = try_submit(
            &s,
            AggregationRequest::new(
                tiny_dataset(),
                AlgoSpec::BestOf {
                    base: Box::new(AlgoSpec::KwikSort),
                    runs: 200_000,
                },
            ),
        )
        .expect("admitted");
        while s.stats().running == 0 {
            std::thread::yield_now();
        }
        // Two slots occupied by a pair-batch: fits (2 ≤ 3).
        let pair = try_submit_batch(
            &s,
            vec![
                AggregationRequest::new(tiny_dataset(), AlgoSpec::Exact),
                AggregationRequest::new(tiny_dataset(), AlgoSpec::Exact),
            ],
        )
        .expect("batch of two fits");
        assert_eq!(pair.len(), 2);
        // A second pair would need 4 total slots: the *whole* batch is
        // shed, leaving the queue exactly as it was.
        let shed = try_submit_batch(
            &s,
            vec![
                AggregationRequest::new(tiny_dataset(), AlgoSpec::Exact),
                AggregationRequest::new(tiny_dataset(), AlgoSpec::Borda),
            ],
        );
        match shed {
            Err(AdmissionError::QueueFull {
                queued, capacity, ..
            }) => assert_eq!((queued, capacity), (2, 3)),
            other => panic!("expected QueueFull, got {:?}", other.map(|h| h.len())),
        }
        assert_eq!(s.stats().queued, 2, "shed batch admitted nothing");
        // A single job still fits in the remaining slot.
        let single = try_submit(&s, AggregationRequest::new(tiny_dataset(), AlgoSpec::Exact))
            .expect("one slot left");
        blocker.cancel();
        let _ = blocker.wait();
        for h in pair {
            assert_eq!(h.wait().score, 5);
        }
        assert_eq!(single.wait().score, 5);
    }

    #[test]
    fn completions_run_once_even_when_a_kernel_or_a_completion_panics() {
        let s = sched(1, 4);
        let (tx, rx) = std::sync::mpsc::channel();
        // A listener that panics on `Started` crashes the run like a
        // kernel panic would: the completion gets the `Err`.
        let listener: Listener = Arc::new(|event: &Event| {
            assert!(!matches!(event, Event::Started { .. }), "listener fault");
        });
        let crashed = JobHooks {
            sink: Arc::new(IncumbentSink::with_listener(listener)),
            cancel: CancelToken::new(),
            completion: Box::new(move |result| tx.send(result.is_err()).expect("receiver")),
        };
        s.try_submit_with(
            AggregationRequest::new(tiny_dataset(), AlgoSpec::Borda),
            crashed,
        )
        .expect("admitted");
        // A completion that panics must not take the only worker down.
        let faulty = JobHooks {
            sink: Arc::new(IncumbentSink::new()),
            cancel: CancelToken::new(),
            completion: Box::new(|_| panic!("completion fault")),
        };
        s.try_submit_with(
            AggregationRequest::new(tiny_dataset(), AlgoSpec::Borda),
            faulty,
        )
        .expect("admitted");
        let next = try_submit(&s, AggregationRequest::new(tiny_dataset(), AlgoSpec::Exact))
            .expect("admitted");
        assert_eq!(next.wait().score, 5, "the worker survived both panics");
        assert_eq!(
            rx.try_iter().collect::<Vec<_>>(),
            vec![true],
            "one call, with the panic"
        );
    }

    #[test]
    fn drain_cancels_queued_and_running_and_resolves_every_handle() {
        let s = sched(1, 8);
        let running = try_submit(
            &s,
            AggregationRequest::new(
                tiny_dataset(),
                AlgoSpec::BestOf {
                    base: Box::new(AlgoSpec::KwikSort),
                    runs: 200_000,
                },
            ),
        )
        .expect("admitted");
        while s.stats().running == 0 {
            std::thread::yield_now();
        }
        let queued = try_submit(
            &s,
            AggregationRequest::new(
                tiny_dataset(),
                AlgoSpec::BestOf {
                    base: Box::new(AlgoSpec::KwikSort),
                    runs: 200_000,
                },
            ),
        )
        .expect("admitted");
        s.shutdown_drain();
        assert_eq!(running.wait().outcome, Outcome::Cancelled);
        // The queued job was cancelled before it started; it still
        // resolves (stopping at its first checkpoint).
        let report = queued.wait();
        assert_eq!(report.outcome, Outcome::Cancelled);
        // After a drain, new submissions are refused.
        assert_eq!(
            try_submit(&s, AggregationRequest::new(tiny_dataset(), AlgoSpec::Borda)).err(),
            Some(AdmissionError::ShuttingDown)
        );
    }

    #[test]
    fn resubmitted_rounds_pass_a_full_queue_and_stop_at_shutdown() {
        let s = sched(1, 1);
        let blocker = try_submit(
            &s,
            AggregationRequest::new(
                tiny_dataset(),
                AlgoSpec::BestOf {
                    base: Box::new(AlgoSpec::KwikSort),
                    runs: 200_000,
                },
            ),
        )
        .expect("admitted");
        while s.stats().running == 0 {
            std::thread::yield_now();
        }
        let queued = try_submit(&s, AggregationRequest::new(tiny_dataset(), AlgoSpec::Exact))
            .expect("queue has room");
        assert!(matches!(
            try_submit(&s, AggregationRequest::new(tiny_dataset(), AlgoSpec::Borda)),
            Err(AdmissionError::QueueFull { .. })
        ));
        // The queue is full, yet a round of a job already admitted enters
        // it, in the fresh class (budget order: the budgeted round first).
        let (round, hooks) = JobHandle::attach();
        s.resubmit_with(
            AggregationRequest::new(tiny_dataset(), AlgoSpec::Exact)
                .with_budget(Duration::from_secs(1)),
            hooks,
        )
        .expect("a round is never shed");
        assert_eq!(s.stats().queued, 2, "one past the queue bound");
        {
            let state = s.shared.state.lock().unwrap();
            let mut keys: Vec<_> = state.queue.iter().map(|j| j.key()).collect();
            keys.sort();
            let order: Vec<(u8, u64)> = keys.iter().map(|&(class, _, seq)| (class, seq)).collect();
            assert_eq!(order, vec![(1, 2), (1, 1)], "fresh class, budget order");
        }
        blocker.cancel();
        let _ = blocker.wait();
        assert_eq!(round.wait().score, 5);
        assert_eq!(queued.wait().score, 5);
        s.shutdown_drain();
        let (_, hooks) = JobHandle::attach();
        assert_eq!(
            s.resubmit_with(
                AggregationRequest::new(tiny_dataset(), AlgoSpec::Borda),
                hooks
            )
            .err(),
            Some(AdmissionError::ShuttingDown)
        );
    }
}
