//! The aggregation engine: a request/report serving layer over the
//! consensus kernels.
//!
//! Earlier revisions exposed the algorithm suite as research-script
//! plumbing: callers string-matched
//! [`ConsensusAlgorithm::name`]
//! against hard-coded panel vectors and read outcomes back out of shared
//! atomic flags on [`AlgoContext`] — which mis-attributed timeouts whenever
//! several algorithms shared one context family. This module is the
//! production front door replacing that (DESIGN.md §8):
//!
//! * [`AlgoSpec`] — typed, parse/display round-trippable algorithm names
//!   backed by a constructor [`registry`];
//! * [`AggregationRequest`] / [`ConsensusReport`] — everything a run needs
//!   in, everything it learned out (ranking, Kemeny score, gap, elapsed
//!   time, a per-request [`Outcome`], the spec and seed for provenance);
//! * [`Engine`] — [`Engine::run`] for one request, [`Engine::run_batch`]
//!   for concurrent execution of many requests over one shared
//!   fingerprint-keyed cost-matrix cache and a bounded worker pool;
//! * [`Engine::submit`] — the **anytime** path ([`job`], DESIGN.md §9):
//!   a [`JobHandle`] streaming [`Event`]s (started / strictly improving
//!   incumbents / finished), a harvestable best-so-far, cooperative
//!   cancellation, and a time-to-score [`ConsensusReport::trace`] in every
//!   report. `run`/`run_batch` are thin wrappers over submit + wait.
//!
//! # Quick example
//!
//! ```
//! use rank_core::engine::{AggregationRequest, AlgoSpec, Engine, Outcome};
//! use rank_core::{Dataset, Ranking};
//!
//! // The paper's §2.2 running example; its optimal consensus scores 5.
//! let data = Dataset::new(vec![
//!     Ranking::from_slices(&[&[0], &[3], &[1, 2]]).unwrap(),
//!     Ranking::from_slices(&[&[0], &[1, 2], &[3]]).unwrap(),
//!     Ranking::from_slices(&[&[3], &[0, 2], &[1]]).unwrap(),
//! ])
//! .unwrap();
//!
//! let engine = Engine::new();
//! let report = engine.run(&AggregationRequest::new(data, AlgoSpec::Exact));
//! assert_eq!(report.score, 5);
//! assert_eq!(report.outcome, Outcome::Optimal);
//! ```

pub mod job;
pub mod request;
pub mod scheduler;
pub mod spec;

pub use job::{
    CancelToken, Completion, Event, IncumbentSink, JobHandle, JobHooks, Listener, TracePoint,
};
pub use request::{AggregationRequest, BatchBuilder, Normalization};
pub use scheduler::{AdmissionError, SchedulerConfig, SchedulerStats, DEFAULT_QUEUE_CAPACITY};
pub use spec::{
    extended_panel, full_panel, paper_panel, registry, suggest, AlgoEntry, AlgoSpec, ExecPolicy,
    KernelLane, LanePolicy, SpecErrorKind, SpecParseError, Threading, DEFAULT_MIN_RUNS,
    DENSE_LANE_BUDGET_BYTES, MAX_BEST_OF_RUNS,
};

use crate::algorithms::{AlgoContext, ConsensusAlgorithm, MatrixCache};
use crate::dataset::Dataset;
use crate::parallel;
use crate::ranking::Ranking;
use crate::score;
use crate::telemetry::MetricsRegistry;
use scheduler::Scheduler;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The result was *proved* optimal: either the exact search completed
    /// within budget, or a certified lower bound met the incumbent score
    /// (`score == lower_bound` — the bound squeeze of DESIGN.md §11.2,
    /// which can certify even a timed-out run).
    Optimal,
    /// A best-effort heuristic result, completed within budget.
    Heuristic,
    /// The run hit its budget (or an internal cap) and returned its best
    /// incumbent — the paper reports these as "no result".
    TimedOut,
    /// The caller cancelled the job ([`JobHandle::cancel`]); the report
    /// carries the best incumbent published before the run stopped.
    Cancelled,
}

impl Outcome {
    /// Whether the run produced a within-budget result (the paper's
    /// tables count `TimedOut` as "no result"; a cancelled run is the
    /// caller's own cut, also not a completed result).
    pub fn completed(&self) -> bool {
        !matches!(self, Outcome::TimedOut | Outcome::Cancelled)
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Outcome::Optimal => write!(f, "optimal"),
            Outcome::Heuristic => write!(f, "heuristic"),
            Outcome::TimedOut => write!(f, "timed out"),
            Outcome::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Where one job's wall-clock actually went, phase by phase — the
/// per-job counterpart of the engine's aggregate histograms (DESIGN.md
/// §15). Carried on every [`ConsensusReport`] and serialized into
/// `report_json`, so the breakdown survives the wire, the journal, and
/// `rawt aggregate --json` unchanged.
///
/// By construction [`PhaseBreakdown::solve`] equals
/// [`ConsensusReport::elapsed`] (both time exactly the kernel's `run`),
/// and the other phases are *additional* wall-clock around it — the sum
/// of all phases is the job's true end-to-end time, of which `elapsed`
/// is the solve share.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Time spent queued in the scheduler before a worker picked the job
    /// up (zero for inline [`Engine::run`] calls).
    pub queue_wait: Duration,
    /// Time to obtain the cost matrix: the `O(m·n²)` build, or the cache
    /// probe when [`PhaseBreakdown::matrix_cached`] is `true`.
    pub matrix_build: Duration,
    /// Whether the matrix came out of the shared [`MatrixCache`] instead
    /// of being built for this job.
    pub matrix_cached: bool,
    /// The kernel run itself — identical to [`ConsensusReport::elapsed`].
    pub solve: Duration,
    /// Time to serialize the report for the wire/journal. Zero on a
    /// freshly computed in-process report; measured and filled in by the
    /// shared serializer when the report is rendered to JSON.
    pub serialize: Duration,
}

impl PhaseBreakdown {
    /// End-to-end wall-clock: the sum of every phase.
    pub fn total(&self) -> Duration {
        self.queue_wait + self.matrix_build + self.solve + self.serialize
    }
}

/// Everything one request's run produced.
#[derive(Debug, Clone)]
pub struct ConsensusReport {
    /// The spec that ran (provenance).
    pub spec: AlgoSpec,
    /// The consensus ranking.
    pub ranking: Ranking,
    /// Generalized Kemeny score of `ranking` against the request dataset.
    pub score: u64,
    /// The pairwise-cost lane the run actually executed on (provenance:
    /// the *resolved* [`LanePolicy`], not the requested one — an explicit
    /// matrix-free request on an unsupported spec runs and reports dense).
    pub lane: KernelLane,
    /// Gap to the batch's reference score (proven optimum when one exists
    /// in the batch, otherwise the best score any batch member achieved —
    /// the paper's m-gap, §6.2.3). `None` for a lone [`Engine::run`] with
    /// nothing to compare against. Distinct from the *certified*
    /// per-event optimality gap `score − lower_bound`
    /// ([`Event::Incumbent`], [`ConsensusReport::lower_bound`]): the
    /// m-gap is relative to what the batch happened to find, the
    /// certified gap is an absolute proof.
    pub gap: Option<f64>,
    /// Best certified lower bound on the dataset's optimal Kemeny score
    /// the run proved (branch-and-bound frontier minima, Ailon's LP
    /// relaxation; `None` for heuristics, which prove nothing).
    /// Invariants, pinned by `tests/anytime_api.rs`: never above
    /// [`ConsensusReport::score`], and equal to it whenever
    /// [`ConsensusReport::outcome`] is [`Outcome::Optimal`].
    pub lower_bound: Option<u64>,
    /// Wall-clock time of this run.
    pub elapsed: Duration,
    /// Per-request outcome — never contaminated by sibling requests.
    pub outcome: Outcome,
    /// Seed the run used (provenance; same seed + spec ⇒ same report).
    pub seed: u64,
    /// The run's incumbent trace: the time-to-score curve of every strict
    /// improvement the algorithm published (strictly decreasing scores,
    /// ending at [`ConsensusReport::score`] — except for a completed
    /// Ailon run, whose LP-rounding result may legitimately end worse
    /// than the best-input incumbent it published early; see
    /// DESIGN.md §9.3). This is the paper's §6 quality-vs-time story per
    /// run, not just its endpoint. Observational: under parallel
    /// execution the *timings* may vary run to run even though
    /// ranking/score/outcome stay bit-identical for a fixed seed.
    pub trace: Vec<TracePoint>,
    /// Where this job's wall-clock went (queue wait, matrix build,
    /// solve, serialization) — see [`PhaseBreakdown`].
    pub phases: PhaseBreakdown,
}

impl ConsensusReport {
    /// The algorithm's display name as the paper's tables spell it.
    pub fn algorithm(&self) -> String {
        self.spec.paper_name()
    }

    /// Wall-clock time to the run's *first* incumbent — the anytime
    /// responsiveness metric (`None` for an empty trace).
    pub fn time_to_first_incumbent(&self) -> Option<Duration> {
        self.trace.first().map(|p| p.elapsed)
    }

    /// Wall-clock time to the run's *final* (best) incumbent — when the
    /// quality curve went flat, which can be far before
    /// [`ConsensusReport::elapsed`] for solvers that then only prove.
    pub fn time_to_final_incumbent(&self) -> Option<Duration> {
        self.trace.last().map(|p| p.elapsed)
    }

    /// The certified optimality gap `score − lower_bound`: the reported
    /// consensus is provably within this many cost units of optimal.
    /// `Some(0)` is a proof of optimality; `None` means the run proved no
    /// bound (every heuristic).
    pub fn certified_gap(&self) -> Option<u64> {
        self.lower_bound.map(|lb| self.score - lb)
    }
}

/// FNV-1a over a spec name; decorrelates per-algorithm RNG streams within
/// a batch that shares one seed.
fn hash_name(name: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A long-lived aggregation engine: a shared fingerprint-keyed cost-matrix
/// cache plus a bounded worker pool for batches.
///
/// The engine is the multi-tenant serving path: many requests — over the
/// same dataset or different ones — run concurrently, each with its *own*
/// outcome flags (so one request's timeout can never leak into a
/// neighbour's report) while `O(m·n²)` cost-matrix builds are shared
/// through [`MatrixCache`], at most one build per distinct dataset.
#[derive(Debug, Default)]
pub struct Engine {
    cache: Arc<MatrixCache>,
    workers: usize,
    /// Shape of the job scheduler ([`Engine::submit`] /
    /// [`Engine::try_submit_with`]); the scheduler itself is built lazily on
    /// the first submission so engines that only ever `run` pay nothing.
    sched_config: SchedulerConfig,
    sched: OnceLock<Scheduler>,
    /// The engine's telemetry registry (per-engine, not process-global:
    /// a restarted in-process server starts from zero instead of
    /// double-counting across generations).
    metrics: Arc<MetricsRegistry>,
}

impl Engine {
    /// An engine with the default worker-pool width
    /// ([`parallel::num_threads`]).
    pub fn new() -> Self {
        Engine::with_workers(parallel::num_threads())
    }

    /// An engine whose batches use at most `workers` concurrent requests
    /// (`0` and `1` both mean sequential). The job scheduler's concurrency
    /// cap follows the same width (queue bound:
    /// [`DEFAULT_QUEUE_CAPACITY`]); use [`Engine::with_scheduler`] to
    /// shape it independently.
    pub fn with_workers(workers: usize) -> Self {
        Engine::with_scheduler(
            workers,
            SchedulerConfig {
                max_concurrent: workers.max(1),
                queue_capacity: DEFAULT_QUEUE_CAPACITY,
            },
        )
    }

    /// An engine with an explicitly shaped job scheduler — the serving
    /// configuration (`rawt serve --max-jobs --queue` ends up here).
    /// Zero bounds are clamped to 1 up front, so the configuration read
    /// back is the one the scheduler will actually run with.
    pub fn with_scheduler(workers: usize, config: SchedulerConfig) -> Self {
        Engine {
            cache: Arc::new(MatrixCache::new()),
            workers: workers.max(1),
            sched_config: config.normalized(),
            sched: OnceLock::new(),
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }

    /// The scheduler, created on first use.
    fn scheduler(&self) -> &Scheduler {
        self.sched.get_or_init(|| {
            Scheduler::new(
                self.sched_config,
                Arc::clone(&self.cache),
                Arc::clone(&self.metrics),
            )
        })
    }

    /// The engine's telemetry registry: every kernel, scheduler and cache
    /// observation this engine makes lands here. The service layers hang
    /// their own families (HTTP, journal, session) off the same registry
    /// so one `/metrics` render covers every tier.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Queue/running counts and the scheduler's bounds, for observability
    /// (the service's `/healthz`). Reports zeros against the configured
    /// bounds while no job was ever submitted.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        match self.sched.get() {
            Some(sched) => sched.stats(),
            None => SchedulerStats {
                queued: 0,
                running: 0,
                queue_capacity: self.sched_config.queue_capacity,
                max_concurrent: self.sched_config.max_concurrent,
            },
        }
    }

    /// Stop accepting submissions, cooperatively cancel every queued and
    /// running job, and block until the scheduler's workers have drained —
    /// the serving shutdown path (`rawt serve` on SIGINT). Blocking
    /// [`Engine::run`]/[`Engine::run_batch`] callers are unaffected; every
    /// outstanding [`JobHandle`] still resolves (with
    /// [`Outcome::Cancelled`] unless its job finished first).
    pub fn shutdown_drain(&self) {
        if let Some(sched) = self.sched.get() {
            sched.shutdown_drain();
            // The final telemetry flush: the drain's last act is saying
            // what it did, so an operator's terminal shows the tally even
            // when nobody scrapes /metrics again before exit.
            eprintln!(
                "rawt: telemetry: drained — {} jobs finished, {} cancelled at shutdown ({} queued, {} running)",
                self.metrics.counter_total("rawt_jobs_finished_total"),
                self.metrics.counter_total("rawt_jobs_drain_cancelled_total"),
                self.metrics
                    .counter_value("rawt_jobs_drain_cancelled_total", &[("stage", "queued")])
                    .unwrap_or(0),
                self.metrics
                    .counter_value("rawt_jobs_drain_cancelled_total", &[("stage", "running")])
                    .unwrap_or(0),
            );
        }
    }

    /// The engine's shared cost-matrix cache (observability: its
    /// [`MatrixCache::builds`] counter tells how many `O(m·n²)` builds the
    /// traffic so far has actually paid for).
    pub fn cache(&self) -> &MatrixCache {
        &self.cache
    }

    /// Submit one request as an **anytime job** on the engine's scheduler
    /// pool and return immediately with a [`JobHandle`].
    ///
    /// The handle streams a typed [`Event`] sequence (`Started`, one
    /// `Incumbent` per strict improvement, `Finished`), exposes the
    /// harvestable [`JobHandle::best_so_far`], and supports cooperative
    /// [`JobHandle::cancel`] — the run stops at its next
    /// [`checkpoint`](crate::algorithms::AlgoContext::checkpoint) and
    /// reports [`Outcome::Cancelled`] with the last published incumbent.
    /// `submit` + [`JobHandle::wait`] is bit-identical to [`Engine::run`]
    /// for a fixed seed (both drive the same execution core;
    /// property-tested).
    ///
    /// Jobs execute at most [`SchedulerConfig::max_concurrent`] at a time,
    /// shortest declared budget first (see [`scheduler`]); `Started` is
    /// emitted when the job leaves the queue. If the admission queue is
    /// full this call **blocks** until space frees up — load-shedding
    /// callers (the network service) use [`Engine::try_submit_with`]
    /// instead.
    pub fn submit(&self, request: AggregationRequest) -> JobHandle {
        self.scheduler().submit(request)
    }

    /// [`Engine::submit`] with load shedding, reporting through
    /// caller-built [`JobHooks`] — a listener on the sink that publishes
    /// each event where it belongs, and a completion that takes the result
    /// — instead of a [`JobHandle`]. If the scheduler's admission queue is
    /// at capacity, the request is refused with
    /// [`AdmissionError::QueueFull`] (carrying a retry hint) instead of
    /// blocking; running jobs are never affected. On refusal the hooks are
    /// dropped unused; an admitted job calls its completion exactly once,
    /// on the worker that ran it (also when the kernel panics, and when
    /// [`Engine::shutdown_drain`] cancels it).
    pub fn try_submit_with(
        &self,
        request: AggregationRequest,
        hooks: JobHooks,
    ) -> Result<(), AdmissionError> {
        self.scheduler().try_submit_with(request, hooks)
    }

    /// [`Engine::try_submit_with`] for a whole panel, one set of hooks
    /// per request: the batch is admitted as one unit — either every
    /// request fits in the admission queue together or the whole batch is
    /// shed with [`AdmissionError::QueueFull`] and no hook is ever called.
    /// Requests sharing a dataset (the normal batch shape,
    /// [`BatchBuilder`]) share a single `O(m·n²)` cost-matrix build
    /// through the engine cache, exactly as [`Engine::run_batch`].
    pub fn try_submit_batch_with(
        &self,
        jobs: Vec<(AggregationRequest, JobHooks)>,
    ) -> Result<(), AdmissionError> {
        self.scheduler().try_submit_batch_with(jobs)
    }

    /// Admission into the scheduler's **recovered** class, reporting
    /// through caller-built hooks (see [`Engine::try_submit_with`]): the
    /// job runs before every fresh submission, FIFO among recovered jobs
    /// regardless of declared budgets. This is the restart-recovery path —
    /// a service replaying a durable journal re-admits interrupted jobs
    /// with it (in ascending journal order), so the post-restart execution
    /// order is a deterministic function of the journal and fresh traffic
    /// can never starve the work the restart promised to finish. Blocks
    /// when the queue is full (recovery must not drop jobs); panics if the
    /// engine is shut down while waiting, like [`Engine::submit`].
    pub fn submit_recovered_with(&self, request: AggregationRequest, hooks: JobHooks) {
        self.scheduler().submit_recovered_with(request, hooks)
    }

    /// Admit the next round of a job that already holds its place (a
    /// service's follow job re-solving after its dataset changed): the
    /// fresh class in budget order, never shed for a full queue, refused
    /// only while shutting down. See [`Scheduler::resubmit_with`] for the
    /// queue bound this keeps.
    pub fn resubmit_with(
        &self,
        request: AggregationRequest,
        hooks: JobHooks,
    ) -> Result<(), AdmissionError> {
        self.scheduler().resubmit_with(request, hooks)
    }

    /// The scheduler's shape (configured bounds, whether or not the
    /// scheduler has been instantiated yet).
    pub fn scheduler_config(&self) -> SchedulerConfig {
        match self.sched.get() {
            Some(sched) => sched.config(),
            None => self.sched_config,
        }
    }

    /// Execute one request, blocking until done.
    ///
    /// The run gets fresh outcome flags and a worker RNG stream derived
    /// from `(request seed, spec paper name)`, so — without a budget — the
    /// report is a pure function of the request, bit-identical however
    /// many other requests run concurrently. Semantically identical to
    /// [`Engine::submit`] + [`JobHandle::wait`] (property-tested), trace
    /// included, but executes inline on the calling thread with a
    /// listenerless sink: no per-request thread, no event channel. The
    /// kernels publish the same incumbents either way, so `run` also pays
    /// for the early ones a streaming caller would watch (Exact's
    /// pre-decomposition BioConsert, Ailon's best-input scan).
    pub fn run(&self, request: &AggregationRequest) -> ConsensusReport {
        let sink = Arc::new(IncumbentSink::new());
        Engine::execute(
            request,
            &self.cache,
            &self.metrics,
            &sink,
            CancelToken::new(),
            Duration::ZERO,
        )
    }

    /// The synchronous core every job runs: build context + matrix, run
    /// the kernel, reconcile the result with the incumbent sink, emit
    /// lifecycle events, produce the report (with its [`PhaseBreakdown`])
    /// and record the run into `metrics`. `queue_wait` is how long the
    /// job sat in the scheduler's queue (zero for inline runs); it lands
    /// in the phase breakdown — the scheduler records the queue-wait
    /// histogram itself, at the point of measurement.
    pub(crate) fn execute(
        request: &AggregationRequest,
        cache: &Arc<MatrixCache>,
        metrics: &MetricsRegistry,
        sink: &Arc<IncumbentSink>,
        cancel: CancelToken,
        queue_wait: Duration,
    ) -> ConsensusReport {
        let algo_name = request.spec.paper_name();
        let algo_label: &[(&str, &str)] = &[("algo", &algo_name)];
        metrics
            .counter(
                "rawt_jobs_started_total",
                "Jobs whose execution began, by algorithm.",
                algo_label,
            )
            .inc();
        sink.emit(&Event::Started {
            spec: request.spec.clone(),
            seed: request.seed,
        });
        let base = AlgoContext::with_cache(request.seed, Arc::clone(cache));
        let mut ctx = base.worker(hash_name(&request.spec.paper_name()));
        ctx.attach_sink(Arc::clone(sink));
        ctx.set_cancel_token(cancel);
        // Resolve the pairwise-cost lane (DESIGN.md §16): a caller-supplied
        // matrix pins dense, otherwise policy × spec × size decide. The
        // resolved lane is the report's provenance, not the requested one.
        let lane = request.policy.lane.resolve(
            &request.spec,
            request.dataset.n(),
            request.cost_matrix.is_some(),
        );
        ctx.set_lane(lane);
        metrics
            .counter(
                "rawt_kernel_lane_total",
                "Jobs executed, by resolved pairwise-cost lane.",
                &[("lane", lane.as_str())],
            )
            .inc();
        // A caller-supplied matrix (a session's delta-patched one) primes
        // the cache, so the `cost_matrix` call below — and every kernel's
        // — hits instead of paying the `O(m·n²)` rebuild.
        if let Some(prebuilt) = &request.cost_matrix {
            cache.insert(&request.dataset, Arc::clone(prebuilt));
        }
        // The matrix-free lane never touches the cache: no build, no probe,
        // `matrix_build` ≈ 0 and the builds counter stays untouched.
        let matrix_start = Instant::now();
        let (matrix, built) = match lane {
            KernelLane::Dense => {
                let (matrix, built) = cache.get_with_flag(&request.dataset);
                (Some(matrix), built)
            }
            KernelLane::MatrixFree => (None, false),
        };
        let matrix_build = matrix_start.elapsed();
        if matrix.is_some() {
            if built {
                metrics
                    .counter(
                        "rawt_matrix_builds_total",
                        "O(m*n^2) cost-matrix builds actually performed.",
                        &[],
                    )
                    .inc();
                metrics
                    .histogram(
                        "rawt_matrix_build_seconds",
                        "Cost-matrix build latency (cache misses only).",
                        &[],
                    )
                    .record(matrix_build);
            } else {
                metrics
                    .counter(
                        "rawt_matrix_cache_hits_total",
                        "Jobs that found their cost matrix already cached.",
                        &[],
                    )
                    .inc();
            }
        }
        // Warm-start hint: validated against the dataset and rescored
        // against this run's substrate (a stale caller-supplied score could
        // otherwise let an exact solver prune below the true optimum).
        // An incomplete hint is dropped — a cold run is always correct.
        if let Some(warm) = &request.warm_start {
            if request.dataset.is_complete_ranking(&warm.ranking) {
                let score = match &matrix {
                    Some(matrix) => matrix.score(&warm.ranking),
                    None => score::kemeny_score(&warm.ranking, &request.dataset),
                };
                ctx.set_warm_start(Arc::new(crate::algorithms::WarmStart {
                    ranking: warm.ranking.clone(),
                    score,
                }));
            }
        }
        let algo = request.spec.build(request.policy);
        if let Some(budget) = request.budget {
            ctx.deadline = Some(Instant::now() + budget);
        }
        let start = Instant::now();
        let ranking = run_checked(algo.as_ref(), &request.dataset, &mut ctx);
        let elapsed = start.elapsed();
        // Both scorers compute the same exact integer (property-tested);
        // the matrix-free path is O(m·n log n) instead of resident-O(n²).
        let score = match &matrix {
            Some(matrix) => matrix.score(&ranking),
            None => score::kemeny_score(&ranking, &request.dataset),
        };
        // Publish the final result too, so one-shot algorithms (Borda,
        // MEDRank, …) still yield a one-point trace and every trace ends
        // at the reported score.
        ctx.offer_incumbent(&ranking, score);
        // A stopped run may hand back a weaker state than the best
        // incumbent it already published (e.g. cancel lands between two
        // BioConsert starts): such reports carry the best known, so a
        // cancelled job's score always equals its last `Incumbent` event.
        // Completed runs keep the kernel's own result untouched — that is
        // the bit-identical contract with the pre-anytime engine.
        let stopped = ctx.cancelled() || ctx.timed_out();
        let (ranking, score) = match sink.best_so_far() {
            Some((best, incumbent)) if stopped && best < score => (incumbent, best),
            _ => (ranking, score),
        };
        // The bound squeeze (DESIGN.md §11.2): a certified lower bound
        // meeting the reported score proves optimality even when the
        // search itself was cut off — the honest upgrade a timed-out
        // exact run earns when only its *proof*, not its answer, was
        // incomplete. A cancelled run stays `Cancelled`: the caller asked
        // for the cut and outcome precedence reports their intent.
        let certified = sink.lower_bound() == Some(score);
        let outcome = if ctx.cancelled() {
            Outcome::Cancelled
        } else if ctx.proved_optimal() || certified {
            Outcome::Optimal
        } else if ctx.timed_out() {
            Outcome::TimedOut
        } else {
            Outcome::Heuristic
        };
        // Proof of optimality *is* a lower bound of `score`: publish it,
        // so the report, the trace's subscribers, and the wire stream all
        // agree that optimal ⇒ lower_bound == score (even for solvers
        // that prove by exhaustion without ever offering a bound).
        if outcome == Outcome::Optimal {
            sink.offer_lower_bound(score);
        }
        let report = ConsensusReport {
            spec: request.spec.clone(),
            ranking,
            score,
            lane,
            gap: if outcome == Outcome::Optimal {
                Some(0.0)
            } else {
                None
            },
            lower_bound: sink.lower_bound(),
            elapsed,
            outcome,
            seed: request.seed,
            trace: sink.trace(),
            phases: PhaseBreakdown {
                queue_wait,
                matrix_build,
                // Matrix-free runs have no matrix to cache: report false,
                // not "hit" (there was neither a build nor a probe).
                matrix_cached: matrix.is_some() && !built,
                solve: elapsed,
                serialize: Duration::ZERO,
            },
        };
        let outcome_label = match outcome {
            Outcome::Optimal => "optimal",
            Outcome::Heuristic => "heuristic",
            Outcome::TimedOut => "timed_out",
            Outcome::Cancelled => "cancelled",
        };
        metrics
            .counter(
                "rawt_jobs_finished_total",
                "Jobs finished, by algorithm and outcome.",
                &[("algo", &algo_name), ("outcome", outcome_label)],
            )
            .inc();
        metrics
            .histogram(
                "rawt_solve_seconds",
                "Kernel solve latency, by algorithm (equals report elapsed).",
                algo_label,
            )
            .record(elapsed);
        if let Some(t) = report.time_to_first_incumbent() {
            metrics
                .histogram(
                    "rawt_time_to_first_incumbent_seconds",
                    "Time to the first published incumbent, by algorithm.",
                    algo_label,
                )
                .record(t);
        }
        if let Some(t) = report.time_to_final_incumbent() {
            metrics
                .histogram(
                    "rawt_time_to_final_incumbent_seconds",
                    "Time to the final (best) incumbent, by algorithm.",
                    algo_label,
                )
                .record(t);
        }
        if outcome == Outcome::Optimal {
            metrics
                .histogram(
                    "rawt_time_to_certified_seconds",
                    "Solve time of runs that ended provably optimal, by algorithm.",
                    algo_label,
                )
                .record(elapsed);
        }
        metrics
            .counter(
                "rawt_checkpoints_total",
                "Cooperative checkpoint polls performed by kernels, by algorithm.",
                algo_label,
            )
            .add(ctx.checkpoints());
        sink.emit(&Event::Finished(outcome));
        sink.close();
        report
    }

    /// Execute a batch of requests concurrently on the bounded worker
    /// pool, one [`ConsensusReport`] per request, in request order.
    ///
    /// Requests over the same dataset share a single cost-matrix build
    /// through the engine cache. After the runs, each report's
    /// [`ConsensusReport::gap`] is filled in against its dataset's
    /// reference score: a proven optimum when some batch member proved
    /// one, otherwise the best score achieved (m-gap).
    pub fn run_batch(&self, requests: &[AggregationRequest]) -> Vec<ConsensusReport> {
        let mut reports =
            parallel::par_map_slice(requests, self.workers.min(requests.len()), |_, req| {
                self.run(req)
            });
        // Gap pass: group requests by dataset content fingerprint (the
        // same key the matrix cache uses), so a mixed-dataset batch gets
        // one reference per dataset.
        let keys: Vec<_> = requests
            .iter()
            .map(|r| MatrixCache::fingerprint(&r.dataset))
            .collect();
        let mut seen: Vec<_> = Vec::new();
        for key in &keys {
            if seen.contains(key) {
                continue;
            }
            seen.push(*key);
            let members: Vec<usize> = (0..keys.len()).filter(|&i| keys[i] == *key).collect();
            let proved = members
                .iter()
                .filter(|&&i| reports[i].outcome == Outcome::Optimal)
                .map(|&i| reports[i].score)
                .min();
            // Without a proven optimum, the m-gap reference is the best
            // score any member achieved — *including* timed-out
            // incumbents, so the reference is a true lower bound of the
            // group and no gap can come out negative.
            let reference = proved.unwrap_or_else(|| {
                members
                    .iter()
                    .map(|&i| reports[i].score)
                    .min()
                    .expect("group is non-empty")
            });
            for &i in &members {
                let report = &mut reports[i];
                // The paper counts timed-out runs as "no result": their
                // incumbent score is reported but not gap-ranked. A zero
                // reference with a nonzero score would make the gap
                // infinite; leave it undefined instead of panicking.
                report.gap = if !report.outcome.completed() {
                    None
                } else if reference == 0 {
                    (report.score == 0).then_some(0.0)
                } else {
                    Some(score::gap(report.score, reference))
                };
            }
        }
        reports
    }
}

/// Run the kernel and check that its answer ranks every element of the
/// dataset. An incomplete ranking would otherwise be scored as if it were
/// a consensus; the check panics instead — in release builds too — so the
/// job fails down the same path as a crashed kernel.
fn run_checked(algo: &dyn ConsensusAlgorithm, data: &Dataset, ctx: &mut AlgoContext) -> Ranking {
    let ranking = algo.run(data, ctx);
    assert!(
        data.is_complete_ranking(&ranking),
        "{} returned an incomplete ranking: {} of {} elements",
        algo.name(),
        ranking.n_elements(),
        data.n()
    );
    ranking
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;

    /// A broken kernel: drops the last element from the dataset's first
    /// ranking.
    struct Truncating;

    impl ConsensusAlgorithm for Truncating {
        fn name(&self) -> String {
            "Truncating".to_owned()
        }

        fn produces_ties(&self) -> bool {
            true
        }

        fn run(&self, data: &Dataset, _ctx: &mut AlgoContext) -> Ranking {
            let last = Element(data.n() as u32 - 1);
            Ranking::from_buckets(
                data.ranking(0)
                    .buckets()
                    .map(|b| b.iter().copied().filter(|&e| e != last).collect())
                    .filter(|b: &Vec<Element>| !b.is_empty())
                    .collect(),
            )
            .unwrap()
        }
    }

    fn paper_dataset() -> Dataset {
        Dataset::new(vec![
            Ranking::from_slices(&[&[0], &[3], &[1, 2]]).unwrap(),
            Ranking::from_slices(&[&[0], &[1, 2], &[3]]).unwrap(),
            Ranking::from_slices(&[&[3], &[0, 2], &[1]]).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn an_incomplete_kernel_answer_fails_instead_of_being_scored() {
        let data = paper_dataset();
        let mut ctx = AlgoContext::seeded(1);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_checked(&Truncating, &data, &mut ctx)
        }))
        .expect_err("an incomplete ranking must not pass");
        let message = crashed
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert_eq!(
            message,
            "Truncating returned an incomplete ranking: 3 of 4 elements"
        );
        let complete = run_checked(
            AlgoSpec::Borda.build(ExecPolicy::default()).as_ref(),
            &data,
            &mut ctx,
        );
        assert!(data.is_complete_ranking(&complete));
    }
}
