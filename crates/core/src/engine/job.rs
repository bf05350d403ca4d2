//! Anytime jobs: streaming incumbents, cooperative cancellation, and the
//! [`JobHandle`] a caller holds while the engine thinks.
//!
//! The paper's central experiment is quality under a wall-clock budget
//! (§6: heuristics vs. the exact solver cut off at a time limit). A
//! serving system needs the *live* version of that story: observe the
//! best-so-far consensus while a request runs, harvest it at any moment,
//! and cancel a runaway job without losing the work already done. This
//! module is that surface (DESIGN.md §9):
//!
//! * [`IncumbentSink`] — where algorithms publish monotonically improving
//!   consensus candidates via
//!   [`AlgoContext::offer_incumbent`](crate::algorithms::AlgoContext::offer_incumbent)
//!   and certified lower bounds via
//!   [`AlgoContext::offer_lower_bound`](crate::algorithms::AlgoContext::offer_lower_bound).
//!   The sink keeps the best ranking, the best proven lower bound, the
//!   full time-to-score [`TracePoint`] curve, and streams an [`Event`]
//!   per improvement of either side.
//! * [`CancelToken`] — a clonable flag observed by every algorithm's
//!   [`AlgoContext::checkpoint`](crate::algorithms::AlgoContext::checkpoint).
//! * [`JobHooks`] — the two ways an admitted job reports: the sink's
//!   [`Listener`], called with every event as it is published, and the
//!   [`Completion`] the scheduler calls exactly once with the result.
//! * [`JobHandle`] — returned by [`Engine::submit`](super::Engine::submit),
//!   the in-process adapter over those hooks: subscribe to
//!   [`JobHandle::events`], peek [`JobHandle::best_so_far`],
//!   [`JobHandle::cancel`], and [`JobHandle::wait`] for the final
//!   [`ConsensusReport`].
//!
//! # Event ordering guarantees
//!
//! Per job: exactly one [`Event::Started`] first and one
//! [`Event::Finished`] last; between them, [`Event::Incumbent`] scores are
//! **strictly decreasing** and [`Event::LowerBound`] bounds are **strictly
//! increasing** (improvements are recorded and emitted under one lock, so
//! no stale incumbent or bound can be published out of order). The two
//! monotone sequences squeeze the optimum from both sides: every emitted
//! lower bound is ≤ every incumbent score, and
//! [`Event::Incumbent::gap`] = `score − lower_bound` is a **certified
//! optimality gap** — the incumbent is provably within `gap` of the
//! optimal Kemeny score (DESIGN.md §11.2). A gap of `Some(0)` proves
//! optimality. `None` means no solver has published a bound yet
//! (heuristics never do), in which case nothing is certified. For every
//! stopped (cancelled / timed-out) job, and for every completed job
//! except one documented case, the final report's score equals the last
//! `Incumbent` event's score. The exception: a *completed* Ailon run may
//! report its LP-rounding result even when that is worse than the
//! best-input incumbent it streamed early — completed runs always keep
//! the kernel's own result, the bit-identical contract with the
//! pre-anytime engine (DESIGN.md §9.3).

use super::{ConsensusReport, Outcome};
use crate::engine::AlgoSpec;
use crate::ranking::Ranking;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Receives every [`Event`] of a job as it is published, on the
/// publishing thread (the kernel's, for incumbents and bounds) and under
/// the sink's lock — so events arrive in emission order, and the listener
/// must never block on anything that waits for the sink.
pub type Listener = Arc<dyn Fn(&Event) + Send + Sync>;

/// Called by the scheduler exactly once per admitted job, on the worker
/// that ran it, with the job's report (or the panic payload of a crashed
/// kernel).
pub type Completion = Box<dyn FnOnce(std::thread::Result<ConsensusReport>) + Send>;

/// How an admitted job reports: the sink it publishes into (with the
/// sink's listener, if any), the token that cancels it, and the
/// completion the scheduler calls with its result.
pub struct JobHooks {
    /// Where the run publishes incumbents, bounds and lifecycle events.
    pub sink: Arc<IncumbentSink>,
    /// The run's cooperative cancellation flag.
    pub cancel: CancelToken,
    /// Called exactly once, after the run, with its result.
    pub completion: Completion,
}

/// One point of a job's quality-vs-time curve: the job had found a
/// consensus of `score` after `elapsed` of wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracePoint {
    /// Wall-clock time since the job was submitted — the serving view,
    /// which includes context setup and the cost-matrix build, so
    /// "time to first incumbent" means what a waiting caller experiences.
    pub elapsed: Duration,
    /// Generalized Kemeny score of the incumbent at that moment.
    pub score: u64,
    /// Best certified lower bound on the optimal score known at that
    /// moment (`None` until a bounding solver publishes one). Invariant:
    /// non-decreasing along a trace and never above the point's `score`,
    /// so `score − lower_bound` is a true optimality gap (DESIGN.md §11.2).
    pub lower_bound: Option<u64>,
}

/// What a running job tells its subscribers.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The job began executing (after any queueing).
    Started {
        /// The spec about to run.
        spec: AlgoSpec,
        /// The seed its RNG streams derive from.
        seed: u64,
    },
    /// A strictly better consensus was found.
    Incumbent {
        /// Generalized Kemeny score of the new incumbent.
        score: u64,
        /// Certified optimality gap: `score − lower_bound` against the
        /// best lower bound proved so far, `None` while no bound exists.
        /// `Some(0)` certifies this incumbent optimal. (Before the
        /// lower-bound channel this field reported improvement over the
        /// previous incumbent; DESIGN.md §11.2 documents the change.)
        gap: Option<u64>,
        /// Wall-clock time since the job was submitted (see
        /// [`TracePoint::elapsed`]).
        elapsed: Duration,
    },
    /// A strictly better certified lower bound on the optimum was proved
    /// (exact branch-and-bound frontier minima, Ailon's LP relaxation).
    LowerBound {
        /// The new bound: every consensus of this dataset scores ≥ this.
        lower_bound: u64,
        /// `best incumbent score − lower_bound`, `None` while no
        /// incumbent exists yet.
        gap: Option<u64>,
        /// Wall-clock time since the job was submitted.
        elapsed: Duration,
    },
    /// The job ended; [`JobHandle::wait`] returns the full report.
    Finished(Outcome),
}

/// Cooperative cancellation flag, shared between a [`JobHandle`] and every
/// worker context of its run. Cancelling is a request, not preemption: the
/// run stops at its next
/// [`checkpoint`](crate::algorithms::AlgoContext::checkpoint) and returns
/// its best incumbent.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Best incumbent + best lower bound + trace + listener, guarded by one
/// lock so improvements are recorded and emitted atomically (the
/// strict-decrease / strict-increase guarantees of the module docs).
#[derive(Default)]
struct SinkState {
    best: Option<(u64, Ranking)>,
    /// Best certified lower bound on the optimal score offered so far.
    lower_bound: Option<u64>,
    trace: Vec<TracePoint>,
    listener: Option<Listener>,
}

impl SinkState {
    fn publish(&self, event: &Event) {
        if let Some(listener) = &self.listener {
            listener(event);
        }
    }
}

impl fmt::Debug for SinkState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SinkState")
            .field("best", &self.best)
            .field("lower_bound", &self.lower_bound)
            .field("trace", &self.trace)
            .field("listener", &self.listener.is_some())
            .finish()
    }
}

/// Where a run publishes monotonically improving incumbents and
/// monotonically tightening lower bounds.
///
/// Shared by an [`AlgoContext`](crate::algorithms::AlgoContext) and all
/// its workers; the engine attaches one per request, so every
/// [`ConsensusReport`] carries the run's time-to-score
/// [`ConsensusReport::trace`](super::ConsensusReport::trace) even for the
/// blocking `run`/`run_batch` paths. Offers that do not strictly improve
/// on the best so far are ignored, so the recorded curve is always
/// strictly decreasing (and the bound curve strictly increasing)
/// regardless of how many parallel workers offer.
#[derive(Debug)]
pub struct IncumbentSink {
    started: Instant,
    state: Mutex<SinkState>,
}

impl Default for IncumbentSink {
    fn default() -> Self {
        IncumbentSink::new()
    }
}

impl IncumbentSink {
    /// A sink with no subscriber; the clock starts now.
    pub fn new() -> Self {
        IncumbentSink {
            started: Instant::now(),
            state: Mutex::new(SinkState::default()),
        }
    }

    /// A sink that calls `listener` with every event it publishes, until
    /// the job ends (see [`Listener`] for the calling rules).
    pub fn with_listener(listener: Listener) -> Self {
        IncumbentSink {
            started: Instant::now(),
            state: Mutex::new(SinkState {
                listener: Some(listener),
                ..SinkState::default()
            }),
        }
    }

    /// Offer a candidate consensus. Records it (and emits
    /// [`Event::Incumbent`]) only when `score` strictly improves on the
    /// best so far; returns whether it did. The ranking is cloned only on
    /// improvement.
    pub fn offer(&self, ranking: &Ranking, score: u64) -> bool {
        let mut state = self.state.lock().expect("incumbent sink poisoned");
        let prev = state.best.as_ref().map(|(s, _)| *s);
        if prev.is_some_and(|p| p <= score) {
            return false;
        }
        let elapsed = self.started.elapsed();
        // A bound can only have been recorded ahead of the incumbent it
        // now caps (the clamp in `offer_lower_bound` needs an incumbent
        // to clamp against); re-clamp here so the per-point invariant
        // `lower_bound ≤ score` holds even then.
        let lower_bound = state.lower_bound.map(|lb| lb.min(score));
        state.lower_bound = lower_bound;
        state.best = Some((score, ranking.clone()));
        state.trace.push(TracePoint {
            elapsed,
            score,
            lower_bound,
        });
        let gap = lower_bound.map(|lb| score - lb);
        state.publish(&Event::Incumbent {
            score,
            gap,
            elapsed,
        });
        true
    }

    /// Offer a certified lower bound on the optimal Kemeny score. Records
    /// it (and emits [`Event::LowerBound`]) only when it strictly
    /// improves on the best bound so far; returns whether it did.
    ///
    /// Two invariants are enforced here, under the same lock as
    /// [`IncumbentSink::offer`], so subscribers can rely on them without
    /// trusting individual solvers:
    ///
    /// * the recorded bound is **non-decreasing** (a looser bound than
    ///   one already proved adds no information and is dropped);
    /// * the recorded bound never exceeds the best incumbent score — a
    ///   valid bound cannot (the incumbent is a real consensus), so an
    ///   offer above it is clamped to the incumbent, which both keeps
    ///   `gap = score − lower_bound` from underflowing and caps the
    ///   damage of a numerically overshooting LP bound at "certifies the
    ///   incumbent" instead of "certifies nonsense".
    pub fn offer_lower_bound(&self, lb: u64) -> bool {
        let mut state = self.state.lock().expect("incumbent sink poisoned");
        let best = state.best.as_ref().map(|(s, _)| *s);
        let lb = match best {
            Some(score) => lb.min(score),
            None => lb,
        };
        if state.lower_bound.is_some_and(|prev| prev >= lb) {
            return false;
        }
        let elapsed = self.started.elapsed();
        state.lower_bound = Some(lb);
        let gap = best.map(|score| score - lb);
        state.publish(&Event::LowerBound {
            lower_bound: lb,
            gap,
            elapsed,
        });
        true
    }

    /// The best `(score, ranking)` offered so far.
    pub fn best_so_far(&self) -> Option<(u64, Ranking)> {
        self.state
            .lock()
            .expect("incumbent sink poisoned")
            .best
            .clone()
    }

    /// The best certified lower bound offered so far (`None` until a
    /// bounding solver publishes one). Always ≤ the best incumbent score.
    pub fn lower_bound(&self) -> Option<u64> {
        self.state
            .lock()
            .expect("incumbent sink poisoned")
            .lower_bound
    }

    /// The time-to-score curve so far (strictly decreasing scores).
    pub fn trace(&self) -> Vec<TracePoint> {
        self.state
            .lock()
            .expect("incumbent sink poisoned")
            .trace
            .clone()
    }

    /// Publish a lifecycle event ([`Event::Started`] / [`Event::Finished`])
    /// to the listener, if any.
    pub(crate) fn emit(&self, event: &Event) {
        self.state
            .lock()
            .expect("incumbent sink poisoned")
            .publish(event);
    }

    /// Drop the listener, so a [`JobHandle`]'s event stream ends (called
    /// once, after [`Event::Finished`] or a kernel panic).
    pub(crate) fn close(&self) {
        // Dropping the listener is right even when a listener that
        // panicked mid-publish poisoned the lock.
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.listener = None;
    }
}

/// A handle on one submitted aggregation job
/// ([`Engine::submit`](super::Engine::submit)).
///
/// The job runs on the engine's scheduler pool (queued behind the
/// admission queue until a worker is free — see
/// [`scheduler`](super::scheduler)); the handle observes and steers it:
///
/// * [`JobHandle::events`] — blocking iterator over the job's [`Event`]
///   stream (ends after [`Event::Finished`]);
/// * [`JobHandle::try_events`] / [`JobHandle::next_event`] — non-blocking
///   and bounded-wait variants for poll loops;
/// * [`JobHandle::best_so_far`] — the current incumbent, harvestable at
///   any moment without disturbing the run;
/// * [`JobHandle::cancel`] — cooperative cancellation; the job returns its
///   best incumbent with [`Outcome::Cancelled`] (cancelling while still
///   queued makes it stop at its first checkpoint once a worker picks it
///   up — an accepted job always produces a report);
/// * [`JobHandle::wait`] — block for the final [`ConsensusReport`].
///
/// It is an adapter over the job's [`JobHooks`]: the sink's listener feeds
/// the handle's event channel, and the completion fills its report slot.
#[derive(Debug)]
pub struct JobHandle {
    sink: Arc<IncumbentSink>,
    cancel: CancelToken,
    events: Receiver<Event>,
    report: Arc<ReportSlot>,
}

/// Where the completion leaves a job's result for its [`JobHandle`].
#[derive(Default)]
struct ReportSlot {
    result: Mutex<Option<std::thread::Result<ConsensusReport>>>,
    filled: Condvar,
    /// Set with the result and never cleared, so a finished job still
    /// reads finished after [`JobHandle::try_report`] propagated its panic.
    done: AtomicBool,
}

impl fmt::Debug for ReportSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReportSlot")
            .field("done", &self.done.load(Ordering::Acquire))
            .finish()
    }
}

impl JobHandle {
    /// A fresh handle and the hooks that feed it, for admission.
    pub(crate) fn attach() -> (JobHandle, JobHooks) {
        let (event_tx, events) = mpsc::channel();
        // A dropped receiver just means nobody is watching.
        let listener: Listener = Arc::new(move |event: &Event| {
            let _ = event_tx.send(event.clone());
        });
        let sink = Arc::new(IncumbentSink::with_listener(listener));
        let cancel = CancelToken::new();
        let report = Arc::new(ReportSlot::default());
        let slot = Arc::clone(&report);
        let completion: Completion = Box::new(move |result| {
            *slot.result.lock().expect("job handle poisoned") = Some(result);
            slot.done.store(true, Ordering::Release);
            slot.filled.notify_all();
        });
        let hooks = JobHooks {
            sink: Arc::clone(&sink),
            cancel: cancel.clone(),
            completion,
        };
        let handle = JobHandle {
            sink,
            cancel,
            events,
            report,
        };
        (handle, hooks)
    }

    /// Blocking iterator over the job's events, in emission order. Ends
    /// once the job has finished and all events are drained.
    pub fn events(&self) -> impl Iterator<Item = Event> + '_ {
        self.events.iter()
    }

    /// Drain the events available right now, without blocking.
    pub fn try_events(&self) -> impl Iterator<Item = Event> + '_ {
        self.events.try_iter()
    }

    /// The next event, waiting at most `timeout`. `None` on timeout or
    /// once the stream has ended.
    pub fn next_event(&self, timeout: Duration) -> Option<Event> {
        self.events.recv_timeout(timeout).ok()
    }

    /// The best `(score, ranking)` the job has found so far, if any.
    pub fn best_so_far(&self) -> Option<(u64, Ranking)> {
        self.sink.best_so_far()
    }

    /// The job's incumbent sink — shared observability for callers (like
    /// the network service) that hand the events receiver to one consumer
    /// but still want [`IncumbentSink::best_so_far`] and
    /// [`IncumbentSink::trace`] from elsewhere.
    pub fn sink(&self) -> &Arc<IncumbentSink> {
        &self.sink
    }

    /// A clone of the job's cancel token, so cancellation stays possible
    /// after the handle itself moves into a consumer (e.g. the service's
    /// follow loop).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Request cooperative cancellation: the run stops at its next
    /// checkpoint and [`JobHandle::wait`] returns a report whose outcome
    /// is [`Outcome::Cancelled`] and whose ranking is the last published
    /// incumbent. Idempotent; cancelling a finished job has no effect.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Whether the job has finished executing (its report may still be
    /// waiting to be collected with [`JobHandle::wait`]).
    pub fn is_finished(&self) -> bool {
        self.report.done.load(Ordering::Acquire)
    }

    /// The final report if the job has finished, without consuming the
    /// handle (clones; `None` while queued or running). Propagates a
    /// panic from the job's kernel, if any.
    pub fn try_report(&self) -> Option<ConsensusReport> {
        let mut result = self.report.result.lock().expect("job handle poisoned");
        match result.as_ref() {
            None => None,
            Some(Ok(report)) => Some(report.clone()),
            Some(Err(_)) => {
                let panic = result.take().expect("checked above").unwrap_err();
                drop(result);
                std::panic::resume_unwind(panic)
            }
        }
    }

    /// Block for the job's report and return it. Propagates a panic from
    /// the job's kernel, if any.
    pub fn wait(self) -> ConsensusReport {
        let result = self.report.result.lock().expect("job handle poisoned");
        let mut result = self
            .report
            .filled
            .wait_while(result, |r| {
                r.is_none() && !self.report.done.load(Ordering::Acquire)
            })
            .expect("job handle poisoned");
        // Empty only when `try_report` already re-raised the job's panic.
        match result
            .take()
            .expect("the job's panic was already propagated")
        {
            Ok(report) => report,
            Err(panic) => {
                drop(result);
                std::panic::resume_unwind(panic)
            }
        }
    }
}
