//! The HTTP server: anytime aggregation jobs over the wire, plus live
//! dataset sessions (DESIGN.md §13).
//!
//! Endpoint surface (DESIGN.md §10.1, §13.4):
//!
//! | Method   | Path                   | Meaning                                        |
//! |----------|------------------------|------------------------------------------------|
//! | `POST`   | `/v1/jobs`             | submit a job (dataset or dataset_id + spec)    |
//! | `GET`    | `/v1/jobs/{id}/events` | stream NDJSON lifecycle events (chunked)       |
//! | `GET`    | `/v1/jobs/{id}`        | job status + best-so-far report incl. trace    |
//! | `DELETE` | `/v1/jobs/{id}`        | cooperative cancel (ends a live job's follow)  |
//! | `PUT`    | `/v1/datasets/{id}`    | create a live dataset (create-only, 409 dupes) |
//! | `PATCH`  | `/v1/datasets/{id}`    | apply add/remove/replace ops, one version each |
//! | `GET`    | `/v1/datasets/{id}`    | current text + version + n + m                 |
//! | `DELETE` | `/v1/datasets/{id}`    | drop the dataset (live jobs on it finish)      |
//! | `GET`    | `/v1/algorithms`       | the algorithm registry                         |
//! | `GET`    | `/healthz`             | liveness + scheduler stats                     |
//!
//! Submissions flow through [`Engine::try_submit_with`]: when the
//! scheduler's admission queue is full the server sheds the request with
//! **429** and a `Retry-After` header — running jobs are never affected.
//! Every job publishes itself: its sink's listener, on the kernel's
//! thread, journals each event and appends it to a replayable per-job log
//! (so `GET …/events` works for late and repeated subscribers, streaming
//! live past the replay point), and its completion, on the scheduler
//! worker, stores the final report. No thread is spawned per job.
//!
//! A job submitted with `"dataset_id"` aggregates the live dataset's
//! current snapshot, warm-started from the dataset's last recorded
//! consensus; its own consensus is recorded back as the next warm hint.
//! With `"follow": true` the job never finishes on its own: it runs one
//! round per dataset version, each a one-shot admission whose events are
//! tagged `"dataset_version"` and whose completion publishes `resolved`,
//! then re-arms the job (the version moved during the round) or parks it
//! on the dataset. A PATCH re-arms the parked jobs before it replies; a
//! job DELETE, a dataset DELETE or a shutdown ends them with `finished`
//! (outcome `cancelled`). Every such change happens under the dataset's
//! lock, so no edit is missed and no round runs twice (DESIGN.md §13.4).
//!
//! Job and batch ids are minted in the residue class a router names in
//! the `Rawt-Shard: k/N` header of a submission: every id it mints is
//! ≡ k (mod N), so the router finds the owner of an id by `id % N` and
//! forwards this server's bytes untouched (DESIGN.md §14.2). A
//! submission without the header mints sequentially.
//!
//! Connection handling is thread-per-connection with HTTP/1.1
//! keep-alive: the accept loop (`http::serve`, shared with the router)
//! spawns one thread per connection, and every exchange on it, event
//! streams included, loops there under the 30 s idle timeout and the
//! rule for draining. The per-connection thread is the only one this
//! module spawns.

use crate::fault::FaultPlan;
use crate::http::{self, ChunkedWriter, Conn, Request, Served};
use crate::journal::{FsyncPolicy, Journal, JournalWriter, RecoveredDataset};
use crate::json::Json;
use crate::proto::{self, BatchSubmission, EventTag, JobSubmission, SubmissionError};
use rank_core::engine::{
    AdmissionError, AggregationRequest, AlgoSpec, CancelToken, Completion, ConsensusReport, Engine,
    Event, IncumbentSink, JobHooks, Listener, Outcome, SchedulerConfig,
};
use rank_core::session::{DatasetSession, Snapshot};
use rank_core::telemetry::{Counter, Gauge, Histogram, MetricsRegistry};
use rank_core::{Element, Universe};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::iter::StepBy;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How the server is shaped.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent-job cap (the scheduler's worker-pool width).
    pub max_jobs: usize,
    /// Admission-queue bound; beyond it, submissions get 429.
    pub queue_capacity: usize,
    /// Completed jobs retained for status queries before the oldest are
    /// evicted (their journal segments are deleted with them).
    pub retain_done: usize,
    /// Durable job journal directory (DESIGN.md §12). `None` keeps the
    /// pre-durability in-memory behavior; `Some(dir)` journals every job
    /// and replays the directory on [`Server::bind`] — finished jobs
    /// become servable again, interrupted jobs are re-admitted and re-run
    /// to bit-identical reports.
    pub journal_dir: Option<PathBuf>,
    /// When the journal fsyncs (only meaningful with `journal_dir`).
    pub journal_fsync: FsyncPolicy,
    /// Fault-injection hooks (testing; all off by default).
    pub faults: Arc<FaultPlan>,
    /// Bearer token every request except `GET /healthz` must present
    /// (`Authorization: Bearer <token>`); `None` serves unauthenticated.
    /// The token lives only in this config — it is never journaled, so a
    /// journal directory can be shipped around without leaking it.
    pub token: Option<String>,
    /// Seconds of event silence before an NDJSON `…/events` stream emits
    /// a `{"event":"heartbeat"}` keepalive line, so quiet long-running
    /// jobs stay distinguishable from dead connections under client read
    /// timeouts. Tests and demos lower it to avoid wall-clock waits.
    pub heartbeat_secs: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_jobs: rank_core::parallel::num_threads().max(2),
            queue_capacity: rank_core::engine::DEFAULT_QUEUE_CAPACITY,
            retain_done: 256,
            journal_dir: None,
            journal_fsync: FsyncPolicy::default(),
            faults: Arc::new(FaultPlan::none()),
            token: None,
            heartbeat_secs: 15,
        }
    }
}

/// Server-tier metric handles, resolved once at [`Server::bind`] against
/// the engine's registry (DESIGN.md §15) — request paths pay relaxed
/// atomic ops, not a registry lock.
struct ServerMetrics {
    /// TCP connections accepted.
    connections: Arc<Counter>,
    /// Jobs accepted into the table: fresh submits, batch sub-jobs, and
    /// journal re-admissions (`/healthz` reads this back as
    /// `jobs_accepted`, so healthz and /metrics cannot drift).
    jobs_accepted: Arc<Counter>,
    /// Live NDJSON event-stream subscribers (per-job + batch streams).
    stream_subscribers: Arc<Gauge>,
    /// Delta-patch latency of one accepted dataset edit op.
    session_patch_seconds: Arc<Histogram>,
    /// Full session rebuild latency (dataset PUT and journal recovery).
    session_rebuild_seconds: Arc<Histogram>,
    /// Dataset edits that had to copy a part a snapshot still shared, by
    /// part: dataset, matrix, universe.
    snapshot_copies: [Arc<Counter>; 3],
}

impl ServerMetrics {
    fn resolve(registry: &MetricsRegistry) -> ServerMetrics {
        ServerMetrics {
            connections: registry.counter(
                "rawt_http_connections_total",
                "TCP connections accepted.",
                &[],
            ),
            jobs_accepted: registry.counter(
                "rawt_jobs_accepted_total",
                "Jobs accepted into the job table (submits, batch sub-jobs, recoveries).",
                &[],
            ),
            stream_subscribers: registry.gauge(
                "rawt_stream_subscribers",
                "Currently connected NDJSON event-stream subscribers.",
                &[],
            ),
            session_patch_seconds: registry.histogram(
                "rawt_session_patch_seconds",
                "Delta-patch latency of one accepted live-dataset edit op.",
                &[],
            ),
            session_rebuild_seconds: registry.histogram(
                "rawt_session_rebuild_seconds",
                "Full dataset-session rebuild latency (PUT and recovery).",
                &[],
            ),
            snapshot_copies: ["dataset", "matrix", "universe"].map(|part| {
                registry.counter(
                    "rawt_session_snapshot_copies_total",
                    "Live-dataset edits that copied a part a snapshot still shared.",
                    &[("part", part)],
                )
            }),
        }
    }
}

/// While alive, holds one unit on a gauge; dropping releases it on every
/// return path (stream handlers have several).
struct GaugeGuard(Arc<Gauge>);

impl GaugeGuard {
    fn enter(gauge: &Arc<Gauge>) -> GaugeGuard {
        gauge.inc();
        GaugeGuard(Arc::clone(gauge))
    }
}

impl Drop for GaugeGuard {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// Everything one served job carries: identity, the pieces needed to
/// serialize its results back to input labels, a cancel token usable
/// while another thread streams its events, its journal writer, and the
/// replayable event log.
struct JobRecord {
    id: u64,
    spec: AlgoSpec,
    seed: u64,
    /// The submission's budget, which every follow round runs under.
    budget: Option<Duration>,
    normalize: rank_core::engine::Normalization,
    /// The submission's idempotency key, so eviction can release it.
    idempotency: Option<String>,
    /// The journal segments written or replayed for the job: eviction
    /// unlinks exactly these by name.
    segments: Vec<u32>,
    /// The live dataset this job aggregates, when submitted by
    /// `dataset_id` — the completion records the consensus back into it
    /// as the next warm hint.
    dataset: Option<Arc<LiveDataset>>,
    /// The batch this job is a sub-job of: its merged stream's tag and
    /// wake-up signal.
    batch: Option<BatchLink>,
    /// The job's journal segment (`None` without a journal). The
    /// submitter holds it while admitting, so the kernel's first event
    /// waits here until the submission record is on disk.
    writer: Mutex<Option<JournalWriter>>,
    /// The parts that change per follow round (for ordinary jobs they
    /// are written once at admission): dataset shape, denormalization
    /// context, and the current round's sink + cancel token.
    live: Mutex<LiveRefs>,
    state: Mutex<JobProgress>,
    advanced: Condvar,
}

/// The round-scoped half of a [`JobRecord`] (see its `live` field).
struct LiveRefs {
    n: usize,
    m: usize,
    universe: Arc<Universe>,
    /// Dense id → input element, for inline jobs whose normalization
    /// remapped ids; `None` for dataset jobs, whose dense ids are the
    /// universe's ids.
    mapping: Option<Vec<Element>>,
    sink: Arc<IncumbentSink>,
    cancel: CancelToken,
}

impl LiveRefs {
    fn report_json(&self, report: &rank_core::engine::ConsensusReport) -> String {
        proto::dense_report_json(report, self.mapping.as_deref(), &self.universe)
    }
}

/// One live dataset (`PUT /v1/datasets/{id}`): a [`DatasetSession`]
/// (delta-patched matrix, version counter, warm hint) plus the label
/// universe it was parsed against, its journal writer, and the follow
/// jobs parked on it.
struct LiveDataset {
    id: String,
    state: Mutex<DatasetState>,
}

struct DatasetState {
    /// Shared with the jobs solving the dataset; an edit naming a new
    /// label copies it only while one of them still holds it.
    universe: Arc<Universe>,
    session: DatasetSession,
    writer: Option<JournalWriter>,
    /// Set by `DELETE /v1/datasets/{id}`: the dataset is gone from the
    /// table; a follow round still running on it ends its job.
    deleted: bool,
    /// The follow jobs waiting for the next edit, by id: each has resolved
    /// the current version and holds no round.
    parked: BTreeMap<u64, Arc<JobRecord>>,
}

impl LiveDataset {
    fn lock(&self) -> std::sync::MutexGuard<'_, DatasetState> {
        self.state.lock().expect("dataset state poisoned")
    }
}

impl DatasetState {
    /// A fresh dataset state: nothing parked, not deleted.
    fn new(
        universe: Arc<Universe>,
        session: DatasetSession,
        writer: Option<JournalWriter>,
    ) -> Self {
        DatasetState {
            universe,
            session,
            writer,
            deleted: false,
            parked: BTreeMap::new(),
        }
    }

    /// What a round on this dataset solves: the session's O(1) snapshot
    /// and the universe its labels resolve against. The one snapshot path
    /// of both `dataset_id` submissions and follow rounds.
    fn snapshot(&self) -> (Snapshot, Arc<Universe>) {
        (self.session.snapshot(), Arc::clone(&self.universe))
    }
}

/// The input rankings rendered back to the repo's dataset text format,
/// one `[{A},{B,C}]` line per ranking.
fn dataset_text(session: &DatasetSession, universe: &Universe) -> String {
    let lines: Vec<String> = session
        .rankings()
        .iter()
        .map(|r| r.display_with(universe))
        .collect();
    lines.join("\n")
}

#[derive(Default)]
struct JobProgress {
    /// Serialized NDJSON event lines, in emission order (the replay log).
    events: Vec<String>,
    /// The same lines tagged with the sub-job's spec and id, for a batch
    /// sub-job's merged batch stream (empty for other jobs).
    batch_events: Vec<String>,
    /// Whether the job has started executing (left the admission queue).
    started: bool,
    /// The final report as a JSON object, once the job finished.
    report_json: Option<String>,
    /// The final outcome's display form, once finished.
    outcome: Option<String>,
    done: bool,
}

/// The three-way lifecycle label every status-bearing response uses.
fn state_name(progress: &JobProgress) -> &'static str {
    if progress.done {
        "done"
    } else if progress.started {
        "running"
    } else {
        "queued"
    }
}

impl JobRecord {
    fn queue_state(&self) -> &'static str {
        state_name(&self.progress())
    }

    fn live(&self) -> MutexGuard<'_, LiveRefs> {
        self.live.lock().expect("job live refs poisoned")
    }

    fn progress(&self) -> MutexGuard<'_, JobProgress> {
        self.state.lock().expect("job state poisoned")
    }

    fn journal(&self, line: &str) {
        if let Some(writer) = self.writer.lock().expect("job writer poisoned").as_mut() {
            writer.append_event(line);
        }
    }

    /// Wake this job's subscribers, and its batch's merged stream.
    fn wake(&self) {
        self.advanced.notify_all();
        if let Some(batch) = &self.batch {
            batch.signal.notify();
        }
    }

    fn batch_tag(&self) -> Option<EventTag<'_>> {
        self.batch.as_ref().map(|batch| EventTag::Batch {
            spec: &batch.spec,
            job: self.id,
        })
    }

    /// Journal `line` and append it to the replay log. `started` marks
    /// the job as having left the admission queue.
    fn push(&self, line: String, batch_line: Option<String>, started: bool) {
        self.journal(&line);
        let mut progress = self.progress();
        progress.started |= started;
        progress.events.push(line);
        progress.batch_events.extend(batch_line);
        drop(progress);
        self.wake();
    }

    /// The listener of a run: runs on the kernel's thread, under its
    /// sink's lock, so it never touches `live` (`job_status` holds `live`
    /// while it reads the sink). `tag` is a follow round's dataset
    /// version. `finished` is left to the completion, which publishes it
    /// together with `done` (or, ending a follow round, `resolved`).
    fn publish(&self, event: &Event, tag: EventTag) {
        if matches!(event, Event::Finished(_)) {
            return;
        }
        let batch_line = self
            .batch_tag()
            .map(|tag| proto::tagged_event_json(event, tag));
        let started = matches!(event, Event::Started { .. });
        self.push(proto::tagged_event_json(event, tag), batch_line, started);
    }

    /// The hooks of one run — a one-shot job's only run, or the follow
    /// round that solves dataset version `round` — installed as the
    /// record's current sink and cancel token. The listener publishes
    /// into the record, holding it weakly, so a record refused admission
    /// is simply dropped; the completion ends the job
    /// ([`JobRecord::complete`]) or resolves the round
    /// ([`JobRecord::complete_round`]).
    fn arm(self: &Arc<Self>, state: &Arc<ServerState>, round: Option<u64>) -> JobHooks {
        let me = Arc::downgrade(self);
        let listener: Listener = Arc::new(move |event: &Event| {
            if let Some(record) = me.upgrade() {
                record.publish(
                    event,
                    round.map_or(EventTag::None, EventTag::DatasetVersion),
                );
            }
        });
        let owner = Arc::clone(self);
        let completion: Completion = match round {
            None => {
                let done_ids = Arc::clone(&state.done_ids);
                Box::new(move |result| owner.complete(result, &done_ids))
            }
            Some(version) => {
                let state = Arc::clone(state);
                Box::new(move |result| owner.complete_round(&state, version, result))
            }
        };
        let hooks = JobHooks {
            sink: Arc::new(IncumbentSink::with_listener(listener)),
            cancel: CancelToken::new(),
            completion,
        };
        let mut live = self.live();
        live.sink = Arc::clone(&hooks.sink);
        live.cancel = hooks.cancel.clone();
        hooks
    }

    /// The completion of a one-shot job, on the scheduler worker that ran
    /// it: record the consensus back into a live dataset, serialize the
    /// report once, and end the job.
    fn complete(&self, result: std::thread::Result<ConsensusReport>, done_ids: &DoneIds) {
        match result {
            Ok(report) => {
                // A dataset-id job records its consensus back into the
                // live session: the next solve on this dataset
                // warm-starts from it. (Refused harmlessly if the dataset
                // grew mid-run.)
                if let Some(dataset) = &self.dataset {
                    let mut ds = dataset.lock();
                    if !ds.deleted {
                        let _ = ds.session.record_consensus(report.ranking.clone());
                    }
                }
                let report_json = self.live().report_json(&report);
                let finished = Event::Finished(report.outcome);
                let batch_line = self
                    .batch_tag()
                    .map(|tag| proto::tagged_event_json(&finished, tag));
                self.end(
                    proto::event_json(&finished),
                    batch_line,
                    report.outcome.to_string(),
                    Some(report_json),
                    done_ids,
                );
            }
            Err(_) => {
                let batch_line = self
                    .batch_tag()
                    .map(|tag| proto::failed_json(KERNEL_PANIC, tag));
                self.end(
                    proto::failed_json(KERNEL_PANIC, EventTag::None),
                    batch_line,
                    "failed".to_owned(),
                    None,
                    done_ids,
                );
            }
        }
    }

    /// The completion of the follow round that solved dataset version
    /// `version`: record the consensus back and publish `resolved` in
    /// place of the engine's `finished` (subscribers read `finished` as
    /// the end of the stream, and a follow job outlives its rounds). Then
    /// end the job (cancelled, dataset deleted, or the server draining),
    /// re-arm it at once (the version moved during the round; rounds
    /// coalesce) or park it until the next edit — under the dataset's
    /// lock, so a PATCH either sees the job parked or is seen here.
    fn complete_round(
        self: &Arc<Self>,
        state: &Arc<ServerState>,
        version: u64,
        result: std::thread::Result<ConsensusReport>,
    ) {
        let Ok(report) = result else {
            let line = proto::failed_json(KERNEL_PANIC, EventTag::None);
            return self.end(line, None, "failed".to_owned(), None, &state.done_ids);
        };
        let report_json = self.live().report_json(&report);
        let resolved = proto::resolved_json(
            &report.outcome,
            report.score,
            EventTag::DatasetVersion(version),
        );
        let dataset = self.dataset.as_ref().expect("a follow job has a dataset");
        let mut ds = dataset.lock();
        if !ds.deleted {
            let _ = ds.session.record_consensus(report.ranking);
        }
        self.journal(&resolved);
        let mut progress = self.progress();
        progress.started = true;
        progress.events.push(resolved);
        progress.outcome = Some(report.outcome.to_string());
        progress.report_json = Some(report_json);
        drop(progress);
        self.wake();
        let stopped = self.live().cancel.is_cancelled();
        if stopped || ds.deleted || state.shutting_down.load(Ordering::SeqCst) {
            drop(ds);
            self.stop(&state.done_ids);
        } else if ds.session.version() != version {
            let (snapshot, universe) = ds.snapshot();
            self.rearm(state, &snapshot, &universe);
        } else {
            ds.parked.insert(self.id, Arc::clone(self));
        }
    }

    /// Start this follow job's next round, on `snapshot` — or, when the
    /// dataset outgrew the spec's size cap, report `failed` and end the
    /// job. Called under the dataset's lock. The round is never shed, and
    /// the job holds no other, so the queue overshoots its bound by at
    /// most one round per follow job; only a draining scheduler refuses
    /// it, which ends the job.
    fn rearm(
        self: &Arc<Self>,
        state: &Arc<ServerState>,
        snapshot: &Snapshot,
        universe: &Arc<Universe>,
    ) {
        let data = &snapshot.dataset;
        if let Some(cap) = self.spec.max_n() {
            if data.n() > cap {
                let dataset = self.dataset.as_ref().expect("a follow job has a dataset");
                let error = format!(
                    "dataset {} grew to n = {} past the n = {cap} cap for {}",
                    dataset.id,
                    data.n(),
                    self.spec
                );
                self.push(proto::failed_json(&error, EventTag::None), None, false);
                return self.stop(&state.done_ids);
            }
        }
        {
            let mut live = self.live();
            live.n = data.n();
            live.m = data.m();
            live.universe = Arc::clone(universe);
        }
        // The session's delta-patched matrix rides along: a follow round
        // never pays the engine-side rebuild either.
        let request = seeded(snapshot.request(self.spec.clone()), self.seed, self.budget);
        let hooks = self.arm(state, Some(snapshot.version));
        if state.engine.resubmit_with(request, hooks).is_err() {
            self.stop(&state.done_ids);
        }
    }

    /// End a follow job with its one real `finished`, outcome `cancelled`
    /// — a follow job never completes on its own; something stopped it —
    /// keeping the last round's report.
    fn stop(&self, done_ids: &DoneIds) {
        let line = proto::event_json(&Event::Finished(Outcome::Cancelled));
        let report_json = self.progress().report_json.clone();
        let outcome = Outcome::Cancelled.to_string();
        self.end(line, None, outcome, report_json, done_ids);
    }

    /// `DELETE /v1/jobs/{id}`: cancel the job's run; a follow job parked
    /// on its dataset has none and ends at once. The parked set is read
    /// under the dataset's lock, the lock every re-arm holds, so the
    /// token cancelled is the current round's.
    fn cancel(&self, done_ids: &DoneIds) {
        let Some(dataset) = &self.dataset else {
            return self.live().cancel.cancel();
        };
        let mut ds = dataset.lock();
        if ds.parked.remove(&self.id).is_some() {
            drop(ds);
            self.stop(done_ids);
        } else {
            self.live().cancel.cancel();
        }
    }

    /// End the job with its last `line`: journal it with the terminal
    /// record, then publish it together with the outcome, the report (if
    /// any — `None` keeps the one already stored) and `done`, under one
    /// lock, so a subscriber that has read it always finds the job done.
    fn end(
        &self,
        line: String,
        batch_line: Option<String>,
        outcome: String,
        report_json: Option<String>,
        done_ids: &DoneIds,
    ) {
        if let Some(writer) = self.writer.lock().expect("job writer poisoned").as_mut() {
            writer.append_event(&line);
            writer.finish(&outcome, report_json.as_deref());
        }
        let mut progress = self.progress();
        progress.events.push(line);
        progress.batch_events.extend(batch_line);
        progress.outcome = Some(outcome);
        if report_json.is_some() {
            progress.report_json = report_json;
        }
        progress.done = true;
        drop(progress);
        // Evictable before anyone is woken: a client that saw this job
        // finish and then submits must find it among the done.
        done_ids.lock().expect("done ids poisoned").insert(self.id);
        self.wake();
    }
}

/// The error line of a job whose kernel panicked.
const KERNEL_PANIC: &str = "internal kernel panic";

/// Ids of the finished jobs still in the job table, oldest (smallest id,
/// which is submission order) first — what `retain_done` evicts from.
type DoneIds = Mutex<BTreeSet<u64>>;

/// A batch sub-job's tie to its batch: the spec its merged-stream lines
/// are tagged with, the signal that wakes that stream, and the batch's id
/// and sub-job ids, so eviction can drop the batch with its last sub-job.
struct BatchLink {
    spec: String,
    signal: Arc<Signal>,
    batch: u64,
    jobs: StepBy<Range<u64>>,
}

/// The residue class a submission's ids are minted in: ids ≡ `index`
/// (mod `count`). A router sends `Rawt-Shard: k/N` to its worker `k` of
/// `N`, so every id the worker hands it names the worker by `id % N`; a
/// submission without the header mints sequentially (`0/1`). `N` is at
/// most [`proto::MAX_SHARDS`], so no header can leap the table's next id
/// to the end of the id space.
#[derive(Clone, Copy)]
struct Shard {
    index: u64,
    count: u64,
}

impl Shard {
    /// The class `request` asks for; `Err` is the 400 message.
    fn of(request: &Request) -> Result<Shard, String> {
        let Some(value) = request.header("rawt-shard") else {
            return Ok(Shard { index: 0, count: 1 });
        };
        value
            .split_once('/')
            .and_then(|(k, n)| Some((k.parse().ok()?, n.parse().ok()?)))
            .filter(|&(index, count)| index < count && count <= proto::MAX_SHARDS)
            .map(|(index, count)| Shard { index, count })
            .ok_or_else(|| {
                format!(
                    "bad Rawt-Shard header {value:?} (want k/N with k < N <= {})",
                    proto::MAX_SHARDS
                )
            })
    }

    /// `len` ascending ids of this class, the first at or past `next`:
    /// the range `first..after` stepped by `count`, where `after` is the
    /// table's next `next`. `None` when they do not fit a `u64`. Shared
    /// by the job and the batch table.
    fn mint(self, next: u64, len: usize) -> Option<Range<u64>> {
        let residue = next % self.count;
        let offset = if self.index >= residue {
            self.index - residue
        } else {
            self.count - residue + self.index
        };
        let first = next.checked_add(offset)?;
        let span = self.count.checked_mul(len.checked_sub(1)? as u64)?;
        let after = first.checked_add(span)?.checked_add(1)?;
        Some(first..after)
    }
}

/// A wake-up for a batch's merged stream: every sub-job publication moves
/// the generation, and the stream waits for it to move.
#[derive(Default)]
struct Signal {
    generation: Mutex<u64>,
    moved: Condvar,
}

impl Signal {
    fn generation(&self) -> u64 {
        *self.generation.lock().expect("signal poisoned")
    }

    fn notify(&self) {
        *self.generation.lock().expect("signal poisoned") += 1;
        self.moved.notify_all();
    }

    /// Wait until the generation moves past `seen`, at most `timeout`.
    fn wait_past(&self, seen: u64, timeout: Duration) {
        let generation = self.generation.lock().expect("signal poisoned");
        drop(
            self.moved
                .wait_timeout_while(generation, timeout, |g| *g == seen)
                .expect("signal poisoned"),
        );
    }
}

/// One accepted `POST /v1/batches`: the panel's sub-jobs in spec order.
/// The batch holds its own `Arc`s to the records, so batch status and the
/// merged event stream keep working while `retain_done` eviction drops
/// its sub-jobs from the job table; the batch itself goes with the last
/// of them (see [`evict_done`]).
struct BatchRecord {
    id: u64,
    idempotency: Option<String>,
    seed: u64,
    jobs: Vec<Arc<JobRecord>>,
    /// Notified by every sub-job publication (see [`BatchLink`]).
    signal: Arc<Signal>,
}

#[derive(Default)]
struct BatchTable {
    next_id: u64,
    records: HashMap<u64, Arc<BatchRecord>>,
    /// Batch idempotency key → batch id (separate key space from jobs).
    keys: HashMap<String, u64>,
}

impl BatchTable {
    /// Drop the batches [`evict_done`] evicted the last sub-job of.
    fn remove(&mut self, ids: &[u64]) {
        for id in ids {
            if let Some(batch) = self.records.remove(id) {
                if let Some(key) = &batch.idempotency {
                    self.keys.remove(key);
                }
            }
        }
    }
}

struct ServerState {
    engine: Engine,
    jobs: Mutex<JobTable>,
    /// Lock order: this, then `jobs`.
    batches: Mutex<BatchTable>,
    /// Live datasets by id (`PUT /v1/datasets/{id}` creates, `DELETE`
    /// removes).
    datasets: Mutex<HashMap<String, Arc<LiveDataset>>>,
    /// Finished jobs, for eviction. Lock order: `jobs`, then this.
    done_ids: Arc<DoneIds>,
    started: Instant,
    metrics: ServerMetrics,
    shutting_down: AtomicBool,
    /// The durable journal, when `--journal` is configured.
    journal: Option<Journal>,
    /// Set by the journal on a write/fsync failure: the server keeps
    /// running in-memory and `/healthz` reports `"degraded"`.
    degraded: Arc<AtomicBool>,
    config: ServerConfig,
}

#[derive(Default)]
struct JobTable {
    next_id: u64,
    records: HashMap<u64, Arc<JobRecord>>,
    /// Idempotency key → job id (rebuilt from the journal on recovery,
    /// so a retried submit after a crash still finds its job).
    keys: HashMap<String, u64>,
}

/// The aggregation service over one TCP listener.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// A handle for stopping a running server from another thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    state: Arc<ServerState>,
    addr: std::net::SocketAddr,
}

impl ShutdownHandle {
    /// Drain the server: stop accepting, cooperatively cancel every
    /// queued and running job, end every follow job, and make
    /// [`Server::serve`] return. Event streams end naturally (each
    /// cancelled job still emits `Finished`), and every job's terminal
    /// record is journaled before this returns.
    pub fn shutdown(&self) {
        self.state.shutting_down.store(true, Ordering::SeqCst);
        self.state.engine.shutdown_drain();
        // The drain ended every follow job that held a round; the parked
        // ones hold none, and no completion can park another now.
        let datasets: Vec<Arc<LiveDataset>> = self
            .state
            .datasets
            .lock()
            .expect("dataset table poisoned")
            .values()
            .cloned()
            .collect();
        for dataset in datasets {
            let parked = std::mem::take(&mut dataset.lock().parked);
            for record in parked.into_values() {
                record.stop(&self.state.done_ids);
            }
        }
        // Unblock the accept loop with a no-op connection to ourselves.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port; read the actual
    /// one back with [`Server::local_addr`]).
    ///
    /// With [`ServerConfig::journal_dir`] set, the directory is replayed
    /// *before* this returns: journaled finished jobs become servable
    /// again and interrupted jobs are re-admitted through the scheduler's
    /// recovered class (ascending id order — deterministic), each
    /// re-recording into a fresh journal segment. The listener is bound
    /// first, but no connection is accepted until [`Server::serve`], so a
    /// returned `Server` is fully recovered and ready.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let engine = Engine::with_scheduler(
            rank_core::parallel::num_threads(),
            SchedulerConfig {
                max_concurrent: config.max_jobs,
                queue_capacity: config.queue_capacity,
            },
        );
        let degraded = Arc::new(AtomicBool::new(false));
        let journal = match &config.journal_dir {
            None => None,
            Some(dir) => Some(
                Journal::open(dir, config.journal_fsync)?
                    .with_faults(Arc::clone(&config.faults))
                    .with_degraded_flag(Arc::clone(&degraded))
                    .with_metrics(engine.metrics()),
            ),
        };
        let metrics = ServerMetrics::resolve(engine.metrics());
        let state = Arc::new(ServerState {
            engine,
            jobs: Mutex::new(JobTable::default()),
            batches: Mutex::new(BatchTable::default()),
            datasets: Mutex::new(HashMap::new()),
            done_ids: Arc::default(),
            started: Instant::now(),
            metrics,
            shutting_down: AtomicBool::new(false),
            journal,
            degraded,
            config,
        });
        if state.journal.is_some() {
            recover(&state)?;
        }
        Ok(Server { listener, state })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The engine's metrics registry — the same one `GET /metrics`
    /// renders, shared so a host process (the CLI's signal paths) can
    /// report telemetry after the server moves into its serve thread.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(self.state.engine.metrics())
    }

    /// A handle that can stop [`Server::serve`] from another thread (or a
    /// signal handler's polling loop).
    pub fn shutdown_handle(&self) -> std::io::Result<ShutdownHandle> {
        Ok(ShutdownHandle {
            state: Arc::clone(&self.state),
            addr: self.local_addr()?,
        })
    }

    /// Accept connections until [`ShutdownHandle::shutdown`] is called.
    /// Each connection is served on its own thread; a handler panic kills
    /// only that connection (and is answered with a 500 when possible).
    pub fn serve(self) -> std::io::Result<()> {
        let faults = Arc::clone(&self.state.config.faults);
        let connections = Arc::clone(&self.state.metrics.connections);
        http::serve(
            self.listener,
            self.state,
            |state| &state.shutting_down,
            &connections,
            "rank-conn",
            // Fault hook: simulate flaky networking by closing the
            // connection unanswered (drives the client's retry and
            // reconnect paths in the recovery tests).
            || faults.should_drop_accept(),
            handle_request,
        )
    }
}

/// Route one request, timed and counted under its endpoint label.
fn handle_request(
    stream: &mut Conn,
    request: &Request,
    state: &Arc<ServerState>,
    keep: bool,
) -> Served {
    let endpoint = endpoint_label(&request.method, request.path.trim_end_matches('/'));
    let handle_start = Instant::now();
    let served = route(stream, request, state, keep);
    observe_request(state, endpoint, handle_start.elapsed());
    served
}

/// The stable per-endpoint label for the HTTP request metrics — path
/// parameters collapse (`/v1/jobs/17` and `/v1/jobs/99` are both
/// `job_status`) so the label set stays bounded.
fn endpoint_label(method: &str, path: &str) -> &'static str {
    match (method, path) {
        ("GET", "/healthz") => "healthz",
        ("GET", "/metrics") => "metrics",
        ("GET", "/v1/algorithms") => "algorithms",
        ("POST", "/v1/jobs") => "job_submit",
        ("POST", "/v1/batches") => "batch_submit",
        (method, path) if path.starts_with("/v1/batches/") => match (method, path) {
            ("GET", p) if p.ends_with("/events") => "batch_events",
            ("GET", _) => "batch_status",
            _ => "other",
        },
        (method, path) if path.starts_with("/v1/datasets/") => match method {
            "PUT" => "dataset_create",
            "PATCH" => "dataset_edit",
            "GET" => "dataset_get",
            "DELETE" => "dataset_delete",
            _ => "other",
        },
        (method, path) if path.starts_with("/v1/jobs/") => match (method, path) {
            ("GET", p) if p.ends_with("/events") => "job_events",
            ("GET", _) => "job_status",
            ("DELETE", _) => "job_cancel",
            _ => "other",
        },
        _ => "other",
    }
}

/// Count one handled request and its wall time under its endpoint label.
/// Event streams record at stream end, so their latency is the stream's
/// lifetime — that is what the connection actually occupied.
fn observe_request(state: &ServerState, endpoint: &str, elapsed: Duration) {
    let registry = state.engine.metrics();
    let labels = [("endpoint", endpoint)];
    registry
        .counter(
            "rawt_http_requests_total",
            "HTTP requests handled, by endpoint.",
            &labels,
        )
        .inc();
    registry
        .histogram(
            "rawt_http_request_seconds",
            "HTTP request handling latency, by endpoint.",
            &labels,
        )
        .record(elapsed);
}

fn respond_error(
    stream: &mut Conn,
    status: u16,
    message: &str,
    suggestion: Option<&str>,
    keep: bool,
) -> Served {
    let body = proto::error_json(message, suggestion);
    let _ = stream.respond(status, "application/json", &[], body.as_bytes(), keep);
    Served::KeepAlive
}

fn respond_json(stream: &mut Conn, status: u16, body: &str, keep: bool) -> Served {
    let _ = stream.respond(status, "application/json", &[], body.as_bytes(), keep);
    Served::KeepAlive
}

fn route(stream: &mut Conn, request: &Request, state: &Arc<ServerState>, keep: bool) -> Served {
    let path = request.path.trim_end_matches('/');
    if !http::authorized(request, state.config.token.as_deref(), path) {
        return respond_error(
            stream,
            401,
            "missing or invalid bearer token (send Authorization: Bearer <token>)",
            None,
            keep,
        );
    }
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => healthz(stream, state, keep),
        ("GET", "/metrics") => metrics_exposition(stream, state, keep),
        ("GET", "/v1/algorithms") => respond_json(stream, 200, &proto::registry_json(), keep),
        ("POST", "/v1/jobs") => submit_job(stream, request, state, keep),
        ("POST", "/v1/batches") => submit_batch(stream, request, state, keep),
        (_, "/healthz" | "/metrics" | "/v1/algorithms" | "/v1/jobs" | "/v1/batches") => {
            respond_error(stream, 405, "unsupported method for this path", None, keep)
        }
        (method, path) if path.starts_with("/v1/batches/") => {
            let rest = &path["/v1/batches/".len()..];
            let (id_text, tail) = rest
                .split_once('/')
                .map_or((rest, None), |(id, t)| (id, Some(t)));
            let Ok(id) = id_text.parse::<u64>() else {
                return respond_error(
                    stream,
                    400,
                    &format!("bad batch id {id_text:?}"),
                    None,
                    keep,
                );
            };
            let batch = state
                .batches
                .lock()
                .expect("batch table poisoned")
                .records
                .get(&id)
                .cloned();
            let Some(batch) = batch else {
                return respond_error(stream, 404, &format!("no such batch {id}"), None, keep);
            };
            match (method, tail) {
                ("GET", None) => batch_status(stream, &batch, keep),
                ("GET", Some("events")) => stream_batch_events(stream, state, &batch, keep),
                _ => respond_error(stream, 405, "unsupported method for this path", None, keep),
            }
        }
        (method, path) if path.starts_with("/v1/datasets/") => {
            let id = &path["/v1/datasets/".len()..];
            if let Err(message) = proto::check_dataset_id(id) {
                return respond_error(stream, 400, &message, None, keep);
            }
            match method {
                "PUT" => create_dataset(stream, request, state, id, keep),
                "PATCH" => edit_dataset(stream, request, state, id, keep),
                "GET" => get_dataset(stream, state, id, keep),
                "DELETE" => delete_dataset(stream, state, id, keep),
                _ => respond_error(stream, 405, "unsupported method for this path", None, keep),
            }
        }
        (method, path) if path.starts_with("/v1/jobs/") => {
            let rest = &path["/v1/jobs/".len()..];
            let (id_text, tail) = rest
                .split_once('/')
                .map_or((rest, None), |(id, t)| (id, Some(t)));
            let Ok(id) = id_text.parse::<u64>() else {
                return respond_error(stream, 400, &format!("bad job id {id_text:?}"), None, keep);
            };
            let record = state
                .jobs
                .lock()
                .expect("job table poisoned")
                .records
                .get(&id)
                .cloned();
            let Some(record) = record else {
                return respond_error(stream, 404, &format!("no such job {id}"), None, keep);
            };
            match (method, tail) {
                ("GET", None) => job_status(stream, &record, keep),
                ("DELETE", None) => {
                    record.cancel(&state.done_ids);
                    respond_json(
                        stream,
                        202,
                        &format!(
                            "{{\"id\":{id},\"cancelling\":true,\"state\":\"{}\"}}",
                            record.queue_state()
                        ),
                        keep,
                    )
                }
                ("GET", Some("events")) => stream_events(stream, state, &record, keep),
                _ => respond_error(stream, 405, "unsupported method for this path", None, keep),
            }
        }
        ("POST", _) | ("GET", _) | ("DELETE", _) | ("PUT", _) | ("PATCH", _) => respond_error(
            stream,
            404,
            &format!("no such endpoint {path:?}"),
            None,
            keep,
        ),
        (method, _) => respond_error(
            stream,
            405,
            &format!("unsupported method {method}"),
            None,
            keep,
        ),
    }
}

fn healthz(stream: &mut Conn, state: &Arc<ServerState>, keep: bool) -> Served {
    let stats = state.engine.scheduler_stats();
    let degraded = state.degraded.load(Ordering::SeqCst);
    let journal = match (&state.journal, degraded) {
        (None, _) => "off",
        (Some(_), true) => "degraded",
        (Some(_), false) => "active",
    };
    let datasets = state.datasets.lock().expect("dataset table poisoned").len();
    // Every count is read back from the telemetry registry — /healthz
    // and /metrics are two views of one source and cannot drift.
    let registry = state.engine.metrics();
    let body = format!(
        concat!(
            "{{\"status\":\"{}\",\"journal\":\"{}\",\"uptime_secs\":{:.1},",
            "\"jobs_accepted\":{},\"jobs_queued\":{},\"jobs_running\":{},",
            "\"datasets\":{},\"matrix_builds\":{},\"max_jobs\":{},\"queue_capacity\":{}}}"
        ),
        if degraded { "degraded" } else { "ok" },
        journal,
        state.started.elapsed().as_secs_f64(),
        registry.counter_total("rawt_jobs_accepted_total"),
        registry.gauge_value("rawt_queue_depth", &[]).unwrap_or(0),
        registry.gauge_value("rawt_jobs_running", &[]).unwrap_or(0),
        datasets,
        registry.counter_total("rawt_matrix_builds_total"),
        stats.max_concurrent,
        stats.queue_capacity,
    );
    respond_json(stream, 200, &body, keep)
}

/// `GET /metrics`: the engine registry — every tier hangs its families
/// off it — rendered in Prometheus text exposition format.
fn metrics_exposition(stream: &mut Conn, state: &Arc<ServerState>, keep: bool) -> Served {
    let body = state.engine.metrics().render_prometheus();
    let _ = stream.respond(200, "text/plain; version=0.0.4", &[], body.as_bytes(), keep);
    Served::KeepAlive
}

/// Rebuild a live dataset from its journal file: the consolidated text,
/// then each durably recorded edit, landing at the journaled version.
fn rebuild_dataset(ds: &RecoveredDataset) -> Result<(Arc<Universe>, DatasetSession), String> {
    let (mut universe, mut session) = proto::build_session(&ds.dataset)?;
    session.restore_version(ds.version);
    for (version, op_json) in &ds.edits {
        let doc = Json::parse(op_json).map_err(|e| format!("edit record: {e}"))?;
        let op = proto::DatasetOp::parse(&doc)?;
        proto::apply_op(&mut universe, &mut session, &op, &mut 0)?;
        session.restore_version(*version);
    }
    Ok((universe, session))
}

/// `PUT /v1/datasets/{id}`: create-only (409 on an existing id). Body:
/// `{"dataset":"<text>"}`.
fn create_dataset(
    stream: &mut Conn,
    request: &Request,
    state: &Arc<ServerState>,
    id: &str,
    keep: bool,
) -> Served {
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return respond_error(stream, 400, "request body is not UTF-8", None, keep);
    };
    let text = match Json::parse(body)
        .ok()
        .as_ref()
        .and_then(|doc| doc.get("dataset"))
        .and_then(Json::as_str)
    {
        Some(text) if !text.trim().is_empty() => text.to_owned(),
        _ => {
            return respond_error(
                stream,
                400,
                "body must be {\"dataset\":\"<one ranking per line>\"}",
                None,
                keep,
            );
        }
    };
    let rebuild_start = Instant::now();
    let (universe, session) = match proto::build_session(&text) {
        Ok(built) => built,
        Err(message) => return respond_error(stream, 400, &message, None, keep),
    };
    state
        .metrics
        .session_rebuild_seconds
        .record(rebuild_start.elapsed());
    let (n, m) = (session.n(), session.m());
    {
        let mut datasets = state.datasets.lock().expect("dataset table poisoned");
        if datasets.contains_key(id) {
            return respond_error(
                stream,
                409,
                &format!("dataset {id:?} already exists (PATCH it, or DELETE first)"),
                None,
                keep,
            );
        }
        let writer = state
            .journal
            .as_ref()
            .and_then(|journal| journal.begin_dataset(id, &dataset_text(&session, &universe), 1));
        datasets.insert(
            id.to_owned(),
            Arc::new(LiveDataset {
                id: id.to_owned(),
                state: Mutex::new(DatasetState::new(universe, session, writer)),
            }),
        );
    }
    respond_json(
        stream,
        201,
        &format!(
            "{{\"id\":\"{}\",\"version\":1,\"n\":{n},\"m\":{m}}}",
            crate::json::escape(id)
        ),
        keep,
    )
}

/// `PATCH /v1/datasets/{id}`: apply `{"ops":[…]}` in order, one version
/// bump (and one journal record) per successful op. A failing op stops
/// the sequence with a 409 that reports both the applied count and the
/// version reached — ops before it stay applied (each is an independent,
/// durably journaled edit). If any op applied, every follow job parked
/// on the dataset is re-armed on the new version before the reply.
fn edit_dataset(
    stream: &mut Conn,
    request: &Request,
    state: &Arc<ServerState>,
    id: &str,
    keep: bool,
) -> Served {
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return respond_error(stream, 400, "request body is not UTF-8", None, keep);
    };
    let ops: Vec<proto::DatasetOp> = {
        let parsed = Json::parse(body).ok();
        let list = parsed
            .as_ref()
            .and_then(|doc| doc.get("ops"))
            .and_then(Json::as_array);
        let Some(list) = list else {
            return respond_error(
                stream,
                400,
                "body must be {\"ops\":[{\"op\":\"add\",\"ranking\":\"…\"},…]}",
                None,
                keep,
            );
        };
        if list.is_empty() {
            return respond_error(stream, 400, "\"ops\" is empty", None, keep);
        }
        match list.iter().map(proto::DatasetOp::parse).collect() {
            Ok(ops) => ops,
            Err(message) => return respond_error(stream, 400, &message, None, keep),
        }
    };
    let dataset = state
        .datasets
        .lock()
        .expect("dataset table poisoned")
        .get(id)
        .cloned();
    let Some(dataset) = dataset else {
        return respond_error(stream, 404, &format!("no such dataset {id:?}"), None, keep);
    };
    let mut applied = 0usize;
    let mut failure: Option<String> = None;
    let (version, n, m) = {
        let mut guard = dataset.lock();
        let ds = &mut *guard;
        let copies_before = ds.session.copies();
        let mut universe_copies = 0;
        for op in &ops {
            let patch_start = Instant::now();
            let applied_op =
                proto::apply_op(&mut ds.universe, &mut ds.session, op, &mut universe_copies);
            state
                .metrics
                .session_patch_seconds
                .record(patch_start.elapsed());
            match applied_op {
                Ok(version) => {
                    applied += 1;
                    if let Some(writer) = ds.writer.as_mut() {
                        writer.append_dataset_edit(&op.to_json(), version);
                    }
                }
                Err(message) => {
                    failure = Some(format!("op {applied}: {message}"));
                    break;
                }
            }
        }
        let copies = ds.session.copies();
        let deltas = [
            copies.dataset - copies_before.dataset,
            copies.matrix - copies_before.matrix,
            universe_copies,
        ];
        for (counter, delta) in state.metrics.snapshot_copies.iter().zip(deltas) {
            counter.add(delta);
        }
        if applied > 0 && !ds.parked.is_empty() {
            // One snapshot for every parked follower: one round each.
            let (snapshot, universe) = ds.snapshot();
            for record in std::mem::take(&mut ds.parked).into_values() {
                record.rearm(state, &snapshot, &universe);
            }
        }
        (ds.session.version(), ds.session.n(), ds.session.m())
    };
    match failure {
        None => respond_json(
            stream,
            200,
            &format!(
                "{{\"id\":\"{}\",\"version\":{version},\"n\":{n},\"m\":{m},\"applied\":{applied}}}",
                crate::json::escape(id)
            ),
            keep,
        ),
        Some(message) => respond_json(
            stream,
            409,
            &format!(
                "{{\"error\":\"{}\",\"version\":{version},\"applied\":{applied}}}",
                crate::json::escape(&message)
            ),
            keep,
        ),
    }
}

/// `GET /v1/datasets/{id}`: the current text, version, and shape.
fn get_dataset(stream: &mut Conn, state: &Arc<ServerState>, id: &str, keep: bool) -> Served {
    let dataset = state
        .datasets
        .lock()
        .expect("dataset table poisoned")
        .get(id)
        .cloned();
    let Some(dataset) = dataset else {
        return respond_error(stream, 404, &format!("no such dataset {id:?}"), None, keep);
    };
    let ds = dataset.lock();
    let body = format!(
        "{{\"id\":\"{}\",\"version\":{},\"n\":{},\"m\":{},\"dataset\":\"{}\"}}",
        crate::json::escape(id),
        ds.session.version(),
        ds.session.n(),
        ds.session.m(),
        crate::json::escape(&dataset_text(&ds.session, &ds.universe)),
    );
    drop(ds);
    respond_json(stream, 200, &body, keep)
}

/// `DELETE /v1/datasets/{id}`: drop the dataset and its journal file.
/// The follow jobs parked on it end as cancelled now; a round still
/// running on it ends its job when it completes.
fn delete_dataset(stream: &mut Conn, state: &Arc<ServerState>, id: &str, keep: bool) -> Served {
    let removed = state
        .datasets
        .lock()
        .expect("dataset table poisoned")
        .remove(id);
    let Some(dataset) = removed else {
        return respond_error(stream, 404, &format!("no such dataset {id:?}"), None, keep);
    };
    let parked = {
        let mut ds = dataset.lock();
        ds.deleted = true;
        ds.writer = None;
        std::mem::take(&mut ds.parked)
    };
    for record in parked.into_values() {
        record.stop(&state.done_ids);
    }
    if let Some(journal) = &state.journal {
        journal.remove_dataset(id);
    }
    respond_json(
        stream,
        200,
        &format!(
            "{{\"id\":\"{}\",\"deleted\":true}}",
            crate::json::escape(id)
        ),
        keep,
    )
}

/// A prepared submission plus, for a `dataset_id` job, the live dataset
/// (for consensus record-back) and the session snapshot the job solves:
/// its version, delta-patched matrix — attached to the request so the
/// engine skips its own `O(m·n²)` rebuild — and warm hint.
struct PreparedJob {
    prepared: proto::Prepared,
    live: Option<(Arc<LiveDataset>, Snapshot)>,
}

/// Prepare a `"dataset_id"` job: snapshot the live dataset (shared
/// dataset and matrix, universe, warm hint, version) under its lock,
/// then resolve the spec against the snapshot. The error carries the
/// HTTP status (404 for a missing dataset, 400 otherwise).
fn prepare_dataset_job(
    state: &Arc<ServerState>,
    submission: &JobSubmission,
) -> Result<PreparedJob, (u16, SubmissionError)> {
    let id = submission.dataset_id.as_deref().expect("caller checked");
    let dataset = state
        .datasets
        .lock()
        .expect("dataset table poisoned")
        .get(id)
        .cloned()
        .ok_or_else(|| (404, SubmissionError::new(format!("no such dataset {id:?}"))))?;
    let (snapshot, universe) = dataset.lock().snapshot();
    let spec = proto::resolve_spec(submission, &snapshot.dataset).map_err(|e| (400, e))?;
    Ok(PreparedJob {
        prepared: proto::Prepared {
            universe,
            mapping: None,
            data: Arc::clone(&snapshot.dataset),
            spec,
        },
        live: Some((dataset, snapshot)),
    })
}

/// One preparation entry point for both job kinds — the live submit path
/// and recovery re-admission go through it, so both run identically.
fn prepare_any(
    state: &Arc<ServerState>,
    submission: &JobSubmission,
) -> Result<PreparedJob, (u16, SubmissionError)> {
    if submission.dataset_id.is_some() {
        prepare_dataset_job(state, submission)
    } else {
        proto::prepare_submission(submission)
            .map(|prepared| PreparedJob {
                prepared,
                live: None,
            })
            .map_err(|e| (400, e))
    }
}

/// The engine request for a prepared submission — shared by the live
/// submit path and recovery re-admission, so both run the identical
/// (spec, seed, budget) and the recovered report is bit-identical to an
/// uninterrupted run. Dataset jobs additionally carry their snapshot's
/// matrix and warm hint.
fn build_request(pj: &PreparedJob, submission: &JobSubmission) -> AggregationRequest {
    let spec = pj.prepared.spec.clone();
    let request = match &pj.live {
        Some((_, snapshot)) => snapshot.request(spec),
        None => AggregationRequest::new(Arc::clone(&pj.prepared.data), spec),
    };
    seeded(request, submission.seed, submission.budget)
}

/// `request` with the submission's seed and optional budget.
fn seeded(request: AggregationRequest, seed: u64, budget: Option<Duration>) -> AggregationRequest {
    let request = request.with_seed(seed);
    match budget {
        Some(budget) => request.with_budget(budget),
        None => request,
    }
}

/// The submission as journaled: the original body with the *resolved*
/// algorithm spec filled in, so recovery re-runs exactly what ran — even
/// when guidance picked the algorithm (guidance is deterministic, but
/// pinning the pick in the record makes the journal self-contained).
fn journaled_submission_json(submission: &JobSubmission, spec: &AlgoSpec) -> String {
    let mut resolved = submission.clone();
    resolved.algo = Some(spec.to_string());
    resolved.to_json()
}

/// The `POST /v1/jobs` response body (also returned, with
/// `"deduplicated":true` and status 200, for an idempotent retry).
fn submit_body(record: &JobRecord, deduplicated: bool) -> String {
    let (n, m) = {
        let live = record.live();
        (live.n, live.m)
    };
    format!(
        concat!(
            "{{\"id\":{},\"spec\":\"{}\",\"seed\":{},\"n\":{},\"m\":{},",
            "\"deduplicated\":{},\"events\":\"/v1/jobs/{}/events\",\"status\":\"/v1/jobs/{}\"}}"
        ),
        record.id,
        crate::json::escape(&record.spec.to_string()),
        record.seed,
        n,
        m,
        deduplicated,
        record.id,
        record.id,
    )
}

/// Build the [`JobRecord`] for a prepared job, consuming the preparation
/// (universe and denormalization context move into the record's live
/// half). Shared by submit, batches and both recovery paths so the
/// record shape can never drift between them. The sink and cancel token
/// are inert until [`JobRecord::arm`] installs a run's.
fn make_record(
    id: u64,
    submission: &JobSubmission,
    pj: PreparedJob,
    progress: JobProgress,
    batch: Option<BatchLink>,
) -> JobRecord {
    JobRecord {
        id,
        spec: pj.prepared.spec,
        seed: submission.seed,
        budget: submission.budget,
        normalize: submission.normalize,
        idempotency: submission.idempotency_key.clone(),
        segments: Vec::new(),
        dataset: pj.live.map(|(dataset, _)| dataset),
        batch,
        writer: Mutex::new(None),
        live: Mutex::new(LiveRefs {
            n: pj.prepared.data.n(),
            m: pj.prepared.data.m(),
            universe: pj.prepared.universe,
            mapping: pj.prepared.mapping,
            sink: Arc::new(IncumbentSink::new()),
            cancel: CancelToken::new(),
        }),
        state: Mutex::new(progress),
        advanced: Condvar::new(),
    }
}

/// Which admission class a job enters, and the journal segment it
/// records into.
enum Admission {
    /// A new submission: shed when the queue is full.
    Fresh,
    /// A journaled job re-run after a restart: runs ahead of fresh
    /// traffic and never sheds.
    Recovered {
        /// The segment the re-run records into.
        segment: u32,
        /// The segments replay found for the job, usable or not.
        seen: Vec<u32>,
    },
}

/// Admit a prepared job as `id` and journal its submission. The record is
/// built first and publishes itself; a follow job's admission is its
/// first round, on the version the preparation snapshotted. Callers hold
/// the job table's lock, so concurrent twins of one idempotency key can
/// never both be admitted.
fn admit_job(
    state: &Arc<ServerState>,
    id: u64,
    submission: &JobSubmission,
    pj: PreparedJob,
    admission: Admission,
) -> Result<Arc<JobRecord>, AdmissionError> {
    let request = build_request(&pj, submission);
    let round = match (&pj.live, submission.follow) {
        (Some((_, snapshot)), true) => Some(snapshot.version),
        _ => None,
    };
    let (segment, mut segments) = match &admission {
        Admission::Fresh => (0, Vec::new()),
        Admission::Recovered { segment, seen } => (*segment, seen.clone()),
    };
    if !segments.contains(&segment) {
        segments.push(segment);
    }
    let record = Arc::new(JobRecord {
        segments,
        ..make_record(id, submission, pj, JobProgress::default(), None)
    });
    let hooks = record.arm(state, round);
    // Hold the writer slot through admission: no event can be journaled
    // before the submission record, and a refused job journals nothing.
    let mut writer = record.writer.lock().expect("job writer poisoned");
    match admission {
        Admission::Fresh => state.engine.try_submit_with(request, hooks)?,
        Admission::Recovered { .. } => state.engine.submit_recovered_with(request, hooks),
    }
    // The record re-encodes the whole submission, so it is built only
    // when there is a journal to take it.
    *writer = state.journal.as_ref().and_then(|journal| {
        journal.begin_job(
            id,
            segment,
            &journaled_submission_json(submission, &record.spec),
        )
    });
    drop(writer);
    Ok(record)
}

/// Answer a refused admission: 429 with a `Retry-After` hint for a full
/// queue (`what` names what needed the room), 503 while draining.
fn respond_refused(stream: &mut Conn, err: AdmissionError, what: &str, keep: bool) -> Served {
    match err {
        AdmissionError::QueueFull {
            queued,
            capacity,
            retry_after,
        } => {
            let secs = retry_after.as_secs().max(1);
            let body = format!(
                "{{\"error\":\"admission queue full ({queued}/{capacity}){what}\",\"retry_after_secs\":{secs}}}"
            );
            let _ = stream.respond(
                429,
                "application/json",
                &[("Retry-After", secs.to_string())],
                body.as_bytes(),
                keep,
            );
            Served::KeepAlive
        }
        AdmissionError::ShuttingDown => {
            respond_error(stream, 503, "server is draining", None, keep)
        }
    }
}

/// Answer a submission whose ids no longer fit the shard's id space.
fn ids_exhausted(stream: &mut Conn, shard: Shard, keep: bool) -> Served {
    let message = format!("ids exhausted in shard {}/{}", shard.index, shard.count);
    respond_error(stream, 500, &message, None, keep)
}

/// `POST /v1/jobs`: parse, validate, dedupe, admit, journal, record.
fn submit_job(
    stream: &mut Conn,
    request: &Request,
    state: &Arc<ServerState>,
    keep: bool,
) -> Served {
    if state.shutting_down.load(Ordering::SeqCst) {
        return respond_error(stream, 503, "server is draining", None, keep);
    }
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return respond_error(stream, 400, "request body is not UTF-8", None, keep);
    };
    let submission = match JobSubmission::from_json(body) {
        Ok(submission) => submission,
        Err(e) => {
            return respond_error(stream, 400, &e.message, e.suggestion.as_deref(), keep);
        }
    };
    let shard = match Shard::of(request) {
        Ok(shard) => shard,
        Err(message) => return respond_error(stream, 400, &message, None, keep),
    };
    // Idempotent retry? Answer with the existing job (recovered ones
    // included — the key map is rebuilt from the journal on restart)
    // before spending any parsing or admission work on the body.
    if let Some(key) = &submission.idempotency_key {
        let table = state.jobs.lock().expect("job table poisoned");
        if let Some(record) = table.keys.get(key).and_then(|id| table.records.get(id)) {
            let body = submit_body(record, true);
            drop(table);
            return respond_json(stream, 200, &body, keep);
        }
    }
    let pj = match prepare_any(state, &submission) {
        Ok(pj) => pj,
        Err((status, e)) => {
            return respond_error(stream, status, &e.message, e.suggestion.as_deref(), keep);
        }
    };
    let mut evicted_batches = Vec::new();
    let admitted = {
        let mut table = state.jobs.lock().expect("job table poisoned");
        // Re-check the key under the table lock, which is held through
        // admission: of concurrent twins, only the first is admitted.
        let existing = submission
            .idempotency_key
            .as_ref()
            .and_then(|key| table.keys.get(key))
            .and_then(|id| table.records.get(id));
        match existing {
            Some(existing) => Ok((Arc::clone(existing), true)),
            None => {
                let Some(ids) = shard.mint(table.next_id, 1) else {
                    return ids_exhausted(stream, shard, keep);
                };
                // Evict before admitting: the new job may finish at once,
                // and must not count among the done it was submitted past.
                evicted_batches = evict_done(&mut table, state);
                admit_job(state, ids.start, &submission, pj, Admission::Fresh).map(|record| {
                    table.next_id = ids.end;
                    table.records.insert(record.id, Arc::clone(&record));
                    if let Some(key) = &submission.idempotency_key {
                        table.keys.insert(key.clone(), record.id);
                    }
                    state.metrics.jobs_accepted.inc();
                    (record, false)
                })
            }
        }
    };
    // The job table is released first: `submit_batch` takes the batch
    // table before the job table.
    if !evicted_batches.is_empty() {
        let mut batches = state.batches.lock().expect("batch table poisoned");
        batches.remove(&evicted_batches);
    }
    match admitted {
        Ok((record, deduplicated)) => {
            let status = if deduplicated { 200 } else { 202 };
            respond_json(stream, status, &submit_body(&record, deduplicated), keep)
        }
        Err(err) => respond_refused(stream, err, "", keep),
    }
}

/// The `POST /v1/batches` response body (also the idempotent-retry body,
/// with `"deduplicated":true`): batch identity plus one entry per sub-job
/// with its individual endpoints, in panel order.
fn batch_body(batch: &BatchRecord, deduplicated: bool) -> String {
    let (n, m) = {
        let live = batch.jobs[0].live();
        (live.n, live.m)
    };
    let jobs: Vec<String> = batch
        .jobs
        .iter()
        .map(|job| {
            format!(
                "{{\"spec\":\"{}\",\"id\":{},\"events\":\"/v1/jobs/{}/events\",\"status\":\"/v1/jobs/{}\"}}",
                crate::json::escape(&job.spec.to_string()),
                job.id,
                job.id,
                job.id,
            )
        })
        .collect();
    format!(
        concat!(
            "{{\"id\":{},\"seed\":{},\"n\":{n},\"m\":{m},\"deduplicated\":{},",
            "\"jobs\":[{}],\"events\":\"/v1/batches/{}/events\",\"status\":\"/v1/batches/{}\"}}"
        ),
        batch.id,
        batch.seed,
        deduplicated,
        jobs.join(","),
        batch.id,
        batch.id,
        n = n,
        m = m,
    )
}

/// `POST /v1/batches`: one dataset, a panel of specs, admitted through
/// the scheduler as a single all-or-nothing unit. Every sub-job shares
/// the dataset's one `O(m·n²)` cost-matrix build through the engine
/// cache (the requests share one `Arc<Dataset>`, so they hit the same
/// cache entry; the cache holds its lock across the build, so concurrent
/// sub-jobs wait for the first build instead of repeating it).
///
/// Batches are not journaled: a batch is a convenience fan-out over the
/// panel, and its sub-jobs are cheap to resubmit as a unit — the
/// idempotency key makes that retry safe (DESIGN.md §14.1).
fn submit_batch(
    stream: &mut Conn,
    request: &Request,
    state: &Arc<ServerState>,
    keep: bool,
) -> Served {
    if state.shutting_down.load(Ordering::SeqCst) {
        return respond_error(stream, 503, "server is draining", None, keep);
    }
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return respond_error(stream, 400, "request body is not UTF-8", None, keep);
    };
    let submission = match BatchSubmission::from_json(body) {
        Ok(submission) => submission,
        Err(e) => {
            return respond_error(stream, 400, &e.message, e.suggestion.as_deref(), keep);
        }
    };
    let shard = match Shard::of(request) {
        Ok(shard) => shard,
        Err(message) => return respond_error(stream, 400, &message, None, keep),
    };
    if let Some(key) = &submission.idempotency_key {
        let table = state.batches.lock().expect("batch table poisoned");
        if let Some(batch) = table.keys.get(key).and_then(|id| table.records.get(id)) {
            let body = batch_body(batch, true);
            drop(table);
            return respond_json(stream, 200, &body, keep);
        }
    }
    // Parse + normalize the dataset once, resolve every spec against it.
    let job_submission = |spec: &str| JobSubmission {
        algo: Some(spec.to_owned()),
        seed: submission.seed,
        budget: submission.budget,
        normalize: submission.normalize,
        ..JobSubmission::new(submission.dataset.clone())
    };
    let mut prepared = Vec::with_capacity(submission.specs.len());
    for spec in &submission.specs {
        match proto::prepare_submission(&job_submission(spec)) {
            Ok(pj) => prepared.push(pj),
            Err(e) => {
                let message = format!("spec {spec:?}: {}", e.message);
                return respond_error(stream, 400, &message, e.suggestion.as_deref(), keep);
            }
        }
    }
    // One dense dataset for the whole panel: the first preparation's Arc
    // is shared by every request, so the engine cache sees one
    // fingerprint and pays one matrix build.
    let data = Arc::clone(&prepared[0].data);
    let panel = submission.specs.len();
    let admitted = {
        let mut batches = state.batches.lock().expect("batch table poisoned");
        // Same re-check as jobs, and held through admission the same way:
        // a concurrent twin with our key is never admitted.
        let existing = submission
            .idempotency_key
            .as_ref()
            .and_then(|key| batches.keys.get(key))
            .and_then(|id| batches.records.get(id));
        match existing {
            Some(existing) => Ok((Arc::clone(existing), true)),
            None => {
                let mut table = state.jobs.lock().expect("job table poisoned");
                let minted = shard
                    .mint(table.next_id, prepared.len())
                    .zip(shard.mint(batches.next_id, 1));
                let Some((job_ids, batch_ids)) = minted else {
                    return ids_exhausted(stream, shard, keep);
                };
                let (next_job, batch_id, next_batch) =
                    (job_ids.end, batch_ids.start, batch_ids.end);
                let job_ids = job_ids.step_by(shard.count as usize);
                let signal = Arc::new(Signal::default());
                let (records, jobs): (Vec<_>, Vec<_>) = prepared
                    .into_iter()
                    .zip(job_ids.clone())
                    .map(|(prep, id)| {
                        let request = seeded(
                            AggregationRequest::new(Arc::clone(&data), prep.spec.clone()),
                            submission.seed,
                            submission.budget,
                        );
                        let spec = prep.spec.to_string();
                        let link = BatchLink {
                            spec: spec.clone(),
                            signal: Arc::clone(&signal),
                            batch: batch_id,
                            jobs: job_ids.clone(),
                        };
                        let pj = PreparedJob {
                            prepared: prep,
                            live: None,
                        };
                        let submission = job_submission(&spec);
                        let progress = JobProgress::default();
                        let record =
                            Arc::new(make_record(id, &submission, pj, progress, Some(link)));
                        let hooks = record.arm(state, None);
                        (record, (request, hooks))
                    })
                    .unzip();
                state.engine.try_submit_batch_with(jobs).map(|()| {
                    table.next_id = next_job;
                    for record in &records {
                        table.records.insert(record.id, Arc::clone(record));
                        state.metrics.jobs_accepted.inc();
                    }
                    batches.next_id = next_batch;
                    let batch = Arc::new(BatchRecord {
                        id: batch_id,
                        idempotency: submission.idempotency_key.clone(),
                        seed: submission.seed,
                        jobs: records,
                        signal,
                    });
                    batches.records.insert(batch_id, Arc::clone(&batch));
                    if let Some(key) = &batch.idempotency {
                        batches.keys.insert(key.clone(), batch_id);
                    }
                    // Evict only once the batch is in its table, so a
                    // sub-job that finished already cannot strand it.
                    let evicted = evict_done(&mut table, state);
                    batches.remove(&evicted);
                    (batch, false)
                })
            }
        }
    };
    match admitted {
        Ok((batch, deduplicated)) => {
            let status = if deduplicated { 200 } else { 202 };
            respond_json(stream, status, &batch_body(&batch, deduplicated), keep)
        }
        Err(err) => {
            let what = format!("; batch of {panel} needs room for all");
            respond_refused(stream, err, &what, keep)
        }
    }
}

/// `GET /v1/batches/{id}`: the panel's aggregate state plus each
/// sub-job's state, outcome, and (once done) full report — one call reads
/// the whole panel back.
fn batch_status(stream: &mut Conn, batch: &Arc<BatchRecord>, keep: bool) -> Served {
    let mut all_done = true;
    let mut any_started = false;
    let jobs: Vec<String> = batch
        .jobs
        .iter()
        .map(|job| {
            let progress = job.state.lock().expect("job state poisoned");
            let state_name = state_name(&progress);
            all_done &= progress.done;
            any_started |= progress.started || progress.done;
            let outcome = progress
                .outcome
                .clone()
                .map_or("null".to_owned(), |o| format!("\"{o}\""));
            let report = progress
                .report_json
                .clone()
                .unwrap_or_else(|| "null".to_owned());
            drop(progress);
            format!(
                "{{\"spec\":\"{}\",\"id\":{},\"state\":\"{state_name}\",\"outcome\":{outcome},\"report\":{report}}}",
                crate::json::escape(&job.spec.to_string()),
                job.id,
            )
        })
        .collect();
    let state_name = if all_done {
        "done"
    } else if any_started {
        "running"
    } else {
        "queued"
    };
    let body = format!(
        "{{\"id\":{},\"seed\":{},\"state\":\"{state_name}\",\"jobs\":[{}]}}",
        batch.id,
        batch.seed,
        jobs.join(","),
    );
    respond_json(stream, 200, &body, keep)
}

/// `GET /v1/batches/{id}/events`: the panel's event logs merged into one
/// chunked NDJSON stream, every line tagged `"spec"`/`"job"`. Within one
/// sub-job, lines keep their emission order; across sub-jobs the merge is
/// arrival-ordered (the panel runs concurrently). Ends when every sub-job
/// is done; quiet stretches are bridged with heartbeats like the per-job
/// stream.
fn stream_batch_events(
    stream: &mut Conn,
    state: &Arc<ServerState>,
    batch: &Arc<BatchRecord>,
    keep: bool,
) -> Served {
    let mut writer = ChunkedWriter::begin(stream, "application/x-ndjson", keep);
    let _subscriber = GaugeGuard::enter(&state.metrics.stream_subscribers);
    let heartbeat = Duration::from_secs(u64::from(state.config.heartbeat_secs));
    let mut cursors = vec![0usize; batch.jobs.len()];
    let mut quiet_since = Instant::now();
    loop {
        // Read the generation before scanning: a publication that lands
        // mid-scan moves it, so the wait below returns at once.
        let seen = batch.signal.generation();
        let mut wrote = false;
        let mut all_done = true;
        for (job, cursor) in batch.jobs.iter().zip(&mut cursors) {
            let (lines, done) = {
                let progress = job.progress();
                (progress.batch_events[*cursor..].to_vec(), progress.done)
            };
            all_done &= done;
            for line in &lines {
                if writer.write_line(line).is_err() {
                    return Served::Close; // subscriber went away; jobs keep running
                }
            }
            *cursor += lines.len();
            wrote |= !lines.is_empty();
        }
        if all_done {
            return writer.finish();
        }
        if wrote {
            quiet_since = Instant::now();
            continue;
        }
        // Nothing new: what the last scans queued goes out before the wait.
        let quiet = quiet_since.elapsed();
        if quiet >= heartbeat {
            quiet_since = Instant::now();
            if writer.write_line("{\"event\":\"heartbeat\"}").is_err() {
                return Served::Close;
            }
        }
        if writer.flush().is_err() {
            return Served::Close;
        }
        if quiet < heartbeat {
            batch.signal.wait_past(seen, heartbeat - quiet);
        }
    }
}

/// Replay the journal directory into the job table ([`Server::bind`]):
/// finished jobs become servable records (status, report, and event
/// replay intact); interrupted jobs are re-admitted through the
/// scheduler's recovered class in ascending id order, re-recording into
/// segment `n+1`. Unreadable or corrupt journal *entries* are skipped
/// (counted by the replay); only a directory-level I/O failure is fatal.
fn recover(state: &Arc<ServerState>) -> std::io::Result<()> {
    let journal = state.journal.as_ref().expect("recover without a journal");
    // Datasets first: jobs journaled by `dataset_id` resolve against the
    // recovered table. Each recovered dataset's journal is consolidated —
    // rewritten as a single create at the current version — so the edit
    // log cannot grow without bound across restarts. Warm hints are
    // in-memory only: the first post-restart round on a dataset runs
    // cold, at the recovered version.
    let mut recovered_datasets = 0usize;
    for ds in journal.replay_datasets()? {
        let rebuild_start = Instant::now();
        let rebuilt = rebuild_dataset(&ds);
        state
            .metrics
            .session_rebuild_seconds
            .record(rebuild_start.elapsed());
        match rebuilt {
            Ok((universe, session)) => {
                let writer = journal.begin_dataset(
                    &ds.id,
                    &dataset_text(&session, &universe),
                    session.version(),
                );
                let live = Arc::new(LiveDataset {
                    id: ds.id.clone(),
                    state: Mutex::new(DatasetState::new(universe, session, writer)),
                });
                state
                    .datasets
                    .lock()
                    .expect("dataset table poisoned")
                    .insert(ds.id.clone(), live);
                recovered_datasets += 1;
            }
            Err(message) => {
                eprintln!(
                    "rawt: journal: dropping unrecoverable dataset {:?} ({message})",
                    ds.id
                );
                journal.remove_dataset(&ds.id);
            }
        }
    }
    let replay = journal.replay()?;
    let mut recovered_done = 0usize;
    let mut readmitted = 0usize;
    let mut table = state.jobs.lock().expect("job table poisoned");
    for job in replay.jobs {
        // Fresh ids continue above every journaled one.
        table.next_id = table.next_id.max(job.id + 1);
        let pj = match prepare_any(state, &job.submission) {
            Ok(pj) => pj,
            Err((_, e)) => {
                eprintln!(
                    "rawt: journal: dropping unrecoverable job {} ({})",
                    job.id, e.message
                );
                continue;
            }
        };
        let record = if let Some(finished) = job.finished {
            recovered_done += 1;
            // Servable as-is: replayable events, outcome, and the exact
            // original report bytes. The live sink is empty (its trace
            // died with the old process) — the report carries the full
            // trace, and `best` reads null like any pre-start job.
            state
                .done_ids
                .lock()
                .expect("done ids poisoned")
                .insert(job.id);
            let progress = JobProgress {
                events: job.events,
                started: true,
                report_json: finished.report_json,
                outcome: Some(finished.outcome),
                done: true,
                ..JobProgress::default()
            };
            Arc::new(JobRecord {
                segments: job.segments,
                ..make_record(job.id, &job.submission, pj, progress, None)
            })
        } else {
            // Interrupted: deterministically re-run from the journaled
            // (spec, seed, budget). The recovered class places it ahead
            // of all fresh traffic, FIFO in this (ascending id) order.
            // A follow job resumes following from the dataset's
            // recovered version. A job already at the last segment number
            // has nowhere to record a re-run: it is dropped, its files
            // left in place, the same way on every restart.
            let Some(segment) = job.segment.checked_add(1) else {
                eprintln!(
                    "rawt: journal: dropping job {} (no segment after s{})",
                    job.id, job.segment
                );
                continue;
            };
            readmitted += 1;
            let admission = Admission::Recovered {
                segment,
                seen: job.segments,
            };
            state.metrics.jobs_accepted.inc();
            admit_job(state, job.id, &job.submission, pj, admission)
                .expect("recovered admission never sheds")
        };
        if let Some(key) = &record.idempotency {
            table.keys.insert(key.clone(), job.id);
        }
        table.records.insert(job.id, record);
    }
    drop(table);
    if recovered_datasets + recovered_done + readmitted > 0 || replay.dropped_lines > 0 {
        eprintln!(
            "rawt: journal: recovered {recovered_datasets} dataset(s) + {recovered_done} finished + {readmitted} interrupted job(s) ({} lines, {} dropped, {} unusable file(s))",
            replay.lines_read, replay.dropped_lines, replay.corrupt_files
        );
    }
    Ok(())
}

/// Drop the oldest *finished* records beyond the retention bound (live
/// jobs are never evicted: they are not in `done_ids` until they end).
/// An evicted job releases its idempotency key and journal segments, so
/// the on-disk recovery set stays as bounded as the in-memory table.
/// Each finished job is popped at most once, so a call costs O(log n)
/// amortized, not a scan of the table. Returns the ids of the batches
/// whose last sub-job left the table, for the caller to drop from the
/// batch table (lock order: `batches`, then `jobs`).
fn evict_done(table: &mut JobTable, state: &ServerState) -> Vec<u64> {
    let evicted: Vec<u64> = {
        let mut done_ids = state.done_ids.lock().expect("done ids poisoned");
        let excess = done_ids.len().saturating_sub(state.config.retain_done);
        (0..excess).filter_map(|_| done_ids.pop_first()).collect()
    };
    let mut links = Vec::new();
    for id in evicted {
        if let Some(record) = table.records.remove(&id) {
            if let Some(key) = &record.idempotency {
                table.keys.remove(key);
            }
            if let Some(journal) = &state.journal {
                journal.remove_job(id, &record.segments);
            }
            links.extend(record.batch.as_ref().map(|l| (l.batch, l.jobs.clone())));
        }
    }
    // A batch whose sub-jobs have all left the job table goes too.
    links
        .into_iter()
        .filter(|(_, jobs)| !jobs.clone().any(|id| table.records.contains_key(&id)))
        .map(|(batch, _)| batch)
        .collect()
}

/// `GET /v1/jobs/{id}`: status + best-so-far (trace from the sink, full
/// report once done).
fn job_status(stream: &mut Conn, record: &Arc<JobRecord>, keep: bool) -> Served {
    // Snapshot the round-scoped refs as one consistent set (a follow
    // round swap replaces sink and denormalization context together).
    let live = record.live();
    let trace: Vec<String> = live
        .sink
        .trace()
        .iter()
        .map(proto::trace_point_json)
        .collect();
    let best = match live.sink.best_so_far() {
        None => "null".to_owned(),
        Some((score, ranking)) => format!(
            "{{\"score\":{score},\"ranking\":{}}}",
            proto::dense_ranking_json(&ranking, live.mapping.as_deref(), &live.universe)
        ),
    };
    let (n, m) = (live.n, live.m);
    drop(live);
    let progress = record.state.lock().expect("job state poisoned");
    let state_name = state_name(&progress);
    let report = progress
        .report_json
        .clone()
        .unwrap_or_else(|| "null".to_owned());
    let outcome = progress
        .outcome
        .clone()
        .map_or("null".to_owned(), |o| format!("\"{o}\""));
    drop(progress);
    let body = format!(
        concat!(
            "{{\"id\":{},\"spec\":\"{}\",\"seed\":{},\"n\":{},\"m\":{},",
            "\"normalization\":\"{}\",\"state\":\"{state}\",\"outcome\":{outcome},",
            "\"best\":{best},\"trace\":[{trace}],\"report\":{report}}}"
        ),
        record.id,
        crate::json::escape(&record.spec.to_string()),
        record.seed,
        n,
        m,
        record.normalize,
        state = state_name,
        outcome = outcome,
        best = best,
        trace = trace.join(","),
        report = report,
    );
    respond_json(stream, 200, &body, keep)
}

/// `GET /v1/jobs/{id}/events`: replay the log from the start, then follow
/// live until the job is done — chunked NDJSON, one event per line.
/// Quiet stretches are bridged with `{"event":"heartbeat"}` lines
/// (streamed only, never recorded in the replay log) every
/// [`ServerConfig::heartbeat_secs`] seconds of silence. A completed
/// stream honours the request's keep-alive.
fn stream_events(
    stream: &mut Conn,
    state: &Arc<ServerState>,
    record: &Arc<JobRecord>,
    keep: bool,
) -> Served {
    let mut writer = ChunkedWriter::begin(stream, "application/x-ndjson", keep);
    let _subscriber = GaugeGuard::enter(&state.metrics.stream_subscribers);
    let heartbeat_secs = state.config.heartbeat_secs;
    let mut cursor = 0usize;
    loop {
        let (batch, done) = {
            let mut progress = record.state.lock().expect("job state poisoned");
            let mut quiet = 0u32;
            while progress.events.len() == cursor && !progress.done && quiet < heartbeat_secs {
                if writer.has_queued() {
                    // Nothing more is ready: send what is queued before
                    // waiting, outside the lock the job publishes under.
                    drop(progress);
                    if writer.flush().is_err() {
                        return Served::Close;
                    }
                    progress = record.state.lock().expect("job state poisoned");
                    continue;
                }
                let (next, timeout) = record
                    .advanced
                    .wait_timeout(progress, Duration::from_secs(1))
                    .expect("job state poisoned");
                progress = next;
                if timeout.timed_out() {
                    quiet += 1;
                }
            }
            (progress.events[cursor..].to_vec(), progress.done)
        };
        if batch.is_empty() && !done {
            // A long-quiet solver (e.g. an unbudgeted exact proof): send
            // a keepalive so the subscriber's read timeout does not
            // mistake the silence for a dead server.
            if writer
                .write_line("{\"event\":\"heartbeat\"}")
                .and_then(|()| writer.flush())
                .is_err()
            {
                return Served::Close;
            }
            continue;
        }
        // The batch is queued, not written: the next look either finds
        // more lines to send with it or flushes before it waits.
        for line in &batch {
            if writer.write_line(line).is_err() {
                return Served::Close; // subscriber went away; the job keeps running
            }
        }
        cursor += batch.len();
        if done {
            // Nothing is appended after `done` is set (the terminal line
            // is published with it), so the batch was complete.
            return writer.finish();
        }
    }
}
