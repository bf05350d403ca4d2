//! Durable job journal: an append-only, CRC-framed NDJSON log per job,
//! replayed on startup for crash recovery (DESIGN.md §12).
//!
//! Every accepted job gets one file per *segment* (`job-<id>-s<seg>.ndjson`)
//! holding, in order:
//!
//! 1. a **submission record** — `{"rec":"submit","id":…,"segment":…,
//!    "submission":{…}}` carrying the full resolved [`JobSubmission`]
//!    (algorithm spec filled in even when guidance picked it, idempotency
//!    key included) plus the assigned job id;
//! 2. the job's **event lines**, byte-for-byte the
//!    [`event_json`](crate::proto::event_json) NDJSON the server streams
//!    to subscribers (heartbeats are streamed-only and never journaled);
//! 3. a **terminal record** — `{"rec":"done","outcome":…,"report":…}`
//!    with the final report's exact serialization (spliced back out on
//!    replay, so a restarted server serves byte-identical reports).
//!
//! Each line is framed as `crc32hex8 SP json LF`. On replay, a segment is
//! read up to the first line whose CRC or JSON fails to check — a torn
//! tail (the half-written line of a crash mid-`write`) or mid-file
//! corruption silently truncates the segment rather than poisoning it.
//! A job whose chosen segment ends without a terminal record is
//! *unfinished*: the server re-admits it from the journaled submission
//! (every algorithm is bit-identical for a fixed (spec, seed), so the
//! re-run provably converges to the same report) and records the re-run
//! into the next segment number, leaving the truncated segment in place
//! as evidence. A job with a terminal record is served as finished —
//! status, report, and event replay all survive the restart.
//!
//! Durability is configurable via [`FsyncPolicy`]; write failures never
//! take the server down — they flip a shared degraded flag (surfaced as
//! `/healthz` `"status":"degraded"`) and the server continues in-memory,
//! exactly as it ran before journalling existed.

use crate::fault::FaultPlan;
use crate::json::Json;
use crate::proto::JobSubmission;
use rank_core::telemetry::{Counter, Histogram, MetricsRegistry};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Resolved journal telemetry handles: resolved once when the registry
/// is attached, so the append path pays only relaxed atomic ops, never
/// a registry lock.
#[derive(Debug)]
struct JournalMetrics {
    append_seconds: Arc<Histogram>,
    fsync_seconds: Arc<Histogram>,
    replay_seconds: Arc<Histogram>,
    degraded_total: Arc<Counter>,
}

impl JournalMetrics {
    fn resolve(registry: &MetricsRegistry) -> JournalMetrics {
        JournalMetrics {
            append_seconds: registry.histogram(
                "rawt_journal_append_seconds",
                "Wall time writing one framed journal record.",
                &[],
            ),
            fsync_seconds: registry.histogram(
                "rawt_journal_fsync_seconds",
                "Wall time of journal fdatasync calls.",
                &[],
            ),
            replay_seconds: registry.histogram(
                "rawt_journal_replay_seconds",
                "Wall time of startup journal replays.",
                &[],
            ),
            degraded_total: registry.counter(
                "rawt_journal_degraded_total",
                "Times the journal degraded to in-memory after a write or fsync failure.",
                &[],
            ),
        }
    }
}

/// When the journal calls fsync.
///
/// The journal is an *append-only redo log*: losing its tail can only
/// turn a finished job back into an unfinished one, which recovery then
/// re-runs to the same answer. That makes relaxed policies safe in a way
/// they would not be for a general database log — the trade is restart
/// work, not correctness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync after every record — maximal durability, one `fdatasync`
    /// per incumbent.
    Always,
    /// fsync at milestones only (the submission and terminal records):
    /// a crash can lose intermediate incumbents but never an accepted
    /// job or a completed report that the fsync returned for. The
    /// default.
    #[default]
    Milestones,
    /// Never fsync — leave flushing to the OS. Cheapest; a crash may
    /// lose recently finished work (it is re-run on restart).
    Never,
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Milestones => "milestones",
            FsyncPolicy::Never => "never",
        })
    }
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "always" => Ok(FsyncPolicy::Always),
            "milestones" => Ok(FsyncPolicy::Milestones),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!(
                "unknown fsync policy {other:?} (use always|milestones|never)"
            )),
        }
    }
}

/// CRC-32 (IEEE, the zlib polynomial) over the JSON payload of each
/// journal line — torn-tail detection, not cryptography.
fn crc32(bytes: &[u8]) -> u32 {
    const fn table() -> [u32; 256] {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    }
    static TABLE: [u32; 256] = table();
    let mut c = !0u32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Frame one JSON document as a journal line: `crc32hex8 SP json LF`.
/// Public so tests and benches can fabricate journals byte-exactly.
pub fn frame_line(json: &str) -> String {
    format!("{:08x} {json}\n", crc32(json.as_bytes()))
}

/// Unframe one journal line: verify the CRC and return the JSON payload.
/// `None` for anything torn, truncated, or corrupted.
fn unframe_line(line: &str) -> Option<&str> {
    let (crc_hex, json) = line.split_once(' ')?;
    if crc_hex.len() != 8 {
        return None;
    }
    let crc = u32::from_str_radix(crc_hex, 16).ok()?;
    (crc == crc32(json.as_bytes())).then_some(json)
}

/// The journal file for `id`'s segment `segment`.
fn segment_file_name(id: u64, segment: u32) -> String {
    format!("job-{id}-s{segment}.ndjson")
}

/// Parse a `job-<id>-s<seg>.ndjson` file name back to `(id, segment)`.
/// The strict `job-` prefix keeps the `dataset-…` family invisible here
/// (and vice versa) — the two replays never read each other's files.
/// Only the canonical spelling is accepted: eviction unlinks what replay read.
fn parse_file_name(name: &str) -> Option<(u64, u32)> {
    let rest = name.strip_prefix("job-")?.strip_suffix(".ndjson")?;
    let (id, seg) = rest.split_once("-s")?;
    let parsed = (id.parse().ok()?, seg.parse().ok()?);
    (segment_file_name(parsed.0, parsed.1) == name).then_some(parsed)
}

/// The journal file for a live dataset (DESIGN.md §13.5). One file per
/// dataset, not segmented: recovery rewrites it consolidated (the
/// current text at the current version), so it stays bounded by the
/// dataset size plus the edits since the last restart.
fn dataset_file_name(id: &str) -> String {
    format!("dataset-{id}.ndjson")
}

/// Parse a `dataset-<id>.ndjson` file name back to the dataset id.
fn parse_dataset_file_name(name: &str) -> Option<&str> {
    name.strip_prefix("dataset-")?.strip_suffix(".ndjson")
}

/// A journal directory: the factory for per-job writers and the replay
/// reader. Cloneable and cheap to share (the degraded flag and fault
/// plan are `Arc`s).
#[derive(Debug, Clone)]
pub struct Journal {
    dir: PathBuf,
    fsync: FsyncPolicy,
    faults: Arc<FaultPlan>,
    degraded: Arc<AtomicBool>,
    metrics: Option<Arc<JournalMetrics>>,
}

/// One job recovered from the journal on startup.
#[derive(Debug, Clone)]
pub struct RecoveredJob {
    /// The job id assigned before the restart (preserved across it).
    pub id: u64,
    /// The segment the recovery was read from; a re-run writes
    /// `segment + 1`.
    pub segment: u32,
    /// Every segment file named for this job, usable or not — what
    /// eviction must unlink.
    pub segments: Vec<u32>,
    /// The resolved submission as journaled (spec, seed, budget,
    /// normalization, idempotency key).
    pub submission: JobSubmission,
    /// The replayable event lines recorded before the crash.
    pub events: Vec<String>,
    /// The terminal record, when the job completed before the restart;
    /// `None` means the job was interrupted and must be re-run.
    pub finished: Option<FinishedJob>,
}

/// The terminal record of a recovered finished job.
#[derive(Debug, Clone)]
pub struct FinishedJob {
    /// The outcome's display form (`optimal`, `heuristic`, …).
    pub outcome: String,
    /// The final report, byte-for-byte as originally serialized
    /// (`None` for jobs that failed without one).
    pub report_json: Option<String>,
}

/// One live dataset recovered from its journal file on startup.
#[derive(Debug, Clone)]
pub struct RecoveredDataset {
    /// The dataset id (the `{id}` of `PUT /v1/datasets/{id}`).
    pub id: String,
    /// The dataset text as of the creation record.
    pub dataset: String,
    /// The creation record's version (1 for a fresh PUT; the
    /// consolidated version after a recovery rewrite).
    pub version: u64,
    /// Valid edit records after the creation record, in order:
    /// `(version_after_edit, op_json)`.
    pub edits: Vec<(u64, String)>,
}

/// Everything a startup replay learned, plus counters for observability
/// (the bench's recovery section reports replay throughput from
/// `lines_read`).
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Recovered jobs in ascending id order (the deterministic
    /// re-admission order).
    pub jobs: Vec<RecoveredJob>,
    /// Total journal lines read (valid or not) across all segments.
    pub lines_read: usize,
    /// Lines dropped by CRC/JSON validation (torn tails, corruption).
    pub dropped_lines: usize,
    /// Segment files that yielded no usable submission record (empty,
    /// fully corrupt, or foreign files matching the name pattern).
    pub corrupt_files: usize,
}

impl Journal {
    /// Open (creating if needed) a journal directory with the given
    /// fsync policy, no fault hooks, and a fresh degraded flag.
    pub fn open(dir: impl Into<PathBuf>, fsync: FsyncPolicy) -> io::Result<Journal> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Journal {
            dir,
            fsync,
            faults: Arc::new(FaultPlan::none()),
            degraded: Arc::new(AtomicBool::new(false)),
            metrics: None,
        })
    }

    /// Attach a fault plan (testing; see [`FaultPlan`]).
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Journal {
        self.faults = faults;
        self
    }

    /// Attach a metrics registry: append/fsync/replay latencies and the
    /// degraded-transition counter land in it (DESIGN.md §15).
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Journal {
        self.metrics = Some(Arc::new(JournalMetrics::resolve(registry)));
        self
    }

    /// Share an external degraded flag (the server surfaces it via
    /// `/healthz`).
    pub fn with_degraded_flag(mut self, flag: Arc<AtomicBool>) -> Journal {
        self.degraded = flag;
        self
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether a write or fsync failure has degraded the journal (all
    /// writers are no-ops from then on; the server continues in-memory).
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// Start journalling one job: create its segment file and write the
    /// submission record. Returns `None` when the journal is degraded or
    /// the file cannot be created (which degrades it) — the job then
    /// runs unjournaled, exactly as before durability existed.
    pub fn begin_job(&self, id: u64, segment: u32, submission_json: &str) -> Option<JournalWriter> {
        if self.degraded() {
            return None;
        }
        let path = self.dir.join(segment_file_name(id, segment));
        let file = match OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
        {
            Ok(file) => file,
            Err(e) => {
                self.degrade(&format!("create {}: {e}", path.display()));
                return None;
            }
        };
        let mut writer = JournalWriter {
            file: Some(file),
            path,
            fsync: self.fsync,
            faults: Arc::clone(&self.faults),
            degraded: Arc::clone(&self.degraded),
            metrics: self.metrics.clone(),
        };
        let record =
            format!("{{\"rec\":\"submit\",\"id\":{id},\"segment\":{segment},\"submission\":{submission_json}}}");
        writer.append(&record, true);
        Some(writer)
    }

    /// Start journalling one live dataset: create (truncating) its
    /// `dataset-{id}.ndjson` file and write the creation record — the
    /// full dataset text at `version` — as a milestone. Called both on
    /// `PUT /v1/datasets/{id}` (version 1) and on recovery, where it
    /// consolidates the replayed text + edits back into one record so
    /// the file does not grow across restarts. `None` degrades exactly
    /// like [`Journal::begin_job`].
    pub fn begin_dataset(&self, id: &str, dataset: &str, version: u64) -> Option<JournalWriter> {
        if self.degraded() {
            return None;
        }
        let path = self.dir.join(dataset_file_name(id));
        let file = match OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
        {
            Ok(file) => file,
            Err(e) => {
                self.degrade(&format!("create {}: {e}", path.display()));
                return None;
            }
        };
        let mut writer = JournalWriter {
            file: Some(file),
            path,
            fsync: self.fsync,
            faults: Arc::clone(&self.faults),
            degraded: Arc::clone(&self.degraded),
            metrics: self.metrics.clone(),
        };
        let record = format!(
            "{{\"rec\":\"ds-create\",\"id\":\"{}\",\"version\":{version},\"dataset\":\"{}\"}}",
            crate::json::escape(id),
            crate::json::escape(dataset)
        );
        writer.append(&record, true);
        Some(writer)
    }

    /// Delete a live dataset's journal file (`DELETE /v1/datasets/{id}`).
    pub fn remove_dataset(&self, id: &str) {
        let _ = fs::remove_file(self.dir.join(dataset_file_name(id)));
    }

    /// Replay the `dataset-…` family: each file yields the created text,
    /// its base version, and the valid edit records after it (ascending
    /// id order). Torn tails truncate a file's edit suffix, never poison
    /// it — the dataset recovers at the last durably recorded version.
    pub fn replay_datasets(&self) -> io::Result<Vec<RecoveredDataset>> {
        let mut names: Vec<String> = fs::read_dir(&self.dir)?
            .flatten()
            .filter_map(|e| e.file_name().to_str().map(str::to_owned))
            .filter(|n| parse_dataset_file_name(n).is_some())
            .collect();
        names.sort();
        let mut recovered = Vec::new();
        for name in names {
            let Ok(content) = fs::read_to_string(self.dir.join(&name)) else {
                continue;
            };
            let id = parse_dataset_file_name(&name).expect("filtered above");
            if let Some(ds) = read_dataset_file(id, &content) {
                recovered.push(ds);
            }
        }
        Ok(recovered)
    }

    /// Delete the given segments of `id` by name (called when the server
    /// evicts a finished job past its retention bound, so the on-disk set
    /// stays as bounded as the in-memory table). No directory scan: the
    /// caller remembers the segments it wrote or replay saw for the job.
    pub fn remove_job(&self, id: u64, segments: &[u32]) {
        for &segment in segments {
            let _ = fs::remove_file(self.dir.join(segment_file_name(id, segment)));
        }
    }

    fn degrade(&self, why: &str) {
        if !self.degraded.swap(true, Ordering::SeqCst) {
            if let Some(metrics) = &self.metrics {
                metrics.degraded_total.inc();
            }
            eprintln!("rawt: journal degraded ({why}); continuing in-memory");
        }
    }

    /// Replay the directory: group segments by job id, pick each job's
    /// highest segment holding a valid submission record, and read it up
    /// to the first torn or corrupt line. Never panics on corruption —
    /// bad lines and unusable files are counted, not fatal. Only a
    /// directory-level I/O failure (unreadable dir) is an error.
    pub fn replay(&self) -> io::Result<Replay> {
        let replay_start = Instant::now();
        let mut replay = Replay::default();
        // Best segment per job id: (segment, submission, events, finished).
        let mut best: std::collections::HashMap<u64, RecoveredJob> =
            std::collections::HashMap::new();
        // Every segment named per job id, usable or not.
        let mut seen: std::collections::HashMap<u64, Vec<u32>> = std::collections::HashMap::new();
        let mut names: Vec<String> = fs::read_dir(&self.dir)?
            .flatten()
            .filter_map(|e| e.file_name().to_str().map(str::to_owned))
            .filter(|n| parse_file_name(n).is_some())
            .collect();
        // Deterministic scan order (read_dir order is filesystem-defined).
        names.sort();
        for name in names {
            let (id, segment) = parse_file_name(&name).expect("filtered above");
            seen.entry(id).or_default().push(segment);
            let content = match fs::read_to_string(self.dir.join(&name)) {
                Ok(content) => content,
                Err(_) => {
                    replay.corrupt_files += 1;
                    continue;
                }
            };
            match read_segment(id, segment, &content, &mut replay) {
                Some(job) => {
                    let replace = best
                        .get(&job.id)
                        .is_none_or(|current| job.segment > current.segment);
                    if replace {
                        best.insert(job.id, job);
                    }
                }
                None => replay.corrupt_files += 1,
            }
        }
        replay.jobs = best.into_values().collect();
        replay.jobs.sort_by_key(|j| j.id);
        for job in &mut replay.jobs {
            job.segments = seen.remove(&job.id).unwrap_or_default();
        }
        if let Some(metrics) = &self.metrics {
            metrics.replay_seconds.record(replay_start.elapsed());
        }
        Ok(replay)
    }
}

/// Parse the text of segment `segment` of job `id`. `None` when no valid
/// submission record for that id and segment leads the file (empty,
/// torn-before-submit, garbage, or a file renamed from another job).
fn read_segment(id: u64, segment: u32, content: &str, replay: &mut Replay) -> Option<RecoveredJob> {
    let mut job: Option<RecoveredJob> = None;
    let mut lines = content.split('\n').filter(|l| !l.is_empty());
    while let Some(line) = lines.next() {
        replay.lines_read += 1;
        // Torn or corrupt line: drop it and everything after it — the
        // suffix of an append-only log is untrustworthy past the first
        // bad frame.
        let doc = match unframe_line(line).and_then(|json| Json::parse(json).ok()) {
            Some(doc) => doc,
            None => {
                replay.dropped_lines += 1 + lines.count();
                break;
            }
        };
        let json = unframe_line(line).expect("validated above");
        let rec = doc.get("rec").and_then(Json::as_str);
        match job.as_mut() {
            None => {
                // The first valid line must be the submission record.
                if rec != Some("submit") {
                    return None;
                }
                if doc.get("id").and_then(Json::as_u64) != Some(id)
                    || doc.get("segment").and_then(Json::as_u64) != Some(u64::from(segment))
                {
                    return None;
                }
                let submission = doc
                    .get("submission")
                    .and_then(|s| JobSubmission::from_json(&s.to_string()).ok())?;
                job = Some(RecoveredJob {
                    id,
                    segment,
                    segments: Vec::new(),
                    submission,
                    events: Vec::new(),
                    finished: None,
                });
            }
            Some(current) => match rec {
                Some("done") => {
                    let outcome = doc
                        .get("outcome")
                        .and_then(Json::as_str)
                        .unwrap_or("failed")
                        .to_owned();
                    // Splice the report out of the *raw* record so a
                    // restarted server serves the exact original bytes
                    // (re-serializing the parsed tree would reorder keys
                    // and reformat floats).
                    let report_json = match doc.get("report") {
                        Some(r) if !r.is_null() => json
                            .find(",\"report\":")
                            .map(|i| json[i + ",\"report\":".len()..json.len() - 1].to_owned()),
                        _ => None,
                    };
                    current.finished = Some(FinishedJob {
                        outcome,
                        report_json,
                    });
                    // The terminal record is the last one the writer
                    // emits; anything after it is ignored.
                    break;
                }
                None if doc.get("event").is_some() => {
                    current.events.push(json.to_owned());
                }
                // Unknown record type from a future version: skip it.
                _ => {}
            },
        }
    }
    job
}

/// Parse one `dataset-…` file. `None` when no valid `ds-create` record
/// (for this id) leads the file.
fn read_dataset_file(id: &str, content: &str) -> Option<RecoveredDataset> {
    let mut ds: Option<RecoveredDataset> = None;
    for line in content.split('\n').filter(|l| !l.is_empty()) {
        // Same torn-tail rule as job segments: stop at the first bad
        // frame — everything after it is untrustworthy.
        let Some(json) = unframe_line(line) else {
            break;
        };
        let Ok(doc) = Json::parse(json) else { break };
        let rec = doc.get("rec").and_then(Json::as_str);
        match ds.as_mut() {
            None => {
                if rec != Some("ds-create") || doc.get("id").and_then(Json::as_str) != Some(id) {
                    return None;
                }
                ds = Some(RecoveredDataset {
                    id: id.to_owned(),
                    dataset: doc.get("dataset").and_then(Json::as_str)?.to_owned(),
                    version: doc.get("version").and_then(Json::as_u64).unwrap_or(1),
                    edits: Vec::new(),
                });
            }
            Some(current) => {
                if rec == Some("ds-edit") && doc.get("op").is_some() {
                    if let (Some(version), Some(op)) =
                        (doc.get("version").and_then(Json::as_u64), raw_edit_op(json))
                    {
                        current.edits.push((version, op.to_owned()));
                    }
                }
                // Unknown record type from a future version: skip it.
            }
        }
    }
    ds
}

/// The verbatim `"op"` payload of a `ds-edit` record, sliced out of the
/// raw line instead of re-serialized from the parsed document — parsing
/// would reorder object keys, and replay must hand back the exact bytes
/// the client journaled. Relies on the fixed record layout
/// [`JournalWriter::append_dataset_edit`] writes: the first `"op":` is
/// the record's own key and the record's closing brace is the last byte.
fn raw_edit_op(json: &str) -> Option<&str> {
    let start = json.find("\"op\":")? + "\"op\":".len();
    let end = json.len().checked_sub(1)?;
    json.get(start..end)
}

/// The append side of one job's journal segment. Held in the job's
/// record: a one-shot job's listener appends its events on the kernel's
/// thread and its completion closes the segment; a follow job's loop does
/// both. Every method is infallible by design — an I/O or
/// fsync failure degrades the whole journal (shared flag) and turns this
/// writer into a no-op, never an error the job could trip over.
#[derive(Debug)]
pub struct JournalWriter {
    file: Option<File>,
    path: PathBuf,
    fsync: FsyncPolicy,
    faults: Arc<FaultPlan>,
    degraded: Arc<AtomicBool>,
    metrics: Option<Arc<JournalMetrics>>,
}

impl JournalWriter {
    /// Append one event line (the exact `event_json` NDJSON the server
    /// streams; no heartbeats).
    pub fn append_event(&mut self, line: &str) {
        self.append(line, false);
    }

    /// Append one dataset edit record (milestone — an accepted edit must
    /// survive a crash, or the dataset silently reverts on restart).
    /// `op_json` is the applied op exactly as submitted, e.g.
    /// `{"op":"add","ranking":"[{A},{B}]"}`; `version` is the dataset
    /// version *after* the edit.
    pub fn append_dataset_edit(&mut self, op_json: &str, version: u64) {
        let record = format!("{{\"rec\":\"ds-edit\",\"version\":{version},\"op\":{op_json}}}");
        self.append(&record, true);
    }

    /// Append the terminal record and close the segment. `report_json`
    /// is spliced in verbatim so replay can serve the original bytes.
    pub fn finish(&mut self, outcome: &str, report_json: Option<&str>) {
        let report = report_json.unwrap_or("null");
        let record = format!(
            "{{\"rec\":\"done\",\"outcome\":\"{}\",\"report\":{report}}}",
            crate::json::escape(outcome)
        );
        if self.faults.torn_terminal {
            // Fault hook: crash mid-write — half the framed bytes land,
            // no fsync, and the writer is dead. Replay must treat the
            // torn line as absent and re-run the job.
            if let Some(file) = self.file.take() {
                let framed = frame_line(&record);
                let half = &framed.as_bytes()[..framed.len() / 2];
                let mut file = file;
                let _ = file.write_all(half);
                let _ = file.flush();
            }
            return;
        }
        self.append(&record, true);
        self.file = None;
    }

    /// The segment file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn append(&mut self, json: &str, milestone: bool) {
        if self.degraded.load(Ordering::SeqCst) {
            self.file = None;
        }
        let Some(file) = self.file.as_mut() else {
            return;
        };
        let write_start = Instant::now();
        if let Err(e) = file.write_all(frame_line(json).as_bytes()) {
            self.fail(&format!("write: {e}"));
            return;
        }
        if let Some(metrics) = &self.metrics {
            metrics.append_seconds.record(write_start.elapsed());
        }
        let should_sync = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::Milestones => milestone,
            FsyncPolicy::Never => false,
        };
        if should_sync {
            if self.faults.fsync_error {
                self.fail("fsync: injected fault");
                return;
            }
            let sync_start = Instant::now();
            if let Err(e) = file.sync_data() {
                self.fail(&format!("fsync: {e}"));
                return;
            }
            if let Some(metrics) = &self.metrics {
                metrics.fsync_seconds.record(sync_start.elapsed());
            }
        }
    }

    fn fail(&mut self, why: &str) {
        self.file = None;
        if !self.degraded.swap(true, Ordering::SeqCst) {
            if let Some(metrics) = &self.metrics {
                metrics.degraded_total.inc();
            }
            eprintln!(
                "rawt: journal degraded ({why} on {}); continuing in-memory",
                self.path.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rawt-journal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc_framing_roundtrips_and_rejects_flips() {
        let json = r#"{"event":"incumbent","score":7}"#;
        let framed = frame_line(json);
        assert_eq!(unframe_line(framed.trim_end()), Some(json));
        let flipped = framed.trim_end().replace("score\":7", "score\":8");
        assert_eq!(unframe_line(&flipped), None, "payload flip must fail CRC");
        assert_eq!(unframe_line("not a journal line"), None);
        assert_eq!(unframe_line(""), None);
    }

    #[test]
    fn writes_then_replays_one_finished_job() {
        let dir = temp_dir("roundtrip");
        let journal = Journal::open(&dir, FsyncPolicy::Always).unwrap();
        let sub = JobSubmission {
            algo: Some("Borda".into()),
            idempotency_key: Some("key-1".into()),
            ..JobSubmission::new("[{A},{B}]")
        };
        let mut w = journal.begin_job(7, 0, &sub.to_json()).unwrap();
        w.append_event(r#"{"event":"started","spec":"Borda","seed":42}"#);
        w.append_event(r#"{"event":"incumbent","score":3,"gap":null,"elapsed_secs":0.001000}"#);
        w.finish("heuristic", Some(r#"{"score":3,"elapsed_secs":0.100000}"#));
        let replay = journal.replay().unwrap();
        assert_eq!(replay.jobs.len(), 1);
        assert_eq!(replay.dropped_lines, 0);
        let job = &replay.jobs[0];
        assert_eq!((job.id, job.segment), (7, 0));
        assert_eq!(job.submission, sub);
        assert_eq!(job.events.len(), 2);
        let fin = job.finished.as_ref().expect("terminal record");
        assert_eq!(fin.outcome, "heuristic");
        // Byte-exact splice, float formatting preserved.
        assert_eq!(
            fin.report_json.as_deref(),
            Some(r#"{"score":3,"elapsed_secs":0.100000}"#)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_turns_a_finished_job_back_into_an_unfinished_one() {
        let dir = temp_dir("torn");
        let faults = Arc::new(FaultPlan::none().with_torn_terminal());
        let journal = Journal::open(&dir, FsyncPolicy::Never)
            .unwrap()
            .with_faults(faults);
        let sub = JobSubmission::new("[{A},{B}]");
        let mut w = journal.begin_job(0, 0, &sub.to_json()).unwrap();
        w.append_event(r#"{"event":"started","spec":"Borda","seed":42}"#);
        w.finish("heuristic", Some(r#"{"score":3}"#));
        // A torn write is a crash, not an I/O error: not degraded.
        assert!(!journal.degraded());
        let replay = Journal::open(&dir, FsyncPolicy::Never)
            .unwrap()
            .replay()
            .unwrap();
        assert_eq!(replay.jobs.len(), 1);
        assert!(replay.jobs[0].finished.is_none(), "torn terminal dropped");
        assert_eq!(replay.jobs[0].events.len(), 1);
        assert_eq!(replay.dropped_lines, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_fault_degrades_instead_of_erroring() {
        let dir = temp_dir("fsync");
        let faults = Arc::new(FaultPlan::none().with_fsync_error());
        let journal = Journal::open(&dir, FsyncPolicy::Always)
            .unwrap()
            .with_faults(faults);
        let sub = JobSubmission::new("[{A},{B}]");
        // The submission record is a milestone: its fsync fails, the
        // journal degrades, and later begin_job calls return None.
        let w = journal.begin_job(0, 0, &sub.to_json());
        assert!(w.is_some(), "the writer itself is created before the sync");
        assert!(journal.degraded());
        assert!(journal.begin_job(1, 0, &sub.to_json()).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn highest_valid_segment_wins() {
        let dir = temp_dir("segments");
        let journal = Journal::open(&dir, FsyncPolicy::Never).unwrap();
        let sub = JobSubmission::new("[{A},{B}]");
        // s0: interrupted (no terminal). s1: the re-run, finished.
        let mut w0 = journal.begin_job(3, 0, &sub.to_json()).unwrap();
        w0.append_event(r#"{"event":"started","spec":"Borda","seed":42}"#);
        drop(w0);
        let mut w1 = journal.begin_job(3, 1, &sub.to_json()).unwrap();
        w1.append_event(r#"{"event":"started","spec":"Borda","seed":42}"#);
        w1.finish("heuristic", Some(r#"{"score":3}"#));
        // s2: unusable, but still named for job 3.
        fs::write(dir.join(segment_file_name(3, 2)), "garbage\n").unwrap();
        let replay = journal.replay().unwrap();
        assert_eq!(replay.jobs.len(), 1);
        assert_eq!(replay.jobs[0].segment, 1);
        assert_eq!(replay.jobs[0].segments, vec![0, 1, 2]);
        assert!(replay.jobs[0].finished.is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dataset_family_roundtrips_and_is_invisible_to_job_replay() {
        let dir = temp_dir("datasets");
        let journal = Journal::open(&dir, FsyncPolicy::Never).unwrap();
        let mut w = journal
            .begin_dataset("live-1", "[{A},{B}]\n[{B},{A}]", 1)
            .unwrap();
        w.append_dataset_edit(r#"{"op":"add","ranking":"[{B},{A}]"}"#, 2);
        w.append_dataset_edit(r#"{"op":"remove","index":0}"#, 3);
        drop(w);
        // Job replay must not see dataset files (and vice versa).
        assert!(journal.replay().unwrap().jobs.is_empty());
        let recovered = journal.replay_datasets().unwrap();
        assert_eq!(recovered.len(), 1);
        let ds = &recovered[0];
        assert_eq!(ds.id, "live-1");
        assert_eq!(ds.dataset, "[{A},{B}]\n[{B},{A}]");
        assert_eq!(ds.version, 1);
        assert_eq!(
            ds.edits,
            vec![
                (2, r#"{"op":"add","ranking":"[{B},{A}]"}"#.to_owned()),
                (3, r#"{"op":"remove","index":0}"#.to_owned()),
            ]
        );
        // Consolidation: a recovery rewrite truncates back to one record.
        drop(journal.begin_dataset("live-1", "[{B},{A}]", 3).unwrap());
        let recovered = journal.replay_datasets().unwrap();
        assert_eq!(recovered[0].version, 3);
        assert_eq!(recovered[0].dataset, "[{B},{A}]");
        assert!(recovered[0].edits.is_empty());
        journal.remove_dataset("live-1");
        assert!(journal.replay_datasets().unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_dataset_edit_recovers_at_the_previous_version() {
        let dir = temp_dir("ds-torn");
        let journal = Journal::open(&dir, FsyncPolicy::Never).unwrap();
        let mut w = journal.begin_dataset("d", "[{A},{B}]", 1).unwrap();
        w.append_dataset_edit(r#"{"op":"add","ranking":"[{B},{A}]"}"#, 2);
        drop(w);
        // Tear the last line in half, as a crash mid-append would.
        let path = dir.join("dataset-d.ndjson");
        let content = fs::read_to_string(&path).unwrap();
        let keep = content.len() - 10;
        fs::write(&path, &content[..keep]).unwrap();
        let recovered = journal.replay_datasets().unwrap();
        assert_eq!(recovered.len(), 1);
        assert!(recovered[0].edits.is_empty(), "torn edit dropped");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_job_deletes_every_segment() {
        let dir = temp_dir("remove");
        let journal = Journal::open(&dir, FsyncPolicy::Never).unwrap();
        let sub = JobSubmission::new("[{A},{B}]");
        drop(journal.begin_job(5, 0, &sub.to_json()).unwrap());
        drop(journal.begin_job(5, 1, &sub.to_json()).unwrap());
        drop(journal.begin_job(6, 0, &sub.to_json()).unwrap());
        journal.remove_job(5, &[0, 1]);
        let replay = journal.replay().unwrap();
        assert_eq!(replay.jobs.len(), 1);
        assert_eq!(replay.jobs[0].id, 6);
        let _ = fs::remove_dir_all(&dir);
    }
}
