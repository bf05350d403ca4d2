//! The service protocol: the JSON shapes shared by the HTTP server, the
//! remote client, and the CLI's local `--json` output.
//!
//! One serializer per shape, used by every front end, so `rawt list
//! --json` and `GET /v1/algorithms` can never drift apart, and a remote
//! `rawt aggregate` renders bit-identically to the local path (the
//! service-api test pins that).
//!
//! * [`registry_json`] — the algorithm registry dump;
//! * [`report_json`] / [`ranking_json`] — a [`ConsensusReport`] with its
//!   ranking denormalized back to input labels, trace included;
//! * [`event_json`] — one NDJSON line per anytime [`Event`];
//! * [`JobSubmission`] — the `POST /v1/jobs` body, parsed and validated
//!   ([`JobSubmission::from_json`]) with typed, suggestion-carrying
//!   errors (HTTP 400 material, never a panicking thread);
//! * [`prepare_submission`], [`resolve_spec`], [`build_session`],
//!   [`DatasetOp`], [`apply_op`] — the preparation the server and the
//!   CLI's local runs share.

use crate::json::{escape, Json};
use rank_core::engine::{
    registry, AlgoSpec, ConsensusReport, Event, Normalization, Outcome, TracePoint,
};
use rank_core::guidance::{recommend, DatasetFeatures, Priority};
use rank_core::normalize::Normalized;
use rank_core::parse::{parse_dataset_lines, parse_ranking_against};
use rank_core::session::{make_mut_counted, DatasetSession};
use rank_core::{Dataset, Element, Ranking, Universe};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// The algorithm registry as a JSON array — the single serializer behind
/// both `GET /v1/algorithms` and `rawt list --json`.
pub fn registry_json() -> String {
    let mut out = String::from("[");
    for (i, entry) in registry().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let example = (entry.example)();
        let aliases: Vec<String> = entry
            .aliases
            .iter()
            .map(|a| format!("\"{}\"", escape(a)))
            .collect();
        let _ = write!(
            out,
            concat!(
                "{{\"name\":\"{}\",\"class\":\"{}\",\"produces_ties\":{},",
                "\"summary\":\"{}\",\"example\":\"{}\",\"paper_name\":\"{}\",",
                "\"aliases\":[{}]}}"
            ),
            escape(entry.canonical),
            escape(entry.class),
            example.produces_ties(),
            escape(entry.summary),
            escape(&example.to_string()),
            escape(&example.paper_name()),
            aliases.join(",")
        );
    }
    out.push(']');
    out
}

/// A (denormalized) ranking as nested label arrays: `[["A"],["B","C"]]`.
pub fn ranking_json(r: &Ranking, universe: &Universe) -> String {
    let buckets: Vec<String> = r
        .buckets()
        .map(|b| {
            let labels: Vec<String> = b
                .iter()
                .map(|&e| format!("\"{}\"", escape(universe.name(e))))
                .collect();
            format!("[{}]", labels.join(","))
        })
        .collect();
    format!("[{}]", buckets.join(","))
}

/// A ranking over dense ids as nested label arrays: `mapping[i]` is dense
/// id `i`'s element in `universe` (a normalization's mapping); with `None`
/// the dense ids are `universe`'s own.
pub fn dense_ranking_json(r: &Ranking, mapping: Option<&[Element]>, universe: &Universe) -> String {
    match mapping {
        Some(mapping) => ranking_json(
            &r.map_elements(|e| mapping[e.index()])
                .expect("mapping is injective"),
            universe,
        ),
        None => ranking_json(r, universe),
    }
}

/// One incumbent [`TracePoint`] as a JSON object — used by the final
/// report's trace and the live trace of the server's job-status document,
/// so the two can never drift apart. `lower_bound` is the certified
/// bound known at that moment (`null` until a bounding solver proves
/// one); `score − lower_bound` is a true optimality gap.
pub fn trace_point_json(p: &TracePoint) -> String {
    let lb = p.lower_bound.map_or("null".to_owned(), |lb| lb.to_string());
    format!(
        "{{\"elapsed_secs\":{:.6},\"score\":{},\"lower_bound\":{lb}}}",
        p.elapsed.as_secs_f64(),
        p.score
    )
}

/// One [`ConsensusReport`] as a JSON object (outcome + incumbent trace +
/// phase breakdown included), with the ranking denormalized back to
/// input labels by `norm`'s mapping. This is the exact shape `rawt
/// aggregate --json` has emitted since the anytime PR; the server's job
/// reports reuse it verbatim.
///
/// The `phases` object is serialized *last* so its `serialize_secs` can
/// be the measured wall-clock of serializing everything before it — the
/// report struct itself carries zero there (serialization hasn't
/// happened yet when the engine builds the report). The journal splices
/// these bytes verbatim on replay, so journaled and re-served reports
/// keep their phase breakdown with no re-measurement.
pub fn report_json(report: &ConsensusReport, norm: &Normalized, universe: &Universe) -> String {
    dense_report_json(report, Some(&norm.mapping), universe)
}

/// [`report_json`] for a ranking over dense ids, denormalized through
/// `mapping` (see [`dense_ranking_json`]).
pub fn dense_report_json(
    report: &ConsensusReport,
    mapping: Option<&[Element]>,
    universe: &Universe,
) -> String {
    let serialize_start = std::time::Instant::now();
    let gap = report.gap.map_or("null".to_owned(), |g| format!("{g:.6}"));
    let lower_bound = report
        .lower_bound
        .map_or("null".to_owned(), |lb| lb.to_string());
    let trace: Vec<String> = report.trace.iter().map(trace_point_json).collect();
    let mut out = format!(
        concat!(
            "{{\"algorithm\":\"{}\",\"spec\":\"{}\",\"seed\":{},",
            "\"score\":{},\"gap\":{},\"lower_bound\":{},\"outcome\":\"{}\",",
            "\"lane\":\"{}\",",
            "\"elapsed_secs\":{:.6},\"ranking\":{},\"trace\":[{}],"
        ),
        escape(&report.algorithm()),
        escape(&report.spec.to_string()),
        report.seed,
        report.score,
        gap,
        lower_bound,
        report.outcome,
        report.lane.as_str(),
        report.elapsed.as_secs_f64(),
        dense_ranking_json(&report.ranking, mapping, universe),
        trace.join(",")
    );
    let phases = &report.phases;
    let serialize = if phases.serialize.is_zero() {
        serialize_start.elapsed()
    } else {
        phases.serialize
    };
    let _ = write!(
        out,
        concat!(
            "\"phases\":{{\"queue_wait_secs\":{:.6},\"matrix_build_secs\":{:.6},",
            "\"matrix_cached\":{},\"solve_secs\":{:.6},\"serialize_secs\":{:.6}}}}}"
        ),
        phases.queue_wait.as_secs_f64(),
        phases.matrix_build.as_secs_f64(),
        phases.matrix_cached,
        phases.solve.as_secs_f64(),
        serialize.as_secs_f64()
    );
    out
}

/// The fields a served event line carries after its own, naming the
/// stream it was published on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventTag<'a> {
    /// No extra fields: a one-shot job's own stream.
    None,
    /// `"dataset_version":V` — every line of a follow job's round names
    /// the dataset version the round solved.
    DatasetVersion(u64),
    /// `"spec":"…","job":N` — each line of a batch's merged stream names
    /// the sub-job it came from.
    Batch {
        /// The sub-job's spec, as displayed.
        spec: &'a str,
        /// The sub-job's id.
        job: u64,
    },
}

/// Close an event object whose own fields are already in `line`: append
/// the tag's fields, then the closing brace.
fn close_event(mut line: String, tag: EventTag) -> String {
    match tag {
        EventTag::None => {}
        EventTag::DatasetVersion(version) => {
            let _ = write!(line, ",\"dataset_version\":{version}");
        }
        EventTag::Batch { spec, job } => {
            let _ = write!(line, ",\"spec\":\"{}\",\"job\":{job}", escape(spec));
        }
    }
    line.push('}');
    line
}

/// One anytime [`Event`] as an NDJSON line (no trailing newline — the
/// chunked writer appends it). Incumbent scores strictly decrease and
/// `lower_bound` values strictly increase along a stream; every `gap`
/// field is the certified optimality gap `score − lower_bound`
/// (DESIGN.md §11.2), `null` until a bounding solver proves one.
pub fn event_json(event: &Event) -> String {
    tagged_event_json(event, EventTag::None)
}

/// [`event_json`] with the fields of `tag` after the event's own.
pub fn tagged_event_json(event: &Event, tag: EventTag) -> String {
    let line = match event {
        Event::Started { spec, seed } => {
            format!(
                "{{\"event\":\"started\",\"spec\":\"{}\",\"seed\":{seed}",
                escape(&spec.to_string())
            )
        }
        Event::Incumbent {
            score,
            gap,
            elapsed,
        } => {
            // `gap` is the certified optimality gap `score − lower_bound`
            // (integer cost units), null until a solver proves a bound.
            let gap = gap.map_or("null".to_owned(), |g| g.to_string());
            format!(
                "{{\"event\":\"incumbent\",\"score\":{score},\"gap\":{gap},\"elapsed_secs\":{:.6}",
                elapsed.as_secs_f64()
            )
        }
        Event::LowerBound {
            lower_bound,
            gap,
            elapsed,
        } => {
            let gap = gap.map_or("null".to_owned(), |g| g.to_string());
            format!(
                "{{\"event\":\"lower_bound\",\"lower_bound\":{lower_bound},\"gap\":{gap},\"elapsed_secs\":{:.6}",
                elapsed.as_secs_f64()
            )
        }
        Event::Finished(outcome) => {
            format!("{{\"event\":\"finished\",\"outcome\":\"{outcome}\"")
        }
    };
    close_event(line, tag)
}

/// The line that ends one round of a follow job in place of `finished`
/// (which subscribers read as end-of-stream): the round's outcome and
/// score.
pub fn resolved_json(outcome: &Outcome, score: u64, tag: EventTag) -> String {
    let line = format!(
        "{{\"event\":\"resolved\",\"outcome\":\"{}\",\"score\":{score}",
        escape(&outcome.to_string())
    );
    close_event(line, tag)
}

/// The terminal line of a job that could not finish: a crashed kernel,
/// or a follow job whose dataset outgrew its algorithm.
pub fn failed_json(error: &str, tag: EventTag) -> String {
    close_event(
        format!("{{\"event\":\"failed\",\"error\":\"{}\"", escape(error)),
        tag,
    )
}

/// An error-response body: `{"error":"...","suggestion":...}`.
pub fn error_json(message: &str, suggestion: Option<&str>) -> String {
    let suggestion = suggestion.map_or("null".to_owned(), |s| format!("\"{}\"", escape(s)));
    format!(
        "{{\"error\":\"{}\",\"suggestion\":{suggestion}}}",
        escape(message)
    )
}

/// Check that `id` is a legal live-dataset name: 1–64 characters from
/// `[A-Za-z0-9_-]`. The alphabet is deliberately filename-safe — each
/// dataset journals to `dataset-{id}.ndjson`, so the id must never be
/// able to traverse paths or collide with the `job-…` family. The error
/// is the server's 400 message; the server, the router and the
/// [`Client`](crate::client::Client) dataset methods all answer with it.
pub fn check_dataset_id(id: &str) -> Result<(), String> {
    let valid = !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-');
    if valid {
        Ok(())
    } else {
        Err(format!(
            "bad dataset id {id:?} (1-64 characters from [A-Za-z0-9_-])"
        ))
    }
}

/// A validated `POST /v1/jobs` body.
///
/// The dataset travels as the repo's text format (one `[{A},{B,C}]`
/// ranking per line, `#` comments allowed) — the same bytes a dataset
/// file holds, so `rawt aggregate --remote FILE` is a straight
/// read-and-post.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSubmission {
    /// Dataset text (see above). Empty when [`JobSubmission::dataset_id`]
    /// names a live dataset instead.
    pub dataset: String,
    /// Name of a live dataset (`PUT /v1/datasets/{id}`) to aggregate
    /// instead of inline text. Mutually exclusive with `dataset`.
    pub dataset_id: Option<String>,
    /// Live mode (DESIGN.md §13.4): after finishing, the job re-solves
    /// whenever its dataset is edited, warm-started from its own previous
    /// consensus, re-emitting version-tagged events until cancelled.
    /// Requires `dataset_id`.
    pub follow: bool,
    /// Algorithm spec string; `None` lets the server's §7.4 guidance pick.
    pub algo: Option<String>,
    /// RNG seed (default 42, matching the CLI).
    pub seed: u64,
    /// Wall-clock budget; also the scheduler's ordering key.
    pub budget: Option<Duration>,
    /// Normalization policy (default unification, §5.1).
    pub normalize: Normalization,
    /// Client-supplied idempotency key: two `POST /v1/jobs` carrying the
    /// same key address the same job — the second returns the first's
    /// identity instead of creating a duplicate. The key survives in the
    /// job's journal record, so a retry after a server crash+restart
    /// still deduplicates (DESIGN.md §12.4).
    pub idempotency_key: Option<String>,
}

/// Rejection of a submission body, with an optional "did you mean"-style
/// suggestion (the server sends both as a 400 [`error_json`] body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmissionError {
    /// What was wrong.
    pub message: String,
    /// A close valid alternative, when one exists.
    pub suggestion: Option<String>,
}

impl SubmissionError {
    /// A rejection with no suggestion attached.
    pub fn new(message: impl Into<String>) -> Self {
        SubmissionError {
            message: message.into(),
            suggestion: None,
        }
    }
}

impl std::fmt::Display for SubmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)?;
        if let Some(s) = &self.suggestion {
            write!(f, " (did you mean {s:?}?)")?;
        }
        Ok(())
    }
}

/// Parse a request body that must be a JSON object.
fn parse_object(body: &str) -> Result<Json, SubmissionError> {
    let doc = Json::parse(body).map_err(|e| SubmissionError::new(format!("request body: {e}")))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(SubmissionError::new("request body must be a JSON object"));
    }
    Ok(doc)
}

/// The run options job and batch bodies share (seed, budget,
/// normalization, idempotency key), parsed and emitted in one place so
/// the two wire shapes cannot drift.
struct SharedFields {
    seed: u64,
    budget: Option<Duration>,
    normalize: Normalization,
    idempotency_key: Option<String>,
}

impl SharedFields {
    fn parse(doc: &Json) -> Result<SharedFields, SubmissionError> {
        let seed = match doc.get("seed") {
            None => 42,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| SubmissionError::new("\"seed\" must be a non-negative integer"))?,
        };
        let budget = match doc.get("budget_secs").filter(|v| !v.is_null()) {
            None => None,
            Some(v) => {
                let secs = v
                    .as_f64()
                    .ok_or_else(|| SubmissionError::new("\"budget_secs\" must be a number"))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(SubmissionError::new(format!(
                        "\"budget_secs\" must be positive, got {secs}"
                    )));
                }
                // try_from: an absurdly large value must be a 400, not a
                // Duration-overflow panic in the connection thread.
                Some(Duration::try_from_secs_f64(secs).map_err(|_| {
                    SubmissionError::new(format!("\"budget_secs\" {secs} is out of range"))
                })?)
            }
        };
        let normalize = match doc.get("normalize") {
            None => Normalization::Unification,
            Some(v) => {
                let text = v
                    .as_str()
                    .ok_or_else(|| SubmissionError::new("\"normalize\" must be a string"))?;
                text.parse().map_err(|e: String| SubmissionError {
                    message: e,
                    suggestion: None,
                })?
            }
        };
        let idempotency_key = match doc.get("idempotency_key").filter(|v| !v.is_null()) {
            None => None,
            Some(v) => {
                let key = v
                    .as_str()
                    .ok_or_else(|| SubmissionError::new("\"idempotency_key\" must be a string"))?;
                if key.is_empty() || key.len() > 256 {
                    return Err(SubmissionError::new(
                        "\"idempotency_key\" must be 1..=256 characters",
                    ));
                }
                Some(key.to_owned())
            }
        };
        Ok(SharedFields {
            seed,
            budget,
            normalize,
            idempotency_key,
        })
    }

    /// Append the shared fields to a body under construction and close
    /// its object.
    fn write(
        out: &mut String,
        seed: u64,
        budget: Option<Duration>,
        idempotency_key: Option<&str>,
        normalize: Normalization,
    ) {
        let _ = write!(out, ",\"seed\":{seed}");
        if let Some(budget) = budget {
            let _ = write!(out, ",\"budget_secs\":{}", budget.as_secs_f64());
        }
        if let Some(key) = idempotency_key {
            let _ = write!(out, ",\"idempotency_key\":\"{}\"", escape(key));
        }
        let _ = write!(out, ",\"normalize\":\"{normalize}\"}}");
    }
}

impl JobSubmission {
    /// A submission with the defaults the CLI uses (seed 42, no budget,
    /// unification, guidance-picked algorithm).
    pub fn new(dataset: impl Into<String>) -> Self {
        JobSubmission {
            dataset: dataset.into(),
            dataset_id: None,
            follow: false,
            algo: None,
            seed: 42,
            budget: None,
            normalize: Normalization::Unification,
            idempotency_key: None,
        }
    }

    /// A submission addressing a live dataset by id instead of carrying
    /// inline text (CLI defaults otherwise, like [`JobSubmission::new`]).
    pub fn for_dataset(id: impl Into<String>) -> Self {
        JobSubmission {
            dataset_id: Some(id.into()),
            ..JobSubmission::new("")
        }
    }

    /// Parse and validate a request body. Every rejection is typed: bad
    /// JSON, a missing/empty dataset, an unparseable budget (zero,
    /// negative, non-finite), or an unknown normalization. The algorithm
    /// spec itself is validated later against the registry (so its
    /// rejection carries the registry's own suggestion).
    pub fn from_json(body: &str) -> Result<JobSubmission, SubmissionError> {
        let doc = parse_object(body)?;
        let dataset_id = match doc.get("dataset_id").filter(|v| !v.is_null()) {
            None => None,
            Some(v) => {
                let id = v
                    .as_str()
                    .ok_or_else(|| SubmissionError::new("\"dataset_id\" must be a string"))?;
                if check_dataset_id(id).is_err() {
                    return Err(SubmissionError::new(format!(
                        "\"dataset_id\" {id:?} is invalid (1-64 characters from [A-Za-z0-9_-])"
                    )));
                }
                Some(id.to_owned())
            }
        };
        let dataset = match (doc.get("dataset").filter(|v| !v.is_null()), &dataset_id) {
            (Some(_), Some(_)) => {
                return Err(SubmissionError::new(
                    "provide either \"dataset\" or \"dataset_id\", not both",
                ));
            }
            (None, Some(_)) => String::new(),
            (None, None) => {
                return Err(SubmissionError::new(
                    "missing required field \"dataset\" (or \"dataset_id\")",
                ));
            }
            (Some(v), None) => {
                let text = v
                    .as_str()
                    .ok_or_else(|| SubmissionError::new("\"dataset\" must be a string"))?;
                if text.trim().is_empty() {
                    return Err(SubmissionError::new("\"dataset\" is empty"));
                }
                text.to_owned()
            }
        };
        let follow = match doc.get("follow").filter(|v| !v.is_null()) {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| SubmissionError::new("\"follow\" must be a boolean"))?,
        };
        if follow && dataset_id.is_none() {
            return Err(SubmissionError::new(
                "\"follow\":true requires \"dataset_id\" (only live datasets can be followed)",
            ));
        }
        let algo = match doc.get("algo").filter(|v| !v.is_null()) {
            None => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| SubmissionError::new("\"algo\" must be a string"))?
                    .to_owned(),
            ),
        };
        let shared = SharedFields::parse(&doc)?;
        Ok(JobSubmission {
            dataset,
            dataset_id,
            follow,
            algo,
            seed: shared.seed,
            budget: shared.budget,
            normalize: shared.normalize,
            idempotency_key: shared.idempotency_key,
        })
    }

    /// Serialize for `POST /v1/jobs` (the client side).
    pub fn to_json(&self) -> String {
        let mut out = match &self.dataset_id {
            Some(id) => format!("{{\"dataset_id\":\"{}\"", escape(id)),
            None => format!("{{\"dataset\":\"{}\"", escape(&self.dataset)),
        };
        if self.follow {
            out.push_str(",\"follow\":true");
        }
        if let Some(algo) = &self.algo {
            let _ = write!(out, ",\"algo\":\"{}\"", escape(algo));
        }
        SharedFields::write(
            &mut out,
            self.seed,
            self.budget,
            self.idempotency_key.as_deref(),
            self.normalize,
        );
        out
    }
}

/// Upper bound on the `N` of a `Rawt-Shard: k/N` submission header, and
/// so on a router's worker count. Each id a worker mints then skips at
/// most this many, so the id space cannot be run out by a header.
pub const MAX_SHARDS: u64 = 4096;

/// Upper bound on the specs a single `POST /v1/batches` may carry. A
/// panel bigger than this should be split by the caller; the cap keeps
/// one batch from monopolizing the admission queue (default capacity
/// 128), since batches are admitted all-or-nothing.
pub const MAX_BATCH_SPECS: usize = 32;

/// A validated `POST /v1/batches` body: one dataset, a panel of specs.
///
/// The whole panel is admitted through the scheduler as one unit (all
/// sub-jobs or none) and every sub-job shares the dataset's single
/// `O(m·n²)` cost-matrix build through the engine cache — the service
/// counterpart of [`rank_core::engine::Engine::run_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSubmission {
    /// Dataset text, same wire format as [`JobSubmission::dataset`].
    pub dataset: String,
    /// Algorithm spec strings, one sub-job each (1..=[`MAX_BATCH_SPECS`]).
    pub specs: Vec<String>,
    /// RNG seed shared by the panel (per-run streams are decorrelated by
    /// spec name, as in the in-process engine).
    pub seed: u64,
    /// Wall-clock budget applied to each sub-job.
    pub budget: Option<Duration>,
    /// Normalization policy (default unification, §5.1).
    pub normalize: Normalization,
    /// Idempotency key for the batch as a whole, same contract as
    /// [`JobSubmission::idempotency_key`].
    pub idempotency_key: Option<String>,
}

impl BatchSubmission {
    /// A batch with the CLI defaults (seed 42, no budget, unification).
    pub fn new(dataset: impl Into<String>, specs: Vec<String>) -> Self {
        BatchSubmission {
            dataset: dataset.into(),
            specs,
            seed: 42,
            budget: None,
            normalize: Normalization::Unification,
            idempotency_key: None,
        }
    }

    /// Parse and validate a `POST /v1/batches` body; same rejection
    /// discipline as [`JobSubmission::from_json`].
    pub fn from_json(body: &str) -> Result<BatchSubmission, SubmissionError> {
        let doc = parse_object(body)?;
        let dataset = match doc.get("dataset").filter(|v| !v.is_null()) {
            None => {
                return Err(SubmissionError::new(
                    "missing required field \"dataset\" (batches carry inline text)",
                ));
            }
            Some(v) => {
                let text = v
                    .as_str()
                    .ok_or_else(|| SubmissionError::new("\"dataset\" must be a string"))?;
                if text.trim().is_empty() {
                    return Err(SubmissionError::new("\"dataset\" is empty"));
                }
                text.to_owned()
            }
        };
        let specs = match doc.get("specs").filter(|v| !v.is_null()) {
            None => {
                return Err(SubmissionError::new(
                    "missing required field \"specs\" (a non-empty array of algorithm names)",
                ));
            }
            Some(v) => {
                let items = v
                    .as_array()
                    .ok_or_else(|| SubmissionError::new("\"specs\" must be an array"))?;
                if items.is_empty() {
                    return Err(SubmissionError::new("\"specs\" is empty"));
                }
                if items.len() > MAX_BATCH_SPECS {
                    return Err(SubmissionError::new(format!(
                        "\"specs\" holds {} entries; a batch carries at most {MAX_BATCH_SPECS}",
                        items.len()
                    )));
                }
                items
                    .iter()
                    .map(|item| {
                        item.as_str().map(str::to_owned).ok_or_else(|| {
                            SubmissionError::new("\"specs\" entries must be strings")
                        })
                    })
                    .collect::<Result<Vec<String>, SubmissionError>>()?
            }
        };
        let shared = SharedFields::parse(&doc)?;
        Ok(BatchSubmission {
            dataset,
            specs,
            seed: shared.seed,
            budget: shared.budget,
            normalize: shared.normalize,
            idempotency_key: shared.idempotency_key,
        })
    }

    /// Serialize for `POST /v1/batches` (the client side).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"dataset\":\"{}\"", escape(&self.dataset));
        let specs: Vec<String> = self
            .specs
            .iter()
            .map(|s| format!("\"{}\"", escape(s)))
            .collect();
        let _ = write!(out, ",\"specs\":[{}]", specs.join(","));
        SharedFields::write(
            &mut out,
            self.seed,
            self.budget,
            self.idempotency_key.as_deref(),
            self.normalize,
        );
        out
    }
}

/// One structurally parsed `PATCH /v1/datasets/{id}` op, label text still
/// unresolved (labels are parsed against the dataset's universe under its
/// lock, at apply time). `rawt session` edits are these ops too.
#[derive(Debug)]
pub enum DatasetOp {
    /// Append a ranking.
    Add {
        /// The ranking's text, `[{A},{B,C}]`.
        ranking: String,
    },
    /// Drop the ranking at `index` (0-based).
    Remove {
        /// Which ranking.
        index: usize,
    },
    /// Swap the ranking at `index` for another.
    Replace {
        /// Which ranking.
        index: usize,
        /// The new ranking's text.
        ranking: String,
    },
}

impl DatasetOp {
    /// The canonical JSON of the op — what the journal records, and what
    /// recovery feeds back through [`DatasetOp::parse`].
    pub fn to_json(&self) -> String {
        match self {
            DatasetOp::Add { ranking } => {
                format!(
                    "{{\"op\":\"add\",\"ranking\":\"{}\"}}",
                    crate::json::escape(ranking)
                )
            }
            DatasetOp::Remove { index } => format!("{{\"op\":\"remove\",\"index\":{index}}}"),
            DatasetOp::Replace { index, ranking } => format!(
                "{{\"op\":\"replace\",\"index\":{index},\"ranking\":\"{}\"}}",
                crate::json::escape(ranking)
            ),
        }
    }

    /// Parse one op object. Structural errors only; ranking text is
    /// validated at apply time.
    pub fn parse(doc: &Json) -> Result<DatasetOp, String> {
        let kind = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or("each op needs an \"op\" field (add|remove|replace)")?;
        let index = || {
            doc.get("index")
                .and_then(Json::as_u64)
                .map(|i| i as usize)
                .ok_or_else(|| format!("op {kind:?} needs a non-negative \"index\""))
        };
        let ranking = || {
            doc.get("ranking")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("op {kind:?} needs a \"ranking\" string"))
        };
        match kind {
            "add" => Ok(DatasetOp::Add {
                ranking: ranking()?,
            }),
            "remove" => Ok(DatasetOp::Remove { index: index()? }),
            "replace" => Ok(DatasetOp::Replace {
                index: index()?,
                ranking: ranking()?,
            }),
            other => Err(format!("unknown op {other:?} (use add|remove|replace)")),
        }
    }
}

/// Apply one op to a dataset: parse any ranking text against the
/// universe without changing it, patch the session, and only then intern
/// the labels the ranking introduced — a refused op must not leak
/// half-interned labels. Interning copies the shared universe only while
/// a job still holds it; such copies are added to `universe_copies`.
/// Returns the new version.
pub fn apply_op(
    universe: &mut Arc<Universe>,
    session: &mut DatasetSession,
    op: &DatasetOp,
    universe_copies: &mut u64,
) -> Result<u64, String> {
    let parse =
        |text: &str| parse_ranking_against(text, universe).map_err(|e| format!("ranking: {e}"));
    let (version, fresh) = match op {
        DatasetOp::Add { ranking } => {
            let (r, fresh) = parse(ranking)?;
            (session.add_ranking(r), fresh)
        }
        DatasetOp::Remove { index } => (session.remove_ranking(*index), Vec::new()),
        DatasetOp::Replace { index, ranking } => {
            let (r, fresh) = parse(ranking)?;
            (session.replace_ranking(*index, r), fresh)
        }
    };
    let version = version.map_err(|e| e.to_string())?;
    if !fresh.is_empty() {
        let grown = make_mut_counted(universe, universe_copies);
        for label in &fresh {
            grown.intern(label);
        }
    }
    Ok(version)
}

/// Shared body of the PUT and recovery paths: dataset text → universe +
/// unified session. Mirrors `prepare_submission`'s unification semantics,
/// so a live dataset and a one-shot `"dataset"` job see identical inputs.
pub fn build_session(text: &str) -> Result<(Arc<Universe>, DatasetSession), String> {
    let mut universe = Universe::new();
    let raw = parse_dataset_lines(text, &mut universe).map_err(|e| format!("dataset: {e}"))?;
    if raw.is_empty() {
        return Err("dataset contains no rankings".to_owned());
    }
    let norm = rank_core::normalize::unify(raw).expect("non-empty raw rankings always unify");
    Ok((Arc::new(universe), DatasetSession::new(norm.dataset)))
}

/// A submission after parsing and validation: everything needed to build
/// the engine request and the job record. One code path produces this for
/// live `POST /v1/jobs` bodies, journaled submissions replayed on recovery
/// and local `rawt aggregate` runs, so each is prepared like the others.
pub struct Prepared {
    /// The labels the dataset text named.
    pub universe: Arc<Universe>,
    /// Dense id → input element (`None`: the identity, as for live datasets).
    pub mapping: Option<Vec<Element>>,
    /// The normalized dense dataset.
    pub data: Arc<Dataset>,
    /// The resolved algorithm spec.
    pub spec: AlgoSpec,
}

/// Resolve the algorithm spec (explicit, or §7.4 guidance) and check its
/// size cap against the dataset.
pub fn resolve_spec(
    submission: &JobSubmission,
    data: &Dataset,
) -> Result<AlgoSpec, SubmissionError> {
    let spec = match &submission.algo {
        Some(name) => AlgoSpec::parse(name).map_err(|e| SubmissionError {
            message: e.to_string(),
            suggestion: e.suggestion.clone(),
        })?,
        None => {
            let rec = recommend(&DatasetFeatures::measure(data), Priority::Balanced);
            AlgoSpec::parse(rec.algorithm).expect("guidance names are registered")
        }
    };
    if let Some(cap) = spec.max_n() {
        if data.n() > cap {
            return Err(SubmissionError::new(format!(
                "{spec} handles at most n = {cap} elements; this dataset has {}",
                data.n()
            )));
        }
    }
    Ok(spec)
}

/// Dataset text → raw rankings → normalized dense dataset → resolved
/// spec. Parse and structural errors are typed ([`SubmissionError`], HTTP
/// 400 material), never a panic.
pub fn prepare_submission(submission: &JobSubmission) -> Result<Prepared, SubmissionError> {
    let mut universe = Universe::new();
    let raw = parse_dataset_lines(&submission.dataset, &mut universe)
        .map_err(|e| SubmissionError::new(format!("dataset: {e}")))?;
    if raw.is_empty() {
        return Err(SubmissionError::new("dataset contains no rankings"));
    }
    let norm = submission
        .normalize
        .apply_owned(raw)
        .ok_or_else(|| SubmissionError::new("normalization produced an empty dataset"))?;
    let data = Arc::new(norm.dataset);
    let spec = resolve_spec(submission, &data)?;
    Ok(Prepared {
        universe: Arc::new(universe),
        mapping: Some(norm.mapping),
        data,
        spec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submission_roundtrips() {
        let sub = JobSubmission {
            algo: Some("BestOf(KwikSort,20)".to_owned()),
            seed: 7,
            budget: Some(Duration::from_millis(1500)),
            normalize: Normalization::Projection,
            idempotency_key: Some("retry-abc123".to_owned()),
            ..JobSubmission::new("[{A},{B,C}]\n[{B},{A,C}]")
        };
        assert_eq!(JobSubmission::from_json(&sub.to_json()), Ok(sub));
    }

    #[test]
    fn defaults_match_the_cli() {
        let sub = JobSubmission::from_json(r#"{"dataset":"[{A},{B}]"}"#).unwrap();
        assert_eq!(sub.seed, 42);
        assert_eq!(sub.budget, None);
        assert_eq!(sub.normalize, Normalization::Unification);
        assert_eq!(sub.algo, None);
        assert_eq!(sub.idempotency_key, None);
    }

    #[test]
    fn rejects_bad_budgets_and_truncated_bodies() {
        for (body, needle) in [
            (r#"{"dataset":"[{A}]","budget_secs":0}"#, "positive"),
            (r#"{"dataset":"[{A}]","budget_secs":-3}"#, "positive"),
            (r#"{"dataset":"[{A}]","budget_secs":1e20}"#, "out of range"),
            (r#"{"dataset":"[{A}]","budget_secs":"x"}"#, "number"),
            (r#"{"dataset":"[{A}]""#, "request body"),
            (r#"{"algo":"Borda"}"#, "dataset"),
            (r#"{"dataset":""}"#, "empty"),
            (r#"{"dataset":"[{A}]","normalize":"sideways"}"#, "unknown"),
            (r#"{"dataset":"[{A}]","seed":-1}"#, "non-negative"),
            (r#"{"dataset":"[{A}]","idempotency_key":""}"#, "1..=256"),
            (r#"{"dataset":"[{A}]","idempotency_key":7}"#, "string"),
        ] {
            let err = JobSubmission::from_json(body).expect_err(body);
            assert!(
                err.message.contains(needle),
                "{body}: {} should mention {needle:?}",
                err.message
            );
        }
    }

    #[test]
    fn dataset_id_submissions_roundtrip_and_validate() {
        let sub = JobSubmission {
            follow: true,
            seed: 9,
            ..JobSubmission::for_dataset("live-1")
        };
        assert_eq!(JobSubmission::from_json(&sub.to_json()), Ok(sub));

        for (body, needle) in [
            (r#"{"dataset_id":"a b"}"#, "invalid"),
            (r#"{"dataset_id":"../x"}"#, "invalid"),
            (r#"{"dataset_id":""}"#, "invalid"),
            (r#"{"dataset_id":7}"#, "string"),
            (r#"{"dataset":"[{A}]","dataset_id":"d"}"#, "not both"),
            (r#"{"dataset":"[{A}]","follow":true}"#, "dataset_id"),
            (r#"{"dataset_id":"d","follow":"yes"}"#, "boolean"),
            (r#"{}"#, "dataset"),
        ] {
            let err = JobSubmission::from_json(body).expect_err(body);
            assert!(
                err.message.contains(needle),
                "{body}: {} should mention {needle:?}",
                err.message
            );
        }
        assert!(check_dataset_id("ok_Name-42").is_ok());
        assert!(check_dataset_id(&"x".repeat(65)).is_err());
    }

    #[test]
    fn batch_submission_roundtrips_and_validates() {
        let sub = BatchSubmission {
            seed: 11,
            budget: Some(Duration::from_millis(2500)),
            normalize: Normalization::Projection,
            idempotency_key: Some("panel-1".to_owned()),
            ..BatchSubmission::new(
                "[{A},{B,C}]\n[{B},{A,C}]",
                vec!["Exact".to_owned(), "BioConsert".to_owned()],
            )
        };
        assert_eq!(BatchSubmission::from_json(&sub.to_json()), Ok(sub));

        let too_many = format!(
            r#"{{"dataset":"[{{A}}]","specs":[{}]}}"#,
            vec![r#""Borda""#; MAX_BATCH_SPECS + 1].join(",")
        );
        for (body, needle) in [
            (r#"{"specs":["Borda"]}"#, "dataset"),
            (r#"{"dataset":"[{A}]"}"#, "specs"),
            (r#"{"dataset":"[{A}]","specs":[]}"#, "empty"),
            (r#"{"dataset":"[{A}]","specs":"Borda"}"#, "array"),
            (r#"{"dataset":"[{A}]","specs":[7]}"#, "strings"),
            (
                r#"{"dataset":"[{A}]","specs":["B"],"budget_secs":0}"#,
                "positive",
            ),
            (too_many.as_str(), "at most"),
        ] {
            let err = BatchSubmission::from_json(body).expect_err(body);
            assert!(
                err.message.contains(needle),
                "{body}: {} should mention {needle:?}",
                err.message
            );
        }
    }

    #[test]
    fn registry_json_is_valid_and_complete() {
        let doc = Json::parse(&registry_json()).unwrap();
        let entries = doc.as_array().unwrap();
        assert_eq!(entries.len(), registry().len());
        assert!(entries.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("BioConsert")
                && e.get("produces_ties").and_then(Json::as_bool) == Some(true)
        }));
    }
}
