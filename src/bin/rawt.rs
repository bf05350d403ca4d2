//! `rawt` — rank aggregation with ties, from the command line.
//!
//! The CLI is a thin shell over the engine ([`rank_core::engine::Engine`])
//! and the service protocol ([`service::proto`]). A local `aggregate` or
//! `session` prepares its input with the server's own code, and local and
//! `--remote` runs render one wire form: they differ only in transport.
//!
//! ```text
//! rawt aggregate FILE [--algo SPEC] [--seed N] [--budget SECS]
//!                     [--normalize unify|project] [--progress] [--json]
//!                     [--lane auto|dense|matrix-free] [--remote ADDR]
//!     Aggregate a dataset file (one `[{A},{B,C}]` ranking per line,
//!     `#` comments allowed). Rankings over different elements are
//!     normalized first (default: unification, §5.1). Without --algo the
//!     §7.4 guidance picks the algorithm. SPEC is case-insensitive:
//!     `BioConsert`, `bestof(kwiksort,20)`, `MedRank(0.7)`, `Exact`, …
//!     --progress streams live incumbents to stderr while the job runs;
//!     Ctrl-C cancels cooperatively and returns the best-so-far ranking
//!     (outcome "cancelled"). --json emits the machine-readable report,
//!     including the outcome and the incumbent time-to-score trace.
//!     --remote runs the job on a `rawt serve` instance: same flags, same
//!     output (bit-identical reports for a fixed seed). Transient
//!     failures (429, 503, a dropped connection) are retried with backoff
//!     under a per-invocation idempotency key, so a retry never
//!     duplicates the job, even across a server restart (DESIGN.md §12.4).
//!     --lane picks the pairwise-cost substrate (DESIGN.md §16): auto
//!     (default) goes matrix-free once the dense matrix would exceed its
//!     memory budget, dense/matrix-free force a side; unsupported specs
//!     always run dense, and the report's "lane" field records what ran.
//!     Local runs only.
//!
//! rawt compare FILE [--seed N] [--budget SECS] [--normalize unify|project]
//!              [--json]
//!     Run the paper's whole panel as one concurrent engine batch and
//!     report per-algorithm score, gap and outcome (--json for the full
//!     report array, traces included).
//!
//! rawt list [--json]
//!     The algorithm registry as Table 1 of the paper: canonical spec
//!     name, class tag ([K]/[G]/[P]), produces-ties column, aliases.
//!     --json emits the same registry dump `GET /v1/algorithms` serves.
//!
//! rawt serve [--addr HOST:PORT] [--max-jobs N] [--queue N]
//!            [--journal DIR] [--journal-fsync always|milestones|never]
//!            [--token TOKEN] [--heartbeat SECS]
//!     Run the aggregation service (see crates/service): anytime jobs
//!     over HTTP with streamed NDJSON incumbents, budget-aware
//!     scheduling, and 429 load shedding. SIGINT drains via cooperative
//!     cancel; a second SIGINT forces an immediate exit. --addr defaults
//!     to 127.0.0.1:7878 (port 0 picks an ephemeral port, printed on
//!     startup). --journal makes jobs durable (DESIGN.md §12): every
//!     submission and event is logged to DIR, and a restart with the
//!     same DIR re-serves finished jobs and deterministically re-runs
//!     interrupted ones. --token requires `Authorization: Bearer TOKEN`
//!     on every request except `GET /healthz` and `GET /metrics`; the
//!     token is held in memory only and never journaled. --heartbeat
//!     sets the event-stream keepalive cadence (default 15s). `GET
//!     /metrics` exposes the full telemetry registry (DESIGN.md §15) in
//!     Prometheus text format.
//!
//! rawt route --workers ADDR,ADDR,… [--addr HOST:PORT] [--token TOKEN]
//!     Run the sharded front tier (DESIGN.md §14.2): one address fanning
//!     out to many `rawt serve` workers. Jobs, batches and dataset
//!     sessions are routed by rendezvous hashing of their dataset
//!     fingerprint, so a session's follow-up requests stay on the worker
//!     holding its delta-patched matrix and a batch rides one worker's
//!     single matrix build. /healthz aggregates worker health; a dead
//!     worker is skipped for new submissions and answers 503 +
//!     Retry-After for state it holds. --token both authenticates
//!     clients and is forwarded to the workers. `GET /metrics` scrapes
//!     every worker, tags each series with a `worker="ADDR"` label and
//!     merges them with the router's own metrics, so one scrape sees
//!     the whole fleet.
//!
//! rawt top ADDR [--interval SECS] [--once] [--token TOKEN]
//!     Terminal dashboard over `/metrics` + `/healthz`: live queue
//!     depth and running jobs, per-algorithm p50/p99 solve latency,
//!     shed rate, and (against a router) per-worker health. Repaints
//!     every --interval seconds (default 2); --once prints a single
//!     frame and exits, for scripts.
//!
//! rawt session FILE [--algo SPEC] [--seed N] [--budget SECS]
//!              [--remote ADDR] [--id ID]
//!     An interactive live-dataset session (DESIGN.md §13): load FILE,
//!     then read edit/solve commands from stdin, one per line:
//!         add [{A},{B,C}]      append a ranking (new labels grow the
//!                              universe everywhere)
//!         remove N             drop the N-th ranking (0-based)
//!         replace N [{B},{A}]  swap the N-th ranking
//!         show                 current version, shape and rankings
//!         solve                aggregate the current dataset; each
//!                              solve after the first warm-starts from
//!                              the previous consensus
//!         quit                 end the session (EOF works too)
//!     Edits delta-patch the session's cost matrix in O(n²) instead of
//!     rebuilding it. --remote drives the same loop against a `rawt
//!     serve` instance over PUT/PATCH `/v1/datasets/{id}`; --id names
//!     the server-side dataset, which persists after quit and is
//!     reopened as it stands by the next session naming it (without --id
//!     a fresh one is created and deleted on quit).
//!
//! rawt similarity FILE [--normalize unify|project]
//!     The dataset's intrinsic similarity s(R) (§6.2.2) and features.
//!
//! rawt distance 'RANKING' 'RANKING'
//!     Generalized Kendall-τ distance between two rankings.
//!
//! rawt generate (uniform|markov) --n N --m M [--steps T] [--seed N]
//!     Print a synthetic dataset (§6.1). uniform is exact and refuses
//!     --n above 1000 (its tables grow as n⁴); markov has no cap.
//! ```

use rank_aggregation_with_ties::prelude::*;
use rank_aggregation_with_ties::ragen::{MarkovGen, UniformSampler};
use rank_aggregation_with_ties::rank_core::engine::{paper_panel, registry};
use rank_aggregation_with_ties::rank_core::normalize::Normalized;
use rank_aggregation_with_ties::rank_core::parse::{parse_dataset_lines, parse_ranking_labeled};
use rank_aggregation_with_ties::rank_core::session::DatasetSession;
use rank_aggregation_with_ties::rank_core::telemetry;
use service::client::{Client, ClientError, RetryNotice, RetryPolicy};
use service::fault::FaultPlan;
use service::journal::FsyncPolicy;
use service::json::Json;
use service::proto::{self, DatasetOp, JobSubmission};
use service::router::{Router, RouterConfig};
use service::server::{Server, ServerConfig};
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn die(msg: &str) -> ! {
    eprintln!("rawt: {msg}");
    exit(2);
}

/// Cooperative Ctrl-C: the handler only bumps an atomic counter; under
/// `--progress` a watcher thread observes it and cancels the job (its
/// [`JobHandle`]'s token, or a `DELETE`), so the process still exits
/// through the normal best-so-far path. `rawt serve` reads the full
/// count: the first press drains, a second one forces an immediate exit.
mod sigint {
    use std::sync::atomic::{AtomicU32, Ordering};

    static PRESSES: AtomicU32 = AtomicU32::new(0);

    pub fn pressed() -> bool {
        count() > 0
    }

    pub fn count() -> u32 {
        PRESSES.load(Ordering::SeqCst)
    }

    #[cfg(unix)]
    pub fn install() {
        unsafe extern "C" fn on_sigint(_signum: i32) {
            PRESSES.fetch_add(1, Ordering::SeqCst);
        }
        extern "C" {
            // libc's signal(2); the previous handler return value is not
            // needed, so it is declared as an opaque word.
            fn signal(signum: i32, handler: unsafe extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}
}

struct Flags {
    positional: Vec<String>,
    algo: Option<String>,
    seed: u64,
    budget: Option<Duration>,
    normalize: Normalization,
    lane: Option<LanePolicy>,
    json: bool,
    progress: bool,
    remote: Option<String>,
    addr: String,
    max_jobs: usize,
    queue: usize,
    journal: Option<String>,
    journal_fsync: FsyncPolicy,
    token: Option<String>,
    workers: Option<String>,
    id: Option<String>,
    n: usize,
    m: usize,
    steps: usize,
    heartbeat: u32,
    interval: f64,
    once: bool,
}

fn parse_flags(args: &[String]) -> Flags {
    let mut f = Flags {
        positional: Vec::new(),
        algo: None,
        seed: 42,
        budget: None,
        normalize: Normalization::Unification,
        lane: None,
        json: false,
        progress: false,
        remote: None,
        addr: "127.0.0.1:7878".to_owned(),
        max_jobs: ServerConfig::default().max_jobs,
        queue: ServerConfig::default().queue_capacity,
        journal: None,
        journal_fsync: FsyncPolicy::default(),
        token: None,
        workers: None,
        id: None,
        n: 10,
        m: 5,
        steps: 1000,
        heartbeat: ServerConfig::default().heartbeat_secs,
        interval: 2.0,
        once: false,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i)
            .cloned()
            .unwrap_or_else(|| die("missing flag value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--algo" => f.algo = Some(value(&mut i)),
            "--seed" => f.seed = value(&mut i).parse().unwrap_or_else(|_| die("bad --seed")),
            "--budget" => {
                let secs: f64 = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| die("bad --budget"));
                if secs <= 0.0 || !secs.is_finite() {
                    die("--budget must be positive seconds");
                }
                f.budget = Some(
                    Duration::try_from_secs_f64(secs)
                        .unwrap_or_else(|_| die("--budget is out of range")),
                );
            }
            "--normalize" => {
                f.normalize = value(&mut i).parse().unwrap_or_else(|e: String| die(&e))
            }
            "--lane" => {
                f.lane = Some(match value(&mut i).to_ascii_lowercase().as_str() {
                    "auto" => LanePolicy::Auto,
                    "dense" => LanePolicy::Dense,
                    "matrix-free" | "matrixfree" | "matrix_free" => LanePolicy::MatrixFree,
                    other => die(&format!(
                        "bad --lane {other:?} (use auto|dense|matrix-free)"
                    )),
                })
            }
            "--json" => f.json = true,
            "--progress" => f.progress = true,
            "--remote" => f.remote = Some(value(&mut i)),
            "--addr" => f.addr = value(&mut i),
            "--max-jobs" => {
                f.max_jobs = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| die("bad --max-jobs"));
                if f.max_jobs == 0 {
                    die("--max-jobs must be at least 1");
                }
            }
            "--queue" => {
                f.queue = value(&mut i).parse().unwrap_or_else(|_| die("bad --queue"));
                if f.queue == 0 {
                    die("--queue must be at least 1");
                }
            }
            "--journal" => f.journal = Some(value(&mut i)),
            "--token" => f.token = Some(value(&mut i)),
            "--workers" => f.workers = Some(value(&mut i)),
            "--id" => f.id = Some(value(&mut i)),
            "--journal-fsync" => {
                f.journal_fsync = value(&mut i).parse().unwrap_or_else(|e: String| die(&e))
            }
            "--heartbeat" => {
                f.heartbeat = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| die("bad --heartbeat"));
                if f.heartbeat == 0 {
                    die("--heartbeat must be at least 1 second");
                }
            }
            "--interval" => {
                f.interval = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| die("bad --interval"));
                if f.interval <= 0.0 || !f.interval.is_finite() {
                    die("--interval must be positive seconds");
                }
            }
            "--once" => f.once = true,
            "--n" => f.n = value(&mut i).parse().unwrap_or_else(|_| die("bad --n")),
            "--m" => f.m = value(&mut i).parse().unwrap_or_else(|_| die("bad --m")),
            "--steps" => f.steps = value(&mut i).parse().unwrap_or_else(|_| die("bad --steps")),
            s if s.starts_with("--") => die(&format!("unknown flag {s}")),
            s => f.positional.push(s.to_owned()),
        }
        i += 1;
    }
    f
}

/// Load + normalize a dataset file; returns the dense dataset, the id
/// mapping and the universe for display.
fn load(path: &str, how: Normalization) -> (Normalized, Universe) {
    let body = read_file(path);
    let mut universe = Universe::new();
    let raw = parse_dataset_lines(&body, &mut universe)
        .unwrap_or_else(|e| die(&format!("parse error in {path}: {e}")));
    if raw.is_empty() {
        die("the file contains no rankings");
    }
    let normalized = how
        .apply_owned(raw)
        .unwrap_or_else(|| die("normalization produced an empty dataset"));
    (normalized, universe)
}

fn read_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")))
}

/// `rawt aggregate`: one [`JobSubmission`] built from the flags, run in
/// process (prepared by the server's own [`proto::prepare_submission`])
/// or on a `rawt serve` instance. Either way the events and the report
/// arrive in their wire form and go through one renderer each.
fn cmd_aggregate(f: &Flags) {
    let path = f
        .positional
        .first()
        .unwrap_or_else(|| die("aggregate needs a FILE"));
    if f.remote.is_some() && f.lane.is_some() {
        die("--lane applies to local runs only (the wire protocol carries no lane)");
    }
    let submission = JobSubmission {
        algo: f.algo.clone(),
        seed: f.seed,
        budget: f.budget,
        normalize: f.normalize,
        // One key per invocation: retries of a remote submission (below,
        // or by a wrapper re-running the CLI against the same key) can
        // never duplicate the job, even across a server crash.
        idempotency_key: Some(invocation_key()),
        ..JobSubmission::new(read_file(path))
    };
    let (n, m, report) = match &f.remote {
        None => run_in_process(f, &submission),
        Some(addr) => run_on_server(f, &submission, addr),
    };
    if f.json {
        println!(
            "{{\"n\":{n},\"m\":{m},\"normalization\":\"{}\",\"report\":{report}}}",
            f.normalize
        );
        return;
    }
    let report = Json::parse(&report).unwrap_or_else(|e| die(&format!("unreadable report: {e}")));
    let [algorithm, spec, ranking, score, lane, outcome, elapsed] = [
        "algorithm",
        "spec",
        "ranking",
        "score",
        "lane",
        "outcome",
        "elapsed_secs",
    ]
    .map(|key| report_field(&report, key));
    println!("algorithm:  {algorithm} (spec: {spec})");
    println!("elements:   {n} (m = {m} rankings, {})", f.normalize);
    println!("consensus:  {ranking}");
    println!("K score:    {score}");
    println!("lane:       {lane}");
    println!("outcome:    {outcome} in {elapsed}");
}

/// Run the submission on an in-process engine. Returns the dataset's
/// shape and the report's wire bytes.
fn run_in_process(f: &Flags, submission: &JobSubmission) -> (usize, usize, String) {
    let prepared = proto::prepare_submission(submission).unwrap_or_else(|e| die(&e.message));
    let request = AggregationRequest {
        seed: submission.seed,
        budget: submission.budget,
        ..AggregationRequest::new(Arc::clone(&prepared.data), prepared.spec.clone())
    };
    let engine = Engine::new();
    let handle = engine.submit(request.with_lane(f.lane.unwrap_or_default()));
    let token = handle.cancel_token();
    // The stream ends after `finished` (or a kernel panic).
    let events = handle
        .events()
        .map(|event| Json::parse(&proto::event_json(&event)).expect("event lines are JSON"));
    follow_job(f, events, move || token.cancel());
    let report = handle.wait();
    let json = proto::dense_report_json(&report, prepared.mapping.as_deref(), &prepared.universe);
    (prepared.data.n(), prepared.data.m(), json)
}

/// Run the submission on the `rawt serve` instance at `addr`: submit
/// under the retry policy, follow the event stream (reconnecting across
/// dropped connections and server restarts), then fetch the status once
/// and cut the report out of it byte for byte, as the server's shared
/// serializer wrote it.
fn run_on_server(f: &Flags, submission: &JobSubmission, addr: &str) -> (usize, usize, String) {
    let client = make_client(f, addr);
    let job = client
        .submit_with_retry(submission, &RetryPolicy::default(), print_retry)
        .unwrap_or_else(|e| die(&format!("submit to {addr}: {e}")));
    if job.deduplicated {
        eprintln!("rawt: job {} already submitted — reattaching", job.id);
    }
    let events = client
        .follow_events(job.id, RetryPolicy::default(), print_retry)
        .map(|event| {
            event.unwrap_or_else(|e| die(&format!("event stream for job {}: {e}", job.id)))
        });
    follow_job(f, events, || {
        let _ = client.cancel(job.id);
    });
    let raw = client
        .status_raw(job.id)
        .unwrap_or_else(|e| die(&format!("fetching job {}: {e}", job.id)));
    // "report" is the status document's final field; its value runs to
    // the document's closing brace.
    let report = raw
        .rfind("\"report\":")
        .map(|i| &raw[i + "\"report\":".len()..raw.len() - 1])
        .filter(|report| *report != "null")
        .unwrap_or_else(|| die(&format!("job {} ended without a report: {raw}", job.id)));
    (job.n, job.m, report.to_owned())
}

/// Drain a job's event stream (wire form). With `--progress` each event
/// is rendered to stderr and Ctrl-C becomes `cancel`, a cooperative
/// cancel whose result is the best-so-far consensus (outcome
/// "cancelled"); the stream still runs to its end.
fn follow_job(f: &Flags, events: impl Iterator<Item = Json>, cancel: impl FnOnce() + Send) {
    if !f.progress {
        return events.for_each(drop);
    }
    sigint::install();
    let drained = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // The event loop can sit in a blocking read while the job is
        // quiet, so Ctrl-C is watched from a side thread every 100 ms.
        scope.spawn(|| {
            let mut cancel = Some(cancel);
            while !drained.load(Ordering::Relaxed) {
                if let Some(cancel) = cancel.take_if(|_| sigint::pressed()) {
                    eprintln!("rawt: Ctrl-C — cancelling, returning the best-so-far consensus");
                    cancel();
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        events.for_each(|event| print_event(&event));
        drained.store(true, Ordering::Relaxed);
    });
}

/// Render one event line to stderr, for `--progress`.
fn print_event(event: &Json) {
    let num = |key: &str| event.get(key).and_then(Json::as_u64);
    let text = |key: &str| event.get(key).and_then(Json::as_str).unwrap_or("?");
    let secs = event.get("elapsed_secs").and_then(Json::as_f64);
    let (at, gap) = (format!("at {:.3}s", secs.unwrap_or(0.0)), num("gap"));
    match text("event") {
        "started" => eprintln!(
            "started:    {} (seed {})",
            text("spec"),
            num("seed").unwrap_or(0)
        ),
        "incumbent" => {
            let score = num("score").unwrap_or(0);
            eprintln!("incumbent:  K = {score} {at}{}", render_gap(gap, score));
        }
        "lower_bound" => {
            let bound = num("lower_bound").unwrap_or(0);
            let score = bound + gap.unwrap_or(0);
            eprintln!("bound:      K >= {bound} {at}{}", render_gap(gap, score));
        }
        "finished" => eprintln!("finished:   {}", text("outcome")),
        _ => {}
    }
}

/// Render a certified optimality gap for the `--progress` stream: the
/// live "how far from provably optimal" readout (empty until a bounding
/// solver publishes a lower bound; see DESIGN.md §11.2).
fn render_gap(gap: Option<u64>, score: u64) -> String {
    match gap {
        Some(0) => "  (gap 0 — optimal)".to_owned(),
        Some(g) if score > 0 => format!("  (gap {g}, {:.1}%)", 100.0 * g as f64 / score as f64),
        Some(g) => format!("  (gap {g})"),
        None => String::new(),
    }
}

/// One report field as a person reads it, from the report's wire form:
/// the ranking in the paper's `[{A},{B,C}]` notation, `elapsed_secs` as a
/// duration, anything else as its text. The one reader behind
/// `aggregate`'s text report and `session`'s solve line, local or remote.
fn report_field(report: &Json, key: &str) -> String {
    let value = report
        .get(key)
        .unwrap_or_else(|| die(&format!("report is missing {key:?}: {report}")));
    match (key, value) {
        ("elapsed_secs", Json::Num(secs)) => format!("{:.1?}", Duration::from_secs_f64(*secs)),
        ("ranking", Json::Arr(buckets)) => {
            let buckets: Vec<String> = buckets
                .iter()
                .map(|bucket| {
                    let labels: Vec<&str> = bucket
                        .as_array()
                        .unwrap_or_default()
                        .iter()
                        .filter_map(Json::as_str)
                        .collect();
                    format!("{{{}}}", labels.join(","))
                })
                .collect();
            format!("[{}]", buckets.join(","))
        }
        (_, Json::Str(text)) => text.clone(),
        (_, other) => other.to_string(),
    }
}

// --------------------------------------------------------- remote client

/// A fresh idempotency key for this CLI invocation: pid + wall-clock
/// nanos is unique across concurrent and sequential runs on one machine,
/// which is the scope a client-generated key needs.
fn invocation_key() -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    format!("rawt-{}-{nanos:x}", std::process::id())
}

/// A client for `addr`, authenticated when `--token` was given.
fn make_client(f: &Flags, addr: &str) -> Client {
    match &f.token {
        Some(token) => Client::with_token(addr, token),
        None => Client::new(addr),
    }
}

/// Surface one client retry on stderr ("server busy, retrying in 2s…").
fn print_retry(notice: &RetryNotice) {
    eprintln!(
        "rawt: {}, retrying in {:.1}s (attempt {}/{})",
        notice.reason,
        notice.delay.as_secs_f64(),
        notice.attempt + 1,
        notice.max_attempts
    );
}

/// The server's own message for a refused request (the `"error"` field
/// of its reply), which is the message the local path prints for the
/// same refusal; other failures keep their transport detail.
fn server_message(error: &ClientError) -> String {
    match error {
        ClientError::Status { body, .. } => Json::parse(body)
            .ok()
            .and_then(|doc| doc.get("error").and_then(Json::as_str).map(str::to_owned))
            .unwrap_or_else(|| error.to_string()),
        _ => error.to_string(),
    }
}

/// `rawt serve`: run the aggregation service until SIGINT, then drain
/// via cooperative cancel; a second SIGINT abandons the drain and exits
/// immediately (status 130) — the journal makes that safe, a restart
/// recovers whatever the drain would have finished.
fn cmd_serve(f: &Flags) {
    let faults = std::sync::Arc::new(FaultPlan::from_env());
    if faults.any() {
        eprintln!("rawt: WARNING: fault injection armed via RAWT_FAULTS — not for production");
    }
    let config = ServerConfig {
        max_jobs: f.max_jobs,
        queue_capacity: f.queue,
        journal_dir: f.journal.clone().map(std::path::PathBuf::from),
        journal_fsync: f.journal_fsync,
        token: f.token.clone(),
        faults,
        heartbeat_secs: f.heartbeat,
        ..ServerConfig::default()
    };
    let server = Server::bind(f.addr.as_str(), config.clone())
        .unwrap_or_else(|e| die(&format!("cannot bind {}: {e}", f.addr)));
    let metrics = server.metrics();
    let addr = server
        .local_addr()
        .unwrap_or_else(|e| die(&format!("no local address: {e}")));
    let shutdown = server
        .shutdown_handle()
        .unwrap_or_else(|e| die(&format!("no shutdown handle: {e}")));
    let durability = match &f.journal {
        Some(dir) => format!(", journal {dir} [{}]", f.journal_fsync),
        None => String::new(),
    };
    println!(
        "rawt: serving on http://{addr} (max-jobs {}, queue {}{durability})",
        config.max_jobs, config.queue_capacity
    );
    // The startup line is the machine-readable contract for wrappers
    // (tests, CI) that need the ephemeral port; make sure it is visible
    // before any request lands.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    sigint::install();
    let serve_thread = std::thread::spawn(move || server.serve());
    let mut drain: Option<std::thread::JoinHandle<()>> = None;
    // The abrupt exit still accounts for itself: one final telemetry
    // line says what the process abandoned (the journal makes the
    // abandonment safe — a restart recovers it).
    let force_exit = |why: &str| -> ! {
        eprintln!(
            "rawt: telemetry: {why} — {} accepted, {} finished, {} queued, {} running at exit",
            metrics.counter_total("rawt_jobs_accepted_total"),
            metrics.counter_total("rawt_jobs_finished_total"),
            metrics.gauge_value("rawt_queue_depth", &[]).unwrap_or(0),
            metrics.gauge_value("rawt_jobs_running", &[]).unwrap_or(0),
        );
        eprintln!("rawt: second SIGINT — forcing exit without drain");
        exit(130);
    };
    loop {
        std::thread::sleep(Duration::from_millis(100));
        // The force-exit check runs first, and again before declaring
        // the drain done: a second Ctrl-C wins even when the cooperative
        // drain finishes in between (the journal makes the abrupt exit
        // safe — a restart recovers what the drain would have finished).
        if sigint::count() >= 2 {
            force_exit("forced exit mid-drain");
        }
        if sigint::pressed() && drain.is_none() {
            eprintln!(
                "rawt: SIGINT — draining (cancelling live jobs); press Ctrl-C again to force exit"
            );
            // shutdown() blocks until every live job has cancelled, so
            // it runs on its own thread to keep this loop listening for
            // the second Ctrl-C.
            let shutdown = shutdown.clone();
            drain = Some(std::thread::spawn(move || shutdown.shutdown()));
        }
        if serve_thread.is_finished() {
            if sigint::count() >= 2 {
                force_exit("forced exit after serve loop ended");
            }
            break;
        }
    }
    if let Some(drain) = drain {
        let _ = drain.join();
    }
    match serve_thread.join() {
        Ok(Ok(())) => eprintln!("rawt: drained, bye"),
        Ok(Err(e)) => die(&format!("serve loop failed: {e}")),
        Err(_) => die("serve loop panicked"),
    }
}

/// `rawt route`: run the rendezvous-hashing front tier until SIGINT.
/// The router holds no job state worth draining — stopping the accept
/// loop is the whole shutdown.
fn cmd_route(f: &Flags) {
    let workers: Vec<String> = f
        .workers
        .as_deref()
        .unwrap_or_else(|| die("route needs --workers ADDR,ADDR,…"))
        .split(',')
        .map(str::trim)
        .filter(|w| !w.is_empty())
        .map(str::to_owned)
        .collect();
    let config = RouterConfig {
        workers: workers.clone(),
        token: f.token.clone(),
    };
    let router = Router::bind(f.addr.as_str(), config)
        .unwrap_or_else(|e| die(&format!("cannot bind {}: {e}", f.addr)));
    let addr = router
        .local_addr()
        .unwrap_or_else(|e| die(&format!("no local address: {e}")));
    let shutdown = router
        .shutdown_handle()
        .unwrap_or_else(|e| die(&format!("no shutdown handle: {e}")));
    println!(
        "rawt: routing on http://{addr} -> {} worker{} [{}]",
        workers.len(),
        if workers.len() == 1 { "" } else { "s" },
        workers.join(", ")
    );
    // Same machine-readable startup contract as `rawt serve`: the
    // `http://` line carries the ephemeral port for wrappers and CI.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    sigint::install();
    let serve_thread = std::thread::spawn(move || router.serve());
    loop {
        std::thread::sleep(Duration::from_millis(100));
        if sigint::pressed() {
            eprintln!("rawt: SIGINT — stopping the router (workers keep running)");
            shutdown.shutdown();
            break;
        }
        if serve_thread.is_finished() {
            break;
        }
    }
    match serve_thread.join() {
        Ok(Ok(())) => eprintln!("rawt: router stopped, bye"),
        Ok(Err(e)) => die(&format!("route loop failed: {e}")),
        Err(_) => die("route loop panicked"),
    }
}

/// One per-algorithm latency row for the `rawt top` dashboard: algorithm
/// label, completed-solve count, and p50/p99 solve latency in seconds.
/// Router scrapes carry a `worker` label on every series; rows aggregate
/// across workers by summing the per-`le` cumulative bucket counts
/// (log₂ histograms share one fixed grid, so the sums stay cumulative).
fn solve_latency_rows(families: &[telemetry::Family]) -> Vec<(String, u64, f64, f64)> {
    use std::collections::BTreeMap;
    let Some(family) = families.iter().find(|f| f.name == "rawt_solve_seconds") else {
        return Vec::new();
    };
    let mut by_algo: BTreeMap<String, (BTreeMap<String, f64>, u64)> = BTreeMap::new();
    for sample in &family.samples {
        let algo = sample.label("algo").unwrap_or("?").to_owned();
        let entry = by_algo.entry(algo).or_default();
        if sample.name.ends_with("_bucket") {
            let le = sample.label("le").unwrap_or("+Inf").to_owned();
            *entry.0.entry(le).or_default() += sample.value;
        } else if sample.name.ends_with("_count") {
            entry.1 += sample.value as u64;
        }
    }
    by_algo
        .into_iter()
        .map(|(algo, (buckets, count))| {
            let mut pairs: Vec<(f64, f64)> = buckets
                .into_iter()
                .map(|(le, cumulative)| {
                    let bound = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse().unwrap_or(f64::INFINITY)
                    };
                    (bound, cumulative)
                })
                .collect();
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let p50 = telemetry::quantile_from_buckets(pairs.clone(), 0.5).unwrap_or(0.0);
            let p99 = telemetry::quantile_from_buckets(pairs, 0.99).unwrap_or(0.0);
            (algo, count, p50, p99)
        })
        .collect()
}

/// Sum every series of a counter/gauge family (collapsing `algo`,
/// `class`, `worker`, … labels into one fleet-wide number).
fn family_total(families: &[telemetry::Family], name: &str) -> f64 {
    families
        .iter()
        .filter(|f| f.name == name)
        .flat_map(|f| &f.samples)
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

/// `rawt top ADDR`: a terminal dashboard over `/metrics` + `/healthz`,
/// repainted every `--interval` seconds (`--once` prints one frame, for
/// scripts and tests). Works against a worker and against a router —
/// the router's exposition is the whole fleet, worker-labelled.
fn cmd_top(f: &Flags) {
    let addr = f
        .positional
        .first()
        .unwrap_or_else(|| die("top needs an ADDR (a rawt serve or rawt route address)"));
    let client = make_client(f, addr);
    sigint::install();
    loop {
        let exposition = client
            .metrics_text()
            .unwrap_or_else(|e| die(&format!("cannot scrape {addr}/metrics: {e}")));
        let families = telemetry::parse_exposition(&exposition);
        let health = client.healthz().ok();
        if !f.once {
            // ANSI clear + home: repaint in place like top(1).
            print!("\x1b[2J\x1b[H");
        }
        let status = health
            .as_ref()
            .and_then(|h| h.get("status").and_then(Json::as_str).map(str::to_owned))
            .unwrap_or_else(|| "unknown".to_owned());
        println!("rawt top — {addr} [{status}]");
        let queued = family_total(&families, "rawt_queue_depth") as i64;
        let running = family_total(&families, "rawt_jobs_running") as i64;
        let accepted = family_total(&families, "rawt_jobs_accepted_total") as u64;
        let finished = family_total(&families, "rawt_jobs_finished_total") as u64;
        let shed = family_total(&families, "rawt_jobs_shed_total") as u64;
        let subscribers = family_total(&families, "rawt_stream_subscribers") as i64;
        let shed_rate = if accepted + shed > 0 {
            100.0 * shed as f64 / (accepted + shed) as f64
        } else {
            0.0
        };
        println!(
            "jobs: {queued} queued, {running} running, {finished}/{accepted} finished, \
             {shed} shed ({shed_rate:.1}%), {subscribers} stream subscriber(s)"
        );
        let rows = solve_latency_rows(&families);
        if rows.is_empty() {
            println!("solve latency: no completed jobs yet");
        } else {
            println!(
                "{:<28} {:>8} {:>10} {:>10}",
                "algorithm", "solves", "p50", "p99"
            );
            for (algo, count, p50, p99) in rows {
                println!(
                    "{algo:<28} {count:>8} {:>9.1}ms {:>9.1}ms",
                    p50 * 1e3,
                    p99 * 1e3
                );
            }
        }
        // A router's /healthz lists per-worker health; a worker's has no
        // "workers" array and this section simply disappears.
        if let Some(workers) = health
            .as_ref()
            .and_then(|h| h.get("workers").and_then(Json::as_array))
        {
            println!("workers:");
            for worker in workers {
                let w_addr = worker.get("addr").and_then(Json::as_str).unwrap_or("?");
                let alive = worker.get("alive").and_then(Json::as_bool).unwrap_or(false);
                let w_status = worker
                    .get("health")
                    .and_then(|h| h.get("status"))
                    .and_then(Json::as_str)
                    .unwrap_or(if alive { "ok" } else { "down" });
                println!("  {w_addr:<24} {}", if alive { w_status } else { "DOWN" });
            }
        }
        if f.once || sigint::pressed() {
            return;
        }
        // Sleep in 100 ms steps so Ctrl-C lands promptly mid-interval.
        let mut remaining = Duration::from_secs_f64(f.interval);
        while !remaining.is_zero() && !sigint::pressed() {
            let step = remaining.min(Duration::from_millis(100));
            std::thread::sleep(step);
            remaining -= step;
        }
        if sigint::pressed() {
            return;
        }
    }
}

fn cmd_compare(f: &Flags) {
    let path = f
        .positional
        .first()
        .unwrap_or_else(|| die("compare needs a FILE"));
    let (norm, universe) = load(path, f.normalize);
    let data = &norm.dataset;
    if !f.json {
        println!(
            "n = {}, m = {}, similarity s(R) = {:.3}",
            data.n(),
            data.m(),
            dataset_similarity(data)
        );
    }
    // The paper's panel as one engine batch; size-bounded members (the
    // LP-based Ailon) sit instances beyond their cap out.
    let specs = paper_panel(20)
        .into_iter()
        .filter(|s| s.max_n().is_none_or(|cap| data.n() <= cap));
    let mut batch = AggregationRequest::batch(data.clone())
        .specs(specs)
        .seed(f.seed);
    if let Some(budget) = f.budget {
        batch = batch.budget(budget);
    }
    let mut reports = Engine::new().run_batch(&batch.build());
    reports.sort_by_key(|r| r.score);
    if f.json {
        let objects: Vec<String> = reports
            .iter()
            .map(|r| proto::report_json(r, &norm, &universe))
            .collect();
        println!(
            "{{\"n\":{},\"m\":{},\"similarity\":{:.6},\"normalization\":\"{}\",\"reports\":[{}]}}",
            data.n(),
            data.m(),
            dataset_similarity(data),
            f.normalize,
            objects.join(",")
        );
        return;
    }
    for r in &reports {
        let gap = r.gap.unwrap_or(f64::NAN);
        let flag = if r.outcome.completed() {
            ""
        } else {
            "  (timed out)"
        };
        println!(
            "{:<16} K = {:<6} m-gap = {:>6.2}%  {}{flag}",
            r.algorithm(),
            r.score,
            100.0 * gap,
            norm.denormalize(&r.ranking).display_with(&universe)
        );
    }
}

fn cmd_list(f: &Flags) {
    if f.json {
        // The exact payload `GET /v1/algorithms` serves (same serializer).
        println!("{}", proto::registry_json());
        return;
    }
    println!("registered algorithms (case-insensitive; see `rawt aggregate --algo`):");
    println!();
    // Table 1 of the paper: name, class tag ([K] Kemeny-style / [G]
    // generalized / [P] positional), whether the (adapted) algorithm can
    // produce ties, and the method family.
    println!("{:<18} {:<6} {:<6} METHOD", "NAME", "CLASS", "TIES");
    for e in registry() {
        let example = (e.example)();
        let ties = if example.produces_ties() { "yes" } else { "no" };
        // Entry classes read "[K] linear programming"; split the Table 1
        // tag off the family text (the exact solver has no tag).
        let (tag, family) = match e.class.split_once(' ') {
            Some((tag, rest)) if tag.starts_with('[') => (tag, rest),
            _ => ("-", e.class),
        };
        println!("{:<18} {:<6} {:<6} {}", e.canonical, tag, ties, family);
        println!("{:<18} {:<6} {:<6} {}", "", "", "", e.summary);
        println!(
            "{:<18} {:<6} {:<6} example: {example}  paper name: {}",
            "",
            "",
            "",
            example.paper_name()
        );
        if !e.aliases.is_empty() {
            println!(
                "{:<18} {:<6} {:<6} aliases: {}",
                "",
                "",
                "",
                e.aliases.join(", ")
            );
        }
    }
    println!();
    println!("presets: the paper panel is `rawt compare`'s batch; BestOf(base,runs)");
    println!("wraps any randomized base, e.g. BestOf(KwikSort,20) = KwikSortMin.");
}

// ------------------------------------------------------------- sessions

/// Parse one edit line (`add`, `remove`, `replace`) of `rawt session`;
/// `Err` is the message to print.
fn parse_edit(line: &str, verb: &str, rest: &str) -> Result<DatasetOp, String> {
    Ok(match verb {
        "add" if !rest.is_empty() => DatasetOp::Add {
            ranking: rest.to_owned(),
        },
        "remove" => DatasetOp::Remove {
            index: rest.parse().map_err(|_| "usage: remove N")?,
        },
        "replace" => {
            let usage = "usage: replace N [{A},{B}]";
            let (index, ranking) = rest.split_once(char::is_whitespace).ok_or(usage)?;
            DatasetOp::Replace {
                index: index.parse().map_err(|_| usage)?,
                ranking: ranking.trim().to_owned(),
            }
        }
        _ => {
            return Err(format!(
                "unknown command {line:?} (add/remove/replace/show/solve/quit)"
            ))
        }
    })
}

/// Where a `rawt session`'s dataset lives: in this process, edited and
/// solved by the same code a server runs on its live datasets, or on a
/// `rawt serve` instance.
enum Backend {
    Local {
        engine: Engine,
        universe: Arc<Universe>,
        session: DatasetSession,
    },
    Remote {
        client: Client,
        id: String,
        /// Created by this session, so deleted on quit; a dataset named
        /// with `--id` stays on the server.
        ephemeral: bool,
    },
}

/// A dataset's version, `n` and `m`, as the REPL prints them.
type Shape = (u64, usize, usize);

/// The shape a server reply carries.
fn reply_shape(doc: &Json) -> Shape {
    let num = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
    (num("version"), num("n") as usize, num("m") as usize)
}

impl Backend {
    /// Load `body` into an in-process session.
    fn local(body: &str) -> (Backend, Shape) {
        let (universe, session) = proto::build_session(body).unwrap_or_else(|e| die(&e));
        let (version, n, m) = (session.version(), session.n(), session.m());
        println!(
            "session: v{version} n = {n} m = {m} (commands: add/remove/replace/show/solve/quit)"
        );
        let engine = Engine::new();
        let backend = Backend::Local {
            engine,
            universe,
            session,
        };
        (backend, (version, n, m))
    }

    /// Create the dataset on the server at `addr` from `body`. A dataset
    /// named with `--id` that already exists is reopened as it stands,
    /// so a named dataset outlives the session that made it.
    fn remote(f: &Flags, addr: &str, path: &str, body: &str) -> (Backend, Shape) {
        let client = make_client(f, addr);
        let (id, ephemeral) = match &f.id {
            Some(id) => (id.clone(), false),
            None => (invocation_key(), true),
        };
        let (doc, note) = match client.create_dataset(&id, body) {
            Ok(doc) => (doc, String::new()),
            Err(ClientError::Status { status: 409, .. }) if !ephemeral => (
                client
                    .get_dataset(&id)
                    .unwrap_or_else(|e| die(&format!("GET dataset {id:?} on {addr}: {e}"))),
                format!(" (exists; {path} not loaded)"),
            ),
            Err(ClientError::Invalid(message)) => die(&message),
            Err(e) => die(&format!("PUT dataset {id:?} on {addr}: {e}")),
        };
        let (version, n, m) = reply_shape(&doc);
        let display = addr.strip_prefix("http://").unwrap_or(addr);
        println!("session: dataset {id} v{version} n = {n} m = {m} on http://{display}{note}");
        let backend = Backend::Remote {
            client,
            id,
            ephemeral,
        };
        (backend, (version, n, m))
    }

    /// Apply one edit; the shape it leaves.
    fn edit(&mut self, op: &DatasetOp) -> Result<Shape, String> {
        match self {
            Backend::Local {
                universe, session, ..
            } => {
                let version = proto::apply_op(universe, session, op, &mut 0)?;
                Ok((version, session.n(), session.m()))
            }
            Backend::Remote { client, id, .. } => {
                let body = format!("{{\"ops\":[{}]}}", op.to_json());
                // A refused PATCH names its failing op by position; this
                // one only ever carries op 0.
                let doc = client
                    .patch_dataset(id, &body)
                    .map_err(|e| server_message(&e).replacen("op 0: ", "", 1))?;
                Ok(reply_shape(&doc))
            }
        }
    }

    /// The current shape and rankings, one `[{A},{B,C}]` line each.
    fn show(&mut self) -> Result<(Shape, Vec<String>), String> {
        match self {
            Backend::Local {
                universe, session, ..
            } => Ok((
                (session.version(), session.n(), session.m()),
                session
                    .rankings()
                    .iter()
                    .map(|r| r.display_with(universe))
                    .collect(),
            )),
            Backend::Remote { client, id, .. } => {
                let doc = client.get_dataset(id).map_err(|e| server_message(&e))?;
                let text = doc.get("dataset").and_then(Json::as_str).unwrap_or("");
                Ok((reply_shape(&doc), text.lines().map(str::to_owned).collect()))
            }
        }
    }

    /// Solve the current dataset, warm-started from the previous solve's
    /// consensus; the report's wire form.
    fn solve(&mut self, f: &Flags) -> Result<Json, String> {
        match self {
            Backend::Local {
                engine,
                universe,
                session,
            } => {
                // Spec resolution reads only the submission's algo.
                let submission = JobSubmission {
                    algo: f.algo.clone(),
                    ..JobSubmission::new("")
                };
                let spec =
                    proto::resolve_spec(&submission, &session.dataset()).map_err(|e| e.message)?;
                let report = session.resolve(engine, spec, f.seed, f.budget);
                let json = proto::dense_report_json(&report, None, universe);
                Ok(Json::parse(&json).expect("reports are JSON"))
            }
            Backend::Remote { client, id, .. } => {
                let submission = JobSubmission {
                    algo: f.algo.clone(),
                    seed: f.seed,
                    budget: f.budget,
                    idempotency_key: Some(invocation_key()),
                    ..JobSubmission::for_dataset(id.as_str())
                };
                let job = client.submit(&submission).map_err(|e| server_message(&e))?;
                let done = client
                    .wait(job.id)
                    .map_err(|e| format!("waiting on job {}: {e}", job.id))?;
                done.get("report")
                    .filter(|r| !r.is_null())
                    .cloned()
                    .ok_or_else(|| format!("job {} ended without a report", job.id))
            }
        }
    }
}

/// `rawt session`: the interactive edit/re-solve loop over a live
/// dataset — delta-patched matrix, warm-started solves — held in process
/// or, with `--remote`, on a server. One loop drives both. A solve line
/// shows the version of the last shape printed, which is the version
/// solved while this loop is the dataset's only editor.
fn cmd_session(f: &Flags) {
    use std::io::BufRead as _;
    let path = f
        .positional
        .first()
        .unwrap_or_else(|| die("session needs a FILE"));
    let body = read_file(path);
    let (mut backend, (mut version, _, _)) = match &f.remote {
        None => Backend::local(&body),
        Some(addr) => Backend::remote(f, addr, path, &body),
    };
    for line in std::io::stdin().lock().lines() {
        // A read error ends the session like EOF or `quit`.
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((verb, rest)) => (verb, rest.trim()),
            None => (line, ""),
        };
        let shown = match (verb, rest) {
            ("quit" | "exit", "") => break,
            ("show", "") => backend.show(),
            ("solve", "") => match backend.solve(f) {
                Ok(report) => {
                    let [score, ranking, outcome, elapsed] =
                        ["score", "ranking", "outcome", "elapsed_secs"]
                            .map(|key| report_field(&report, key));
                    println!("v{version} K = {score}  {ranking}  ({outcome} in {elapsed})");
                    continue;
                }
                Err(message) => Err(message),
            },
            _ => parse_edit(line, verb, rest)
                .and_then(|op| backend.edit(&op))
                .map(|shape| (shape, Vec::new())),
        };
        match shown {
            Ok(((v, n, m), rankings)) => {
                version = v;
                println!("v{v} n = {n} m = {m}");
                for (i, r) in rankings.iter().enumerate() {
                    println!("  [{i}] {r}");
                }
            }
            Err(message) => eprintln!("rawt: {message}"),
        }
    }
    if let Backend::Remote {
        client,
        id,
        ephemeral: true,
    } = backend
    {
        let _ = client.delete_dataset(&id);
    }
}

fn cmd_similarity(f: &Flags) {
    let path = f
        .positional
        .first()
        .unwrap_or_else(|| die("similarity needs a FILE"));
    let (norm, _) = load(path, f.normalize);
    let data = &norm.dataset;
    let features = DatasetFeatures::measure(data);
    println!("n = {}, m = {}", features.n, features.m);
    println!(
        "similarity s(R) = {:.4}",
        features.similarity.unwrap_or(f64::NAN)
    );
    println!("large ties present: {}", features.has_large_ties);
    for p in [Priority::Quality, Priority::Balanced, Priority::Speed] {
        let rec = recommend(&features, p);
        println!("recommended ({p:?}): {}", rec.algorithm);
    }
}

fn cmd_distance(f: &Flags) {
    if f.positional.len() != 2 {
        die("distance needs two 'RANKING' arguments");
    }
    let mut universe = Universe::new();
    let a = parse_ranking_labeled(&f.positional[0], &mut universe)
        .unwrap_or_else(|e| die(&format!("first ranking: {e}")));
    let b = parse_ranking_labeled(&f.positional[1], &mut universe)
        .unwrap_or_else(|e| die(&format!("second ranking: {e}")));
    if a.n_elements() != b.n_elements() || a.elements().any(|e| !b.contains(e)) {
        die("the rankings must be over the same elements");
    }
    println!(
        "G  (generalized Kendall-τ) = {}",
        generalized_kendall_tau(&a, &b)
    );
    println!("D  (classical, ties ignored) = {}", kendall_tau(&a, &b));
    println!("τ  (correlation, eq. 4) = {:.4}", tau_correlation(&a, &b));
}

/// The largest `--n` that `rawt generate uniform` accepts. The exact
/// sampler's big-integer tables take about O(n⁴) bit operations to build:
/// 1.2 s at n = 1000 and 118 s at n = 4000 (release build, m = 10, on a
/// 2 vCPU Intel Xeon). The paper's uniform datasets stop at n = 500.
const MAX_UNIFORM_N: usize = 1000;

fn cmd_generate(f: &Flags) {
    let kind = f
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("uniform");
    let mut rng = rand::SeedableRng::seed_from_u64(f.seed);
    let data = match kind {
        "uniform" if f.n > MAX_UNIFORM_N => die(&format!(
            "generate uniform: --n {} is above {MAX_UNIFORM_N}, the largest n the exact \
             sampler handles in seconds; use `rawt generate markov` for larger datasets",
            f.n
        )),
        "uniform" => UniformSampler::new(f.n).sample_dataset(f.n, f.m, &mut rng),
        "markov" => MarkovGen::identity_seeded(f.n, f.steps).dataset(f.m, &mut rng),
        other => die(&format!("unknown generator {other:?} (use uniform|markov)")),
    };
    println!(
        "# {kind} dataset: n = {}, m = {}, seed = {}",
        f.n, f.m, f.seed
    );
    for r in data.rankings() {
        println!("{r}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        die("usage: rawt <aggregate|compare|list|serve|route|top|session|similarity|distance|generate> …");
    };
    let flags = parse_flags(rest);
    match cmd.as_str() {
        "aggregate" => cmd_aggregate(&flags),
        "compare" => cmd_compare(&flags),
        "list" => cmd_list(&flags),
        "serve" => cmd_serve(&flags),
        "route" => cmd_route(&flags),
        "top" => cmd_top(&flags),
        "session" => cmd_session(&flags),
        "similarity" => cmd_similarity(&flags),
        "distance" => cmd_distance(&flags),
        "generate" => cmd_generate(&flags),
        other => die(&format!("unknown command {other:?}")),
    }
}
