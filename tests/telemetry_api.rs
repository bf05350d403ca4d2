//! Telemetry tests (DESIGN.md §15): histogram bucket discipline and
//! merge algebra, the `/metrics` Prometheus exposition (parse ↔ render
//! round-trip, tier coverage), per-job phase breakdowns summing to the
//! reported wall clock, router fleet re-namespacing (`worker="ADDR"`),
//! the configurable heartbeat cadence, the rule that a journal restart
//! starts a *fresh* registry — recovered jobs are re-served, never
//! re-counted — and the agreement of the time-to-first-incumbent
//! histogram with the reports' anytime traces.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rank_aggregation_with_ties::prelude::*;
use rank_aggregation_with_ties::ragen::UniformSampler;
use rank_aggregation_with_ties::rank_core::parse::parse_dataset_lines;
use rank_aggregation_with_ties::rank_core::telemetry::{
    bucket_bound_secs, parse_exposition, render_families, Family, Histogram, HistogramSnapshot,
    MetricKind, HISTOGRAM_BUCKETS,
};
use rank_aggregation_with_ties::rank_core::Universe;
use service::client::Client;
use service::json::Json;
use service::proto::JobSubmission;
use service::router::{Router, RouterConfig, RouterShutdown};
use service::server::{Server, ServerConfig, ShutdownHandle};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const PAPER_EXAMPLE: &str =
    "# the paper's §2.2 example\n[{A},{D},{B,C}]\n[{A},{B,C},{D}]\n[{D},{A,C},{B}]\n";

/// Bind an in-process server on an ephemeral port and serve it on a
/// background thread.
fn start_server(config: ServerConfig) -> (Client, ShutdownHandle, String) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let shutdown = server.shutdown_handle().expect("shutdown handle");
    std::thread::spawn(move || server.serve());
    (Client::new(&addr), shutdown, addr)
}

fn start_router(workers: Vec<String>) -> (Client, RouterShutdown) {
    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig {
            workers,
            token: None,
        },
    )
    .expect("bind router");
    let addr = router.local_addr().expect("router addr").to_string();
    let shutdown = router.shutdown_handle().expect("router shutdown handle");
    std::thread::spawn(move || router.serve());
    (Client::new(&addr), shutdown)
}

/// A fresh scratch directory for one test's journal.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rawt-telemetry-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sum every series of a counter/gauge family across labels.
fn family_total(families: &[Family], name: &str) -> f64 {
    families
        .iter()
        .filter(|f| f.name == name)
        .flat_map(|f| &f.samples)
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

/// Total observation count of histogram family `name` across labels.
fn histogram_count(families: &[Family], name: &str) -> f64 {
    let suffix = format!("{name}_count");
    families
        .iter()
        .filter(|f| f.name == name)
        .flat_map(|f| &f.samples)
        .filter(|s| s.name == suffix)
        .map(|s| s.value)
        .sum()
}

fn scrape(client: &Client) -> Vec<Family> {
    parse_exposition(&client.metrics_text().expect("GET /metrics"))
}

// ------------------------------------------------ histogram algebra

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bucket discipline: every observation lands in exactly one bucket
    /// whose upper bound covers it and whose predecessor's does not.
    #[test]
    fn histogram_buckets_cover_observations(micros in 0u64..1u64 << 45) {
        let h = Histogram::new();
        h.record_micros(micros);
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, 1);
        prop_assert_eq!(snap.sum_micros, micros);
        let hot: Vec<usize> = (0..HISTOGRAM_BUCKETS)
            .filter(|&i| snap.buckets[i] != 0)
            .collect();
        prop_assert_eq!(hot.len(), 1, "exactly one bucket per observation");
        let i = hot[0];
        let secs = micros as f64 / 1e6;
        if let Some(bound) = bucket_bound_secs(i) {
            prop_assert!(secs <= bound, "{secs}s must fit under bucket {i} ({bound}s)");
        }
        if i > 0 {
            let below = bucket_bound_secs(i - 1).expect("finite bound below");
            prop_assert!(secs > below, "{secs}s must not fit bucket {}", i - 1);
        }
    }

    /// Merging snapshots is element-wise addition, so it is associative
    /// and commutative — the property the router's fleet scrape and the
    /// dashboard's cross-worker aggregation both rely on.
    #[test]
    fn histogram_merge_is_associative(
        a in proptest::collection::vec(0u64..1 << 40, 16),
        b in proptest::collection::vec(0u64..1 << 40, 16),
        c in proptest::collection::vec(0u64..1 << 40, 16),
    ) {
        let snap = |values: &[u64]| {
            let h = Histogram::new();
            for &v in values {
                h.record_micros(v);
            }
            h.snapshot()
        };
        let (sa, sb, sc) = (snap(&a), snap(&b), snap(&c));

        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);

        let mut right_tail = sb.clone();
        right_tail.merge(&sc);
        let mut right = sa.clone();
        right.merge(&right_tail);

        prop_assert_eq!(&left, &right, "(a+b)+c == a+(b+c)");

        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba, "a+b == b+a");

        let mut padded = left.clone();
        padded.merge(&HistogramSnapshot::default());
        prop_assert_eq!(&padded, &left, "empty snapshot is the identity");
    }
}

// ------------------------------------------------ exposition round-trip

/// `/metrics` parses as Prometheus text exposition, covers every tier
/// of the stack, and survives a parse → render → parse round-trip.
#[test]
fn metrics_exposition_parses_and_round_trips() {
    let dir = scratch_dir("roundtrip");
    let (client, shutdown, _) = start_server(ServerConfig {
        journal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let job = client
        .submit(&JobSubmission {
            algo: Some("BioConsert".to_owned()),
            ..JobSubmission::new(PAPER_EXAMPLE)
        })
        .expect("submit");
    client.wait(job.id).expect("wait");

    let text = client.metrics_text().expect("GET /metrics");
    let families = parse_exposition(&text);
    assert!(!families.is_empty(), "exposition must parse into families");

    // One family per tier proves the whole stack reports to one registry:
    // kernel, scheduler, session/server, journal, HTTP front.
    for name in [
        "rawt_solve_seconds",          // kernel
        "rawt_matrix_builds_total",    // kernel / cache
        "rawt_queue_depth",            // scheduler
        "rawt_jobs_finished_total",    // engine lifecycle
        "rawt_jobs_accepted_total",    // server
        "rawt_journal_append_seconds", // journal
        "rawt_http_requests_total",    // HTTP front
    ] {
        assert!(
            families.iter().any(|f| f.name == name),
            "family {name} missing from exposition:\n{text}"
        );
    }
    assert_eq!(family_total(&families, "rawt_jobs_finished_total"), 1.0);
    assert!(histogram_count(&families, "rawt_journal_append_seconds") >= 1.0);

    // Histogram families expand to cumulative buckets ending at +Inf,
    // and _count equals the +Inf bucket.
    let solve = families
        .iter()
        .find(|f| f.name == "rawt_solve_seconds")
        .expect("solve histogram");
    assert_eq!(solve.kind, MetricKind::Histogram);
    let mut last = -1.0;
    for sample in solve.samples.iter().filter(|s| s.name.ends_with("_bucket")) {
        assert!(
            sample.value >= last,
            "bucket counts must be cumulative in {solve:?}"
        );
        last = sample.value;
    }
    let inf = solve
        .samples
        .iter()
        .filter(|s| s.label("le") == Some("+Inf"))
        .map(|s| s.value)
        .sum::<f64>();
    let count = solve
        .samples
        .iter()
        .filter(|s| s.name.ends_with("_count"))
        .map(|s| s.value)
        .sum::<f64>();
    assert_eq!(inf, count, "+Inf bucket must equal _count");

    // Round-trip: render the parsed families and parse again.
    let rendered = render_families(&families);
    assert_eq!(
        parse_exposition(&rendered),
        families,
        "parse(render(parse(text))) must be a fixed point"
    );

    shutdown.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------ phase breakdowns

/// The phase breakdown accounts for the job end to end: `solve` is the
/// reported kernel wall clock, and the phases sum to the breakdown's
/// own total — locally and through the wire JSON.
#[test]
fn phase_breakdown_sums_to_elapsed() {
    let mut universe = Universe::new();
    let raw = parse_dataset_lines(PAPER_EXAMPLE, &mut universe).expect("parse");
    let norm = Normalization::Unification.apply(&raw).expect("normalize");
    let report = Engine::new()
        .run(&AggregationRequest::new(norm.dataset.clone(), AlgoSpec::BioConsert).with_seed(7));

    assert_eq!(
        report.phases.solve, report.elapsed,
        "solve phase is the kernel wall clock by construction"
    );
    assert!(!report.phases.matrix_cached, "first run builds the matrix");
    let sum = report.phases.queue_wait
        + report.phases.matrix_build
        + report.phases.solve
        + report.phases.serialize;
    assert_eq!(sum, report.phases.total(), "total() is the phase sum");

    // Over the wire: the JSON phases object carries the same invariant.
    let (client, shutdown, _) = start_server(ServerConfig::default());
    let job = client
        .submit(&JobSubmission {
            algo: Some("BioConsert".to_owned()),
            seed: 7,
            ..JobSubmission::new(PAPER_EXAMPLE)
        })
        .expect("submit");
    let status = client.wait(job.id).expect("wait");
    let wire = status.get("report").expect("report");
    let phases = wire.get("phases").expect("phases in wire report");
    let field = |key: &str| {
        phases
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("phase field {key} in {phases}"))
    };
    let elapsed = wire
        .get("elapsed_secs")
        .and_then(Json::as_f64)
        .expect("elapsed_secs");
    let solve = field("solve_secs");
    assert!(
        (solve - elapsed).abs() <= 2e-6,
        "wire solve phase ({solve}) must equal elapsed ({elapsed}) \
         within serialization rounding"
    );
    for key in ["queue_wait_secs", "matrix_build_secs", "serialize_secs"] {
        assert!(field(key) >= 0.0, "{key} must be non-negative");
    }
    // A journaled-then-served report measures serialization once.
    assert!(field("serialize_secs") >= 0.0);
    shutdown.shutdown();
}

// ------------------------------------------------ router fleet scrape

/// The router's `/metrics` is the whole fleet: every worker-sourced
/// series gains a `worker="ADDR"` label, and the router's own proxy
/// metrics ride alongside.
#[test]
fn router_metrics_re_namespace_worker_series() {
    let worker = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind worker");
    let worker_addr = worker.local_addr().expect("worker addr").to_string();
    let worker_shutdown = worker.shutdown_handle().expect("worker shutdown");
    std::thread::spawn(move || worker.serve());

    let (client, router_shutdown) = start_router(vec![worker_addr.clone()]);
    let job = client
        .submit(&JobSubmission {
            algo: Some("Borda".to_owned()),
            ..JobSubmission::new(PAPER_EXAMPLE)
        })
        .expect("submit through router");
    client.wait(job.id).expect("wait through router");

    let families = scrape(&client);

    // Worker series are re-namespaced: the solve histogram only exists
    // on workers, so every one of its samples must carry the label.
    let solve = families
        .iter()
        .find(|f| f.name == "rawt_solve_seconds")
        .expect("worker solve histogram visible through the router");
    assert!(!solve.samples.is_empty());
    for sample in &solve.samples {
        assert_eq!(
            sample.label("worker"),
            Some(worker_addr.as_str()),
            "worker series must be tagged with the worker address: {sample:?}"
        );
    }

    // The router's own families are present, already worker-labelled by
    // their target.
    let proxy = families
        .iter()
        .find(|f| f.name == "rawt_router_proxy_seconds")
        .expect("router proxy histogram");
    assert!(proxy
        .samples
        .iter()
        .all(|s| s.label("worker") == Some(worker_addr.as_str())));
    assert!(
        family_total(&families, "rawt_jobs_finished_total") >= 1.0,
        "fleet scrape must include the worker's job counters"
    );

    router_shutdown.shutdown();
    worker_shutdown.shutdown();
}

// ------------------------------------------------ heartbeat knob

/// `ServerConfig::heartbeat_secs` drives the event-stream keepalive: an
/// idle follow job's quiet stream emits a heartbeat within a couple of
/// the configured 1-second periods (the former hard-wired constant was
/// 15s, far beyond this test's deadline).
#[test]
fn heartbeat_interval_is_configurable() {
    assert_eq!(
        ServerConfig::default().heartbeat_secs,
        15,
        "default cadence stays at the historical 15s"
    );
    let (client, shutdown, _) = start_server(ServerConfig {
        heartbeat_secs: 1,
        ..ServerConfig::default()
    });
    // A follow job goes quiet after its first `resolved` and stays quiet
    // until its dataset changes: a silent stretch by construction, not by
    // racing a busy worker.
    client
        .create_dataset("quiet", PAPER_EXAMPLE)
        .expect("PUT the dataset");
    let job = client
        .submit(&JobSubmission {
            algo: Some("BioConsert".to_owned()),
            follow: true,
            ..JobSubmission::for_dataset("quiet")
        })
        .expect("submit the follow job");
    let mut events = client.events(job.id).expect("event stream");
    let kind = |event: &Json| event.get("event").and_then(Json::as_str).map(str::to_owned);
    for event in events.by_ref() {
        if kind(&event.expect("event line")).as_deref() == Some("resolved") {
            break;
        }
    }

    // A 1s cadence must pad the quiet stream with a heartbeat before any
    // real event, long before the 15s default would.
    let quiet_since = Instant::now();
    let next = events
        .next()
        .expect("the follow stream stays open")
        .expect("event line");
    assert_eq!(
        kind(&next).as_deref(),
        Some("heartbeat"),
        "a 1s cadence must heartbeat the quiet stream before any real event"
    );
    assert!(
        quiet_since.elapsed() < Duration::from_secs(5),
        "heartbeat took {:?} at a 1s cadence",
        quiet_since.elapsed()
    );

    drop(events);
    client.cancel(job.id).expect("end the follow");
    client.wait(job.id).expect("follow job settles");
    shutdown.shutdown();
}

// ------------------------------------------------ restart semantics

/// Telemetry is process-lifetime state: a restart over the same journal
/// re-serves the finished report but starts a fresh registry — the
/// recovered job is *not* re-counted as started or finished, so fleet
/// dashboards never double-count work across crashes.
#[test]
fn journal_recovery_does_not_double_count_metrics() {
    let dir = scratch_dir("recovery");
    let config = || ServerConfig {
        journal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    let (client, shutdown, _) = start_server(config());
    let job = client
        .submit(&JobSubmission {
            algo: Some("BioConsert".to_owned()),
            seed: 3,
            ..JobSubmission::new(PAPER_EXAMPLE)
        })
        .expect("submit");
    let finished = client.wait(job.id).expect("wait");
    let first_score = finished
        .get("report")
        .and_then(|r| r.get("score"))
        .and_then(Json::as_u64)
        .expect("score before restart");
    let families = scrape(&client);
    assert_eq!(family_total(&families, "rawt_jobs_started_total"), 1.0);
    assert_eq!(family_total(&families, "rawt_jobs_finished_total"), 1.0);
    shutdown.shutdown();
    // Let the listener actually release the port before restarting.
    std::thread::sleep(Duration::from_millis(50));

    let (client, shutdown, _) = start_server(config());
    let status = client.status(job.id).expect("recovered job is served");
    assert_eq!(
        status
            .get("report")
            .and_then(|r| r.get("score"))
            .and_then(Json::as_u64),
        Some(first_score),
        "restart must re-serve the journaled report"
    );
    let families = scrape(&client);
    assert_eq!(
        family_total(&families, "rawt_jobs_started_total"),
        0.0,
        "a recovered finished job must not re-run"
    );
    assert_eq!(
        family_total(&families, "rawt_jobs_finished_total"),
        0.0,
        "a recovered finished job must not re-count as finished"
    );
    assert!(
        histogram_count(&families, "rawt_journal_replay_seconds") >= 1.0,
        "the replay itself is what the fresh registry records"
    );
    shutdown.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The registry's time-to-first-incumbent histogram agrees with the
/// anytime traces of the runs it observed. The engine records each
/// report's own `time_to_first_incumbent()`, so for every paper-panel
/// algorithm the series holds exactly that batch's observations: each
/// trace value sits in the log₂ bucket whose bound covers it, within the
/// 1 µs the registry truncates to.
#[test]
fn time_to_first_incumbent_buckets_agree_with_the_traces() {
    let mut rng = StdRng::seed_from_u64(11);
    let n = 12;
    let data = UniformSampler::new(n).sample_dataset(n, 6, &mut rng);
    let specs: Vec<AlgoSpec> = paper_panel(5)
        .into_iter()
        .filter(|s| s.max_n().is_none_or(|cap| n <= cap))
        .collect();
    let engine = Engine::new();
    let reports = engine.run_batch(&AggregationRequest::batch(data).specs(specs).seed(5).build());

    let mut checked = 0;
    for report in &reports {
        let name = report.algorithm();
        let snapshot = engine
            .metrics()
            .histogram_snapshot("rawt_time_to_first_incumbent_seconds", &[("algo", &name)]);
        let Some(trace) = report.time_to_first_incumbent() else {
            assert!(snapshot.is_none(), "{name}: no incumbent, no observation");
            continue;
        };
        let snapshot = snapshot.unwrap_or_else(|| panic!("{name}: no histogram series"));
        assert_eq!(snapshot.count, 1, "{name}: one run, one observation");
        assert_eq!(
            snapshot.sum_micros as u128,
            trace.as_micros(),
            "{name}: sum"
        );
        let bucket = snapshot
            .buckets
            .iter()
            .position(|&c| c == 1)
            .expect("the one observation's bucket");
        let trace_s = trace.as_secs_f64();
        let bound = bucket_bound_secs(bucket).unwrap_or(f64::INFINITY);
        let below = bucket.checked_sub(1).and_then(bucket_bound_secs);
        assert!(
            below.is_none_or(|b| b < trace_s) && trace_s < bound + 1e-6,
            "{name}: trace {trace_s}s outside bucket {bucket} ({below:?}s, {bound}s]"
        );
        checked += 1;
    }
    assert!(
        checked >= 8,
        "only {checked} reports carried a first incumbent"
    );
}
