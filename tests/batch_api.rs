//! End-to-end tests of `POST /v1/batches` (DESIGN.md §14.1) and the
//! bearer-token satellite: a batch over one dataset runs the whole spec
//! panel off a single cost-matrix build, reports match the in-process
//! [`Engine::run_batch`] on every deterministic field, the merged event
//! stream tags each line with its spec and sub-job, and an
//! authenticated server 401s everything except `GET /healthz`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rank_aggregation_with_ties::prelude::*;
use rank_aggregation_with_ties::ragen::UniformSampler;
use rank_aggregation_with_ties::rank_core::parse::parse_dataset_lines;
use rank_aggregation_with_ties::rank_core::telemetry::parse_exposition;
use rank_aggregation_with_ties::rank_core::Universe;
use service::client::{Client, ClientError};
use service::json::Json;
use service::proto::{BatchSubmission, JobSubmission, MAX_BATCH_SPECS};
use service::server::{Server, ServerConfig, ShutdownHandle};
use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn start_server(config: ServerConfig) -> (Client, ShutdownHandle, String) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let shutdown = server.shutdown_handle().expect("shutdown handle");
    std::thread::spawn(move || server.serve());
    (Client::new(&addr), shutdown, addr)
}

const PAPER_EXAMPLE: &str =
    "# the paper's §2.2 example\n[{A},{D},{B,C}]\n[{A},{B,C},{D}]\n[{D},{A,C},{B}]\n";

const PANEL: [&str; 4] = ["BioConsert", "Exact", "Borda", "KwikSort"];

fn panel_submission() -> BatchSubmission {
    BatchSubmission {
        seed: 7,
        ..BatchSubmission::new(PAPER_EXAMPLE, PANEL.iter().map(|s| s.to_string()).collect())
    }
}

/// The acceptance bar: a batch over the wire produces, per spec, the
/// same report as [`Engine::run_batch`] locally — score, outcome, seed
/// and ranking bit-identical (elapsed is wall clock; the wire `gap` is
/// the per-run certified gap, while `run_batch` rewrites gaps into
/// batch-relative m-gaps as a postprocess, so gaps are compared against
/// the scores both sides share).
#[test]
fn batch_reports_match_local_run_batch() {
    let (client, shutdown, _) = start_server(ServerConfig::default());

    // Local reference: parse + normalize exactly as the server does.
    let mut universe = Universe::new();
    let raw = parse_dataset_lines(PAPER_EXAMPLE, &mut universe).expect("parse");
    let norm = Normalization::Unification.apply(&raw).expect("normalize");
    let requests: Vec<AggregationRequest> = PANEL
        .iter()
        .map(|spec| {
            AggregationRequest::new(norm.dataset.clone(), AlgoSpec::parse(spec).expect("spec"))
                .with_seed(7)
        })
        .collect();
    let local = Engine::new().run_batch(&requests);

    let batch = client
        .submit_batch(&panel_submission())
        .expect("submit batch");
    assert_eq!(batch.jobs.len(), PANEL.len(), "one sub-job per spec");
    assert!(!batch.deduplicated);
    let status = client.wait_batch(batch.id).expect("wait batch");
    let jobs = status.get("jobs").and_then(Json::as_array).expect("jobs");
    assert_eq!(jobs.len(), PANEL.len());

    for ((job, local_report), spec) in jobs.iter().zip(&local).zip(PANEL) {
        assert_eq!(
            job.get("spec").and_then(Json::as_str),
            Some(local_report.spec.to_string().as_str()),
            "{spec}: sub-jobs must come back in request order"
        );
        let report = job.get("report").expect("report present");
        assert!(!report.is_null(), "{spec}: report must be final");
        assert_eq!(
            report.get("score").and_then(Json::as_u64),
            Some(local_report.score),
            "{spec}: scores must match"
        );
        assert_eq!(
            report.get("outcome").and_then(Json::as_str),
            Some(local_report.outcome.to_string().as_str()),
            "{spec}: outcomes must match"
        );
        assert_eq!(
            report.get("seed").and_then(Json::as_u64),
            Some(7),
            "{spec}: seed provenance"
        );
        let remote_ranking = report.get("ranking").expect("ranking").to_string();
        let local_ranking =
            service::proto::ranking_json(&norm.denormalize(&local_report.ranking), &universe);
        assert_eq!(
            Json::parse(&remote_ranking).expect("remote ranking"),
            Json::parse(&local_ranking).expect("local ranking"),
            "{spec}: rankings must match"
        );
    }
    shutdown.shutdown();
}

/// The amortization claim the batch endpoint exists for: the whole
/// panel rides ONE O(m·n²) cost-matrix build, observable through the
/// healthz `matrix_builds` counter. The panel here is heuristics-only:
/// `Exact` legitimately builds a second matrix over each *derived*
/// block dataset when its decomposition splits the instance (a
/// different fingerprint, not a cache miss on the submitted dataset),
/// which would obscure the one-build-per-submitted-dataset claim this
/// test pins.
#[test]
fn batched_panel_shares_one_matrix_build() {
    let (client, shutdown, _) = start_server(ServerConfig::default());
    let before = client
        .healthz()
        .expect("healthz")
        .get("matrix_builds")
        .and_then(Json::as_u64)
        .expect("matrix_builds in healthz");
    let heuristics = BatchSubmission {
        seed: 7,
        ..BatchSubmission::new(
            PAPER_EXAMPLE,
            ["BioConsert", "Borda", "KwikSort", "Chanas"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        )
    };
    let batch = client.submit_batch(&heuristics).expect("submit batch");
    client.wait_batch(batch.id).expect("wait batch");
    let after = client
        .healthz()
        .expect("healthz")
        .get("matrix_builds")
        .and_then(Json::as_u64)
        .expect("matrix_builds in healthz");
    assert_eq!(
        after - before,
        1,
        "a 4-spec heuristic batch over one dataset must build exactly one matrix"
    );
    shutdown.shutdown();
}

/// The merged stream: every line is tagged with its spec and sub-job
/// id, heartbeat-free here (the panel finishes fast), and each sub-job
/// contributes a complete started→finished lifecycle.
#[test]
fn batch_event_stream_is_tagged_and_complete() {
    let (client, shutdown, _) = start_server(ServerConfig::default());
    let batch = client
        .submit_batch(&panel_submission())
        .expect("submit batch");
    let mut started = std::collections::HashSet::new();
    let mut finished = std::collections::HashSet::new();
    for event in client.batch_events(batch.id).expect("stream") {
        let event = event.expect("event line");
        if event.get("event").and_then(Json::as_str) == Some("heartbeat") {
            continue;
        }
        let spec = event
            .get("spec")
            .and_then(Json::as_str)
            .expect("every merged line is tagged with its spec")
            .to_owned();
        let job = event
            .get("job")
            .and_then(Json::as_u64)
            .expect("every merged line is tagged with its sub-job id");
        assert!(
            batch.jobs.iter().any(|j| j.id == job && j.spec == spec),
            "tag ({spec}, {job}) must name a submitted sub-job"
        );
        match event.get("event").and_then(Json::as_str) {
            Some("started") => {
                started.insert(spec);
            }
            Some("finished") => {
                finished.insert(spec);
            }
            _ => {}
        }
    }
    for spec in PANEL {
        // The canonical spec string may differ in case from the request
        // string; compare through the parsed spec.
        let canonical = AlgoSpec::parse(spec).expect("spec").to_string();
        assert!(started.contains(&canonical), "{spec}: no started event");
        assert!(finished.contains(&canonical), "{spec}: no finished event");
    }
    shutdown.shutdown();
}

/// Batch validation: bad specs 400 with the offending spec named, an
/// empty panel 400s, and an oversized panel is rejected before
/// admission.
#[test]
fn batch_validation_rejects_bad_panels() {
    let (client, shutdown, _) = start_server(ServerConfig::default());
    let bad_spec = BatchSubmission::new(PAPER_EXAMPLE, vec!["NoSuchAlgo".into()]);
    match client.submit_batch(&bad_spec) {
        Err(ClientError::Status {
            status: 400, body, ..
        }) => {
            assert!(
                body.contains("NoSuchAlgo"),
                "400 must name the bad spec: {body}"
            );
        }
        other => panic!("bad spec must 400, got {other:?}"),
    }
    let empty = BatchSubmission::new(PAPER_EXAMPLE, Vec::new());
    assert!(
        matches!(
            client.submit_batch(&empty),
            Err(ClientError::Status { status: 400, .. })
        ),
        "empty panel must 400"
    );
    let oversized = BatchSubmission::new(
        PAPER_EXAMPLE,
        (0..=MAX_BATCH_SPECS).map(|_| "Borda".to_owned()).collect(),
    );
    assert!(
        matches!(
            client.submit_batch(&oversized),
            Err(ClientError::Status { status: 400, .. })
        ),
        "panel beyond MAX_BATCH_SPECS must 400"
    );
    shutdown.shutdown();
}

/// Idempotency keys work for batches exactly as for jobs: a resubmission
/// with the same key reattaches (HTTP 200, `deduplicated: true`) to the
/// batch the first request created, same id, same sub-jobs.
#[test]
fn batch_idempotency_key_deduplicates() {
    let (client, shutdown, _) = start_server(ServerConfig::default());
    let submission = BatchSubmission {
        idempotency_key: Some("panel-once".into()),
        ..panel_submission()
    };
    let first = client.submit_batch(&submission).expect("first submit");
    let second = client.submit_batch(&submission).expect("second submit");
    assert!(!first.deduplicated);
    assert!(second.deduplicated, "same key must deduplicate");
    assert_eq!(first.id, second.id);
    assert_eq!(first.jobs, second.jobs);
    shutdown.shutdown();
}

/// The bearer-token satellite: with `--token` everything except
/// `GET /healthz` requires `Authorization: Bearer <token>`; the right
/// token passes end to end; a wrong or missing one gets 401.
#[test]
fn bearer_token_guards_everything_but_healthz() {
    let (bare, shutdown, addr) = start_server(ServerConfig {
        token: Some("s3cret".into()),
        ..ServerConfig::default()
    });

    // Unauthenticated: probes pass, work does not.
    assert_eq!(
        bare.healthz()
            .expect("healthz stays open")
            .get("status")
            .and_then(Json::as_str),
        Some("ok")
    );
    let submission = JobSubmission {
        algo: Some("Exact".into()),
        ..JobSubmission::new(PAPER_EXAMPLE)
    };
    assert!(
        matches!(
            bare.submit(&submission),
            Err(ClientError::Status { status: 401, .. })
        ),
        "missing token must 401"
    );
    assert!(
        matches!(
            bare.submit_batch(&panel_submission()),
            Err(ClientError::Status { status: 401, .. })
        ),
        "missing token must 401 for batches too"
    );

    // Wrong token: same refusal.
    let wrong = Client::with_token(&addr, "not-it");
    assert!(
        matches!(
            wrong.submit(&submission),
            Err(ClientError::Status { status: 401, .. })
        ),
        "wrong token must 401"
    );

    // Right token: full lifecycle works, streams included.
    let authed = Client::with_token(&addr, "s3cret");
    let job = authed.submit(&submission).expect("authenticated submit");
    let done = authed.wait(job.id).expect("authenticated wait");
    assert_eq!(
        done.get("report")
            .and_then(|r| r.get("score"))
            .and_then(Json::as_u64),
        Some(5),
        "the §2.2 example's optimal score"
    );
    shutdown.shutdown();
}

/// `rawt_jobs_admitted_total{class="fresh"}`, read from `GET /metrics`.
fn fresh_admissions(client: &Client) -> u64 {
    let text = client.metrics_text().expect("GET /metrics");
    parse_exposition(&text)
        .iter()
        .flat_map(|family| &family.samples)
        .filter(|sample| sample.name == "rawt_jobs_admitted_total")
        .filter(|sample| sample.labels == [("class".to_owned(), "fresh".to_owned())])
        .map(|sample| sample.value as u64)
        .sum()
}

/// Concurrent twins of one batch key: the key is checked and the panel
/// admitted in one critical section, so exactly one panel enters the
/// scheduler and every other twin reattaches to it.
#[test]
fn concurrent_batch_twins_of_one_key_admit_one_panel() {
    let (client, shutdown, addr) = start_server(ServerConfig::default());
    let warm = client
        .submit_batch(&panel_submission())
        .expect("warm-up batch");
    client.wait_batch(warm.id).expect("warm-up batch finishes");
    let before = fresh_admissions(&client);
    let barrier = Arc::new(Barrier::new(8));
    let twins: Vec<_> = (0..8)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let client = Client::new(&addr);
            std::thread::spawn(move || {
                let submission = BatchSubmission {
                    idempotency_key: Some("panel-twins".into()),
                    ..panel_submission()
                };
                barrier.wait();
                client.submit_batch(&submission).expect("submit a twin")
            })
        })
        .collect();
    let submitted: Vec<_> = twins
        .into_iter()
        .map(|twin| twin.join().expect("twin thread"))
        .collect();
    let ids: BTreeSet<u64> = submitted.iter().map(|b| b.id).collect();
    assert_eq!(ids.len(), 1, "one key, one batch");
    assert_eq!(
        submitted.iter().filter(|b| !b.deduplicated).count(),
        1,
        "exactly one twin created the batch"
    );
    assert!(submitted.iter().all(|b| b.jobs == submitted[0].jobs));
    assert_eq!(
        fresh_admissions(&client) - before,
        PANEL.len() as u64,
        "only the winning twin's panel entered the scheduler"
    );
    client
        .wait_batch(submitted[0].id)
        .expect("the batch finishes");
    shutdown.shutdown();
}

/// A dataset on which BioConsert runs well past a 40 ms budget, in the
/// wire text format.
fn slow_dataset_text() -> String {
    let mut rng = StdRng::seed_from_u64(11);
    let data = UniformSampler::new(200).sample_dataset(200, 20, &mut rng);
    data.rankings().iter().map(|r| format!("{r}\n")).collect()
}

/// The merged batch stream ends as soon as the last sub-job is done:
/// sub-job publication wakes it, so it never sleeps through the end.
/// Measured per panel as the gap between the last per-job stream ending
/// (each is woken directly by its own job) and the merged stream ending.
#[test]
fn merged_stream_ends_promptly_after_the_last_sub_job() {
    let (client, shutdown, addr) = start_server(ServerConfig::default());
    let text = slow_dataset_text();
    let mut delays = Vec::new();
    for seed in 0..7 {
        let batch = client
            .submit_batch(&BatchSubmission {
                seed,
                budget: Some(Duration::from_millis(40)),
                ..BatchSubmission::new(
                    text.clone(),
                    vec!["BioConsert".to_owned(), "BestOf(BioConsert,2)".to_owned()],
                )
            })
            .expect("submit batch");
        let job_streams: Vec<_> = batch
            .jobs
            .iter()
            .map(|job| {
                let client = Client::new(&addr);
                let id = job.id;
                std::thread::spawn(move || {
                    for event in client.events(id).expect("job stream") {
                        event.expect("job event");
                    }
                    Instant::now()
                })
            })
            .collect();
        for event in client.batch_events(batch.id).expect("batch stream") {
            event.expect("batch event");
        }
        let merged_end = Instant::now();
        let last_job_end = job_streams
            .into_iter()
            .map(|stream| stream.join().expect("job stream thread"))
            .max()
            .expect("two sub-jobs");
        delays.push(merged_end.saturating_duration_since(last_job_end));
    }
    delays.sort();
    let median = delays[delays.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "merged stream ended {median:?} after its last sub-job (all: {delays:?})"
    );
    shutdown.shutdown();
}

/// `retain_done` bounds batches too: a batch record goes with the last of
/// its sub-jobs, and its idempotency key with it, so finished panels do
/// not accumulate. The newest batches still resolve in full.
#[test]
fn batch_records_leave_with_their_last_sub_job() {
    let (client, shutdown, _) = start_server(ServerConfig {
        retain_done: 4,
        ..ServerConfig::default()
    });
    let batches: Vec<_> = (0..8)
        .map(|i| {
            let batch = client
                .submit_batch(&BatchSubmission {
                    seed: i,
                    idempotency_key: Some(format!("panel-{i}")),
                    ..BatchSubmission::new(PAPER_EXAMPLE, vec!["Borda".into(), "Exact".into()])
                })
                .expect("submit batch");
            client.wait_batch(batch.id).expect("batch finishes");
            batch
        })
        .collect();
    let gone = |id: u64| {
        matches!(
            client.batch_status(id),
            Err(ClientError::Status { status: 404, .. })
        )
    };
    for old in &batches[..5] {
        assert!(gone(old.id), "batch {} must be evicted", old.id);
    }
    for new in &batches[6..] {
        let status = client
            .batch_status(new.id)
            .expect("a recent batch resolves");
        assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
        for job in &new.jobs {
            client.status(job.id).expect("its sub-jobs resolve too");
        }
    }
    // An evicted batch's key is released: resubmitting it runs afresh.
    let again = client
        .submit_batch(&BatchSubmission {
            seed: 0,
            idempotency_key: Some("panel-0".into()),
            ..BatchSubmission::new(PAPER_EXAMPLE, vec!["Borda".into(), "Exact".into()])
        })
        .expect("resubmit an evicted key");
    assert!(!again.deduplicated, "an evicted batch's key must be free");
    shutdown.shutdown();
}
