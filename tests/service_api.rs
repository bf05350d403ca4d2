//! End-to-end tests of the network aggregation service (DESIGN.md §10):
//! wire-level parity with the in-process engine, streamed incumbent
//! ordering, cancellation over the wire, load shedding, the
//! malformed-input paths that must 400 instead of panicking a thread, and
//! keep-alive event streams (a `finished` line implies a done status, a
//! truncated stream is an error, a drain spares a live stream).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rank_aggregation_with_ties::prelude::*;
use rank_aggregation_with_ties::ragen::UniformSampler;
use rank_aggregation_with_ties::rank_core::parse::parse_dataset_lines;
use rank_aggregation_with_ties::rank_core::telemetry::parse_exposition;
use rank_aggregation_with_ties::rank_core::Universe;
use service::client::{Client, ClientError};
use service::http::{write_request, ClientResponse, MAX_BODY_BYTES};
use service::json::Json;
use service::proto::{ranking_json, JobSubmission};
use service::server::{Server, ServerConfig, ShutdownHandle};
use std::collections::BTreeSet;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Bind an in-process server on an ephemeral port and serve it on a
/// background thread.
fn start_server(config: ServerConfig) -> (Client, ShutdownHandle, String) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let shutdown = server.shutdown_handle().expect("shutdown handle");
    std::thread::spawn(move || server.serve());
    (Client::new(&addr), shutdown, addr)
}

fn default_server() -> (Client, ShutdownHandle, String) {
    start_server(ServerConfig::default())
}

const PAPER_EXAMPLE: &str =
    "# the paper's §2.2 example\n[{A},{D},{B,C}]\n[{A},{B,C},{D}]\n[{D},{A,C},{B}]\n";

/// A dataset big enough that BioConsert cannot finish before a cancel
/// issued right after its first incumbent lands, serialized to the wire
/// text format.
fn big_dataset_text(n: usize, m: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = UniformSampler::new(n).sample_dataset(n, m, &mut rng);
    let mut text = String::new();
    for r in data.rankings() {
        text.push_str(&r.to_string());
        text.push('\n');
    }
    text
}

/// Send a raw request body (possibly malformed) and return status + body.
fn raw_post(addr: &str, path: &str, body: &str) -> (u16, String) {
    raw_request(addr, "POST", path, body)
}

/// [`raw_post`] with any method.
fn raw_request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(
        &mut stream,
        method,
        path,
        addr,
        Some(("application/json", body.as_bytes())),
        false,
    )
    .expect("send");
    let response = ClientResponse::read(stream).expect("response head");
    let status = response.status;
    (status, response.body_string().expect("response body"))
}

// ------------------------------------------------------------ wire parity

/// The acceptance bar: a remote aggregation is bit-identical to the
/// in-process engine for the same dataset/spec/seed — ranking, score,
/// and trace (scores; timings are wall clock).
#[test]
fn remote_report_is_bit_identical_to_local_engine_run() {
    let (client, shutdown, _) = default_server();
    for (spec_text, spec) in [
        ("BioConsert", AlgoSpec::BioConsert),
        ("Exact", AlgoSpec::Exact),
        (
            "BestOf(KwikSort,7)",
            AlgoSpec::BestOf {
                base: Box::new(AlgoSpec::KwikSort),
                runs: 7,
            },
        ),
    ] {
        // Local: parse + normalize exactly as the server does.
        let mut universe = Universe::new();
        let raw = parse_dataset_lines(PAPER_EXAMPLE, &mut universe).expect("parse");
        let norm = Normalization::Unification.apply(&raw).expect("normalize");
        let local = Engine::new()
            .run(&AggregationRequest::new(norm.dataset.clone(), spec.clone()).with_seed(99));

        // Remote: same text over the wire.
        let job = client
            .submit(&JobSubmission {
                algo: Some(spec_text.to_owned()),
                seed: 99,
                ..JobSubmission::new(PAPER_EXAMPLE)
            })
            .expect("submit");
        let status = client.wait(job.id).expect("wait");
        let report = status.get("report").expect("report present");

        assert_eq!(
            report.get("score").and_then(Json::as_u64),
            Some(local.score),
            "{spec_text}: scores must match"
        );
        assert_eq!(
            report.get("outcome").and_then(Json::as_str),
            Some(local.outcome.to_string().as_str()),
            "{spec_text}: outcomes must match"
        );
        assert_eq!(
            report.get("seed").and_then(Json::as_u64),
            Some(99),
            "{spec_text}: seed provenance"
        );
        // Ranking: compare through the shared serializer, as JSON trees.
        let local_ranking =
            Json::parse(&ranking_json(&norm.denormalize(&local.ranking), &universe))
                .expect("local ranking serializes");
        assert_eq!(
            report.get("ranking"),
            Some(&local_ranking),
            "{spec_text}: rankings must match"
        );
        // Trace: the same strictly-decreasing score sequence.
        let remote_scores: Vec<u64> = report
            .get("trace")
            .and_then(Json::as_array)
            .expect("trace present")
            .iter()
            .filter_map(|p| p.get("score").and_then(Json::as_u64))
            .collect();
        let local_scores: Vec<u64> = local.trace.iter().map(|p| p.score).collect();
        assert_eq!(
            remote_scores, local_scores,
            "{spec_text}: traces must match"
        );
    }
    shutdown.shutdown();
}

// --------------------------------------------------------- event streaming

#[test]
fn streamed_incumbents_strictly_decrease_and_end_at_the_report_score() {
    let (client, shutdown, _) = default_server();
    let job = client
        .submit(&JobSubmission {
            algo: Some("BioConsert".to_owned()),
            ..JobSubmission::new(big_dataset_text(60, 8, 3))
        })
        .expect("submit");
    let events: Vec<Json> = client
        .events(job.id)
        .expect("stream")
        .collect::<Result<_, _>>()
        .expect("well-formed events");
    let kind = |e: &Json| e.get("event").and_then(Json::as_str).unwrap().to_owned();
    assert_eq!(kind(&events[0]), "started", "{events:?}");
    assert_eq!(kind(events.last().unwrap()), "finished", "{events:?}");
    let incumbents: Vec<u64> = events
        .iter()
        .filter(|e| kind(e) == "incumbent")
        .map(|e| e.get("score").and_then(Json::as_u64).unwrap())
        .collect();
    assert!(!incumbents.is_empty(), "at least the final incumbent");
    assert!(
        incumbents.windows(2).all(|w| w[1] < w[0]),
        "incumbent scores must strictly decrease: {incumbents:?}"
    );
    let report_score = client
        .status(job.id)
        .expect("status")
        .get("report")
        .and_then(|r| r.get("score"))
        .and_then(Json::as_u64)
        .expect("final score");
    assert_eq!(
        *incumbents.last().unwrap(),
        report_score,
        "the last streamed incumbent is the reported consensus"
    );
    // The replay log serves late subscribers identically.
    let replay: Vec<Json> = client
        .events(job.id)
        .expect("replay stream")
        .collect::<Result<_, _>>()
        .expect("well-formed replay");
    assert_eq!(replay, events, "replay must match the live stream");
    shutdown.shutdown();
}

/// The lower-bound channel over the wire (DESIGN.md §11.2): an exact job's
/// NDJSON stream carries strictly increasing `lower_bound` events that
/// never exceed any incumbent, `gap` fields equal `score − lower_bound`,
/// and a proved-optimal job ends with `lower_bound == score` in both the
/// stream and the final report.
#[test]
fn exact_jobs_stream_certified_lower_bounds_over_the_wire() {
    let (client, shutdown, _) = default_server();
    let job = client
        .submit(&JobSubmission {
            algo: Some("Exact".to_owned()),
            seed: 5,
            ..JobSubmission::new(big_dataset_text(14, 4, 31))
        })
        .expect("submit");
    let events: Vec<Json> = client
        .events(job.id)
        .expect("stream")
        .collect::<Result<_, _>>()
        .expect("well-formed events");
    let mut bounds: Vec<u64> = Vec::new();
    let mut scores: Vec<u64> = Vec::new();
    let mut last_bound: Option<u64> = None;
    let mut best_score: Option<u64> = None;
    for event in &events {
        match event.get("event").and_then(Json::as_str) {
            Some("incumbent") => {
                let score = event.get("score").and_then(Json::as_u64).unwrap();
                assert_eq!(
                    event.get("gap").and_then(Json::as_u64),
                    last_bound.map(|lb| score - lb),
                    "wire incumbent gap must be score − lower_bound: {event}"
                );
                best_score = Some(score);
                scores.push(score);
            }
            Some("lower_bound") => {
                let lb = event.get("lower_bound").and_then(Json::as_u64).unwrap();
                assert!(
                    last_bound.is_none_or(|prev| prev < lb),
                    "wire bounds must strictly increase: {events:?}"
                );
                assert_eq!(
                    event.get("gap").and_then(Json::as_u64),
                    best_score.map(|s| s - lb),
                    "wire bound gap must be best score − lower_bound: {event}"
                );
                last_bound = Some(lb);
                bounds.push(lb);
            }
            _ => {}
        }
    }
    assert!(
        !bounds.is_empty(),
        "exact jobs must stream bounds over the wire"
    );
    assert!(
        bounds.iter().max() <= scores.iter().min(),
        "a wire bound exceeded an incumbent: {bounds:?} vs {scores:?}"
    );
    let status = client.status(job.id).expect("status");
    let report = status.get("report").expect("report present");
    assert_eq!(
        report.get("outcome").and_then(Json::as_str),
        Some("optimal")
    );
    let score = report.get("score").and_then(Json::as_u64).unwrap();
    assert_eq!(
        report.get("lower_bound").and_then(Json::as_u64),
        Some(score),
        "a proved-optimal wire report carries lower_bound == score"
    );
    assert_eq!(bounds.last(), Some(&score), "the stream ends certified");
    // The status document's live trace carries the bound per point too.
    let trace_bounds: Vec<Option<u64>> = status
        .get("trace")
        .and_then(Json::as_array)
        .expect("live trace")
        .iter()
        .map(|p| p.get("lower_bound").and_then(Json::as_u64))
        .collect();
    assert!(
        trace_bounds
            .windows(2)
            .all(|w| w[0].unwrap_or(0) <= w[1].unwrap_or(u64::MAX)),
        "trace bounds must be non-decreasing: {trace_bounds:?}"
    );
    shutdown.shutdown();
}

// ------------------------------------------------------------ cancellation

#[test]
fn delete_mid_run_cancels_with_the_last_streamed_incumbent() {
    let (client, shutdown, _) = default_server();
    let job = client
        .submit(&JobSubmission {
            algo: Some("BioConsert".to_owned()),
            ..JobSubmission::new(big_dataset_text(200, 20, 9))
        })
        .expect("submit");
    let mut last_incumbent = None;
    let mut finished_outcome = None;
    for event in client.events(job.id).expect("stream") {
        let event = event.expect("well-formed event");
        match event.get("event").and_then(Json::as_str) {
            Some("incumbent") => {
                let score = event.get("score").and_then(Json::as_u64).unwrap();
                if last_incumbent.is_none() {
                    // First incumbent: cancel over the wire, keep draining.
                    let ack = client.cancel(job.id).expect("cancel");
                    assert_eq!(ack.get("cancelling").and_then(Json::as_bool), Some(true));
                }
                last_incumbent = Some(score);
            }
            Some("finished") => {
                finished_outcome = event
                    .get("outcome")
                    .and_then(Json::as_str)
                    .map(str::to_owned);
            }
            _ => {}
        }
    }
    assert_eq!(
        finished_outcome.as_deref(),
        Some("cancelled"),
        "a cancel at the first of many sweeps must win"
    );
    let status = client.status(job.id).expect("status");
    let report = status.get("report").expect("report present");
    assert_eq!(
        report.get("outcome").and_then(Json::as_str),
        Some("cancelled")
    );
    assert_eq!(
        report.get("score").and_then(Json::as_u64),
        last_incumbent,
        "the cancelled report's score equals its last streamed incumbent"
    );
    // Cancelling an already-finished job is a harmless no-op.
    assert!(client.cancel(job.id).is_ok());
    shutdown.shutdown();
}

// ------------------------------------------------------------ load shedding

#[test]
fn saturating_the_admission_queue_sheds_with_429_without_dropping_running_jobs() {
    let (client, shutdown, _) = start_server(ServerConfig {
        max_jobs: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });
    // Occupy the single worker…
    let running = client
        .submit(&JobSubmission {
            algo: Some("BioConsert".to_owned()),
            ..JobSubmission::new(big_dataset_text(200, 20, 5))
        })
        .expect("submit the long job");
    loop {
        let state = client.status(running.id).expect("status");
        if state.get("state").and_then(Json::as_str) == Some("running") {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // …fill the queue…
    let queued = client
        .submit(&JobSubmission {
            algo: Some("Exact".to_owned()),
            ..JobSubmission::new(PAPER_EXAMPLE)
        })
        .expect("queue has room for one");
    // …and watch the third submission shed.
    let shed = client.submit(&JobSubmission {
        algo: Some("Borda".to_owned()),
        ..JobSubmission::new(PAPER_EXAMPLE)
    });
    match shed {
        Err(ClientError::Status {
            status,
            body,
            retry_after_secs,
        }) => {
            assert_eq!(status, 429, "{body}");
            assert!(
                retry_after_secs.is_some_and(|s| s >= 1),
                "Retry-After header expected, got {retry_after_secs:?}"
            );
            assert!(body.contains("queue full"), "{body}");
        }
        other => panic!("expected a 429 shed, got {other:?}"),
    }
    // The running job was untouched: cancel it and it finishes its
    // protocol (cancelled, with a valid report); the queued job then runs.
    client.cancel(running.id).expect("cancel the long job");
    let long_status = client.wait(running.id).expect("long job resolves");
    assert_eq!(
        long_status
            .get("report")
            .and_then(|r| r.get("outcome"))
            .and_then(Json::as_str),
        Some("cancelled")
    );
    let queued_status = client.wait(queued.id).expect("queued job resolves");
    assert_eq!(
        queued_status
            .get("report")
            .and_then(|r| r.get("score"))
            .and_then(Json::as_u64),
        Some(5),
        "the queued job ran to completion after the worker freed up"
    );
    shutdown.shutdown();
}

// -------------------------------------------------------- malformed inputs

#[test]
fn malformed_submissions_get_typed_400s_and_never_kill_the_server() {
    let (client, shutdown, addr) = default_server();
    let cases: &[(&str, &str)] = &[
        // Unknown algorithm: the registry's did-you-mean flows through.
        (
            r#"{"dataset":"[{A},{B}]\n[{B},{A}]","algo":"KwikSrt"}"#,
            "did you mean",
        ),
        // Registered head, bad arguments.
        (
            r#"{"dataset":"[{A},{B}]","algo":"MedRank(2.5)"}"#,
            "outside [0,1]",
        ),
        // Zero, negative, and Duration-overflowing budgets.
        (r#"{"dataset":"[{A},{B}]","budget_secs":0}"#, "positive"),
        (r#"{"dataset":"[{A},{B}]","budget_secs":-1.5}"#, "positive"),
        (
            r#"{"dataset":"[{A},{B}]","budget_secs":1e20}"#,
            "out of range",
        ),
        // Truncated dataset body (mid-ranking).
        (r#"{"dataset":"[{A},{B"}"#, "dataset:"),
        // Truncated JSON document.
        (r#"{"dataset":"[{A},{B}]""#, "request body"),
        // No rankings at all.
        ("{\"dataset\":\"# only a comment\\n\"}", "no rankings"),
        // Structurally invalid ranking (duplicate element).
        (r#"{"dataset":"[{A},{A}]"}"#, "dataset:"),
        // Over the size cap (Ailon's n ≤ 45 bound, paper §6).
        // Built below because it needs a generated dataset.
    ];
    for (body, needle) in cases {
        let (status, response) = raw_post(&addr, "/v1/jobs", body);
        assert_eq!(status, 400, "{body} → {response}");
        assert!(
            response.contains(needle),
            "{body}: response {response:?} should mention {needle:?}"
        );
    }
    // Algorithm size cap: Ailon refuses n > 45 with a clear 400.
    let over_cap = JobSubmission {
        algo: Some("Ailon".to_owned()),
        ..JobSubmission::new(big_dataset_text(60, 4, 1))
    };
    let (status, response) = raw_post(&addr, "/v1/jobs", &over_cap.to_json());
    assert_eq!(status, 400, "{response}");
    assert!(response.contains("at most n = 45"), "{response}");
    // The suggestion field is structured, not only embedded in the text.
    let (_, response) = raw_post(
        &addr,
        "/v1/jobs",
        r#"{"dataset":"[{A},{B}]\n[{B},{A}]","algo":"KwikSrt"}"#,
    );
    let doc = Json::parse(&response).expect("error body is JSON");
    assert_eq!(
        doc.get("suggestion").and_then(Json::as_str),
        Some("KwikSort")
    );
    // After all of that abuse the server still serves.
    let health = client.healthz().expect("healthz");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    let job = client
        .submit(&JobSubmission {
            algo: Some("Exact".to_owned()),
            ..JobSubmission::new(PAPER_EXAMPLE)
        })
        .expect("a good job still runs");
    let done = client.wait(job.id).expect("and completes");
    assert_eq!(
        done.get("report")
            .and_then(|r| r.get("score"))
            .and_then(Json::as_u64),
        Some(5)
    );
    shutdown.shutdown();
}

/// A `BestOf` repeat count past the cap is refused when the spec is
/// parsed, before any repeat is planned: a 400 naming the cap, not a
/// server asked for gigabytes.
#[test]
fn oversized_best_of_repeat_counts_get_a_400() {
    let (client, shutdown, addr) = default_server();
    let (status, response) = raw_post(
        &addr,
        "/v1/jobs",
        r#"{"dataset":"[{A},{B}]\n[{B},{A}]","algo":"BestOf(Borda,2000000000)"}"#,
    );
    assert_eq!(status, 400, "{response}");
    assert!(response.contains("exceeds the maximum"), "{response}");
    let health = client.healthz().expect("healthz");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    shutdown.shutdown();
}

/// A body of nothing but `[`: a decoder that recursed once per byte would
/// overflow the connection thread's stack, an abort of the whole process
/// that no `catch_unwind` can stop. Nesting is bounded, so every endpoint
/// that decodes a body answers it with a plain 400.
#[test]
fn nesting_bomb_gets_a_400_and_never_kills_the_server() {
    let (client, shutdown, addr) = default_server();
    let bomb = "[".repeat(20_000);
    for (method, path) in [
        ("POST", "/v1/jobs"),
        ("POST", "/v1/batches"),
        ("PUT", "/v1/datasets/bomb"),
    ] {
        let (status, response) = raw_request(&addr, method, path, &bomb);
        assert_eq!(status, 400, "{method} {path} → {response}");
        if method == "POST" {
            assert!(response.contains("nesting deeper than"), "{response}");
        }
    }
    let health = client.healthz().expect("healthz after the bomb");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    shutdown.shutdown();
}

/// The largest body a server accepts, carrying a dataset that does not
/// parse, is refused within seconds: its JSON string decodes in time
/// linear in its length (a quadratic decoder burns minutes on it).
#[test]
fn a_max_size_submission_is_refused_promptly() {
    let (client, shutdown, _) = default_server();
    let filler = "é".repeat((MAX_BODY_BYTES - 64) / "é".len());
    let submission = JobSubmission::new(format!("[{{{filler}"));
    assert!(submission.to_json().len() <= MAX_BODY_BYTES);
    let started = Instant::now();
    match client.submit(&submission) {
        Err(ClientError::Status { status: 400, .. }) => {}
        other => panic!("an unparseable dataset must 400, got {other:?}"),
    }
    let took = started.elapsed();
    assert!(took < Duration::from_secs(10), "the 400 took {took:?}");
    shutdown.shutdown();
}

#[test]
fn unknown_jobs_paths_and_methods_get_clean_errors() {
    let (client, shutdown, addr) = default_server();
    match client.status(12345) {
        Err(ClientError::Status { status, .. }) => assert_eq!(status, 404),
        other => panic!("expected 404, got {other:?}"),
    }
    match client.cancel(12345) {
        Err(ClientError::Status { status, .. }) => assert_eq!(status, 404),
        other => panic!("expected 404, got {other:?}"),
    }
    let (status, _) = raw_post(&addr, "/v1/nope", "{}");
    assert_eq!(status, 404);
    // An unsupported method on a real path.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    write_request(&mut stream, "PUT", "/v1/jobs", &addr, None, false).expect("send");
    let response = ClientResponse::read(stream).expect("head");
    assert_eq!(response.status, 405);
    shutdown.shutdown();
}

// ------------------------------------------------------------ registry etc.

#[test]
fn algorithms_endpoint_serves_the_shared_registry_dump() {
    let (client, shutdown, _) = default_server();
    let remote = client.algorithms().expect("algorithms");
    let local = Json::parse(&service::proto::registry_json()).expect("local dump parses");
    assert_eq!(remote, local, "one serializer, two front ends");
    shutdown.shutdown();
}

#[test]
fn healthz_reports_scheduler_shape() {
    let (client, shutdown, _) = start_server(ServerConfig {
        max_jobs: 3,
        queue_capacity: 17,
        ..ServerConfig::default()
    });
    let health = client.healthz().expect("healthz");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("max_jobs").and_then(Json::as_u64), Some(3));
    assert_eq!(
        health.get("queue_capacity").and_then(Json::as_u64),
        Some(17)
    );
    shutdown.shutdown();
}

// ------------------------------------------------------------ keep-alive streams

/// The terminal `finished` line is published together with the report:
/// a subscriber that has read `finished` and hung up finds the job done
/// on its very next status read, every time.
#[test]
fn status_after_finished_event_is_always_done() {
    let (client, shutdown, _) = default_server();
    for seed in 0..200 {
        let job = client
            .submit(&JobSubmission {
                algo: Some("Borda".to_owned()),
                seed,
                ..JobSubmission::new(PAPER_EXAMPLE)
            })
            .expect("submit");
        for event in client.events(job.id).expect("event stream") {
            let event = event.expect("event line");
            if event.get("event").and_then(Json::as_str) == Some("finished") {
                break; // drop the stream before its terminator
            }
        }
        let status = client.status(job.id).expect("status");
        assert_eq!(
            status.get("state").and_then(Json::as_str),
            Some("done"),
            "job {} read `finished` but its status is {status}",
            job.id
        );
    }
    shutdown.shutdown();
}

/// A stream whose connection closes before the chunked terminator is an
/// error, not a clean end, and its socket never returns to the pool. The
/// fake server below writes half a keep-alive stream, stops writing, and
/// keeps listening on that connection: a request arriving there would
/// mean the client reused the truncated socket.
#[test]
fn truncated_event_stream_is_an_error_and_never_reused() {
    use service::http::{read_request, write_response, HttpError};
    use std::io::{BufReader, Read, Write};
    use std::net::{Shutdown, TcpListener};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("fake addr").to_string();
    let fake = std::thread::spawn(move || {
        let (mut first, _) = listener.accept().expect("stream connection");
        let mut first_reader = BufReader::new(first.try_clone().expect("clone"));
        read_request(&mut first_reader).expect("events request");
        let line = "{\"event\":\"started\",\"spec\":\"Borda\",\"seed\":0}\n";
        write!(
            first,
            "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n{:x}\r\n{line}\r\n",
            line.len()
        )
        .expect("half a stream");
        first
            .shutdown(Shutdown::Write)
            .expect("end the stream early");

        let (mut second, _) = listener.accept().expect("fresh connection");
        let mut second_reader = BufReader::new(second.try_clone().expect("clone"));
        read_request(&mut second_reader).expect("healthz request");
        write_response(
            &mut second,
            200,
            "application/json",
            &[],
            b"{\"status\":\"ok\"}",
            false,
        )
        .expect("healthz answer");

        first
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let mut byte = [0u8; 1];
        matches!(first_reader.read(&mut byte), Ok(n) if n > 0)
    });

    let client = Client::new(&addr);
    let mut events = client.events(0).expect("stream head");
    let started = events.next().expect("first line").expect("parses");
    assert_eq!(started.get("event").and_then(Json::as_str), Some("started"));
    match events.next() {
        Some(Err(ClientError::Transport(HttpError::Io(e))))
            if e.kind() == std::io::ErrorKind::UnexpectedEof => {}
        other => panic!("a truncated stream must end in UnexpectedEof, got {other:?}"),
    }
    assert!(events.next().is_none(), "nothing follows the error");
    drop(events);
    let health = client.healthz().expect("next exchange dials fresh");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert!(
        !fake.join().expect("fake server"),
        "the truncated stream's socket was reused"
    );
}

/// A drain closes the connections that sat idle when it began, but a
/// subscriber whose stream was live then still reads its job's final
/// status over that same connection — the cancelled best-so-far is not
/// lost to the shutdown.
#[test]
fn stream_live_at_drain_still_reads_its_final_status() {
    let (client, shutdown, _) = default_server();
    let job = client
        .submit(&JobSubmission {
            algo: Some("BioConsert".to_owned()),
            ..JobSubmission::new(big_dataset_text(200, 20, 9))
        })
        .expect("submit");
    let (mut draining, mut outcome) = (false, None);
    for event in client.events(job.id).expect("stream") {
        let event = event.expect("well-formed event");
        match event.get("event").and_then(Json::as_str) {
            Some("incumbent") if !draining => {
                shutdown.shutdown(); // drain while the stream is live
                draining = true;
            }
            Some("finished") => {
                outcome = event
                    .get("outcome")
                    .and_then(Json::as_str)
                    .map(str::to_owned);
            }
            _ => {}
        }
    }
    assert_eq!(outcome.as_deref(), Some("cancelled"));
    let status = client.status(job.id).expect("status after the drain");
    assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(
        status.get("outcome").and_then(Json::as_str),
        Some("cancelled")
    );
}

/// A connection whose last response was fully written before a drain
/// began was idle when it began: its next request is closed unanswered,
/// however soon after its answer the client starts the drain. Looped,
/// because the window is narrow: a drain sample taken after the handler
/// returns lets a client that already holds its answer start the drain
/// first, and the connection then counts as busy.
#[test]
fn a_request_after_a_drain_on_an_answered_connection_is_closed_unanswered() {
    use std::io::BufReader;
    for round in 0..30 {
        let (_, shutdown, addr) = default_server();
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        write_request(&mut stream, "GET", "/healthz", &addr, None, true).expect("first request");
        let response = ClientResponse::read_from(reader).expect("first response head");
        assert_eq!(response.status, 200);
        let (_, reader) = response.into_body_and_reader().expect("sized body");
        let reader = reader.expect("a kept-alive connection");
        shutdown.shutdown();
        // The server may already have closed the socket: a refused write
        // is as good as an unanswered request.
        if write_request(&mut stream, "GET", "/healthz", &addr, None, true).is_err() {
            continue;
        }
        match ClientResponse::read_from(reader) {
            Err(_) => {}
            Ok(response) => panic!(
                "round {round}: the request after the drain was answered {}",
                response.status
            ),
        }
    }
}

// ------------------------------------------------------------ idempotency

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

/// Concurrent twins of one idempotency key: the key is checked and the
/// job admitted in one critical section, so exactly one twin enters the
/// scheduler and every other one reattaches to it — no loser is admitted
/// and cancelled afterwards.
#[test]
fn concurrent_twins_of_one_key_admit_exactly_one_job() {
    let (client, shutdown, addr) = default_server();
    // A first job brings the scheduler (and its counters) up.
    let warm = client
        .submit(&JobSubmission::new(PAPER_EXAMPLE))
        .expect("warm-up submit");
    client.wait(warm.id).expect("warm-up job");
    let before = fresh_admissions(&client);
    // A body that takes a while to parse keeps every twin's pre-parse
    // key check ahead of the first twin's admission.
    let text = big_dataset_text(200, 20, 3);
    let barrier = Arc::new(Barrier::new(8));
    let twins: Vec<_> = (0..8)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let client = Client::new(&addr);
            let text = text.clone();
            std::thread::spawn(move || {
                let submission = JobSubmission {
                    algo: Some("Borda".to_owned()),
                    idempotency_key: Some("one-key".to_owned()),
                    ..JobSubmission::new(text)
                };
                barrier.wait();
                client.submit(&submission).expect("submit a twin")
            })
        })
        .collect();
    let submitted: Vec<_> = twins
        .into_iter()
        .map(|twin| twin.join().expect("twin thread"))
        .collect();
    let ids: BTreeSet<u64> = submitted.iter().map(|s| s.id).collect();
    assert_eq!(ids.len(), 1, "one key, one job: {submitted:?}");
    assert_eq!(
        submitted.iter().filter(|s| !s.deduplicated).count(),
        1,
        "exactly one twin created the job: {submitted:?}"
    );
    assert_eq!(
        fresh_admissions(&client) - before,
        1,
        "only the winning twin entered the scheduler"
    );
    let status = client.wait(submitted[0].id).expect("the job finishes");
    assert_eq!(
        status
            .get("report")
            .and_then(|r| r.get("outcome"))
            .and_then(Json::as_str),
        Some("heuristic")
    );
    shutdown.shutdown();
}
