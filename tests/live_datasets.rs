//! End-to-end tests for live dataset sessions over the wire (DESIGN.md
//! §13): dataset CRUD with versioning, jobs submitted by `dataset_id`,
//! warm-started re-solves recorded back into the session, `"follow"`
//! jobs re-emitting version-tagged incumbents across PATCHes, rounds
//! that share the session's dataset instead of copying it, and restart
//! recovery of the dataset journal (with consolidation).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rank_aggregation_with_ties::prelude::*;
use rank_aggregation_with_ties::ragen::UniformSampler;
use rank_aggregation_with_ties::rank_core::parse::{parse_dataset_lines, parse_ranking_labeled};
use rank_aggregation_with_ties::rank_core::session::DatasetSession;
use rank_aggregation_with_ties::rank_core::telemetry::parse_exposition;
use service::client::Client;
use service::client::ClientError;
use service::client::EventStream;
use service::journal::{FsyncPolicy, Journal};
use service::json::Json;
use service::proto::JobSubmission;
use service::server::{Server, ServerConfig, ShutdownHandle};
use std::path::{Path, PathBuf};
use std::time::Duration;

const PAPER_EXAMPLE: &str =
    "# the paper's §2.2 example\n[{A},{D},{B,C}]\n[{A},{B,C},{D}]\n[{D},{A,C},{B}]\n";

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rawt-datasets-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(config: ServerConfig) -> (Client, ShutdownHandle) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let shutdown = server.shutdown_handle().expect("shutdown handle");
    std::thread::spawn(move || server.serve());
    (Client::new(&addr), shutdown)
}

fn journaled_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        journal_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

fn u64_field(doc: &Json, key: &str) -> u64 {
    doc.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing {key:?} in {doc}"))
}

// ------------------------------------------------------------------ CRUD

#[test]
fn dataset_crud_versions_and_errors() {
    let (client, shutdown) = start_server(ServerConfig::default());
    // Create: version 1, the paper example's shape.
    let created = client.create_dataset("demo", PAPER_EXAMPLE).expect("PUT");
    assert_eq!(u64_field(&created, "version"), 1);
    assert_eq!(u64_field(&created, "n"), 4);
    assert_eq!(u64_field(&created, "m"), 3);
    // Duplicate create: 409.
    match client.create_dataset("demo", PAPER_EXAMPLE) {
        Err(ClientError::Status { status, .. }) => assert_eq!(status, 409),
        other => panic!("expected 409, got {other:?}"),
    }
    // Three ops in one PATCH: add (introducing a new element E), remove,
    // replace. Each bumps the version once.
    let patched = client
        .patch_dataset(
            "demo",
            concat!(
                "{\"ops\":[",
                "{\"op\":\"add\",\"ranking\":\"[{E},{A},{B,C,D}]\"},",
                "{\"op\":\"remove\",\"index\":0},",
                "{\"op\":\"replace\",\"index\":0,\"ranking\":\"[{B},{A}]\"}",
                "]}"
            ),
        )
        .expect("PATCH");
    assert_eq!(u64_field(&patched, "version"), 4);
    assert_eq!(u64_field(&patched, "applied"), 3);
    assert_eq!(u64_field(&patched, "n"), 5, "E joined the universe");
    assert_eq!(u64_field(&patched, "m"), 3);
    // GET reflects the edits; the text is the session's current rankings.
    let got = client.get_dataset("demo").expect("GET");
    assert_eq!(u64_field(&got, "version"), 4);
    let text = got.get("dataset").and_then(Json::as_str).expect("text");
    assert_eq!(text.lines().count(), 3);
    assert!(
        text.lines().next().expect("first line").contains('B'),
        "replace landed at index 0: {text}"
    );
    // A failing op mid-batch: prior ops stick, the response is 409 and
    // reports how many applied.
    let err = client.patch_dataset(
        "demo",
        "{\"ops\":[{\"op\":\"remove\",\"index\":0},{\"op\":\"remove\",\"index\":99}]}",
    );
    match err {
        Err(ClientError::Status { status, body, .. }) => {
            assert_eq!(status, 409);
            let doc = Json::parse(&body).expect("error body parses");
            assert_eq!(u64_field(&doc, "applied"), 1);
            assert_eq!(u64_field(&doc, "version"), 5);
        }
        other => panic!("expected 409, got {other:?}"),
    }
    // Structurally bad ops: 400, nothing applied.
    match client.patch_dataset("demo", "{\"ops\":[{\"op\":\"frobnicate\"}]}") {
        Err(ClientError::Status { status, .. }) => assert_eq!(status, 400),
        other => panic!("expected 400, got {other:?}"),
    }
    assert_eq!(
        u64_field(&client.get_dataset("demo").expect("GET"), "version"),
        5
    );
    // Removing down to the last ranking is refused (a session is never
    // empty): m is 1 after one more remove, then the next remove fails.
    client
        .patch_dataset("demo", "{\"ops\":[{\"op\":\"remove\",\"index\":0}]}")
        .expect("shrink to one ranking");
    match client.patch_dataset("demo", "{\"ops\":[{\"op\":\"remove\",\"index\":0}]}") {
        Err(ClientError::Status { status, .. }) => assert_eq!(status, 409),
        other => panic!("expected 409, got {other:?}"),
    }
    // Delete, then everything 404s.
    client.delete_dataset("demo").expect("DELETE");
    match client.get_dataset("demo") {
        Err(ClientError::Status { status, .. }) => assert_eq!(status, 404),
        other => panic!("expected 404, got {other:?}"),
    }
    // Bad ids are rejected before touching the table: by the server with
    // a 400, and by the client, unsent, with the server's message.
    let message = "bad dataset id \"no%20good\" (1-64 characters from [A-Za-z0-9_-])";
    let mut stream = std::net::TcpStream::connect(client.addr()).expect("connect");
    let body = b"{\"dataset\":\"[{A}]\"}";
    service::http::write_request(
        &mut stream,
        "PUT",
        "/v1/datasets/no%20good",
        client.addr(),
        Some(("application/json", body)),
        false,
    )
    .expect("send");
    let response = service::http::ClientResponse::read(stream).expect("response head");
    assert_eq!(response.status, 400);
    let reply = Json::parse(&response.body_string().expect("body")).expect("JSON");
    assert_eq!(reply.get("error").and_then(Json::as_str), Some(message));
    match client.create_dataset("no%20good", PAPER_EXAMPLE) {
        Err(ClientError::Invalid(refused)) => assert_eq!(refused, message),
        other => panic!("expected a refusal, got {other:?}"),
    }
    shutdown.shutdown();
}

// ------------------------------------------------------- dataset_id jobs

/// A `dataset_id` job aggregates the live session's current rankings and
/// records its consensus back: a second job on the same dataset
/// warm-starts from it and lands on the same (optimal) score.
#[test]
fn dataset_jobs_solve_the_live_session_and_record_consensus_back() {
    let (client, shutdown) = start_server(ServerConfig::default());
    client.create_dataset("live", PAPER_EXAMPLE).expect("PUT");
    let submission = JobSubmission {
        algo: Some("Exact".into()),
        ..JobSubmission::for_dataset("live")
    };
    let job = client.submit(&submission).expect("submit by dataset_id");
    assert_eq!(job.n, 4);
    assert_eq!(job.m, 3);
    let done = client.wait(job.id).expect("job completes");
    let score = done
        .get("report")
        .and_then(|r| r.get("score"))
        .and_then(Json::as_u64)
        .expect("report score");
    assert_eq!(score, 5, "the paper example's optimal Kemeny score");
    // Round 2, warm-started from the recorded consensus (observable as:
    // still correct, still optimal — the warm path must not change the
    // answer).
    let again = client.submit(&submission).expect("second submit");
    assert_ne!(again.id, job.id);
    let done = client.wait(again.id).expect("second job completes");
    assert_eq!(
        done.get("report")
            .and_then(|r| r.get("score"))
            .and_then(Json::as_u64),
        Some(5)
    );
    assert_eq!(
        done.get("report")
            .and_then(|r| r.get("outcome"))
            .and_then(Json::as_str),
        Some("optimal")
    );
    // Submitting against a missing dataset is a 404 up front.
    match client.submit(&JobSubmission::for_dataset("ghost")) {
        Err(ClientError::Status { status, .. }) => assert_eq!(status, 404),
        other => panic!("expected 404, got {other:?}"),
    }
    shutdown.shutdown();
}

// ------------------------------------------------------------ follow jobs

/// The tentpole's live loop: a `"follow": true` job solves the dataset,
/// then a PATCH bumps the version and the job re-solves, re-emitting
/// version-tagged events. Cancelling the job ends the stream with the
/// one real terminal event.
#[test]
fn follow_jobs_resolve_again_after_a_patch_with_version_tags() {
    let (client, shutdown) = start_server(ServerConfig::default());
    client
        .create_dataset("watched", PAPER_EXAMPLE)
        .expect("PUT");
    let job = client
        .submit(&JobSubmission {
            algo: Some("BioConsert".into()),
            follow: true,
            ..JobSubmission::for_dataset("watched")
        })
        .expect("submit follow job");
    let mut events = client.events(job.id).expect("event stream");
    let mut next = || {
        events
            .next()
            .expect("stream stays open while following")
            .expect("event line parses")
    };
    // Round 1: every line (started, incumbents, the round's `resolved`
    // terminator) is tagged with dataset version 1.
    let mut saw_incumbent_v1 = false;
    loop {
        let event = next();
        let kind = event.get("event").and_then(Json::as_str).expect("kind");
        if kind == "heartbeat" {
            continue;
        }
        assert_eq!(
            u64_field(&event, "dataset_version"),
            1,
            "round-1 event missing its version tag: {event}"
        );
        assert_ne!(kind, "finished", "a follow round must not emit `finished`");
        if kind == "incumbent" {
            saw_incumbent_v1 = true;
        }
        if kind == "resolved" {
            break;
        }
    }
    assert!(saw_incumbent_v1, "round 1 published an incumbent");
    // PATCH: the version moves to 2 and the follow loop re-solves.
    client
        .patch_dataset(
            "watched",
            "{\"ops\":[{\"op\":\"add\",\"ranking\":\"[{D},{C},{B},{A}]\"}]}",
        )
        .expect("PATCH mid-follow");
    let mut saw_incumbent_v2 = false;
    loop {
        let event = next();
        let kind = event.get("event").and_then(Json::as_str).expect("kind");
        if kind == "heartbeat" {
            continue;
        }
        assert_eq!(
            u64_field(&event, "dataset_version"),
            2,
            "round-2 event tagged with the wrong version: {event}"
        );
        if kind == "incumbent" {
            saw_incumbent_v2 = true;
        }
        if kind == "resolved" {
            break;
        }
    }
    assert!(
        saw_incumbent_v2,
        "round 2 re-emitted its incumbent under the new version"
    );
    // The status document reflects the latest round's report and m.
    let status = client.status(job.id).expect("status");
    assert_eq!(u64_field(&status, "m"), 4, "live refs track the new shape");
    // DELETE ends the follow: one real terminal event, outcome cancelled.
    client.cancel(job.id).expect("cancel follow job");
    loop {
        let event = next();
        let kind = event.get("event").and_then(Json::as_str).expect("kind");
        if kind == "finished" {
            assert_eq!(
                event.get("outcome").and_then(Json::as_str),
                Some("cancelled")
            );
            break;
        }
    }
    assert!(events.next().is_none(), "the stream closed after finished");
    shutdown.shutdown();
}

/// Deleting a followed dataset also ends its follow jobs.
#[test]
fn deleting_a_dataset_ends_its_follow_jobs() {
    let (client, shutdown) = start_server(ServerConfig::default());
    client.create_dataset("doomed", PAPER_EXAMPLE).expect("PUT");
    let job = client
        .submit(&JobSubmission {
            algo: Some("Chanas".into()),
            follow: true,
            ..JobSubmission::for_dataset("doomed")
        })
        .expect("submit follow job");
    // Wait for the first round to resolve so the delete lands in the
    // follow loop's wait state.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let status = client.status(job.id).expect("status");
        if status.get("outcome").and_then(Json::as_str).is_some() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "first round never resolved: {status}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    client.delete_dataset("doomed").expect("DELETE");
    let done = client.wait(job.id).expect("follow job ends");
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(
        done.get("outcome").and_then(Json::as_str),
        Some("cancelled")
    );
    shutdown.shutdown();
}

/// A follow job whose dataset grows past its algorithm's size cap
/// reports `failed`, naming the dataset, and ends (`finished`, outcome
/// `cancelled`) instead of starting a round it cannot run.
#[test]
fn a_follow_job_ends_when_its_dataset_outgrows_the_spec() {
    let (client, shutdown) = start_server(ServerConfig::default());
    client
        .create_dataset("growing", PAPER_EXAMPLE)
        .expect("PUT");
    let job = client
        .submit(&JobSubmission {
            algo: Some("Exact".into()),
            follow: true,
            ..JobSubmission::for_dataset("growing")
        })
        .expect("submit follow job");
    let mut events = client.events(job.id).expect("event stream");
    resolved_score(&mut events, 1);
    // Exact handles at most n = 64: 61 new labels make n = 65.
    let labels: Vec<String> = (0..61).map(|i| format!("{{x{i}}}")).collect();
    let ranking = format!("[{{A}},{{B}},{{C}},{{D}},{}]", labels.join(","));
    client
        .patch_dataset(
            "growing",
            &format!("{{\"ops\":[{{\"op\":\"add\",\"ranking\":\"{ranking}\"}}]}}"),
        )
        .expect("PATCH past the cap");
    let lines: Vec<Json> = events
        .map(|e| e.expect("event parses"))
        .filter(|e| e.get("event").and_then(Json::as_str) != Some("heartbeat"))
        .collect();
    let kinds: Vec<&str> = lines
        .iter()
        .filter_map(|e| e.get("event").and_then(Json::as_str))
        .collect();
    assert_eq!(kinds, ["failed", "finished"], "{lines:?}");
    let error = lines[0].get("error").and_then(Json::as_str).expect("error");
    assert!(
        error.contains("growing") && error.contains("n = 65"),
        "{error}"
    );
    assert_eq!(
        lines[1].get("outcome").and_then(Json::as_str),
        Some("cancelled")
    );
    let done = client.wait(job.id).expect("job ended");
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    shutdown.shutdown();
}

// ------------------------------------------------- copy-on-write rounds

/// `m` uniformly drawn rankings with ties over the labels `0..n`, one per
/// line.
fn uniform_text(n: usize, m: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = UniformSampler::new(n).sample_dataset(n, m, &mut rng);
    let lines: Vec<String> = data.rankings().iter().map(|r| r.to_string()).collect();
    lines.join("\n")
}

/// A local copy of a live dataset: the server's parse and unification of
/// the same text, with the same edits applied in the same order, so each
/// label gets the server's dense id and every version can be rescored.
#[derive(Clone)]
struct Mirror {
    universe: Universe,
    session: DatasetSession,
}

impl Mirror {
    fn new(text: &str) -> Mirror {
        let mut universe = Universe::new();
        let raw = parse_dataset_lines(text, &mut universe).expect("dataset text");
        let session = DatasetSession::new(unification(&raw).expect("non-empty").dataset);
        Mirror { universe, session }
    }

    /// Apply `op` (`add`, `remove` or `replace`) locally and return the
    /// PATCH body that applies it on the server.
    fn edit(&mut self, op: &str, index: usize, ranking: &str) -> String {
        let mut parsed = || parse_ranking_labeled(ranking, &mut self.universe).expect("ranking");
        match op {
            "add" => self.session.add_ranking(parsed()),
            "remove" => self.session.remove_ranking(index),
            _ => self.session.replace_ranking(index, parsed()),
        }
        .expect("the edit is accepted");
        format!("{{\"ops\":[{{\"op\":\"{op}\",\"index\":{index},\"ranking\":\"{ranking}\"}}]}}")
    }

    /// The Kemeny score of a served report's ranking over this mirror's
    /// dataset, after checking it ranks exactly that dataset's elements.
    fn rescore(&self, report: &Json) -> u64 {
        let buckets = report
            .get("ranking")
            .and_then(Json::as_array)
            .expect("ranking");
        let buckets: Vec<Vec<Element>> = buckets
            .iter()
            .map(|b| {
                let labels = b.as_array().expect("bucket");
                labels
                    .iter()
                    .map(|l| {
                        self.universe
                            .get(l.as_str().expect("label"))
                            .expect("known label")
                    })
                    .collect()
            })
            .collect();
        let ranking = Ranking::from_buckets(buckets).expect("a valid ranking");
        let data = self.session.dataset();
        assert!(
            data.is_complete_ranking(&ranking),
            "{report} does not rank exactly the version-{} elements",
            self.session.version()
        );
        kemeny_score(&ranking, &data)
    }
}

/// Read a follow job's stream up to the `resolved` line of `version`;
/// returns its score.
fn resolved_score(events: &mut EventStream, version: u64) -> u64 {
    loop {
        let event = events
            .next()
            .expect("stream stays open while following")
            .expect("event line parses");
        match event.get("event").and_then(Json::as_str) {
            Some("resolved") if u64_field(&event, "dataset_version") == version => {
                return u64_field(&event, "score");
            }
            Some("failed" | "finished") => panic!("follow job ended: {event}"),
            _ => {}
        }
    }
}

/// `rawt_session_snapshot_copies_total` for one part, from `/metrics`.
fn snapshot_copies(client: &Client, part: &str) -> u64 {
    parse_exposition(&client.metrics_text().expect("GET /metrics"))
        .iter()
        .filter(|f| f.name == "rawt_session_snapshot_copies_total")
        .flat_map(|f| &f.samples)
        .find(|s| s.label("part") == Some(part))
        .map(|s| s.value as u64)
        .unwrap_or_else(|| panic!("no part={part} series"))
}

/// The served report of a follow job's latest round.
fn latest_report(client: &Client, job: u64) -> Json {
    let status = client.status(job).expect("status");
    status
        .get("report")
        .cloned()
        .expect("a resolved round's report")
}

/// The edit/re-solve loop: PATCH, then wait for the follow job's
/// `resolved` of the new version, many times over. Rounds share the
/// session's dataset, so no edit ever copies it; every resolved score is
/// the Kemeny score of the served ranking over that version's dataset.
#[test]
fn closed_loop_follow_rounds_never_copy_the_dataset() {
    let (client, shutdown) = start_server(ServerConfig::default());
    let (n, m) = (12, 6);
    let text = uniform_text(n, m, 7);
    let pool: Vec<String> = uniform_text(n, 8, 8).lines().map(str::to_owned).collect();
    let mut mirror = Mirror::new(&text);
    client.create_dataset("loop", &text).expect("PUT");
    let job = client
        .submit(&JobSubmission {
            algo: Some("Chanas".into()),
            follow: true,
            ..JobSubmission::for_dataset("loop")
        })
        .expect("submit follow job");
    let mut events = client.events(job.id).expect("event stream");
    let mut check_round = |mirror: &Mirror| {
        let version = mirror.session.version();
        let score = resolved_score(&mut events, version);
        let report = latest_report(&client, job.id);
        assert_eq!(u64_field(&report, "score"), score);
        assert_eq!(mirror.rescore(&report), score, "version {version}");
    };
    check_round(&mirror);
    let edits = 24;
    for k in 0..edits {
        let ranking = &pool[k % pool.len()];
        let body = match k % 3 {
            0 => mirror.edit("replace", k % m, ranking),
            1 => mirror.edit("add", 0, ranking),
            _ => mirror.edit("remove", 0, ranking),
        };
        let patched = client.patch_dataset("loop", &body).expect("PATCH");
        assert_eq!(u64_field(&patched, "version"), mirror.session.version());
        check_round(&mirror);
        assert_eq!(
            snapshot_copies(&client, "dataset"),
            0,
            "edit {k} copied the dataset"
        );
    }
    // The engine's matrix cache keeps each round's primed matrix, so an
    // edit may still copy the matrix — at most once.
    assert!(snapshot_copies(&client, "matrix") <= edits as u64);
    assert_eq!(snapshot_copies(&client, "universe"), 0);
    // A new label grows the universe, which the follow job still holds
    // for rendering its reports: that edit copies it.
    let body = mirror.edit("add", 0, "[{fresh},{0}]");
    client
        .patch_dataset("loop", &body)
        .expect("PATCH with a new label");
    check_round(&mirror);
    assert_eq!(snapshot_copies(&client, "universe"), 1);
    assert_eq!(snapshot_copies(&client, "dataset"), 0);
    client.cancel(job.id).expect("cancel follow job");
    shutdown.shutdown();
}

/// A PATCH that lands while a budgeted follow round is still solving
/// copies the dataset once, leaving the running round its own version:
/// that round resolves over the old elements and the next round over the
/// new ones.
#[test]
fn a_patch_mid_round_leaves_the_running_round_on_its_own_version() {
    let (client, shutdown) = start_server(ServerConfig::default());
    // Exact's proof search at n = 48 with few voters runs far past the
    // budget, so each round takes the whole budget.
    let text = uniform_text(48, 6, 2);
    let mut mirror = Mirror::new(&text);
    client.create_dataset("busy", &text).expect("PUT");
    let job = client
        .submit(&JobSubmission {
            algo: Some("Exact".into()),
            follow: true,
            budget: Some(Duration::from_secs(2)),
            ..JobSubmission::for_dataset("busy")
        })
        .expect("submit follow job");
    let mut events = client.events(job.id).expect("event stream");
    loop {
        let event = events.next().expect("stream open").expect("event parses");
        if event.get("event").and_then(Json::as_str) == Some("started") {
            break;
        }
    }
    let round_one = mirror.clone();
    let body = mirror.edit("add", 0, "[{late},{0},{1}]");
    let patched = client
        .patch_dataset("busy", &body)
        .expect("PATCH mid-round");
    assert_eq!(u64_field(&patched, "version"), 2);
    assert_eq!(u64_field(&patched, "n"), 49);
    assert_eq!(
        snapshot_copies(&client, "dataset"),
        1,
        "the running round still held version 1"
    );
    let score = resolved_score(&mut events, 1);
    let report = latest_report(&client, job.id);
    assert_eq!(u64_field(&report, "score"), score);
    assert_eq!(
        round_one.rescore(&report),
        score,
        "round 1 solved version 1"
    );
    let score = resolved_score(&mut events, 2);
    let report = latest_report(&client, job.id);
    assert_eq!(u64_field(&report, "score"), score);
    assert_eq!(mirror.rescore(&report), score, "round 2 solved version 2");
    client.cancel(job.id).expect("cancel follow job");
    shutdown.shutdown();
}

// ------------------------------------------------------------- recovery

/// Datasets survive a restart at their exact version and text, and the
/// recovered journal is consolidated to a single create record (the edit
/// log does not grow across restarts).
#[test]
fn datasets_recover_across_restart_with_consolidated_journals() {
    let dir = scratch_dir("ds-recover");
    let (client, shutdown) = start_server(journaled_config(&dir));
    client
        .create_dataset("durable", PAPER_EXAMPLE)
        .expect("PUT");
    client
        .patch_dataset(
            "durable",
            concat!(
                "{\"ops\":[",
                "{\"op\":\"add\",\"ranking\":\"[{E},{A},{B,C,D}]\"},",
                "{\"op\":\"remove\",\"index\":1}",
                "]}"
            ),
        )
        .expect("PATCH");
    let before = client.get_dataset("durable").expect("GET before restart");
    assert_eq!(u64_field(&before, "version"), 3);
    // A transient neighbour deleted before the crash must stay gone.
    client.create_dataset("gone", PAPER_EXAMPLE).expect("PUT 2");
    client.delete_dataset("gone").expect("DELETE 2");
    shutdown.shutdown();

    let (client, shutdown) = start_server(journaled_config(&dir));
    let after = client.get_dataset("durable").expect("GET after restart");
    assert_eq!(u64_field(&after, "version"), 3, "version survives");
    assert_eq!(
        after.get("dataset").and_then(Json::as_str),
        before.get("dataset").and_then(Json::as_str),
        "text form survives byte-for-byte"
    );
    match client.get_dataset("gone") {
        Err(ClientError::Status { status, .. }) => assert_eq!(status, 404),
        other => panic!("expected 404 for the deleted dataset, got {other:?}"),
    }
    // Consolidation: the recovered file is a single ds-create milestone
    // at version 3 — no replayed edit tail.
    let journal_file = dir.join("dataset-durable.ndjson");
    let content = std::fs::read_to_string(&journal_file).expect("journal file");
    assert_eq!(
        content.lines().count(),
        1,
        "consolidated to one create record: {content}"
    );
    assert!(content.contains("\"version\":3"), "{content}");
    // And the recovered session keeps editing from there.
    let patched = client
        .patch_dataset(
            "durable",
            "{\"ops\":[{\"op\":\"replace\",\"index\":0,\"ranking\":\"[{A},{B}]\"}]}",
        )
        .expect("PATCH after restart");
    assert_eq!(u64_field(&patched, "version"), 4);
    shutdown.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A graceful shutdown ends a parked follow job and journals its
/// terminal `cancelled` before `shutdown` returns: after a restart on the
/// same journal the job reads done, and nothing is re-admitted.
#[test]
fn graceful_shutdown_journals_the_follow_jobs_terminal_cancelled() {
    let dir = scratch_dir("follow-drain");
    let (client, shutdown) = start_server(journaled_config(&dir));
    client
        .create_dataset("drained", PAPER_EXAMPLE)
        .expect("PUT");
    let job = client
        .submit(&JobSubmission {
            algo: Some("Borda".into()),
            follow: true,
            ..JobSubmission::for_dataset("drained")
        })
        .expect("submit follow job");
    let mut events = client.events(job.id).expect("event stream");
    let score = resolved_score(&mut events, 1);
    shutdown.shutdown();
    // The journal already holds the terminal record, with the last
    // round's report.
    let replay = Journal::open(&dir, FsyncPolicy::Never)
        .expect("open journal")
        .replay()
        .expect("replay");
    assert_eq!(replay.jobs.len(), 1);
    let finished = replay.jobs[0]
        .finished
        .as_ref()
        .expect("the drain journaled the follow job's terminal record");
    assert_eq!(finished.outcome, "cancelled");
    let report =
        Json::parse(finished.report_json.as_deref().expect("last report")).expect("report parses");
    assert_eq!(u64_field(&report, "score"), score);
    // The live stream ended with the one real `finished`.
    let last = events
        .filter_map(Result::ok)
        .filter(|e| e.get("event").and_then(Json::as_str) != Some("heartbeat"))
        .last()
        .expect("a terminal line");
    assert_eq!(last.get("event").and_then(Json::as_str), Some("finished"));
    assert_eq!(
        last.get("outcome").and_then(Json::as_str),
        Some("cancelled")
    );

    let (client, shutdown) = start_server(journaled_config(&dir));
    let status = client.status(job.id).expect("status after restart");
    assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(
        status.get("outcome").and_then(Json::as_str),
        Some("cancelled")
    );
    // Recovery re-admitted nothing: no interrupted job.
    let health = client.healthz().expect("healthz");
    assert_eq!(u64_field(&health, "jobs_accepted"), 0, "{health}");
    shutdown.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An interrupted `"follow"` job is re-admitted on restart against the
/// recovered dataset, at the recovered version, and keeps following.
/// The crash image is fabricated through the journal API (a graceful
/// shutdown journals a terminal `cancelled`; only a real crash leaves a
/// follow job interrupted).
#[test]
fn interrupted_follow_jobs_resume_following_after_restart() {
    let dir = scratch_dir("follow-recover");
    {
        let journal = Journal::open(&dir, FsyncPolicy::Always).expect("open");
        journal
            .begin_dataset("tracked", PAPER_EXAMPLE, 5)
            .expect("begin dataset");
        let submission = JobSubmission {
            algo: Some("BioConsert".into()),
            follow: true,
            ..JobSubmission::for_dataset("tracked")
        };
        journal
            .begin_job(0, 0, &submission.to_json())
            .expect("begin job");
        // Both writers dropped without a terminal record: the crash.
    }
    let (client, shutdown) = start_server(journaled_config(&dir));
    let got = client.get_dataset("tracked").expect("recovered dataset");
    assert_eq!(u64_field(&got, "version"), 5, "journaled version restored");
    // The job is back and still live (follow jobs never finish on their
    // own): wait for its recovered cold round, then PATCH and watch it
    // re-solve against the new shape.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while client
        .status(0)
        .expect("recovered status")
        .get("outcome")
        .and_then(Json::as_str)
        .is_none()
    {
        assert!(
            std::time::Instant::now() < deadline,
            "recovered round too slow"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let status = client.status(0).expect("recovered status");
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("running"),
        "a recovered follow job keeps following: {status}"
    );
    client
        .patch_dataset(
            "tracked",
            "{\"ops\":[{\"op\":\"add\",\"ranking\":\"[{C},{B},{A},{D}]\"}]}",
        )
        .expect("PATCH after restart");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let status = client.status(0).expect("status");
        if status.get("m").and_then(Json::as_u64) == Some(4) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "follow loop never picked up the post-restart PATCH: {status}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    client.cancel(0).expect("cancel");
    let done = client.wait(0).expect("follow ends");
    assert_eq!(
        done.get("outcome").and_then(Json::as_str),
        Some("cancelled")
    );
    shutdown.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
