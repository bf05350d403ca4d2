//! Crash-safety tests for the durable aggregation service (DESIGN.md
//! §12): journal replay and corruption tolerance, restart recovery of
//! finished and interrupted jobs, idempotent resubmission across a
//! restart, degraded mode under fsync failure, and the retrying client
//! against injected connection loss.
//!
//! A "crash" here is a fabricated journal directory — exactly the bytes
//! an interrupted `rawt serve --journal` leaves behind — plus fault
//! hooks ([`FaultPlan`]) for torn writes and dropped connections. The CI
//! smoke test covers the real-SIGKILL variant of the same story against
//! the actual binary.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rank_aggregation_with_ties::prelude::*;
use rank_aggregation_with_ties::ragen::UniformSampler;
use rank_aggregation_with_ties::rank_core::parse::parse_dataset_lines;
use rank_aggregation_with_ties::rank_core::Universe;
use service::client::{Client, ClientError, RetryNotice, RetryPolicy};
use service::fault::FaultPlan;
use service::journal::{frame_line, FsyncPolicy, Journal};
use service::json::Json;
use service::proto::JobSubmission;
use service::server::{Server, ServerConfig, ShutdownHandle};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const PAPER_EXAMPLE: &str =
    "# the paper's §2.2 example\n[{A},{D},{B,C}]\n[{A},{B,C},{D}]\n[{D},{A,C},{B}]\n";

/// A fresh scratch directory for one test's journal.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rawt-recovery-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bind an in-process server on an ephemeral port and serve it on a
/// background thread.
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

/// A quick retry policy so tests exercising backoff stay fast.
fn fast_retries() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(100),
        seed: 7,
    }
}

/// The reference report for (dataset, spec, seed): an uninterrupted
/// in-process engine run, the thing recovery must reproduce.
fn local_reference(spec: AlgoSpec, seed: u64) -> ConsensusReport {
    let mut universe = Universe::new();
    let raw = parse_dataset_lines(PAPER_EXAMPLE, &mut universe).expect("parse");
    let norm = Normalization::Unification.apply(&raw).expect("normalize");
    Engine::new().run(&AggregationRequest::new(norm.dataset.clone(), spec).with_seed(seed))
}

// -------------------------------------------------- journal corruption

/// Satellite: every way a journal file can be damaged must replay into
/// "whatever prefix was intact", never a panic or a hard error.
#[test]
fn corrupt_journals_replay_without_panicking() {
    let submission = JobSubmission {
        algo: Some("Exact".into()),
        ..JobSubmission::new(PAPER_EXAMPLE)
    };
    let submit_record = frame_line(&format!(
        "{{\"rec\":\"submit\",\"id\":0,\"segment\":0,\"submission\":{}}}",
        submission.to_json()
    ));
    let event = frame_line(r#"{"event":"started","spec":"Exact","seed":42}"#);
    // (tag, file contents, submissions recovered, events kept, torn lines)
    let cases: [(&str, String, usize, usize, usize); 5] = [
        (
            "truncated-tail",
            // The last line lost its tail mid-write(2): bad CRC.
            format!("{submit_record}{}", &event[..event.len() / 2]),
            1,
            0,
            1,
        ),
        (
            "mid-file-garbage",
            // A corrupt line invalidates everything after it (the replay
            // cannot trust later offsets), keeping the prefix.
            format!("{submit_record}{event}not json at all\n{event}"),
            1,
            1,
            2,
        ),
        ("empty-file", String::new(), 0, 0, 0),
        ("submission-only", submit_record.clone(), 1, 0, 0),
        (
            "garbage-before-submission",
            // No valid submission record: the whole file is unusable
            // (both lines count as dropped — nothing after a corrupt
            // line can be trusted).
            format!("deadbeef nope\n{submit_record}"),
            0,
            0,
            2,
        ),
    ];
    for (tag, contents, want_jobs, want_events, want_dropped) in cases {
        let dir = scratch_dir(&format!("corrupt-{tag}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("job-0-s0.ndjson"), contents).expect("write");
        let replay = Journal::open(&dir, FsyncPolicy::Never)
            .expect("open")
            .replay()
            .unwrap_or_else(|e| panic!("{tag}: replay must not error: {e}"));
        assert_eq!(replay.jobs.len(), want_jobs, "{tag}: recovered jobs");
        if let Some(job) = replay.jobs.first() {
            assert_eq!(job.events.len(), want_events, "{tag}: surviving events");
            assert!(job.finished.is_none(), "{tag}: no terminal record survived");
        }
        assert_eq!(replay.dropped_lines, want_dropped, "{tag}: dropped lines");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A server must boot (and serve) on a journal directory containing only
/// damaged files — recovery degrades to "nothing to recover", not a
/// refusal to start.
#[test]
fn server_boots_on_a_journal_of_garbage() {
    let dir = scratch_dir("boot-garbage");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("job-0-s0.ndjson"), "").expect("write");
    std::fs::write(dir.join("job-1-s0.ndjson"), "complete nonsense\n").expect("write");
    std::fs::write(dir.join("unrelated.txt"), "not a journal file").expect("write");
    let (client, shutdown) = start_server(journaled_config(&dir));
    let health = client.healthz().expect("healthz");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("journal").and_then(Json::as_str), Some("active"));
    // And it still takes fresh work.
    let job = client
        .submit(&JobSubmission {
            algo: Some("Exact".into()),
            ..JobSubmission::new(PAPER_EXAMPLE)
        })
        .expect("submit");
    let done = client.wait(job.id).expect("wait");
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    shutdown.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------- restart recovery

/// Tentpole, interrupted half: a journal holding a submission with no
/// terminal record (what SIGKILL mid-job leaves) is re-admitted on boot
/// and converges to the same report as an uninterrupted run — ranking,
/// score, outcome, and incumbent-trace scores all identical.
#[test]
fn interrupted_job_recovers_bit_identical_to_uninterrupted_run() {
    let dir = scratch_dir("readmit");
    // Fabricate the crash image through the journal API itself: a
    // submission record, a couple of events, no terminal line.
    {
        let journal = Journal::open(&dir, FsyncPolicy::Always).expect("open");
        let submission = JobSubmission {
            algo: Some("Exact".into()),
            seed: 99,
            idempotency_key: Some("crashed-submit".into()),
            ..JobSubmission::new(PAPER_EXAMPLE)
        };
        let mut writer = journal
            .begin_job(0, 0, &submission.to_json())
            .expect("begin");
        writer.append_event(r#"{"event":"started","spec":"Exact","seed":99}"#);
        // Dropped without finish(): the crash.
    }
    let reference = local_reference(AlgoSpec::Exact, 99);
    let (client, shutdown) = start_server(journaled_config(&dir));
    let status = client.wait(0).expect("recovered job must finish");
    let report = status.get("report").expect("report");
    assert_eq!(
        report.get("score").and_then(Json::as_u64),
        Some(reference.score),
        "recovered score must match the uninterrupted run"
    );
    assert_eq!(
        report.get("outcome").and_then(Json::as_str),
        Some(reference.outcome.to_string().as_str())
    );
    let trace_scores: Vec<u64> = report
        .get("trace")
        .and_then(Json::as_array)
        .expect("trace")
        .iter()
        .filter_map(|t| t.get("score").and_then(Json::as_u64))
        .collect();
    let reference_scores: Vec<u64> = reference.trace.iter().map(|t| t.score).collect();
    assert_eq!(
        trace_scores, reference_scores,
        "incumbent trajectory must replay identically"
    );
    // The re-run journaled itself into the next segment, terminally.
    assert!(dir.join("job-0-s1.ndjson").exists(), "re-run segment");
    // …and an idempotent retry of the original (crashed) POST reattaches
    // to the recovered job instead of duplicating it.
    let retry = client
        .submit(&JobSubmission {
            algo: Some("Exact".into()),
            seed: 99,
            idempotency_key: Some("crashed-submit".into()),
            ..JobSubmission::new(PAPER_EXAMPLE)
        })
        .expect("idempotent resubmit");
    assert!(retry.deduplicated, "must match the journaled key");
    assert_eq!(retry.id, 0, "must be the recovered job, not a new one");
    shutdown.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tentpole, finished half: a job that completed before the crash is
/// servable after restart with its report bytes and event replay intact
/// — no re-execution.
#[test]
fn finished_jobs_survive_restart_byte_for_byte() {
    let dir = scratch_dir("finished");
    let (client, shutdown) = start_server(journaled_config(&dir));
    let job = client
        .submit(&JobSubmission {
            algo: Some("BioConsert".into()),
            seed: 7,
            idempotency_key: Some("finished-once".into()),
            ..JobSubmission::new(PAPER_EXAMPLE)
        })
        .expect("submit");
    client.wait(job.id).expect("finish");
    let before_raw = client.status_raw(job.id).expect("status before restart");
    let before_events: Vec<String> = collect_replay_lines(&client, job.id);
    shutdown.shutdown();

    let (client, shutdown) = start_server(journaled_config(&dir));
    let after_raw = client.status_raw(job.id).expect("status after restart");
    assert_eq!(
        splice_report(&before_raw),
        splice_report(&after_raw),
        "the served report must be the original bytes, not a re-serialization"
    );
    let after = client.status(job.id).expect("status");
    assert_eq!(after.get("state").and_then(Json::as_str), Some("done"));
    let after_events = collect_replay_lines(&client, job.id);
    assert_eq!(before_events, after_events, "event replay must survive");
    // Same idempotency key still deduplicates after the restart.
    let retry = client
        .submit(&JobSubmission {
            algo: Some("BioConsert".into()),
            seed: 7,
            idempotency_key: Some("finished-once".into()),
            ..JobSubmission::new(PAPER_EXAMPLE)
        })
        .expect("resubmit");
    assert!(retry.deduplicated);
    assert_eq!(retry.id, job.id);
    // And fresh ids continue above the recovered ones.
    let fresh = client
        .submit(&JobSubmission {
            algo: Some("Exact".into()),
            ..JobSubmission::new(PAPER_EXAMPLE)
        })
        .expect("fresh submit");
    assert!(
        fresh.id > job.id,
        "fresh ids must not collide with recovered ones"
    );
    assert!(!fresh.deduplicated);
    shutdown.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn terminal record (crash mid-`write(2)` of the final line) must
/// demote the job to "interrupted": the CRC framing rejects the tail and
/// the restart re-runs the job to the same answer.
#[test]
fn torn_terminal_record_triggers_rerun_to_the_same_score() {
    let dir = scratch_dir("torn");
    let config = ServerConfig {
        faults: Arc::new(FaultPlan::none().with_torn_terminal()),
        ..journaled_config(&dir)
    };
    let (client, shutdown) = start_server(config);
    let job = client
        .submit(&JobSubmission {
            algo: Some("Exact".into()),
            seed: 5,
            ..JobSubmission::new(PAPER_EXAMPLE)
        })
        .expect("submit");
    let finished = client.wait(job.id).expect("finish in memory");
    let score_before = report_score(&finished);
    shutdown.shutdown();

    // Restart on the torn journal: the job must come back as interrupted
    // work and re-run to the identical score.
    let (client, shutdown) = start_server(journaled_config(&dir));
    let recovered = client.wait(job.id).expect("re-run after torn terminal");
    assert_eq!(report_score(&recovered), score_before);
    shutdown.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------- degraded mode

/// An fsync failure must not take the server down: the journal turns
/// itself off, `/healthz` flips to "degraded", and jobs keep running
/// in-memory exactly as an unjournaled server would.
#[test]
fn fsync_failure_degrades_to_in_memory_operation() {
    let dir = scratch_dir("degraded");
    let config = ServerConfig {
        journal_fsync: FsyncPolicy::Always,
        faults: Arc::new(FaultPlan::none().with_fsync_error()),
        ..journaled_config(&dir)
    };
    let (client, shutdown) = start_server(config);
    let job = client
        .submit(&JobSubmission {
            algo: Some("Exact".into()),
            ..JobSubmission::new(PAPER_EXAMPLE)
        })
        .expect("submit survives the journal failure");
    let done = client.wait(job.id).expect("job still completes");
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    let health = client.healthz().expect("healthz");
    assert_eq!(
        health.get("status").and_then(Json::as_str),
        Some("degraded"),
        "health must advertise the lost durability"
    );
    assert_eq!(
        health.get("journal").and_then(Json::as_str),
        Some("degraded")
    );
    shutdown.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------ client retries

/// The retrying client against injected connection drops: a submit whose
/// connection is severed before the response retries (surfacing a
/// notice) and lands exactly one job thanks to its idempotency key.
#[test]
fn dropped_connections_are_retried_without_duplicating_the_job() {
    let config = ServerConfig {
        // Drop every 2nd accepted connection unanswered.
        faults: Arc::new(FaultPlan::none().with_drop_accept(2)),
        ..ServerConfig::default()
    };
    let (warmup, shutdown) = start_server(config);
    // Connection #1: burn it on healthz so the submit lands on #2, the
    // dropped one — making the retry deterministic. The submit must come
    // from a second client: the first one pools its healthz connection
    // and would reuse it, never touching the fault.
    warmup.healthz().expect("healthz on connection 1");
    let client = Client::new(warmup.addr());
    let mut notices: Vec<RetryNotice> = Vec::new();
    let job = client
        .submit_with_retry(
            &JobSubmission {
                algo: Some("Exact".into()),
                idempotency_key: Some("retry-once".into()),
                ..JobSubmission::new(PAPER_EXAMPLE)
            },
            &fast_retries(),
            |n| notices.push(n.clone()),
        )
        .expect("retry must eventually land");
    assert!(
        !notices.is_empty(),
        "the dropped connection must surface a retry notice"
    );
    assert_eq!(notices[0].reason, "server unreachable");
    assert!(!job.deduplicated, "first landing is a fresh job");
    // The reconnecting follower delivers the stream exactly once even
    // though every other connection dies.
    let kinds: Vec<String> = client
        .follow_events(job.id, fast_retries(), |_| {})
        .map(|e| {
            e.expect("followed event")
                .get("event")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned()
        })
        .filter(|k| k != "heartbeat")
        .collect();
    assert_eq!(
        kinds.iter().filter(|k| k.as_str() == "started").count(),
        1,
        "no duplicated replay lines across reconnects: {kinds:?}"
    );
    assert_eq!(kinds.last().map(String::as_str), Some("finished"));
    // A later retry of the same key deduplicates.
    let again = client
        .submit_with_retry(
            &JobSubmission {
                algo: Some("Exact".into()),
                idempotency_key: Some("retry-once".into()),
                ..JobSubmission::new(PAPER_EXAMPLE)
            },
            &fast_retries(),
            |_| {},
        )
        .expect("idempotent retry");
    assert!(again.deduplicated);
    assert_eq!(again.id, job.id);
    shutdown.shutdown();
}

/// A server that is down stays down: retries against nothing exhaust the
/// policy and return the transport error instead of hanging.
#[test]
fn retries_exhaust_cleanly_when_no_server_answers() {
    // Bind-then-drop guarantees a port nothing listens on.
    let port = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        listener.local_addr().expect("probe addr").port()
    };
    let client = Client::new(&format!("127.0.0.1:{port}"));
    let policy = RetryPolicy {
        max_attempts: 3,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(20),
        seed: 1,
    };
    let mut notices = 0;
    let err = client
        .submit_with_retry(&JobSubmission::new(PAPER_EXAMPLE), &policy, |_| {
            notices += 1
        })
        .expect_err("nothing is listening");
    assert!(matches!(err, ClientError::Transport(_)), "got {err}");
    assert_eq!(notices, 2, "max_attempts 3 = two retries after the first");
}

// ------------------------------------------------------------- helpers

/// All non-heartbeat lines of a *finished* job's event replay, as text.
fn collect_replay_lines(client: &Client, id: u64) -> Vec<String> {
    client
        .events(id)
        .expect("event stream")
        .map(|e| e.expect("event").to_string())
        .filter(|line| !line.contains("\"heartbeat\""))
        .collect()
}

/// The raw `"report":{…}` slice of a status document (byte-exact).
fn splice_report(raw: &str) -> &str {
    let i = raw.rfind("\"report\":").expect("status carries a report");
    &raw[i..raw.len() - 1]
}

fn report_score(status: &Json) -> u64 {
    status
        .get("report")
        .and_then(|r| r.get("score"))
        .and_then(Json::as_u64)
        .expect("report score")
}

/// A dataset on which `BestOf(BioConsert,1000)` runs for minutes, in the
/// wire text format: a job on it stays live until it is cancelled.
fn slow_dataset_text() -> String {
    let mut rng = StdRng::seed_from_u64(23);
    let data = UniformSampler::new(200).sample_dataset(200, 20, &mut rng);
    data.rankings().iter().map(|r| format!("{r}\n")).collect()
}

/// `retain_done` bounds the finished jobs kept. Beyond it the oldest
/// finished job by submission order goes first — even one that finished
/// last — and takes its idempotency key and journal segments with it. A
/// live job is never evicted, however old.
#[test]
fn retain_done_evicts_the_oldest_finished_jobs_and_spares_live_ones() {
    let dir = scratch_dir("retain");
    let (client, shutdown) = start_server(ServerConfig {
        retain_done: 2,
        max_jobs: 2,
        ..journaled_config(&dir)
    });
    let borda = |key: &str| JobSubmission {
        algo: Some("Borda".to_owned()),
        idempotency_key: Some(key.to_owned()),
        ..JobSubmission::new(PAPER_EXAMPLE)
    };
    let run = |key: &str| {
        let job = client.submit(&borda(key)).expect("submit");
        client.wait(job.id).expect("job finishes");
        job.id
    };
    let gone = |id: u64| {
        matches!(
            client.status(id),
            Err(ClientError::Status { status: 404, .. })
        )
    };
    let segment = |id: u64| dir.join(format!("job-{id}-s0.ndjson")).exists();

    // The oldest job stays live until it is cancelled.
    let live = client
        .submit(&JobSubmission {
            algo: Some("BestOf(BioConsert,1000)".to_owned()),
            budget: Some(Duration::from_secs(120)),
            ..JobSubmission::new(slow_dataset_text())
        })
        .expect("submit the live job")
        .id;
    let (a, b, c, d) = (run("a"), run("b"), run("c"), run("d"));
    // Submitting e finds a, b, c, d finished: the two oldest go.
    let e = run("e");
    for id in [a, b] {
        assert!(gone(id), "job {id} should be evicted");
        assert!(!segment(id), "job {id}'s journal segment should be removed");
    }
    for id in [live, c, d, e] {
        assert!(!gone(id), "job {id} should be retained");
        assert!(segment(id), "job {id}'s journal segment should be kept");
    }
    let status = client.status(live).expect("live job status");
    assert_eq!(status.get("state").and_then(Json::as_str), Some("running"));

    // a's key was released with it: the same key now admits a new job.
    let again = client.submit(&borda("a")).expect("resubmit a");
    assert!(!again.deduplicated, "an evicted job's key must be free");
    assert_ne!(again.id, a);
    client.wait(again.id).expect("resubmitted job finishes");
    assert!(gone(c), "submitting again evicted c");

    // The live job finishes last but is the oldest by submission, so the
    // next eviction takes it before d.
    client.cancel(live).expect("cancel the live job");
    client.wait(live).expect("live job resolves");
    let f = run("f");
    for id in [live, d] {
        assert!(gone(id), "job {id} should be evicted");
        assert!(!segment(id), "job {id}'s journal segment should be removed");
    }
    for id in [e, again.id, f] {
        assert!(!gone(id), "job {id} should be retained");
    }
    let dedup = client.submit(&borda("e")).expect("resubmit e");
    assert!(
        dedup.deduplicated && dedup.id == e,
        "a retained key still dedupes"
    );
    shutdown.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Eviction unlinks a recovered job's segments by name, up to the highest
/// one replay found for it — unusable ones included — without listing the
/// journal directory. The job below left a valid interrupted `s0` and
/// garbage `s1` and `s2`; its re-run writes `s1`, and once it is evicted
/// no `job-0-*` file remains.
#[test]
fn evicting_a_recovered_job_unlinks_every_segment_replay_found() {
    let dir = scratch_dir("evict-segments");
    {
        let journal = Journal::open(&dir, FsyncPolicy::Always).expect("open");
        let submission = JobSubmission {
            algo: Some("Borda".into()),
            ..JobSubmission::new(PAPER_EXAMPLE)
        };
        journal
            .begin_job(0, 0, &submission.to_json())
            .expect("begin job");
    }
    for segment in [1, 2] {
        std::fs::write(dir.join(format!("job-0-s{segment}.ndjson")), "garbage\n")
            .expect("garbage segment");
    }
    let (client, shutdown) = start_server(ServerConfig {
        retain_done: 1,
        ..journaled_config(&dir)
    });
    let recovered = client.wait(0).expect("the recovered job finishes");
    assert_eq!(recovered.get("state").and_then(Json::as_str), Some("done"));
    // Finished jobs after it push job 0 past `retain_done` (the last
    // submit finds at least two finished jobs ahead of it).
    for _ in 0..3 {
        let job = client
            .submit(&JobSubmission {
                algo: Some("Borda".into()),
                ..JobSubmission::new(PAPER_EXAMPLE)
            })
            .expect("submit");
        client.wait(job.id).expect("job finishes");
    }
    assert!(
        matches!(
            client.status(0),
            Err(ClientError::Status { status: 404, .. })
        ),
        "job 0 was evicted"
    );
    let left: Vec<String> = std::fs::read_dir(&dir)
        .expect("list journal")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("job-0-"))
        .collect();
    assert!(left.is_empty(), "segments left behind: {left:?}");
    shutdown.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `f` on its own thread and fail the test if it takes longer than
/// `limit` — a hang (a lock held through an unbounded loop) then shows up
/// as a failure instead of a stuck suite.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("no result within {limit:?}"))
}

/// A segment file's name is its identity. A file renamed from another
/// job, or from another segment of the same job, disagrees with its own
/// submission record: replay counts it unusable, and the server boots
/// without it instead of panicking.
#[test]
fn a_segment_whose_record_disagrees_with_its_name_is_unusable() {
    for (tag, renamed) in [
        ("other-job", "job-3-s0.ndjson"),
        ("other-segment", "job-0-s5.ndjson"),
    ] {
        let dir = scratch_dir(&format!("renamed-{tag}"));
        {
            let journal = Journal::open(&dir, FsyncPolicy::Always).expect("open");
            let submission = JobSubmission {
                algo: Some("Borda".into()),
                ..JobSubmission::new(PAPER_EXAMPLE)
            };
            let mut writer = journal
                .begin_job(0, 0, &submission.to_json())
                .expect("begin");
            writer.append_event(r#"{"event":"started","spec":"BordaCount","seed":42}"#);
            writer.finish("heuristic", Some(r#"{"score":5}"#));
        }
        std::fs::rename(dir.join("job-0-s0.ndjson"), dir.join(renamed)).expect("rename");
        let replay = Journal::open(&dir, FsyncPolicy::Never)
            .expect("open")
            .replay()
            .expect("replay");
        assert!(replay.jobs.is_empty(), "{tag}: nothing recoverable");
        assert_eq!(
            replay.corrupt_files, 1,
            "{tag}: the renamed file is unusable"
        );

        let (client, shutdown) = start_server(journaled_config(&dir));
        let health = client.healthz().expect("healthz");
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
        for id in [0, 3] {
            assert!(
                matches!(
                    client.status(id),
                    Err(ClientError::Status { status: 404, .. })
                ),
                "{tag}: job {id} must not be served"
            );
        }
        shutdown.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An interrupted job journaled at the last segment number has nowhere
/// to record a re-run. It is dropped on every restart alike: never re-run
/// into `s0`, its file left as it was, and fresh ids still continue above
/// it.
#[test]
fn an_interrupted_job_at_the_last_segment_is_dropped_on_every_restart() {
    let dir = scratch_dir("last-segment");
    let last = dir.join(format!("job-0-s{}.ndjson", u32::MAX));
    {
        let journal = Journal::open(&dir, FsyncPolicy::Always).expect("open");
        let submission = JobSubmission {
            algo: Some("Borda".into()),
            ..JobSubmission::new(PAPER_EXAMPLE)
        };
        let mut writer = journal
            .begin_job(0, u32::MAX, &submission.to_json())
            .expect("begin");
        writer.append_event(r#"{"event":"started","spec":"BordaCount","seed":42}"#);
        // Dropped without finish(): the crash.
    }
    let journaled = std::fs::read(&last).expect("the last segment");
    for restart in 0..2 {
        let (client, shutdown) = start_server(journaled_config(&dir));
        assert!(
            matches!(
                client.status(0),
                Err(ClientError::Status { status: 404, .. })
            ),
            "restart {restart}: job 0 must not be re-run"
        );
        let fresh = client
            .submit(&JobSubmission {
                algo: Some("Borda".into()),
                ..JobSubmission::new(PAPER_EXAMPLE)
            })
            .expect("submit");
        assert_eq!(
            fresh.id,
            1 + restart,
            "restart {restart}: ids continue above job 0"
        );
        client.wait(fresh.id).expect("fresh job finishes");
        shutdown.shutdown();
        assert!(
            !dir.join("job-0-s0.ndjson").exists(),
            "restart {restart}: no wrap to s0"
        );
        assert_eq!(
            std::fs::read(&last).expect("the last segment"),
            journaled,
            "restart {restart}: the segment is left as it was"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Eviction unlinks the segments replay saw, not every number up to the
/// largest one named: a stray unusable `s4294967295` next to a finished
/// `s0` costs one unlink, and evicting the job still leaves no `job-0-*`
/// file behind.
#[test]
fn a_stray_last_segment_does_not_make_eviction_unbounded() {
    let dir = scratch_dir("stray-last-segment");
    {
        let journal = Journal::open(&dir, FsyncPolicy::Always).expect("open");
        let submission = JobSubmission {
            algo: Some("Borda".into()),
            ..JobSubmission::new(PAPER_EXAMPLE)
        };
        let mut writer = journal
            .begin_job(0, 0, &submission.to_json())
            .expect("begin");
        writer.finish("heuristic", Some(r#"{"score":5}"#));
    }
    std::fs::write(dir.join(format!("job-0-s{}.ndjson", u32::MAX)), "garbage\n")
        .expect("stray segment");
    let (client, shutdown) = start_server(ServerConfig {
        retain_done: 1,
        ..journaled_config(&dir)
    });
    // Finished jobs after job 0 push it past `retain_done`.
    let client = within(Duration::from_secs(60), move || {
        for _ in 0..3 {
            let job = client
                .submit(&JobSubmission {
                    algo: Some("Borda".into()),
                    ..JobSubmission::new(PAPER_EXAMPLE)
                })
                .expect("submit");
            client.wait(job.id).expect("job finishes");
        }
        client
    });
    assert!(
        matches!(
            client.status(0),
            Err(ClientError::Status { status: 404, .. })
        ),
        "job 0 was evicted"
    );
    let left: Vec<String> = std::fs::read_dir(&dir)
        .expect("list journal")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("job-0-"))
        .collect();
    assert!(left.is_empty(), "segments left behind: {left:?}");
    shutdown.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
