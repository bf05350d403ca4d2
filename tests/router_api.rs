//! End-to-end tests of the fingerprint-routing front tier (DESIGN.md
//! §14.2): a batch submitted through the router matches the in-process
//! [`Engine::run_batch`], dataset sessions stay sticky to one worker
//! across PATCHes, inline submissions fail over around a dead worker,
//! sticky state on a dead worker answers 503 + `Retry-After`, a fleet
//! with no reachable worker answers 503, idempotent resubmission through
//! the router reuses router-side ids, the bearer token guards the
//! router exactly as it guards a worker, and steady routed traffic opens
//! no TCP connections on either hop. Routed answers are the owning
//! worker's bytes: workers mint ids in the residue class the router's
//! `Rawt-Shard` header names, and a fresh router finds a session by
//! walking its rendezvous order. A routed event stream delivers each
//! line while the job still runs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rank_aggregation_with_ties::prelude::*;
use rank_aggregation_with_ties::ragen::UniformSampler;
use rank_aggregation_with_ties::rank_core::parse::parse_dataset_lines;
use rank_aggregation_with_ties::rank_core::telemetry::parse_exposition;
use rank_aggregation_with_ties::rank_core::Universe;
use service::client::{Client, ClientError};
use service::http::{write_request, write_request_with_headers, ClientResponse};
use service::json::Json;
use service::proto::{BatchSubmission, JobSubmission, MAX_SHARDS};
use service::router::{rendezvous_order, Router, RouterConfig, RouterShutdown};
use service::server::{Server, ServerConfig, ShutdownHandle};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

const PAPER_EXAMPLE: &str =
    "# the paper's §2.2 example\n[{A},{D},{B,C}]\n[{A},{B,C},{D}]\n[{D},{A,C},{B}]\n";

const PANEL: [&str; 4] = ["BioConsert", "Exact", "Borda", "KwikSort"];

fn start_worker(config: ServerConfig) -> (String, ShutdownHandle) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind worker");
    let addr = server.local_addr().expect("worker addr").to_string();
    let shutdown = server.shutdown_handle().expect("worker shutdown handle");
    std::thread::spawn(move || server.serve());
    (addr, shutdown)
}

fn start_router(workers: Vec<String>, token: Option<String>) -> (Client, RouterShutdown, String) {
    let router = Router::bind("127.0.0.1:0", RouterConfig { workers, token }).expect("bind router");
    let addr = router.local_addr().expect("router addr").to_string();
    let shutdown = router.shutdown_handle().expect("router shutdown handle");
    std::thread::spawn(move || router.serve());
    (Client::new(&addr), shutdown, addr)
}

/// An address that was briefly bound and is now guaranteed dead —
/// connecting to it gets an immediate refusal, the same signal the
/// router sees from a SIGKILLed worker process.
fn dead_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind throwaway");
    listener.local_addr().expect("throwaway addr").to_string()
}

/// Shut a worker down and wait until its port actually refuses
/// connections (the accept loop may drain one last wake-up connect).
fn kill_worker(addr: &str, shutdown: &ShutdownHandle) {
    shutdown.shutdown();
    for _ in 0..200 {
        if TcpStream::connect(addr).is_err() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("worker {addr} still accepting after shutdown");
}

fn panel_submission() -> BatchSubmission {
    BatchSubmission {
        seed: 7,
        ..BatchSubmission::new(PAPER_EXAMPLE, PANEL.iter().map(|s| s.to_string()).collect())
    }
}

/// The acceptance bar: the router is transparent — a batch through it
/// matches a local [`Engine::run_batch`] spec for spec (same field set
/// as the direct-to-worker parity test in `tests/batch_api.rs`), and
/// the router-minted sub-job ids resolve through `GET /v1/jobs/{id}`.
#[test]
fn batch_through_router_matches_local_run_batch() {
    let (worker_a, down_a) = start_worker(ServerConfig::default());
    let (worker_b, down_b) = start_worker(ServerConfig::default());
    let (client, down_router, _) = start_router(vec![worker_a, worker_b], None);

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
        .expect("submit via router");
    assert_eq!(batch.jobs.len(), PANEL.len());
    let status = client.wait_batch(batch.id).expect("wait via router");
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
            "{spec}: scores must match through the router"
        );
        assert_eq!(
            report.get("outcome").and_then(Json::as_str),
            Some(local_report.outcome.to_string().as_str()),
            "{spec}: outcomes must match through the router"
        );
        let remote_ranking = report.get("ranking").expect("ranking").to_string();
        let local_ranking =
            service::proto::ranking_json(&norm.denormalize(&local_report.ranking), &universe);
        assert_eq!(
            Json::parse(&remote_ranking).expect("remote ranking"),
            Json::parse(&local_ranking).expect("local ranking"),
            "{spec}: rankings must match through the router"
        );
    }

    // Router-minted sub-job ids are real job ids on the router.
    for sub in &batch.jobs {
        let doc = client.status(sub.id).expect("sub-job status via router");
        assert_eq!(
            doc.get("spec").and_then(Json::as_str),
            Some(sub.spec.as_str()),
            "sub-job {} must resolve through /v1/jobs/",
            sub.id
        );
    }
    down_router.shutdown();
    down_a.shutdown();
    down_b.shutdown();
}

/// The sticky-session acceptance check: a dataset created through
/// the router is PATCHed through the router repeatedly and every request
/// lands on the same worker — versions increment (a second worker would
/// 404 the session), jobs by `dataset_id` run against the patched state,
/// and exactly one worker's healthz holds the session.
#[test]
fn dataset_session_sticks_to_one_worker() {
    let fleet: Vec<(String, ShutdownHandle)> = (0..3)
        .map(|_| start_worker(ServerConfig::default()))
        .collect();
    let addrs: Vec<String> = fleet.iter().map(|(addr, _)| addr.clone()).collect();
    let (client, down_router, _) = start_router(addrs.clone(), None);

    let created = client
        .create_dataset("live", PAPER_EXAMPLE)
        .expect("PUT via router");
    assert_eq!(created.get("version").and_then(Json::as_u64), Some(1));
    for expected_version in 2..=4u64 {
        let patched = client
            .patch_dataset(
                "live",
                "{\"ops\":[{\"op\":\"add\",\"ranking\":\"[{A},{B},{C},{D}]\"}]}",
            )
            .expect("PATCH via router");
        assert_eq!(
            patched.get("version").and_then(Json::as_u64),
            Some(expected_version),
            "every PATCH must land on the worker holding the session"
        );
    }
    let job = client
        .submit(&JobSubmission {
            algo: Some("Exact".into()),
            ..JobSubmission::for_dataset("live")
        })
        .expect("job on the session via router");
    let done = client.wait(job.id).expect("wait via router");
    assert!(
        done.get("report").is_some_and(|r| !r.is_null()),
        "session job must finish"
    );

    let holders: Vec<&String> = addrs
        .iter()
        .filter(|addr| {
            Client::new(addr)
                .healthz()
                .expect("direct worker healthz")
                .get("datasets")
                .and_then(Json::as_u64)
                == Some(1)
        })
        .collect();
    assert_eq!(holders.len(), 1, "exactly one worker holds the session");

    down_router.shutdown();
    for (_, down) in fleet {
        down.shutdown();
    }
}

/// Killing the worker that holds a session: the router refuses to fail
/// over (the patched matrix is not portable) and answers 503 with a
/// `Retry-After`, for both the session route and jobs naming it.
#[test]
fn sticky_session_on_dead_worker_gets_503_with_retry_after() {
    let (worker_a, down_a) = start_worker(ServerConfig::default());
    let (worker_b, down_b) = start_worker(ServerConfig::default());
    let (client, down_router, _) = start_router(vec![worker_a.clone(), worker_b.clone()], None);

    client
        .create_dataset("doomed", PAPER_EXAMPLE)
        .expect("PUT via router");
    let a_holds = Client::new(&worker_a)
        .healthz()
        .expect("worker healthz")
        .get("datasets")
        .and_then(Json::as_u64)
        == Some(1);
    if a_holds {
        kill_worker(&worker_a, &down_a);
    } else {
        kill_worker(&worker_b, &down_b);
    }

    match client.patch_dataset("doomed", "{\"ops\":[{\"op\":\"remove\",\"index\":0}]}") {
        Err(ClientError::Status {
            status: 503,
            retry_after_secs,
            ..
        }) => {
            assert_eq!(retry_after_secs, Some(2), "503 must carry Retry-After");
        }
        other => panic!("PATCH to a dead session worker must 503, got {other:?}"),
    }
    match client.submit(&JobSubmission::for_dataset("doomed")) {
        Err(ClientError::Status {
            status: 503,
            retry_after_secs,
            ..
        }) => {
            assert!(retry_after_secs.is_some());
        }
        other => panic!("job on a dead session worker must 503, got {other:?}"),
    }

    // The fleet is degraded, not down — healthz says so.
    let health = client.healthz().expect("router healthz");
    assert_eq!(
        health.get("status").and_then(Json::as_str),
        Some("degraded")
    );
    assert_eq!(health.get("alive").and_then(Json::as_u64), Some(1));

    down_router.shutdown();
    if a_holds {
        down_b.shutdown();
    } else {
        down_a.shutdown();
    }
}

/// A dead worker mid-fleet: inline submissions (no session pin) slide
/// past it through the rendezvous order, finish on the survivor, and a
/// keyed resubmission through the router stays safe — same answer, no
/// duplicate work.
#[test]
fn inline_jobs_fail_over_when_a_worker_dies() {
    let (worker_a, down_a) = start_worker(ServerConfig::default());
    let (worker_b, down_b) = start_worker(ServerConfig::default());
    let (client, down_router, _) = start_router(vec![worker_a.clone(), worker_b], None);
    kill_worker(&worker_a, &down_a);

    // Varied comment lines vary the routing fingerprint, so some of
    // these keys prefer the dead worker; every one must still land.
    for i in 0..6 {
        let submission = JobSubmission {
            algo: Some("Exact".into()),
            idempotency_key: Some(format!("failover-{i}")),
            ..JobSubmission::new(format!("# variant {i}\n{PAPER_EXAMPLE}"))
        };
        let first = client
            .submit(&submission)
            .expect("submit around dead worker");
        let done = client.wait(first.id).expect("wait via router");
        assert_eq!(
            done.get("report")
                .and_then(|r| r.get("score"))
                .and_then(Json::as_u64),
            Some(5),
            "job {i} must finish on the survivor with the §2.2 optimum"
        );
        // Retrying the same submission through the router reattaches to
        // the finished job instead of re-running it.
        let second = client.submit(&submission).expect("idempotent resubmit");
        assert!(
            second.deduplicated,
            "resubmit with the same key must deduplicate"
        );
        assert_eq!(
            second.id, first.id,
            "router id must be stable across the retry"
        );
    }
    down_router.shutdown();
    down_b.shutdown();
}

/// Every worker down: submissions answer 503 with `Retry-After`, and the
/// router's healthz stays reachable reporting `"down"` (the router
/// itself is alive — that is the point of the aggregate probe).
#[test]
fn all_workers_down_is_503_and_healthz_reports_it() {
    let (client, down_router, _) = start_router(vec![dead_addr(), dead_addr()], None);

    match client.submit(&JobSubmission::new(PAPER_EXAMPLE)) {
        Err(ClientError::Status {
            status: 503,
            retry_after_secs,
            ..
        }) => {
            assert!(retry_after_secs.is_some(), "503 must carry Retry-After");
        }
        other => panic!("submit with no workers must 503, got {other:?}"),
    }
    match client.submit_batch(&panel_submission()) {
        Err(ClientError::Status { status: 503, .. }) => {}
        other => panic!("batch with no workers must 503, got {other:?}"),
    }

    let health = client.healthz().expect("router healthz stays up");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("down"));
    assert_eq!(health.get("alive").and_then(Json::as_u64), Some(0));
    assert_eq!(health.get("total").and_then(Json::as_u64), Some(2));
    down_router.shutdown();
}

/// The nesting bomb through the front tier: the router decodes every
/// submission body for its routing key before a worker sees it, so an
/// unbounded decoder would let one body abort the router and a worker
/// with it. Both answer 400 and keep serving.
#[test]
fn nesting_bomb_gets_a_400_and_never_kills_the_router() {
    let (worker_a, down_a) = start_worker(ServerConfig::default());
    let (worker_b, down_b) = start_worker(ServerConfig::default());
    let (client, down_router, addr) = start_router(vec![worker_a, worker_b], None);
    let bomb = "[".repeat(20_000);
    for path in ["/v1/jobs", "/v1/batches"] {
        let mut stream = TcpStream::connect(&addr).expect("connect to router");
        write_request(
            &mut stream,
            "POST",
            path,
            &addr,
            Some(("application/json", bomb.as_bytes())),
            false,
        )
        .expect("send the bomb");
        let response = ClientResponse::read(stream).expect("router answers");
        assert_eq!(response.status, 400, "{path}");
    }
    let health = client.healthz().expect("router healthz after the bomb");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("alive").and_then(Json::as_u64), Some(2));
    down_router.shutdown();
    down_a.shutdown();
    down_b.shutdown();
}

/// The bearer token guards the router exactly as it guards a worker:
/// `GET /healthz` stays open for probes, everything else 401s without
/// the token, and an authenticated client works end to end — the router
/// forwarding the token to token-guarded workers.
#[test]
fn router_token_guards_everything_but_healthz() {
    let token_config = || ServerConfig {
        token: Some("fleet-secret".into()),
        ..ServerConfig::default()
    };
    let (worker_a, down_a) = start_worker(token_config());
    let (worker_b, down_b) = start_worker(token_config());
    let (bare, down_router, router_addr) =
        start_router(vec![worker_a, worker_b], Some("fleet-secret".into()));

    let health = bare.healthz().expect("healthz stays open");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert!(
        matches!(
            bare.submit(&JobSubmission::new(PAPER_EXAMPLE)),
            Err(ClientError::Status { status: 401, .. })
        ),
        "missing token must 401 at the router"
    );

    let authed = Client::with_token(&router_addr, "fleet-secret");
    let job = authed
        .submit(&JobSubmission {
            algo: Some("Exact".into()),
            ..JobSubmission::new(PAPER_EXAMPLE)
        })
        .expect("authenticated submit via router");
    let done = authed.wait(job.id).expect("authenticated wait via router");
    assert_eq!(
        done.get("report")
            .and_then(|r| r.get("score"))
            .and_then(Json::as_u64),
        Some(5)
    );
    down_router.shutdown();
    down_a.shutdown();
    down_b.shutdown();
}

/// Every tier's `rawt_http_connections_total`, as the router's merged
/// `/metrics` shows it: the router's own (no `worker` label), then each
/// worker's.
fn connection_counts(client: &Client) -> Vec<(Option<String>, u64)> {
    let mut counts: Vec<(Option<String>, u64)> =
        parse_exposition(&client.metrics_text().expect("router /metrics"))
            .into_iter()
            .filter(|f| f.name == "rawt_http_connections_total")
            .flat_map(|f| f.samples)
            .map(|s| (s.label("worker").map(str::to_owned), s.value as u64))
            .collect();
    counts.sort();
    counts
}

/// The serving path's steady state opens no TCP connections: the client
/// pools its router connection, the router pools one per worker, and
/// event streams hand their sockets back after the terminator. A stream
/// dropped mid-way is the exception — its socket dies with it, and the
/// next exchange dials a fresh one.
#[test]
fn steady_routed_traffic_opens_no_connections() {
    let (worker_a, down_a) = start_worker(ServerConfig::default());
    let (worker_b, down_b) = start_worker(ServerConfig::default());
    let (client, down_router, _) = start_router(vec![worker_a, worker_b], None);
    // Distinct texts route by content hash, so the ops spread over both
    // workers.
    let op = |i: u64| {
        let job = client
            .submit(&JobSubmission {
                algo: Some("Borda".to_owned()),
                seed: i,
                ..JobSubmission::new(format!("# variant {}\n{PAPER_EXAMPLE}", i % 4))
            })
            .expect("submit via router");
        let status = client.wait(job.id).expect("events to the end, then status");
        assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
    };
    op(0);
    let before = connection_counts(&client);
    assert_eq!(before.len(), 3, "router + two workers: {before:?}");
    for i in 0..50 {
        op(i);
    }
    assert_eq!(
        connection_counts(&client),
        before,
        "50 routed ops must open no TCP connections"
    );

    // A follow job's stream, dropped mid-way: the client must not reuse
    // that socket, and its next exchange still succeeds.
    client
        .create_dataset("live", PAPER_EXAMPLE)
        .expect("PUT via router");
    let job = client
        .submit(&JobSubmission {
            algo: Some("BioConsert".to_owned()),
            follow: true,
            ..JobSubmission::for_dataset("live")
        })
        .expect("submit follow job");
    let opened = connection_counts(&client);
    for event in client.events(job.id).expect("event stream") {
        let event = event.expect("event line");
        if event.get("event").and_then(Json::as_str) == Some("resolved") {
            break;
        }
    }
    client
        .cancel(job.id)
        .expect("next exchange after a dropped stream");
    let router_opens = |counts: &[(Option<String>, u64)]| counts[0].1;
    assert_eq!(
        router_opens(&connection_counts(&client)),
        router_opens(&opened) + 1,
        "the dropped stream's socket must be replaced by exactly one fresh dial"
    );
    client.wait(job.id).expect("cancelled follow job settles");

    down_router.shutdown();
    down_a.shutdown();
    down_b.shutdown();
}

/// One raw `GET` on a fresh connection: status and body bytes (a chunked
/// body comes back as its lines joined by `\n`).
fn raw_get(addr: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, "GET", path, addr, None, false).expect("send");
    let response = ClientResponse::read(stream).expect("response head");
    let status = response.status;
    (status, response.body_string().expect("response body"))
}

/// Labels are the user's bytes, even when they are spelled like the
/// protocol's URLs: through the router, a job's status, its batch's
/// status and the merged batch stream are byte-identical to the owning
/// worker's own documents, ids included. (A router that spliced ids by
/// pattern rewrote these labels.)
#[test]
fn labels_spelled_like_urls_pass_through_the_router_untouched() {
    let (worker_a, down_a) = start_worker(ServerConfig::default());
    let (worker_b, down_b) = start_worker(ServerConfig::default());
    let workers = vec![worker_a, worker_b];
    let (client, down_router, router_addr) = start_router(workers.clone(), None);
    let dataset = concat!(
        "[{/v1/jobs/0},{/v1/batches/0},{C}]\n",
        "[{/v1/batches/0},{/v1/jobs/0,C}]\n",
        "[{C},{/v1/jobs/0},{/v1/batches/0}]\n"
    );
    let batch = client
        .submit_batch(&BatchSubmission {
            seed: 3,
            ..BatchSubmission::new(dataset, vec!["Exact".into(), "Borda".into()])
        })
        .expect("submit via router");
    client.wait_batch(batch.id).expect("batch finishes");

    // Worker k of N mints the ids ≡ k (mod N): a routed id is the
    // owner's own id.
    let n = workers.len() as u64;
    let owner = &workers[(batch.id % n) as usize];
    let through = |path: &str| raw_get(&router_addr, path);
    let direct = |path: &str| raw_get(owner, path);

    let (status, routed) = through(&format!("/v1/batches/{}", batch.id));
    assert_eq!(status, 200, "{routed}");
    let (_, own) = direct(&format!("/v1/batches/{}", batch.id));
    assert!(routed.contains("/v1/batches/0") && routed.contains("/v1/jobs/0"));
    assert_eq!(routed, own, "batch status");
    let doc = Json::parse(&routed).expect("batch status JSON");
    assert_eq!(doc.get("id").and_then(Json::as_u64), Some(batch.id));
    let routed_ids: Vec<u64> = doc
        .get("jobs")
        .and_then(Json::as_array)
        .expect("jobs")
        .iter()
        .map(|job| job.get("id").and_then(Json::as_u64).expect("sub-job id"))
        .collect();
    let sub_ids: Vec<u64> = batch.jobs.iter().map(|job| job.id).collect();
    assert_eq!(routed_ids, sub_ids, "sub-job ids are router ids");

    for id in &sub_ids {
        assert_eq!(id % n, batch.id % n, "a batch's sub-jobs share its worker");
        let (status, routed) = through(&format!("/v1/jobs/{id}"));
        assert_eq!(status, 200, "{routed}");
        assert_eq!(
            client.status_raw(*id).expect("client raw status"),
            routed,
            "the client's raw status is the routed document"
        );
        let (_, own) = direct(&format!("/v1/jobs/{id}"));
        assert!(routed.contains("/v1/jobs/0"), "{routed}");
        assert_eq!(routed, own, "job {id} status");
        let doc = Json::parse(&routed).expect("job status JSON");
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(*id));
    }

    let (status, routed) = through(&format!("/v1/batches/{}/events", batch.id));
    assert_eq!(status, 200, "{routed}");
    let (_, own) = direct(&format!("/v1/batches/{}/events", batch.id));
    assert_eq!(routed, own, "merged batch events");
    for line in routed.lines() {
        let event = Json::parse(line).expect("event line");
        let job = event.get("job").and_then(Json::as_u64).expect("tagged");
        assert!(
            sub_ids.contains(&job),
            "line tagged with a router id: {line}"
        );
    }

    down_router.shutdown();
    down_a.shutdown();
    down_b.shutdown();
}

/// The router keeps no id state, so restarting it loses nothing: a
/// fresh router over the same worker list resolves every job, batch and
/// sub-job id the first one handed out, to the same documents.
#[test]
fn ids_survive_a_router_restart() {
    let (worker_a, down_a) = start_worker(ServerConfig::default());
    let (worker_b, down_b) = start_worker(ServerConfig::default());
    let workers = vec![worker_a, worker_b];
    let (first, down_first, first_addr) = start_router(workers.clone(), None);
    let job = first
        .submit(&JobSubmission {
            algo: Some("Exact".into()),
            ..JobSubmission::new(PAPER_EXAMPLE)
        })
        .expect("submit via the first router");
    first.wait(job.id).expect("job finishes");
    let batch = first
        .submit_batch(&panel_submission())
        .expect("batch via the first router");
    first.wait_batch(batch.id).expect("batch finishes");

    let mut paths = vec![
        format!("/v1/jobs/{}", job.id),
        format!("/v1/batches/{}", batch.id),
        format!("/v1/batches/{}/events", batch.id),
    ];
    paths.extend(batch.jobs.iter().map(|sub| format!("/v1/jobs/{}", sub.id)));
    let before: Vec<(u16, String)> = paths.iter().map(|p| raw_get(&first_addr, p)).collect();
    down_first.shutdown();
    drop(first);

    let (_, down_second, second_addr) = start_router(workers, None);
    for (path, before) in paths.iter().zip(&before) {
        assert_eq!(before.0, 200, "{path} via the first router: {}", before.1);
        assert_eq!(
            &raw_get(&second_addr, path),
            before,
            "{path} must resolve the same through a restarted router"
        );
    }
    down_second.shutdown();
    down_a.shutdown();
    down_b.shutdown();
}

/// A client cannot tell a router from a worker: a submit reply, a job's
/// status and its event stream through the router are the owning
/// worker's own bytes. (The submit reply is compared on an idempotent
/// resubmit, which both tiers answer with the same job.)
#[test]
fn routed_replies_are_the_owners_bytes() {
    let (worker_a, down_a) = start_worker(ServerConfig::default());
    let (worker_b, down_b) = start_worker(ServerConfig::default());
    let workers = vec![worker_a, worker_b];
    let (client, down_router, router_addr) = start_router(workers.clone(), None);
    for i in 0..4 {
        let body = JobSubmission {
            algo: Some("Exact".into()),
            idempotency_key: Some(format!("owner-bytes-{i}")),
            ..JobSubmission::new(format!("# variant {i}\n{PAPER_EXAMPLE}"))
        }
        .to_json();
        let (status, first) = post_shard(&router_addr, "/v1/jobs", None, &body);
        assert_eq!(status, 202, "{first}");
        let id = id_of(&first);
        client.wait(id).expect("job finishes");
        let owner = &workers[(id % 2) as usize];
        let raw_post = |addr: &str| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            write_request(
                &mut stream,
                "POST",
                "/v1/jobs",
                addr,
                Some(("application/json", body.as_bytes())),
                false,
            )
            .expect("send");
            let response = ClientResponse::read(stream).expect("response head");
            (response.status, response.body_string().expect("body"))
        };
        let routed = raw_post(&router_addr);
        assert_eq!(routed.0, 200, "{}", routed.1);
        assert_eq!(routed, raw_post(owner), "submit reply of job {id}");
        for path in [format!("/v1/jobs/{id}"), format!("/v1/jobs/{id}/events")] {
            let routed = raw_get(&router_addr, &path);
            assert_eq!(routed.0, 200, "{path}: {}", routed.1);
            assert_eq!(routed, raw_get(owner, &path), "{path}");
        }
    }
    // A job no worker has is the owner's own 404.
    let missing = raw_get(&router_addr, "/v1/jobs/1000001");
    assert_eq!(missing.0, 404);
    assert_eq!(missing, raw_get(&workers[1], "/v1/jobs/1000001"));
    down_router.shutdown();
    down_a.shutdown();
    down_b.shutdown();
}

/// Routed liveness: a budgeted job that keeps searching long after its
/// first improvement must have that incumbent reach a subscriber through
/// the router while the job still reports `running`. A worker or router
/// that held a ready line while it waited for the next would deliver it
/// only with the job's terminal lines (the budget is far below the
/// heartbeat interval, and the stream stays far below a flush's worth of
/// bytes).
#[test]
fn a_routed_incumbent_arrives_while_the_job_runs() {
    let (worker, down_worker) = start_worker(ServerConfig::default());
    let (client, down_router, _) = start_router(vec![worker], None);
    let mut rng = StdRng::seed_from_u64(11);
    let data = UniformSampler::new(40).sample_dataset(40, 10, &mut rng);
    let text: String = data.rankings().iter().map(|r| format!("{r}\n")).collect();
    let job = client
        .submit(&JobSubmission {
            algo: Some("BestOf(BioConsert,100000)".into()),
            budget: Some(Duration::from_secs(3)),
            ..JobSubmission::new(text)
        })
        .expect("submit via router");
    let first = client
        .events(job.id)
        .expect("routed stream")
        .map(|event| event.expect("well-formed event"))
        .find(|event| event.get("event").and_then(Json::as_str) == Some("incumbent"));
    assert!(first.is_some(), "the job improves at least once");
    let status = client.status(job.id).expect("status via router");
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("running"),
        "the first incumbent must arrive while the job runs"
    );
    down_router.shutdown();
    down_worker.shutdown();
}

/// A session the walk must find off its rendezvous-first worker: PUT
/// directly on the worker second in its rendezvous order (a failover
/// placed it there, or a router since replaced did), it is read,
/// PATCHed and solved by `dataset_id` through a fresh router, which
/// walks past the first worker's 404.
#[test]
fn a_fresh_router_finds_a_session_off_its_first_choice() {
    let (worker_a, down_a) = start_worker(ServerConfig::default());
    let (worker_b, down_b) = start_worker(ServerConfig::default());
    let workers = vec![worker_a, worker_b];
    let second = &workers[rendezvous_order(&workers, "ds:elsewhere")[1]];
    Client::new(second)
        .create_dataset("elsewhere", PAPER_EXAMPLE)
        .expect("PUT directly on the second choice");

    let (client, down_router, _) = start_router(workers.clone(), None);
    let doc = client.get_dataset("elsewhere").expect("GET via router");
    assert_eq!(doc.get("version").and_then(Json::as_u64), Some(1));
    let patched = client
        .patch_dataset(
            "elsewhere",
            "{\"ops\":[{\"op\":\"add\",\"ranking\":\"[{A},{B},{C},{D}]\"}]}",
        )
        .expect("PATCH via router");
    assert_eq!(patched.get("version").and_then(Json::as_u64), Some(2));
    let job = client
        .submit(&JobSubmission {
            algo: Some("Exact".into()),
            ..JobSubmission::for_dataset("elsewhere")
        })
        .expect("job by dataset_id via router");
    let done = client.wait(job.id).expect("wait via router");
    assert_eq!(
        done.get("m").and_then(Json::as_u64),
        Some(4),
        "the job solved the patched session: {done}"
    );
    assert!(done.get("report").is_some_and(|r| !r.is_null()), "{done}");
    assert_eq!(
        &workers[(job.id % 2) as usize],
        second,
        "the job runs where the session lives"
    );
    // A dataset no worker holds is the workers' own 404.
    match client.get_dataset("nowhere") {
        Err(ClientError::Status { status: 404, .. }) => {}
        other => panic!("an unknown dataset must 404, got {other:?}"),
    }
    down_router.shutdown();
    down_a.shutdown();
    down_b.shutdown();
}

/// A new session whose rendezvous-first worker is down: the `PUT`
/// answers 503 + `Retry-After` instead of creating a copy on the next
/// worker, which the first worker's own copy (if it has one) would hide
/// once it is back.
#[test]
fn a_put_whose_first_worker_is_down_gets_503() {
    let (live, down_live) = start_worker(ServerConfig::default());
    let dead = dead_addr();
    let workers = vec![live.clone(), dead.clone()];
    let id = (0..)
        .map(|i| format!("put-{i}"))
        .find(|id| workers[rendezvous_order(&workers, &format!("ds:{id}"))[0]] == dead)
        .expect("some id prefers the dead worker");
    let (client, down_router, _) = start_router(workers, None);
    match client.create_dataset(&id, PAPER_EXAMPLE) {
        Err(ClientError::Status {
            status: 503,
            retry_after_secs,
            ..
        }) => assert_eq!(retry_after_secs, Some(2), "503 must carry Retry-After"),
        other => panic!("PUT past a dead first choice must 503, got {other:?}"),
    }
    let health = Client::new(&live).healthz().expect("worker healthz");
    assert_eq!(
        health.get("datasets").and_then(Json::as_u64),
        Some(0),
        "no copy was made on the live worker: {health}"
    );
    down_router.shutdown();
    down_live.shutdown();
}

/// A path no worker serves is the first reachable worker's own 404,
/// even with a worker down: every worker answers it alike, so there is
/// nothing to search for.
#[test]
fn an_unknown_path_is_the_first_reachable_workers_404() {
    let (live, down_live) = start_worker(ServerConfig::default());
    let (_, down_router, router) = start_router(vec![dead_addr(), live.clone()], None);
    let routed = raw_get(&router, "/v1/nope");
    assert_eq!(routed.0, 404, "{routed:?}");
    assert_eq!(routed, raw_get(&live, "/v1/nope"));
    down_router.shutdown();
    down_live.shutdown();
}

fn workers(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("10.0.0.{i}:8080")).collect()
}

#[test]
fn rendezvous_is_deterministic_and_covers_all_workers() {
    let pool = workers(4);
    for key in ["ds:alpha", "tx:0011223344556677", "ds:beta"] {
        let a = rendezvous_order(&pool, key);
        let b = rendezvous_order(&pool, key);
        assert_eq!(a, b, "order must be deterministic for {key}");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "order must be a permutation");
    }
    // Different keys should not all pile onto one worker.
    let firsts: std::collections::HashSet<usize> = (0..64)
        .map(|i| rendezvous_order(&pool, &format!("ds:set-{i}"))[0])
        .collect();
    assert!(firsts.len() > 1, "64 keys routed to a single worker");
}

#[test]
fn rendezvous_is_stable_when_a_worker_leaves() {
    // The HRW property the sticky router depends on: dropping one
    // worker only moves the keys that mapped to it; every other
    // key's first choice is unchanged.
    let pool = workers(4);
    for dropped in 0..pool.len() {
        let remaining: Vec<String> = pool
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != dropped)
            .map(|(_, w)| w.clone())
            .collect();
        for i in 0..128 {
            let key = format!("ds:stability-{i}");
            let full_first = rendezvous_order(&pool, &key)[0];
            if full_first == dropped {
                continue;
            }
            let reduced_first = &remaining[rendezvous_order(&remaining, &key)[0]];
            assert_eq!(
                reduced_first, &pool[full_first],
                "key {key} moved although its worker survived"
            );
        }
    }
}

/// One `POST` straight to a worker, with `Rawt-Shard: {shard}` when
/// given: the status and the parsed reply.
fn post_shard(addr: &str, path: &str, shard: Option<&str>, body: &str) -> (u16, Json) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let headers: Vec<(&str, String)> = shard
        .map(|shard| vec![("Rawt-Shard", shard.to_owned())])
        .unwrap_or_default();
    write_request_with_headers(
        &mut stream,
        "POST",
        path,
        addr,
        &headers,
        Some(("application/json", body.as_bytes())),
        false,
    )
    .expect("send");
    let response = ClientResponse::read(stream).expect("response head");
    let status = response.status;
    let body = response.body_string().expect("response body");
    (status, Json::parse(&body).expect("JSON reply"))
}

fn job_body() -> String {
    JobSubmission {
        algo: Some("Borda".into()),
        ..JobSubmission::new(PAPER_EXAMPLE)
    }
    .to_json()
}

fn id_of(doc: &Json) -> u64 {
    doc.get("id").and_then(Json::as_u64).expect("an id")
}

#[test]
fn a_submission_without_a_shard_gets_the_next_sequential_id() {
    let (worker, down) = start_worker(ServerConfig::default());
    for expected in 0..3 {
        let (status, doc) = post_shard(&worker, "/v1/jobs", None, &job_body());
        assert_eq!(status, 202, "{doc}");
        assert_eq!(id_of(&doc), expected);
    }
    down.shutdown();
}

#[test]
fn a_shard_header_mints_ascending_ids_in_its_residue_class() {
    let (worker, down) = start_worker(ServerConfig::default());
    let mut ids = Vec::new();
    for _ in 0..2 {
        let (status, doc) = post_shard(&worker, "/v1/jobs", Some("1/3"), &job_body());
        assert_eq!(status, 202, "{doc}");
        ids.push(id_of(&doc));
    }
    for _ in 0..2 {
        let body =
            BatchSubmission::new(PAPER_EXAMPLE, PANEL.iter().map(|s| s.to_string()).collect())
                .to_json();
        let (status, doc) = post_shard(&worker, "/v1/batches", Some("1/3"), &body);
        assert_eq!(status, 202, "{doc}");
        assert_eq!(id_of(&doc) % 3, 1, "batch id: {doc}");
        let jobs = doc.get("jobs").and_then(Json::as_array).expect("jobs");
        assert_eq!(jobs.len(), PANEL.len());
        ids.extend(jobs.iter().map(id_of));
    }
    let (_, doc) = post_shard(&worker, "/v1/jobs", Some("1/3"), &job_body());
    ids.push(id_of(&doc));
    assert!(ids.iter().all(|id| id % 3 == 1), "{ids:?}");
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
    down.shutdown();
}

#[test]
fn a_malformed_shard_header_is_a_400_and_admits_nothing() {
    let (worker, down) = start_worker(ServerConfig::default());
    let batch = BatchSubmission::new(PAPER_EXAMPLE, vec!["Borda".into()]).to_json();
    for shard in ["3/3", "1/0", "x"] {
        for (path, body) in [("/v1/jobs", job_body()), ("/v1/batches", batch.clone())] {
            let (status, doc) = post_shard(&worker, path, Some(shard), &body);
            assert_eq!(status, 400, "{shard} on {path}: {doc}");
        }
    }
    let health = Client::new(&worker).healthz().expect("healthz");
    assert_eq!(
        health.get("jobs_accepted").and_then(Json::as_u64),
        Some(0),
        "{health}"
    );
    let (_, doc) = post_shard(&worker, "/v1/jobs", None, &job_body());
    assert_eq!(id_of(&doc), 0, "no id was spent");
    down.shutdown();
}

/// A header `N` past the cap would leap the worker's next id to the end
/// of the id space; it is a 400, and the ids after it stay small.
#[test]
fn an_oversized_shard_count_is_a_400_and_spends_no_ids() {
    let (worker, down) = start_worker(ServerConfig::default());
    let huge = format!("{}/{}", u64::MAX - 1, u64::MAX);
    let (status, doc) = post_shard(&worker, "/v1/jobs", Some(&huge), &job_body());
    assert_eq!(status, 400, "{doc}");
    let top = format!("{}/{}", MAX_SHARDS - 1, MAX_SHARDS);
    let (status, doc) = post_shard(&worker, "/v1/jobs", Some(&top), &job_body());
    assert_eq!(status, 202, "{doc}");
    assert_eq!(id_of(&doc), MAX_SHARDS - 1);
    let (status, doc) = post_shard(&worker, "/v1/jobs", None, &job_body());
    assert_eq!(status, 202, "{doc}");
    assert_eq!(id_of(&doc), MAX_SHARDS);
    down.shutdown();
}
