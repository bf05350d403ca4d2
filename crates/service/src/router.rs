//! Fingerprint-routing front tier: one address, many workers
//! (DESIGN.md §14.2).
//!
//! A [`Router`] listens like a [`Server`](crate::server::Server) but owns
//! no engine: every request is forwarded to one of a fixed set of worker
//! servers, chosen by **rendezvous (highest-random-weight) hashing** of
//! the request's dataset fingerprint — the dataset id for live sessions,
//! a content hash for inline text. Stickiness is the point: a dataset
//! session PATCHed through the router keeps landing on the worker whose
//! `MatrixCache` holds its delta-patched cost matrix, and every spec of
//! a batch rides one worker's single matrix build.
//!
//! The router stays transparent on the wire. Responses keep the worker's
//! exact bytes except for job/batch ids, which carry their own route:
//! the router id of worker `k`'s id `w` among `N` workers is `w × N + k`,
//! so ids from different workers cannot collide and the router decodes
//! every id it is handed (`id % N` is the worker, `id / N` its own id)
//! without keeping any table — a restarted router resolves every id an
//! earlier one handed out. The worker-side numbers, and the
//! `/v1/jobs/{id}`-style URLs built from them, are rewritten in place;
//! report payloads and labels pass through byte-identically. Event
//! streams are re-chunked line by line, heartbeats included.
//!
//! The router forwards every exchange, streams included, through one
//! pooled keep-alive [`Client`] per worker, so steady traffic opens no
//! TCP connections on either hop (DESIGN.md §14.5).
//!
//! Failure model: a worker that cannot be reached is skipped — new
//! submissions fall through to the next worker in rendezvous order
//! (idempotency keys make a retried submission safe wherever it lands),
//! while requests about state the dead worker held (its in-flight jobs,
//! its dataset sessions) answer **503 + `Retry-After`**, because that
//! state is not portable. `GET /healthz` aggregates every worker's
//! health and reports `ok` / `degraded` / `down`.

use crate::client::{Client, ClientError};
use crate::http::{self, ChunkedWriter, Conn, Request, Served};
use crate::json::{escape, Json};
use crate::proto;
use rank_core::telemetry::{
    add_label, merge_families, parse_exposition, render_families, MetricsRegistry,
};
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How the router asks clients to wait when the worker holding their
/// state is unreachable: long enough for a supervisor restart, short
/// enough that an interactive retry loop stays snappy.
const UNREACHABLE_RETRY_AFTER_SECS: u64 = 2;

/// Configuration for [`Router::bind`].
#[derive(Debug, Clone, Default)]
pub struct RouterConfig {
    /// Worker addresses (`host:port`, `http://` prefix tolerated).
    /// Placement is by rendezvous hash, but the order is part of the id
    /// scheme: worker `k` of `N` answers for the router ids `≡ k (mod N)`,
    /// so a router restarted over the same list in the same order
    /// resolves every earlier id, and a reordered list re-points them.
    pub workers: Vec<String>,
    /// Bearer token: required from clients (except `GET /healthz`) and
    /// forwarded to workers on every proxied request. Never journaled —
    /// the router keeps no journal at all.
    pub token: Option<String>,
}

struct RouterState {
    workers: Vec<String>,
    /// One pooled client per worker (same order), carrying the token.
    clients: Vec<Client>,
    token: Option<String>,
    shutting_down: AtomicBool,
    /// Dataset id → the worker index holding that live session.
    datasets: Mutex<HashMap<String, usize>>,
    /// The router's own telemetry (the router owns no engine, so it owns
    /// its own registry): per-worker proxied-request latencies, failover
    /// fall-throughs, and unreachable-worker 503s.
    metrics: Arc<MetricsRegistry>,
}

impl RouterState {
    /// The id encoder for answers from worker `worker` (see [`encode_id`]).
    fn encoder(&self, worker: usize) -> impl Fn(u64) -> Option<u64> {
        let workers = self.workers.len();
        move |id| encode_id(id, worker, workers)
    }

    /// One submission fell through a dead worker to the next rendezvous
    /// choice.
    fn count_failover(&self, worker: usize) {
        self.metrics
            .counter(
                "rawt_router_failovers_total",
                "Submissions that fell through an unreachable worker to the next.",
                &[("worker", &self.workers[worker])],
            )
            .inc();
    }

    /// One request answered 503 because the worker holding its state is
    /// down.
    fn count_unreachable(&self, worker: usize) {
        self.metrics
            .counter(
                "rawt_router_unreachable_total",
                "Requests answered 503 because their worker was unreachable.",
                &[("worker", &self.workers[worker])],
            )
            .inc();
    }
}

/// The front tier itself; [`Router::serve`] blocks accepting clients.
pub struct Router {
    listener: TcpListener,
    state: Arc<RouterState>,
}

/// Stops a running [`Router`] (clone-free analogue of
/// [`ShutdownHandle`](crate::server::ShutdownHandle); workers are not
/// touched — they are someone else's processes).
pub struct RouterShutdown {
    state: Arc<RouterState>,
    addr: std::net::SocketAddr,
}

impl RouterShutdown {
    /// Stop accepting and make [`Router::serve`] return.
    pub fn shutdown(&self) {
        self.state.shutting_down.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

impl Router {
    /// Bind the router to `addr`. Fails fast on an empty worker list —
    /// a router with nowhere to route is a misconfiguration, not a
    /// degraded state.
    pub fn bind(addr: impl ToSocketAddrs, config: RouterConfig) -> std::io::Result<Router> {
        if config.workers.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router needs at least one worker address",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let clients: Vec<Client> = config
            .workers
            .iter()
            .map(|w| match &config.token {
                Some(token) => Client::with_token(w, token),
                None => Client::new(w),
            })
            .collect();
        Ok(Router {
            listener,
            state: Arc::new(RouterState {
                workers: clients.iter().map(|c| c.addr().to_owned()).collect(),
                clients,
                token: config.token,
                shutting_down: AtomicBool::new(false),
                datasets: Mutex::new(HashMap::new()),
                metrics: Arc::new(MetricsRegistry::new()),
            }),
        })
    }

    /// The bound address (port resolved when binding to `:0`).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this router from another thread.
    pub fn shutdown_handle(&self) -> std::io::Result<RouterShutdown> {
        Ok(RouterShutdown {
            state: Arc::clone(&self.state),
            addr: self.local_addr()?,
        })
    }

    /// Accept loop: thread per connection, keep-alive inside, exactly
    /// like the worker server's.
    pub fn serve(self) -> std::io::Result<()> {
        let connections = self.state.metrics.counter(
            "rawt_http_connections_total",
            "TCP connections accepted.",
            &[],
        );
        for connection in self.listener.incoming() {
            if self.state.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = connection else { continue };
            connections.inc();
            let state = Arc::clone(&self.state);
            let _ = std::thread::Builder::new()
                .name("rank-route".to_owned())
                .spawn(move || {
                    let _ = catch_unwind(AssertUnwindSafe(|| handle_connection(stream, &state)));
                });
        }
        Ok(())
    }
}

/// FNV-1a over `bytes` — the same dependency-free hash the engine uses
/// for dataset fingerprints, applied to routing keys.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Worker indices in rendezvous (highest-random-weight) order for `key`:
/// every worker's weight is `hash(worker ‖ key)` and the list is sorted
/// by descending weight. The property that makes this the right sticky
/// router: removing a worker never changes the relative order of the
/// others, so only the keys that mapped to the lost worker move.
pub fn rendezvous_order(workers: &[String], key: &str) -> Vec<usize> {
    let mut scored: Vec<(u64, usize)> = workers
        .iter()
        .enumerate()
        .map(|(index, worker)| {
            let mut bytes = Vec::with_capacity(worker.len() + key.len() + 1);
            bytes.extend_from_slice(worker.as_bytes());
            bytes.push(0);
            bytes.extend_from_slice(key.as_bytes());
            (fnv1a64(&bytes), index)
        })
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.into_iter().map(|(_, index)| index).collect()
}

/// The routing key for a job/batch submission body: live sessions key on
/// their dataset id (stickiness to the patched matrix), inline datasets
/// on a content hash of their text (all specs over one dataset land on
/// one worker and share its matrix build).
fn routing_key(body: &[u8]) -> String {
    if let Ok(doc) = std::str::from_utf8(body)
        .map_err(|_| ())
        .and_then(|text| Json::parse(text).map_err(|_| ()))
    {
        if let Some(id) = doc.get("dataset_id").and_then(Json::as_str) {
            return format!("ds:{id}");
        }
        if let Some(text) = doc.get("dataset").and_then(Json::as_str) {
            return format!("tx:{:016x}", fnv1a64(text.as_bytes()));
        }
    }
    format!("tx:{:016x}", fnv1a64(body))
}

/// A worker's sized answer: `(status, retry_after, body)`.
type Answer = (u16, Option<String>, String);

/// One sized exchange with a worker over its pooled connection; only an
/// unreachable worker is an error.
fn forward_sized(
    state: &RouterState,
    worker: usize,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Result<Answer, ClientError> {
    let proxy_start = Instant::now();
    let answer = state.clients[worker].raw_exchange(method, path, body)?;
    state
        .metrics
        .histogram(
            "rawt_router_proxy_seconds",
            "Full sized-exchange latency of one proxied worker request.",
            &[("worker", &state.workers[worker])],
        )
        .record(proxy_start.elapsed());
    Ok(answer)
}

/// The router id of `worker_id` as minted by worker `worker` of
/// `workers`: `worker_id × workers + worker`. Every router id therefore
/// names its worker (`id % workers`) and that worker's own id
/// (`id / workers`) — see [`decode_id`] — so the router keeps no id
/// tables and a restarted router over the same worker list resolves every
/// id an earlier one handed out. With one worker this is the identity.
/// `None` when the product overflows a `u64`.
fn encode_id(worker_id: u64, worker: usize, workers: usize) -> Option<u64> {
    worker_id
        .checked_mul(workers as u64)?
        .checked_add(worker as u64)
}

/// `(worker, worker_id)` of a router id: the inverse of [`encode_id`].
fn decode_id(router_id: u64, workers: usize) -> (usize, u64) {
    let n = workers as u64;
    ((router_id % n) as usize, router_id / n)
}

/// Rewrite the worker ids in a response body to router ids with
/// `encode`, leaving every other byte untouched. Ids appear only as the
/// digits after the keys `"id":` and `"job":` and inside the `"events"`
/// and `"status"` URLs. Every token holds a quote that follows a letter
/// and precedes `:`, i.e. an unescaped quote closing a key, which cannot
/// occur inside a JSON string, where every quote is escaped. So report
/// payloads and the user's labels pass through byte-identically, even
/// labels spelled like ids or URLs. `None` when `encode` does (an id that
/// does not fit).
fn splice_ids(body: &str, encode: impl Fn(u64) -> Option<u64>) -> Option<String> {
    const TOKENS: [&str; 6] = [
        "\"id\":",
        "\"job\":",
        "\"events\":\"/v1/jobs/",
        "\"status\":\"/v1/jobs/",
        "\"events\":\"/v1/batches/",
        "\"status\":\"/v1/batches/",
    ];
    let bytes = body.as_bytes();
    let mut out = String::with_capacity(body.len());
    let mut copied = 0;
    let mut i = 0;
    while let Some(offset) = bytes[i..].iter().position(|&b| b == b'"') {
        i += offset;
        let Some(token) = TOKENS.iter().find(|t| bytes[i..].starts_with(t.as_bytes())) else {
            i += 1;
            continue;
        };
        let start = i + token.len();
        let end = start
            + bytes[start..]
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .count();
        if end > start {
            let id = encode(body[start..end].parse().ok()?)?;
            out.push_str(&body[copied..start]);
            out.push_str(&id.to_string());
            copied = end;
        }
        i = end;
    }
    out.push_str(&body[copied..]);
    Some(out)
}

fn respond_error(
    stream: &mut Conn,
    status: u16,
    message: &str,
    retry_after: Option<u64>,
    keep: bool,
) {
    let body = proto::error_json(message, None);
    respond_passthrough(
        stream,
        status,
        retry_after.map(|secs| secs.to_string()),
        &body,
        keep,
    );
}

/// Pass a worker's sized response through, preserving its status and
/// `Retry-After` hint.
fn respond_passthrough(
    stream: &mut Conn,
    status: u16,
    retry_after: Option<String>,
    body: &str,
    keep: bool,
) {
    let headers: Vec<(&str, String)> = retry_after
        .map(|secs| vec![("Retry-After", secs)])
        .unwrap_or_default();
    let _ = stream.respond(status, "application/json", &headers, body.as_bytes(), keep);
}

fn unreachable_worker(stream: &mut Conn, state: &RouterState, worker: usize, keep: bool) {
    state.count_unreachable(worker);
    respond_error(
        stream,
        503,
        &format!(
            "worker {} is unreachable; its state is not portable — retry shortly",
            state.workers[worker]
        ),
        Some(UNREACHABLE_RETRY_AFTER_SECS),
        keep,
    );
}

fn handle_connection(stream: TcpStream, state: &Arc<RouterState>) {
    http::serve_connection(stream, &state.shutting_down, |stream, request, keep| {
        route(stream, request, state, keep)
    });
}

fn route(stream: &mut Conn, request: &Request, state: &Arc<RouterState>, keep: bool) -> Served {
    let path = request.path.trim_end_matches('/');
    if !http::authorized(request, state.token.as_deref(), path) {
        respond_error(
            stream,
            401,
            "missing or invalid bearer token (send Authorization: Bearer <token>)",
            None,
            keep,
        );
        return Served::KeepAlive;
    }
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => healthz(stream, state, keep),
        ("GET", "/metrics") => metrics_exposition(stream, state, keep),
        ("GET", "/v1/algorithms") => forward_any(stream, state, "GET", "/v1/algorithms", keep),
        ("POST", "/v1/jobs") => submit(stream, request, state, "/v1/jobs", keep),
        ("POST", "/v1/batches") => submit(stream, request, state, "/v1/batches", keep),
        (_, p) if p.starts_with("/v1/jobs/") => {
            return id_route(stream, request, state, "job", &p["/v1/jobs/".len()..], keep);
        }
        (_, p) if p.starts_with("/v1/batches/") => {
            return id_route(
                stream,
                request,
                state,
                "batch",
                &p["/v1/batches/".len()..],
                keep,
            );
        }
        (_, p) if p.starts_with("/v1/datasets/") => {
            dataset_route(stream, request, state, &p["/v1/datasets/".len()..], keep)
        }
        _ => respond_error(stream, 404, &format!("no route for {path:?}"), None, keep),
    }
    Served::KeepAlive
}

/// Aggregate `/healthz` across every worker. Always 200 — the router
/// itself is alive; the `status` field carries the fleet's condition.
fn healthz(stream: &mut Conn, state: &Arc<RouterState>, keep: bool) {
    let mut alive = 0usize;
    let entries: Vec<String> = state
        .workers
        .iter()
        .enumerate()
        .map(
            |(index, addr)| match forward_sized(state, index, "GET", "/healthz", None) {
                Ok((200, _, body)) => {
                    alive += 1;
                    format!(
                        "{{\"addr\":\"{}\",\"alive\":true,\"health\":{body}}}",
                        escape(addr)
                    )
                }
                _ => format!(
                    "{{\"addr\":\"{}\",\"alive\":false,\"health\":null}}",
                    escape(addr)
                ),
            },
        )
        .collect();
    let status = if alive == state.workers.len() {
        "ok"
    } else if alive > 0 {
        "degraded"
    } else {
        "down"
    };
    let body = format!(
        "{{\"status\":\"{status}\",\"role\":\"router\",\"alive\":{alive},\"total\":{},\"workers\":[{}]}}",
        state.workers.len(),
        entries.join(","),
    );
    let _ = stream.respond(200, "application/json", &[], body.as_bytes(), keep);
}

/// `GET /metrics`: one scrape sees the fleet. The router renders its own
/// registry, then scrapes every reachable worker's `/metrics`, tags each
/// worker's samples with a `worker="addr"` label, and merges everything
/// into a single exposition — families that exist on several workers
/// keep one `# TYPE` header and per-worker series. A dead worker is
/// simply absent from the scrape (its unreachability already shows in
/// `rawt_router_unreachable_total`).
fn metrics_exposition(stream: &mut Conn, state: &Arc<RouterState>, keep: bool) {
    let mut parts = vec![parse_exposition(&state.metrics.render_prometheus())];
    for (index, addr) in state.workers.iter().enumerate() {
        if let Ok((200, _, body)) = forward_sized(state, index, "GET", "/metrics", None) {
            let mut families = parse_exposition(&body);
            add_label(&mut families, "worker", addr);
            parts.push(families);
        }
    }
    let body = render_families(&merge_families(parts));
    let _ = stream.respond(200, "text/plain; version=0.0.4", &[], body.as_bytes(), keep);
}

/// Forward a read-only request to the first reachable worker (used for
/// `/v1/algorithms`, which is identical on every worker).
fn forward_any(stream: &mut Conn, state: &Arc<RouterState>, method: &str, path: &str, keep: bool) {
    for index in 0..state.workers.len() {
        if let Ok((status, retry_after, body)) = forward_sized(state, index, method, path, None) {
            respond_passthrough(stream, status, retry_after, &body, keep);
            return;
        }
        state.count_failover(index);
    }
    respond_error(
        stream,
        503,
        "no reachable worker",
        Some(UNREACHABLE_RETRY_AFTER_SECS),
        keep,
    );
}

/// The worker order a submission should try: sticky to the session
/// worker when the body names a live dataset the router has seen,
/// rendezvous order with dead-worker fall-through otherwise.
fn submission_targets(state: &RouterState, body: &[u8]) -> (Vec<usize>, bool) {
    let key = routing_key(body);
    if let Some(id) = key.strip_prefix("ds:") {
        if let Some(&worker) = state
            .datasets
            .lock()
            .expect("dataset routes poisoned")
            .get(id)
        {
            // Session state lives on exactly one worker; no fallback.
            return (vec![worker], true);
        }
    }
    (rendezvous_order(&state.workers, &key), false)
}

/// Forward a submission down its target order, skipping dead workers
/// unless it is sticky. Returns the first 2xx answer and its worker;
/// anything else has already been answered.
fn forward_submission(
    stream: &mut Conn,
    request: &Request,
    state: &RouterState,
    path: &str,
    keep: bool,
) -> Option<(usize, Answer)> {
    let (targets, sticky) = submission_targets(state, &request.body);
    for &worker in &targets {
        match forward_sized(state, worker, "POST", path, Some(&request.body)) {
            Ok(answer) if (200..300).contains(&answer.0) => return Some((worker, answer)),
            Ok((status, retry_after, body)) => {
                respond_passthrough(stream, status, retry_after, &body, keep);
                return None;
            }
            Err(_) if !sticky => state.count_failover(worker),
            Err(_) => {
                unreachable_worker(stream, state, worker, keep);
                return None;
            }
        }
    }
    respond_error(
        stream,
        503,
        "no reachable worker for this submission",
        Some(UNREACHABLE_RETRY_AFTER_SECS),
        keep,
    );
    None
}

/// Answer with a worker's sized response, its ids encoded as router ids
/// (502 if one does not fit).
fn respond_encoded(
    stream: &mut Conn,
    state: &RouterState,
    worker: usize,
    (status, retry_after, body): Answer,
    keep: bool,
) {
    match splice_ids(&body, state.encoder(worker)) {
        Some(body) => respond_passthrough(stream, status, retry_after, &body, keep),
        None => respond_error(
            stream,
            502,
            "worker id does not fit the router's id space",
            None,
            keep,
        ),
    }
}

/// `POST /v1/jobs` and `POST /v1/batches`: forward down the target order
/// and encode the ids of the accepting worker. An idempotent retry that
/// the same worker deduplicates gets the same router id by construction.
fn submit(stream: &mut Conn, request: &Request, state: &RouterState, path: &str, keep: bool) {
    if let Some((worker, answer)) = forward_submission(stream, request, state, path, keep) {
        respond_encoded(stream, state, worker, answer, keep);
    }
}

/// `/v1/jobs/{id}` and `/v1/batches/{id}`, each with its `/events`
/// stream (`kind` is `job` or `batch`): the id names its worker, so the request goes straight there
/// with the worker's own id, and a worker 404 answers with the router id.
fn id_route(
    stream: &mut Conn,
    request: &Request,
    state: &RouterState,
    kind: &str,
    rest: &str,
    keep: bool,
) -> Served {
    let (id_part, tail) = rest
        .split_once('/')
        .map_or((rest, None), |(id, t)| (id, Some(t)));
    let Ok(router_id) = id_part.parse::<u64>() else {
        respond_error(
            stream,
            400,
            &format!("{kind} id must be an integer"),
            None,
            keep,
        );
        return Served::KeepAlive;
    };
    let (worker, worker_id) = decode_id(router_id, state.workers.len());
    let collection = if kind == "job" { "jobs" } else { "batches" };
    let path = format!("/v1/{collection}/{worker_id}");
    let not_found = format!("no {kind} {router_id}");
    match (request.method.as_str(), tail) {
        ("GET", Some("events")) => {
            return proxy_stream(
                stream,
                state,
                worker,
                &format!("{path}/events"),
                &not_found,
                keep,
            );
        }
        (method, None) if method == "GET" || (method == "DELETE" && kind == "job") => {
            match forward_sized(state, worker, &request.method, &path, None) {
                Ok((404, ..)) => respond_error(stream, 404, &not_found, None, keep),
                Ok(answer) => respond_encoded(stream, state, worker, answer, keep),
                Err(_) => unreachable_worker(stream, state, worker, keep),
            }
        }
        _ => respond_error(
            stream,
            405,
            &format!("method not allowed on this {kind} route"),
            None,
            keep,
        ),
    }
    Served::KeepAlive
}

/// Proxy a worker's NDJSON stream line by line through a chunked
/// response, encoding the ids in each line (heartbeats included — they
/// pass through, keeping the client's liveness view honest). A worker
/// stream cut short, or a line whose id does not fit, closes the client
/// connection unterminated, so the client sees the truncation too.
fn proxy_stream(
    stream: &mut Conn,
    state: &RouterState,
    worker: usize,
    path: &str,
    not_found: &str,
    keep: bool,
) -> Served {
    let lines = match state.clients[worker].stream_lines(path) {
        Ok(lines) => lines,
        Err(ClientError::Status { status: 404, .. }) => {
            respond_error(stream, 404, not_found, None, keep);
            return Served::KeepAlive;
        }
        Err(ClientError::Status { status, body, .. }) => {
            respond_passthrough(stream, status, None, &body, keep);
            return Served::KeepAlive;
        }
        Err(_) => {
            unreachable_worker(stream, state, worker, keep);
            return Served::KeepAlive;
        }
    };
    let Ok(mut writer) = ChunkedWriter::begin(stream, "application/x-ndjson", keep) else {
        return Served::Close;
    };
    let encode = state.encoder(worker);
    for line in lines {
        let Some(line) = line.ok().and_then(|line| splice_ids(&line, &encode)) else {
            return Served::Close;
        };
        if writer.write_line(&line).is_err() {
            return Served::Close;
        }
    }
    writer.finish()
}

/// `/v1/datasets/{id}`: transparent proxy with sticky placement. The
/// first request that creates the session pins its worker; every later
/// request follows the pin (the patched matrix is there and nowhere
/// else). A dead pinned worker means 503 until it returns.
fn dataset_route(
    stream: &mut Conn,
    request: &Request,
    state: &Arc<RouterState>,
    id: &str,
    keep: bool,
) {
    if !proto::valid_dataset_id(id) {
        respond_error(
            stream,
            400,
            "dataset id must be 1-64 chars of [A-Za-z0-9_-]",
            None,
            keep,
        );
        return;
    }
    let pinned = state
        .datasets
        .lock()
        .expect("dataset routes poisoned")
        .get(id)
        .copied();
    let targets = match pinned {
        Some(worker) => vec![worker],
        None => rendezvous_order(&state.workers, &format!("ds:{id}")),
    };
    let path = format!("/v1/datasets/{id}");
    let body = (!request.body.is_empty()).then_some(request.body.as_slice());
    for &worker in &targets {
        let (status, retry_after, text) =
            match forward_sized(state, worker, &request.method, &path, body) {
                Ok(answer) => answer,
                Err(_) if pinned.is_none() => {
                    state.count_failover(worker);
                    continue;
                }
                Err(_) => {
                    unreachable_worker(stream, state, worker, keep);
                    return;
                }
            };
        if (200..300).contains(&status) {
            let mut datasets = state.datasets.lock().expect("dataset routes poisoned");
            if request.method == "DELETE" {
                datasets.remove(id);
            } else {
                datasets.insert(id.to_owned(), worker);
            }
        }
        respond_passthrough(stream, status, retry_after, &text, keep);
        return;
    }
    respond_error(
        stream,
        503,
        "no reachable worker for this dataset",
        Some(UNREACHABLE_RETRY_AFTER_SECS),
        keep,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn ids_round_trip_through_every_worker() {
        for workers in 1..=5 {
            for worker in 0..workers {
                for worker_id in [0, 1, 2, 7, 1 << 40] {
                    let router_id = encode_id(worker_id, worker, workers).expect("fits");
                    assert_eq!(decode_id(router_id, workers), (worker, worker_id));
                }
            }
        }
        // Distinct (worker, id) pairs never share a router id.
        let ids: std::collections::HashSet<u64> = (0..3)
            .flat_map(|worker| (0..50).map(move |id| encode_id(id, worker, 3).expect("fits")))
            .collect();
        assert_eq!(ids.len(), 150);
    }

    #[test]
    fn one_worker_is_the_identity() {
        for id in [0, 1, 41, u64::MAX] {
            assert_eq!(encode_id(id, 0, 1), Some(id));
            assert_eq!(decode_id(id, 1), (0, id));
        }
    }

    #[test]
    fn encoding_refuses_ids_that_overflow() {
        let top = u64::MAX / 3; // 3·top = u64::MAX, so only worker 0 fits
        assert_eq!(encode_id(top, 0, 3), Some(top * 3));
        assert_eq!(encode_id(top, 1, 3), None);
        assert_eq!(encode_id(top + 1, 0, 3), None);
        assert_eq!(decode_id(u64::MAX, 3), (0, top));
        assert_eq!(
            splice_ids("{\"id\":6148914691236517206}", |id| encode_id(id, 0, 3)),
            None,
            "an id past the encodable range must not be truncated or wrapped"
        );
    }

    #[test]
    fn splice_encodes_protocol_ids_and_leaves_strings_alone() {
        let encode = |id: u64| encode_id(id, 1, 2);
        let submit = concat!(
            "{\"id\":3,\"seed\":7,\"jobs\":[{\"spec\":\"Borda\",\"id\":4,",
            "\"events\":\"/v1/jobs/4/events\",\"status\":\"/v1/jobs/4\"}],",
            "\"events\":\"/v1/batches/3/events\",\"status\":\"/v1/batches/3\"}"
        );
        assert_eq!(
            splice_ids(submit, encode).expect("fits"),
            concat!(
                "{\"id\":7,\"seed\":7,\"jobs\":[{\"spec\":\"Borda\",\"id\":9,",
                "\"events\":\"/v1/jobs/9/events\",\"status\":\"/v1/jobs/9\"}],",
                "\"events\":\"/v1/batches/7/events\",\"status\":\"/v1/batches/7\"}"
            )
        );
        // Labels spelled like ids or URLs, escaped quotes included, are
        // report bytes and must not move.
        let labels = concat!(
            "{\"event\":\"finished\",\"ranking\":[[\"/v1/jobs/0\",\"/v1/batches/0\"],",
            "[\"\\\"id\\\":5\",\"\\\"job\\\":5\",\"\\\"status\\\":\\\"/v1/jobs/5\"]],",
            "\"spec\":\"Exact\",\"job\":2}"
        );
        let out = splice_ids(labels, encode).expect("fits");
        assert_eq!(out, labels.replace("\"job\":2}", "\"job\":5}"));
    }

    #[test]
    fn routing_key_prefers_session_id_over_text() {
        let with_session = br#"{"dataset":"[{A},{B}]","dataset_id":"live1"}"#;
        assert_eq!(routing_key(with_session), "ds:live1");
        let inline = br#"{"dataset":"[{A},{B}]"}"#;
        let same_inline = br#"{"dataset":"[{A},{B}]","seed":99}"#;
        assert_eq!(
            routing_key(inline),
            routing_key(same_inline),
            "inline routing must key on dataset content, not the rest of the body"
        );
    }
}
