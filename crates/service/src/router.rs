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
//! The router keeps no state of its own and forwards worker bytes
//! untouched, stream lines included, so a client cannot tell a router
//! from a worker. Ids carry their own route: a submission forwarded to
//! worker `k` of `N` carries `Rawt-Shard: k/N`, and the worker mints its
//! job, batch and sub-job ids ≡ k (mod N), so `id % N` names the owner
//! and a restarted router resolves every id an earlier one handed out.
//! Dataset routes and `dataset_id` submissions walk the dataset's
//! rendezvous order past unreachable workers and 404s, so a fresh router
//! finds a session wherever an earlier one placed it.
//!
//! The router forwards every exchange, streams included, through one
//! pooled keep-alive [`Client`] per worker, so steady traffic opens no
//! TCP connections on either hop (DESIGN.md §14.5).
//!
//! Failure model: a worker that cannot be reached is skipped — new
//! submissions fall through to the next worker in rendezvous order
//! (idempotency keys make a retried submission safe wherever it lands),
//! while requests about state an unreachable worker may hold (its jobs,
//! a dataset no reachable worker has, the `PUT` of a dataset whose first
//! worker it is) answer **503 + `Retry-After`**, because that state is
//! not portable. `GET /healthz` aggregates every
//! worker's health and reports `ok` / `degraded` / `down`.

use crate::client::{Client, ClientError};
use crate::http::{self, ChunkedWriter, Conn, Request, Served};
use crate::json::{escape, Json};
use crate::proto;
use rank_core::telemetry::{
    add_label, merge_families, parse_exposition, render_families, MetricsRegistry,
};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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
    /// scheme: worker `k` of `N` mints the ids `≡ k (mod N)`, so a router
    /// restarted over the same list in the same order resolves every
    /// earlier id, and a reordered list re-points them.
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
    /// The router's own telemetry (the router owns no engine, so it owns
    /// its own registry): per-worker proxied-request latencies, failover
    /// fall-throughs, and unreachable-worker 503s.
    metrics: Arc<MetricsRegistry>,
}

impl RouterState {
    /// One request walked past a dead worker to the next in its order.
    fn count_failover(&self, worker: usize) {
        self.metrics
            .counter(
                "rawt_router_failovers_total",
                "Requests that walked past an unreachable worker to the next.",
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
    /// degraded state — and on one longer than [`proto::MAX_SHARDS`],
    /// which no worker would mint ids for.
    pub fn bind(addr: impl ToSocketAddrs, config: RouterConfig) -> std::io::Result<Router> {
        if config.workers.is_empty() || config.workers.len() as u64 > proto::MAX_SHARDS {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "router needs 1 to {} worker addresses, got {}",
                    proto::MAX_SHARDS,
                    config.workers.len()
                ),
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

    /// Accept loop: the worker server's own (`http::serve`), without
    /// its fault hook.
    pub fn serve(self) -> std::io::Result<()> {
        let connections = self.state.metrics.counter(
            "rawt_http_connections_total",
            "TCP connections accepted.",
            &[],
        );
        http::serve(
            self.listener,
            self.state,
            |state| &state.shutting_down,
            &connections,
            "rank-route",
            || false,
            route,
        )
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

/// One sized exchange with a worker over its pooled connection, with
/// `headers` added; only an unreachable worker is an error.
fn forward_sized(
    state: &RouterState,
    worker: usize,
    method: &str,
    path: &str,
    headers: &[(&str, String)],
    body: Option<&[u8]>,
) -> Result<Answer, ClientError> {
    let proxy_start = Instant::now();
    let answer = state.clients[worker].raw_exchange(method, path, headers, body)?;
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
    let owned = path
        .strip_prefix("/v1/jobs/")
        .or_else(|| path.strip_prefix("/v1/batches/"));
    match (request.method.as_str(), path, owned) {
        ("GET", "/healthz", _) => healthz(stream, state, keep),
        ("GET", "/metrics", _) => metrics_exposition(stream, state, keep),
        ("POST", "/v1/jobs" | "/v1/batches", _) => {
            let order = rendezvous_order(&state.workers, &routing_key(&request.body));
            walk(stream, request, state, &order, Walk::Submit, keep);
        }
        (_, _, Some(rest)) => return owner(stream, request, state, rest, keep),
        (_, p, _) if p.starts_with("/v1/datasets/") => {
            let id = &p["/v1/datasets/".len()..];
            match proto::check_dataset_id(id) {
                Ok(()) => {
                    let order = rendezvous_order(&state.workers, &format!("ds:{id}"));
                    walk(stream, request, state, &order, Walk::Dataset, keep);
                }
                Err(message) => respond_error(stream, 400, &message, None, keep),
            }
        }
        // Everything else (`/v1/algorithms`, unknown paths and methods)
        // is the same on every worker: the first reachable one answers.
        _ => {
            let order: Vec<usize> = (0..state.workers.len()).collect();
            walk(stream, request, state, &order, Walk::Any, keep);
        }
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
            |(index, addr)| match forward_sized(state, index, "GET", "/healthz", &[], None) {
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
        if let Ok((200, _, body)) = forward_sized(state, index, "GET", "/metrics", &[], None) {
            let mut families = parse_exposition(&body);
            add_label(&mut families, "worker", addr);
            parts.push(families);
        }
    }
    let body = render_families(&merge_families(parts));
    let _ = stream.respond(200, "text/plain; version=0.0.4", &[], body.as_bytes(), keep);
}

/// What a [`walk`] is for.
#[derive(Clone, Copy, PartialEq)]
enum Walk {
    /// A job or batch submission: worker `k` of `N` gets it with
    /// `Rawt-Shard: k/N`, so the ids it mints name it, and a 404 (a
    /// `dataset_id` it does not hold) moves on.
    Submit,
    /// A dataset route: a 404 moves on, and a `PUT` stops at the first
    /// unreachable worker, which may hold the dataset already.
    Dataset,
    /// A route every worker answers alike: the first reachable answer,
    /// 404 included.
    Any,
}

/// Forward `request` down `order`: skip unreachable workers and, unless
/// `mode` is [`Walk::Any`], move on past a 404; the first other answer
/// is the reply. A 404 is the reply only when every worker was
/// reachable and said 404; when one was not, it may hold what was asked
/// for, and the reply is 503 + `Retry-After`.
///
/// A dataset's order is its rendezvous order, so the walk finds a
/// session wherever an earlier router placed it. A `PUT` creates on the
/// first worker in that order, and answers 503 instead while that
/// worker is down, so no second copy is made further down the order.
fn walk(
    stream: &mut Conn,
    request: &Request,
    state: &RouterState,
    order: &[usize],
    mode: Walk,
    keep: bool,
) {
    let body = (!request.body.is_empty()).then_some(request.body.as_slice());
    let mut not_found = None;
    let mut unreachable = None;
    for &worker in order {
        let headers = if mode == Walk::Submit {
            vec![("Rawt-Shard", format!("{worker}/{}", state.workers.len()))]
        } else {
            Vec::new()
        };
        match forward_sized(
            state,
            worker,
            &request.method,
            &request.path,
            &headers,
            body,
        ) {
            Ok((404, retry_after, text)) if mode != Walk::Any => {
                not_found.get_or_insert((retry_after, text));
            }
            Ok((status, retry_after, text)) => {
                return respond_passthrough(stream, status, retry_after, &text, keep);
            }
            Err(_) => {
                unreachable.get_or_insert(worker);
                if mode == Walk::Dataset && request.method == "PUT" {
                    break;
                }
                state.count_failover(worker);
            }
        }
    }
    match (unreachable, not_found) {
        (Some(worker), _) => unreachable_worker(stream, state, worker, keep),
        (None, not_found) => {
            let (retry_after, text) = not_found.expect("a walk visits at least one worker");
            respond_passthrough(stream, 404, retry_after, &text, keep);
        }
    }
}

/// `/v1/jobs/{id}…` and `/v1/batches/{id}…` (`rest` is what follows the
/// collection): the id names its worker, `id % N`, and the request goes
/// there as it came; an id that is no number goes to worker 0, whose 400
/// says so. A dead owner answers 503 + `Retry-After`.
fn owner(
    stream: &mut Conn,
    request: &Request,
    state: &RouterState,
    rest: &str,
    keep: bool,
) -> Served {
    let (id, tail) = rest.split_once('/').unwrap_or((rest, ""));
    let n = state.workers.len() as u64;
    let worker = id.parse::<u64>().map_or(0, |id| (id % n) as usize);
    if request.method == "GET" && tail == "events" {
        return proxy_stream(stream, state, worker, &request.path, keep);
    }
    let body = (!request.body.is_empty()).then_some(request.body.as_slice());
    match forward_sized(state, worker, &request.method, &request.path, &[], body) {
        Ok((status, retry_after, text)) => {
            respond_passthrough(stream, status, retry_after, &text, keep);
        }
        Err(_) => unreachable_worker(stream, state, worker, keep),
    }
    Served::KeepAlive
}

/// Proxy a worker's NDJSON stream line by line through a chunked
/// response, byte for byte (heartbeats included — they keep the
/// client's liveness view honest), one `write` per run of lines already
/// in the read buffer. A worker stream cut short closes the
/// client connection unterminated, so the client sees the truncation
/// too.
fn proxy_stream(
    stream: &mut Conn,
    state: &RouterState,
    worker: usize,
    path: &str,
    keep: bool,
) -> Served {
    let mut lines = match state.clients[worker].stream_lines(path) {
        Ok(lines) => lines,
        Err(ClientError::Status { status, body, .. }) => {
            respond_passthrough(stream, status, None, &body, keep);
            return Served::KeepAlive;
        }
        Err(_) => {
            unreachable_worker(stream, state, worker, keep);
            return Served::KeepAlive;
        }
    };
    let mut writer = ChunkedWriter::begin(stream, "application/x-ndjson", keep);
    loop {
        // Lines the worker sent together go out together; whatever is
        // queued is flushed before the read that would wait on the worker.
        if !lines.next_is_buffered() && writer.flush().is_err() {
            return Served::Close;
        }
        match lines.next() {
            Some(Ok(line)) => {
                if writer.write_line(&line).is_err() {
                    return Served::Close;
                }
            }
            Some(Err(_)) => {
                let _ = writer.flush();
                return Served::Close;
            }
            None => return writer.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
