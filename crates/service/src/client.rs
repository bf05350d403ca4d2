//! A minimal blocking client for the aggregation service — what
//! `rawt aggregate --remote` and the service tests speak.
//!
//! Every exchange, event streams included, rides a pooled keep-alive
//! connection: the first exchange dials, later ones reuse the socket, and
//! a stale pooled connection (server restarted or draining, idle timeout)
//! is transparently redialed once. An event stream puts its socket back
//! only after reading the stream's terminator. The client never
//! interprets reports beyond parsing them as [`Json`]; rendering stays
//! with the caller so the CLI can reuse its local formatting.
//!
//! # Retries (DESIGN.md §12.4)
//!
//! Transient failures — a refused or dropped connection, a 429 from the
//! admission queue, a 503 from a draining server — are worth retrying;
//! anything else (400s, parse errors) is not. [`RetryPolicy`] encodes
//! when and how long to wait: the server's `Retry-After` hint when one
//! came, otherwise jittered exponential backoff (deterministic for a
//! fixed seed, like everything else in this codebase).
//! [`Client::submit_with_retry`] retries `POST /v1/jobs` under a policy;
//! pair it with a [`JobSubmission::idempotency_key`] so a retry that
//! races a crash can never duplicate the job — the server answers the
//! second attempt with the job the first one created, even across a
//! restart. [`Client::follow_events`] is the streaming analogue: an
//! event iterator that survives dropped connections by reconnecting and
//! skipping the lines it has already delivered (the server's replay log
//! re-serves every stream from the start, which is what makes the skip
//! count sufficient).

use crate::http::{self, ClientResponse, HttpError, NdjsonLines};
use crate::json::Json;
use crate::proto::{self, BatchSubmission, JobSubmission};
use std::fmt;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Idle keep-alive connections a client retains. Small on purpose: a
/// blocking caller uses one socket at a time, so the pool only matters
/// when clones share the client across threads (the load harness, the
/// router's per-worker clients) — four sockets absorb that burstiness
/// without hoarding server-side connection threads.
const POOL_CAP: usize = 4;

/// Idle kept-alive connections, at most [`POOL_CAP`]; checkin drops the
/// socket when the pool is full.
#[derive(Debug, Default)]
struct Pool(Mutex<Vec<BufReader<TcpStream>>>);

impl Pool {
    fn checkout(&self) -> Option<BufReader<TcpStream>> {
        self.0.lock().expect("client pool poisoned").pop()
    }

    fn checkin(&self, reader: BufReader<TcpStream>) {
        let mut pool = self.0.lock().expect("client pool poisoned");
        if pool.len() < POOL_CAP {
            pool.push(reader);
        }
    }
}

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Could not reach or speak to the server.
    Transport(HttpError),
    /// The server answered with a non-2xx status. `retry_after_secs` is
    /// filled from the `Retry-After` header when present (429 shedding).
    Status {
        /// The HTTP status code.
        status: u16,
        /// The response body (usually an [`error_json`] object).
        ///
        /// [`error_json`]: crate::proto::error_json
        body: String,
        /// Parsed `Retry-After` header, if the server sent one.
        retry_after_secs: Option<u64>,
    },
    /// A 2xx response that did not parse as the expected JSON.
    Malformed(String),
    /// A request refused before it was sent (a bad dataset id), with the
    /// message the server would have answered.
    Invalid(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "{e}"),
            ClientError::Status {
                status,
                body,
                retry_after_secs,
            } => {
                let message = Json::parse(body)
                    .ok()
                    .and_then(|v| v.get("error").and_then(Json::as_str).map(str::to_owned))
                    .unwrap_or_else(|| body.clone());
                write!(f, "server returned {status}: {message}")?;
                if let Some(secs) = retry_after_secs {
                    write!(f, " (retry after {secs}s)")?;
                }
                Ok(())
            }
            ClientError::Malformed(m) => write!(f, "unexpected server response: {m}"),
            ClientError::Invalid(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<HttpError> for ClientError {
    fn from(e: HttpError) -> Self {
        ClientError::Transport(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Transport(HttpError::Io(e))
    }
}

/// When and for how long to retry transient failures (connection loss,
/// 429 shedding, 503 draining). Delays follow the server's `Retry-After`
/// hint when one was sent, otherwise jittered exponential backoff —
/// deterministic for a fixed `seed`, so tests can assert exact schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, the first one included (`1` = never retry).
    pub max_attempts: u32,
    /// Backoff for the first retry; doubles per further attempt.
    pub base_delay: Duration,
    /// Ceiling for any single delay, hinted or computed.
    pub max_delay: Duration,
    /// Seed for the jitter (xorshift; no RNG dependency).
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// Five attempts, 250 ms base, 10 s cap — a few seconds of patience
    /// against a restarting server without stalling interactive use.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(250),
            max_delay: Duration::from_secs(10),
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// The single-attempt policy: fail on the first transient error,
    /// exactly like the plain [`Client::submit`] path.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The delay before retry number `attempt` (1-based). A server hint
    /// wins (clamped to [`RetryPolicy::max_delay`]); otherwise
    /// exponential backoff with deterministic jitter in the upper half
    /// of the window, so concurrent clients spread out.
    pub fn delay(&self, attempt: u32, hint_secs: Option<u64>) -> Duration {
        if let Some(secs) = hint_secs {
            return Duration::from_secs(secs.max(1)).min(self.max_delay);
        }
        let window = self
            .base_delay
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
            .min(self.max_delay);
        let half = window / 2;
        // xorshift64 on (seed, attempt): stable across runs, different
        // across attempts and differently-seeded clients.
        let mut x = (self.seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let jitter_nanos = x % (u128::min(half.as_nanos(), u128::from(u64::MAX)) as u64 + 1);
        half + Duration::from_nanos(jitter_nanos)
    }
}

/// One retry about to happen — handed to the caller's notifier so a CLI
/// can print "server busy, retrying in 2s (attempt 2/5)" instead of
/// dying silently or invisibly stalling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryNotice {
    /// Which retry this is (1-based; attempt 1 already failed).
    pub attempt: u32,
    /// The policy's total attempt budget.
    pub max_attempts: u32,
    /// How long the client is about to sleep.
    pub delay: Duration,
    /// Why: `"server busy"` (429/503) or `"server unreachable"`.
    pub reason: &'static str,
}

/// Classify an error: `Some(reason)` if retrying can help, `None` if it
/// cannot (4xx validation errors, malformed responses).
fn retry_reason(error: &ClientError) -> Option<&'static str> {
    match error {
        ClientError::Transport(HttpError::Io(_)) => Some("server unreachable"),
        ClientError::Status { status, .. } if *status == 429 || *status == 503 => {
            Some("server busy")
        }
        _ => None,
    }
}

/// The server's `Retry-After` hint, when the error carried one.
fn retry_hint(error: &ClientError) -> Option<u64> {
    match error {
        ClientError::Status {
            retry_after_secs, ..
        } => *retry_after_secs,
        _ => None,
    }
}

/// The path of dataset `id`; an id the server would refuse is refused
/// here, unsent, so it can never split the request line.
fn dataset_path(id: &str) -> Result<String, ClientError> {
    proto::check_dataset_id(id).map_err(ClientError::Invalid)?;
    Ok(format!("/v1/datasets/{id}"))
}

/// A submitted job's identity, as returned by `POST /v1/jobs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Submitted {
    /// The job id; all other endpoints key on it.
    pub id: u64,
    /// The spec the server resolved (echoes the request's, or the
    /// guidance pick when none was given).
    pub spec: String,
    /// Elements after normalization.
    pub n: usize,
    /// Rankings after normalization.
    pub m: usize,
    /// `true` when the server matched this submission's idempotency key
    /// to an existing job and returned that instead of admitting a new
    /// one (HTTP 200 rather than 202).
    pub deduplicated: bool,
}

/// One sub-job of a submitted batch: which spec it runs and the job id
/// it is addressable under (`/v1/jobs/{id}` works on sub-jobs too).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchJob {
    /// The algorithm spec this sub-job runs.
    pub spec: String,
    /// The sub-job's id in the ordinary job table.
    pub id: u64,
}

/// A submitted batch's identity, as returned by `POST /v1/batches`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmittedBatch {
    /// The batch id; batch status/events endpoints key on it.
    pub id: u64,
    /// Elements after normalization (shared by every sub-job).
    pub n: usize,
    /// Rankings after normalization.
    pub m: usize,
    /// One entry per requested spec, in request order.
    pub jobs: Vec<BatchJob>,
    /// `true` when the idempotency key matched an existing batch.
    pub deduplicated: bool,
}

/// A blocking client bound to one server address, holding a small
/// bounded pool of keep-alive connections for sized exchanges (clones
/// share the pool, so concurrent threads each check out their own
/// socket instead of serializing on one).
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    /// Bearer token sent as `Authorization: Bearer <token>` on every
    /// request when the server was started with `--token`.
    token: Option<Arc<str>>,
    /// Idle kept-alive connections, shared by clones.
    pool: Arc<Pool>,
}

impl Client {
    /// A client for `addr` — `host:port`, with or without an `http://`
    /// prefix (trailing slashes are ignored).
    pub fn new(addr: &str) -> Self {
        let addr = addr
            .trim()
            .trim_start_matches("http://")
            .trim_end_matches('/')
            .to_owned();
        Client {
            addr,
            token: None,
            pool: Arc::default(),
        }
    }

    /// [`Client::new`], but every request carries
    /// `Authorization: Bearer <token>` — for servers and routers started
    /// with `--token`.
    pub fn with_token(addr: &str, token: &str) -> Self {
        let mut client = Client::new(addr);
        client.token = Some(Arc::from(token));
        client
    }

    /// The `Authorization` header to attach, when a token is configured.
    fn auth_headers(&self) -> Vec<(&'static str, String)> {
        match &self.token {
            Some(token) => vec![("Authorization", format!("Bearer {token}"))],
            None => Vec::new(),
        }
    }

    /// The normalized `host:port` this client talks to. Useful for
    /// constructing a second client (with its own connection pool) to
    /// the same server.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn connect(&self) -> Result<TcpStream, ClientError> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(600)))?;
        // Requests are small; on a reused keep-alive connection Nagle
        // would trade each one for a delayed-ACK round trip.
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// One exchange over a pooled connection, body unread. A failure on a
    /// *reused* socket (the server restarted, is draining, closed an idle
    /// connection, or shed it) is retried once on a fresh dial before
    /// surfacing — a stale pooled connection must never look like a dead
    /// server.
    fn exchange_keep_alive(
        &self,
        method: &str,
        path: &str,
        extra_headers: &[(&str, String)],
        body: Option<&[u8]>,
    ) -> Result<ClientResponse, ClientError> {
        let pooled = self.pool.checkout();
        let had_pooled = pooled.is_some();
        let mut headers = self.auth_headers();
        headers.extend(extra_headers.iter().cloned());
        let attempt =
            |reader: Option<BufReader<TcpStream>>| -> Result<ClientResponse, ClientError> {
                let mut reader = match reader {
                    Some(reader) => reader,
                    None => BufReader::new(self.connect()?),
                };
                http::write_request_with_headers(
                    reader.get_mut(),
                    method,
                    path,
                    &self.addr,
                    &headers,
                    body.map(|b| ("application/json", b)),
                    true,
                )?;
                Ok(ClientResponse::read_from(reader)?)
            };
        match attempt(pooled) {
            Ok(response) => Ok(response),
            Err(ClientError::Transport(_)) if had_pooled => attempt(None),
            Err(e) => Err(e),
        }
    }

    /// One sized exchange with `extra_headers`, whatever its status:
    /// `(status, Retry-After, body)`; only transport failures are errors.
    /// The router forwards through this, passing non-2xx answers through
    /// verbatim.
    pub(crate) fn raw_exchange(
        &self,
        method: &str,
        path: &str,
        extra_headers: &[(&str, String)],
        body: Option<&[u8]>,
    ) -> Result<(u16, Option<String>, String), ClientError> {
        let response = self.exchange_keep_alive(method, path, extra_headers, body)?;
        let status = response.status;
        let retry_after = response.header("retry-after").map(str::to_owned);
        let (text, reusable) = response.into_body_and_reader()?;
        if let Some(reader) = reusable {
            self.pool.checkin(reader);
        }
        Ok((status, retry_after, text))
    }

    /// Open an NDJSON stream on a pooled connection, which returns to the
    /// pool once the stream's terminator has been read.
    pub(crate) fn stream_lines(&self, path: &str) -> Result<NdjsonLines, ClientError> {
        let response = self.exchange_keep_alive("GET", path, &[], None)?;
        if response.status != 200 {
            let status = response.status;
            let body = response.body_string()?;
            return Err(ClientError::Status {
                status,
                body,
                retry_after_secs: None,
            });
        }
        let pool = Arc::clone(&self.pool);
        Ok(response.lines(move |reader| pool.checkin(reader)))
    }

    /// One non-streaming exchange, JSON in / JSON out; non-2xx statuses
    /// become [`ClientError::Status`]. The connection goes back to the
    /// pool when the server kept it alive.
    fn json_exchange(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Json, ClientError> {
        let text = self.text_exchange(method, path, body)?;
        Json::parse(&text).map_err(|e| ClientError::Malformed(e.to_string()))
    }

    /// The raw-text core of [`Client::json_exchange`] (also used where
    /// the exact response bytes matter).
    fn text_exchange(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<String, ClientError> {
        let (status, retry_after, text) =
            self.raw_exchange(method, path, &[], body.map(str::as_bytes))?;
        if !(200..300).contains(&status) {
            return Err(ClientError::Status {
                status,
                body: text,
                retry_after_secs: retry_after.and_then(|v| v.parse().ok()),
            });
        }
        Ok(text)
    }

    /// `POST /v1/jobs`.
    pub fn submit(&self, submission: &JobSubmission) -> Result<Submitted, ClientError> {
        let doc = self.json_exchange("POST", "/v1/jobs", Some(&submission.to_json()))?;
        Ok(Submitted {
            id: u64_field(&doc, "id")?,
            spec: doc
                .get("spec")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
            n: u64_field(&doc, "n")? as usize,
            m: u64_field(&doc, "m")? as usize,
            deduplicated: doc
                .get("deduplicated")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        })
    }

    /// [`Client::submit`] under a [`RetryPolicy`]: transient failures
    /// (connection loss, 429, 503) are retried with backoff, anything
    /// else returns immediately. `notify` fires before each sleep so the
    /// caller can surface progress ("server busy, retrying in 2s…").
    ///
    /// A retried `POST` is only crash-safe when the submission carries an
    /// [`JobSubmission::idempotency_key`]: without one, a request the
    /// server accepted but never answered (connection cut mid-response)
    /// would be duplicated by the retry.
    pub fn submit_with_retry(
        &self,
        submission: &JobSubmission,
        policy: &RetryPolicy,
        mut notify: impl FnMut(&RetryNotice),
    ) -> Result<Submitted, ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.submit(submission) {
                Ok(submitted) => return Ok(submitted),
                Err(error) => {
                    attempt += 1;
                    let Some(reason) = retry_reason(&error) else {
                        return Err(error);
                    };
                    if attempt >= policy.max_attempts {
                        return Err(error);
                    }
                    let delay = policy.delay(attempt, retry_hint(&error));
                    notify(&RetryNotice {
                        attempt,
                        max_attempts: policy.max_attempts,
                        delay,
                        reason,
                    });
                    std::thread::sleep(delay);
                }
            }
        }
    }

    /// `POST /v1/batches`: one dataset, a panel of specs, admitted
    /// all-or-nothing and sharing one cost-matrix build.
    pub fn submit_batch(
        &self,
        submission: &BatchSubmission,
    ) -> Result<SubmittedBatch, ClientError> {
        let doc = self.json_exchange("POST", "/v1/batches", Some(&submission.to_json()))?;
        let jobs =
            doc.get("jobs")
                .and_then(Json::as_array)
                .ok_or_else(|| ClientError::Malformed(format!("missing \"jobs\" in {doc}")))?
                .iter()
                .map(|job| {
                    let spec = job
                        .get("spec")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_owned();
                    let id = job.get("id").and_then(Json::as_u64).ok_or_else(|| {
                        ClientError::Malformed(format!("missing job id in {doc}"))
                    })?;
                    Ok(BatchJob { spec, id })
                })
                .collect::<Result<Vec<_>, ClientError>>()?;
        Ok(SubmittedBatch {
            id: u64_field(&doc, "id")?,
            n: u64_field(&doc, "n")? as usize,
            m: u64_field(&doc, "m")? as usize,
            jobs,
            deduplicated: doc
                .get("deduplicated")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        })
    }

    /// `GET /v1/batches/{id}`: the batch status document — per-spec
    /// state and reports, plus the aggregate `state`.
    pub fn batch_status(&self, id: u64) -> Result<Json, ClientError> {
        self.json_exchange("GET", &format!("/v1/batches/{id}"), None)
    }

    /// `GET /v1/batches/{id}/events`: the merged NDJSON stream over all
    /// sub-jobs, each line tagged with its `"spec"` and `"job"` id.
    pub fn batch_events(&self, id: u64) -> Result<EventStream, ClientError> {
        Ok(EventStream {
            lines: self.stream_lines(&format!("/v1/batches/{id}/events"))?,
        })
    }

    /// Block until every sub-job of the batch is done and return the
    /// batch status document (streams the merged events to completion,
    /// then fetches the final status).
    pub fn wait_batch(&self, id: u64) -> Result<Json, ClientError> {
        wait_done(
            self.batch_events(id)?,
            || self.batch_status(id),
            "batch",
            id,
        )
    }

    /// `GET /v1/jobs/{id}/events`: the streamed NDJSON lines, parsed,
    /// in emission order, live until the job finishes.
    pub fn events(&self, id: u64) -> Result<EventStream, ClientError> {
        Ok(EventStream {
            lines: self.stream_lines(&format!("/v1/jobs/{id}/events"))?,
        })
    }

    /// `GET /v1/jobs/{id}`: the status document (state, best-so-far,
    /// trace, final report once done).
    pub fn status(&self, id: u64) -> Result<Json, ClientError> {
        self.json_exchange("GET", &format!("/v1/jobs/{id}"), None)
    }

    /// [`Client::status`], but the raw response body — for callers that
    /// must preserve the server's exact serialization (the CLI's remote
    /// `--json` splices the report out of it byte-for-byte, so local and
    /// remote output run through one serializer).
    pub fn status_raw(&self, id: u64) -> Result<String, ClientError> {
        self.text_exchange("GET", &format!("/v1/jobs/{id}"), None)
    }

    /// `DELETE /v1/jobs/{id}`: request cooperative cancellation.
    pub fn cancel(&self, id: u64) -> Result<Json, ClientError> {
        self.json_exchange("DELETE", &format!("/v1/jobs/{id}"), None)
    }

    /// `PUT /v1/datasets/{id}`: create a live dataset from its text form
    /// (one `[{A},{B,C}]` ranking per line). Returns the server's
    /// `{"id", "version", "n", "m"}` document.
    pub fn create_dataset(&self, id: &str, dataset: &str) -> Result<Json, ClientError> {
        let body = format!("{{\"dataset\":\"{}\"}}", crate::json::escape(dataset));
        self.json_exchange("PUT", &dataset_path(id)?, Some(&body))
    }

    /// `PATCH /v1/datasets/{id}` with a pre-serialized `{"ops":[…]}`
    /// body. Each op is one of `{"op":"add","ranking":"[{A},{B}]"}`,
    /// `{"op":"remove","index":N}`, `{"op":"replace","index":N,
    /// "ranking":"…"}`; ops apply in order and each success bumps the
    /// dataset version.
    pub fn patch_dataset(&self, id: &str, ops_body: &str) -> Result<Json, ClientError> {
        self.json_exchange("PATCH", &dataset_path(id)?, Some(ops_body))
    }

    /// `GET /v1/datasets/{id}`: current version, shape, and text form.
    pub fn get_dataset(&self, id: &str) -> Result<Json, ClientError> {
        self.json_exchange("GET", &dataset_path(id)?, None)
    }

    /// `DELETE /v1/datasets/{id}`.
    pub fn delete_dataset(&self, id: &str) -> Result<Json, ClientError> {
        self.json_exchange("DELETE", &dataset_path(id)?, None)
    }

    /// `GET /v1/algorithms`.
    pub fn algorithms(&self) -> Result<Json, ClientError> {
        self.json_exchange("GET", "/v1/algorithms", None)
    }

    /// `GET /healthz`.
    pub fn healthz(&self) -> Result<Json, ClientError> {
        self.json_exchange("GET", "/healthz", None)
    }

    /// `GET /metrics`: the raw Prometheus text exposition (parse it with
    /// [`rank_core::telemetry::parse_exposition`]).
    pub fn metrics_text(&self) -> Result<String, ClientError> {
        self.text_exchange("GET", "/metrics", None)
    }

    /// [`Client::events`] that survives dropped connections: on transport
    /// loss — or a stream that ends before a terminal event, which is
    /// what a crashing server looks like — the iterator reconnects under
    /// `policy`, lets the server's replay log re-serve the stream, and
    /// skips the non-heartbeat lines it already delivered. Callers see
    /// each event exactly once, in order, across any number of
    /// reconnects; the retry budget resets whenever a fresh line arrives.
    pub fn follow_events<F: FnMut(&RetryNotice)>(
        &self,
        id: u64,
        policy: RetryPolicy,
        notify: F,
    ) -> FollowedEvents<F> {
        FollowedEvents {
            client: self.clone(),
            id,
            policy,
            notify,
            stream: None,
            delivered: 0,
            skip: 0,
            attempts: 0,
            finished: false,
        }
    }

    /// Block until the job is done and return its status document (poll +
    /// event-follow free: this just streams events to completion, then
    /// fetches the final status).
    pub fn wait(&self, id: u64) -> Result<Json, ClientError> {
        wait_done(self.events(id)?, || self.status(id), "job", id)
    }
}

/// `doc[key]` as an integer, or a `Malformed` error naming the key.
fn u64_field(doc: &Json, key: &str) -> Result<u64, ClientError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ClientError::Malformed(format!("missing {key:?} in {doc}")))
}

/// Read `events` to the end of the stream, then fetch the status document
/// and require it `done`.
fn wait_done(
    events: EventStream,
    status: impl FnOnce() -> Result<Json, ClientError>,
    what: &str,
    id: u64,
) -> Result<Json, ClientError> {
    for event in events {
        event?;
    }
    let status = status()?;
    if status.get("state").and_then(Json::as_str) == Some("done") {
        Ok(status)
    } else {
        Err(ClientError::Malformed(format!(
            "event stream ended but {what} {id} is not done: {status}"
        )))
    }
}

/// Iterator over a job's streamed events, each parsed as [`Json`].
pub struct EventStream {
    lines: NdjsonLines,
}

impl Iterator for EventStream {
    type Item = Result<Json, ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        let line = match self.lines.next()? {
            Ok(line) => line,
            Err(e) => return Some(Err(e.into())),
        };
        Some(Json::parse(&line).map_err(|e| ClientError::Malformed(format!("{e} in {line:?}"))))
    }
}

/// A reconnecting [`EventStream`] (see [`Client::follow_events`]).
///
/// Terminal events (`finished`, `failed`) end the iteration; a stream
/// that dies before one triggers a reconnect under the policy, with
/// already-delivered non-heartbeat lines skipped out of the server's
/// replay. Heartbeats are passed through live but never counted — they
/// are stream padding, not replayable history.
pub struct FollowedEvents<F> {
    client: Client,
    id: u64,
    policy: RetryPolicy,
    notify: F,
    stream: Option<EventStream>,
    /// Non-heartbeat lines handed to the caller so far.
    delivered: usize,
    /// Replayed lines still to swallow after a reconnect.
    skip: usize,
    /// Consecutive failed attempts (reset by any fresh line).
    attempts: u32,
    finished: bool,
}

impl<F: FnMut(&RetryNotice)> FollowedEvents<F> {
    /// Back off before the next reconnect, or give up by returning the
    /// error that exhausted the budget (non-retryable errors short out).
    fn backoff_or_fail(&mut self, error: ClientError) -> Option<Result<Json, ClientError>> {
        self.attempts += 1;
        let Some(reason) = retry_reason(&error) else {
            self.finished = true;
            return Some(Err(error));
        };
        if self.attempts >= self.policy.max_attempts {
            self.finished = true;
            return Some(Err(error));
        }
        let delay = self.policy.delay(self.attempts, retry_hint(&error));
        (self.notify)(&RetryNotice {
            attempt: self.attempts,
            max_attempts: self.policy.max_attempts,
            delay,
            reason,
        });
        std::thread::sleep(delay);
        None
    }
}

impl<F: FnMut(&RetryNotice)> Iterator for FollowedEvents<F> {
    type Item = Result<Json, ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.finished {
                return None;
            }
            if self.stream.is_none() {
                match self.client.events(self.id) {
                    Ok(stream) => {
                        self.stream = Some(stream);
                        self.skip = self.delivered;
                    }
                    Err(error) => {
                        if let Some(item) = self.backoff_or_fail(error) {
                            return Some(item);
                        }
                        continue;
                    }
                }
            }
            match self.stream.as_mut().expect("stream just ensured").next() {
                Some(Ok(event)) => {
                    let kind = event.get("event").and_then(Json::as_str).unwrap_or("");
                    if kind == "heartbeat" {
                        // Live padding; replay does not re-serve it, so
                        // it neither counts nor skips. During a replay
                        // catch-up it would predate our position — drop.
                        if self.skip > 0 {
                            continue;
                        }
                        return Some(Ok(event));
                    }
                    if self.skip > 0 {
                        self.skip -= 1;
                        continue;
                    }
                    self.delivered += 1;
                    self.attempts = 0;
                    if kind == "finished" || kind == "failed" {
                        self.finished = true;
                        // Read on to the terminator: the socket is reused.
                        if let Some(rest) = self.stream.take() {
                            rest.for_each(drop);
                        }
                    }
                    return Some(Ok(event));
                }
                Some(Err(error @ ClientError::Malformed(_))) => {
                    // A line that failed to parse is a protocol bug, not
                    // connection loss; reconnecting would replay it.
                    self.finished = true;
                    return Some(Err(error));
                }
                Some(Err(error)) => {
                    self.stream = None;
                    if let Some(item) = self.backoff_or_fail(error) {
                        return Some(item);
                    }
                }
                None => {
                    // Clean close without a terminal event: the server
                    // went away mid-job. Reconnect; after a restart the
                    // replay log (or the re-run) continues the story.
                    self.stream = None;
                    let error = ClientError::Transport(HttpError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "event stream ended before the job finished",
                    )));
                    if let Some(item) = self.backoff_or_fail(error) {
                        return Some(item);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delay_is_deterministic_and_bounded() {
        let policy = RetryPolicy::default();
        for attempt in 1..=8 {
            let a = policy.delay(attempt, None);
            let b = policy.delay(attempt, None);
            assert_eq!(a, b, "jitter must be deterministic");
            let window = policy
                .base_delay
                .saturating_mul(1 << (attempt - 1).min(16))
                .min(policy.max_delay);
            assert!(a >= window / 2, "delay {a:?} below half-window {window:?}");
            assert!(a <= window, "delay {a:?} above window {window:?}");
        }
    }

    #[test]
    fn retry_delay_honors_server_hint() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.delay(1, Some(3)), Duration::from_secs(3));
        // Hints are clamped to the cap; zero hints round up to a second.
        assert_eq!(policy.delay(1, Some(3600)), policy.max_delay);
        assert_eq!(policy.delay(1, Some(0)), Duration::from_secs(1));
    }

    #[test]
    fn retry_classification() {
        let io = ClientError::Transport(HttpError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionRefused,
            "refused",
        )));
        assert_eq!(retry_reason(&io), Some("server unreachable"));
        for status in [429u16, 503] {
            let e = ClientError::Status {
                status,
                body: String::new(),
                retry_after_secs: Some(2),
            };
            assert_eq!(retry_reason(&e), Some("server busy"));
            assert_eq!(retry_hint(&e), Some(2));
        }
        let bad = ClientError::Status {
            status: 400,
            body: String::new(),
            retry_after_secs: None,
        };
        assert_eq!(retry_reason(&bad), None);
        assert_eq!(retry_reason(&ClientError::Malformed("x".into())), None);
    }
}
