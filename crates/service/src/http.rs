//! A deliberately small HTTP/1.1 layer over `std::net`: request parsing,
//! response writing, and chunked transfer encoding for NDJSON streams.
//!
//! No crates.io access means no hyper/axum (the `crates/shims` offline
//! discipline); the service speaks just enough HTTP/1.1 for its own
//! protocol, strictly: `GET`/`POST`/`DELETE`, `Content-Length` bodies
//! with a hard size cap, persistent connections (HTTP/1.1 keep-alive;
//! `Connection: close` on request) for sized and chunked responses alike
//! — a chunked event stream is just a long exchange, and one that ends
//! without its terminator is an error. Anything outside that — oversized
//! bodies, truncated requests, unknown methods — maps to a typed
//! [`HttpError`] the server turns into a 4xx, never a panic.

use crate::proto::error_json;
use rank_core::telemetry::Counter;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Largest accepted request body (1 MiB — datasets at the service's
/// target sizes are a few hundred KiB of text at most).
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 << 10;

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The connection died or timed out mid-request.
    Io(io::Error),
    /// The bytes did not form a valid HTTP/1.1 request.
    Malformed(String),
    /// The declared `Content-Length` exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge(usize),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "connection error: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::BodyTooLarge(n) => {
                write!(f, "request body of {n} bytes exceeds {MAX_BODY_BYTES}")
            }
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// What a handled request means for its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// The exchange completed; the connection can serve the next one.
    KeepAlive,
    /// The connection is spent.
    Close,
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET` / `POST` / `DELETE` / … (uppercased as received).
    pub method: String,
    /// The path, query string stripped (the protocol uses none).
    pub path: String,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client allows the connection to be reused after this
    /// exchange (HTTP/1.1 default keep-alive; an explicit
    /// `Connection: close` opts out).
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Whether `request` presents the bearer `token`, the one rule of the
/// server and the router (always, with no token configured). `/healthz`
/// and `/metrics` are exempt so load balancers, liveness probes and
/// metric scrapers work without credentials.
pub fn authorized(request: &Request, token: Option<&str>, path: &str) -> bool {
    let Some(token) = token else {
        return true;
    };
    if path == "/healthz" || path == "/metrics" {
        return true;
    }
    request
        .header("authorization")
        .and_then(|v| v.strip_prefix("Bearer "))
        .is_some_and(|presented| presented.trim() == token)
}

/// Read one request from `reader` (a buffered connection).
pub fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, HttpError> {
    let mut head = String::new();
    // Request line + headers, CRLF-terminated, blank line ends the head.
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-head".into()));
        }
        if head.len() + line.len() > MAX_HEAD_BYTES {
            return Err(HttpError::Malformed("request head too large".into()));
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
        head.push_str(&line);
        if head.lines().count() == 1 && !head.contains("HTTP/") {
            // Keep reading: the request line may span reads only via the
            // BufReader, which read_line already handles; this guard is
            // about plainly non-HTTP openings.
            if head.len() > 256 {
                return Err(HttpError::Malformed("not an HTTP request".into()));
            }
        }
    }
    let mut lines = head.lines();
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing method".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }
    let path = target.split('?').next().unwrap_or(target).to_owned();
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad Content-Length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|_| {
        // A short body is a *truncated* request — the declared length
        // never arrived — which the server reports as a client error.
        HttpError::Malformed(format!(
            "body shorter than the declared Content-Length of {content_length}"
        ))
    })?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// One accepted connection as a handler answers on it: the socket, and
/// whether the drain had begun when the last response's final write
/// started. [`Conn::respond`] and [`ChunkedWriter::finish`] take that
/// sample just before they write, so a client can never hold its answer
/// before the sample is taken.
pub struct Conn<'d> {
    stream: TcpStream,
    draining: &'d AtomicBool,
    drained_at_write: Option<bool>,
}

impl Conn<'_> {
    /// Write one complete response with [`write_response`], taking the
    /// drain sample first.
    pub fn respond(
        &mut self,
        status: u16,
        content_type: &str,
        extra_headers: &[(&str, String)],
        body: &[u8],
        keep_alive: bool,
    ) -> io::Result<()> {
        self.drained_at_write = Some(self.draining.load(Ordering::SeqCst));
        write_response(
            &mut self.stream,
            status,
            content_type,
            extra_headers,
            body,
            keep_alive,
        )
    }
}

/// The accept loop of both tiers, until `draining(state)` is set: each
/// accepted connection is counted in `connections` and served by
/// [`serve_connection`] with `handle` on its own thread, named
/// `thread_name`, under `catch_unwind`, so a handler panic kills only
/// its connection, never the process. `drop_accept` is the server's
/// fault hook: when it says so, the connection is closed unanswered.
pub(crate) fn serve<S: Send + Sync + 'static>(
    listener: TcpListener,
    state: Arc<S>,
    draining: fn(&S) -> &AtomicBool,
    connections: &Counter,
    thread_name: &str,
    drop_accept: impl Fn() -> bool,
    handle: fn(&mut Conn, &Request, &Arc<S>, bool) -> Served,
) -> io::Result<()> {
    for connection in listener.incoming() {
        if draining(&state).load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = connection else { continue };
        connections.inc();
        if drop_accept() {
            drop(stream);
            continue;
        }
        let state = Arc::clone(&state);
        let _ = std::thread::Builder::new()
            .name(thread_name.to_owned())
            .spawn(move || {
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    serve_connection(stream, draining(&state), |conn, request, keep| {
                        handle(conn, request, &state, keep)
                    })
                }));
            });
    }
    Ok(())
}

/// The keep-alive request loop both tiers run on each accepted
/// connection: read a request, hand it to `handle`, repeat while both
/// sides keep the connection. Unreadable requests are answered 413/400
/// and closed. While `draining`, a connection that was idle when the
/// drain began — its last response's final write had started before it —
/// is closed unanswered at its next request, as a dead process would, so
/// a pooled client redials and meets the closed listener; one busy when
/// it began (a live event stream) may still ask for its work's outcome.
fn serve_connection(
    stream: TcpStream,
    draining: &AtomicBool,
    mut handle: impl FnMut(&mut Conn, &Request, bool) -> Served,
) {
    // A stuck or silent client may hold the socket, but not forever —
    // the same timeout also bounds how long an idle keep-alive
    // connection occupies its thread.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    // Responses and streamed events are small writes on a long-lived
    // socket: without TCP_NODELAY, Nagle holds the second write of a
    // response until the client's delayed ACK (~40 ms per keep-alive
    // round trip on loopback).
    let _ = stream.set_nodelay(true);
    let Ok(clone) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(clone);
    let mut conn = Conn {
        stream,
        draining,
        drained_at_write: None,
    };
    loop {
        let request = match read_request(&mut reader) {
            Ok(request) => request,
            Err(HttpError::BodyTooLarge(_)) => {
                return reject(&mut conn.stream, 413, "request body too large");
            }
            // Framing is no longer trustworthy: answer and close.
            Err(HttpError::Malformed(message)) => return reject(&mut conn.stream, 400, &message),
            // A clean EOF between requests is how keep-alive ends.
            Err(HttpError::Io(_)) => return,
        };
        if conn.drained_at_write == Some(false) && draining.load(Ordering::SeqCst) {
            return;
        }
        let keep = request.keep_alive();
        conn.drained_at_write = None;
        match handle(&mut conn, &request, keep) {
            Served::KeepAlive if keep => {}
            _ => return,
        }
    }
}

/// Answer an unreadable request with an error document, closing.
fn reject(stream: &mut TcpStream, status: u16, message: &str) {
    let body = error_json(message, None);
    let _ = write_response(
        stream,
        status,
        "application/json",
        &[],
        body.as_bytes(),
        false,
    );
}

/// Standard reason phrase for the status codes the protocol uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write one complete (non-streamed) response and flush. `extra_headers`
/// are emitted verbatim (e.g. `("Retry-After", "2")`). `keep_alive`
/// chooses the `Connection` header — the server passes the client's own
/// preference through, so an agreed-on connection serves many exchanges.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // One write for head + body: a sized response must never straddle a
    // Nagle boundary on a keep-alive connection.
    let mut frame = head.into_bytes();
    frame.extend_from_slice(body);
    stream.write_all(&frame)?;
    stream.flush()
}

/// Queued stream bytes past which [`ChunkedWriter::write_line`] flushes on
/// its own, so a stream whose lines are always ready still goes out in
/// bounded pieces.
const STREAM_FLUSH_BYTES: usize = 16 << 10;

/// A chunked-transfer response writer for NDJSON event streams: one chunk
/// per line, ended with the zero-length terminator. The response head and
/// the lines queue up and go out in one `write` per
/// [`ChunkedWriter::flush`], so a batch of ready lines costs one write, not
/// one each. A stream must flush before every wait (and with every
/// heartbeat) so subscribers see incumbents as they land;
/// [`ChunkedWriter::finish`] sends what is queued with the terminator.
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
    draining: &'a AtomicBool,
    drained_at_write: &'a mut Option<bool>,
    queued: Vec<u8>,
}

impl<'a> ChunkedWriter<'a> {
    /// Queue the response head (status 200, `Transfer-Encoding: chunked`)
    /// and return the chunk writer. `keep_alive` chooses the `Connection`
    /// header, as in [`write_response`].
    pub fn begin(conn: &'a mut Conn<'_>, content_type: &str, keep_alive: bool) -> Self {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let head = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: {connection}\r\nCache-Control: no-store\r\n\r\n"
        );
        ChunkedWriter {
            stream: &mut conn.stream,
            draining: conn.draining,
            drained_at_write: &mut conn.drained_at_write,
            queued: head.into_bytes(),
        }
    }

    /// Queue one NDJSON line (the newline is appended here) as a chunk.
    /// Writes only once the queue passes [`STREAM_FLUSH_BYTES`].
    pub fn write_line(&mut self, line: &str) -> io::Result<()> {
        // Writing into a `Vec` cannot fail.
        let _ = write!(self.queued, "{:x}\r\n", line.len() + 1);
        self.queued.extend_from_slice(line.as_bytes());
        self.queued.extend_from_slice(b"\n\r\n");
        if self.queued.len() >= STREAM_FLUSH_BYTES {
            return self.flush();
        }
        Ok(())
    }

    /// Write everything queued, in one `write` (under `TCP_NODELAY`, one
    /// segment train). A no-op when nothing is queued.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.queued.is_empty() {
            return Ok(());
        }
        self.stream.write_all(&self.queued)?;
        self.queued.clear();
        Ok(())
    }

    /// Whether bytes are queued that no `write` has sent yet.
    pub fn has_queued(&self) -> bool {
        !self.queued.is_empty()
    }

    /// Terminate the chunk stream, taking the drain sample first (see
    /// [`Conn`]); the queue and the terminator go out in one `write`. The
    /// connection is usable again only if the whole stream reached the
    /// peer.
    pub fn finish(mut self) -> Served {
        *self.drained_at_write = Some(self.draining.load(Ordering::SeqCst));
        self.queued.extend_from_slice(b"0\r\n\r\n");
        match self.flush() {
            Ok(()) => Served::KeepAlive,
            Err(_) => Served::Close,
        }
    }
}

/// Client side: write one request (used by the CLI's `--remote` path and
/// the tests). `body` is sent with a `Content-Length`; `None` sends none.
/// `keep_alive` asks the server to hold the connection open for the next
/// exchange (the pooled client sends it on every request, streams
/// included).
pub fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    host: &str,
    body: Option<(&str, &[u8])>,
    keep_alive: bool,
) -> io::Result<()> {
    write_request_with_headers(stream, method, path, host, &[], body, keep_alive)
}

/// [`write_request`] with extra request headers emitted verbatim — the
/// authenticated client sends `("Authorization", "Bearer …")` here.
pub fn write_request_with_headers(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    host: &str,
    extra_headers: &[(&str, String)],
    body: Option<(&str, &[u8])>,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head =
        format!("{method} {path} HTTP/1.1\r\nHost: {host}\r\nConnection: {connection}\r\n");
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    if let Some((content_type, payload)) = body {
        head.push_str(&format!(
            "Content-Type: {content_type}\r\nContent-Length: {}\r\n",
            payload.len()
        ));
    }
    head.push_str("\r\n");
    // Head and body in one write, as in `write_response`.
    let mut frame = head.into_bytes();
    if let Some((_, payload)) = body {
        frame.extend_from_slice(payload);
    }
    stream.write_all(&frame)?;
    stream.flush()
}

/// Client side: a parsed response head plus a reader positioned at the
/// body. The body is either sized (`Content-Length`) or chunked.
pub struct ClientResponse {
    /// The status code.
    pub status: u16,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    reader: BufReader<TcpStream>,
    chunked: bool,
    content_length: Option<usize>,
}

impl ClientResponse {
    /// Read the status line and headers from `stream`.
    pub fn read(stream: TcpStream) -> Result<Self, HttpError> {
        Self::read_from(BufReader::new(stream))
    }

    /// [`ClientResponse::read`] over an already-buffered connection — the
    /// entry point for a pooled keep-alive connection, whose reader must
    /// survive across exchanges (a fresh `BufReader` would drop any bytes
    /// the old one had buffered past the previous body).
    pub fn read_from(mut reader: BufReader<TcpStream>) -> Result<Self, HttpError> {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            // The server closed without answering (crash, drop-accept
            // fault). An I/O error, not a protocol one: this is the
            // retryable "connection dropped" case for the client.
            return Err(HttpError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before a response arrived",
            )));
        }
        let mut parts = line.split_whitespace();
        let version = parts
            .next()
            .ok_or_else(|| HttpError::Malformed("empty response".into()))?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed(format!("bad version {version:?}")));
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| HttpError::Malformed("bad status code".into()))?;
        let mut headers = Vec::new();
        loop {
            let mut header_line = String::new();
            let n = reader.read_line(&mut header_line)?;
            if n == 0 {
                return Err(HttpError::Malformed("connection closed mid-head".into()));
            }
            if header_line == "\r\n" || header_line == "\n" {
                break;
            }
            if let Some((name, value)) = header_line.split_once(':') {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
            }
        }
        let chunked = headers
            .iter()
            .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
        let content_length = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok());
        Ok(ClientResponse {
            status,
            headers,
            reader,
            chunked,
            content_length,
        })
    }

    /// First value of `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Read the entire body as text (sized, chunked, or read-to-end).
    pub fn body_string(self) -> Result<String, HttpError> {
        Ok(self.into_body_and_reader()?.0)
    }

    /// Whether the server did not answer `Connection: close`.
    fn keeps_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Read the entire body as text and return the connection's reader
    /// when it is reusable: the body was framed (sized, or chunked and
    /// read through its terminator) and the server did not answer
    /// `Connection: close`. This is what the pooled client uses to put a
    /// keep-alive connection back.
    pub fn into_body_and_reader(
        mut self,
    ) -> Result<(String, Option<BufReader<TcpStream>>), HttpError> {
        let mut bytes = Vec::new();
        let mut reusable = self.keeps_alive();
        if self.chunked {
            while let Some(chunk) = read_chunk(&mut self.reader)? {
                bytes.extend_from_slice(&chunk);
            }
        } else if let Some(n) = self.content_length {
            bytes.resize(n, 0);
            self.reader.read_exact(&mut bytes)?;
        } else {
            self.reader.read_to_end(&mut bytes)?;
            reusable = false;
        }
        let text = String::from_utf8(bytes)
            .map_err(|_| HttpError::Malformed("body is not UTF-8".into()))?;
        Ok((text, reusable.then_some(self.reader)))
    }

    /// Iterate the NDJSON lines of a chunked body as they arrive. Ends on
    /// the chunk terminator. Only after reading the terminator of a
    /// kept-alive response is the connection handed to `reuse`; a stream
    /// dropped mid-way, cut short, or answered `close` drops its socket.
    pub fn lines(self, reuse: impl FnOnce(BufReader<TcpStream>) + Send + 'static) -> NdjsonLines {
        let reusable = self.keeps_alive();
        NdjsonLines {
            reader: Some(self.reader),
            buffer: Vec::new(),
            reuse: reusable.then(|| Box::new(reuse) as Box<dyn FnOnce(_) + Send>),
        }
    }
}

/// Read one chunk; `Ok(None)` on the zero-length terminator. A connection
/// that closes before it is an `UnexpectedEof` error, never a clean end.
fn read_chunk(reader: &mut BufReader<TcpStream>) -> Result<Option<Vec<u8>>, HttpError> {
    let mut size_line = String::new();
    if reader.read_line(&mut size_line)? == 0 {
        return Err(HttpError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the end of the chunked stream",
        )));
    }
    let size = usize::from_str_radix(size_line.trim(), 16)
        .map_err(|_| HttpError::Malformed(format!("bad chunk size {size_line:?}")))?;
    if size == 0 {
        // The CRLF that ends the terminator (no trailers are sent).
        let mut crlf = String::new();
        reader.read_line(&mut crlf)?;
        return Ok(None);
    }
    let mut chunk = vec![0u8; size];
    reader.read_exact(&mut chunk)?;
    let mut crlf = [0u8; 2];
    reader.read_exact(&mut crlf)?;
    Ok(Some(chunk))
}

/// Streaming line iterator over a chunked NDJSON body.
pub struct NdjsonLines {
    /// `None` once the stream has ended.
    reader: Option<BufReader<TcpStream>>,
    buffer: Vec<u8>,
    /// Where a cleanly terminated keep-alive connection goes.
    reuse: Option<Box<dyn FnOnce(BufReader<TcpStream>) + Send>>,
}

impl NdjsonLines {
    /// Whether the next line (or the stream's end) is already complete in
    /// the read buffer, so [`Iterator::next`] returns it without waiting on
    /// the socket. A proxy flushes what it has queued whenever this is
    /// `false`, before it waits.
    pub fn next_is_buffered(&self) -> bool {
        if self.buffer.contains(&b'\n') {
            return true;
        }
        match &self.reader {
            Some(reader) => chunk_with_line_buffered(reader.buffer()),
            None => true,
        }
    }
}

/// Whether `buf` starts with a whole chunk whose data ends a line, or with
/// the whole zero-length terminator.
fn chunk_with_line_buffered(buf: &[u8]) -> bool {
    let Some(eol) = buf.windows(2).position(|w| w == b"\r\n") else {
        return false;
    };
    let size = std::str::from_utf8(&buf[..eol])
        .ok()
        .and_then(|s| usize::from_str_radix(s.trim(), 16).ok());
    let data = eol + 2;
    match size {
        Some(0) => buf.len() >= data + 2,
        Some(size) => buf.len() >= data + size + 2 && buf[data..data + size].contains(&b'\n'),
        None => false,
    }
}

impl Iterator for NdjsonLines {
    type Item = Result<String, HttpError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            // A complete line already buffered?
            if let Some(nl) = self.buffer.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buffer.drain(..=nl).collect();
                let text = String::from_utf8_lossy(&line).trim_end().to_owned();
                if text.is_empty() {
                    continue;
                }
                return Some(Ok(text));
            }
            let Some(reader) = self.reader.as_mut() else {
                // Flush a trailing unterminated line, if any.
                let text = String::from_utf8_lossy(&self.buffer).trim_end().to_owned();
                self.buffer.clear();
                return (!text.is_empty()).then_some(Ok(text));
            };
            match read_chunk(reader) {
                Ok(Some(chunk)) => self.buffer.extend_from_slice(&chunk),
                Ok(None) => {
                    if let (Some(reader), Some(reuse)) = (self.reader.take(), self.reuse.take()) {
                        reuse(reader);
                    }
                }
                Err(e) => {
                    self.reader = None;
                    self.buffer.clear();
                    return Some(Err(e));
                }
            }
        }
    }
}
