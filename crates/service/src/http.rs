//! A minimal hand-rolled HTTP/1.1 transport over
//! [`std::net::TcpListener`] — zero new dependencies.
//!
//! The surface is exactly what the service core offers:
//!
//! | method | path                          | body                | reply |
//! |--------|-------------------------------|---------------------|-------|
//! | POST   | `/rounds/{round}/open`        | refs JSON or empty  | JSON  |
//! | POST   | `/rounds/{round}/bundles`     | `SubmissionBundle`  | receipt JSON |
//! | GET    | `/rounds/{round}/leaderboard` | —                   | rendered text |
//! | GET    | `/rounds/{round}/status`      | —                   | JSON  |
//! | POST   | `/rounds/{round}/close`       | —                   | JSON  |
//! | GET    | `/metrics`                    | —                   | Prometheus text |
//! | GET    | `/healthz`                    | —                   | `ok`  |
//! | POST   | `/shutdown`                   | —                   | JSON, then the server stops |
//!
//! Every connection is `Connection: close` — one request per
//! connection keeps the parser trivial and is plenty for submission
//! traffic. Malformed requests (unknown methods, bad paths, truncated
//! or oversized bodies, invalid JSON) map to structured 4xx replies;
//! a handler panic maps to a 500. The server never dies with a client.

use crate::state::{ServiceCore, ServiceError};
use mlperf_distsim::Round;
use mlperf_submission::{round_references, BenchmarkReference, SubmissionBundle};
use serde_json::json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Request heads (request line + headers) larger than this are
/// rejected with 431 rather than buffered.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Bodies larger than this are rejected with 413. Synthetic stress
/// bundles are tens of kilobytes; this leaves two orders of headroom.
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Sockets idle longer than this mid-request are dropped with 408.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed request: just enough HTTP for the service surface.
#[derive(Debug)]
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

/// A response ready to serialize. Constructors pin the content types
/// the service uses so handlers cannot mistype them.
#[derive(Debug)]
struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn json(status: u16, value: serde_json::Value) -> Response {
        let mut body = value.to_string();
        body.push('\n');
        Response { status, content_type: "application/json", body }
    }

    fn text(status: u16, body: String) -> Response {
        Response { status, content_type: "text/plain; charset=utf-8", body }
    }

    fn metrics(body: String) -> Response {
        // The content type Prometheus' scraper expects.
        Response { status: 200, content_type: "text/plain; version=0.0.4", body }
    }

    fn error(status: u16, message: impl Into<String>) -> Response {
        Response::json(status, json!({ "error": message.into() }))
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            _ => "Internal Server Error",
        }
    }

    fn write_to(&self, stream: &mut TcpStream) {
        let head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
        );
        // A client that hung up mid-reply is its own problem; the
        // server just moves on to the next connection.
        let _ = stream.write_all(head.as_bytes());
        let _ = stream.write_all(self.body.as_bytes());
        let _ = stream.flush();
    }
}

/// The live-service HTTP server: an accept loop over a bound listener,
/// one thread per connection, all routes delegating to a shared
/// [`ServiceCore`].
#[derive(Debug)]
pub struct HttpServer {
    core: Arc<ServiceCore>,
    listener: TcpListener,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

/// Handle to a server running on a background thread. Dropping it (or
/// calling [`ServerHandle::shutdown`]) stops the accept loop and joins
/// the thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Binds to `addr` (use port 0 for an ephemeral port; the real
    /// address is [`HttpServer::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(core: Arc<ServiceCore>, addr: &str) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(HttpServer { core, listener, addr, stop: Arc::new(AtomicBool::new(false)) })
    }

    /// The address actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs the accept loop on the calling thread until `POST
    /// /shutdown` arrives (or [`ServerHandle::shutdown`], for a server
    /// started with [`HttpServer::serve_background`]).
    pub fn serve(self) {
        let HttpServer { core, listener, addr, stop } = self;
        for conn in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            let spawned = thread::Builder::new()
                .name("mlperf-service-conn".into())
                .spawn(move || handle_connection(&core, stream, &stop, addr));
            // Out of threads: drop the connection rather than the
            // server. The client sees a reset and retries.
            drop(spawned);
        }
    }

    /// Runs the accept loop on a background thread and returns a handle
    /// that can address and stop it.
    ///
    /// # Errors
    ///
    /// Propagates the thread-spawn failure.
    pub fn serve_background(self) -> std::io::Result<ServerHandle> {
        let addr = self.addr;
        let stop = Arc::clone(&self.stop);
        let accept =
            thread::Builder::new().name("mlperf-service-accept".into()).spawn(|| self.serve())?;
        Ok(ServerHandle { addr, stop, accept: Some(accept) })
    }
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. In-flight
    /// connection threads finish their single request and exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop only observes the flag on its next
        // connection; hand it one.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Serves one connection: parse, route (panic-fenced), reply. Parse
/// errors are already `Response`s; a routing panic becomes a 500.
fn handle_connection(
    core: &ServiceCore,
    mut stream: TcpStream,
    stop: &AtomicBool,
    addr: SocketAddr,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let response = match read_request(&mut stream) {
        Err(error) => error,
        Ok(request) => match catch_unwind(AssertUnwindSafe(|| route(core, &request, stop))) {
            Ok(response) => response,
            Err(_) => Response::error(500, "internal error handling request"),
        },
    };
    response.write_to(&mut stream);
    if stop.load(Ordering::SeqCst) {
        // This request was POST /shutdown: wake the accept loop so it
        // observes the flag without waiting for another client.
        let _ = TcpStream::connect(addr);
    }
}

/// Reads and parses one request. `Err` is the 4xx to send back.
fn read_request(stream: &mut TcpStream) -> Result<Request, Response> {
    let mut buffer = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buffer) {
            break pos;
        }
        if buffer.len() > MAX_HEAD_BYTES {
            return Err(Response::error(431, "request head exceeds 16 KiB"));
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(Response::error(
                    400,
                    "truncated request: connection closed before end of headers",
                ))
            }
            Ok(n) => buffer.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(Response::error(408, "timed out reading request"))
            }
            Err(_) => return Err(Response::error(400, "error reading request")),
        }
    };
    let head = String::from_utf8_lossy(&buffer[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) =
        (parts.next().unwrap_or(""), parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(Response::error(400, format!("malformed request line: {request_line:?}")));
    }
    if !matches!(method, "GET" | "POST" | "HEAD" | "PUT" | "DELETE" | "PATCH" | "OPTIONS") {
        return Err(Response::error(400, format!("unrecognized method {method:?}")));
    }
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| Response::error(400, "unparseable content-length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(Response::error(413, "body exceeds 8 MiB"));
    }
    let mut body = buffer[head_end + 4..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(Response::error(
                    400,
                    format!(
                        "truncated body: content-length {content_length} but received {}",
                        body.len()
                    ),
                ))
            }
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(Response::error(408, "timed out reading body"))
            }
            Err(_) => return Err(Response::error(400, "error reading body")),
        }
    }
    body.truncate(content_length);
    Ok(Request { method: method.to_string(), path: path.to_string(), body })
}

fn find_head_end(buffer: &[u8]) -> Option<usize> {
    buffer.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Maps a request onto the service core.
fn route(core: &ServiceCore, request: &Request, stop: &AtomicBool) -> Response {
    let method = request.method.as_str();
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (method, segments.as_slice()) {
        ("GET", ["healthz"]) => Response::text(200, "ok\n".to_string()),
        ("GET", ["metrics"]) => Response::metrics(core.metrics_text()),
        ("POST", ["shutdown"]) => {
            stop.store(true, Ordering::SeqCst);
            Response::json(200, json!({ "stopping": true }))
        }
        (_, ["healthz" | "metrics" | "shutdown"]) => {
            Response::error(405, format!("{method} not allowed here"))
        }
        (_, ["rounds", label, action]) => {
            let Ok(round) = label.parse::<Round>() else {
                return Response::error(404, format!("unknown round {label:?}"));
            };
            match (method, *action) {
                ("POST", "open") => open_round(core, round, &request.body),
                ("POST", "bundles") => submit_bundle(core, round, &request.body),
                ("POST", "close") => close_round(core, round),
                ("GET", "leaderboard") => match core.leaderboard(round) {
                    Ok(board) => Response::text(200, board),
                    Err(e) => service_error(e),
                },
                ("GET", "status") => match core.round_status(round) {
                    Ok(status) => Response::json(
                        200,
                        json!({
                            "round": status.round.label(),
                            "open": status.open,
                            "bundles": status.bundles,
                            "accepted_entries": status.accepted_entries,
                            "scenario_entries": status.scenario_entries,
                            "quarantined": status.quarantined,
                            "leaderboard_version": status.leaderboard_version,
                        }),
                    ),
                    Err(e) => service_error(e),
                },
                ("GET" | "POST", _) => Response::error(
                    405,
                    format!("{method} not allowed on /rounds/{label}/{action}"),
                ),
                _ => Response::error(405, format!("{method} not allowed here")),
            }
        }
        _ => Response::error(404, format!("no route for {}", request.path)),
    }
}

/// A request body as text. Invalid UTF-8 is refused, not decoded
/// lossily: a lossy decode would accept a bad byte inside a JSON string
/// as U+FFFD and store a name the client never sent.
fn body_text(body: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))
}

fn open_round(core: &ServiceCore, round: Round, body: &[u8]) -> Response {
    // An empty body means "the standard references for this round";
    // otherwise the body is the explicit reference list.
    let references: Vec<BenchmarkReference> = if body.is_empty() {
        round_references(round)
    } else {
        match body_text(body).and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
        {
            Ok(refs) => refs,
            Err(e) => return Response::error(400, format!("invalid reference list: {e}")),
        }
    };
    match core.open_round(round, references) {
        Ok(()) => Response::json(200, json!({ "round": round.label(), "open": true })),
        Err(e) => service_error(e),
    }
}

fn submit_bundle(core: &ServiceCore, round: Round, body: &[u8]) -> Response {
    let parsed =
        body_text(body).and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()));
    let bundle: SubmissionBundle = match parsed {
        Ok(bundle) => bundle,
        Err(e) => return Response::error(400, format!("invalid submission bundle: {e}")),
    };
    match core.submit_bundle(round, &bundle) {
        Ok(receipt) => Response::json(
            200,
            json!({
                "round": receipt.round.label(),
                "index": receipt.index,
                "org": receipt.org,
                "clean": receipt.clean,
                "accepted_entries": receipt.accepted_entries,
                "scenario_entries": receipt.scenario_entries,
                "diagnostics": receipt.diagnostics,
            }),
        ),
        Err(e) => service_error(e),
    }
}

fn close_round(core: &ServiceCore, round: Round) -> Response {
    match core.close_round(round) {
        Ok(outcome) => Response::json(
            200,
            json!({
                "round": outcome.round.label(),
                "open": false,
                "bundles": outcome.reports.len(),
                "accepted_entries": outcome.accepted.len(),
                "scenario_entries": outcome.scenarios.len(),
                "quarantined": outcome.quarantined.len(),
            }),
        ),
        Err(e) => service_error(e),
    }
}

fn service_error(error: ServiceError) -> Response {
    let status = match error {
        ServiceError::UnknownRound(_) => 404,
        ServiceError::RoundClosed(_) | ServiceError::RoundAlreadyOpen(_) => 409,
        ServiceError::Store(_) => 500,
    };
    Response::error(status, error.to_string())
}
