//! A tiny blocking HTTP/1.1 client over [`std::net::TcpStream`] — the
//! test-and-tooling counterpart of [`crate::http`]. The storm driver,
//! the integration tests, and anything else that needs to talk to a
//! running service use this instead of growing a dependency.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed response: status code, content type, and the full body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// The status code from the response line.
    pub status: u16,
    /// The `content-type` header, empty if absent.
    pub content_type: String,
    /// The response body as UTF-8 text.
    pub body: String,
}

/// Sends one request and reads the full response (the service always
/// closes the connection after one exchange, so read-to-EOF is the
/// framing).
///
/// # Errors
///
/// Connection, write, or malformed-response errors, as text.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<HttpResponse, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(request.as_bytes()).map_err(|e| format!("write {addr}: {e}"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("read {addr}: {e}"))?;
    parse_response(&raw)
}

/// `GET path` against a running service.
///
/// # Errors
///
/// See [`http_request`].
pub fn http_get(addr: &str, path: &str) -> Result<HttpResponse, String> {
    http_request(addr, "GET", path, None)
}

/// `POST path` with an optional body against a running service.
///
/// # Errors
///
/// See [`http_request`].
pub fn http_post(addr: &str, path: &str, body: Option<&str>) -> Result<HttpResponse, String> {
    http_request(addr, "POST", path, body)
}

fn parse_response(raw: &[u8]) -> Result<HttpResponse, String> {
    let text = String::from_utf8_lossy(raw);
    let head_end =
        text.find("\r\n\r\n").ok_or_else(|| "response missing header terminator".to_string())?;
    let head = &text[..head_end];
    let body = text[head_end + 4..].to_string();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line: {status_line:?}"))?;
    let mut content_type = String::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-type") {
                content_type = value.trim().to_string();
            }
        }
    }
    Ok(HttpResponse { status, content_type, body })
}
