//! The benchmark's own HTTP/1.1 client. It never asks for
//! `Connection: close`: it keeps the socket whenever the server's
//! reply allows it and reconnects otherwise, counting every connection
//! it opens. Against today's one-request-per-connection server that is
//! one connection per request; a keep-alive server shows its gain here
//! without the benchmark changing.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Status code from the status line.
    pub status: u16,
    /// The body, exactly `content-length` bytes (or to end of stream
    /// when the server sent no length).
    pub body: Vec<u8>,
}

/// One client connection slot: at most one socket, reused while the
/// server lets it live.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    opened: u64,
}

/// Renders a complete request (head and body) ready for
/// [`Client::send`], so load generators serialize during set-up and do
/// not time their own formatting.
pub fn render_request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

impl Client {
    /// A client for `addr`; connects lazily.
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, stream: None, opened: 0 }
    }

    /// Connections opened so far.
    pub fn connections_opened(&self) -> u64 {
        self.opened
    }

    fn connect(&mut self) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        self.opened += 1;
        Ok(stream)
    }

    /// Sends one pre-rendered request and reads the reply.
    ///
    /// # Errors
    ///
    /// Connection, write and read failures, and malformed replies. A
    /// failure on a *reused* socket (the server may have closed it
    /// while idle) is retried once on a fresh connection.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Reply> {
        if let Some(stream) = self.stream.take() {
            if let Ok(reply) = self.exchange(stream, request) {
                return Ok(reply);
            }
        }
        let stream = self.connect()?;
        self.exchange(stream, request)
    }

    /// `GET path`.
    ///
    /// # Errors
    ///
    /// See [`Client::send`].
    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        let request = render_request(self.addr, "GET", path, b"");
        self.send(&request)
    }

    fn exchange(&mut self, mut stream: TcpStream, request: &[u8]) -> io::Result<Reply> {
        stream.write_all(request)?;
        let (reply, reusable) = read_reply(&mut stream)?;
        if reusable {
            self.stream = Some(stream);
        }
        Ok(reply)
    }
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Reads one reply; the flag says whether the socket may carry another
/// request (HTTP/1.1, a declared length, and no `connection: close`).
fn read_reply(stream: &mut TcpStream) -> io::Result<(Reply, bool)> {
    let mut buffer = Vec::with_capacity(4096);
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(pos) = buffer.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if buffer.len() > 64 * 1024 {
            return Err(malformed("reply head exceeds 64 KiB"));
        }
        match stream.read(&mut chunk)? {
            0 => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed before head")),
            n => buffer.extend_from_slice(&chunk[..n]),
        }
    };
    let head = String::from_utf8_lossy(&buffer[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.split(' ');
    let version = parts.next().unwrap_or("");
    let status: u16 =
        parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| malformed("bad status line"))?;
    let mut length: Option<usize> = None;
    let mut close = version != "HTTP/1.1";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse().map_err(|_| malformed("bad content-length"))?);
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            close = true;
        }
    }
    let mut body = buffer.split_off(head_end + 4);
    match length {
        Some(length) => {
            // Bound the allocation: replies here are leaderboards and
            // receipts, far below this.
            if length > 256 * 1024 * 1024 {
                return Err(malformed("content-length exceeds 256 MiB"));
            }
            let have = body.len().min(length);
            body.truncate(length);
            body.resize(length, 0);
            stream.read_exact(&mut body[have..])?;
        }
        None => {
            stream.read_to_end(&mut body)?;
            close = true;
        }
    }
    Ok((Reply { status, body }, !close))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;

    /// A scripted server: answers `requests` requests, keeping the
    /// connection open between them iff `keep_alive`.
    fn scripted_server(requests: usize, keep_alive: bool) -> (SocketAddr, mpsc::Receiver<String>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut served = 0;
            while served < requests {
                let (mut stream, _) = listener.accept().unwrap();
                loop {
                    let mut head = Vec::new();
                    let mut byte = [0u8; 1];
                    while !head.ends_with(b"\r\n\r\n") {
                        if stream.read(&mut byte).unwrap_or(0) == 0 {
                            break;
                        }
                        head.push(byte[0]);
                    }
                    if !head.ends_with(b"\r\n\r\n") {
                        break;
                    }
                    let head = String::from_utf8(head).unwrap();
                    let length: usize = head
                        .lines()
                        .find_map(|l| l.strip_prefix("content-length: "))
                        .map_or(0, |v| v.trim().parse().unwrap());
                    let mut body = vec![0u8; length];
                    stream.read_exact(&mut body).unwrap();
                    tx.send(format!("{head}{}", String::from_utf8(body).unwrap())).unwrap();
                    served += 1;
                    let reply = format!("echo {served}");
                    let connection = if keep_alive { "" } else { "connection: close\r\n" };
                    write!(
                        stream,
                        "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n{connection}\r\n{reply}",
                        reply.len()
                    )
                    .unwrap();
                    if !keep_alive || served == requests {
                        break;
                    }
                }
            }
        });
        (addr, rx)
    }

    #[test]
    fn reconnects_per_request_when_the_server_closes() {
        let (addr, rx) = scripted_server(3, false);
        let mut client = Client::new(addr);
        for i in 1..=3 {
            let reply = client.send(&render_request(addr, "POST", "/x", b"hello")).unwrap();
            assert_eq!((reply.status, reply.body), (200, format!("echo {i}").into_bytes()));
        }
        assert_eq!(client.connections_opened(), 3);
        let seen = rx.recv().unwrap();
        assert!(seen.starts_with("POST /x HTTP/1.1\r\n"));
        assert!(seen.ends_with("hello"));
        assert!(!seen.to_ascii_lowercase().contains("connection: close"), "never asks to close");
    }

    #[test]
    fn reuses_the_socket_when_the_server_allows_it() {
        let (addr, _rx) = scripted_server(3, true);
        let mut client = Client::new(addr);
        for i in 1..=3 {
            let reply = client.get("/y").unwrap();
            assert_eq!(reply.body, format!("echo {i}").into_bytes());
        }
        assert_eq!(client.connections_opened(), 1, "a keep-alive server costs one connection");
    }
}
