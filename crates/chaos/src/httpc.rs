//! The workspace's one HTTP/1.1 client, over raw TCP.
//!
//! Three kinds of caller share it: the chaos harness, which *needs*
//! byte-level control of the socket (torn heads, half-closes, mid-body
//! disconnects) and so also uses [`connect`] and [`read_reply`] on their
//! own; the `mtasm client` load generator; and mt-serve's end-to-end
//! tests. It is hand-rolled like the server because the workspace takes
//! no dependencies. Every request is one `Connection: close` exchange on
//! a fresh connection — the server answers that way, so there is no
//! keep-alive to reuse.
//!
//! Writes are deliberately tolerant: an overloaded or draining server
//! may answer and close before it reads the request, so a failed `write`
//! with a valid response already on the wire is a success, not an error.
//! Failures are split by whether the request went out ([`HttpError`]).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use mt_trace::json::{self, Json};

/// Socket-level timeout for every read and write. Generous: this is a
/// hang backstop, not a latency assertion.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One parsed response.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The `X-Cache` header value (`hit` / `miss`), when present.
    pub cache: Option<String>,
    /// The body (lossily decoded as UTF-8).
    pub body: String,
}

/// Why a request got no reply. A connection that died (or short-read)
/// *after* the request went out is a different signal — usually a
/// server-side drop defense or a crash — than never reaching the server.
#[derive(Debug)]
pub enum HttpError {
    /// Connect/setup failed; the request was never sent.
    Connect(String),
    /// The request was sent (or the server dropped us) but the reply
    /// never fully arrived.
    Disconnect(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Connect(m) | HttpError::Disconnect(m) => f.write_str(m),
        }
    }
}

impl From<HttpError> for String {
    fn from(e: HttpError) -> String {
        e.to_string()
    }
}

/// Connects with both timeouts armed.
pub fn connect(addr: &str) -> Result<TcpStream, HttpError> {
    let setup = |e: std::io::Error| HttpError::Connect(format!("connect {addr}: {e}"));
    let stream = TcpStream::connect(addr).map_err(setup)?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(setup)?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(setup)?;
    Ok(stream)
}

/// Reads a status line, headers, and `Content-Length` body (or, with no
/// length, everything up to the close) from a stream the request has
/// already been written to.
pub fn read_reply(stream: TcpStream) -> Result<Reply, HttpError> {
    let gone = |what: &str, e: String| HttpError::Disconnect(format!("short read: {what}: {e}"));
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| gone("status line", e.to_string()))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| gone("status line", format!("{:?}", status_line.trim_end())))?;
    let mut cache = None;
    let mut content_length = None;
    loop {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| gone("header", e.to_string()))?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            match name.trim().to_ascii_lowercase().as_str() {
                "x-cache" => cache = Some(value.trim().to_string()),
                "content-length" => {
                    let n = value.trim().parse::<usize>();
                    content_length = Some(n.map_err(|e| gone("content-length", e.to_string()))?);
                }
                _ => {}
            }
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.resize(n, 0);
            reader.read_exact(&mut body)
        }
        None => reader.read_to_end(&mut body).map(drop),
    }
    .map_err(|e| gone("body", e.to_string()))?;
    Ok(Reply {
        status,
        cache,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

/// One request over a fresh connection, tagged with `client_id` in
/// `X-Client-Id` (the server's fairness key). Write errors are tolerated
/// (see the module doc); only a missing or unreadable *response* after
/// the connect is a [`HttpError::Disconnect`].
fn request(
    addr: &str,
    method: &str,
    target: &str,
    client_id: &str,
    body: &[u8],
) -> Result<Reply, HttpError> {
    let stream = connect(addr)?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| HttpError::Connect(e.to_string()))?;
    let _ = write!(
        writer,
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nX-Client-Id: {client_id}\r\n\
         Content-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = writer.write_all(body);
    let _ = writer.flush();
    read_reply(stream)
}

/// One `GET` (client id `probe`).
pub fn get(addr: &str, target: &str) -> Result<Reply, HttpError> {
    request(addr, "GET", target, "probe", b"")
}

/// One `POST` of `body` on behalf of `client_id`.
pub fn post(addr: &str, target: &str, client_id: &str, body: &[u8]) -> Result<Reply, HttpError> {
    request(addr, "POST", target, client_id, body)
}

/// Fetches and parses the `/metrics` JSON document.
pub fn metrics(addr: &str) -> Result<Json, String> {
    let reply = get(addr, "/metrics")?;
    if reply.status != 200 {
        return Err(format!("/metrics answered {}", reply.status));
    }
    json::parse(&reply.body).map_err(|e| format!("/metrics parse: {e}"))
}

/// Looks up a numeric field by dot-path in a JSON document.
pub fn field_u64(doc: &Json, path: &[&str]) -> Option<u64> {
    let mut node = doc;
    for key in path {
        node = node.get(key)?;
    }
    node.as_f64().map(|f| f as u64)
}
