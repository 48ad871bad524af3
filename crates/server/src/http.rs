//! Minimal HTTP/1.1 framing: request parsing and response writing over a
//! raw byte stream. Implements exactly what the serving API needs —
//! request line + headers + `Content-Length` or chunked
//! transfer-encoding bodies, keep-alive, and explicit
//! `Connection: close` — with hard caps on header and body sizes so a
//! misbehaving client cannot make the server buffer unbounded input.

use std::io::{self, Read, Write};

/// Maximum bytes of request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum request body bytes (`Content-Length` above this is rejected
/// with `413` before any body byte is read).
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Raw query string (empty when absent).
    pub query: String,
    /// Header `(name, value)` pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// request.
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The value of a `k=v` query parameter.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The connection closed cleanly before a request started.
    Eof,
    /// The socket read timed out before a request started (idle
    /// keep-alive); the caller decides whether to keep waiting.
    IdleTimeout,
    /// A transport error.
    Io(io::Error),
    /// The bytes were not a parseable HTTP/1.1 request. The server
    /// answers `400` with this message.
    Malformed(String),
    /// The head or declared body exceeds the hard caps. The server
    /// answers `413`.
    TooLarge(String),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Eof => write!(f, "connection closed"),
            ReadError::IdleTimeout => write!(f, "idle timeout"),
            ReadError::Io(e) => write!(f, "transport error: {e}"),
            ReadError::Malformed(m) => write!(f, "malformed request: {m}"),
            ReadError::TooLarge(m) => write!(f, "request too large: {m}"),
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Read one request from `stream`.
///
/// A timeout *before the first byte* surfaces as [`ReadError::IdleTimeout`]
/// so keep-alive loops can poll their shutdown flag; a timeout *mid-head*
/// or mid-body is an I/O error (the client stalled inside a request).
///
/// # Errors
///
/// See [`ReadError`].
pub fn read_request<S: Read>(stream: &mut S) -> Result<Request, ReadError> {
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    // Byte-at-a-time until CRLFCRLF, so this never over-reads into the
    // next pipelined request; the server passes a `BufReader` that lives
    // as long as the connection, so a byte costs no syscall.
    loop {
        match stream.read(&mut byte) {
            Ok(0) => {
                return Err(if head.is_empty() {
                    ReadError::Eof
                } else {
                    ReadError::Malformed("connection closed mid-request".to_owned())
                });
            }
            Ok(_) => head.push(byte[0]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) && head.is_empty() => return Err(ReadError::IdleTimeout),
            Err(e) => return Err(ReadError::Io(e)),
        }
        if head.ends_with(b"\r\n\r\n") {
            break;
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(ReadError::TooLarge(format!("request head exceeds {MAX_HEAD_BYTES} B")));
        }
    }

    let head_text = String::from_utf8_lossy(&head);
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(ReadError::Malformed(format!("bad request line {request_line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!("unsupported protocol {version:?}")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed(format!("bad header line {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let mut body = Vec::new();
    let content_length = headers.iter().find(|(n, _)| n == "content-length").map(|(_, v)| v);
    let transfer_encoding = headers.iter().find(|(n, _)| n == "transfer-encoding").map(|(_, v)| v);
    match (transfer_encoding, content_length) {
        // RFC 9112 §6.1: a message with both is a smuggling vector;
        // reject rather than pick one.
        (Some(_), Some(_)) => {
            return Err(ReadError::Malformed(
                "both transfer-encoding and content-length present".to_owned(),
            ));
        }
        (Some(encoding), None) => {
            if !encoding.eq_ignore_ascii_case("chunked") {
                return Err(ReadError::Malformed(format!(
                    "unsupported transfer-encoding {encoding:?}"
                )));
            }
            body = read_chunked_body(stream)?;
        }
        (None, Some(value)) => {
            let length: usize = value
                .parse()
                .map_err(|_| ReadError::Malformed(format!("bad content-length {value:?}")))?;
            if length > MAX_BODY_BYTES {
                return Err(ReadError::TooLarge(format!(
                    "declared body of {length} B exceeds {MAX_BODY_BYTES} B"
                )));
            }
            body.resize(length, 0);
            let mut filled = 0;
            while filled < length {
                match stream.read(&mut body[filled..]) {
                    Ok(0) => {
                        return Err(ReadError::Malformed("connection closed mid-body".to_owned()))
                    }
                    Ok(n) => filled += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(ReadError::Io(e)),
                }
            }
        }
        (None, None) => {}
    }

    Ok(Request { method: method.to_ascii_uppercase(), path, query, headers, body })
}

/// One CRLF-terminated line of chunked-body framing (size lines,
/// trailers). The terminator is stripped.
fn read_framing_line<S: Read>(stream: &mut S) -> Result<String, ReadError> {
    let mut line = Vec::with_capacity(16);
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => {
                return Err(ReadError::Malformed("connection closed mid-chunked-body".to_owned()))
            }
            Ok(_) => line.push(byte[0]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ReadError::Io(e)),
        }
        if line.ends_with(b"\r\n") {
            line.truncate(line.len() - 2);
            return Ok(String::from_utf8_lossy(&line).into_owned());
        }
        if line.len() > 1024 {
            return Err(ReadError::TooLarge("chunked framing line exceeds 1024 B".to_owned()));
        }
    }
}

/// Decode a `Transfer-Encoding: chunked` body: hex-size lines (chunk
/// extensions after `;` are ignored), chunk data, CRLF, terminated by a
/// zero-size chunk and its (possibly empty) trailer section. The
/// decoded total is capped at [`MAX_BODY_BYTES`] like any other body —
/// the caller sees only the reassembled bytes, so where the client cut
/// its chunks is invisible to handlers (chunk-split invariance over the
/// wire).
fn read_chunked_body<S: Read>(stream: &mut S) -> Result<Vec<u8>, ReadError> {
    let mut body = Vec::new();
    loop {
        let size_line = read_framing_line(stream)?;
        let size_hex = size_line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_hex, 16)
            .map_err(|_| ReadError::Malformed(format!("bad chunk size line {size_line:?}")))?;
        if size == 0 {
            // Trailer section: lines until the empty terminator. The
            // trailers themselves are ignored (none are defined here).
            loop {
                if read_framing_line(stream)?.is_empty() {
                    return Ok(body);
                }
            }
        }
        if body.len() + size > MAX_BODY_BYTES {
            return Err(ReadError::TooLarge(format!("chunked body exceeds {MAX_BODY_BYTES} B")));
        }
        let start = body.len();
        body.resize(start + size, 0);
        let mut filled = start;
        while filled < body.len() {
            match stream.read(&mut body[filled..]) {
                Ok(0) => {
                    return Err(ReadError::Malformed("connection closed mid-chunk".to_owned()))
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ReadError::Io(e)),
            }
        }
        // Each chunk's data is followed by its own CRLF.
        let terminator = read_framing_line(stream)?;
        if !terminator.is_empty() {
            return Err(ReadError::Malformed(format!(
                "expected CRLF after chunk data, got {terminator:?}"
            )));
        }
    }
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (`200`, `429`, `503`, …).
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`/`Connection`.
    pub headers: Vec<(String, String)>,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
        }
    }

    /// Add a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: String) -> Response {
        self.headers.push((name.to_owned(), value));
        self
    }

    /// The standard reason phrase for this status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serialize and write the response. `close` controls the
    /// `Connection` header (and thus whether the peer should reuse the
    /// socket).
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn write_to<W: Write>(&self, stream: &mut W, close: bool) -> io::Result<()> {
        // One buffer, one write: on a `TCP_NODELAY` socket, a head and a
        // body written apart would be two segments.
        let mut wire = Vec::with_capacity(256 + self.body.len());
        write!(wire, "HTTP/1.1 {} {}\r\n", self.status, self.reason())?;
        write!(wire, "content-type: {}\r\n", self.content_type)?;
        write!(wire, "content-length: {}\r\n", self.body.len())?;
        wire.extend_from_slice(if close {
            b"connection: close\r\n"
        } else {
            b"connection: keep-alive\r\n"
        });
        for (name, value) in &self.headers {
            write!(wire, "{name}: {value}\r\n")?;
        }
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(&self.body);
        stream.write_all(&wire)?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<Request, ReadError> {
        read_request(&mut Cursor::new(bytes.to_vec()))
    }

    #[test]
    fn parses_a_post_with_body_and_headers() {
        let req = parse(
            b"POST /match?format=jsonl HTTP/1.1\r\nHost: x\r\nX-Cicero-Fuel: 99\r\ncontent-length: 4\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/match");
        assert_eq!(req.query_param("format"), Some("jsonl"));
        assert_eq!(req.header("x-cicero-fuel"), Some("99"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn parses_a_bare_get() {
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
        assert!(!req.wants_close());
    }

    #[test]
    fn clean_eof_is_distinguished_from_truncation() {
        assert!(matches!(parse(b""), Err(ReadError::Eof)));
        assert!(matches!(parse(b"GET / HT"), Err(ReadError::Malformed(_))));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_declarations_before_reading_them() {
        let huge = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(matches!(parse(huge.as_bytes()), Err(ReadError::TooLarge(_))));
    }

    #[test]
    fn chunked_bodies_reassemble_regardless_of_chunking() {
        // Two splits of the same body decode to identical bytes.
        let req = parse(
            b"POST /scan/stream HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n4\r\nGET \r\n2\r\n/x\r\n0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.body, b"GET /x");
        let req = parse(
            b"POST /scan/stream HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n6\r\nGET /x\r\n0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.body, b"GET /x");
        // Chunk extensions, uppercase hex, and trailers are tolerated.
        let req = parse(
            b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\nA;ext=1\r\n0123456789\r\n0\r\nx-trailer: v\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.body, b"0123456789");
        // An empty chunked body is fine.
        let req = parse(b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n").unwrap();
        assert!(req.body.is_empty());
    }

    #[test]
    fn malformed_chunked_framing_is_rejected() {
        // Bad size line.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\nzz\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        // Missing CRLF after chunk data.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n2\r\nabXX\r\n0\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        // Truncated mid-chunk.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n8\r\nab"),
            Err(ReadError::Malformed(_))
        ));
        // Smuggling shape: both framings present.
        assert!(matches!(
            parse(
                b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\ncontent-length: 2\r\n\r\n0\r\n\r\n"
            ),
            Err(ReadError::Malformed(_))
        ));
        // Only `chunked` is implemented.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\ntransfer-encoding: gzip\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_non_http_preambles() {
        assert!(matches!(parse(b"SSH-2.0-OpenSSH\r\n\r\n"), Err(ReadError::Malformed(_))));
    }

    #[test]
    fn responses_roundtrip_through_the_parser_shape() {
        let mut out = Vec::new();
        Response::json(429, "{\"error\":\"budget\"}".to_owned())
            .with_header("retry-after", "1".to_owned())
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"), "{text}");
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"budget\"}"));
    }
}
