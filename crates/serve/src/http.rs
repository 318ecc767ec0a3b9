//! A minimal HTTP/1.1 request parser and response writer over `std::io`.
//!
//! Implements exactly the subset the job service needs: a request line,
//! `\r\n`-terminated headers, and an optional `Content-Length` body, with
//! hard limits on every dimension so a misbehaving client cannot make the
//! server allocate unboundedly. Violations map to typed [`HttpError`]
//! variants that carry the right status code (`400`, `408`, `411`, `413`,
//! `431`), so the connection handler can answer before closing instead of
//! hanging up silently. No chunked transfer encoding, no
//! `Expect: 100-continue`, no TLS — clients needing those belong behind a
//! real proxy; the service itself stays dependency-free.

use std::fmt;
use std::io::{BufRead, Write};

use ilt_telemetry::fault::{self, points};

/// Longest accepted request line (method + path + version), in bytes.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Maximum number of request headers.
pub const MAX_HEADERS: usize = 64;
/// Total byte budget for the request line plus the whole header block.
/// A client trickling an endless header stream hits this long before it
/// can make the server allocate anything interesting.
pub const MAX_HEADER_BLOCK: usize = 16 * 1024;
/// Largest accepted request body, in bytes. Job specs are tiny; anything
/// bigger than this is a mistake or an attack.
pub const MAX_BODY: usize = 256 * 1024;

/// Parse/IO failures while reading a request. Every variant except
/// [`Io`](HttpError::Io) carries a client-safe message and maps to a
/// status code via [`status`](HttpError::status).
#[derive(Debug)]
pub enum HttpError {
    /// The socket failed mid-request; no response can be delivered.
    Io(std::io::Error),
    /// The request violated the supported HTTP subset (`400`).
    Malformed(String),
    /// The client stalled past the socket read timeout with a request
    /// partially sent — the slowloris case (`408`).
    TimedOut(String),
    /// The request used a transfer coding instead of declaring its body
    /// size with `Content-Length` (`411`).
    LengthRequired(String),
    /// The declared body size exceeds [`MAX_BODY`] (`413`).
    BodyTooLarge(String),
    /// The request line + header block exceeds [`MAX_HEADER_BLOCK`] or
    /// [`MAX_HEADERS`] (`431`).
    HeadersTooLarge(String),
}

impl HttpError {
    /// Status code to answer with before closing the connection, or
    /// `None` when the socket is already beyond answering.
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::Io(_) => None,
            HttpError::Malformed(_) => Some(400),
            HttpError::TimedOut(_) => Some(408),
            HttpError::LengthRequired(_) => Some(411),
            HttpError::BodyTooLarge(_) => Some(413),
            HttpError::HeadersTooLarge(_) => Some(431),
        }
    }

    /// The message that is safe to echo to the client (`None` for
    /// [`Io`](HttpError::Io), which carries OS error text instead).
    pub fn client_message(&self) -> Option<&str> {
        match self {
            HttpError::Io(_) => None,
            HttpError::Malformed(m)
            | HttpError::TimedOut(m)
            | HttpError::LengthRequired(m)
            | HttpError::BodyTooLarge(m)
            | HttpError::HeadersTooLarge(m) => Some(m),
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            HttpError::TimedOut(msg) => write!(f, "request timed out: {msg}"),
            HttpError::LengthRequired(msg) => write!(f, "length required: {msg}"),
            HttpError::BodyTooLarge(msg) => write!(f, "body too large: {msg}"),
            HttpError::HeadersTooLarge(msg) => write!(f, "headers too large: {msg}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Whether an IO error is the socket read timeout firing (the kind
/// depends on the platform).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (path + optional query, no normalisation).
    pub path: String,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was present).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this request.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Reads one request from the stream. Returns `Ok(None)` on clean EOF
    /// — or a read timeout — before any byte of the next request (an idle
    /// keep-alive connection winding down).
    ///
    /// # Errors
    ///
    /// [`HttpError::Io`] on socket failure, [`HttpError::TimedOut`] when
    /// the client stalls mid-request, [`HttpError::LengthRequired`] /
    /// [`HttpError::BodyTooLarge`] / [`HttpError::HeadersTooLarge`] on
    /// limit violations, [`HttpError::Malformed`] for everything else
    /// outside the supported subset.
    pub fn read_from(reader: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
        let mut consumed = 0usize;
        let line = match read_line(reader, MAX_REQUEST_LINE, &mut consumed) {
            Ok(line) if line.is_empty() => return Ok(None),
            Ok(line) => line,
            Err(LineError::CleanEof) => return Ok(None),
            // An idle keep-alive client that never started the next
            // request is a clean close, not a protocol violation.
            Err(LineError::Io(e)) if is_timeout(&e) && consumed == 0 => return Ok(None),
            Err(LineError::Io(e)) if is_timeout(&e) => {
                return Err(HttpError::TimedOut(format!(
                    "client stalled after {consumed} bytes of the request line"
                )))
            }
            Err(LineError::Io(e)) => return Err(HttpError::Io(e)),
            Err(LineError::TruncatedEof) => {
                return Err(HttpError::Malformed("EOF inside the request line".into()))
            }
            Err(LineError::TooLong) => {
                return Err(HttpError::HeadersTooLarge(format!(
                    "request line exceeds the {MAX_REQUEST_LINE}-byte limit"
                )))
            }
            Err(LineError::NotUtf8) => {
                return Err(HttpError::Malformed("non-UTF-8 request line".into()))
            }
        };
        let mut parts = line.split_ascii_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
            .to_ascii_uppercase();
        let path = parts
            .next()
            .ok_or_else(|| HttpError::Malformed("request line has no target".into()))?
            .to_string();
        let version = parts
            .next()
            .ok_or_else(|| HttpError::Malformed("request line has no version".into()))?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed(format!(
                "unsupported protocol {version:?}"
            )));
        }
        let mut headers = Vec::new();
        loop {
            let budget = MAX_HEADER_BLOCK.saturating_sub(consumed);
            let line = match read_line(reader, MAX_REQUEST_LINE.min(budget), &mut consumed) {
                Ok(line) => line,
                Err(LineError::CleanEof | LineError::TruncatedEof) => {
                    return Err(HttpError::Malformed("EOF inside headers".into()))
                }
                Err(LineError::Io(e)) if is_timeout(&e) => {
                    return Err(HttpError::TimedOut(format!(
                        "client stalled after {consumed} header bytes"
                    )))
                }
                Err(LineError::Io(e)) => return Err(HttpError::Io(e)),
                Err(LineError::TooLong) => {
                    return Err(HttpError::HeadersTooLarge(format!(
                        "header block exceeds the {MAX_HEADER_BLOCK}-byte limit"
                    )))
                }
                Err(LineError::NotUtf8) => {
                    return Err(HttpError::Malformed("non-UTF-8 header bytes".into()))
                }
            };
            if line.is_empty() {
                break;
            }
            if headers.len() >= MAX_HEADERS {
                return Err(HttpError::HeadersTooLarge(format!(
                    "more than {MAX_HEADERS} headers"
                )));
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| HttpError::Malformed("header line without colon".into()))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let mut request = Request {
            method,
            path,
            headers,
            body: Vec::new(),
        };
        // No transfer coding is supported, so a framed body must declare
        // its size up front: Transfer-Encoding without Content-Length is
        // the RFC 7230 case for 411. Absent both, the body is empty.
        if request.header("transfer-encoding").is_some() {
            return Err(HttpError::LengthRequired(
                "transfer codings are not supported; send a Content-Length".into(),
            ));
        }
        match request.header("content-length") {
            None => {}
            Some(raw) => {
                let trimmed = raw.trim().to_string();
                let mut len: u64 = match trimmed.parse() {
                    Ok(len) => len,
                    // All-digit but unparsable means the value overflowed
                    // u64 — an absurd size claim, not a syntax error.
                    Err(_)
                        if !trimmed.is_empty() && trimmed.bytes().all(|b| b.is_ascii_digit()) =>
                    {
                        return Err(HttpError::BodyTooLarge(format!(
                            "Content-Length {trimmed:?} overflows the supported range"
                        )))
                    }
                    Err(_) => {
                        return Err(HttpError::Malformed(format!(
                            "bad Content-Length {trimmed:?}"
                        )))
                    }
                };
                if fault::should_fire(points::SERVE_BODY_OVERSIZE) {
                    len = MAX_BODY as u64 + 1;
                }
                if len > MAX_BODY as u64 {
                    return Err(HttpError::BodyTooLarge(format!(
                        "body of {len} bytes exceeds the {MAX_BODY}-byte limit"
                    )));
                }
                let mut body = vec![0u8; len as usize];
                let read = if fault::should_fire(points::SERVE_BODY_TRUNCATE) {
                    Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "injected fault: serve.body_truncate",
                    ))
                } else {
                    reader.read_exact(&mut body)
                };
                match read {
                    Ok(()) => request.body = body,
                    Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                        return Err(HttpError::Malformed(
                            "request body shorter than Content-Length".into(),
                        ))
                    }
                    Err(e) if is_timeout(&e) => {
                        return Err(HttpError::TimedOut("client stalled mid-body".into()))
                    }
                    Err(e) => return Err(HttpError::Io(e)),
                }
            }
        }
        Ok(Some(request))
    }
}

/// Why [`read_line`] stopped short of a complete line.
enum LineError {
    Io(std::io::Error),
    /// EOF before any byte of the line.
    CleanEof,
    /// EOF after the line started.
    TruncatedEof,
    /// The line exceeds the caller's byte limit.
    TooLong,
    NotUtf8,
}

/// Reads one `\r\n`- (or `\n`-) terminated line, bounded by `limit`
/// bytes. Every byte read (terminators included) is added to `consumed`,
/// which lets the caller budget a whole header block across calls.
fn read_line(
    reader: &mut impl BufRead,
    limit: usize,
    consumed: &mut usize,
) -> Result<String, LineError> {
    let mut buf = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) if buf.is_empty() => return Err(LineError::CleanEof),
            Ok(0) => return Err(LineError::TruncatedEof),
            Ok(_) => {}
            Err(e) => return Err(LineError::Io(e)),
        }
        *consumed += 1;
        if byte[0] == b'\n' {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return String::from_utf8(buf).map_err(|_| LineError::NotUtf8);
        }
        if buf.len() >= limit {
            return Err(LineError::TooLong);
        }
        buf.push(byte[0]);
    }
}

/// One HTTP response ready to serialise.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    content_type: &'static str,
    extra_headers: Vec<(&'static str, String)>,
    body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body,
        }
    }

    /// A plain-text response (used by `/metrics`).
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body,
        }
    }

    /// A JSON error response with the message in an `"error"` field.
    pub fn error(status: u16, message: &str) -> Self {
        let mut body = String::from("{\"error\":");
        ilt_telemetry::json::push_str_literal(&mut body, message);
        body.push('}');
        Response::json(status, body)
    }

    /// Adds an extra header (e.g. `Retry-After`).
    pub fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.extra_headers.push((name, value));
        self
    }

    /// Serialises the response (HTTP/1.1, explicit `Content-Length`).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }
}

/// Reason phrase for the status codes this service emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        Request::read_from(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get_with_headers() {
        let req = parse("GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert!(req.wants_close());
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let req = parse("POST /v1/jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"a\"");
        assert!(!req.wants_close());
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            parse("hello\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /x SPDY/9\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nbadheader\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: zebra\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn transfer_encoding_is_411() {
        let err =
            parse("POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::LengthRequired(_)), "{err}");
        assert_eq!(err.status(), Some(411));
    }

    #[test]
    fn missing_content_length_means_empty_body() {
        // No Content-Length and no Transfer-Encoding frames a bodyless
        // request (the `curl -X POST /admin/shutdown` shape).
        let req = parse("POST /admin/shutdown HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.body.is_empty());
        assert!(parse("GET /healthz HTTP/1.1\r\n\r\n").unwrap().is_some());
    }

    #[test]
    fn oversized_and_overflowing_bodies_are_413() {
        let declared = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = parse(&declared).unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge(_)), "{err}");
        assert_eq!(err.status(), Some(413));

        let overflow = "POST /x HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n";
        let err = parse(overflow).unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge(_)), "{err}");
    }

    #[test]
    fn truncated_body_is_a_400_not_a_hang() {
        let err = parse("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort").unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("shorter than Content-Length"));
    }

    #[test]
    fn oversized_header_block_is_431() {
        let mut raw = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..8 {
            raw.push_str(&format!("x-pad-{i}: {}\r\n", "v".repeat(4096)));
        }
        raw.push_str("\r\n");
        let err = parse(&raw).unwrap_err();
        assert!(matches!(err, HttpError::HeadersTooLarge(_)), "{err}");
        assert_eq!(err.status(), Some(431));
    }

    #[test]
    fn too_many_headers_is_431() {
        let mut raw = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            raw.push_str(&format!("h{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        let err = parse(&raw).unwrap_err();
        assert!(matches!(err, HttpError::HeadersTooLarge(_)), "{err}");
    }

    #[test]
    fn overlong_request_line_is_431() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        let err = parse(&raw).unwrap_err();
        assert!(matches!(err, HttpError::HeadersTooLarge(_)), "{err}");
    }

    #[test]
    fn every_typed_error_has_a_status_and_message() {
        let cases: Vec<(HttpError, u16)> = vec![
            (HttpError::Malformed("m".into()), 400),
            (HttpError::TimedOut("m".into()), 408),
            (HttpError::LengthRequired("m".into()), 411),
            (HttpError::BodyTooLarge("m".into()), 413),
            (HttpError::HeadersTooLarge("m".into()), 431),
        ];
        for (err, status) in cases {
            assert_eq!(err.status(), Some(status));
            assert_eq!(err.client_message(), Some("m"));
            assert_ne!(status_reason(status), "Unknown");
        }
        let io = HttpError::Io(std::io::Error::other("x"));
        assert_eq!(io.status(), None);
        assert_eq!(io.client_message(), None);
    }

    #[test]
    fn response_serialises_with_extra_headers() {
        let mut out = Vec::new();
        Response::json(429, "{\"error\":\"queue full\"}".into())
            .with_header("Retry-After", "1".into())
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 22\r\n"));
        assert!(text.ends_with("{\"error\":\"queue full\"}"));
    }

    #[test]
    fn error_body_escapes_the_message() {
        let mut out = Vec::new();
        Response::error(400, "bad \"quote\"")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("{\"error\":\"bad \\\"quote\\\"\"}"));
    }
}
