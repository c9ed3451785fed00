//! A minimal HTTP/1.1 front end over `std::net` — enough for the four
//! campaign endpoints, with no external dependencies.
//!
//! | Method & path            | Meaning                                   |
//! |--------------------------|-------------------------------------------|
//! | `GET /healthz`           | liveness probe                            |
//! | `GET /jobs`              | all-jobs summary                          |
//! | `POST /jobs`             | submit a campaign spec (body = spec JSON) |
//! | `GET /jobs/{id}`         | job status (per-shard detail)             |
//! | `GET /jobs/{id}/results` | merged per-class tallies + coverage       |
//! | `POST /jobs/{id}/cancel` | cancel a job                              |
//!
//! A rejected submission answers `422` with the structured error body —
//! for a verify-gated cell that body embeds the static verifier's findings
//! verbatim, so the tenant sees *why* the cell is unprotectable without
//! grepping server logs. A request the parser refuses is answered `400`
//! (malformed line, header or `Content-Length`) or `413` (body over
//! 1 MiB) before it is routed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::service::Service;

/// Largest accepted request body; a longer `Content-Length` is answered
/// `413` before any of the body is read.
const MAX_BODY_BYTES: usize = 1 << 20;

/// Longest accepted request line or header line, terminator included.
const MAX_LINE_BYTES: usize = 8 << 10;

/// Most header lines accepted in one request.
const MAX_HEADER_LINES: usize = 100;

/// One parsed request.
#[derive(Debug)]
struct Request {
    method: String,
    path: String,
    body: String,
}

/// A refused request: the status and JSON body to answer with, or `None`
/// when the connection failed before a complete request arrived.
type Refusal = Option<(u16, String)>;

fn bad_request(why: &str) -> Refusal {
    Some((
        400,
        format!("{{\"error\":\"bad_request\",\"detail\":\"{why}\"}}"),
    ))
}

/// Read one line of at most [`MAX_LINE_BYTES`], without its line ending.
fn read_line(reader: &mut impl BufRead, too_long: &str) -> Result<String, Refusal> {
    let mut line = Vec::new();
    let limit = MAX_LINE_BYTES as u64;
    let n = reader
        .take(limit)
        .read_until(b'\n', &mut line)
        .map_err(|_| None)?;
    if line.last() != Some(&b'\n') {
        // Either the bound cut the line or the peer closed mid-line.
        return Err(if n as u64 == limit {
            bad_request(too_long)
        } else {
            None
        });
    }
    while line.last().is_some_and(|b| matches!(b, b'\n' | b'\r')) {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| bad_request("request is not UTF-8"))
}

/// Parse one request from `reader`: a request line, headers up to the
/// blank line, and a body of exactly `Content-Length` bytes (0 when the
/// header is absent). Lines, header count and body are bounded by the
/// consts above, so no input makes this read unboundedly or panic; an
/// oversized body is refused before any of it is read.
fn read_request(reader: &mut impl BufRead) -> Result<Request, Refusal> {
    let line = read_line(reader, "request line too long")?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_owned();
    let path = parts.next().unwrap_or_default().to_owned();
    let mut content_length = 0usize;
    for headers in 0.. {
        let header = read_line(reader, "header line too long")?;
        if header.is_empty() {
            break;
        }
        if headers == MAX_HEADER_LINES {
            return Err(bad_request("too many header lines"));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad_request("unparseable Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        let body = format!("{{\"error\":\"body_too_large\",\"limit\":{MAX_BODY_BYTES}}}");
        return Err(Some((413, body)));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|_| None)?;
    Ok(Request {
        method,
        path,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

/// Answer one connection: parse, route and respond. After a `413` the
/// unread body is discarded (at most 4 x [`MAX_BODY_BYTES`]), so a client
/// that sends it anyway reads the answer rather than a connection reset.
fn handle(service: &Service, stream: &mut TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    match read_request(&mut reader) {
        Ok(req) => {
            let (status, body) = route(service, &req);
            respond(stream, status, &body);
        }
        Err(Some((status, body))) => {
            respond(stream, status, &body);
            if status == 413 {
                stream.shutdown(Shutdown::Write)?;
                std::io::copy(
                    &mut reader.take(4 * MAX_BODY_BYTES as u64),
                    &mut std::io::sink(),
                )?;
            }
        }
        Err(None) => {}
    }
    Ok(())
}

fn respond(stream: &mut TcpStream, status: u16, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        422 => "Unprocessable Entity",
        _ => "Internal Server Error",
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

fn route(service: &Service, req: &Request) -> (u16, String) {
    let segments: Vec<&str> = req.path.trim_matches('/').split('/').collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => (200, "{\"ok\":true}".to_owned()),
        ("GET", ["jobs"]) => (200, service.list()),
        ("POST", ["jobs"]) => match service.submit(&req.body) {
            Ok(id) => (200, format!("{{\"job\":{id}}}")),
            Err(e) => (422, e.to_json()),
        },
        ("GET", ["jobs", id]) => match id.parse::<u64>().ok().and_then(|id| service.status(id)) {
            Some(body) => (200, body),
            None => (404, "{\"error\":\"unknown_job\"}".to_owned()),
        },
        ("GET", ["jobs", id, "results"]) => {
            match id.parse::<u64>().ok().and_then(|id| service.results(id)) {
                Some(body) => (200, body),
                None => (404, "{\"error\":\"unknown_job\"}".to_owned()),
            }
        }
        ("POST", ["jobs", id, "cancel"]) => match id.parse::<u64>().map(|id| service.cancel(id)) {
            Ok(true) => (200, "{\"cancelled\":true}".to_owned()),
            _ => (404, "{\"error\":\"unknown_job\"}".to_owned()),
        },
        ("GET" | "POST", _) => (404, "{\"error\":\"no_such_route\"}".to_owned()),
        _ => (405, "{\"error\":\"method_not_allowed\"}".to_owned()),
    }
}

/// Serve the campaign API on `listener` until `stop` is raised. Each
/// connection is handled inline (the API is tiny and the real work happens
/// on the worker pool), with a non-blocking accept loop so the stop flag is
/// honored promptly.
///
/// # Errors
///
/// Propagates only the initial `set_nonblocking` failure; per-connection
/// errors are swallowed (a broken client must not kill the service).
pub fn serve(
    service: &Arc<Service>,
    listener: &TcpListener,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let _ = handle(service, &mut stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    Ok(())
}

/// One-shot HTTP client for the CLI and tests: send `method path` with an
/// optional body, return `(status, body)`.
///
/// # Errors
///
/// Any socket error, or a malformed status line.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut response = String::new();
    BufReader::new(stream).read_to_string(&mut response)?;
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok((status, payload))
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;

    use proptest::prelude::*;

    use super::*;

    fn parse(bytes: &[u8]) -> Result<Request, Refusal> {
        read_request(&mut Cursor::new(bytes))
    }

    /// The refusal's status, `Some(0)` for an unanswered one, `None` if
    /// the request parsed.
    fn status(bytes: &[u8]) -> Option<u16> {
        parse(bytes).err().map(|r| r.map_or(0, |(s, _)| s))
    }

    #[test]
    fn body_follows_content_length() {
        let req = parse(b"POST /jobs HTTP/1.1\r\nHost: x\r\ncontent-length: 2\r\n\r\n{}tail")
            .expect("parses");
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/jobs"));
        assert_eq!(req.body, "{}");
        let req = parse(b"GET /healthz HTTP/1.1\n\n").expect("bare newlines parse");
        assert_eq!((req.path.as_str(), req.body.as_str()), ("/healthz", ""));
    }

    #[test]
    fn oversized_and_unparseable_lengths_are_refused() {
        let big = "POST /jobs HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n";
        let (code, body) = parse(big.as_bytes()).unwrap_err().expect("answered");
        assert_eq!(code, 413);
        assert!(body.contains("\"error\":\"body_too_large\""), "{body}");
        let at_limit = format!("POST / HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n");
        assert_eq!(status(at_limit.as_bytes()), Some(0), "accepted, then EOF");
        for bad in ["abc", "-1", "", "1 2", "99999999999999999999999"] {
            let req = format!("POST /jobs HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n{{}}");
            assert_eq!(status(req.as_bytes()), Some(400), "{bad:?}");
        }
        let (_, body) = parse(b"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n")
            .unwrap_err()
            .expect("answered");
        assert!(body.contains("\"error\":\"bad_request\""), "{body}");
    }

    #[test]
    fn line_lengths_and_header_counts_are_bounded() {
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES));
        assert_eq!(status(long_target.as_bytes()), Some(400));
        let long_header = format!(
            "GET / HTTP/1.1\r\nX: {}\r\n\r\n",
            "b".repeat(MAX_LINE_BYTES)
        );
        assert_eq!(status(long_header.as_bytes()), Some(400));
        let many = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "X: y\r\n".repeat(MAX_HEADER_LINES + 1)
        );
        assert_eq!(status(many.as_bytes()), Some(400));
        let enough = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "X: y\r\n".repeat(MAX_HEADER_LINES)
        );
        assert!(parse(enough.as_bytes()).is_ok());
        assert_eq!(status(b""), Some(0));
        assert_eq!(status(b"GET / HTTP/1.1\r\nHost"), Some(0));
    }

    /// Fragments of HTTP request syntax, valid and broken, to splice into
    /// request-shaped inputs.
    const TOKENS: [&[u8]; 23] = [
        b"GET ",
        b"POST ",
        b"/jobs",
        b"/healthz",
        b" HTTP/1.1",
        b"\r\n",
        b"\n",
        b"\r",
        b"\r\n\r\n",
        b"Content-Length:",
        b"content-length: ",
        b"Host: x",
        b":",
        b" ",
        b"0",
        b"2",
        b"abc",
        b"-1",
        b"2000000",
        b"99999999999999999999",
        b"{\"trials\":4}",
        b"\xff\xfe",
        b"\0",
    ];

    /// Token splices with arbitrary bytes mixed in.
    fn request_bytes() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec((0..TOKENS.len() * 2, any::<u8>()), 0..48).prop_map(|picks| {
            picks
                .into_iter()
                .flat_map(|(i, byte)| TOKENS.get(i).map_or(vec![byte], |t| t.to_vec()))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// No input panics the parser; a parsed body never exceeds the
        /// input, and every refusal maps to no answer, 400 or 413.
        #[test]
        fn read_request_never_panics(bytes in request_bytes()) {
            match parse(&bytes) {
                Ok(req) => prop_assert!(req.body.len() <= 3 * bytes.len()),
                Err(e) => prop_assert!(matches!(e.map(|(s, _)| s), None | Some(400 | 413))),
            }
        }
    }
}
