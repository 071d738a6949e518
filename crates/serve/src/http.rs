//! Minimal HTTP/1.1 plumbing on `std::net` — just enough for the
//! experiment service's JSON API plus a chunked streamer for live metric
//! tails. Hand-rolled on purpose: the workspace is offline and the API
//! surface is five routes, so a dependency would cost more than it buys.
//!
//! Supported subset:
//!   * request line + headers + `Content-Length` bodies (no pipelining,
//!     no keep-alive — every response closes the connection),
//!   * fixed-length responses with `Content-Length`,
//!   * chunked responses via [`ChunkedWriter`] for `GET .../metrics`.
//!
//! Bodies are capped at [`MAX_BODY`] bytes; larger submissions get 413
//! before the server reads them. The request line and headers together are
//! capped at [`MAX_HEAD`] bytes; a longer head gets 431 before the server
//! reads on. A connection that sends nothing for [`CONN_READ_TIMEOUT`] is
//! closed.

use std::io::{BufRead, BufReader, Read, Take, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest request body the server will buffer (1 MiB). An
/// [`ExperimentSpec`](spec::ExperimentSpec) is a few hundred bytes; a
/// search over hundreds of arms is a few KiB.
pub const MAX_BODY: usize = 1 << 20;

/// Largest request head — request line plus headers — the server will
/// buffer (16 KiB). The daemon's clients send a handful of short headers.
pub const MAX_HEAD: usize = 16 << 10;

/// How long a connection may leave the server waiting on a read before it
/// is closed. A live metrics tail only writes, so it is unaffected.
pub const CONN_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// A parsed request: method, path, and the (possibly empty) body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercased method, e.g. `"GET"`.
    pub method: String,
    /// Request target without query string, e.g. `"/runs/r0001"`.
    pub path: String,
    /// Raw body bytes (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// Why a request could not be parsed, mapped to a status code.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line or headers → 400.
    Bad(String),
    /// Body exceeds [`MAX_BODY`] → 413.
    TooLarge,
    /// Request line and headers exceed [`MAX_HEAD`] → 431.
    HeadTooLarge,
    /// Socket error mid-read (a read timeout included); no response is
    /// possible.
    Io(std::io::Error),
}

/// Read one line of the request head, counted against [`MAX_HEAD`]. A line
/// that is not UTF-8 is a malformed request (400), not a dead socket.
fn read_head_line<R: BufRead>(head: &mut Take<R>) -> Result<String, HttpError> {
    let mut line = Vec::new();
    head.read_until(b'\n', &mut line).map_err(HttpError::Io)?;
    if head.limit() == 0 && !line.ends_with(b"\n") {
        return Err(HttpError::HeadTooLarge);
    }
    String::from_utf8(line).map_err(|_| HttpError::Bad("request head is not UTF-8".into()))
}

/// Read and parse one request from a byte stream (the daemon passes its
/// `TcpStream`, read timeout set).
pub fn read_request<R: Read>(stream: R) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let mut head = (&mut reader).take(MAX_HEAD as u64);
    let line = read_head_line(&mut head)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Bad("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Bad("request line missing target".into()))?;
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    loop {
        let header = read_head_line(&mut head)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(HttpError::Bad(format!("malformed header: {header:?}")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Bad(format!("bad content-length: {value:?}")))?;
        }
    }
    if content_length > MAX_BODY {
        return Err(HttpError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(HttpError::Io)?;
    Ok(Request { method, path, body })
}

/// Reason phrase for the handful of status codes the daemon emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    }
}

/// Write a fixed-length JSON response and flush. The connection is
/// closed by the caller dropping the stream.
pub fn respond_json(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        reason(status),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Incremental `Transfer-Encoding: chunked` response writer for the live
/// metrics tail. Call [`ChunkedWriter::start`], then [`chunk`] per piece,
/// then [`finish`].
///
/// [`chunk`]: ChunkedWriter::chunk
/// [`finish`]: ChunkedWriter::finish
pub struct ChunkedWriter<'s> {
    stream: &'s mut TcpStream,
}

impl<'s> ChunkedWriter<'s> {
    /// Send the response head and return the writer.
    pub fn start(stream: &'s mut TcpStream, status: u16) -> std::io::Result<Self> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status,
            reason(status)
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Send one chunk (empty input is skipped — an empty chunk would
    /// terminate the stream).
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Send the terminating zero-length chunk.
    pub fn finish(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// Blocking single-shot HTTP client used by the daemon's tests and the
/// CI driver: sends one request, reads the whole response (fixed-length
/// or chunked), returns `(status, body)`.
pub fn http_request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: sammy\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status line: {status_line:?}"),
            )
        })?;

    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            } else if name.eq_ignore_ascii_case("transfer-encoding")
                && value.trim().eq_ignore_ascii_case("chunked")
            {
                chunked = true;
            }
        }
    }

    let mut body = Vec::new();
    if chunked {
        loop {
            let mut size_line = String::new();
            reader.read_line(&mut size_line)?;
            let size = usize::from_str_radix(size_line.trim(), 16).map_err(|_| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad chunk size: {size_line:?}"),
                )
            })?;
            if size == 0 {
                let mut crlf = String::new();
                let _ = reader.read_line(&mut crlf);
                break;
            }
            let mut chunk = vec![0u8; size + 2]; // data + CRLF
            reader.read_exact(&mut chunk)?;
            chunk.truncate(size);
            body.extend_from_slice(&chunk);
        }
    } else if let Some(n) = content_length {
        body.resize(n, 0);
        reader.read_exact(&mut body)?;
    } else {
        reader.read_to_end(&mut body)?;
    }
    String::from_utf8(body)
        .map(|s| (status, s))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}
