//! A deliberately small HTTP/1.1 layer over [`std::net`].
//!
//! One request per connection (`Connection: close`), bodies sized by
//! `Content-Length`, responses either sized or `Transfer-Encoding:
//! chunked` for the live epoch stream. Enough protocol for `curl`, the
//! load-test driver, and the CI smoke job — and nothing that would pull a
//! dependency into the workspace.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest accepted request body; experiment specs are a few hundred
/// bytes, so anything bigger is a client error, not a workload.
const MAX_BODY: usize = 64 * 1024;

/// Longest accepted request or header line, newline included.
const MAX_LINE: u64 = 8 * 1024;

/// Most header lines accepted in one request.
const MAX_HEADERS: usize = 100;

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// [`BufRead::read_line`] that reads at most [`MAX_LINE`] bytes, so an
/// endless line costs the server a bounded buffer.
fn read_line_capped(reader: &mut impl BufRead, line: &mut String) -> io::Result<usize> {
    let n = reader.take(MAX_LINE).read_line(line)?;
    if n as u64 == MAX_LINE && !line.ends_with('\n') {
        return Err(invalid("request line or header too long"));
    }
    Ok(n)
}

/// A [`TcpStream`] reader that fails with [`io::ErrorKind::TimedOut`] once
/// `deadline` has passed. Each read waits at most until the deadline, so
/// a client that keeps sending a byte at a time still runs out of time.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request not received in time",
            ));
        }
        let mut stream = self.stream;
        stream.set_read_timeout(Some(left))?;
        stream.read(buf)
    }
}

/// A parsed request: method, decoded path, query pairs, body.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path without the query string (`/run`).
    pub path: String,
    /// Query pairs in order (`?stream=1` → `[("stream", "1")]`).
    pub query: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: String,
}

impl Request {
    /// First value of query parameter `name`.
    pub fn query_value(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one request from `stream`, which must arrive whole within
/// `timeout`. Returns `None` on a clean EOF before any bytes (client
/// connected and left), an error description otherwise.
pub fn read_request(stream: &TcpStream, timeout: Duration) -> io::Result<Option<Request>> {
    let mut reader = BufReader::new(DeadlineReader {
        stream,
        deadline: Instant::now() + timeout,
    });
    let mut line = String::new();
    if read_line_capped(&mut reader, &mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(invalid("malformed request line"));
    };
    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.to_string(), ""),
    };
    let query = query_text
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();
    let mut content_length = 0usize;
    for count in 0.. {
        let mut header = String::new();
        if read_line_capped(&mut reader, &mut header)? == 0 {
            break;
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if count == MAX_HEADERS {
            return Err(invalid("too many headers"));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid("bad content-length"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(invalid("request body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| invalid("body is not UTF-8"))?;
    Ok(Some(Request {
        method: method.to_string(),
        path,
        query,
        body,
    }))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes a sized response. `extra_headers` ride along verbatim
/// (`("X-Droplet-Source", "store")`).
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A chunked-transfer response in progress: one chunk per JSONL line.
pub struct ChunkedResponse<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedResponse<'a> {
    /// Writes the response head and returns the chunk writer.
    pub fn start(
        stream: &'a mut TcpStream,
        content_type: &str,
        extra_headers: &[(&str, &str)],
    ) -> io::Result<Self> {
        let mut head = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n"
        );
        for (name, value) in extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        Ok(ChunkedResponse { stream })
    }

    /// Sends `line` (a newline is appended) as one chunk, flushed so the
    /// client sees each epoch as the engine produces it.
    pub fn write_line(&mut self, line: &str) -> io::Result<()> {
        let payload = format!("{line}\n");
        self.stream
            .write_all(format!("{:x}\r\n", payload.len()).as_bytes())?;
        self.stream.write_all(payload.as_bytes())?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminates the chunk stream.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// A decoded client-side response: status, headers, body.
pub type ClientResponse = (u16, Vec<(String, String)>, String);

/// Client-side helper (tests, load driver, smoke job): sends `method
/// path` with `body` to `addr`, returns `(status, headers, body)` with
/// any chunked transfer decoded.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> io::Result<ClientResponse> {
    let mut stream = TcpStream::connect(addr)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut headers = Vec::new();
    let mut chunked = false;
    let mut content_length = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let (name, value) = (name.trim().to_string(), value.trim().to_string());
            if name.eq_ignore_ascii_case("transfer-encoding") && value.contains("chunked") {
                chunked = true;
            }
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse::<usize>().ok();
            }
            headers.push((name, value));
        }
    }
    let mut body = String::new();
    if chunked {
        loop {
            let mut size_line = String::new();
            if reader.read_line(&mut size_line)? == 0 {
                break;
            }
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
            if size == 0 {
                break;
            }
            let mut chunk = vec![0u8; size + 2]; // payload + CRLF
            reader.read_exact(&mut chunk)?;
            chunk.truncate(size);
            body.push_str(&String::from_utf8_lossy(&chunk));
        }
    } else if let Some(n) = content_length {
        let mut buf = vec![0u8; n];
        reader.read_exact(&mut buf)?;
        body.push_str(&String::from_utf8_lossy(&buf));
    } else {
        reader.read_to_string(&mut body)?;
    }
    Ok((status, headers, body))
}

/// Header lookup by case-insensitive name.
pub fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}
