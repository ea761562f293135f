//! A minimal HTTP/1.1 layer for `colperd`.
//!
//! Hand-rolled on purpose (the workspace takes no network deps): enough
//! of HTTP/1.1 to parse a request line, headers, and a
//! `Content-Length` body, and to write fixed-length or streamed
//! responses. Streaming responses avoid chunked encoding by declaring
//! `Connection: close` and flushing line-by-line — the JSONL trace
//! stream ends when the socket does.

use std::io::{self, BufRead, Write};
use std::net::TcpStream;

/// Largest request body `colperd` will buffer (inline clouds included).
pub const MAX_BODY: usize = 8 << 20;

/// Largest request head (request line + headers) accepted.
const MAX_HEAD: usize = 16 << 10;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// The request method, uppercased as sent (`GET`, `POST`, …).
    pub method: String,
    /// The request target (path + optional query), as sent.
    pub path: String,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// The socket failed mid-read.
    Io(io::Error),
    /// The bytes were not acceptable HTTP (reason included).
    Malformed(&'static str),
}

impl From<io::Error> for HttpError {
    fn from(err: io::Error) -> Self {
        HttpError::Io(err)
    }
}

fn read_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<String, HttpError> {
    let mut line = String::new();
    loop {
        let mut byte = [0u8; 1];
        reader.read_exact(&mut byte)?;
        if *budget == 0 {
            return Err(HttpError::Malformed("request head too large"));
        }
        *budget -= 1;
        match byte[0] {
            b'\n' => return Ok(line),
            b'\r' => {}
            b if b.is_ascii() => line.push(b as char),
            _ => return Err(HttpError::Malformed("non-ASCII byte in request head")),
        }
    }
}

/// Reads one request from `reader`: a buffered socket in `colperd`, any
/// byte source in tests.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, HttpError> {
    let mut budget = MAX_HEAD;
    let request_line = read_line(reader, &mut budget)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or(HttpError::Malformed("empty request line"))?.to_string();
    let path = parts.next().ok_or(HttpError::Malformed("request line missing target"))?.to_string();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(HttpError::Malformed("not an HTTP/1.x request")),
    }

    let mut content_length = 0usize;
    loop {
        let line = read_line(reader, &mut budget)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed("header line without a colon"));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed("unparsable Content-Length"))?;
            if content_length > MAX_BODY {
                return Err(HttpError::Malformed("body exceeds the service limit"));
            }
        }
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, body })
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        _ => "Internal Server Error",
    }
}

/// Writes a complete fixed-length JSON response and flushes it.
pub fn respond_json(stream: &mut TcpStream, code: u16, body: &str) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        code,
        status_text(code),
        body.len(),
        body,
    )?;
    stream.flush()
}

/// Writes the head of a streamed JSONL response; the body is whatever
/// the caller writes until it closes the socket.
pub fn begin_jsonl_stream(stream: &mut TcpStream) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/jsonl\r\nConnection: close\r\n\r\n",
    )?;
    stream.flush()
}

/// Renders a `{"error": ...}` body for an error response.
pub fn error_body(message: &str) -> String {
    format!("{{\"error\":\"{}\"}}", crate::json::escape(message))
}
