//! A minimal HTTP/1.1 client for `act serve`: one request per connection
//! (the server answers `Connection: close`), timed at connect, first
//! response byte and end of stream.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Reply {
    pub status: u16,
    pub body: String,
    /// TCP connect time.
    pub connect: Duration,
    /// From the request being written to the first response byte.
    pub ttfb: Duration,
}

/// Sends one request and reads the reply to end of stream.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> std::io::Result<Reply> {
    let start = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    let connect = start.elapsed();
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    stream.write_all(&wire)?;
    let written = Instant::now();
    let mut raw = Vec::with_capacity(256);
    let mut chunk = [0u8; 16 * 1024];
    let n = stream.read(&mut chunk)?;
    let ttfb = written.elapsed();
    raw.extend_from_slice(&chunk[..n]);
    if n > 0 {
        stream.read_to_end(&mut raw)?;
    }
    let text = String::from_utf8(raw).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "reply is not UTF-8")
    })?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header end"))?;
    let status =
        head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
        })?;
    Ok(Reply { status, body: body.to_owned(), connect, ttfb })
}
