//! A minimal keep-alive HTTP/1.1 client for driving `dox-serve`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How a request ended, from the client's side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A complete response: status and body.
    Status(u16, String),
    /// No complete response within the client timeout.
    Timeout,
    /// The connection failed or the response was malformed.
    Broken,
}

/// One persistent connection.
pub struct Conn {
    addr: String,
    reader: Option<BufReader<TcpStream>>,
    timeout: Duration,
}

impl Conn {
    /// A connection to `addr` (opened lazily, reopened after errors).
    pub fn new(addr: &str, timeout: Duration) -> Self {
        Self {
            addr: addr.to_string(),
            reader: None,
            timeout,
        }
    }

    fn open(&mut self) -> std::io::Result<&mut BufReader<TcpStream>> {
        if self.reader.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            self.reader = Some(BufReader::with_capacity(64 * 1024, stream));
        }
        Ok(self.reader.as_mut().expect("opened above"))
    }

    /// Send one request and read its response. Any error closes the
    /// connection so the next request starts on a fresh one.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> Reply {
        let result = self.exchange(method, path, body);
        match result {
            Ok(reply) => reply,
            Err(e) => {
                self.reader = None;
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    Reply::Timeout
                } else {
                    Reply::Broken
                }
            }
        }
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
        let reader = self.open()?;
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body.as_bytes());
        reader.get_mut().write_all(&request)?;

        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let Some(status) = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
        else {
            return Ok(Reply::Broken);
        };
        let mut length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().unwrap_or(0);
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let mut payload = vec![0u8; length];
        reader.read_exact(&mut payload)?;
        if close {
            self.reader = None;
        }
        Ok(Reply::Status(
            status,
            String::from_utf8_lossy(&payload).into_owned(),
        ))
    }
}
