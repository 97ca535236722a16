//! The load generator's HTTP/1.1 client: one keep-alive connection at a
//! time, reopened only when the server closes it (after `/batch`, or at the
//! server's per-connection request cap).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response, reduced to what the benchmark checks.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// The `X-Delta-Reuse` provenance header of `/analyze/delta` answers.
    pub delta_reuse: Option<String>,
}

/// A client owning at most one connection.
pub struct Conn {
    addr: SocketAddr,
    open: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, open: None }
    }

    /// One request/response exchange. Any transport error drops the
    /// connection, so the next call starts on a fresh one.
    pub fn send(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Reply> {
        let result = self.exchange(method, target, headers, body);
        if result.is_err() {
            self.open = None;
        }
        result
    }

    fn exchange(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Reply> {
        if self.open.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(120)))?;
            stream.set_write_timeout(Some(Duration::from_secs(120)))?;
            let reader = BufReader::new(stream.try_clone()?);
            self.open = Some((stream, reader));
        }
        let (stream, reader) = self.open.as_mut().expect("connection opened above");

        let mut out = Vec::with_capacity(body.len() + 128);
        write!(
            out,
            "{method} {target} HTTP/1.1\r\nHost: srtw\r\nContent-Length: {}\r\n",
            body.len()
        )?;
        for (name, value) in headers {
            write!(out, "{name}: {value}\r\n")?;
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(body);
        stream.write_all(&out)?;

        let mut line = String::new();
        reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut length = None;
        let mut chunked = false;
        let mut close = false;
        let mut delta_reuse = None;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the response head".into()));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => length = value.parse::<usize>().ok(),
                "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
                "connection" => close = value.eq_ignore_ascii_case("close"),
                "x-delta-reuse" => delta_reuse = Some(value.to_string()),
                _ => {}
            }
        }
        let raw = if chunked {
            // Streaming responses always close: read to EOF, then decode.
            let mut raw = Vec::new();
            reader.read_to_end(&mut raw)?;
            close = true;
            let (decoded, complete) = srtw_serve::http::decode_chunked(&raw);
            if !complete {
                return Err(bad("chunked response ended early".into()));
            }
            decoded
        } else {
            let n = length.ok_or_else(|| bad("response without Content-Length".into()))?;
            let mut raw = vec![0u8; n];
            reader.read_exact(&mut raw)?;
            raw
        };
        if close {
            self.open = None;
        }
        let body = String::from_utf8(raw).map_err(|_| bad("non-UTF-8 body".into()))?;
        Ok(Reply {
            status,
            body,
            delta_reuse,
        })
    }
}

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}
