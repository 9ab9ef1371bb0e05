//! Clients for the serve wire protocol, with the error partition the
//! retry logic needs: transport errors (connect refused, reset, timeout
//! — always retryable), typed server errors (retryable per
//! [`ErrorKind::retryable`]), and *malformed* responses (a protocol
//! violation; never retried, and required to be zero across the kill -9
//! chaos scenario).
//!
//! [`Client`] opens one connection per request, for probes, scrapes,
//! and one-off paths. [`PipelinedConn`] holds a connection and lets the
//! caller write a whole burst of request lines before reading the
//! replies back in order, which is what the load generator's one
//! driver is built on.

use crate::wire::{self, ErrorKind, Response, MAX_RESPONSE_LINE};
use oblivion_mesh::{Coord, Mesh};
use std::io::ErrorKind as IoKind;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd as _, RawFd};
use std::time::{Duration, Instant};

/// Why a request failed.
#[derive(Debug)]
pub enum ClientError {
    /// The bytes never made it there and back (connect/read/write
    /// failure or timeout). Always retryable.
    Transport(std::io::Error),
    /// The server answered with a typed wire error.
    Server(ErrorKind, String),
    /// The server answered with bytes that are not a protocol line —
    /// the one bucket that must stay empty.
    Malformed(String),
}

/// A resolved server address plus the per-attempt socket budget.
#[derive(Debug, Clone)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
}

impl Client {
    /// Resolves `addr` (e.g. `127.0.0.1:4701`) once, up front.
    pub fn new(addr: &str, timeout: Duration) -> std::io::Result<Client> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(IoKind::InvalidInput, "address resolved to nothing")
        })?;
        Ok(Client { addr, timeout })
    }

    /// A client for an already-resolved address.
    pub fn to(addr: SocketAddr, timeout: Duration) -> Client {
        Client { addr, timeout }
    }

    /// One request, one connection, one response line; returns the
    /// payload of the `OK` answer.
    pub fn round_trip(&self, request_line: &str) -> Result<String, ClientError> {
        match self.exchange(request_line)? {
            (Response::Ok(payload), _) => Ok(payload),
            (Response::Err(kind, detail), _) => Err(ClientError::Server(kind, detail)),
        }
    }

    /// One request, one connection, one response line — with the echoed
    /// request ID (if any) split out of the reply.
    fn exchange(&self, request_line: &str) -> Result<(Response, Option<String>), ClientError> {
        let deadline = Instant::now() + self.timeout;
        let mut conn =
            PipelinedConn::connect(self.addr, self.timeout).map_err(ClientError::Transport)?;
        conn.send_burst(request_line, deadline)
            .map_err(ClientError::Transport)?;
        let line = conn.recv_line(deadline)?;
        wire::parse_response_with_id(&line).map_err(ClientError::Malformed)
    }

    /// Requests a path for `(seed, src, dst)` and parses the hops,
    /// validating them against `mesh`. Any structural violation (bad
    /// hop token, wrong endpoints, non-adjacent step) counts as
    /// [`ClientError::Malformed`].
    pub fn request_path(
        &self,
        mesh: &Mesh,
        seed: u64,
        src: &Coord,
        dst: &Coord,
    ) -> Result<Vec<Coord>, ClientError> {
        self.request_path_with_id(mesh, seed, src, dst, None)
    }

    /// [`Client::request_path`] with an optional client-supplied trace
    /// ID. When `id` is given, the server must echo it byte-for-byte on
    /// the `OK` reply (and does on any post-read `ERR`); a missing or
    /// mangled echo counts as [`ClientError::Malformed`].
    pub fn request_path_with_id(
        &self,
        mesh: &Mesh,
        seed: u64,
        src: &Coord,
        dst: &Coord,
        id: Option<&str>,
    ) -> Result<Vec<Coord>, ClientError> {
        let mut line = String::new();
        wire::push_path_request(&mut line, seed, src, dst, mesh.dim(), id);
        let (response, echoed) = self.exchange(&line)?;
        if let Some(want) = id {
            // Byte-for-byte echo check. Pre-read rejections (admission
            // shed, slow-loris deadline) legitimately carry no ID — the
            // server never saw the line — so only OK replies hard-require
            // it; ERR replies must merely not *contradict* the request.
            let matches = echoed.as_deref() == Some(want);
            match (&response, &echoed) {
                (Response::Ok(_), _) if !matches => {
                    return Err(ClientError::Malformed(format!(
                        "request id not echoed: sent `{want}`, got {echoed:?}"
                    )))
                }
                (Response::Err(..), Some(got)) if got != want => {
                    return Err(ClientError::Malformed(format!(
                        "request id mangled on error reply: sent `{want}`, got `{got}`"
                    )))
                }
                _ => {}
            }
        }
        let payload = match response {
            Response::Ok(payload) => payload,
            Response::Err(kind, detail) => return Err(ClientError::Server(kind, detail)),
        };
        validate_path_payload(mesh, &payload, src, dst).map_err(ClientError::Malformed)
    }

    /// Sends a probe (`HEALTH` or `READY`) and returns the payload of an
    /// `OK` answer.
    pub fn probe(&self, what: &str) -> Result<String, ClientError> {
        self.round_trip(&format!("{what}\n"))
    }

    /// Sends `METRICS` and reads the whole multi-line exposition to
    /// EOF. Returns the raw text; parse it with
    /// [`crate::metrics::parse_exposition`], whose `# EOF` terminator
    /// check catches truncated scrapes.
    pub fn scrape(&self) -> Result<String, ClientError> {
        use std::io::Read as _;
        let deadline = Instant::now() + self.timeout;
        let mut stream =
            TcpStream::connect_timeout(&self.addr, self.timeout).map_err(ClientError::Transport)?;
        let _ = stream.set_nodelay(true);
        wire::write_line(&stream, "METRICS\n", deadline).map_err(ClientError::Transport)?;
        // Half-close: we have nothing more to say, and the EOF tells a
        // keep-alive server to close its side once the reply is out.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let _ = stream.set_read_timeout(Some(self.timeout.max(Duration::from_millis(1))));
        // The exposition is small (one line per non-empty bucket); a
        // hard cap keeps a misbehaving peer from ballooning memory.
        let mut body = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            if Instant::now() >= deadline {
                return Err(ClientError::Transport(std::io::Error::new(
                    IoKind::TimedOut,
                    "scrape deadline expired",
                )));
            }
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    body.extend_from_slice(&chunk[..n]);
                    if body.len() > 1 << 20 {
                        return Err(ClientError::Malformed(
                            "metrics exposition exceeds 1 MiB".into(),
                        ));
                    }
                    // The exposition is protocol-framed by its `# EOF`
                    // terminator; stop there instead of waiting for the
                    // keep-alive connection to close.
                    if body.ends_with(b"# EOF\n") {
                        break;
                    }
                }
                Err(e)
                    if e.kind() == IoKind::WouldBlock
                        || e.kind() == IoKind::TimedOut
                        || e.kind() == IoKind::Interrupted =>
                {
                    continue;
                }
                Err(e) => return Err(ClientError::Transport(e)),
            }
        }
        String::from_utf8(body)
            .map_err(|_| ClientError::Malformed("metrics exposition is not UTF-8".into()))
    }
}

/// Structural validation of a served path: parseable hops, endpoints
/// matching the request, every step mesh-adjacent.
pub(crate) fn validate_path_payload(
    mesh: &Mesh,
    payload: &str,
    src: &Coord,
    dst: &Coord,
) -> Result<Vec<Coord>, String> {
    let hops: Result<Vec<Coord>, String> = payload
        .split_ascii_whitespace()
        .map(|tok| wire::parse_coord(tok, mesh))
        .collect();
    let hops = hops?;
    if hops.first() != Some(src) || hops.last() != Some(dst) {
        return Err(format!(
            "path endpoints do not match the request: `{payload}`"
        ));
    }
    for pair in hops.windows(2) {
        if !mesh.adjacent(&pair[0], &pair[1]) {
            return Err(format!(
                "non-adjacent hop {} -> {}",
                wire::format_coord(&pair[0], mesh.dim()),
                wire::format_coord(&pair[1], mesh.dim())
            ));
        }
    }
    Ok(hops)
}

/// A persistent, pipelined connection: the caller may write many
/// request lines (ideally as one burst) before reading any reply, and
/// the server answers strictly in request order. Reply framing is
/// buffered here, so a single read may surface several reply lines.
pub struct PipelinedConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl PipelinedConn {
    /// The socket's descriptor, for waiting on readiness with `poll`.
    pub(crate) fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Connects with `timeout` as the connect budget.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<PipelinedConn> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        let _ = stream.set_nodelay(true);
        Ok(PipelinedConn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Writes `burst` (one or more `\n`-terminated request lines) with a
    /// single syscall, honoring `deadline` as the write budget.
    pub fn send_burst(&mut self, burst: &str, deadline: Instant) -> std::io::Result<()> {
        wire::write_line(&self.stream, burst, deadline)
    }

    /// Reads the next reply line (CR/LF stripped), honoring `deadline`.
    /// Replies arrive in request order; the caller matches them to its
    /// send window (and should verify the echoed IDs).
    pub fn recv_line(&mut self, deadline: Instant) -> Result<String, ClientError> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return String::from_utf8(line)
                    .map_err(|_| ClientError::Malformed("reply line is not UTF-8".into()));
            }
            if self.buf.len() > MAX_RESPONSE_LINE {
                return Err(ClientError::Malformed("response line too long".into()));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ClientError::Transport(std::io::Error::new(
                    IoKind::TimedOut,
                    "reply deadline expired",
                )));
            }
            self.stream
                .set_read_timeout(Some(remaining))
                .map_err(ClientError::Transport)?;
            let mut chunk = [0u8; 4096];
            use std::io::Read as _;
            match (&mut (&self.stream)).read(&mut chunk) {
                Ok(0) => {
                    return Err(ClientError::Transport(std::io::Error::new(
                        IoKind::UnexpectedEof,
                        "connection closed with replies outstanding",
                    )))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == IoKind::Interrupted => continue,
                Err(e) if e.kind() == IoKind::WouldBlock || e.kind() == IoKind::TimedOut => {
                    return Err(ClientError::Transport(std::io::Error::new(
                        IoKind::TimedOut,
                        "reply deadline expired",
                    )))
                }
                Err(e) => return Err(ClientError::Transport(e)),
            }
        }
    }
}
