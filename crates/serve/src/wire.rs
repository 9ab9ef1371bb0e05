//! The `oblivion-serve` line protocol: requests, responses, and the
//! typed wire error taxonomy.
//!
//! Connections are keep-alive and requests are pipelined: a client may
//! write any number of LF-terminated request lines back to back without
//! waiting, and the server answers every line **in order**, one reply
//! line per request line:
//!
//! ```text
//! client: [MESH <id> ]PATH <seed> <x1,y1,...> <x2,y2,...> [id=<token>]\n
//!         PATH <seed> <src> <dst> [id=<token>]\n          (pipelined)
//!         ...                        (or HEALTH / READY / METRICS)
//! server: OK [id=<token>] <hop> <hop> ... <hop>\n
//!       | ERR BAD_REQUEST [id=<token>] <detail>\n
//!       | ERR OVERLOADED\n
//!       | ERR DEADLINE_EXCEEDED [id=<token>]\n
//!       | ERR SHUTTING_DOWN [id=<token>]\n
//!       | ERR UNKNOWN_MESH [id=<token>] <detail>\n
//!       | ERR MESH_RETIRED [id=<token>] <detail>\n
//! ```
//!
//! The optional `MESH <id>` prefix ([`split_mesh_prefix`]) selects a
//! named mesh from the server's registry; a line without the prefix is
//! routed to the default mesh, so single-tenant traffic stays
//! byte-identical to the pre-registry wire. Replies never echo the mesh
//! id — in-order pipelining already correlates them, and omitting it
//! keeps single-tenant replies unchanged.
//!
//! A malformed line mid-pipeline gets its `ERR BAD_REQUEST` **in
//! sequence** and does not desync or close the stream — the LF framing
//! ([`FrameBuf`]) survives garbage between terminators. The connection
//! ends when the client closes it, when a line misses its deadline, or
//! when the server drains.
//!
//! The optional `id=<token>` is a client-supplied trace ID
//! ([`MAX_REQUEST_ID`] chars of `[A-Za-z0-9._:-]`): whenever the server
//! got far enough to read the request line, the reply echoes the token
//! byte-for-byte, so a client multiplexing many requests (or a human
//! grepping two logs) can correlate both sides of the wire. Replies
//! written *before* the line was read — admission shedding, a
//! slow-loris deadline — carry no ID, honestly: the server never saw
//! one.
//!
//! `METRICS` answers a multi-line Prometheus-style text exposition
//! terminated by `# EOF` (see [`crate::metrics`]) instead of a single
//! line; it is also served on the dedicated health port so it stays
//! scrapeable at full overload.
//!
//! The path answer is deterministic: the request carries the RNG seed,
//! so `OK` lines are a pure function of `(mesh, router, seed, src, dst)`
//! — byte-identical to an in-process [`select_path`] call with a
//! freshly seeded `StdRng` (the differential test pins this). The trace
//! ID never feeds the RNG.
//!
//! Robustness rules enforced by both ends:
//! * request lines longer than [`MAX_REQUEST_LINE`] bytes are a
//!   `BAD_REQUEST` (a slow-loris can never grow server memory);
//! * every read is re-armed with the *remaining* deadline, so trickling
//!   one byte per timeout window cannot stretch a request past its
//!   deadline;
//! * a complete line that parses as none of the forms above is
//!   *malformed* — the client counts it separately from transport
//!   errors, and the chaos gate requires zero of them across kill -9.
//!
//! [`select_path`]: oblivion_core::ObliviousRouter::select_path

use oblivion_mesh::{Coord, Mesh, Path, MAX_DIM};
use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Longest request line the server will buffer, terminator included.
pub const MAX_REQUEST_LINE: usize = 256;

/// Longest client-supplied request ID (`id=<token>`) the server accepts.
pub const MAX_REQUEST_ID: usize = 64;

/// Longest response line the client will buffer — generous enough for a
/// maximal-stretch path on the largest CLI-admissible mesh.
pub const MAX_RESPONSE_LINE: usize = 1 << 22;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `PATH <seed> <src> <dst> [id=<token>]`: select a path with the
    /// given seed; an ID, when present, is echoed on the reply.
    Path {
        /// RNG seed the path must be drawn with.
        seed: u64,
        /// Source coordinate.
        src: Coord,
        /// Destination coordinate.
        dst: Coord,
        /// Client-supplied trace ID, echoed byte-for-byte.
        id: Option<String>,
    },
    /// `HEALTH`: liveness probe; always answered while the process runs.
    Health,
    /// `READY`: readiness probe; `OK ready` only while accepting work.
    Ready,
    /// `METRICS`: scrape the live telemetry exposition.
    Metrics,
}

/// The wire error taxonomy. Every non-`OK` response carries exactly one
/// of these tags, so clients can decide retryability without guessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// The request was malformed; retrying the same bytes cannot help.
    BadRequest,
    /// The admission queue was full; retry after backoff.
    Overloaded,
    /// The request missed its deadline (queued or read too slowly).
    DeadlineExceeded,
    /// The server is draining; retry against a restarted instance.
    ShuttingDown,
    /// The `MESH <id>` prefix named a mesh the registry has never held;
    /// retryable because an operator may `ADMIN ADD` it at any moment.
    UnknownMesh,
    /// The named mesh was retired; retryable because a retired id can be
    /// re-added via `ADMIN ADD` (the chaos hot-retire drill relies on
    /// retries converging once the mesh is back).
    MeshRetired,
}

impl ErrorKind {
    /// The wire tag, e.g. `OVERLOADED`.
    pub fn tag(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "BAD_REQUEST",
            ErrorKind::Overloaded => "OVERLOADED",
            ErrorKind::DeadlineExceeded => "DEADLINE_EXCEEDED",
            ErrorKind::ShuttingDown => "SHUTTING_DOWN",
            ErrorKind::UnknownMesh => "UNKNOWN_MESH",
            ErrorKind::MeshRetired => "MESH_RETIRED",
        }
    }

    /// Whether a client may retry the identical request.
    pub fn retryable(self) -> bool {
        !matches!(self, ErrorKind::BadRequest)
    }

    fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "BAD_REQUEST" => ErrorKind::BadRequest,
            "OVERLOADED" => ErrorKind::Overloaded,
            "DEADLINE_EXCEEDED" => ErrorKind::DeadlineExceeded,
            "SHUTTING_DOWN" => ErrorKind::ShuttingDown,
            "UNKNOWN_MESH" => ErrorKind::UnknownMesh,
            "MESH_RETIRED" => ErrorKind::MeshRetired,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A parsed response line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `OK ...` — the payload after the tag (hops for `PATH`, status
    /// text for probes).
    Ok(String),
    /// `ERR <KIND> [detail]`.
    Err(ErrorKind, String),
}

/// Bytes of the widest coordinate in wire form, plus one separator.
const COORD_BYTES: usize = 1 + MAX_DIM * 11;

/// Writes the decimal digits of `x` by hand into `buf` at `at` and
/// returns the end: no `fmt` machinery, no allocation.
#[inline]
fn put_digits(buf: &mut [u8], at: usize, x: u64) -> usize {
    let end = at + x.checked_ilog10().unwrap_or(0) as usize + 1;
    let mut rest = x;
    for digit in buf[at..end].iter_mut().rev() {
        *digit = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    end
}

/// Writes the first `dim` components of `c`, comma-separated, into `buf`
/// at `at` and returns the end.
#[inline]
fn put_coord(buf: &mut [u8; COORD_BYTES], at: usize, c: &Coord, dim: usize) -> usize {
    let mut end = at;
    for (i, &x) in c.as_slice()[..dim].iter().enumerate() {
        if i > 0 {
            buf[end] = b',';
            end += 1;
        }
        end = put_digits(buf, end, u64::from(x));
    }
    end
}

fn push_ascii(out: &mut String, bytes: &[u8]) {
    let ascii = std::str::from_utf8(bytes);
    out.push_str(ascii.expect("digits and commas")); // ci-allow-unwrap: only ASCII is written
}

/// Appends a coordinate in wire form: `3,4` (no parentheses).
fn push_coord(out: &mut String, c: &Coord, dim: usize) {
    let mut buf = [0u8; COORD_BYTES];
    let end = put_coord(&mut buf, 0, c, dim);
    push_ascii(out, &buf[..end]);
}

/// Appends a `PATH <seed> <src> <dst> [id=<id>]` request line, LF
/// included.
pub fn push_path_request(
    out: &mut String,
    seed: u64,
    src: &Coord,
    dst: &Coord,
    dim: usize,
    id: Option<&str>,
) {
    out.push_str("PATH ");
    let mut buf = [0u8; 20];
    let end = put_digits(&mut buf, 0, seed);
    push_ascii(out, &buf[..end]);
    out.push(' ');
    push_coord(out, src, dim);
    out.push(' ');
    push_coord(out, dst, dim);
    if let Some(id) = id {
        out.push_str(" id=");
        out.push_str(id);
    }
    out.push('\n');
}

/// Formats a coordinate for the wire: `3,4` (no parentheses).
pub fn format_coord(c: &Coord, dim: usize) -> String {
    let mut s = String::new();
    push_coord(&mut s, c, dim);
    s
}

/// Parses a wire coordinate against a mesh (dimension and bounds check).
pub fn parse_coord(token: &str, mesh: &Mesh) -> Result<Coord, String> {
    let mut xs = [0u32; MAX_DIM];
    let mut n = 0;
    for part in token.split(',') {
        let x = part
            .parse::<u32>()
            .map_err(|e| format!("bad coordinate `{token}`: {e}"))?;
        if let Some(slot) = xs.get_mut(n) {
            *slot = x;
        }
        n += 1;
    }
    if n != mesh.dim() {
        return Err(format!(
            "coordinate `{token}` has {n} components, mesh has {} dimensions",
            mesh.dim()
        ));
    }
    let c = Coord::new(&xs[..n]);
    if !mesh.contains(&c) {
        return Err(format!("coordinate `{token}` outside the mesh"));
    }
    Ok(c)
}

/// Checks a wire trace ID: 1..=[`MAX_REQUEST_ID`] chars of
/// `[A-Za-z0-9._:-]`. The charset is whitespace-free by construction,
/// so an ID can never break line tokenization on either side.
pub fn valid_request_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_REQUEST_ID
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b':' | b'-'))
}

/// Longest mesh id a `MESH <id>` prefix (or `--mesh NxN:id`) may carry.
pub const MAX_MESH_ID: usize = 64;

/// Checks a mesh id: 1..=[`MAX_MESH_ID`] chars of `[A-Za-z0-9._-]`.
/// Same whitespace-free charset as request IDs, minus `:` which the CLI
/// uses as the `--mesh NxN:id` separator.
pub fn valid_mesh_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_MESH_ID
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// Splits an optional leading `MESH <id> ` prefix off a request line,
/// returning `(mesh id, rest)`. A line that starts with the `MESH` verb
/// but carries a malformed id or no rest is an error (typed
/// `BAD_REQUEST` at the server); any other line passes through
/// untouched, so prefix-free traffic is byte-identical to the
/// single-mesh wire.
pub fn split_mesh_prefix(line: &str) -> Result<(Option<&str>, &str), String> {
    let Some(rest) = line.strip_prefix("MESH ") else {
        return Ok((None, line));
    };
    let rest = rest.trim_start_matches(' ');
    let (id, rest) = rest
        .split_once(' ')
        .ok_or("MESH <id> must prefix a request line")?;
    if !valid_mesh_id(id) {
        return Err(format!(
            "bad mesh id (1..={MAX_MESH_ID} chars of [A-Za-z0-9._-])"
        ));
    }
    Ok((Some(id), rest.trim_start_matches(' ')))
}

/// Parses a request line (without the trailing newline).
pub fn parse_request(line: &str, mesh: &Mesh) -> Result<Request, String> {
    let mut it = line.split_ascii_whitespace();
    match it.next() {
        Some("HEALTH") => Ok(Request::Health),
        Some("READY") => Ok(Request::Ready),
        Some("METRICS") => Ok(Request::Metrics),
        Some("PATH") => {
            let seed = it
                .next()
                .ok_or("PATH needs `<seed> <src> <dst>`")?
                .parse::<u64>()
                .map_err(|e| format!("bad seed: {e}"))?;
            let src = parse_coord(it.next().ok_or("PATH missing <src>")?, mesh)?;
            let dst = parse_coord(it.next().ok_or("PATH missing <dst>")?, mesh)?;
            let id = match it.next() {
                None => None,
                Some(tok) => {
                    let id = tok
                        .strip_prefix("id=")
                        .ok_or_else(|| format!("unexpected token `{tok}` (want id=<token>)"))?;
                    if !valid_request_id(id) {
                        return Err(format!(
                            "bad request id (1..={MAX_REQUEST_ID} chars of [A-Za-z0-9._:-])"
                        ));
                    }
                    Some(id.to_string())
                }
            };
            if it.next().is_some() {
                return Err("trailing tokens after PATH <seed> <src> <dst> [id=...]".into());
            }
            Ok(Request::Path { seed, src, dst, id })
        }
        Some(other) => Err(format!(
            "unknown request `{other}` (PATH|HEALTH|READY|METRICS)"
        )),
        None => Err("empty request".into()),
    }
}

/// Formats the `OK` line for a selected path: every hop, space-joined.
pub fn format_path_line(path: &Path, dim: usize) -> String {
    format_path_line_with_id(path, dim, None)
}

/// [`format_path_line`] with an optional echoed trace ID (`OK id=<id>
/// <hops...>`). With `None` the bytes are identical to the pre-ID wire
/// format. One allocation: the line is measured before it is written.
pub fn format_path_line_with_id(path: &Path, dim: usize, id: Option<&str>) -> String {
    let digits = |x: u32| x.checked_ilog10().unwrap_or(0) as usize + 1;
    let hops: usize = path
        .nodes()
        .iter()
        .flat_map(|hop| &hop.as_slice()[..dim])
        .map(|&x| digits(x) + 1)
        .sum();
    let mut s = String::with_capacity(3 + id.map_or(0, |id| 4 + id.len()) + hops);
    push_path_line(&mut s, path, dim, id);
    s
}

/// Appends the `OK` line of [`format_path_line_with_id`] to `out`, digits
/// written by hand: into a warmed buffer (a worker's burst reply) this
/// allocates nothing.
pub fn push_path_line(out: &mut String, path: &Path, dim: usize, id: Option<&str>) {
    out.push_str("OK");
    if let Some(id) = id {
        out.push_str(" id=");
        out.push_str(id);
    }
    let mut buf = [b' '; COORD_BYTES];
    for hop in path.nodes() {
        let end = put_coord(&mut buf, 1, hop, dim);
        push_ascii(out, &buf[..end]);
    }
    out.push('\n');
}

/// Formats an `ERR` line; `detail` is appended for `BAD_REQUEST`.
pub fn format_err_line(kind: ErrorKind, detail: &str) -> String {
    format_err_line_with_id(kind, None, detail)
}

/// [`format_err_line`] with an optional echoed trace ID
/// (`ERR <KIND> id=<id> [detail]`). With `None` the bytes are identical
/// to the pre-ID wire format.
pub fn format_err_line_with_id(kind: ErrorKind, id: Option<&str>, detail: &str) -> String {
    let mut s = format!("ERR {}", kind.tag());
    if let Some(id) = id {
        s.push_str(" id=");
        s.push_str(id);
    }
    if !detail.is_empty() {
        s.push(' ');
        s.push_str(detail);
    }
    s.push('\n');
    s
}

/// Splits an optional leading `id=<token>` off a payload, returning
/// `(id, rest)`. Only a *valid* ID token is split off; anything else is
/// left in the payload untouched.
fn split_id(payload: &str) -> (Option<String>, &str) {
    if let Some(rest) = payload.strip_prefix("id=") {
        let (tok, tail) = match rest.split_once(' ') {
            Some((t, tail)) => (t, tail),
            None => (rest, ""),
        };
        if valid_request_id(tok) {
            return (Some(tok.to_string()), tail);
        }
    }
    (None, payload)
}

/// Parses a response line (without the trailing newline). `Err` means
/// the line is *malformed* — it matches no protocol form at all.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let (resp, _id) = parse_response_with_id(line)?;
    Ok(resp)
}

/// Like [`parse_response`], but also splits off the echoed trace ID
/// (`OK id=<id> ...` / `ERR <KIND> id=<id> ...`), if any. The returned
/// [`Response`] payload excludes the ID token.
pub fn parse_response_with_id(line: &str) -> Result<(Response, Option<String>), String> {
    if let Some(payload) = line.strip_prefix("OK") {
        if payload.is_empty() || payload.starts_with(' ') {
            let (id, rest) = split_id(payload.trim_start());
            return Ok((Response::Ok(rest.to_string()), id));
        }
    }
    if let Some(rest) = line.strip_prefix("ERR ") {
        let (tag, detail) = match rest.split_once(' ') {
            Some((t, d)) => (t, d),
            None => (rest, ""),
        };
        if let Some(kind) = ErrorKind::from_tag(tag) {
            let (id, detail) = split_id(detail);
            return Ok((Response::Err(kind, detail.to_string()), id));
        }
    }
    Err(format!("malformed response line `{line}`"))
}

// The incremental LF framer lives in `oblivion-wire`; re-exported here
// so server code keeps its historical import path. On a `Framed::Bad`
// the server answers `BAD_REQUEST` in order and the stream stays in sync.
pub use oblivion_wire::{FrameBuf, Framed};

/// Why [`read_line`] stopped before producing a line.
#[derive(Debug)]
pub enum LineError {
    /// The deadline expired before a full line arrived.
    Deadline,
    /// The peer closed the connection before sending a full line.
    /// `true` when some bytes had already arrived.
    Eof(bool),
    /// The line exceeded the length cap.
    TooLong,
    /// Any other socket error.
    Io(std::io::Error),
}

/// Reads one LF-terminated line, re-arming the socket read timeout with
/// the remaining deadline before every read so a trickling peer cannot
/// stretch the call past `deadline` (the slow-loris defence).
pub fn read_line(stream: &TcpStream, max: usize, deadline: Instant) -> Result<String, LineError> {
    let mut buf = Vec::with_capacity(128.min(max));
    let mut chunk = [0u8; 512];
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(LineError::Deadline);
        }
        if let Err(e) = stream.set_read_timeout(Some(remaining)) {
            return Err(LineError::Io(e));
        }
        let n = match (&mut (&*stream)).read(&mut chunk) {
            Ok(0) => return Err(LineError::Eof(!buf.is_empty())),
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(LineError::Deadline)
            }
            Err(e) => return Err(LineError::Io(e)),
        };
        for &b in &chunk[..n] {
            if b == b'\n' {
                // Anything after the newline is ignored — fine for the
                // single-probe health connections this helper serves;
                // pipelined request sockets use FrameBuf instead.
                return String::from_utf8(buf)
                    .map(|mut s| {
                        if s.ends_with('\r') {
                            s.pop();
                        }
                        s
                    })
                    .map_err(|_| LineError::TooLong);
            }
            buf.push(b);
            if buf.len() > max {
                return Err(LineError::TooLong);
            }
        }
    }
}

/// Writes `line` with the remaining deadline as the write timeout.
/// Returns `Err` on timeout or a broken peer; the caller decides whether
/// that demotes the request to an I/O error.
pub fn write_line(stream: &TcpStream, line: &str, deadline: Instant) -> std::io::Result<()> {
    let remaining = deadline
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(10));
    stream.set_write_timeout(Some(remaining))?;
    (&mut (&*stream)).write_all(line.as_bytes())?;
    (&mut (&*stream)).flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new_mesh(&[8, 8])
    }

    #[test]
    fn request_round_trip() {
        let m = mesh();
        assert_eq!(parse_request("HEALTH", &m), Ok(Request::Health));
        assert_eq!(parse_request("READY", &m), Ok(Request::Ready));
        assert_eq!(parse_request("METRICS", &m), Ok(Request::Metrics));
        let r = parse_request("PATH 42 1,2 7,0", &m).unwrap();
        assert_eq!(
            r,
            Request::Path {
                seed: 42,
                src: Coord::new(&[1, 2]),
                dst: Coord::new(&[7, 0]),
                id: None,
            }
        );
        let r = parse_request("PATH 42 1,2 7,0 id=req-7.a:b_c", &m).unwrap();
        assert_eq!(
            r,
            Request::Path {
                seed: 42,
                src: Coord::new(&[1, 2]),
                dst: Coord::new(&[7, 0]),
                id: Some("req-7.a:b_c".into()),
            }
        );
    }

    #[test]
    fn bad_requests_are_typed() {
        let m = mesh();
        let long_id = format!("PATH 1 1,2 3,4 id={}", "x".repeat(MAX_REQUEST_ID + 1));
        for bad in [
            "",
            "NOPE",
            "PATH",
            "PATH x 1,2 3,4",
            "PATH 1 1,2",
            "PATH 1 1,2,3 4,5",
            "PATH 1 1,2 9,9",
            "PATH 1 1,2 3,4 extra",
            "PATH 1 1,2 3,4 id=",
            "PATH 1 1,2 3,4 id=sp@ce",
            "PATH 1 1,2 3,4 id=ok extra",
            long_id.as_str(),
        ] {
            assert!(parse_request(bad, &m).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn request_id_charset_is_strict() {
        assert!(valid_request_id("a"));
        assert!(valid_request_id("req-7.a:b_c"));
        assert!(valid_request_id(&"x".repeat(MAX_REQUEST_ID)));
        assert!(!valid_request_id(""));
        assert!(!valid_request_id(&"x".repeat(MAX_REQUEST_ID + 1)));
        assert!(!valid_request_id("has space"));
        assert!(!valid_request_id("tab\there"));
        assert!(!valid_request_id("uni\u{e9}"));
    }

    #[test]
    fn response_round_trip() {
        assert_eq!(
            parse_response("OK 1,2 1,3"),
            Ok(Response::Ok("1,2 1,3".into()))
        );
        assert_eq!(parse_response("OK"), Ok(Response::Ok(String::new())));
        assert_eq!(
            parse_response("ERR OVERLOADED"),
            Ok(Response::Err(ErrorKind::Overloaded, String::new()))
        );
        assert_eq!(
            parse_response("ERR BAD_REQUEST bad seed"),
            Ok(Response::Err(ErrorKind::BadRequest, "bad seed".into()))
        );
        assert!(parse_response("OKAY nope").is_err());
        assert!(parse_response("ERR WHATEVER").is_err());
        assert!(parse_response("hello").is_err());
    }

    #[test]
    fn response_ids_round_trip_byte_for_byte() {
        assert_eq!(
            parse_response_with_id("OK id=abc-1 1,2 1,3"),
            Ok((Response::Ok("1,2 1,3".into()), Some("abc-1".into())))
        );
        assert_eq!(
            parse_response_with_id("OK 1,2 1,3"),
            Ok((Response::Ok("1,2 1,3".into()), None))
        );
        assert_eq!(
            parse_response_with_id("OK id=solo"),
            Ok((Response::Ok(String::new()), Some("solo".into())))
        );
        assert_eq!(
            parse_response_with_id("ERR DEADLINE_EXCEEDED id=abc-1"),
            Ok((
                Response::Err(ErrorKind::DeadlineExceeded, String::new()),
                Some("abc-1".into())
            ))
        );
        assert_eq!(
            parse_response_with_id("ERR BAD_REQUEST id=x bad seed"),
            Ok((
                Response::Err(ErrorKind::BadRequest, "bad seed".into()),
                Some("x".into())
            ))
        );
        // An invalid token after `id=` is payload, not an ID.
        assert_eq!(
            parse_response_with_id("ERR BAD_REQUEST id= is empty"),
            Ok((
                Response::Err(ErrorKind::BadRequest, "id= is empty".into()),
                None
            ))
        );
    }

    #[test]
    fn formatted_ids_parse_back() {
        assert_eq!(
            format_err_line_with_id(ErrorKind::DeadlineExceeded, Some("r1"), ""),
            "ERR DEADLINE_EXCEEDED id=r1\n"
        );
        assert_eq!(
            format_err_line_with_id(ErrorKind::BadRequest, Some("r1"), "why"),
            "ERR BAD_REQUEST id=r1 why\n"
        );
        let (resp, id) = parse_response_with_id("ERR BAD_REQUEST id=r1 why").unwrap();
        assert_eq!(resp, Response::Err(ErrorKind::BadRequest, "why".into()));
        assert_eq!(id.as_deref(), Some("r1"));
    }

    #[test]
    fn error_lines_match_taxonomy() {
        assert_eq!(
            format_err_line(ErrorKind::Overloaded, ""),
            "ERR OVERLOADED\n"
        );
        assert_eq!(
            format_err_line(ErrorKind::BadRequest, "why"),
            "ERR BAD_REQUEST why\n"
        );
        for kind in [
            ErrorKind::BadRequest,
            ErrorKind::Overloaded,
            ErrorKind::DeadlineExceeded,
            ErrorKind::ShuttingDown,
            ErrorKind::UnknownMesh,
            ErrorKind::MeshRetired,
        ] {
            assert_eq!(ErrorKind::from_tag(kind.tag()), Some(kind));
            assert_eq!(kind.retryable(), kind != ErrorKind::BadRequest);
        }
    }

    #[test]
    fn mesh_prefix_splits_and_passes_through() {
        assert_eq!(
            split_mesh_prefix("MESH a PATH 1 0,0 1,1"),
            Ok((Some("a"), "PATH 1 0,0 1,1"))
        );
        assert_eq!(
            split_mesh_prefix("MESH t-2.x PATH 1 0,0 1,1 id=q"),
            Ok((Some("t-2.x"), "PATH 1 0,0 1,1 id=q"))
        );
        // Prefix-free lines pass through byte-identically.
        assert_eq!(
            split_mesh_prefix("PATH 1 0,0 1,1"),
            Ok((None, "PATH 1 0,0 1,1"))
        );
        assert_eq!(split_mesh_prefix("HEALTH"), Ok((None, "HEALTH")));
        // `MESHX...` is not the verb; it falls through to parse_request
        // (and becomes an unknown-verb BAD_REQUEST there).
        assert_eq!(split_mesh_prefix("MESHY 1"), Ok((None, "MESHY 1")));
        // The verb with a bad id or nothing after it is an error.
        assert!(split_mesh_prefix("MESH ").is_err());
        assert!(split_mesh_prefix("MESH a").is_err());
        assert!(split_mesh_prefix("MESH sp@ce PATH 1 0,0 1,1").is_err());
        assert!(
            split_mesh_prefix(&format!("MESH {} HEALTH", "x".repeat(MAX_MESH_ID + 1))).is_err()
        );
    }

    #[test]
    fn mesh_id_charset_is_strict() {
        assert!(valid_mesh_id("a"));
        assert!(valid_mesh_id("tenant-b.2_x"));
        assert!(valid_mesh_id(&"m".repeat(MAX_MESH_ID)));
        assert!(!valid_mesh_id(""));
        assert!(!valid_mesh_id("has space"));
        assert!(!valid_mesh_id("col:on"));
        assert!(!valid_mesh_id(&"m".repeat(MAX_MESH_ID + 1)));
    }

    #[test]
    fn framebuf_pops_pipelined_lines_in_order() {
        let mut fb = FrameBuf::new(MAX_REQUEST_LINE);
        fb.extend(b"PATH 1 0,0 1,1\nPATH 2 2,2 3,3\r\nHEALTH\n");
        assert_eq!(fb.next_line(), Some(Framed::Line("PATH 1 0,0 1,1".into())));
        assert_eq!(fb.next_line(), Some(Framed::Line("PATH 2 2,2 3,3".into())));
        assert_eq!(fb.next_line(), Some(Framed::Line("HEALTH".into())));
        assert_eq!(fb.next_line(), None);
        assert!(!fb.has_partial());
    }

    #[test]
    fn framebuf_preserves_split_across_read_frames() {
        let mut fb = FrameBuf::new(MAX_REQUEST_LINE);
        fb.extend(b"PATH 1 0,0 1,1\nPA");
        assert_eq!(fb.next_line(), Some(Framed::Line("PATH 1 0,0 1,1".into())));
        assert_eq!(fb.next_line(), None);
        assert!(fb.has_partial());
        fb.extend(b"TH 2 2,2 3,3\n");
        assert_eq!(fb.next_line(), Some(Framed::Line("PATH 2 2,2 3,3".into())));
        assert!(!fb.has_partial());
        // Byte-at-a-time trickle still frames correctly.
        for &b in b"READY\n".iter() {
            fb.extend(&[b]);
        }
        assert_eq!(fb.next_line(), Some(Framed::Line("READY".into())));
    }

    #[test]
    fn framebuf_overlong_line_poisons_without_desync() {
        let mut fb = FrameBuf::new(16);
        // Over-long with the LF in the same read: one Bad, next line ok.
        fb.extend(b"xxxxxxxxxxxxxxxxxxxxxxxx\nHEALTH\n");
        assert!(matches!(fb.next_line(), Some(Framed::Bad(_))));
        assert_eq!(fb.next_line(), Some(Framed::Line("HEALTH".into())));
        // Over-long dribbled in without an LF: memory stays bounded,
        // partial stays pending, the eventual LF resynchronizes.
        for _ in 0..100 {
            fb.extend(b"yyyyyyyy");
        }
        assert_eq!(fb.next_line(), None);
        assert!(fb.has_partial());
        fb.extend(b"tail\nREADY\n");
        assert!(matches!(fb.next_line(), Some(Framed::Bad(_))));
        assert_eq!(fb.next_line(), Some(Framed::Line("READY".into())));
        assert!(!fb.has_partial());
    }

    #[test]
    fn framebuf_non_utf8_is_bad_not_fatal() {
        let mut fb = FrameBuf::new(MAX_REQUEST_LINE);
        fb.extend(b"\xff\xfe\n");
        fb.extend(b"HEALTH\n");
        assert!(matches!(fb.next_line(), Some(Framed::Bad(_))));
        assert_eq!(fb.next_line(), Some(Framed::Line("HEALTH".into())));
    }

    #[test]
    fn coord_wire_format_is_bare() {
        let m = mesh();
        let c = parse_coord("3,4", &m).unwrap();
        assert_eq!(format_coord(&c, 2), "3,4");
        assert!(parse_coord("3", &m).is_err());
        assert!(parse_coord("8,0", &m).is_err());
        assert!(parse_coord("a,b", &m).is_err());
    }

    /// The `BAD_REQUEST` details of coordinate parsing, byte for byte,
    /// including the component count past `MAX_DIM` components.
    #[test]
    fn coord_parse_details_are_pinned() {
        let m = Mesh::new_mesh(&[8, 8]);
        let err = |tok: &str| parse_coord(tok, &m).unwrap_err();
        assert_eq!(
            err("a,b"),
            "bad coordinate `a,b`: invalid digit found in string"
        );
        assert_eq!(
            err(""),
            "bad coordinate ``: cannot parse integer from empty string"
        );
        assert_eq!(
            err("1,99999999999"),
            "bad coordinate `1,99999999999`: number too large to fit in target type"
        );
        assert_eq!(
            err("3"),
            "coordinate `3` has 1 components, mesh has 2 dimensions"
        );
        assert_eq!(
            err("1,2,3,4,5,6,7,8,9,10"),
            "coordinate `1,2,3,4,5,6,7,8,9,10` has 10 components, mesh has 2 dimensions"
        );
        assert_eq!(
            err("1,2,3,4,5,6,7,8,9,x"),
            "bad coordinate `1,2,3,4,5,6,7,8,9,x`: invalid digit found in string"
        );
        assert_eq!(err("8,0"), "coordinate `8,0` outside the mesh");
    }

    /// The hand-written digits match `Display`, and the one-allocation
    /// wrapper matches appending into a buffer.
    #[test]
    fn hand_written_digits_match_display() {
        for x in [0u64, 7, 10, 99, 100, 4_294_967_295, u64::MAX] {
            let mut buf = [0u8; 20];
            let end = put_digits(&mut buf, 0, x);
            assert_eq!(std::str::from_utf8(&buf[..end]), Ok(&*x.to_string()));
        }
        let m = Mesh::new_mesh(&[1 << 20, 1 << 20, 2]);
        let hops = [[1_048_575, 0, 1], [1_048_575, 1, 1], [1_048_575, 1, 0]];
        let coords: Vec<Coord> = hops.iter().map(|h| Coord::new(h)).collect();
        let path = Path::new(&m, coords.clone());
        for id in [None, Some("a.b:7")] {
            let line = format_path_line_with_id(&path, 3, id);
            let id_field = id.map_or(String::new(), |id| format!(" id={id}"));
            let want = format!("OK{id_field} 1048575,0,1 1048575,1,1 1048575,1,0\n");
            assert_eq!(line, want);
            assert_eq!(line.capacity(), line.len(), "measured exactly");
            let mut out = String::from("prior\n");
            push_path_line(&mut out, &path, 3, id);
            assert_eq!(out, format!("prior\n{want}"));
        }
        let mut req = String::new();
        push_path_request(&mut req, u64::MAX, &coords[0], &coords[2], 3, Some("x"));
        let want = format!("PATH {} 1048575,0,1 1048575,1,0 id=x\n", u64::MAX);
        assert_eq!(req, want);
    }
}
