//! The benchmark's own client of the line protocol, std only: request
//! generation, the reply verifier, and the open- and closed-loop load
//! loops.
//!
//! Replies are checked in two steps. While the load runs, each reply's
//! echoed id must be the next one its connection is owed, and the bytes
//! of every `OK` line are folded, in order, into the connection's
//! digest. After the timed window the verifier rebuilds each `OK` line
//! from `select_path` with the request's seed — formatted here, not by
//! the server's formatter — and the digests must agree. Routing the
//! expected answers after the window keeps that work off the two cores
//! the server is measured on.

use crate::stats::{fnv1a, fold, splitmix64, Reservoir};
use crate::trace::{Tracer, NONE};
use oblivion_core::ObliviousRouter;
use oblivion_mesh::{Coord, Mesh, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};

/// A reply slower than this is a failed request (the server's own
/// per-request deadline is 1 s).
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(2);

/// An open-loop launch more than this after its due time is late.
pub const LATE: Duration = Duration::from_millis(1);

/// Latency samples kept per stream; longer streams are sampled
/// uniformly, so memory does not grow with throughput.
pub const SAMPLES: usize = 1 << 16;

/// Latency samples kept per stream for each second of the window.
pub const SECOND_SAMPLES: usize = 1 << 11;

/// Replies per stream folded into the reply digest: a fixed count, so
/// the digest repeats across runs and commits whatever the throughput.
pub const DIGEST_PREFIX: u64 = 1024;

/// One generated request.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    pub seed: u64,
    pub src: Coord,
    pub dst: Coord,
}

/// Request `index` of a run: a fresh path seed and a pair of distinct
/// nodes, all a function of `(run_seed, index)`, so no two requests
/// share work.
pub fn request(mesh: &Mesh, run_seed: u64, index: u64) -> Req {
    let h = splitmix64(run_seed ^ splitmix64(index));
    let n = mesh.node_count() as u64;
    let a = splitmix64(h ^ 0x5EED) % n;
    let mut b = splitmix64(h ^ 0xD057) % (n - 1);
    if b >= a {
        b += 1;
    }
    Req {
        seed: h,
        src: mesh.coord(NodeId(a as usize)),
        dst: mesh.coord(NodeId(b as usize)),
    }
}

fn push_num(buf: &mut Vec<u8>, v: u64) {
    let _ = write!(buf, "{v}");
}

fn push_coord(buf: &mut Vec<u8>, c: &Coord) {
    for (i, x) in c.as_slice().iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        push_num(buf, u64::from(*x));
    }
}

/// Appends `PATH <seed> <src> <dst> id=<index>\n`.
pub fn push_request(buf: &mut Vec<u8>, req: &Req, index: u64) {
    buf.extend_from_slice(b"PATH ");
    push_num(buf, req.seed);
    buf.push(b' ');
    push_coord(buf, &req.src);
    buf.push(b' ');
    push_coord(buf, &req.dst);
    buf.extend_from_slice(b" id=");
    push_num(buf, index);
    buf.push(b'\n');
}

/// The reply owed to request `index`, without its LF: `OK id=<index>`
/// and every hop of `select_path` under `StdRng::seed_from_u64(seed)`.
pub fn expected_reply(router: &dyn ObliviousRouter, req: &Req, index: u64, buf: &mut Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(req.seed);
    let routed = router.select_path(&req.src, &req.dst, &mut rng);
    buf.clear();
    buf.extend_from_slice(b"OK id=");
    push_num(buf, index);
    for hop in routed.path.nodes() {
        buf.push(b' ');
        push_coord(buf, hop);
    }
}

/// A reply that parsed and belongs to the request it answers.
#[derive(Debug, PartialEq, Eq)]
pub enum Reply {
    /// `OK` with the right id; the hash of the whole line.
    Ok(u64),
    /// An `ERR` reply: a failed request, not a broken stream.
    Refused,
}

fn id_is(token: &[u8], index: u64) -> bool {
    !token.is_empty()
        && token.len() <= 20
        && token.iter().all(u8::is_ascii_digit)
        && std::str::from_utf8(token).ok().and_then(|t| t.parse().ok()) == Some(index)
}

/// Checks that `line` answers request `index`: an `OK` echoing that id,
/// or an `ERR` that echoes it or no id at all (a connection shed before
/// its line was read). Anything else means the stream is out of order
/// or the reply is malformed.
pub fn check_reply(line: &[u8], index: u64) -> Result<Reply, String> {
    let show = || String::from_utf8_lossy(&line[..line.len().min(60)]).into_owned();
    if let Some(rest) = line.strip_prefix(b"OK id=") {
        let end = rest.iter().position(|&b| b == b' ').unwrap_or(rest.len());
        return if id_is(&rest[..end], index) {
            Ok(Reply::Ok(fnv1a(line)))
        } else {
            Err(format!(
                "reply out of order: want id={index}, got `{}`",
                show()
            ))
        };
    }
    if line.starts_with(b"ERR ") {
        let id = line
            .split(|&b| b == b' ')
            .find_map(|tok| tok.strip_prefix(b"id="));
        return match id {
            Some(tok) if !id_is(tok, index) => Err(format!(
                "reply out of order: want id={index}, got `{}`",
                show()
            )),
            _ => Ok(Reply::Refused),
        };
    }
    Err(format!("malformed reply to id={index}: `{}`", show()))
}

/// The replies of one ordered request stream: requests `first`,
/// `first + stride`, ... each settled once, in order.
pub struct Stream {
    pub first: u64,
    pub stride: u64,
    /// Requests settled so far (answered or failed).
    pub settled: u64,
    /// Verified-so-far `OK` replies.
    pub ok: u64,
    digest: u64,
    prefix: u64,
    failed: Vec<u64>,
    /// Broken-stream findings (kept: the first few; counted: all).
    pub errors: Vec<String>,
    pub broken: u64,
}

impl Stream {
    pub fn new(first: u64, stride: u64) -> Self {
        Self {
            first,
            stride,
            settled: 0,
            ok: 0,
            digest: 0,
            prefix: 0,
            failed: Vec::new(),
            errors: Vec::new(),
            broken: 0,
        }
    }

    /// The request id of the `k`-th request of this stream.
    pub fn index(&self, k: u64) -> u64 {
        self.first + k * self.stride
    }

    /// The id the next settled reply must carry.
    pub fn next_index(&self) -> u64 {
        self.index(self.settled)
    }

    /// Settles the next request with its reply line (`None`: transport
    /// error or timeout). Returns whether it was a verified-so-far `OK`.
    pub fn settle(&mut self, line: Option<&[u8]>) -> bool {
        let k = self.settled;
        self.settled += 1;
        let verdict = match line {
            None => Ok(Reply::Refused),
            Some(l) => check_reply(l, self.index(k)),
        };
        match verdict {
            Ok(Reply::Ok(h)) => {
                self.digest = fold(self.digest, h);
                if k < DIGEST_PREFIX {
                    self.prefix = fold(self.prefix, h);
                }
                self.ok += 1;
                true
            }
            Ok(Reply::Refused) => {
                self.failed.push(k);
                false
            }
            Err(e) => {
                self.broken += 1;
                if self.errors.len() < 4 {
                    self.errors.push(e);
                }
                self.failed.push(k);
                false
            }
        }
    }

    /// Digest of this stream's first [`DIGEST_PREFIX`] replies.
    pub fn reply_digest(&self) -> u64 {
        self.prefix
    }

    /// Rebuilds every `OK` reply of the stream from `select_path` and
    /// checks that the replies received were byte-identical, in order.
    pub fn verify(&self, router: &dyn ObliviousRouter, run_seed: u64) -> Result<(), String> {
        let mesh = router.mesh();
        let mut digest = 0;
        let mut buf = Vec::with_capacity(1024);
        let mut failed = self.failed.iter().peekable();
        for k in 0..self.settled {
            if failed.peek() == Some(&&k) {
                failed.next();
                continue;
            }
            let index = self.index(k);
            expected_reply(router, &request(mesh, run_seed, index), index, &mut buf);
            digest = fold(digest, fnv1a(&buf));
        }
        if digest == self.digest {
            Ok(())
        } else {
            Err(format!(
                "stream from id={}: {} OK replies are not byte-identical to select_path",
                self.first, self.ok
            ))
        }
    }
}

/// Incremental LF line reader over a socket with a fixed buffer.
pub struct LineReader {
    buf: Box<[u8]>,
    head: usize,
    tail: usize,
    scan: usize,
}

impl Default for LineReader {
    fn default() -> Self {
        Self {
            buf: vec![0; 1 << 18].into_boxed_slice(),
            head: 0,
            tail: 0,
            scan: 0,
        }
    }
}

impl LineReader {
    /// Forgets buffered bytes (for a new connection).
    pub fn reset(&mut self) {
        (self.head, self.tail, self.scan) = (0, 0, 0);
    }

    /// One `read` into the buffer. EOF is an error: replies are owed.
    pub fn fill(&mut self, src: &mut impl Read) -> io::Result<usize> {
        if self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.scan -= self.head;
            self.head = 0;
        }
        if self.tail == self.buf.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "reply line too long",
            ));
        }
        let n = src.read(&mut self.buf[self.tail..])?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.tail += n;
        Ok(n)
    }

    /// The next complete buffered line (without its LF), if any.
    pub fn next_line(&mut self) -> Option<Range<usize>> {
        match self.buf[self.scan..self.tail]
            .iter()
            .position(|&b| b == b'\n')
        {
            Some(p) => {
                let line = self.head..self.scan + p;
                self.head = line.end + 1;
                self.scan = self.head;
                Some(line)
            }
            None => {
                self.scan = self.tail;
                None
            }
        }
    }

    /// Reads until a whole line is buffered and returns it.
    pub fn read_line(&mut self, src: &mut impl Read) -> io::Result<Range<usize>> {
        loop {
            if let Some(line) = self.next_line() {
                return Ok(line);
            }
            self.fill(src)?;
        }
    }

    pub fn get(&self, line: Range<usize>) -> &[u8] {
        &self.buf[line]
    }
}

/// A blocking connection with the benchmark's socket options.
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(REPLY_TIMEOUT))?;
    conn.set_write_timeout(Some(REPLY_TIMEOUT))?;
    Ok(conn)
}

/// What one load loop measured inside the timed window.
pub struct Measured {
    /// Latency of each `OK` request: from its due time when the
    /// generator was held up past it, else from its send.
    pub latency_ns: Reservoir,
    /// The same latencies split by the whole second of the window the
    /// request fell due (open loop) or was written (closed loop) in.
    pub by_second: Vec<Reservoir>,
    /// Write to reply, whatever the schedule did.
    pub reply_ns: Reservoir,
    /// Connection set-up, for loops that connect per request.
    pub connect_ns: Reservoir,
    pub attempted: u64,
    pub failed: u64,
    pub late: u64,
    /// `OK` replies counted toward throughput.
    pub goodput: u64,
    /// When the last of them arrived.
    pub last_ok: Option<Instant>,
    seed: u64,
}

impl Measured {
    pub fn new(seed: u64) -> Self {
        Self {
            latency_ns: Reservoir::new(SAMPLES, seed),
            by_second: Vec::new(),
            reply_ns: Reservoir::new(SAMPLES, seed ^ 1),
            connect_ns: Reservoir::new(SAMPLES, seed ^ 2),
            attempted: 0,
            failed: 0,
            late: 0,
            goodput: 0,
            last_ok: None,
            seed,
        }
    }

    /// Records the latency of an `OK` request that fell due or was
    /// written `offset` into the window.
    pub fn record(&mut self, offset: Duration, latency_ns: u64) {
        self.latency_ns.push(latency_ns);
        let second = offset.as_secs() as usize;
        while self.by_second.len() <= second {
            let seed = splitmix64(self.seed ^ (3 + self.by_second.len() as u64));
            self.by_second.push(Reservoir::new(SECOND_SAMPLES, seed));
        }
        self.by_second[second].push(latency_ns);
    }

    fn count_ok(&mut self, at: Instant) {
        self.goodput += 1;
        self.last_ok = self.last_ok.max(Some(at));
    }

    /// `OK` replies per second from `from` to the last one counted.
    pub fn goodput_per_s(&self, from: Instant) -> f64 {
        match self.last_ok {
            Some(last) if last > from => self.goodput as f64 / (last - from).as_secs_f64(),
            _ => 0.0,
        }
    }

    pub fn absorb(&mut self, other: Measured) {
        self.latency_ns.absorb(other.latency_ns);
        for (second, r) in other.by_second.into_iter().enumerate() {
            match self.by_second.get_mut(second) {
                Some(mine) => mine.absorb(r),
                None => self.by_second.push(r),
            }
        }
        self.reply_ns.absorb(other.reply_ns);
        self.connect_ns.absorb(other.connect_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.late += other.late;
        self.goodput += other.goodput;
        self.last_ok = self.last_ok.max(other.last_ok);
    }
}

pub fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// When an open-loop stream's requests fall due: request `k` at
/// `start + offset + k * interval`, until `end`. Requests due before
/// `measure_from` are warm-up: sent and verified, not measured.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub offset: Duration,
    pub interval: Duration,
    pub measure_from: Instant,
    pub end: Instant,
}

/// Runs one open-loop stream with one request in flight. `send(k,
/// measured, origin, m)` performs request `k` and returns the instant
/// its verified-so-far `OK` arrived, or `None` if it failed.
///
/// When the previous request finishes after this one fell due, the
/// generator was held up by the system, so latency runs from the due
/// time and counts the wait a stall imposes on later requests. When the
/// generator slept until the due time, latency runs from the actual
/// send, leaving the sleep's own wake-up slack out.
pub fn open_loop(
    s: &Schedule,
    m: &mut Measured,
    mut send: impl FnMut(u64, bool, Instant, &mut Measured) -> Option<Instant>,
) {
    for k in 0u64.. {
        let due = s.start + s.offset + Duration::from_nanos(ns(s.interval).saturating_mul(k));
        if due >= s.end {
            break;
        }
        let now = Instant::now();
        let held_up = now >= due;
        if !held_up {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let origin = if held_up { due } else { sent };
        let measured = due >= s.measure_from;
        let replied = send(k, measured, origin, m);
        if measured {
            m.attempted += 1;
            if sent.saturating_duration_since(due) > LATE {
                m.late += 1;
            }
            match replied {
                Some(at) => {
                    m.record(
                        due.saturating_duration_since(s.measure_from),
                        ns(at.saturating_duration_since(origin)),
                    );
                    m.count_ok(at);
                }
                None => m.failed += 1,
            }
        }
    }
}

/// Closed loop in lock step: one thread writes `window` request lines
/// on each connection, collects all their replies, and writes the next
/// window, until `end`. With two connections the server always has a
/// whole burst waiting while the client reads the other connection's
/// replies, so the server's batches stay full. Requests written from
/// `measure_from` on are measured (latency from their write); `OK`
/// replies arriving inside the window count toward throughput.
#[allow(clippy::too_many_arguments)]
pub fn pipelined(
    addr: SocketAddr,
    streams: &mut [Stream],
    mesh: &Mesh,
    run_seed: u64,
    window: usize,
    measure_from: Instant,
    end: Instant,
    m: &mut Measured,
    tracer: Option<&Tracer>,
) -> io::Result<()> {
    let mut conns = Vec::new();
    for _ in streams.iter() {
        conns.push((connect(addr)?, LineReader::default()));
    }
    let mut wbuf = Vec::with_capacity(window * 64);
    let mut write = |sock: &mut TcpStream, s: &Stream| -> io::Result<Instant> {
        wbuf.clear();
        for j in 0..window as u64 {
            let index = s.index(s.settled + j);
            push_request(&mut wbuf, &request(mesh, run_seed, index), index);
        }
        let at = Instant::now();
        sock.write_all(&wbuf)?;
        Ok(at)
    };
    // When each connection's outstanding window was written.
    let mut written = Vec::new();
    for ((sock, _), s) in conns.iter_mut().zip(streams.iter()) {
        written.push(Some(write(sock, s)?));
    }
    while written.iter().any(Option::is_some) {
        for (((sock, reader), s), w) in conns.iter_mut().zip(streams.iter_mut()).zip(&mut written) {
            let Some(sent) = w.take() else {
                continue;
            };
            let measured = sent >= measure_from && sent < end;
            let mut owed = window;
            while owed > 0 {
                let read_start = Instant::now();
                if reader.fill(sock).is_err() {
                    // The rest of the window failed; the connection is
                    // not used again.
                    for _ in 0..owed {
                        s.settle(None);
                    }
                    if measured {
                        m.attempted += owed as u64;
                        m.failed += owed as u64;
                    }
                    break;
                }
                let at = Instant::now();
                if let Some(t) = tracer {
                    t.record("client.read", t.id(), NONE, read_start, at, u64::MAX);
                }
                while owed > 0 {
                    let Some(line) = reader.next_line() else {
                        break;
                    };
                    owed -= 1;
                    let index = s.next_index();
                    let ok = s.settle(Some(reader.get(line)));
                    if let Some(t) = tracer {
                        t.record("client.request", t.id(), NONE, sent, at, index);
                    }
                    if measured {
                        m.attempted += 1;
                        if ok {
                            m.record(sent - measure_from, ns(at - sent));
                        } else {
                            m.failed += 1;
                        }
                    }
                    if ok && at >= measure_from && at < end {
                        m.count_ok(at);
                    }
                }
            }
            if owed == 0 && Instant::now() < end {
                *w = Some(write(sock, s)?);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblivion_core::build_router;

    fn router() -> Box<dyn ObliviousRouter> {
        build_router("busch2d", &Mesh::new_mesh(&[16, 16])).unwrap()
    }

    /// Feeds a stream the replies `lines` and verifies it.
    fn verified(r: &dyn ObliviousRouter, lines: &[Vec<u8>]) -> Result<(), String> {
        let mut s = Stream::new(0, 1);
        for l in lines {
            if !s.settle(Some(l)) {
                return Err(s.errors.join("; "));
            }
        }
        s.verify(r, 7)
    }

    fn good_replies(r: &dyn ObliviousRouter, n: u64) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let mut buf = Vec::new();
                expected_reply(r, &request(r.mesh(), 7, i), i, &mut buf);
                buf
            })
            .collect()
    }

    #[test]
    fn verifier_accepts_the_true_replies() {
        let r = router();
        assert_eq!(verified(&*r, &good_replies(&*r, 20)), Ok(()));
    }

    #[test]
    fn verifier_rejects_a_corrupted_hop() {
        let r = router();
        let mut lines = good_replies(&*r, 20);
        let line = &mut lines[7];
        let last_digit = line.iter().rposition(u8::is_ascii_digit).unwrap();
        line[last_digit] = if line[last_digit] == b'0' { b'1' } else { b'0' };
        assert!(verified(&*r, &lines).is_err());
    }

    #[test]
    fn verifier_rejects_swapped_replies() {
        let r = router();
        let mut lines = good_replies(&*r, 20);
        lines.swap(3, 4);
        assert!(verified(&*r, &lines).unwrap_err().contains("out of order"));
        // Same ids in place, hops swapped between them: caught by the
        // digest after the window.
        let mut lines = good_replies(&*r, 20);
        let hops = |l: &[u8]| l[l.iter().position(|&b| b == b' ').unwrap()..].to_vec();
        let (h3, h4) = (hops(&lines[3]), hops(&lines[4]));
        lines[3] = [b"OK id=3".as_slice(), &h4].concat();
        lines[4] = [b"OK id=4".as_slice(), &h3].concat();
        assert!(verified(&*r, &lines)
            .unwrap_err()
            .contains("byte-identical"));
    }

    #[test]
    fn verifier_rejects_a_missing_id() {
        let r = router();
        let mut lines = good_replies(&*r, 20);
        lines[5] = without_id(&lines[5]);
        assert!(verified(&*r, &lines).unwrap_err().contains("malformed"));
        assert_eq!(check_reply(b"ERR OVERLOADED", 9), Ok(Reply::Refused));
        assert_eq!(
            check_reply(b"ERR DEADLINE_EXCEEDED id=9", 9),
            Ok(Reply::Refused)
        );
        assert!(check_reply(b"ERR DEADLINE_EXCEEDED id=8", 9).is_err());
    }

    /// `OK id=5 <hops>` -> `OK <hops>`.
    fn without_id(line: &[u8]) -> Vec<u8> {
        let rest = &line[b"OK ".len()..];
        let after_id = rest.iter().position(|&b| b == b' ').unwrap();
        [b"OK".as_slice(), &rest[after_id..]].concat()
    }

    #[test]
    fn open_loop_charges_a_stall_to_later_requests() {
        let start = Instant::now();
        let s = Schedule {
            start,
            offset: Duration::ZERO,
            interval: Duration::from_millis(1),
            measure_from: start,
            end: start + Duration::from_millis(150),
        };
        let mut m = Measured::new(1);
        open_loop(&s, &mut m, |k, _, _, _| {
            if k == 10 {
                std::thread::sleep(Duration::from_millis(50));
            }
            Some(Instant::now())
        });
        assert_eq!(m.attempted, 150);
        assert_eq!(m.failed, 0);
        let lat = m.latency_ns.sorted();
        let slow = lat.iter().filter(|&&ns| ns >= 10_000_000).count();
        // The stalled request and the ~40 due during the stall all read
        // at least 10 ms; timed from their send, only one would.
        assert!(slow >= 35, "only {slow} requests carry the stall");
        assert!(*lat.last().unwrap() >= 45_000_000);
        assert!(m.late >= 35);
    }

    #[test]
    fn latencies_are_kept_per_second_and_merged() {
        let mut a = Measured::new(1);
        a.record(Duration::from_millis(500), 1);
        a.record(Duration::from_millis(2500), 3);
        let mut b = Measured::new(2);
        b.record(Duration::from_millis(1500), 2);
        b.record(Duration::from_millis(100), 4);
        a.absorb(b);
        let seconds: Vec<Vec<u64>> = a.by_second.into_iter().map(Reservoir::sorted).collect();
        assert_eq!(seconds, vec![vec![1, 4], vec![2], vec![3]]);
        assert_eq!(a.latency_ns.sorted(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn requests_are_distinct_and_well_formed() {
        let mesh = Mesh::new_mesh(&[16, 16]);
        let mut buf = Vec::new();
        let a = request(&mesh, 1, 0);
        let b = request(&mesh, 1, 1);
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.src, a.dst);
        push_request(&mut buf, &a, 0);
        let line = std::str::from_utf8(&buf).unwrap();
        assert!(
            line.starts_with("PATH ") && line.ends_with(" id=0\n"),
            "{line}"
        );
    }
}
