//! Signal-aware graceful shutdown and readiness waits, without libc as
//! a dependency.
//!
//! The workspace is dependency-free, so instead of the `libc`,
//! `signal-hook` or `mio` crates this crate declares the three POSIX
//! entry points it needs — `signal(2)`, `poll(2)` and `write(2)` —
//! directly, and keeps every `unsafe` block of the serving stack here.
//!
//! * **Shutdown flag.** The installed SIGINT/SIGTERM handler sets a
//!   static atomic flag; [`shutdown_requested`] reads it. The simulation
//!   engines check it at step boundaries (to write a final checkpoint,
//!   see `oblivion-ckpt`).
//! * **Shutdown latch.** The same handler also `write(2)`s one byte —
//!   async-signal-safe — to a process-wide pipe whose read end is
//!   [`shutdown_fd`]. Nothing drains it, so the fd stays readable
//!   exactly as long as the flag is set: a thread parked in [`poll`]
//!   wakes the instant SIGTERM lands instead of on its next timer tick
//!   (the request server's acceptor and health listener, see
//!   `oblivion-serve`).
//! * **Wake pipes.** A [`Waker`] is a nonblocking socket pair one thread
//!   pokes ([`Waker::wake`]) to end another's [`poll`]; a [`Latch`] is a
//!   waker that, once set, stays readable for good.
//!
//! There is exactly one installer in the process: both consumers call
//! [`install`], which is idempotent, so whichever subsystem starts first
//! wins and the other reuses the same flag and latch.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::io::{self, Read as _, Write as _};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::{Once, OnceLock};
use std::time::Duration;

/// POSIX SIGINT (Ctrl-C).
pub const SIGINT: i32 = 2;
/// POSIX SIGTERM (polite kill, e.g. from a job scheduler preempting us).
pub const SIGTERM: i32 = 15;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);
static INSTALL: Once = Once::new();
/// The process latch, created on first use by [`shutdown_fd`].
static SHUTDOWN_LATCH: OnceLock<Waker> = OnceLock::new();
/// Write end of [`SHUTDOWN_LATCH`] as a plain integer, so the signal
/// handler can reach it with one atomic load (`-1` until created).
static SHUTDOWN_TX: AtomicI32 = AtomicI32::new(-1);

/// `poll(2)` interest and result bits (identical on Linux and the BSDs).
const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

// `signal(2)`, `poll(2)` and `write(2)` from the platform C library
// (already linked by std). Declared by hand to keep the workspace free
// of external crates.
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    #[link_name = "poll"]
    fn c_poll(fds: *mut PollFd, nfds: NfdsT, timeout_ms: i32) -> i32;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

/// Sets the flag and, on its false→true edge, pokes the process latch.
/// Async-signal-safe: one atomic swap, one atomic load, one `write(2)`.
fn raise_shutdown() {
    if SHUTDOWN.swap(true, Ordering::SeqCst) {
        return;
    }
    let fd = SHUTDOWN_TX.load(Ordering::SeqCst);
    if fd >= 0 {
        let byte = 1u8;
        // SAFETY: `fd` is the write end of `SHUTDOWN_LATCH`, which lives
        // in a static and is never closed; `byte` is a valid one-byte
        // buffer for the duration of the call. `write(2)` is
        // async-signal-safe, and a full buffer (EAGAIN on the
        // nonblocking socket) already means "readable", so the result
        // is deliberately ignored.
        unsafe {
            write(fd, &byte, 1);
        }
    }
}

extern "C" fn on_signal(_signum: i32) {
    raise_shutdown();
}

/// Installs SIGINT/SIGTERM handlers that request a graceful shutdown.
/// Idempotent; later calls are no-ops.
pub fn install() {
    INSTALL.call_once(|| {
        // SAFETY: `signal` is the POSIX C-library function; the handler is
        // a valid `extern "C" fn(i32)` for the whole program lifetime and
        // performs only async-signal-safe work (atomics and `write(2)`).
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    });
}

/// Whether a SIGINT/SIGTERM has arrived (or [`request_shutdown`] ran)
/// since the last [`reset`].
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::Relaxed)
}

/// Sets the shutdown flag (and the latch) from normal code — lets tests
/// exercise the graceful-shutdown path without delivering a real signal.
pub fn request_shutdown() {
    raise_shutdown();
}

/// Clears the shutdown flag and drains the latch (between runs in one
/// process, and in tests). Not meant to race a concurrent shutdown
/// request.
pub fn reset() {
    SHUTDOWN.store(false, Ordering::Relaxed);
    if let Some(latch) = SHUTDOWN_LATCH.get() {
        latch.drain();
    }
}

/// The process shutdown latch: an fd that is readable exactly while
/// [`shutdown_requested`] holds. Park on it with [`poll`] (alongside
/// whatever else the thread waits for) to wake on SIGTERM at once.
/// Created on first call; fails only if the process is out of fds.
pub fn shutdown_fd() -> io::Result<RawFd> {
    if let Some(latch) = SHUTDOWN_LATCH.get() {
        return Ok(latch.fd());
    }
    let fresh = Waker::new()?;
    if SHUTDOWN_LATCH.set(fresh).is_ok() {
        if let Some(latch) = SHUTDOWN_LATCH.get() {
            // Publish the write end first, then look at the flag: a
            // signal that raced the publication either saw the fd (and
            // wrote) or set the flag before this load (and we write).
            SHUTDOWN_TX.store(latch.tx.as_raw_fd(), Ordering::SeqCst);
            if SHUTDOWN.load(Ordering::SeqCst) {
                latch.wake();
            }
        }
    }
    SHUTDOWN_LATCH
        .get()
        .map(Waker::fd)
        .ok_or_else(|| io::Error::other("shutdown latch missing"))
}

/// A wake pipe: a nonblocking socket pair whose read end ([`fd`]) goes
/// readable when any thread calls [`wake`]. The parked thread
/// [`drain`]s it after [`poll`] reports it readable, *before* re-checking
/// whatever state the waker guards — so a wake that lands after the
/// drain leaves a byte behind and the next park returns at once (no
/// lost wakeups).
///
/// [`fd`]: Waker::fd
/// [`wake`]: Waker::wake
/// [`drain`]: Waker::drain
#[derive(Debug)]
pub struct Waker {
    rx: UnixStream,
    tx: UnixStream,
}

impl Waker {
    /// A fresh, unpoked waker.
    pub fn new() -> io::Result<Waker> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Waker { rx, tx })
    }

    /// Makes [`fd`](Waker::fd) readable. Never blocks: a full buffer
    /// means a wake is already pending.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Consumes every pending wake.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(n) if n == buf.len() => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => return,
            }
        }
    }

    /// The read end, to park on with [`poll`].
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }
}

/// A one-way event with an fd: after [`set`](Latch::set) the fd stays
/// readable for good (nothing drains it), so every poller sees it, now
/// or later. A poller must stop including a latch it has already
/// observed, or its loop spins.
#[derive(Debug)]
pub struct Latch {
    waker: Waker,
    set: AtomicBool,
}

impl Latch {
    /// A fresh, unset latch.
    pub fn new() -> io::Result<Latch> {
        Ok(Latch {
            waker: Waker::new()?,
            set: AtomicBool::new(false),
        })
    }

    /// Sets the latch; idempotent (one byte on the first call).
    pub fn set(&self) {
        if !self.set.swap(true, Ordering::SeqCst) {
            self.waker.wake();
        }
    }

    /// The fd that is readable while the latch is set.
    pub fn fd(&self) -> RawFd {
        self.waker.fd()
    }
}

/// One entry of a [`poll`] set, laid out as the C `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Wait until `fd` is readable (or at EOF / in error).
    pub fn readable(fd: RawFd) -> PollFd {
        PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        }
    }

    /// Wait until `fd` can take a write without blocking (or is in
    /// error).
    pub fn writable(fd: RawFd) -> PollFd {
        PollFd {
            fd,
            events: POLLOUT,
            revents: 0,
        }
    }

    /// Whether the last [`poll`] reported anything for this fd — the
    /// requested readiness, or a hang-up/error that the next read or
    /// write will surface.
    pub fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// Blocks until at least one entry is ready or `timeout` passes (`None`
/// waits indefinitely); returns how many entries are ready. Timeouts
/// round *up* to whole milliseconds, so a deadline-driven caller never
/// wakes early. A signal interrupting the wait (`EINTR`) is reported as
/// a spurious wake — `Ok(0)` — so callers simply re-check their state.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    for f in fds.iter_mut() {
        f.revents = 0;
    }
    let timeout_ms = match timeout {
        None => -1,
        Some(t) => {
            let ms = t.as_nanos().div_ceil(1_000_000);
            i32::try_from(ms).unwrap_or(i32::MAX)
        }
    };
    // SAFETY: `fds` is a valid, exclusively borrowed slice of
    // `#[repr(C)]` `PollFd`s (layout of `struct pollfd`) for the whole
    // call, and `fds.len()` is its exact length; `poll(2)` writes only
    // the `revents` fields of those entries.
    let n = unsafe { c_poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
    if n >= 0 {
        return Ok(n as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn readable(fd: RawFd, timeout: Duration) -> bool {
        let mut fds = [PollFd::readable(fd)];
        poll(&mut fds, Some(timeout)).unwrap() == 1 && fds[0].ready()
    }

    /// The process flag and latch are global, so one test walks them
    /// through their whole life (parallel tests would race).
    #[test]
    fn flag_round_trip() {
        reset();
        let fd = shutdown_fd().unwrap();
        assert!(!shutdown_requested());
        assert!(!readable(fd, Duration::from_millis(5)));
        request_shutdown();
        assert!(shutdown_requested());
        // Latched: readable on every look, nothing drains it.
        for _ in 0..3 {
            assert!(readable(fd, Duration::ZERO));
        }
        request_shutdown();
        reset();
        assert!(!shutdown_requested());
        assert!(!readable(fd, Duration::from_millis(5)));
    }

    #[test]
    fn install_is_idempotent() {
        install();
        install();
    }

    #[test]
    fn waker_is_readable_after_wake_and_times_out_otherwise() {
        let w = Waker::new().unwrap();
        let started = Instant::now();
        assert!(!readable(w.fd(), Duration::from_millis(20)));
        assert!(started.elapsed() >= Duration::from_millis(20));
        w.wake();
        w.wake();
        assert!(readable(w.fd(), Duration::from_secs(1)));
        w.drain();
        assert!(!readable(w.fd(), Duration::ZERO));
    }

    #[test]
    fn wake_from_another_thread_ends_an_unbounded_poll() {
        let w = Waker::new().unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                w.wake();
            });
            let mut fds = [PollFd::readable(w.fd())];
            while poll(&mut fds, None).unwrap() == 0 {}
            assert!(fds[0].ready());
        });
    }

    #[test]
    fn latch_stays_readable_once_set() {
        let l = Latch::new().unwrap();
        assert!(!readable(l.fd(), Duration::from_millis(5)));
        l.set();
        l.set();
        for _ in 0..3 {
            assert!(readable(l.fd(), Duration::ZERO));
        }
    }

    #[test]
    fn poll_reports_only_the_ready_entry() {
        let (a, b) = (Waker::new().unwrap(), Waker::new().unwrap());
        b.wake();
        let mut fds = [PollFd::readable(a.fd()), PollFd::readable(b.fd())];
        assert_eq!(poll(&mut fds, Some(Duration::from_secs(1))).unwrap(), 1);
        assert!(!fds[0].ready());
        assert!(fds[1].ready());
    }

    #[test]
    fn a_socket_with_room_is_writable() {
        let w = Waker::new().unwrap();
        let mut fds = [PollFd::writable(w.tx.as_raw_fd())];
        assert_eq!(poll(&mut fds, Some(Duration::from_secs(1))).unwrap(), 1);
        assert!(fds[0].ready());
    }
}
