//! Readiness polling without a dependency: a hand-rolled shim over
//! `epoll(7)` (Linux) with a portable `poll(2)` fallback.
//!
//! The workspace vendors no libc crate, but every Rust binary on a Unix
//! platform already links the system C library through `std` — so the
//! handful of syscall wrappers the event loop needs are declared here
//! directly as `extern "C"` and resolved by the usual dynamic linker.
//! Only the symbols actually used are declared, with the struct layouts
//! fixed by the kernel/libc ABI (note `epoll_event` is packed on
//! x86-64 — a historic kernel ABI quirk).
//!
//! [`Poller`] is the tiny abstraction the server and the multiplexed
//! bench driver share: register/modify/remove a file descriptor's read
//! and write interest, then [`Poller::wait`] for events or a timeout.
//! Readiness is level-triggered on both backends, which keeps the
//! consumers simple: read until `WouldBlock` or a short read (whatever
//! arrives afterwards raises the fd again), only register write
//! interest while bytes are actually queued. Both consumers keep a
//! nonblocking socket's bytes the same way, so that lives here too:
//! [`ReadBuf`] for what has arrived and not yet decoded, [`flush`] for
//! what is queued and not yet written.
//!
//! The `poll(2)` backend rebuilds its `pollfd` array on every wait —
//! O(n) per call, fine as a portability fallback and for the small fd
//! sets the ops endpoint watches, while the epoll backend carries the
//! 10k-connection loopback scenario.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::raw::{c_int, c_short, c_ulong};
use std::time::Duration;

/// One readiness event: the fd and what it is ready for. `hangup`
/// covers POLLERR/POLLHUP — the consumer should read (to observe the
/// EOF or error) and close.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The ready file descriptor.
    pub fd: i32,
    /// Readable (or a pending accept on a listener).
    pub readable: bool,
    /// Writable without blocking.
    pub writable: bool,
    /// Peer hangup or socket error.
    pub hangup: bool,
}

// ---- poll(2): portable fallback --------------------------------------

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

// ---- epoll(7): Linux -------------------------------------------------

#[cfg(target_os = "linux")]
mod epoll_sys {
    use std::os::raw::c_int;

    // The kernel ABI packs epoll_event on x86-64 only.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            max: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// Readiness interest + wait, over epoll (Linux) or poll (fallback).
pub enum Poller {
    /// The epoll backend (Linux only).
    #[cfg(target_os = "linux")]
    Epoll(EpollPoller),
    /// The portable poll(2) backend.
    Poll(PollPoller),
}

impl Poller {
    /// The platform's best backend: epoll on Linux, poll elsewhere.
    pub fn new() -> io::Result<Self> {
        #[cfg(target_os = "linux")]
        {
            EpollPoller::new().map(Poller::Epoll)
        }
        #[cfg(not(target_os = "linux"))]
        {
            Ok(Self::poll_fallback())
        }
    }

    /// The poll(2) backend, explicitly — exercised by tests on every
    /// platform so the fallback cannot rot.
    pub fn poll_fallback() -> Self {
        Poller::Poll(PollPoller::default())
    }

    /// Starts watching `fd` for readability and/or writability.
    pub fn register(&mut self, fd: i32, readable: bool, writable: bool) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(epoll_sys::EPOLL_CTL_ADD, fd, readable, writable),
            Poller::Poll(p) => {
                p.interest.insert(fd, (readable, writable));
                Ok(())
            }
        }
    }

    /// Changes the interest set of an already-registered `fd`.
    pub fn reregister(&mut self, fd: i32, readable: bool, writable: bool) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(epoll_sys::EPOLL_CTL_MOD, fd, readable, writable),
            Poller::Poll(p) => {
                p.interest.insert(fd, (readable, writable));
                Ok(())
            }
        }
    }

    /// Stops watching `fd`. Call before closing the descriptor.
    pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(epoll_sys::EPOLL_CTL_DEL, fd, false, false),
            Poller::Poll(p) => {
                p.interest.remove(&fd);
                Ok(())
            }
        }
    }

    /// Blocks until at least one watched fd is ready or the timeout
    /// elapses (`None` = wait forever), filling `events`. A signal
    /// interruption returns cleanly with no events.
    pub fn wait(&mut self, timeout: Option<Duration>, events: &mut Vec<Event>) -> io::Result<()> {
        events.clear();
        let timeout_ms: c_int = match timeout {
            // poll/epoll take i32 milliseconds; round up so a 0.4 ms
            // deadline does not busy-spin at timeout 0.
            Some(t) => t
                .as_millis()
                .min(i32::MAX as u128)
                .try_into()
                .map(|ms: i32| if ms == 0 && !t.is_zero() { 1 } else { ms })
                .unwrap(),
            None => -1,
        };
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.wait(timeout_ms, events),
            Poller::Poll(p) => p.wait(timeout_ms, events),
        }
    }
}

/// The epoll backend. Owns the epoll fd; closed on drop.
#[cfg(target_os = "linux")]
pub struct EpollPoller {
    epfd: i32,
    buf: Vec<epoll_sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    fn new() -> io::Result<Self> {
        // SAFETY: plain syscall, no pointers.
        let epfd = unsafe { epoll_sys::epoll_create1(epoll_sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            epfd,
            buf: vec![epoll_sys::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(&mut self, op: c_int, fd: i32, readable: bool, writable: bool) -> io::Result<()> {
        let mut ev = epoll_sys::EpollEvent {
            events: (if readable { epoll_sys::EPOLLIN } else { 0 })
                | (if writable { epoll_sys::EPOLLOUT } else { 0 }),
            data: fd as u64,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn wait(&mut self, timeout_ms: c_int, events: &mut Vec<Event>) -> io::Result<()> {
        // SAFETY: `buf` is a live, correctly-sized array for the call.
        let n = unsafe {
            epoll_sys::epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                self.buf.len() as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for ev in &self.buf[..n as usize] {
            let bits = ev.events;
            events.push(Event {
                fd: ev.data as i32,
                readable: bits & epoll_sys::EPOLLIN != 0,
                writable: bits & epoll_sys::EPOLLOUT != 0,
                hangup: bits & (epoll_sys::EPOLLERR | epoll_sys::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        // SAFETY: closing the epoll fd we own.
        unsafe { epoll_sys::close(self.epfd) };
    }
}

/// The poll(2) backend: an interest map rebuilt into a `pollfd` array
/// per wait.
#[derive(Default)]
pub struct PollPoller {
    interest: HashMap<i32, (bool, bool)>,
    buf: Vec<PollFd>,
}

impl PollPoller {
    fn wait(&mut self, timeout_ms: c_int, events: &mut Vec<Event>) -> io::Result<()> {
        self.buf.clear();
        for (&fd, &(readable, writable)) in &self.interest {
            self.buf.push(PollFd {
                fd,
                events: (if readable { POLLIN } else { 0 }) | (if writable { POLLOUT } else { 0 }),
                revents: 0,
            });
        }
        if self.buf.is_empty() {
            // Nothing to watch: sleep out the timeout like poll would.
            if timeout_ms > 0 {
                std::thread::sleep(Duration::from_millis(timeout_ms as u64));
            }
            return Ok(());
        }
        // SAFETY: `buf` is a live pollfd array of the stated length.
        let n = unsafe { poll(self.buf.as_mut_ptr(), self.buf.len() as c_ulong, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for pfd in &self.buf {
            if pfd.revents != 0 {
                events.push(Event {
                    fd: pfd.fd,
                    readable: pfd.revents & POLLIN != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    hangup: pfd.revents & (POLLERR | POLLHUP) != 0,
                });
            }
        }
        Ok(())
    }
}

// ---- buffered bytes on a nonblocking socket ---------------------------

/// The least free space a connection's [`ReadBuf`] offers a `read`:
/// large enough that a typical request frame (a 21-row report is 1.5 KB)
/// arrives in one, small enough to hold per connection ten thousand
/// times over.
pub(crate) const READ_SPACE: usize = 4 * 1024;

/// Bytes received on a connection and not yet decoded into frames.
///
/// The socket is read straight into the buffer: `bytes` stays
/// initialised past `filled` (zeroed once, when it grows — never per
/// read), so there is no scratch chunk to clear and copy out of.
#[derive(Default)]
pub(crate) struct ReadBuf {
    bytes: Vec<u8>,
    filled: usize,
}

impl ReadBuf {
    /// Reads what the socket holds into the buffer, stopping once more
    /// than `most` bytes are pending. `Ok(true)` when the peer closed.
    ///
    /// A read that comes back short has drained the socket, so the loop
    /// stops there instead of paying a second `read` for `WouldBlock`;
    /// the poller is level-triggered, so anything that arrives later —
    /// an EOF included — raises a new event.
    pub(crate) fn fill(&mut self, stream: &mut impl Read, most: usize) -> io::Result<bool> {
        while self.filled <= most {
            let space = self.space();
            let offered = space.len();
            match stream.read(space) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    self.filled += n;
                    if n < offered {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }

    /// The free space to read into, grown first when under
    /// [`READ_SPACE`] (doubling, so a large frame costs few reads). The
    /// first growth is one zeroed allocation, not a fill loop.
    fn space(&mut self) -> &mut [u8] {
        if self.bytes.is_empty() {
            self.bytes = vec![0; READ_SPACE];
        } else if self.bytes.len() - self.filled < READ_SPACE {
            let grown = self.bytes.len() + self.bytes.len().max(READ_SPACE);
            self.bytes.resize(grown, 0);
        }
        &mut self.bytes[self.filled..]
    }

    /// The received bytes not yet consumed.
    pub(crate) fn pending(&self) -> &[u8] {
        &self.bytes[..self.filled]
    }

    /// Drops the first `n` pending bytes (one decoded frame).
    pub(crate) fn consume(&mut self, n: usize) {
        self.bytes.copy_within(n..self.filled, 0);
        self.filled -= n;
    }
}

/// Drains as much of `buf[*pos..]` — encoded frames not yet written —
/// as the socket will take, and empties `buf` once all of it has gone.
/// Returns `Ok(true)` when fully flushed.
pub(crate) fn flush(
    stream: &mut impl Write,
    buf: &mut Vec<u8>,
    pos: &mut usize,
) -> io::Result<bool> {
    while *pos < buf.len() {
        match stream.write(&buf[*pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => *pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    buf.clear();
    *pos = 0;
    Ok(true)
}

// ---- RLIMIT_NOFILE ---------------------------------------------------

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: c_int = 7;
#[cfg(not(target_os = "linux"))]
const RLIMIT_NOFILE: c_int = 8;

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    fn nice(inc: c_int) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
}

/// Re-issues `listen(2)` on an already-listening socket with a larger
/// backlog (clamped by the kernel to `net.core.somaxconn`).
/// `std::net::TcpListener` hard-codes a backlog of 128, which a
/// thousands-of-agents reconnect storm overflows — dropped SYNs then
/// cost each dialer a full 1 s retransmit timer. Best-effort: returns
/// whether the call succeeded.
pub fn widen_listen_backlog(fd: i32, backlog: i32) -> bool {
    // SAFETY: plain syscall on a caller-owned listening socket.
    unsafe { listen(fd, backlog) == 0 }
}

/// Drops the calling thread to the lowest scheduling priority
/// (best-effort). On Linux, `nice(2)` adjusts the *calling thread's*
/// nice value, not the whole process — exactly what a background
/// compute thread wants so it cannot starve an event loop sharing the
/// core. Benign if it fails (e.g. already at the floor).
pub fn deprioritize_current_thread() {
    // SAFETY: plain syscall wrapper, no pointers.
    unsafe {
        nice(19);
    }
}

/// Best-effort raise of the open-files soft limit toward `want`
/// (clamped to the hard limit). Returns the soft limit now in force —
/// a 10k-agent loopback run needs both socket ends plus slack, and the
/// usual 1024 default would stop it cold.
pub fn raise_nofile_limit(want: u64) -> u64 {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live out-param for both calls.
    unsafe {
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            return 0;
        }
        if lim.cur >= want {
            return lim.cur;
        }
        let raised = RLimit {
            cur: want.min(lim.max),
            max: lim.max,
        };
        if setrlimit(RLIMIT_NOFILE, &raised) == 0 {
            raised.cur
        } else {
            lim.cur
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::Instant;

    fn wakes_on_readable(mut poller: Poller) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();
        let fd = rx.as_raw_fd();
        poller.register(fd, true, false).unwrap();

        // Quiet socket: the wait times out with no events.
        let mut events = Vec::new();
        poller
            .wait(Some(Duration::from_millis(20)), &mut events)
            .unwrap();
        assert!(events.is_empty(), "spurious event on an idle socket");

        // One byte lands: the wait returns promptly, well before the
        // generous timeout, flagging exactly that fd readable.
        tx.write_all(b"x").unwrap();
        tx.flush().unwrap();
        let t0 = Instant::now();
        poller
            .wait(Some(Duration::from_secs(5)), &mut events)
            .unwrap();
        assert!(t0.elapsed() < Duration::from_secs(1), "wait did not wake");
        assert!(events.iter().any(|e| e.fd == fd && e.readable));

        poller.deregister(fd).unwrap();
        poller
            .wait(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert!(events.is_empty(), "deregistered fd still reported");
    }

    #[test]
    fn default_backend_wakes_on_readable() {
        wakes_on_readable(Poller::new().unwrap());
    }

    #[test]
    fn poll_fallback_wakes_on_readable() {
        wakes_on_readable(Poller::poll_fallback());
    }

    #[test]
    fn write_interest_reports_writable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let tx = TcpStream::connect(addr).unwrap();
        tx.set_nonblocking(true).unwrap();
        let fd = tx.as_raw_fd();
        for mut poller in [Poller::new().unwrap(), Poller::poll_fallback()] {
            poller.register(fd, false, true).unwrap();
            let mut events = Vec::new();
            poller
                .wait(Some(Duration::from_secs(5)), &mut events)
                .unwrap();
            assert!(
                events.iter().any(|e| e.fd == fd && e.writable),
                "fresh socket must be writable"
            );
            poller.deregister(fd).unwrap();
        }
    }

    #[test]
    fn nofile_limit_reports_a_sane_value() {
        let now = raise_nofile_limit(256);
        assert!(now >= 256, "soft limit {now} below any sane default");
    }
}
