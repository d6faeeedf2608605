//! Readiness kept by the kernel: [`Poller`], the one wait the TCP runtime
//! needs that `std` does not wrap, and the workspace's only FFI, declared
//! against the libc `std` already links.
//!
//! A socket is registered once under a token its owner picks, and a wait
//! reports the ready sockets' tokens and nothing else: it costs what
//! happened, not what is registered. The set lives in the kernel
//! (`epoll_create1`, `epoll_ctl`, `epoll_pwait2`: Linux >= 5.11, glibc >=
//! 2.35), so the module is Linux-only. `epoll_pwait2` keeps microsecond
//! timeouts (`epoll_wait`'s milliseconds would round a 300 µs LAN delay up
//! to 1 ms); a kernel without it fails [`Poller::new`], with no fallback.
//!
//! Safety argument. The kernel keeps no pointer once a call returns. It
//! reads one local `struct epoll_event` per `epoll_ctl`; writes at most
//! `maxevents` events into a `Vec`'s spare capacity of that many, whose
//! length is then set to the count it reported; reads a local `struct
//! timespec` (two `long`s, Linux's layout) or null, and a null signal
//! mask. `RawEvent` is `epoll_event` (packed on x86-64, as the kernel's);
//! the epoll descriptor is an `OwnedFd` only its `Poller` closes. A
//! registered socket that is closed is no memory matter (epoll forgets
//! it), but owners delete one before closing it, so a reused descriptor
//! number never inherits its token.

#![allow(unsafe_code)]

use std::ffi::{c_int, c_long, c_void};
use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::{Duration, Instant};

/// What a registered socket is waited for, as `EPOLLIN`/`EPOLLOUT` spell
/// it. Errors and hang-ups are reported whatever was asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Nothing but errors and hang-ups.
    None = 0,
    /// Input: data, a connection to accept, end of stream.
    Read = 1,
    /// Room to write again.
    Write = 4,
}

#[derive(Clone, Copy)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
struct RawEvent(u32, u64);

/// Room for what one [`Poller::wait`] reports, and after it the report.
pub struct Events(Vec<RawEvent>);

impl Events {
    /// Room for `n` ready sockets per wait; more stay ready for the next.
    pub fn with_capacity(n: usize) -> Events {
        Events(Vec::with_capacity(n.max(1)))
    }

    /// The token of every socket the last wait found ready: its owner's
    /// next read or write will not block (it may fail, or read 0 at EOF).
    pub fn tokens(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().map(|e| e.1)
    }
}

/// A set of sockets, each registered once under a token, and the wait
/// that reports which of them are ready (module docs).
pub struct Poller {
    epoll: OwnedFd,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut RawEvent) -> c_int;
    fn epoll_pwait2(
        epfd: c_int,
        at: *mut RawEvent,
        n: c_int,
        t: *const [c_long; 2],
        mask: *const c_void,
    ) -> c_int;
}
// `EPOLL_CTL_*`.
const ADD: c_int = 1;
const DEL: c_int = 2;
const MOD: c_int = 3;

impl Poller {
    /// An empty set.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: no pointer (0o2000000 is `EPOLL_CLOEXEC`); then a
        // descriptor just opened, owned by nothing else.
        let fd = check(unsafe { epoll_create1(0o2000000) })? as RawFd;
        let poller = Poller {
            epoll: unsafe { OwnedFd::from_raw_fd(fd) },
        };
        // A kernel before 5.11 says so here, not in the middle of a run.
        let probe = poller.sys_wait(&mut Vec::with_capacity(1), Some(Duration::ZERO));
        probe.map_err(|e| io::Error::new(e.kind(), format!("epoll_pwait2: {e}")))?;
        Ok(poller)
    }

    /// Registers `fd` under `token`, the number waits report it by.
    pub fn add(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(ADD, fd.as_raw_fd(), token, interest)
    }

    /// Changes what the registered `fd` is waited for.
    pub fn modify(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(MOD, fd.as_raw_fd(), token, interest)
    }

    /// Unregisters `fd`; done before the socket is closed.
    pub fn delete(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.ctl(DEL, fd.as_raw_fd(), 0, Interest::None)
    }

    /// Blocks until a registered socket is ready or `timeout` has passed
    /// (`None` = forever; an empty set just sleeps) and leaves the ready
    /// sockets' tokens in `events`. Returns how many; an interruption by a
    /// signal is retried with what is left of the timeout.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            match self.sys_wait(&mut events.0, left) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                ready => return ready,
            }
        }
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut event = RawEvent(interest as u32, token);
        // SAFETY: module docs — one live local event.
        check(unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut event) }).map(drop)
    }

    fn sys_wait(&self, buf: &mut Vec<RawEvent>, timeout: Option<Duration>) -> io::Result<usize> {
        let ts = timeout.map(|t| [t.as_secs() as c_long, t.subsec_nanos() as c_long]);
        let ts = ts.as_ref().map_or(std::ptr::null(), std::ptr::from_ref);
        buf.clear();
        let (ep, at, max) = (
            self.epoll.as_raw_fd(),
            buf.as_mut_ptr(),
            buf.capacity().min(1 << 30),
        );
        // SAFETY: module docs — room for `max` events, a live or null
        // timespec, no mask; then the count the kernel filled (<= `max`).
        unsafe {
            let ready = check(epoll_pwait2(ep, at, max as c_int, ts, std::ptr::null()))?;
            buf.set_len(ready);
            Ok(ready)
        }
    }
}

/// A C call's result: negative means `errno` says why.
fn check(ret: c_int) -> io::Result<usize> {
    usize::try_from(ret).map_err(|_| io::Error::last_os_error())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::{Mutex, MutexGuard};

    /// Every test that opens a descriptor (a socket, an epoll set) holds
    /// this, so that the descriptor one of them closes is the lowest free
    /// one when it opens the next.
    fn alone() -> MutexGuard<'static, ()> {
        static SOCKETS: Mutex<()> = Mutex::new(());
        SOCKETS.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let a = TcpStream::connect(l.local_addr().expect("addr")).expect("connect");
        let (b, _) = l.accept().expect("accept");
        (a, b)
    }

    fn wait(p: &Poller, timeout: Duration) -> Vec<u64> {
        let mut events = Events::with_capacity(8);
        let n = p.wait(&mut events, Some(timeout)).expect("wait");
        let tokens: Vec<u64> = events.tokens().collect();
        assert_eq!(n, tokens.len());
        tokens
    }

    const SOON: Duration = Duration::from_secs(5);

    #[test]
    fn readable_after_the_peer_writes_and_again_at_end_of_stream() {
        let _alone = alone();
        let (mut a, b) = pair();
        let p = Poller::new().expect("poller");
        p.add(&b, 7, Interest::Read).expect("add");
        assert!(wait(&p, Duration::ZERO).is_empty());
        a.write_all(b"x").expect("write");
        assert_eq!(wait(&p, SOON), [7]);
        // Level-triggered: still ready until read.
        assert_eq!(wait(&p, Duration::ZERO), [7]);
        let mut byte = [0u8; 1];
        (&b).read_exact(&mut byte).expect("the byte");
        assert!(wait(&p, Duration::ZERO).is_empty());
        // End of stream is input too: the owner must see the 0-byte read.
        drop(a);
        assert_eq!(wait(&p, SOON), [7]);
    }

    #[test]
    fn write_interest_is_silent_on_a_full_buffer_and_fires_after_a_drain() {
        let _alone = alone();
        let (mut a, mut b) = pair();
        a.set_nonblocking(true).expect("nonblocking");
        let p = Poller::new().expect("poller");
        p.add(&a, 1, Interest::None).expect("add");
        assert!(wait(&p, Duration::ZERO).is_empty(), "room, but not asked");
        p.modify(&a, 1, Interest::Write).expect("modify");
        assert_eq!(wait(&p, Duration::ZERO), [1]);
        let chunk = [0u8; 64 << 10];
        let mut sent = 0usize;
        loop {
            match a.write(&chunk) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("write: {e}"),
            }
        }
        assert!(wait(&p, Duration::from_millis(5)).is_empty());
        let mut sink = vec![0u8; sent];
        b.read_exact(&mut sink).expect("drain");
        assert_eq!(wait(&p, SOON), [1]);
    }

    #[test]
    fn timeout_has_microsecond_floor_and_no_millisecond_ceiling() {
        let _alone = alone();
        let (a, _b) = pair();
        let p = Poller::new().expect("poller");
        p.add(&a, 1, Interest::Read).expect("add");
        let t = Instant::now();
        assert!(wait(&p, Duration::from_millis(2)).is_empty());
        let took = t.elapsed();
        assert!(took >= Duration::from_millis(2), "returned early: {took:?}");
        assert!(took < Duration::from_millis(20), "overslept: {took:?}");
    }

    #[test]
    fn empty_set_just_sleeps() {
        let _alone = alone();
        let p = Poller::new().expect("poller");
        let t = Instant::now();
        assert!(wait(&p, Duration::from_micros(500)).is_empty());
        assert!(t.elapsed() >= Duration::from_micros(500));
    }

    #[test]
    fn a_reused_descriptor_reports_only_its_new_token() {
        let _alone = alone();
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = l.local_addr().expect("addr");
        let _a = TcpStream::connect(addr).expect("connect");
        let (b, _) = l.accept().expect("accept");
        let p = Poller::new().expect("poller");
        p.add(&b, 1, Interest::Read).expect("add");
        let fd = b.as_raw_fd();
        p.delete(&b).expect("delete");
        drop(b);
        let c = TcpStream::connect(addr).expect("connect");
        assert_eq!(c.as_raw_fd(), fd, "the lowest free descriptor is reused");
        let (mut d, _) = l.accept().expect("accept");
        p.add(&c, 2, Interest::Read).expect("add under a new token");
        d.write_all(b"x").expect("write");
        assert_eq!(wait(&p, SOON), [2]);
        assert!(p.delete(&d).is_err(), "never registered");
    }
}
