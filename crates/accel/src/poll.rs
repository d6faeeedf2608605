//! Readiness wait over `ppoll(2)`: the one system call the TCP runtime
//! needs that `std` does not wrap, and the workspace's only FFI, declared
//! against the libc `std` already links.
//!
//! Safety argument. The kernel reads and writes exactly `n` `struct
//! pollfd` at `fds`, reads one `struct timespec` (or takes milliseconds by
//! value) and keeps no pointer once it returns. [`PollFd`] is `repr(C)`
//! with `pollfd`'s fields (`int`, `short`, `short` on every unix); pointer
//! and count come from one live `&mut [PollFd]`; the timespec is a local
//! of two `long`s, the layout of Linux's `ppoll` symbol; the signal mask is
//! null (unchanged). A descriptor that is closed or was never open is not
//! a memory-safety matter: the kernel answers `POLLNVAL`, which reads here
//! as ready, so its owner's next read or write surfaces the error.

#![allow(unsafe_code)]

use std::ffi::{c_int, c_long, c_void};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

const POLLIN: i16 = 0x01;
const POLLOUT: i16 = 0x04;
/// `POLLERR | POLLHUP | POLLNVAL`: reported whatever was asked for.
const POLLDEAD: i16 = 0x08 | 0x10 | 0x20;

/// One descriptor of a [`poll`] set: what to wait for, and what happened.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Waits for `fd` to take output again if `write`, else to have input
    /// (data, a connection to accept, end of stream).
    pub fn new(fd: &impl AsRawFd, write: bool) -> Self {
        PollFd {
            fd: fd.as_raw_fd(),
            events: if write { POLLOUT } else { POLLIN },
            revents: 0,
        }
    }

    /// Whether what was waited for came: the read or write will not block
    /// (it may return an error, or 0 at end of stream).
    pub fn is_ready(&self) -> bool {
        self.revents & (self.events | POLLDEAD) != 0
    }
}

#[cfg(target_os = "linux")]
fn sys_poll(fds: &mut [PollFd], timeout: Option<Duration>) -> c_int {
    #[repr(C)]
    struct Timespec(c_long, c_long);
    extern "C" {
        fn ppoll(fds: *mut PollFd, n: usize, t: *const Timespec, mask: *const c_void) -> c_int;
    }
    let ts = timeout.map(|t| Timespec(t.as_secs() as c_long, t.subsec_nanos() as c_long));
    let ts = ts.as_ref().map_or(std::ptr::null(), std::ptr::from_ref);
    // SAFETY: module docs — a live slice, a live or null timespec, no mask.
    unsafe { ppoll(fds.as_mut_ptr(), fds.len(), ts, std::ptr::null()) }
}

#[cfg(not(target_os = "linux"))]
fn sys_poll(fds: &mut [PollFd], timeout: Option<Duration>) -> c_int {
    extern "C" {
        fn poll(fds: *mut PollFd, n: std::ffi::c_uint, ms: c_int) -> c_int;
    }
    let ms = timeout.map_or(-1, |t| {
        t.as_nanos().div_ceil(1_000_000).min(1 << 30) as c_int
    });
    // SAFETY: module docs — a live slice and its length.
    unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_uint, ms) }
}

/// Blocks until a descriptor of `fds` is ready or `timeout` has passed
/// (microsecond resolution on Linux; `None` = forever; an empty set just
/// sleeps). Returns how many entries are ready; an interruption by a
/// signal is retried with what is left of the timeout.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize> {
    let deadline = timeout.map(|t| Instant::now() + t);
    loop {
        let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        let ready = sys_poll(fds, left);
        if ready >= 0 {
            return Ok(ready as usize);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let a = TcpStream::connect(l.local_addr().expect("addr")).expect("connect");
        let (b, _) = l.accept().expect("accept");
        (a, b)
    }

    #[test]
    fn timeout_has_microsecond_floor_and_no_millisecond_ceiling() {
        let (a, _b) = pair();
        let mut fds = [PollFd::new(&a, false)];
        let t = Instant::now();
        assert_eq!(
            poll(&mut fds, Some(Duration::from_millis(2))).expect("poll"),
            0
        );
        let took = t.elapsed();
        assert!(took >= Duration::from_millis(2), "returned early: {took:?}");
        assert!(took < Duration::from_millis(20), "overslept: {took:?}");
        assert!(!fds[0].is_ready());
    }

    #[test]
    fn empty_set_just_sleeps() {
        let t = Instant::now();
        assert_eq!(
            poll(&mut [], Some(Duration::from_micros(500))).expect("poll"),
            0
        );
        assert!(t.elapsed() >= Duration::from_micros(500));
    }

    #[test]
    fn socket_turns_readable_after_its_peer_writes() {
        let (mut a, b) = pair();
        let mut fds = [PollFd::new(&b, false)];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).expect("poll"), 0);
        a.write_all(b"x").expect("write");
        assert_eq!(
            poll(&mut fds, Some(Duration::from_secs(5))).expect("poll"),
            1
        );
        assert!(fds[0].is_ready());
        // End of stream is input too: the owner must see the 0-byte read.
        drop(a);
        let mut byte = [0u8; 1];
        (&b).read_exact(&mut byte).expect("the byte");
        assert_eq!(
            poll(&mut fds, Some(Duration::from_secs(5))).expect("poll"),
            1
        );
        assert!(fds[0].is_ready());
    }

    #[test]
    fn writability_is_withdrawn_on_a_full_buffer_and_returns_after_a_read() {
        let (mut a, mut b) = pair();
        a.set_nonblocking(true).expect("nonblocking");
        let mut fds = [PollFd::new(&a, true)];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).expect("poll"), 1);
        assert!(fds[0].is_ready());
        let chunk = [0u8; 64 << 10];
        let mut sent = 0usize;
        loop {
            match a.write(&chunk) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("write: {e}"),
            }
        }
        assert_eq!(
            poll(&mut fds, Some(Duration::from_millis(5))).expect("poll"),
            0
        );
        assert!(!fds[0].is_ready());
        let mut sink = vec![0u8; sent];
        b.read_exact(&mut sink).expect("drain");
        assert_eq!(
            poll(&mut fds, Some(Duration::from_secs(5))).expect("poll"),
            1
        );
        assert!(fds[0].is_ready());
    }
}
