//! A thin readiness-polling binding for the event-loop server.
//!
//! Each server shard needs exactly one OS facility: "tell me which of
//! these file descriptors are readable/writable". On Linux that is
//! `epoll`; everywhere else Unix-y it is `poll(2)`. Both are declared by hand
//! against the libc the Rust std already links — no new crates — and
//! wrapped in the same safe [`Poller`] API:
//!
//! * [`Poller::register`] / [`Poller::modify`] / [`Poller::deregister`]
//!   attach an [`Interest`] (read and/or write readiness) to a raw fd
//!   under a caller-chosen `u64` token;
//! * [`Poller::wait`] blocks up to a timeout and fills a buffer of
//!   [`Event`]s — token plus readable/writable/hang-up flags.
//!
//! Both backends are **level-triggered**: an fd that stays readable
//! keeps reporting, so a shard may read as little as it likes per
//! wake-up without ever losing an edge. `EINTR` surfaces as an empty
//! wait, never an error. This module is the only one in the crate
//! allowed to contain `unsafe` (the crate root is `deny(unsafe_code)`),
//! and the unsafety is confined to the two FFI calls per operation.
//!
//! One more call rides along: [`listen_deep`], which re-`listen`s a
//! bound socket with the deepest accept queue the kernel allows.

use std::io;
use std::net::TcpListener;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// Re-`listen`s `listener` with the largest backlog the kernel allows.
///
/// Std's [`TcpListener::bind`] listens with a backlog of 128, so a storm
/// of more simultaneous connects than that overflows the accept queue:
/// the kernel drops the excess SYNs and each of those clients waits out
/// a one-second retransmit. Calling `listen` again on a listening socket
/// only resizes its queue; the kernel clamps the request to its own
/// ceiling (`net.core.somaxconn` on Linux).
pub(crate) fn listen_deep(listener: &TcpListener) -> io::Result<()> {
    extern "C" {
        fn listen(fd: i32, backlog: i32) -> i32;
    }
    // SAFETY: the fd is a valid, open socket owned by `listener` for the
    // duration of the call, and `listen` takes no pointers.
    if unsafe { listen(listener.as_raw_fd(), i32::MAX) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Readiness to watch for on a registered fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Wake when the fd becomes readable (or the peer hung up).
    pub(crate) read: bool,
    /// Wake when the fd becomes writable.
    pub(crate) write: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub(crate) const READ: Interest = Interest { read: true, write: false };
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the fd was registered under.
    pub(crate) token: u64,
    /// The fd is readable (data pending or EOF observable via `read`).
    pub(crate) readable: bool,
    /// The fd is writable.
    pub(crate) writable: bool,
    /// The peer hung up or the fd errored; a subsequent read will
    /// observe EOF/error. Reported even when not asked for.
    pub(crate) hangup: bool,
}

/// A level-triggered readiness poller over raw fds; see the module
/// docs. One instance belongs to one shard thread — the type is
/// deliberately not `Sync` to keep registration single-threaded (the
/// `poll(2)` backend's registration table is plain state).
#[derive(Debug)]
pub(crate) struct Poller {
    backend: imp::Backend,
}

impl Poller {
    /// A fresh poller with no registrations.
    pub(crate) fn new() -> io::Result<Poller> {
        Ok(Poller { backend: imp::Backend::new()? })
    }

    /// Starts watching `fd` for `interest`, reporting under `token`.
    pub(crate) fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.register(fd, token, interest)
    }

    /// Changes the interest set of an already registered fd.
    pub(crate) fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.modify(fd, token, interest)
    }

    /// Stops watching `fd`. Must be called before the fd is closed.
    pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.backend.deregister(fd)
    }

    /// Blocks up to `timeout` (forever when `None`) and replaces the
    /// contents of `events` with the fds currently ready. An empty
    /// result means timeout or a benign interruption (`EINTR`).
    pub(crate) fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        self.backend.wait(events, timeout)
    }
}

/// Clamps a wait timeout to the millisecond argument both backends
/// take: `None` → block forever (-1); sub-millisecond non-zero waits
/// round *up* so a short timeout cannot busy-spin at zero.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) if d.is_zero() => 0,
        Some(d) => d.as_millis().clamp(1, i32::MAX as u128) as i32,
    }
}

#[cfg(target_os = "linux")]
mod imp {
    //! The Linux backend: one `epoll` instance, fd lifetime managed by
    //! the kernel's interest list.

    use super::{timeout_ms, Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLRDHUP: u32 = 0x2000;

    /// `struct epoll_event`. On x86-64 the kernel ABI packs it (no
    /// padding between `events` and `data`); other architectures use
    /// natural layout.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    #[derive(Debug)]
    pub(super) struct Backend {
        epfd: RawFd,
    }

    impl Backend {
        pub(super) fn new() -> io::Result<Backend> {
            // SAFETY: epoll_create1 takes no pointers; a negative
            // return is reported via errno.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Backend { epfd })
        }

        fn ctl(&mut self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut mask = EPOLLRDHUP;
            if interest.read {
                mask |= EPOLLIN;
            }
            if interest.write {
                mask |= EPOLLOUT;
            }
            let mut ev = EpollEvent { events: mask, data: token };
            // SAFETY: `ev` is a valid epoll_event for the duration of
            // the call; the kernel copies it before returning.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(super) fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub(super) fn modify(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub(super) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            // Linux < 2.6.9 required a non-null event for DEL; passing
            // one unconditionally is harmless and simpler.
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest { read: false, write: false })
        }

        pub(super) fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            events.clear();
            const CAP: usize = 1024;
            let mut buf = [EpollEvent { events: 0, data: 0 }; CAP];
            // SAFETY: `buf` is a valid array of CAP epoll_events; the
            // kernel writes at most `maxevents` entries.
            let n =
                unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), CAP as i32, timeout_ms(timeout)) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in &buf[..n as usize] {
                let mask = ev.events;
                events.push(Event {
                    token: ev.data,
                    readable: mask & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: mask & EPOLLOUT != 0,
                    hangup: mask & (EPOLLHUP | EPOLLERR) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Backend {
        fn drop(&mut self) {
            // SAFETY: epfd is a live fd this type owns exclusively.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod imp {
    //! The portable Unix backend: a registration table replayed into a
    //! `pollfd` array per wait. O(n) per wake-up, which is fine for the
    //! non-Linux development targets this fallback exists for.

    use super::{timeout_ms, Event, Interest};
    use std::collections::BTreeMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    const POLLERR: i16 = 0x8;
    const POLLHUP: i16 = 0x10;
    const POLLNVAL: i16 = 0x20;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    #[derive(Debug)]
    pub(super) struct Backend {
        registered: BTreeMap<RawFd, (u64, Interest)>,
    }

    impl Backend {
        pub(super) fn new() -> io::Result<Backend> {
            Ok(Backend { registered: BTreeMap::new() })
        }

        pub(super) fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.registered.insert(fd, (token, interest));
            Ok(())
        }

        pub(super) fn modify(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.registered.insert(fd, (token, interest));
            Ok(())
        }

        pub(super) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.registered.remove(&fd);
            Ok(())
        }

        pub(super) fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            events.clear();
            let mut fds: Vec<PollFd> = self
                .registered
                .iter()
                .map(|(&fd, &(_, interest))| {
                    let mut mask = 0;
                    if interest.read {
                        mask |= POLLIN;
                    }
                    if interest.write {
                        mask |= POLLOUT;
                    }
                    PollFd { fd, events: mask, revents: 0 }
                })
                .collect();
            if fds.is_empty() {
                // Nothing registered: sleep out the timeout instead of
                // handing poll an empty array.
                if let Some(d) = timeout {
                    std::thread::sleep(d);
                }
                return Ok(());
            }
            // SAFETY: `fds` is a valid array of pollfds for the call.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms(timeout)) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for pfd in &fds {
                if pfd.revents == 0 {
                    continue;
                }
                let (token, _) = self.registered[&pfd.fd];
                events.push(Event {
                    token,
                    readable: pfd.revents & POLLIN != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    hangup: pfd.revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    /// The kernel's accept-queue ceiling, read where Linux publishes it;
    /// elsewhere the customary 128.
    fn somaxconn() -> usize {
        std::fs::read_to_string("/proc/sys/net/core/somaxconn")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(128)
    }

    #[test]
    fn a_deep_listener_queues_more_connects_than_std_backlog() {
        use std::net::{TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listen_deep(&listener).unwrap();
        let addr = listener.local_addr().unwrap();
        // Nobody accepts: every connect must complete in the queue
        // alone. At std's backlog of 128, connects past the 129th time
        // out waiting for a SYN retransmit.
        let wanted = 300.min(somaxconn());
        let held: Vec<TcpStream> = (0..wanted)
            .map(|k| {
                TcpStream::connect_timeout(&addr, Duration::from_millis(200))
                    .unwrap_or_else(|e| panic!("connect {k} of {wanted} failed: {e}"))
            })
            .collect();
        assert_eq!(held.len(), wanted);
    }

    #[test]
    fn reports_readability_when_bytes_arrive() {
        let (mut tx, rx) = UnixStream::pair().expect("socketpair");
        rx.set_nonblocking(true).expect("nonblocking");
        let mut poller = Poller::new().expect("poller");
        poller.register(rx.as_raw_fd(), 7, Interest::READ).expect("register");

        let mut events = Vec::new();
        // Nothing pending: a zero-ish timeout comes back empty.
        poller.wait(&mut events, Some(Duration::from_millis(1))).expect("wait");
        assert!(events.is_empty());

        tx.write_all(b"x").expect("write");
        poller.wait(&mut events, Some(Duration::from_secs(5))).expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Level-triggered: still readable until drained.
        poller.wait(&mut events, Some(Duration::from_millis(1))).expect("wait");
        assert_eq!(events.len(), 1);
        let mut buf = [0u8; 8];
        let n = (&rx).read(&mut buf).expect("read");
        assert_eq!(n, 1);
        poller.wait(&mut events, Some(Duration::from_millis(1))).expect("wait");
        assert!(events.is_empty());

        poller.deregister(rx.as_raw_fd()).expect("deregister");
    }

    #[test]
    fn modify_flips_write_interest_and_hangup_is_always_reported() {
        let (tx, rx) = UnixStream::pair().expect("socketpair");
        tx.set_nonblocking(true).expect("nonblocking");
        let mut poller = Poller::new().expect("poller");
        // Register write-side with no interest bits: hangup must still
        // be reported once the peer goes away.
        poller
            .register(tx.as_raw_fd(), 1, Interest { read: false, write: false })
            .expect("register");

        let mut events = Vec::new();
        poller.modify(tx.as_raw_fd(), 1, Interest { read: false, write: true }).expect("modify");
        poller.wait(&mut events, Some(Duration::from_secs(5))).expect("wait");
        assert!(events.iter().any(|e| e.token == 1 && e.writable), "socket should be writable");

        drop(rx);
        poller.modify(tx.as_raw_fd(), 1, Interest { read: false, write: false }).expect("modify");
        poller.wait(&mut events, Some(Duration::from_secs(5))).expect("wait");
        assert!(events.iter().any(|e| e.token == 1 && e.hangup), "peer drop should report hangup");
    }
}
