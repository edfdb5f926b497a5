//! Kernel-to-kernel relay — origin socket → pipe → client socket with
//! `splice(2)` — so tail bytes the policy will not keep never enter user
//! space. The crate's one module with `unsafe`: `pipe2`, `splice` and
//! `fcntl` are declared by hand (the workspace has no `libc`). Linux only;
//! elsewhere [`Pipe::new`] fails and the relay keeps to its ring.
//!
//! A [`Pipe`] belongs to one worker and is empty between steps:
//! [`Pipe::fill`] starts on an empty pipe, so it never waits for room (a
//! full pipe returns a short count), and [`Pipe::drain`] takes out all the
//! fill put in. A failed drain leaves bytes behind, so its pipe must be
//! dropped, never filled again. A fill honours `SO_RCVTIMEO`. A drain
//! does not rely on `SO_SNDTIMEO`: one blocking `splice` into a socket
//! sends the pipe in batches and waits out the send timeout once per
//! batch, so the drain splices into the socket non-blocking and waits in
//! `poll` for what is left of its deadline. A write to a closed peer
//! raises `SIGPIPE`, which Rust programs ignore, so it surfaces as
//! `EPIPE`.
#![deny(clippy::undocumented_unsafe_blocks)]

#[cfg(target_os = "linux")]
pub(crate) use linux::Pipe;

#[cfg(target_os = "linux")]
mod linux {
    use std::ffi::{c_int, c_short, c_uint, c_ulong};
    use std::io;
    use std::net::TcpStream;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::ptr::null_mut;
    use std::time::{Duration, Instant};

    /// Asked for with `F_SETPIPE_SZ`, best effort: a step then moves up to
    /// 1 MiB. The kernel's 64 KiB default is just as correct.
    const PIPE_BYTES: c_int = 1 << 20;
    const O_CLOEXEC: c_int = 0o2_000_000;
    const F_SETPIPE_SZ: c_int = 1031;
    const F_GETPIPE_SZ: c_int = 1032;
    const POLLOUT: c_short = 4;

    /// `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
        fn splice(
            fd_in: c_int,
            off_in: *mut i64,
            fd_out: c_int,
            off_out: *mut i64,
            len: usize,
            flags: c_uint,
        ) -> isize;
        fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    pub(crate) struct Pipe {
        read: OwnedFd,
        write: OwnedFd,
        capacity: usize,
    }

    impl Pipe {
        /// A fresh close-on-exec pipe, enlarged if the kernel allows.
        pub(crate) fn new() -> io::Result<Pipe> {
            let mut fds: [c_int; 2] = [-1; 2];
            // SAFETY: `fds` is a writable array of two ints, as `pipe2` wants.
            if unsafe { pipe2(fds.as_mut_ptr(), O_CLOEXEC) } != 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `pipe2` succeeded, so both are open descriptors that
            // nothing else owns.
            let (read, write) =
                unsafe { (OwnedFd::from_raw_fd(fds[0]), OwnedFd::from_raw_fd(fds[1])) };
            let fd = write.as_raw_fd();
            // SAFETY: `fd` is open; both commands take at most one int.
            let size = unsafe {
                match fcntl(fd, F_SETPIPE_SZ, PIPE_BYTES) {
                    -1 => fcntl(fd, F_GETPIPE_SZ),
                    size => size,
                }
            };
            let capacity = usize::try_from(size).map_err(|_| io::Error::last_os_error())?;
            Ok(Pipe {
                read,
                write,
                capacity,
            })
        }

        /// Bytes the pipe holds when full.
        pub(crate) fn capacity(&self) -> usize {
            self.capacity
        }

        /// One `splice` of at most `max` bytes from `from` into the pipe,
        /// which must be empty; 0 means end of stream.
        pub(crate) fn fill(&mut self, from: &TcpStream, max: usize) -> io::Result<usize> {
            splice_once(from.as_raw_fd(), self.write.as_raw_fd(), max)
        }

        /// Moves exactly `n` bytes — all a fill put in — out into `to`,
        /// or fails as `TimedOut` once `deadline` passes with bytes left.
        /// `to` is non-blocking for the drain and blocking again after it.
        pub(crate) fn drain(
            &mut self,
            to: &TcpStream,
            n: usize,
            deadline: Option<Instant>,
        ) -> io::Result<()> {
            to.set_nonblocking(true)?;
            let drained = self.drain_by(to.as_raw_fd(), n, deadline);
            let restored = to.set_nonblocking(false);
            drained.and(restored)
        }

        fn drain_by(
            &mut self,
            to: RawFd,
            mut n: usize,
            deadline: Option<Instant>,
        ) -> io::Result<()> {
            while n > 0 {
                match splice_once(self.read.as_raw_fd(), to, n) {
                    Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                    Ok(moved) => n -= moved,
                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                        let left = deadline.map(|at| at.saturating_duration_since(Instant::now()));
                        if left.is_some_and(|left| left.is_zero()) {
                            return Err(io::ErrorKind::TimedOut.into());
                        }
                        wait_writable(to, left)?;
                    }
                    Err(err) => return Err(err),
                }
            }
            Ok(())
        }
    }

    /// Waits until `fd` has send-buffer room, an error or a hang-up to
    /// report, or `left` runs out (never, for `None`); the next `splice`
    /// tells which.
    fn wait_writable(fd: RawFd, left: Option<Duration>) -> io::Result<()> {
        // Whole milliseconds, rounded up so a wait never ends early.
        let timeout = left.map_or(-1, |left| {
            c_int::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
        });
        let mut pollfd = PollFd {
            fd,
            events: POLLOUT,
            revents: 0,
        };
        // SAFETY: `pollfd` is one live, writable `struct pollfd`, and `fd`
        // is borrowed from a live owner for the call.
        if unsafe { poll(&mut pollfd, 1, timeout) } < 0 {
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        Ok(())
    }

    /// One `splice` that moves bytes or fails; `EINTR` is retried.
    fn splice_once(from: RawFd, to: RawFd, len: usize) -> io::Result<usize> {
        loop {
            // SAFETY: both descriptors are borrowed from live owners for the
            // call; null offsets are what sockets and pipes take.
            let moved = unsafe { splice(from, null_mut(), to, null_mut(), len, 0) };
            if let Ok(moved) = usize::try_from(moved) {
                return Ok(moved);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// Not Linux: no pipe can be made.
#[cfg(not(target_os = "linux"))]
pub(crate) enum Pipe {}

#[cfg(not(target_os = "linux"))]
impl Pipe {
    pub(crate) fn new() -> std::io::Result<Pipe> {
        Err(std::io::ErrorKind::Unsupported.into())
    }
    pub(crate) fn capacity(&self) -> usize {
        match *self {}
    }
    pub(crate) fn fill(&mut self, _: &std::net::TcpStream, _: usize) -> std::io::Result<usize> {
        match *self {}
    }
    pub(crate) fn drain(
        &mut self,
        _: &std::net::TcpStream,
        _: usize,
        _: Option<std::time::Instant>,
    ) -> std::io::Result<()> {
        match *self {}
    }
}
