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
//! dropped, never filled again. Both honour `SO_RCVTIMEO` / `SO_SNDTIMEO`;
//! a write to a closed peer raises `SIGPIPE`, which Rust programs ignore,
//! so it surfaces as `EPIPE`.
#![deny(clippy::undocumented_unsafe_blocks)]

#[cfg(target_os = "linux")]
pub(crate) use linux::Pipe;

#[cfg(target_os = "linux")]
mod linux {
    use std::ffi::{c_int, c_uint};
    use std::io;
    use std::net::TcpStream;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::ptr::null_mut;

    /// Asked for with `F_SETPIPE_SZ`, best effort: a step then moves up to
    /// 1 MiB. The kernel's 64 KiB default is just as correct.
    const PIPE_BYTES: c_int = 1 << 20;
    const O_CLOEXEC: c_int = 0o2_000_000;
    const F_SETPIPE_SZ: c_int = 1031;
    const F_GETPIPE_SZ: c_int = 1032;

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

        /// Moves exactly `n` bytes — all a fill put in — out into `to`.
        pub(crate) fn drain(&mut self, to: &TcpStream, mut n: usize) -> io::Result<()> {
            while n > 0 {
                match splice_once(self.read.as_raw_fd(), to.as_raw_fd(), n)? {
                    0 => return Err(io::ErrorKind::WriteZero.into()),
                    moved => n -= moved,
                }
            }
            Ok(())
        }
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
    pub(crate) fn drain(&mut self, _: &std::net::TcpStream, _: usize) -> std::io::Result<()> {
        match *self {}
    }
}
