//! What the standard library does not offer: waiting on many sockets at
//! once. `poll(2)`, declared straight against the C library `std`
//! already links (the offline build has no `libc` or `mio` crate), and a
//! [`Waker`] that makes a thread blocked in it return. Unix only, like
//! the `std::os::unix` socket pair the waker is.
//!
//! This is the one module of the workspace that is allowed `unsafe`
//! code, and [`wait`] holds its one block; the crate root denies it
//! everywhere else.

use std::ffi::{c_int, c_short, c_ulong};
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// `POLLIN` in `<poll.h>` — the same value on every Unix.
const POLLIN: c_short = 0x001;

/// One `struct pollfd`: a descriptor and the readiness asked of it.
#[repr(C)]
pub(super) struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Asks whether `socket` can be read without blocking. The record
    /// holds the bare descriptor: keep `socket` open until the [`wait`]
    /// it is passed to has returned.
    pub(super) fn readable(socket: &impl AsRawFd) -> Self {
        PollFd {
            fd: socket.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] reported anything at all: bytes, a
    /// hang-up or an error — each of which the next `read` or `accept`
    /// turns into its own result.
    pub(super) fn ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Blocks until one of `fds` is ready or `timeout` elapses (`None`
/// waits for as long as it takes), and fills in every record's
/// [`PollFd::ready`]. A timeout is rounded up to the millisecond, so a
/// deadline that was due has passed once this returns.
pub(super) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    let millis = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX)
    });
    loop {
        // SAFETY: `fds` is an exclusive borrow of `fds.len()` initialised
        // `repr(C)` records laid out as `struct pollfd` (int, short,
        // short), valid for the whole call; the kernel reads `fd` and
        // `events` and writes only `revents`, and keeps no pointer once
        // the call returns. `nfds_t` is `unsigned long` on Linux.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, millis) };
        if rc >= 0 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
        // EINTR: a signal, not readiness. The retry restarts the
        // timeout, which only ever makes a deadline check late.
    }
}

/// Whether `socket` is readable right now, without blocking.
pub(super) fn readable_now(socket: &impl AsRawFd) -> bool {
    let mut fd = [PollFd::readable(socket)];
    wait(&mut fd, Some(Duration::ZERO)).is_ok() && fd[0].ready()
}

/// Makes a thread blocked in [`wait`] return: a non-blocking socket
/// pair whose read end the thread polls beside its sockets. A wake is a
/// byte, so it is latched — one that lands before the thread blocks
/// makes the next [`wait`] return at once instead of being lost.
pub(super) struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    pub(super) fn new() -> io::Result<Self> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// Wakes the owning thread. Publish what it must see *before*
    /// calling this.
    pub(super) fn wake(&self) {
        // A full pipe means wakes are already pending: nothing to add.
        let _ = (&self.tx).write(&[1]);
    }

    /// The record the owning thread polls.
    pub(super) fn pollfd(&self) -> PollFd {
        PollFd::readable(&self.rx)
    }

    /// Swallows every pending wake. Call after [`wait`] and *before*
    /// looking at the state wakers publish.
    pub(super) fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}
