//! The nonblocking (epoll/kqueue) reactor front-end.
//!
//! Thread-per-connection serves this workload fine until fan-in becomes
//! the bottleneck: a million-client collection deployment means tens of
//! thousands of mostly-idle connections, and a thread apiece for them
//! buys nothing but stack reservations and scheduler pressure. This
//! module serves every wire framing — the line-JSON/binary codec and
//! the HTTP/1.1 codec of [`crate::framing`] — from a small, fixed set
//! of event-loop threads instead (`frapp-serve --async`,
//! [`crate::config::ServiceConfig::async_reactor`]).
//!
//! Three design rules keep it honest:
//!
//! 1. **Same codecs, same dispatch core, bit-identical responses.**
//!    Nothing protocol-shaped lives here: each connection owns the
//!    *same* `crate::framing::FrameCodec` the threaded front-ends
//!    drive, stepped incrementally over whatever bytes have arrived;
//!    `tests/reactor.rs` asserts raw byte parity against the threaded
//!    front-ends. Dispatch itself runs *off* the event loop: buffered
//!    input and the connection's codec are handed to the shared offload
//!    pool (`crate::dispatch::OffloadExecutor`, one in-flight job per
//!    connection so per-connection ordering holds) and the responses
//!    come back through a wake pipe — so a dispatch that blocks (a
//!    federated fan-out barrier, a persistence fsync) stalls one
//!    worker, never the reactor.
//! 2. **No new dependencies.** The poller is a ~150-line `sys` shim of
//!    raw `extern "C"` syscall declarations — `epoll` on Linux/Android,
//!    `kqueue` on the BSDs and macOS — resolved by the libc that `std`
//!    already links. The data path uses `readv`/`writev` the same way:
//!    one syscall fills the connection buffer *and* an overflow scratch,
//!    one syscall flushes a whole queue of response chunks, no
//!    coalescing copy. Unsupported platforms refuse `--async` at
//!    startup with a clear error instead of failing at build time.
//! 3. **Backpressure by interest, not by blocking.** Each connection
//!    owns a read buffer (incomplete frames wait in it) and a write
//!    queue (unflushed response chunks wait in it). A peer that stops
//!    reading gets its responses parked in the queue; past a high-water
//!    mark the reactor *de-registers read interest* so the connection
//!    stops producing new work until the peer drains — memory per slow
//!    client stays bounded without stalling the loop.
//!
//! Sharding: with `--reactor-threads N`, every reactor thread runs its
//! own poller and registers *both* listeners (via dup'd fds), so
//! accepted connections spread across reactors without a handoff
//! queue; a connection lives on the reactor that accepted it for its
//! whole life, which keeps every per-connection structure single-
//! threaded. On Linux the listeners register with `EPOLLEXCLUSIVE`, so
//! one pending accept wakes one sibling instead of the whole shard set
//! (the thundering herd that otherwise taxes every added reactor).
//! Shutdown is cooperative: the poll timeout doubles as a shutdown-flag
//! check, exactly like the threaded loops' read timeouts.

use crate::error::{Result, ServiceError};
use crate::framing::{FrameCodec, HttpFraming, LineFraming, Signals, Step};
use crate::http;
use crate::server::{AcceptBackoff, ConnGuard, Shared, Transport};
use crate::wire::Counter;
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

#[cfg(unix)]
use std::collections::VecDeque;
#[cfg(unix)]
use std::io::{Read, Write};
#[cfg(unix)]
use std::os::unix::io::{AsRawFd, RawFd};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::sync::Mutex;

/// Raw syscall shim for the platform's readiness API. No `libc` crate:
/// these symbols live in the C library `std` already links against.
#[cfg(unix)]
mod sys {
    /// One readiness event, normalized across backends.
    #[derive(Debug, Clone, Copy)]
    pub struct Event {
        /// The registration token (connection id or listener marker).
        pub token: u64,
        /// Readable, or the peer hung up / errored (reads will resolve
        /// the condition either way).
        pub readable: bool,
        /// Writable.
        pub writable: bool,
    }

    #[cfg(any(target_os = "linux", target_os = "android"))]
    mod imp {
        use super::Event;
        use std::io;

        // The kernel ABI packs epoll_event on x86-64 (and only there).
        #[repr(C)]
        #[cfg_attr(target_arch = "x86_64", repr(packed))]
        #[derive(Clone, Copy)]
        struct EpollEvent {
            events: u32,
            data: u64,
        }

        const EPOLLIN: u32 = 0x001;
        const EPOLLOUT: u32 = 0x004;
        const EPOLLERR: u32 = 0x008;
        const EPOLLHUP: u32 = 0x010;
        const EPOLLRDHUP: u32 = 0x2000;
        const EPOLLEXCLUSIVE: u32 = 1 << 28;
        const EPOLL_CTL_ADD: i32 = 1;
        const EPOLL_CTL_DEL: i32 = 2;
        const EPOLL_CTL_MOD: i32 = 3;
        const EPOLL_CLOEXEC: i32 = 0o2000000;
        const EINTR: i32 = 4;

        extern "C" {
            fn epoll_create1(flags: i32) -> i32;
            fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
            fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
            fn close(fd: i32) -> i32;
        }

        fn cvt(ret: i32) -> io::Result<i32> {
            if ret < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(ret)
            }
        }

        /// An epoll instance (level-triggered).
        pub struct Poller {
            epfd: i32,
        }

        impl Poller {
            pub fn new() -> io::Result<Self> {
                let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
                Ok(Poller { epfd })
            }

            fn ctl_raw(&self, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
                let mut ev = EpollEvent {
                    events,
                    data: token,
                };
                cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
            }

            fn ctl(
                &self,
                op: i32,
                fd: i32,
                token: u64,
                readable: bool,
                writable: bool,
            ) -> io::Result<()> {
                let events = if readable { EPOLLIN | EPOLLRDHUP } else { 0 }
                    | if writable { EPOLLOUT } else { 0 };
                self.ctl_raw(op, fd, events, token)
            }

            pub fn add(&self, fd: i32, token: u64, writable: bool) -> io::Result<()> {
                self.ctl(EPOLL_CTL_ADD, fd, token, true, writable)
            }

            /// Registers a listener fd shared with sibling pollers:
            /// `EPOLLEXCLUSIVE` wakes one waiter per pending accept
            /// instead of every reactor that registered the fd. Fails
            /// on pre-4.5 kernels — callers fall back to [`Self::add`].
            pub fn add_shared(&self, fd: i32, token: u64) -> io::Result<()> {
                self.ctl_raw(EPOLL_CTL_ADD, fd, EPOLLIN | EPOLLEXCLUSIVE, token)
            }

            /// Replaces the fd's interest set. Dropping `readable` is
            /// real deregistration: a paused connection with unread
            /// socket bytes must NOT keep waking the level-triggered
            /// loop. (`EPOLLERR`/`EPOLLHUP` are always reported
            /// regardless, so a dead peer still surfaces.)
            pub fn modify(
                &self,
                fd: i32,
                token: u64,
                readable: bool,
                writable: bool,
            ) -> io::Result<()> {
                self.ctl(EPOLL_CTL_MOD, fd, token, readable, writable)
            }

            pub fn delete(&self, fd: i32) -> io::Result<()> {
                // The event argument must be non-null on pre-2.6.9
                // kernels; pass one unconditionally.
                let mut ev = EpollEvent { events: 0, data: 0 };
                cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
            }

            pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
                out.clear();
                let mut events = [EpollEvent { events: 0, data: 0 }; 256];
                let n = unsafe {
                    epoll_wait(
                        self.epfd,
                        events.as_mut_ptr(),
                        events.len() as i32,
                        timeout_ms,
                    )
                };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.raw_os_error() == Some(EINTR) {
                        return Ok(()); // a signal; treat as a timeout
                    }
                    return Err(err);
                }
                for e in &events[..n as usize] {
                    // Copy out of the (possibly packed) struct before
                    // taking references.
                    let (bits, data) = (e.events, e.data);
                    out.push(Event {
                        token: data,
                        readable: bits & (EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0,
                        writable: bits & (EPOLLOUT | EPOLLERR) != 0,
                    });
                }
                Ok(())
            }
        }

        impl Drop for Poller {
            fn drop(&mut self) {
                unsafe { close(self.epfd) };
            }
        }
    }

    #[cfg(any(
        target_os = "macos",
        target_os = "ios",
        target_os = "freebsd",
        target_os = "netbsd",
        target_os = "openbsd",
        target_os = "dragonfly"
    ))]
    mod imp {
        use super::Event;
        use std::io;

        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }

        // The classic (pre-kevent64) struct kevent layout shared by
        // macOS and the BSDs: ident is uintptr_t, udata a pointer.
        #[repr(C)]
        #[derive(Clone, Copy)]
        struct Kevent {
            ident: usize,
            filter: i16,
            flags: u16,
            fflags: u32,
            data: isize,
            udata: *mut std::ffi::c_void,
        }

        const EVFILT_READ: i16 = -1;
        const EVFILT_WRITE: i16 = -2;
        const EV_ADD: u16 = 0x0001;
        const EV_DELETE: u16 = 0x0002;
        const EV_ERROR: u16 = 0x4000;
        const EINTR: i32 = 4;
        const ENOENT: i32 = 2;

        extern "C" {
            fn kqueue() -> i32;
            fn kevent(
                kq: i32,
                changelist: *const Kevent,
                nchanges: i32,
                eventlist: *mut Kevent,
                nevents: i32,
                timeout: *const Timespec,
            ) -> i32;
            fn close(fd: i32) -> i32;
        }

        /// A kqueue instance (level-triggered filters).
        pub struct Poller {
            kq: i32,
        }

        impl Poller {
            pub fn new() -> io::Result<Self> {
                let kq = unsafe { kqueue() };
                if kq < 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(Poller { kq })
            }

            fn change(&self, fd: i32, filter: i16, flags: u16, token: u64) -> io::Result<()> {
                let change = Kevent {
                    ident: fd as usize,
                    filter,
                    flags,
                    fflags: 0,
                    data: 0,
                    udata: token as *mut std::ffi::c_void,
                };
                let ret = unsafe {
                    kevent(
                        self.kq,
                        &change,
                        1,
                        std::ptr::null_mut(),
                        0,
                        std::ptr::null(),
                    )
                };
                if ret < 0 {
                    let err = io::Error::last_os_error();
                    // Deleting a never-registered write filter is fine.
                    if flags & EV_DELETE != 0 && err.raw_os_error() == Some(ENOENT) {
                        return Ok(());
                    }
                    return Err(err);
                }
                Ok(())
            }

            pub fn add(&self, fd: i32, token: u64, writable: bool) -> io::Result<()> {
                self.change(fd, EVFILT_READ, EV_ADD, token)?;
                if writable {
                    self.change(fd, EVFILT_WRITE, EV_ADD, token)?;
                }
                Ok(())
            }

            /// kqueue has no `EPOLLEXCLUSIVE` analogue; a shared
            /// listener registers like any other fd.
            pub fn add_shared(&self, fd: i32, token: u64) -> io::Result<()> {
                self.add(fd, token, false)
            }

            /// Replaces the fd's interest set; both filters toggle
            /// (deleting an absent filter is tolerated above).
            pub fn modify(
                &self,
                fd: i32,
                token: u64,
                readable: bool,
                writable: bool,
            ) -> io::Result<()> {
                let read_flags = if readable { EV_ADD } else { EV_DELETE };
                self.change(fd, EVFILT_READ, read_flags, token)?;
                let write_flags = if writable { EV_ADD } else { EV_DELETE };
                self.change(fd, EVFILT_WRITE, write_flags, token)
            }

            pub fn delete(&self, fd: i32) -> io::Result<()> {
                self.change(fd, EVFILT_READ, EV_DELETE, 0)?;
                self.change(fd, EVFILT_WRITE, EV_DELETE, 0)
            }

            pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
                out.clear();
                let timeout = Timespec {
                    tv_sec: (timeout_ms / 1000) as i64,
                    tv_nsec: (timeout_ms % 1000) as i64 * 1_000_000,
                };
                let mut events = [Kevent {
                    ident: 0,
                    filter: 0,
                    flags: 0,
                    fflags: 0,
                    data: 0,
                    udata: std::ptr::null_mut(),
                }; 256];
                let n = unsafe {
                    kevent(
                        self.kq,
                        std::ptr::null(),
                        0,
                        events.as_mut_ptr(),
                        events.len() as i32,
                        &timeout,
                    )
                };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.raw_os_error() == Some(EINTR) {
                        return Ok(());
                    }
                    return Err(err);
                }
                for e in &events[..n as usize] {
                    if e.flags & EV_ERROR != 0 {
                        continue;
                    }
                    out.push(Event {
                        token: e.udata as u64,
                        readable: e.filter == EVFILT_READ,
                        writable: e.filter == EVFILT_WRITE,
                    });
                }
                Ok(())
            }
        }

        impl Drop for Poller {
            fn drop(&mut self) {
                unsafe { close(self.kq) };
            }
        }
    }

    #[cfg(not(any(
        target_os = "linux",
        target_os = "android",
        target_os = "macos",
        target_os = "ios",
        target_os = "freebsd",
        target_os = "netbsd",
        target_os = "openbsd",
        target_os = "dragonfly"
    )))]
    mod imp {
        use super::Event;
        use std::io;

        /// Stub for unix platforms without an epoll/kqueue shim.
        pub struct Poller;

        impl Poller {
            pub fn new() -> io::Result<Self> {
                Err(Self::unsupported())
            }
            fn unsupported() -> io::Error {
                io::Error::new(
                    io::ErrorKind::Unsupported,
                    "the async reactor front-end has no poller shim for this platform",
                )
            }
            pub fn add(&self, _: i32, _: u64, _: bool) -> io::Result<()> {
                Err(Self::unsupported())
            }
            pub fn add_shared(&self, _: i32, _: u64) -> io::Result<()> {
                Err(Self::unsupported())
            }
            pub fn modify(&self, _: i32, _: u64, _: bool, _: bool) -> io::Result<()> {
                Err(Self::unsupported())
            }
            pub fn delete(&self, _: i32) -> io::Result<()> {
                Err(Self::unsupported())
            }
            pub fn wait(&self, _: &mut Vec<Event>, _: i32) -> io::Result<()> {
                Err(Self::unsupported())
            }
        }
    }

    pub use imp::Poller;

    /// Sanity coverage for the shim itself: readiness on real sockets.
    #[cfg(all(test, any(target_os = "linux", target_os = "android")))]
    mod tests {
        use super::*;
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        use std::os::unix::io::AsRawFd;

        #[test]
        fn poller_times_out_empty_and_reports_listener_readiness() {
            let poller = Poller::new().unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.set_nonblocking(true).unwrap();
            poller.add(listener.as_raw_fd(), 7, false).unwrap();
            let mut events = Vec::new();
            poller.wait(&mut events, 0).unwrap();
            assert!(events.is_empty(), "idle listener must not be ready");

            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            client.write_all(b"x").unwrap();
            // Readiness may take a beat on a loaded machine.
            for _ in 0..100 {
                poller.wait(&mut events, 50).unwrap();
                if !events.is_empty() {
                    break;
                }
            }
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable);
            poller.delete(listener.as_raw_fd()).unwrap();
        }
    }
}

/// Vectored I/O shim: `readv`/`writev`, straight from the platform's
/// libc. One syscall moves several buffers, which is the difference
/// between "append to the read buffer, overflow into scratch" or
/// "flush a queue of response chunks" costing one kernel crossing or
/// several.
#[cfg(unix)]
mod sys_io {
    use std::io;

    /// `struct iovec` from `<sys/uio.h>` — the layout every unix
    /// shares: a base pointer and a length.
    #[repr(C)]
    pub struct IoVec {
        pub base: *mut std::ffi::c_void,
        pub len: usize,
    }

    extern "C" {
        fn readv(fd: i32, iov: *const IoVec, iovcnt: i32) -> isize;
        fn writev(fd: i32, iov: *const IoVec, iovcnt: i32) -> isize;
    }

    pub fn readv_fd(fd: i32, iov: &mut [IoVec]) -> io::Result<usize> {
        let n = unsafe { readv(fd, iov.as_ptr(), iov.len() as i32) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(n as usize)
        }
    }

    pub fn writev_fd(fd: i32, iov: &[IoVec]) -> io::Result<usize> {
        let n = unsafe { writev(fd, iov.as_ptr(), iov.len() as i32) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(n as usize)
        }
    }
}

/// How long one `wait` blocks before re-checking the shutdown flag —
/// the reactor's analogue of the threaded loops' 200 ms read timeout.
const POLL_TIMEOUT_MS: i32 = 50;

/// Pending-output threshold past which a connection's *read* interest
/// is dropped: a peer that will not drain its responses stops being
/// allowed to submit new work until it does.
const WRITE_HIGH_WATER: usize = 256 * 1024;

/// How many rounds of offload completions one wakeup applies before
/// returning to the poller. Applying a completion often starts the
/// connection's next job, and small cached dispatches finish fast
/// enough to land while later completions are still being applied;
/// re-draining keeps those chains moving inside one wakeup instead of
/// paying poll latency per round trip — bounded, so a pathological
/// ping-pong cannot starve accepts and socket events.
#[cfg(unix)]
const COMPLETION_DRAIN_ROUNDS: usize = 4;

/// Registration token of the line-protocol listener.
const TOKEN_LINE: u64 = 0;
/// Registration token of the HTTP listener.
const TOKEN_HTTP: u64 = 1;
/// Registration token of the completion-queue wake pipe.
const TOKEN_WAKE: u64 = 2;
/// First token handed to an accepted connection. Tokens are monotonic
/// and never reused, so a completion for a connection that died while
/// its job was in flight can never be misdelivered to a newcomer.
const TOKEN_FIRST_CONN: u64 = 3;

/// Per-connection input cap: one maximal frame of either protocol plus
/// one scratch read of pipelined follow-ups. Past this the reactor
/// stops *reading* (backpressure), and the offload worker's own frame
/// bounds turn a genuinely oversized single frame into a close.
#[cfg(unix)]
fn read_cap(shared: &Shared) -> usize {
    shared.config.max_line_bytes + http::MAX_HEAD_BYTES + 64 * 1024
}

/// Runs the reactor front-end over the given listeners until the shared
/// shutdown flag is set. Spawns `config.reactor_threads - 1` sibling
/// reactors (each with dup'd listener fds and its own poller) and runs
/// the last one on the calling thread.
#[cfg(unix)]
pub(crate) fn run(
    listener: TcpListener,
    http_listener: Option<TcpListener>,
    shared: &Arc<Shared>,
) -> Result<()> {
    listener.set_nonblocking(true)?;
    if let Some(l) = &http_listener {
        l.set_nonblocking(true)?;
    }
    let threads = shared.config.reactor_threads.max(1);
    let mut siblings = Vec::new();
    for i in 1..threads {
        let listener = listener.try_clone()?;
        let http_listener = http_listener
            .as_ref()
            .map(TcpListener::try_clone)
            .transpose()?;
        let shared = Arc::clone(shared);
        siblings.push(
            std::thread::Builder::new()
                .name(format!("frapp-reactor-{i}"))
                .spawn(move || {
                    if let Err(e) = reactor_loop(listener, http_listener, &shared) {
                        eprintln!("frapp-service: reactor {i} failed: {e}");
                        // A dead sibling must not leave the server
                        // half-alive and unkillable.
                        shared.shutdown.store(true, Ordering::SeqCst);
                    }
                })?,
        );
    }
    let result = reactor_loop(listener, http_listener, shared);
    if result.is_err() {
        shared.shutdown.store(true, Ordering::SeqCst);
    }
    for s in siblings {
        let _ = s.join();
    }
    result
}

/// Non-unix stub: `AsRawFd` does not exist here, so `--async` is
/// refused at startup.
#[cfg(not(unix))]
pub(crate) fn run(
    _listener: TcpListener,
    _http_listener: Option<TcpListener>,
    _shared: &Arc<Shared>,
) -> Result<()> {
    Err(ServiceError::InvalidRequest(
        "the async reactor front-end requires a unix platform; \
         run without --async"
            .into(),
    ))
}

/// Unflushed response chunks, in wire order. Completions push their
/// output buffers here *whole* — no coalescing copy into one flat
/// buffer — and [`flush_writes`] hands the queue to `writev` as an
/// iovec array, so the copy that `write_buf.extend_from_slice` used to
/// pay per response simply does not happen.
#[cfg(unix)]
struct WriteQueue {
    chunks: VecDeque<Vec<u8>>,
    /// How far into `chunks[0]` earlier short writes got.
    pos: usize,
    /// Total unwritten bytes across all chunks.
    pending: usize,
}

#[cfg(unix)]
impl WriteQueue {
    fn new() -> Self {
        WriteQueue {
            chunks: VecDeque::new(),
            pos: 0,
            pending: 0,
        }
    }

    fn pending(&self) -> usize {
        self.pending
    }

    fn push(&mut self, chunk: Vec<u8>) {
        if chunk.is_empty() {
            return;
        }
        self.pending += chunk.len();
        self.chunks.push_back(chunk);
    }

    /// Records `n` bytes as written, dropping drained chunks.
    fn advance(&mut self, mut n: usize) {
        self.pending -= n;
        while n > 0 {
            let Some(front) = self.chunks.front() else {
                return;
            };
            let remaining = front.len() - self.pos;
            if n >= remaining {
                n -= remaining;
                self.chunks.pop_front();
                self.pos = 0;
            } else {
                self.pos += n;
                return;
            }
        }
    }
}

/// One registered connection: its socket, admission guard, framing
/// codec and elastic buffers.
#[cfg(unix)]
struct Conn {
    stream: TcpStream,
    fd: RawFd,
    _guard: ConnGuard,
    /// The connection's framing codec — `None` while an offload job
    /// holds it (at most one job per connection is ever in flight,
    /// which is what keeps responses ordered).
    codec: Option<Box<dyn FrameCodec>>,
    /// Raw unconsumed input; incomplete frames (and frames buffered
    /// behind an in-flight job) wait here.
    read_buf: Vec<u8>,
    /// Unflushed output chunks, already formatted.
    write: WriteQueue,
    /// The last job consumed nothing and no bytes have arrived since:
    /// the buffer holds an incomplete frame, so don't re-spawn a job
    /// until the socket produces more input.
    stalled: bool,
    /// Currently registered for writable events.
    want_write: bool,
    /// Read interest dropped because the write queue crossed the
    /// high-water mark.
    read_paused: bool,
    /// Close once the write queue drains.
    close_after_flush: bool,
    /// Set the server-wide shutdown flag once the write queue drains
    /// (the `shutdown` op's response must still reach its sender).
    shutdown_after_flush: bool,
    /// The peer half-closed; close once everything owed is flushed.
    peer_eof: bool,
}

#[cfg(unix)]
impl Conn {
    fn pending_write(&self) -> usize {
        self.write.pending()
    }
}

/// The working set of one offload job: the connection's codec plus
/// every byte read so far. The worker steps the codec over `input`
/// into `out`; the reactor splices whatever is left back in front of
/// any newly arrived bytes when the completion lands.
#[cfg(unix)]
struct Work {
    codec: Box<dyn FrameCodec>,
    input: Vec<u8>,
    out: Vec<u8>,
    signals: Signals,
}

/// What one finished offload job sends back to its reactor thread.
#[cfg(unix)]
struct Completion {
    token: u64,
    codec: Box<dyn FrameCodec>,
    /// Unconsumed input, to be re-spliced ahead of newer bytes.
    leftover: Vec<u8>,
    /// Formatted response bytes to queue on the write side.
    write: Vec<u8>,
    close_after_flush: bool,
    shutdown_after_flush: bool,
    /// Unrecoverable framing: close the connection without ceremony.
    fatal: bool,
    /// At least one byte was consumed (drives the stall detector).
    made_progress: bool,
}

/// The channel from offload workers back to one reactor thread: a
/// mutex-guarded vector plus a wake pipe whose read end sits in the
/// poller under [`TOKEN_WAKE`], so a completion interrupts the poll
/// wait instead of waiting out the timeout.
#[cfg(unix)]
struct CompletionQueue {
    done: Mutex<Vec<Completion>>,
    wake: UnixStream,
}

#[cfg(unix)]
impl CompletionQueue {
    /// Called by workers. One wake byte per empty-to-non-empty edge is
    /// enough under level triggering; a full pipe (reactor far behind)
    /// still wakes, so the nonblocking write result is ignorable.
    fn push(&self, completion: Completion) {
        let mut done = self
            .done
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let was_empty = done.is_empty();
        done.push(completion);
        drop(done);
        if was_empty {
            let _ = (&self.wake).write(&[1]);
        }
    }

    /// Called by the reactor: takes everything queued so far.
    fn drain(&self) -> Vec<Completion> {
        std::mem::take(
            &mut *self
                .done
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }
}

/// The verdict after handling one connection event.
#[cfg(unix)]
enum Verdict {
    Keep,
    Close,
}

/// Registers a listener with the exclusive-wakeup path where the
/// platform has one, falling back to a plain shared registration.
#[cfg(unix)]
fn register_listener(poller: &sys::Poller, fd: RawFd, token: u64) -> std::io::Result<()> {
    if poller.add_shared(fd, token).is_ok() {
        return Ok(());
    }
    poller.add(fd, token, false)
}

#[cfg(unix)]
fn reactor_loop(
    listener: TcpListener,
    http_listener: Option<TcpListener>,
    shared: &Arc<Shared>,
) -> Result<()> {
    let poller = sys::Poller::new().map_err(|e| {
        ServiceError::InvalidRequest(format!(
            "cannot start the async reactor front-end: {e}; run without --async"
        ))
    })?;

    /// One listener's registration state. On a persistent accept
    /// failure (EMFILE is the classic) the listener is *deregistered*
    /// for the backoff window instead of sleeping the reactor thread:
    /// sleeping would stall every established connection on this
    /// reactor, and merely skipping accepts would leave the
    /// level-triggered readable event hot-spinning the loop.
    struct ListenerSlot<'l> {
        listener: &'l TcpListener,
        token: u64,
        is_http: bool,
        registered: bool,
        resume_at: Option<std::time::Instant>,
    }
    let mut slots: Vec<ListenerSlot<'_>> = Vec::new();
    slots.push(ListenerSlot {
        listener: &listener,
        token: TOKEN_LINE,
        is_http: false,
        registered: false,
        resume_at: None,
    });
    if let Some(l) = &http_listener {
        slots.push(ListenerSlot {
            listener: l,
            token: TOKEN_HTTP,
            is_http: true,
            registered: false,
            resume_at: None,
        });
    }
    for slot in &mut slots {
        register_listener(&poller, slot.listener.as_raw_fd(), slot.token)?;
        slot.registered = true;
        shared.transport.inc(Counter::ReactorRegisteredFds);
    }

    // The offload completion channel: workers push finished jobs and
    // write one byte into the pipe; the read end wakes this poller.
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    poller.add(wake_rx.as_raw_fd(), TOKEN_WAKE, false)?;
    shared.transport.inc(Counter::ReactorRegisteredFds);
    let completions = Arc::new(CompletionQueue {
        done: Mutex::new(Vec::new()),
        wake: wake_tx,
    });

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = TOKEN_FIRST_CONN;
    let mut events = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut backoff = AcceptBackoff::new();

    while !shared.shutdown.load(Ordering::SeqCst) {
        // Re-register any listener whose backoff window has passed;
        // the poll timeout bounds how stale this check can be.
        for slot in &mut slots {
            if !slot.registered
                && slot
                    .resume_at
                    .is_some_and(|at| std::time::Instant::now() >= at)
                && register_listener(&poller, slot.listener.as_raw_fd(), slot.token).is_ok()
            {
                slot.registered = true;
                slot.resume_at = None;
                shared.transport.inc(Counter::ReactorRegisteredFds);
            }
        }
        // analyze: allow(reactor_blocking): the epoll/kqueue wait IS the event loop's one blocking point
        poller.wait(&mut events, POLL_TIMEOUT_MS)?;
        shared.transport.inc(Counter::ReactorWakeups);
        for &ev in &events {
            if ev.token == TOKEN_WAKE {
                // Drain the wake bytes; the completions themselves are
                // drained once per loop pass below.
                let mut sink = [0u8; 64];
                while matches!((&wake_rx).read(&mut sink), Ok(n) if n > 0) {}
                continue;
            }
            if let Some(slot) = slots.iter_mut().find(|s| s.token == ev.token) {
                let outcome = accept_ready(
                    slot.listener,
                    slot.is_http,
                    shared,
                    &poller,
                    &mut conns,
                    &mut next_token,
                    &mut backoff,
                );
                if let AcceptOutcome::Backoff(delay) = outcome {
                    let _ = poller.delete(slot.listener.as_raw_fd());
                    shared.transport.dec(Counter::ReactorRegisteredFds);
                    slot.registered = false;
                    slot.resume_at = Some(std::time::Instant::now() + delay);
                }
                continue;
            }
            let token = ev.token;
            // The connection may have been closed by an earlier
            // event in this same batch.
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            let verdict = handle_conn_event(
                conn,
                ev.readable,
                ev.writable,
                shared,
                &poller,
                token,
                &mut scratch,
                &completions,
            );
            if matches!(verdict, Verdict::Close) {
                if let Some(conn) = conns.remove(&token) {
                    close_conn(&poller, shared, conn);
                }
            }
        }
        for _ in 0..COMPLETION_DRAIN_ROUNDS {
            let batch = completions.drain();
            if batch.is_empty() {
                break;
            }
            for completion in batch {
                apply_completion(completion, &mut conns, shared, &poller, &completions);
            }
        }
    }

    // Cooperative shutdown: give peers their last responses
    // (best-effort, bounded), then drop everything.
    for (_, mut conn) in conns.drain() {
        let _ = poller.delete(conn.fd);
        shared.transport.dec(Counter::ReactorRegisteredFds);
        if conn.pending_write() > 0 {
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn
                .stream
                .set_write_timeout(Some(Duration::from_millis(500)));
            let mut skip = conn.write.pos;
            for chunk in &conn.write.chunks {
                let off = skip.min(chunk.len());
                skip = 0;
                // analyze: allow(reactor_blocking): bounded 500 ms best-effort drain, after the event loop exits
                if conn.stream.write_all(&chunk[off..]).is_err() {
                    break;
                }
            }
        }
    }
    for slot in &slots {
        if slot.registered {
            let _ = poller.delete(slot.listener.as_raw_fd());
            shared.transport.dec(Counter::ReactorRegisteredFds);
        }
    }
    let _ = poller.delete(wake_rx.as_raw_fd());
    shared.transport.dec(Counter::ReactorRegisteredFds);
    Ok(())
}

/// What draining one listener's accept queue concluded.
#[cfg(unix)]
enum AcceptOutcome {
    /// The queue is drained (or a sibling reactor got there first).
    Drained,
    /// A persistent accept failure: the caller should deregister the
    /// listener for this long (sleeping here would stall every
    /// established connection on the reactor).
    Backoff(Duration),
}

/// Drains one listener's accept queue (level-triggered: stop at
/// `WouldBlock`). Sibling reactors share the listeners, so a wakeup may
/// find the queue already empty — that is the no-handoff sharding
/// working as intended, not an error.
#[cfg(unix)]
fn accept_ready(
    listener: &TcpListener,
    is_http: bool,
    shared: &Arc<Shared>,
    poller: &sys::Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    backoff: &mut AcceptBackoff,
) -> AcceptOutcome {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => {
                backoff.on_success();
                stream
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return AcceptOutcome::Drained,
            Err(_) => {
                // Same bounded pacing as the threaded accept loops: a
                // persistent EMFILE must not turn the level-triggered
                // listener event into a hot spin.
                shared.transport.inc(Counter::AcceptErrors);
                return AcceptOutcome::Backoff(backoff.on_error());
            }
        };
        let Some(guard) = shared.try_admit() else {
            // The threaded front-ends' refusal, as one best-effort
            // write (nonblocking is fine — it is one small buffer).
            let transport = if is_http {
                Transport::Http
            } else {
                Transport::Line
            };
            let _ = stream.set_nonblocking(true);
            let _ = (&stream).write(&shared.shed_response(transport));
            continue;
        };
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            continue; // guard drops, slot freed
        }
        let token = *next_token;
        *next_token += 1;
        let fd = stream.as_raw_fd();
        let codec: Box<dyn FrameCodec> = if is_http {
            Box::new(HttpFraming::new())
        } else {
            Box::new(LineFraming::new())
        };
        let conn = Conn {
            stream,
            fd,
            _guard: guard,
            codec: Some(codec),
            read_buf: Vec::new(),
            write: WriteQueue::new(),
            stalled: false,
            want_write: false,
            read_paused: false,
            close_after_flush: false,
            shutdown_after_flush: false,
            peer_eof: false,
        };
        if poller.add(fd, token, false).is_err() {
            continue; // conn (and its guard) drop
        }
        shared.transport.inc(Counter::ReactorRegisteredFds);
        if is_http {
            shared.transport.inc(Counter::HttpConnections);
        } else {
            shared.transport.inc(Counter::TcpConnections);
        }
        conns.insert(token, conn);
    }
}

/// Handles one readiness event on an established connection.
#[cfg(unix)]
#[allow(clippy::too_many_arguments)]
fn handle_conn_event(
    conn: &mut Conn,
    readable: bool,
    writable: bool,
    shared: &Arc<Shared>,
    poller: &sys::Poller,
    token: u64,
    scratch: &mut [u8],
    completions: &Arc<CompletionQueue>,
) -> Verdict {
    if readable && !conn.read_paused && !conn.close_after_flush {
        match fill_read_buf(conn, shared, scratch) {
            Ok(()) => {}
            Err(()) => return Verdict::Close,
        }
        maybe_start_job(conn, token, shared, completions);
    }
    if writable || conn.pending_write() > 0 {
        if let Err(()) = flush_writes(conn, shared) {
            return Verdict::Close;
        }
        // Draining below the high-water mark resumes frames that were
        // parked in the read buffer by backpressure. Judge by the
        // *current* pending count, not `read_paused` — that flag is
        // last event's verdict, and a connection whose peer has read
        // its responses may never see another readable event to
        // deliver the buffered requests otherwise.
        if conn.pending_write() <= WRITE_HIGH_WATER && !conn.close_after_flush {
            maybe_start_job(conn, token, shared, completions);
        }
    }
    conn_tail(conn, shared, poller, token)
}

/// The common epilogue after any work on a connection: shutdown and
/// close decisions, then interest re-registration. A connection with a
/// job in flight (`codec` taken) or consumable buffered input is never
/// closed on `peer_eof` — its response is still owed.
#[cfg(unix)]
fn conn_tail(conn: &mut Conn, shared: &Arc<Shared>, poller: &sys::Poller, token: u64) -> Verdict {
    if conn.shutdown_after_flush && conn.pending_write() == 0 {
        shared.shutdown.store(true, Ordering::SeqCst);
        return Verdict::Close;
    }
    let drained = conn.codec.is_some() && (conn.read_buf.is_empty() || conn.stalled);
    if (conn.close_after_flush || (conn.peer_eof && drained)) && conn.pending_write() == 0 {
        return Verdict::Close;
    }
    update_interest(conn, shared, poller, token)
}

/// Hands the connection's buffered input and framing codec to the
/// offload pool, unless a job is already in flight, there is nothing
/// (new) to consume, or backpressure says not yet.
#[cfg(unix)]
fn maybe_start_job(
    conn: &mut Conn,
    token: u64,
    shared: &Arc<Shared>,
    completions: &Arc<CompletionQueue>,
) {
    if conn.stalled
        || conn.read_buf.is_empty()
        || conn.close_after_flush
        || conn.shutdown_after_flush
        || conn.pending_write() > WRITE_HIGH_WATER
        || conn.codec.is_none()
    {
        return;
    }
    // `Server::bind` starts the pool whenever `async_reactor` is set,
    // which is the only way the listeners reach this module.
    let Some(executor) = shared.executor.as_ref() else {
        return;
    };
    let Some(codec) = conn.codec.take() else {
        return;
    };
    let input = std::mem::take(&mut conn.read_buf);
    let job_shared = Arc::clone(shared);
    let completions = Arc::clone(completions);
    executor.spawn(move || run_offload_job(token, codec, input, &job_shared, &completions));
}

/// The body of one offload job: step the codec over every complete
/// frame, then report back. Runs on an
/// [`crate::dispatch::OffloadExecutor`] worker — this is the one place
/// on the reactor side that may block.
#[cfg(unix)]
fn run_offload_job(
    token: u64,
    codec: Box<dyn FrameCodec>,
    input: Vec<u8>,
    shared: &Arc<Shared>,
    completions: &Arc<CompletionQueue>,
) {
    let mut work = Work {
        codec,
        input,
        out: Vec::new(),
        signals: Signals::default(),
    };
    let (fatal, made_progress) = match process_frames(&mut work, shared) {
        Ok(progress) => (false, progress),
        Err(()) => (true, false),
    };
    if !fatal && !work.input.is_empty() {
        shared.transport.inc(Counter::ReactorPartialReads);
    }
    completions.push(Completion {
        token,
        codec: work.codec,
        leftover: work.input,
        write: work.out,
        close_after_flush: work.signals.close_after_flush,
        shutdown_after_flush: work.signals.shutdown_after_flush,
        fatal,
        made_progress,
    });
}

/// Lands one finished offload job back on its connection: restore the
/// codec, splice unconsumed input ahead of newer bytes, queue and flush
/// the response, then maybe start the next job.
#[cfg(unix)]
fn apply_completion(
    completion: Completion,
    conns: &mut HashMap<u64, Conn>,
    shared: &Arc<Shared>,
    poller: &sys::Poller,
    completions: &Arc<CompletionQueue>,
) {
    let token = completion.token;
    if completion.fatal {
        // Unrecoverable framing: the same unceremonious close the
        // threaded loops use (nothing owed is worth sending).
        if let Some(conn) = conns.remove(&token) {
            close_conn(poller, shared, conn);
        }
        return;
    }
    let Some(conn) = conns.get_mut(&token) else {
        return; // the connection died while its job was in flight
    };
    conn.codec = Some(completion.codec);
    let new_bytes_arrived = !conn.read_buf.is_empty();
    if !completion.leftover.is_empty() {
        let mut buf = completion.leftover;
        buf.extend_from_slice(&conn.read_buf);
        conn.read_buf = buf;
    }
    conn.stalled = !completion.made_progress && !new_bytes_arrived;
    conn.write.push(completion.write);
    conn.close_after_flush |= completion.close_after_flush;
    conn.shutdown_after_flush |= completion.shutdown_after_flush;
    let verdict = if flush_writes(conn, shared).is_err() {
        Verdict::Close
    } else {
        if conn.pending_write() <= WRITE_HIGH_WATER && !conn.close_after_flush {
            maybe_start_job(conn, token, shared, completions);
        }
        conn_tail(conn, shared, poller, token)
    };
    if matches!(verdict, Verdict::Close) {
        if let Some(conn) = conns.remove(&token) {
            close_conn(poller, shared, conn);
        }
    }
}

/// Reads everything currently available on the socket into the
/// connection's read buffer, stopping (without error) at the input
/// cap — [`update_interest`] drops read interest past it, and reading
/// resumes once the in-flight job drains the buffer. `Err(())` means
/// the connection died.
///
/// Each round is one `readv` with two targets: the read buffer's spare
/// capacity (bytes land in place, no copy) and the scratch buffer
/// (overflow for bursts larger than the spare room) — the two-buffer
/// read costs one syscall instead of a read-into-scratch plus a copy.
#[cfg(unix)]
fn fill_read_buf(
    conn: &mut Conn,
    shared: &Arc<Shared>,
    scratch: &mut [u8],
) -> std::result::Result<(), ()> {
    loop {
        if conn.read_buf.len() > read_cap(shared) {
            return Ok(());
        }
        let len = conn.read_buf.len();
        if conn.read_buf.capacity() - len < 4 * 1024 {
            conn.read_buf.reserve(16 * 1024);
        }
        let spare = conn.read_buf.capacity() - len;
        let result = {
            let mut iov = [
                sys_io::IoVec {
                    // SAFETY: `len + spare == capacity`, so the pointer
                    // and length describe exactly the allocation's
                    // uninitialized tail, which readv may fill.
                    base: unsafe { conn.read_buf.as_mut_ptr().add(len) }.cast(),
                    len: spare,
                },
                sys_io::IoVec {
                    base: scratch.as_mut_ptr().cast(),
                    len: scratch.len(),
                },
            ];
            sys_io::readv_fd(conn.fd, &mut iov)
        };
        match result {
            Ok(0) => {
                conn.peer_eof = true;
                return Ok(());
            }
            Ok(n) => {
                let in_place = n.min(spare);
                // SAFETY: readv initialized the first `in_place` bytes
                // of the spare capacity; `len + in_place <= capacity`.
                unsafe { conn.read_buf.set_len(len + in_place) };
                if n > spare {
                    conn.read_buf.extend_from_slice(&scratch[..n - spare]);
                }
                conn.stalled = false;
                if n < spare + scratch.len() {
                    return Ok(()); // short read: the socket is drained
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
}

/// Steps the codec over every complete frame sitting in the job's
/// input buffer, appending responses to its output buffer. Stops early
/// when the output crosses the high-water mark (backpressure) or the
/// connection decided to close. Returns whether any input was
/// consumed; `Err(())` closes the connection without ceremony
/// (unrecoverable framing, exactly like the threaded loops' dropped
/// `Result`s).
#[cfg(unix)]
fn process_frames(work: &mut Work, shared: &Arc<Shared>) -> std::result::Result<bool, ()> {
    let mut consumed = 0usize;
    let result = loop {
        if work.signals.close_after_flush || work.signals.shutdown_after_flush {
            break Ok(());
        }
        if work.out.len() > WRITE_HIGH_WATER {
            break Ok(()); // backpressure: finish after the peer drains
        }
        match work.codec.step(
            shared,
            &work.input,
            &mut consumed,
            &mut work.out,
            &mut work.signals,
        ) {
            Step::Progress => {}
            Step::NeedMore => break Ok(()),
            Step::Fatal => break Err(()),
        }
    };
    work.input.drain(..consumed);
    result.map(|()| consumed > 0)
}

/// Writes as much pending output as the socket will take — the whole
/// chunk queue in one `writev` when it fits in the iovec budget.
/// `Err(())` means the connection died.
#[cfg(unix)]
fn flush_writes(conn: &mut Conn, shared: &Arc<Shared>) -> std::result::Result<(), ()> {
    const MAX_IOV: usize = 8;
    while conn.pending_write() > 0 {
        let mut iov: Vec<sys_io::IoVec> = Vec::with_capacity(MAX_IOV.min(conn.write.chunks.len()));
        let mut skip = conn.write.pos;
        for chunk in &conn.write.chunks {
            let off = skip.min(chunk.len());
            skip = 0;
            iov.push(sys_io::IoVec {
                base: chunk[off..].as_ptr() as *mut _,
                len: chunk.len() - off,
            });
            if iov.len() == MAX_IOV {
                break;
            }
        }
        match sys_io::writev_fd(conn.fd, &iov) {
            Ok(0) => return Err(()),
            Ok(n) => conn.write.advance(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                shared.transport.inc(Counter::ReactorPartialWrites);
                return Ok(());
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    Ok(())
}

/// Re-registers the connection's interest set to match its buffers:
/// writable while output is pending, readable unless backpressure
/// paused it. This is where a slow reader stops being fed.
#[cfg(unix)]
fn update_interest(
    conn: &mut Conn,
    shared: &Arc<Shared>,
    poller: &sys::Poller,
    token: u64,
) -> Verdict {
    let want_write = conn.pending_write() > 0;
    // Backpressure (and a half-closed or closing peer) genuinely
    // deregisters read interest — under level triggering, a paused
    // connection with unread socket bytes would otherwise wake the
    // loop on every poll, a hot spin. The connection still wants
    // writables (that is how it unpauses), and `EPOLLERR`/`EPOLLHUP`
    // are delivered regardless, so a dead peer still surfaces. A full
    // input buffer (frames parked behind an in-flight offload job)
    // pauses reads the same way; the job's completion re-runs this.
    let want_read = conn.pending_write() <= WRITE_HIGH_WATER
        && conn.read_buf.len() <= read_cap(shared)
        && !conn.close_after_flush
        && !conn.peer_eof;
    let read_changed = want_read == conn.read_paused;
    if (want_write != conn.want_write || read_changed)
        && poller
            .modify(conn.fd, token, want_read, want_write)
            .is_err()
    {
        return Verdict::Close;
    }
    conn.want_write = want_write;
    conn.read_paused = !want_read;
    Verdict::Keep
}

/// Deregisters and drops a connection (the admission guard releases its
/// slot on drop).
#[cfg(unix)]
fn close_conn(poller: &sys::Poller, shared: &Arc<Shared>, conn: Conn) {
    let _ = poller.delete(conn.fd);
    shared.transport.dec(Counter::ReactorRegisteredFds);
    drop(conn);
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn write_queue_tracks_chunks_across_partial_writes() {
        let mut q = WriteQueue::new();
        q.push(b"hello ".to_vec());
        q.push(Vec::new()); // empty chunks are dropped, not queued
        q.push(b"world".to_vec());
        assert_eq!(q.pending(), 11);
        assert_eq!(q.chunks.len(), 2);

        q.advance(3); // partial write inside the first chunk
        assert_eq!(q.pending(), 8);
        assert_eq!(q.pos, 3);

        q.advance(4); // crosses the chunk boundary
        assert_eq!(q.pending(), 4);
        assert_eq!(q.chunks.len(), 1);
        assert_eq!(q.pos, 1);

        q.advance(4); // drains everything
        assert_eq!(q.pending(), 0);
        assert!(q.chunks.is_empty());
        assert_eq!(q.pos, 0);
    }
}
