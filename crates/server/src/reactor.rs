//! The event loop shared by both network front ends: a thin `poll(2)`
//! wrapper, a self-pipe wakeup channel, and the line-protocol server
//! (DESIGN.md §9) that the daemon and the gateway each run with a small
//! service handler.
//!
//! The workspace's zero-dependency rule means no `libc`, `mio`, or
//! `polling` crates — instead this module declares the one C-ABI symbol
//! it needs (`poll`, which the platform's C runtime already exports into
//! every Rust binary) and wraps it behind a safe, allocation-reusing
//! [`PollSet`]. This is the only unsafe code in the workspace; everything
//! above it is safe Rust over `RawFd`s the caller keeps alive.
//!
//! The wakeup path: worker threads finish work on a plain `mpsc` channel,
//! but the event loop parks inside `poll(2)` and a channel send alone
//! would not rouse it. A [`Wakeup`] is the classic self-pipe: a
//! nonblocking `UnixStream` pair whose read end sits in the poll set; any
//! thread holding a cloned [`Waker`] writes one byte to make the loop's
//! next `poll` return immediately. Spurious wakeups are harmless (the
//! loop drains the pipe and re-checks its channels), and a full pipe is
//! fine too — the loop is already guaranteed to wake.
//!
//! The line server owns the listener, the connection slab and every
//! socket: newline framing under a byte cap and a read deadline, the
//! write-stall deadline, `server_busy` rejection at accept, the request
//! checks every front end shares (UTF-8, `parse_request`, `status`,
//! `shutdown`, `max_batch`), the reactor fault hooks, and
//! drain-then-flush shutdown. A front end supplies a [`Service`]: what to
//! do with a job or batch line, its `status` and shutdown summaries,
//! whether its queue has drained, and a per-tick hook.

// The `poll(2)` declaration and call below are the workspace's single
// unsafe exception (lib.rs holds the deny): the call passes a pointer and
// length derived from one live `&mut [PollFd]` and nothing else.
#![allow(unsafe_code)]

use crate::faults::FaultInjector;
use crate::protocol::{
    coded_error_response, codes, ok_response, parse_request, JobRequest, ParseFailure, Request,
};
use crate::queue::BoundedQueue;
use chameleon_obs::site::CounterSite;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Readiness to request: read side (`POLLIN`).
pub const POLLIN: i16 = 0x001;
/// Readiness to request: write side (`POLLOUT`).
pub const POLLOUT: i16 = 0x004;
/// Returned readiness: error condition on the descriptor.
pub(crate) const POLLERR: i16 = 0x008;
/// Returned readiness: peer hung up.
pub(crate) const POLLHUP: i16 = 0x010;
/// Returned readiness: descriptor not open (stale registration).
pub(crate) const POLLNVAL: i16 = 0x020;

/// One `struct pollfd`, layout-compatible with the C definition on every
/// unix this workspace targets (Linux CI, macOS dev machines).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Registers `fd` for the readiness bits in `events`.
    pub fn new(fd: RawFd, events: i16) -> Self {
        Self {
            fd,
            events,
            revents: 0,
        }
    }

    /// True when the descriptor is readable (or in an error/hangup state,
    /// which reads surface as EOF/error — the caller must read to find
    /// out).
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0
    }

    /// True when the descriptor accepts writes (or errored, which the
    /// next write will surface).
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

/// The platform's `nfds_t`: `unsigned long` (64-bit) on 64-bit Linux,
/// but `unsigned int` (32-bit) on macOS and the BSDs. The declaration
/// must match exactly — a 64-bit count against a 32-bit ABI slot is
/// undefined behavior even when little-endian registers happen to make
/// small values work.
#[cfg(any(
    target_os = "macos",
    target_os = "ios",
    target_os = "freebsd",
    target_os = "netbsd",
    target_os = "openbsd",
    target_os = "dragonfly"
))]
type NfdsT = u32;
#[cfg(not(any(
    target_os = "macos",
    target_os = "ios",
    target_os = "freebsd",
    target_os = "netbsd",
    target_os = "openbsd",
    target_os = "dragonfly"
)))]
type NfdsT = u64;

extern "C" {
    /// `poll(2)` from the platform C runtime.
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout_ms: i32) -> i32;
}

/// A reusable registration set for one `poll(2)` call per event-loop
/// tick. The `Vec` is cleared, refilled and handed to the kernel each
/// tick, so steady-state allocations are zero once it reaches its
/// high-water mark.
#[derive(Debug, Default)]
pub struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all registrations (allocation retained).
    pub fn clear(&mut self) {
        self.fds.clear();
    }

    /// Registers `fd` for `events`; returns its slot index, by which the
    /// caller reads back [`Self::revents`] after the poll.
    pub fn register(&mut self, fd: RawFd, events: i16) -> usize {
        self.fds.push(PollFd::new(fd, events));
        self.fds.len() - 1
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// The registration at `slot` (panics on a bad slot, which is a
    /// caller bug — slots come from [`Self::register`] this tick).
    pub fn revents(&self, slot: usize) -> &PollFd {
        &self.fds[slot]
    }

    /// Blocks until at least one registered descriptor is ready or
    /// `timeout` elapses (`None` = wait forever). Returns the number of
    /// ready descriptors (0 on timeout). `EINTR` is retried with the
    /// same timeout — the loop's own deadline bookkeeping absorbs the
    /// drift.
    ///
    /// # Errors
    /// Propagates `poll(2)` failures other than `EINTR`.
    pub fn poll(&mut self, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: i32 = match timeout {
            None => -1,
            // +999_999 rounds nanoseconds up: a 100 µs deadline must not
            // become a hot 0 ms spin loop.
            Some(t) => t
                .as_millis()
                .max(u128::from(t.subsec_nanos() > 0))
                .min(i32::MAX as u128) as i32,
        };
        loop {
            // SAFETY: `fds` is a live, exclusively borrowed slice of
            // `#[repr(C)]` pollfd-compatible structs; the kernel writes
            // only the `revents` fields within its bounds.
            let rc = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as NfdsT, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// The event loop's end of the self-pipe: a nonblocking socket-pair read
/// half registered for `POLLIN` every tick.
#[derive(Debug)]
pub struct Wakeup {
    read_half: UnixStream,
    write_half: UnixStream,
}

/// A cloneable handle that rouses the event loop from any thread.
#[derive(Debug)]
pub struct Waker {
    write_half: UnixStream,
}

impl Wakeup {
    /// Creates the pair; both halves are nonblocking so neither the
    /// wakers nor the drain can ever park a thread.
    ///
    /// # Errors
    /// Propagates socketpair creation failures.
    pub fn new() -> io::Result<Self> {
        let (read_half, write_half) = UnixStream::pair()?;
        read_half.set_nonblocking(true)?;
        write_half.set_nonblocking(true)?;
        Ok(Self {
            read_half,
            write_half,
        })
    }

    /// The descriptor to register for `POLLIN`.
    pub fn fd(&self) -> RawFd {
        self.read_half.as_raw_fd()
    }

    /// A handle for worker threads.
    ///
    /// # Errors
    /// Propagates descriptor duplication failures.
    pub(crate) fn waker(&self) -> io::Result<Waker> {
        Ok(Waker {
            write_half: self.write_half.try_clone()?,
        })
    }

    /// Discards all pending wakeup bytes. Called once per tick when the
    /// pipe polls readable; the loop then re-checks its channels, so
    /// coalesced wakeups are never lost.
    pub fn drain(&self) {
        use std::io::Read;
        let mut sink = [0u8; 256];
        // Nonblocking: loop until WouldBlock (or any error — a broken
        // self-pipe only costs spurious wakeups, never correctness).
        while matches!((&self.read_half).read(&mut sink), Ok(n) if n > 0) {}
    }
}

impl Waker {
    /// Makes the event loop's current (or next) `poll` return
    /// immediately. Best-effort by design: a full pipe means wakeups are
    /// already pending, and any other failure is absorbed by the loop's
    /// bounded poll timeout.
    pub(crate) fn wake(&self) {
        use std::io::Write;
        let _ = (&self.write_half).write(&[1u8]);
    }
}

/// Idle poll timeout: the loop wakes at least this often to re-check
/// deadlines and the shutdown flag even with no I/O and no wakeups.
const IDLE_POLL: Duration = Duration::from_millis(500);

/// Poll timeout while a shutdown waits for the queue to drain.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// Per-connection write-stall deadline: a client that stops reading its
/// responses gets its connection dropped instead of growing the write
/// buffer forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Bounded grace period for flushing final responses after the shutdown
/// request is answered; a vanished client cannot wedge shutdown.
const FLUSH_GRACE: Duration = Duration::from_secs(2);

/// Connection limits of DESIGN.md §8.2, normalized in one place for both
/// front ends: 0 means unlimited connections, unlimited batch elements
/// and no read deadline; the line cap has a floor of 64 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Limits {
    pub(crate) max_request_bytes: usize,
    pub(crate) read_timeout: Option<Duration>,
    pub(crate) max_connections: usize,
    pub(crate) max_batch: usize,
}

impl Limits {
    pub(crate) fn new(
        max_request_bytes: usize,
        read_timeout_ms: u64,
        max_connections: usize,
        max_batch: usize,
    ) -> Self {
        let unlimited_if_zero = |n: usize| if n == 0 { usize::MAX } else { n };
        Self {
            max_request_bytes: max_request_bytes.max(64),
            read_timeout: (read_timeout_ms > 0).then(|| Duration::from_millis(read_timeout_ms)),
            max_connections: unlimited_if_zero(max_connections),
            max_batch: unlimited_if_zero(max_batch),
        }
    }
}

/// Identifies a connection slab slot at a point in time: the generation
/// counter makes completions for a closed-and-reused slot harmlessly
/// undeliverable instead of landing on the wrong client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConnToken {
    idx: usize,
    gen: u64,
}

impl ConnToken {
    /// Owner of work no live connection is waiting for (jobs re-enqueued
    /// from the journal at startup): the stale-token check drops its
    /// completion, as `usize::MAX` never indexes the slab.
    pub(crate) const DETACHED: ConnToken = ConnToken {
        idx: usize::MAX,
        gen: 0,
    };
}

/// Finished worker-side work: newline-terminated wire bytes for the
/// owning connection and how many of its owed responses they settle.
pub(crate) struct Completion {
    pub(crate) token: ConnToken,
    pub(crate) wire: Vec<u8>,
    pub(crate) responses: usize,
}

/// One job element of a request line (a single job is a one-element
/// line); a batch element that failed to parse keeps its recovered id.
pub(crate) type JobItem = Result<JobRequest, ParseFailure>;

/// The loop's counter sites. `counter!` names are string literals, so
/// each front end passes its own: `server.*` for the daemon, `gateway.*`
/// for the gateway.
pub(crate) struct Sites {
    pub(crate) ticks: &'static CounterSite,
    pub(crate) wakeups: &'static CounterSite,
    pub(crate) completions: &'static CounterSite,
    pub(crate) connections: &'static CounterSite,
    pub(crate) rejected_busy: &'static CounterSite,
    pub(crate) deferred_ready: &'static CounterSite,
    pub(crate) short_writes: &'static CounterSite,
    pub(crate) truncated: &'static CounterSite,
    pub(crate) request_too_large: &'static CounterSite,
    pub(crate) read_timeout: &'static CounterSite,
    pub(crate) write_stalled: &'static CounterSite,
    pub(crate) bad_utf8: &'static CounterSite,
    pub(crate) shutdown_requests: &'static CounterSite,
    pub(crate) batched: &'static CounterSite,
    pub(crate) rejected_batch: &'static CounterSite,
}

/// What a front end plugs into the line server. Every method runs on the
/// loop thread.
pub(crate) trait Service {
    /// Admits the job elements of one request line, or rejects them once
    /// a `shutdown` request has arrived. Immediate replies (per-element
    /// parse errors, admission rejections) go to `reply`, one response
    /// line per call; the return value is how many responses a later
    /// [`Completion`] for `token` will carry.
    fn dispatch(
        &self,
        token: ConnToken,
        line: String,
        items: Vec<JobItem>,
        shutting_down: bool,
        reply: &mut dyn FnMut(&str),
    ) -> usize;

    /// The `status` result object.
    fn status_json(&self, open_connections: usize, shutting_down: bool) -> String;

    /// The result object answering `shutdown` once the queue drained.
    fn shutdown_json(&self) -> String;

    /// True when nothing is queued or in flight.
    fn is_drained(&self) -> bool;

    /// Counts `n` job elements rejected by the loop (an oversized batch).
    fn count_rejected(&self, n: u64);

    /// Reactor fault hooks (deferred readiness, short writes), if armed.
    fn faults(&self) -> Option<&FaultInjector> {
        None
    }

    /// Housekeeping at the end of every loop tick.
    fn tick(&self) {}
}

/// A worker thread's way back into the loop: the completion channel plus
/// a waker.
pub(crate) struct Completer {
    tx: mpsc::Sender<Completion>,
    waker: Waker,
}

impl Completer {
    /// Serves `queue` until it closes: every popped entry becomes one
    /// [`Completion`]. The send precedes `task_done` (the guard drops
    /// after it), so once the queue reports drained every completion is
    /// already in the channel. A dropped receiver (the loop exited) just
    /// discards.
    pub(crate) fn drain_queue<T>(
        &self,
        queue: &BoundedQueue<T>,
        mut work: impl FnMut(T) -> Completion,
    ) {
        while let Some(entry) = queue.pop() {
            let _done = TaskDoneGuard(queue);
            let _ = self.tx.send(work(entry));
            self.waker.wake();
        }
    }
}

/// Settles the queue's active count even when the work unwinds.
struct TaskDoneGuard<'a, T>(&'a BoundedQueue<T>);

impl<T> Drop for TaskDoneGuard<'_, T> {
    fn drop(&mut self) {
        self.0.task_done();
    }
}

/// A front end (daemon or gateway) serving on a background thread.
pub struct Handle<R> {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<io::Result<R>>,
}

impl<R: Send + 'static> Handle<R> {
    pub(crate) fn spawn(
        name: &str,
        addr: SocketAddr,
        run: impl FnOnce() -> io::Result<R> + Send + 'static,
    ) -> Self {
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(run)
            .expect("spawn reactor thread");
        Self { addr, thread }
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the front end to shut down and returns its report.
    ///
    /// # Errors
    /// Propagates the run loop's I/O error, if any.
    ///
    /// # Panics
    /// If the serving thread panicked.
    pub fn join(self) -> io::Result<R> {
        self.thread.join().expect("server thread panicked")
    }
}

/// A bound listener plus the completion channel its workers report on.
pub(crate) struct LineServer {
    listener: TcpListener,
    wakeup: Wakeup,
    tx: mpsc::Sender<Completion>,
    rx: mpsc::Receiver<Completion>,
}

impl LineServer {
    pub(crate) fn new(listener: TcpListener) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let (tx, rx) = mpsc::channel();
        Ok(Self {
            listener,
            wakeup: Wakeup::new()?,
            tx,
            rx,
        })
    }

    /// A completion handle for one worker thread.
    ///
    /// # Panics
    /// If the wakeup descriptor cannot be duplicated.
    pub(crate) fn completer(&self) -> Completer {
        Completer {
            tx: self.tx.clone(),
            waker: self.wakeup.waker().expect("clone waker"),
        }
    }

    /// Serves until a `shutdown` request has been answered and flushed,
    /// then closes `queue` and joins its `workers` (a completion sent
    /// after the loop exited is discarded).
    ///
    /// # Errors
    /// Propagates fatal I/O errors (`poll` failures, listener errors
    /// other than transient accept races).
    pub(crate) fn serve<S: Service, T>(
        self,
        service: &S,
        limits: Limits,
        sites: Sites,
        queue: &BoundedQueue<T>,
        workers: Vec<std::thread::JoinHandle<()>>,
    ) -> io::Result<()> {
        let mut lp = Loop {
            service,
            limits,
            sites,
            listener: self.listener,
            wakeup: self.wakeup,
            completions: self.rx,
            conns: Vec::new(),
            free: Vec::new(),
            open: 0,
            next_gen: 0,
            shutdown_requested: false,
            shutdown_waiters: Vec::new(),
            shutdown_answered: false,
            exit_deadline: None,
            poll: PollSet::new(),
            conn_slots: Vec::new(),
            scratch: vec![0u8; 64 * 1024],
        };
        let result = loop {
            lp.answer_shutdown_when_drained();
            if lp.exit_ready() {
                break Ok(());
            }
            if let Err(e) = lp.tick() {
                break Err(e);
            }
        };
        queue.close();
        for worker in workers {
            let _ = worker.join();
        }
        result
    }
}

/// Newline framing of one connection's byte stream. Each read is scanned
/// once, from where the last scan stopped, and completed lines are
/// dropped from the buffer once per read burst ([`Self::compact`]), so a
/// line costs time linear in its length however many reads it spans.
#[derive(Debug, Default)]
pub(crate) struct LineFramer {
    buf: Vec<u8>,
    /// Start of the current, incomplete line; `buf[start..]` holds no
    /// newline.
    start: usize,
}

/// A line without its `\r\n` / `\n` terminator.
fn strip_cr(line: &[u8]) -> &[u8] {
    line.strip_suffix(b"\r").unwrap_or(line)
}

impl LineFramer {
    /// Appends one read and moves every line it completes into `lines`,
    /// terminator stripped. Returns true once a line — complete or not —
    /// is longer than `max` bytes without its terminator; lines before
    /// it have been moved out, and the caller discards the rest.
    pub(crate) fn push(&mut self, bytes: &[u8], max: usize, lines: &mut Vec<Vec<u8>>) -> bool {
        let mut scan = self.buf.len();
        self.buf.extend_from_slice(bytes);
        while let Some(off) = self.buf[scan..].iter().position(|&b| b == b'\n') {
            let end = scan + off;
            let line = strip_cr(&self.buf[self.start..end]);
            if line.len() > max {
                return true;
            }
            lines.push(line.to_vec());
            self.start = end + 1;
            scan = self.start;
        }
        strip_cr(&self.buf[self.start..]).len() > max
    }

    /// Drops the bytes of completed lines.
    pub(crate) fn compact(&mut self) {
        self.buf.drain(..self.start);
        self.start = 0;
    }

    /// Bytes of the incomplete line.
    pub(crate) fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Discards everything buffered.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.start = 0;
    }
}

/// One connection owned by the loop.
struct Conn {
    stream: TcpStream,
    gen: u64,
    framer: LineFramer,
    /// Pending outbound bytes; `wpos` is the already-written prefix.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Armed when a started line is buffered and a read timeout is
    /// configured; cleared when the line completes.
    line_deadline: Option<Instant>,
    /// Responses dispatched to workers and still owed.
    in_flight: usize,
    /// Terminal *error* state (oversized line, read timeout, truncated
    /// request, shutdown answer): flush `wbuf`, then close. No further
    /// lines are parsed and later completions are suppressed, so the
    /// error reply is deterministically the connection's final line. A
    /// clean EOF never sets this — see `read_closed`.
    close_after_flush: bool,
    /// Peer half-closed its write side (clean EOF). The connection turns
    /// write-only: lines received before the FIN are still dispatched,
    /// owed completions are still delivered, and the socket closes once
    /// `in_flight` and `wbuf` both drain.
    read_closed: bool,
    /// Last time a write made progress (or data was first queued);
    /// drives the write-stall deadline.
    last_progress: Instant,
}

impl Conn {
    fn has_pending_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Appends already newline-terminated wire bytes.
    fn push_wire(&mut self, wire: &[u8]) {
        if !self.has_pending_write() {
            self.last_progress = Instant::now();
        }
        self.wbuf.extend_from_slice(wire);
    }

    /// Appends one response line plus its newline.
    fn push_line(&mut self, line: &str) {
        self.push_wire(line.as_bytes());
        self.wbuf.push(b'\n');
    }

    /// Queues a terminal error reply; the connection closes once it is
    /// flushed.
    fn fail(&mut self, code: &str, msg: &str) {
        self.push_line(&coded_error_response(None, code, msg, None));
        self.close_after_flush = true;
    }

    /// Half-closed, and everything owed has been answered and flushed.
    fn drained(&self) -> bool {
        self.read_closed
            && !self.close_after_flush
            && self.in_flight == 0
            && !self.has_pending_write()
    }

    /// Writes as much of the pending buffer as the socket accepts;
    /// returns false when the connection is dead. The short-write fault
    /// caps one attempt at a single byte and yields, exercising the
    /// partial-write resume path deterministically.
    fn flush_conn(
        &mut self,
        faults: Option<&FaultInjector>,
        short_writes: &'static CounterSite,
    ) -> bool {
        loop {
            let pending_len = self.wbuf.len() - self.wpos;
            if pending_len == 0 {
                break;
            }
            let cap = match faults {
                Some(f) if f.next_short_write() => {
                    short_writes.add(1);
                    1
                }
                _ => pending_len,
            };
            match self.stream.write(&self.wbuf[self.wpos..self.wpos + cap]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.wpos += n;
                    self.last_progress = Instant::now();
                    if cap < pending_len {
                        // Injected short write: leave the rest for the
                        // next tick so the resume path actually runs.
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        true
    }
}

/// Best-effort `server_busy` rejection written without occupying a slab
/// slot; the socket is nonblocking, so a full buffer just drops the
/// notice.
fn reject_busy(stream: &TcpStream, limit: usize) {
    let mut line = coded_error_response(
        None,
        codes::SERVER_BUSY,
        &format!("connection limit reached ({limit} open connections); retry later"),
        Some(200),
    );
    line.push('\n');
    let _ = (&*stream).write(line.as_bytes());
}

/// The running loop: the listener, the connection slab, the wakeup pipe
/// and the completion channel, driving one [`Service`].
struct Loop<'s, S> {
    service: &'s S,
    limits: Limits,
    sites: Sites,
    listener: TcpListener,
    wakeup: Wakeup,
    completions: mpsc::Receiver<Completion>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    open: usize,
    next_gen: u64,
    shutdown_requested: bool,
    shutdown_waiters: Vec<(ConnToken, Option<String>)>,
    shutdown_answered: bool,
    exit_deadline: Option<Instant>,
    poll: PollSet,
    /// Scratch mapping of poll-set slot → slab index, rebuilt per tick.
    conn_slots: Vec<(usize, usize)>,
    /// Scratch read buffer shared by all connections.
    scratch: Vec<u8>,
}

impl<S: Service> Loop<'_, S> {
    /// One poll cycle: build the registration set, wait for readiness,
    /// then service wakeups, completions, reads, deadlines, writes and
    /// accepts in that order.
    fn tick(&mut self) -> io::Result<()> {
        self.poll.clear();
        self.conn_slots.clear();
        let wake_slot = self.poll.register(self.wakeup.fd(), POLLIN);
        let listen_slot = (!self.shutdown_requested)
            .then(|| self.poll.register(self.listener.as_raw_fd(), POLLIN));
        for (idx, conn) in self.conns.iter().enumerate() {
            let Some(conn) = conn else { continue };
            let mut events: i16 = 0;
            if !conn.read_closed {
                events |= POLLIN;
            }
            if conn.has_pending_write() {
                events |= POLLOUT;
            }
            if events != 0 {
                self.conn_slots
                    .push((self.poll.register(conn.stream.as_raw_fd(), events), idx));
            }
        }
        let timeout = self.poll_timeout();
        self.poll.poll(Some(timeout))?;
        self.sites.ticks.add(1);

        if self.poll.revents(wake_slot).readable() {
            self.sites.wakeups.add(1);
            self.wakeup.drain();
        }
        self.drain_completions();
        for k in 0..self.conn_slots.len() {
            let (slot, idx) = self.conn_slots[k];
            if self.poll.revents(slot).readable() {
                self.read_ready(idx);
            }
        }
        self.service_timers_and_flush();
        // Accept *after* reads and reaping: a connection closed in this
        // same tick must free its slot before the busy check, or a
        // back-to-back close-then-connect client gets a spurious
        // `server_busy`.
        if let Some(slot) = listen_slot {
            if self.poll.revents(slot).readable() {
                self.accept_ready()?;
            }
        }
        self.service.tick();
        Ok(())
    }

    /// The next poll timeout: tight while draining for shutdown,
    /// otherwise the nearest read/write/exit deadline, capped at the
    /// idle tick.
    fn poll_timeout(&self) -> Duration {
        if self.shutdown_requested && !self.shutdown_answered {
            return DRAIN_POLL;
        }
        let mut nearest: Option<Instant> = self.exit_deadline;
        for conn in self.conns.iter().flatten() {
            let write_deadline = conn
                .has_pending_write()
                .then(|| conn.last_progress + WRITE_TIMEOUT);
            for d in [conn.line_deadline, write_deadline].into_iter().flatten() {
                nearest = Some(nearest.map_or(d, |n| n.min(d)));
            }
        }
        match nearest {
            Some(d) => d
                .saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1))
                .min(IDLE_POLL),
            None => IDLE_POLL,
        }
    }

    /// The live connection a token names, if its slot was not closed or
    /// reused since.
    fn conn_for(&mut self, token: ConnToken) -> Option<&mut Conn> {
        self.conns
            .get_mut(token.idx)
            .and_then(Option::as_mut)
            .filter(|c| c.gen == token.gen)
    }

    /// Routes finished work to its connection. Stale tokens (closed or
    /// reused slots) are dropped — exactly the disconnected-client
    /// semantics.
    fn drain_completions(&mut self) {
        while let Ok(done) = self.completions.try_recv() {
            self.sites.completions.add(1);
            let Some(conn) = self.conn_for(done.token) else {
                continue;
            };
            conn.in_flight = conn.in_flight.saturating_sub(done.responses);
            // Error closures suppress late completions — the queued error
            // reply stays the final line. A half-closed client
            // (`read_closed` without the error state) still gets every
            // owed response: it sent FIN, not a protocol violation.
            if !conn.close_after_flush {
                conn.push_wire(&done.wire);
            }
        }
    }

    fn accept_ready(&mut self) -> io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.sites.connections.add(1);
                    let _ = stream.set_nonblocking(true);
                    // Request/response alternation deadlocks with Nagle +
                    // delayed ACK into ~40 ms stalls per round-trip.
                    let _ = stream.set_nodelay(true);
                    if self.open >= self.limits.max_connections {
                        self.sites.rejected_busy.add(1);
                        reject_busy(&stream, self.limits.max_connections);
                        continue;
                    }
                    self.next_gen += 1;
                    let conn = Conn {
                        stream,
                        gen: self.next_gen,
                        framer: LineFramer::default(),
                        wbuf: Vec::new(),
                        wpos: 0,
                        line_deadline: None,
                        in_flight: 0,
                        close_after_flush: false,
                        read_closed: false,
                        last_progress: Instant::now(),
                    };
                    match self.free.pop() {
                        Some(idx) => self.conns[idx] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                    self.open += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                // A peer that aborted between SYN and accept is its
                // problem, not a reason to die (common under soak load).
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted
                            | io::ErrorKind::ConnectionAborted
                            | io::ErrorKind::ConnectionReset
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn close_conn(&mut self, idx: usize) {
        if self.conns[idx].take().is_some() {
            self.free.push(idx);
            self.open -= 1;
        }
    }

    /// Reads everything currently available on one connection, frames
    /// complete lines and dispatches them. Level-triggered readiness
    /// makes the deferred-readiness fault safe: a skipped tick is
    /// re-signalled on the next poll.
    ///
    /// Terminal events (EOF, an oversized line, an I/O error) are only
    /// *recorded* inside the read loop and acted on after every complete
    /// line already framed from the same burst has been dispatched — a
    /// client may legally write its requests and immediately shut down
    /// its write side, and DESIGN.md §9.2 promises every complete line a
    /// response regardless of how that FIN races the poll tick.
    fn read_ready(&mut self, idx: usize) {
        if let Some(faults) = self.service.faults() {
            if faults.next_deferred_ready() {
                self.sites.deferred_ready.add(1);
                return;
            }
        }
        let max = self.limits.max_request_bytes;
        let mut lines: Vec<Vec<u8>> = Vec::new();
        let mut fatal = false;
        let mut overflow = false;
        let mut truncated_bytes: Option<usize> = None;
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        loop {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.read_closed = true;
                    let pending = conn.framer.pending();
                    if pending > 0 && !conn.close_after_flush && !overflow {
                        self.sites.truncated.add(1);
                        truncated_bytes = Some(pending);
                        conn.framer.clear();
                        conn.line_deadline = None;
                    }
                    break;
                }
                // Terminal state: drain and discard so the error response
                // is not torn down by a reset.
                Ok(_) if conn.close_after_flush || overflow => {}
                Ok(n) => {
                    if conn.framer.push(&self.scratch[..n], max, &mut lines) {
                        overflow = true;
                        self.sites.request_too_large.add(1);
                        conn.framer.clear();
                        conn.line_deadline = None;
                    } else if conn.framer.pending() == 0 {
                        conn.line_deadline = None;
                    } else if conn.line_deadline.is_none() {
                        conn.line_deadline = self.limits.read_timeout.map(|t| Instant::now() + t);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    fatal = true;
                    break;
                }
            }
        }
        conn.framer.compact();
        // Dispatch first: every framed line was complete before any
        // terminal event in this burst. Immediate replies land in the
        // outbuf ahead of whatever error line the event queues below.
        for line in lines {
            self.handle_line(idx, line);
        }
        if fatal {
            self.close_conn(idx);
            return;
        }
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        if let Some(bytes) = truncated_bytes {
            conn.fail(
                codes::BAD_REQUEST,
                &format!("truncated request: {bytes} bytes without a newline before EOF"),
            );
        }
        if overflow {
            conn.fail(
                codes::REQUEST_TOO_LARGE,
                &format!("request line exceeds the {max} byte limit"),
            );
        }
        // Clean EOF with nothing owed closes immediately; with responses
        // owed or bytes buffered the connection stays in write-drain
        // (reaped by `service_timers_and_flush` once both hit zero).
        if conn.drained() {
            self.close_conn(idx);
        }
    }

    /// Parses one complete request line and answers or dispatches it.
    fn handle_line(&mut self, idx: usize, raw: Vec<u8>) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        let token = ConnToken { idx, gen: conn.gen };
        let Ok(line) = String::from_utf8(raw) else {
            self.sites.bad_utf8.add(1);
            // Resynced at the newline — the connection survives.
            conn.push_line(&coded_error_response(
                None,
                codes::BAD_REQUEST,
                "request line is not valid UTF-8",
                None,
            ));
            return;
        };
        if line.trim().is_empty() {
            return;
        }
        let items = match parse_request(&line) {
            Err((id, msg)) => {
                conn.push_line(&coded_error_response(
                    id.as_deref(),
                    codes::BAD_REQUEST,
                    &msg,
                    None,
                ));
                return;
            }
            Ok(Request::Status { id }) => {
                let status = self.service.status_json(self.open, self.shutdown_requested);
                conn.push_line(&ok_response(id.as_deref(), false, &status));
                return;
            }
            Ok(Request::Shutdown { id }) => {
                self.sites.shutdown_requests.add(1);
                self.shutdown_requested = true;
                self.shutdown_waiters.push((token, id));
                return;
            }
            Ok(Request::Job(job)) => vec![Ok(job)],
            Ok(Request::Batch { id, items }) => {
                let n = items.len() as u64;
                if items.len() > self.limits.max_batch {
                    self.service.count_rejected(n);
                    self.sites.rejected_batch.add(n);
                    conn.push_line(&coded_error_response(
                        id.as_deref(),
                        codes::BATCH_TOO_LARGE,
                        &format!(
                            "batch of {} elements exceeds the {} element limit",
                            items.len(),
                            self.limits.max_batch
                        ),
                        None,
                    ));
                    return;
                }
                self.sites.batched.add(n);
                items
            }
        };
        let mut reply = |line: &str| conn.push_line(line);
        let owed = self
            .service
            .dispatch(token, line, items, self.shutdown_requested, &mut reply);
        conn.in_flight += owed;
    }

    /// Once the queue drains after a shutdown request: flush every
    /// already-completed response into its write buffer *first*, then
    /// answer the waiters and start the bounded exit grace period.
    fn answer_shutdown_when_drained(&mut self) {
        if !self.shutdown_requested || self.shutdown_answered || !self.service.is_drained() {
            return;
        }
        // Workers send the completion before marking the task done, so a
        // drained queue means every response is already in the channel.
        self.drain_completions();
        let result = self.service.shutdown_json();
        for (token, id) in std::mem::take(&mut self.shutdown_waiters) {
            if let Some(conn) = self.conn_for(token) {
                conn.push_line(&ok_response(id.as_deref(), false, &result));
                conn.close_after_flush = true;
            }
        }
        self.shutdown_answered = true;
        self.exit_deadline = Some(Instant::now() + FLUSH_GRACE);
    }

    /// The loop may exit once shutdown is answered and every write
    /// buffer is flushed (or the grace period expired — a vanished
    /// client cannot wedge shutdown).
    fn exit_ready(&self) -> bool {
        if !self.shutdown_answered {
            return false;
        }
        let all_flushed = self.conns.iter().flatten().all(|c| !c.has_pending_write());
        all_flushed || self.exit_deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Enforces read deadlines, flushes pending writes, applies the
    /// write-stall deadline and reaps terminal connections.
    fn service_timers_and_flush(&mut self) {
        let now = Instant::now();
        let faults = self.service.faults();
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            if conn.line_deadline.is_some_and(|d| now >= d) && !conn.close_after_flush {
                self.sites.read_timeout.add(1);
                conn.framer.clear();
                conn.line_deadline = None;
                conn.fail(
                    codes::READ_TIMEOUT,
                    "request line not completed before the read deadline",
                );
            }
            let mut close_now = false;
            if conn.has_pending_write() {
                if !conn.flush_conn(faults, self.sites.short_writes) {
                    close_now = true;
                } else if conn.has_pending_write()
                    && now.duration_since(conn.last_progress) > WRITE_TIMEOUT
                {
                    self.sites.write_stalled.add(1);
                    close_now = true;
                }
            }
            // Error closures end once flushed; a half-closed connection in
            // write-drain once every dispatched line is answered.
            close_now |= (conn.close_after_flush && !conn.has_pending_write()) || conn.drained();
            if close_now {
                self.close_conn(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Framing by the definition: split on `\n`, strip one `\r`, and stop
    /// at the first line longer than `max` — complete or still open.
    /// Returns the lines, whether it overflowed, and the open tail.
    fn split_model(stream: &[u8], max: usize) -> (Vec<Vec<u8>>, bool, Vec<u8>) {
        let mut segments: Vec<&[u8]> = stream.split(|&b| b == b'\n').collect();
        let tail = segments.pop().unwrap_or_default();
        let mut lines = Vec::new();
        for seg in segments {
            if strip_cr(seg).len() > max {
                return (lines, true, Vec::new());
            }
            lines.push(strip_cr(seg).to_vec());
        }
        (lines, strip_cr(tail).len() > max, tail.to_vec())
    }

    proptest! {
        /// However a stream is split into reads (and however reads group
        /// into bursts between compactions), the framer yields exactly the
        /// lines, overflow and open tail of splitting the whole stream.
        #[test]
        fn framing_is_independent_of_read_boundaries(
            symbols in vec(0u8..6, 0..300),
            cuts in vec(0usize..300, 0..12),
            compact_every in 1usize..4,
            max in 0usize..40,
        ) {
            // A small alphabet so terminators and `\r\n` pairs are common.
            let stream: Vec<u8> = symbols.iter().map(|&s| b"\n\r\nxy\xff"[usize::from(s)]).collect();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (stream.len() + 1)).collect();
            cuts.push(stream.len());
            cuts.sort_unstable();
            let mut framer = LineFramer::default();
            let mut lines = Vec::new();
            let mut overflow = false;
            let mut from = 0;
            for (i, &to) in cuts.iter().enumerate() {
                if framer.push(&stream[from..to], max, &mut lines) {
                    overflow = true;
                    break;
                }
                from = to;
                if i % compact_every == 0 {
                    framer.compact();
                }
            }
            let (want_lines, want_overflow, tail) = split_model(&stream, max);
            prop_assert_eq!(lines, want_lines);
            prop_assert_eq!(overflow, want_overflow);
            if !overflow {
                prop_assert_eq!(framer.pending(), tail.len());
            }
        }
    }

    #[test]
    fn a_long_line_is_scanned_once_across_many_reads() {
        // 4 MiB in 64 KiB reads with no compaction in between: the framer
        // must not rescan (it would still pass, just slowly), and the line
        // arrives whole once the newline does.
        let mut framer = LineFramer::default();
        let mut lines = Vec::new();
        let chunk = vec![b'a'; 64 * 1024];
        for _ in 0..64 {
            assert!(!framer.push(&chunk, usize::MAX, &mut lines));
        }
        assert!(!framer.push(b"\r\nnext", usize::MAX, &mut lines));
        framer.compact();
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].len(), 64 * 64 * 1024);
        assert_eq!(framer.pending(), 4);
    }

    #[test]
    fn poll_times_out_on_a_quiet_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut set = PollSet::new();
        set.register(listener.as_raw_fd(), POLLIN);
        let ready = set.poll(Some(Duration::from_millis(10))).unwrap();
        assert_eq!(ready, 0);
    }

    #[test]
    fn poll_reports_an_accept_ready_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let mut set = PollSet::new();
        let slot = set.register(listener.as_raw_fd(), POLLIN);
        let ready = set.poll(Some(Duration::from_millis(2000))).unwrap();
        assert!(ready >= 1);
        assert!(set.revents(slot).readable());
    }

    #[test]
    fn poll_reports_readable_data_and_writable_buffers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        let mut set = PollSet::new();
        let r = set.register(server.as_raw_fd(), POLLIN);
        let w = set.register(client.as_raw_fd(), POLLOUT);
        let ready = set.poll(Some(Duration::from_millis(2000))).unwrap();
        assert!(ready >= 1);
        assert!(set.revents(r).readable(), "server side has bytes to read");
        assert!(set.revents(w).writable(), "idle client buffer is writable");
    }

    #[test]
    fn waker_rouses_a_parked_poll() {
        let wakeup = Wakeup::new().unwrap();
        let waker = wakeup.waker().unwrap();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let mut set = PollSet::new();
        let slot = set.register(wakeup.fd(), POLLIN);
        let begun = std::time::Instant::now();
        let ready = set.poll(Some(Duration::from_secs(10))).unwrap();
        assert!(ready >= 1);
        assert!(set.revents(slot).readable());
        assert!(
            begun.elapsed() < Duration::from_secs(5),
            "wakeup did not interrupt the poll"
        );
        wakeup.drain();
        // Drained pipe: the next poll times out instead of spinning.
        set.clear();
        set.register(wakeup.fd(), POLLIN);
        assert_eq!(set.poll(Some(Duration::from_millis(10))).unwrap(), 0);
        t.join().unwrap();
    }

    #[test]
    fn coalesced_wakeups_survive_a_single_drain() {
        let wakeup = Wakeup::new().unwrap();
        let waker = wakeup.waker().unwrap();
        for _ in 0..1000 {
            waker.wake();
        }
        wakeup.drain();
        let mut set = PollSet::new();
        set.register(wakeup.fd(), POLLIN);
        assert_eq!(
            set.poll(Some(Duration::from_millis(10))).unwrap(),
            0,
            "drain left bytes behind"
        );
    }

    #[test]
    fn subsecond_timeouts_round_up_not_down() {
        // A 100 µs timeout must become 1 ms, not a 0 ms busy spin.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut set = PollSet::new();
        set.register(listener.as_raw_fd(), POLLIN);
        let ready = set.poll(Some(Duration::from_micros(100))).unwrap();
        assert_eq!(ready, 0);
    }
}
