//! The real thing: an event-driven TCP/IP overlay runtime on `std::net`.
//!
//! # Host model
//!
//! A [`TcpRuntime`] owns a fixed, small set of threads — one accept
//! **poller** plus a bounded pool of connection **workers** — and any
//! number of [`TcpHost`]s register their listening sockets with it.
//! Accepted connections are handed round-robin to the workers, each of
//! which multiplexes its share of non-blocking sockets through a
//! per-connection [`FrameAssembler`]. The thread bill for a whole fleet
//! is therefore `1 + worker_threads`, not one thread per connection: a
//! 64-host live smoke or a bench run with hundreds of virtual peers
//! costs the same handful of OS threads (the shape of BNS-style
//! experiments that multiplex thousands of peers over a small pool).
//! [`TcpHost::bind`] keeps the simple two-host ergonomics by spinning up
//! a private runtime; [`TcpHost::bind_with_runtime`] shares one across a
//! fleet.
//!
//! # The reactor: who blocks on what, and who wakes whom
//!
//! No thread here waits on a clock. Each blocks in `poll(2)` (bound in
//! the private `sys` module, the workspace's one foreign call) until
//! something it serves is ready:
//!
//! - the **poller** waits, without a timeout, on every registered
//!   listener plus its waker, and accepts only from listeners that
//!   polled ready;
//! - a **worker** waits on its connections plus its waker, for at most
//!   the time to the nearest read deadline among them
//!   ([`TcpConfig::read_timeout`] after a connection's last byte; never
//!   longer than a 250 ms cap), reads only the sockets that polled
//!   ready — each down to `WouldBlock`, readiness being
//!   level-triggered; a hang-up or socket error polls ready too and
//!   surfaces from that `read` — and reaps the ones whose deadline
//!   passed;
//! - whoever drains the inboxes (a `bcwan::fleet::Fleet`) waits in
//!   [`TcpRuntime::wait_for_delivery`] on the runtime's doorbell, which
//!   every delivery into the inbox of any host bound here rings.
//!
//! A waker is a non-blocking socket pair: a wake is a byte written, so
//! it is latched until its thread drains it. Every change a blocked
//! thread must see is **published first and announced second**: a new
//! listener is pushed, then the poller woken; an accepted connection is
//! queued to a worker, then that worker woken; [`TcpHost::shutdown`],
//! dropping the last handle of a host, and dropping the last handle of
//! the runtime set their flag, then wake every thread. The woken thread
//! drains its waker *before* it looks at that state again, so a change
//! is either seen on this pass or its byte is still pending and ends
//! the next wait at once — there is no window in which a wake is lost.
//! The doorbell (a flag under a mutex, and a condition variable) is
//! latched the same way: a delivery between a drainer's last look and
//! its wait ends that wait immediately.
//!
//! # Send path, retry, and backoff
//!
//! [`TcpHost::send`] reuses a per-peer pooled outbound connection and
//! retries dial/write failures under bounded exponential backoff:
//! attempt `k` sleeps `backoff_base << (k-1)` capped at `backoff_max`.
//! The defaults (25 ms base, 400 ms cap, 5 attempts) are tuned so a
//! single torn connection or in-progress peer restart heals within one
//! second, while a genuinely dead peer fails in about a second instead
//! of wedging the caller — the same order as the paper's LoRa duty-cycle
//! gaps, so transport-level healing is invisible at protocol level.
//! Connect and write deadlines keep a hung peer from pinning the sender.
//!
//! A pooled connection is checked before it is reused. Outbound
//! streams are only ever written to, so one that polls *readable* holds
//! the peer's FIN or reset: the receiver reaped it after its read
//! deadline (30 s by default — shorter than one 60 s block interval),
//! restarted, or shut down. A write into such a stream returns `Ok` and
//! delivers nothing, so the sender drops it and dials again — a
//! `pool_miss` and a fresh `dial`, not a `pool_hit`. The check is one
//! zero-timeout `poll` (≈ 0.25 µs against a ≈ 10 µs send).
//!
//! # Authentication
//!
//! Every frame is authenticated with the host's provisioned
//! [`FrameKey`] ([`TcpConfig::auth_key`]); inbound frames whose tag does
//! not verify are rejected and counted as `transport.auth.fail_total`.
//! There is no unauthenticated mode — a peer outside the federation (or
//! one forging another gateway's `from` identity) cannot get a single
//! message into the inbox.
//!
//! # Fault injection
//!
//! [`TcpHost::inject_send_faults`] arms the sender to tear down the next
//! N connections mid-frame (half the bytes written, then a hard
//! shutdown). The torn frame is rejected by the receiver's validation
//! and the sender's retry path re-dials and re-sends — the failure drill
//! the live loopback test runs. `TcpHost::inject_recv_faults`, built
//! only into this module's tests, is the mirror image: the next N
//! connections that deliver bytes to this host are hard-closed
//! mid-frame, so sender-side recovery against a crashing *receiver* is
//! testable too. Both knobs count into `transport.fault.send_total` /
//! `transport.fault.recv_total`.

use super::frame::{encode_frame, FrameAssembler, FrameKey, MAX_FRAME_PAYLOAD};
use super::inbox::{inbox_channel, Doorbell, Envelope, Inbox, InboxSender};
use super::sys::{self, PollFd, Waker};
use super::{Codec, TransportError, TransportStats};
use crate::NodeId;
use bcwan_sim::Registry;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::marker::PhantomData;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The longest a worker blocks when no read deadline is nearer. Nothing
/// is known to need it — every state change wakes the threads it
/// concerns — but should a wake ever go missing, the cost is one stall
/// of this length (which `tests/reactor.rs` would catch), not a hang.
const POLL_CAP: Duration = Duration::from_millis(250);

/// Read buffer each worker drains sockets through.
const READ_CHUNK: usize = 64 * 1024;

/// Tunables for one host's transport runtime.
///
/// The retry/backoff constants are not arbitrary: see the module docs
/// for the rationale (heal a torn connection in under a second, give up
/// on a dead peer in about one).
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Deadline for establishing an outbound connection.
    pub connect_timeout: Duration,
    /// Idle deadline on accepted connections (`None` keeps silent
    /// connections forever; the default reaps a peer that goes quiet so
    /// a fleet's worker pool only tracks live sockets).
    pub read_timeout: Option<Duration>,
    /// Write deadline on outbound connections.
    pub write_timeout: Duration,
    /// Total attempts per [`TcpHost::send`] (first try + retries).
    pub max_send_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub backoff_base: Duration,
    /// Ceiling on the per-retry backoff.
    pub backoff_max: Duration,
    /// Worker threads in a *private* runtime created by
    /// [`TcpHost::bind`]. Ignored by [`TcpHost::bind_with_runtime`],
    /// where the shared [`TcpRuntime`] fixes the pool size.
    pub worker_threads: usize,
    /// The provisioned frame-authentication key. Both ends of every
    /// connection must hold the same key; defaults to the well-known
    /// [`FrameKey::dev`] key, which is fine for tests and single-machine
    /// experiments and nothing else.
    pub auth_key: FrameKey,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Duration::from_secs(5),
            max_send_attempts: 5,
            backoff_base: Duration::from_millis(25),
            backoff_max: Duration::from_millis(400),
            worker_threads: 2,
            auth_key: FrameKey::dev(),
        }
    }
}

impl TcpConfig {
    /// Tight deadlines for loopback tests: failures surface in
    /// milliseconds instead of wedging CI.
    pub fn fast_test() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Duration::from_secs(2),
            max_send_attempts: 6,
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(50),
            ..TcpConfig::default()
        }
    }

    fn backoff(&self, retry: u32) -> Duration {
        let factor = 1u32 << retry.min(10);
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_max)
    }
}

/// Everything a worker needs to service one host's inbound traffic.
struct HostShared<M, C> {
    codec: Arc<C>,
    stats: Arc<TransportStats>,
    running: Arc<AtomicBool>,
    sender: InboxSender<M>,
    /// Armed by `inject_recv_faults`, which only this module's tests
    /// build: a production worker pays no check per read.
    #[cfg(test)]
    fault_recvs: Arc<AtomicU64>,
    key: FrameKey,
    read_timeout: Option<Duration>,
}

/// A registered listening socket awaiting accepts.
struct ListenerEntry<M, C> {
    listener: TcpListener,
    shared: Arc<HostShared<M, C>>,
}

/// One accepted connection owned by a worker.
struct ConnState<M, C> {
    stream: TcpStream,
    shared: Arc<HostShared<M, C>>,
    assembler: FrameAssembler,
    last_activity: Instant,
}

impl<M, C> ConnState<M, C> {
    /// What becomes of a connection with nothing to read: kept, unless
    /// the peer has been quiet past the host's read deadline. That is
    /// counted like a blocking reader's read timeout — the wait was
    /// abandoned, and any half-received frame with it.
    fn idle_verdict(&self) -> Verdict {
        match self.shared.read_timeout {
            Some(deadline) if self.last_activity.elapsed() >= deadline => {
                TransportStats::bump(&self.shared.stats.frames_rejected);
                TransportStats::bump(&self.shared.stats.timeouts);
                Verdict::Close
            }
            _ => Verdict::Keep,
        }
    }
}

/// The poller's end of one worker.
struct WorkerLink<M, C> {
    conns: mpsc::Sender<ConnState<M, C>>,
    waker: Arc<Waker>,
}

impl<M, C> WorkerLink<M, C> {
    /// Queues the connection, then wakes the worker to adopt it.
    fn hand_off(&self, conn: ConnState<M, C>) {
        // A dead channel only happens at shutdown; dropping the
        // connection is fine.
        let _ = self.conns.send(conn);
        self.waker.wake();
    }
}

struct RuntimeInner<M, C> {
    shutdown: Arc<AtomicBool>,
    listeners: Arc<Mutex<Vec<ListenerEntry<M, C>>>>,
    /// One per thread: the poller's, then each worker's.
    wakers: Vec<Arc<Waker>>,
    /// Rung by every delivery into an inbox of a host bound here.
    doorbell: Arc<Doorbell>,
}

impl<M, C> RuntimeInner<M, C> {
    /// Makes every thread look again at what it serves. Callers publish
    /// the change (a flag, a listener) first.
    fn wake_all(&self) {
        for waker in &self.wakers {
            waker.wake();
        }
    }
}

impl<M, C> Drop for RuntimeInner<M, C> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake_all();
    }
}

/// The shared event-driven engine behind one or more [`TcpHost`]s: one
/// accept poller plus a bounded pool of connection workers, each blocked
/// in `poll(2)` until one of its sockets is ready.
///
/// Clones share the same threads. The runtime stays alive while any
/// clone or any host bound through it exists; when the last one drops,
/// the threads are woken and exit.
pub struct TcpRuntime<M, C> {
    inner: Arc<RuntimeInner<M, C>>,
}

impl<M, C> Clone for TcpRuntime<M, C> {
    fn clone(&self) -> Self {
        TcpRuntime {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M, C> std::fmt::Debug for TcpRuntime<M, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpRuntime").finish_non_exhaustive()
    }
}

impl<M: Send + 'static, C: Codec<M>> TcpRuntime<M, C> {
    /// Starts a runtime with `worker_threads` connection workers (at
    /// least one) plus the accept poller.
    ///
    /// # Errors
    ///
    /// Waker (socket pair) or thread-spawn failure.
    pub fn new(worker_threads: usize) -> io::Result<Self> {
        let wakers = (0..=worker_threads.max(1))
            .map(|_| Waker::new().map(Arc::new))
            .collect::<io::Result<Vec<_>>>()?;
        // Built before any thread starts: should a spawn fail, dropping
        // this stops the threads already running.
        let inner = Arc::new(RuntimeInner {
            shutdown: Arc::new(AtomicBool::new(false)),
            listeners: Arc::new(Mutex::new(Vec::new())),
            wakers,
            doorbell: Arc::default(),
        });

        let mut workers = Vec::new();
        for (i, waker) in inner.wakers[1..].iter().enumerate() {
            let (tx, rx) = mpsc::channel::<ConnState<M, C>>();
            workers.push(WorkerLink {
                conns: tx,
                waker: Arc::clone(waker),
            });
            let (waker, shutdown) = (Arc::clone(waker), Arc::clone(&inner.shutdown));
            std::thread::Builder::new()
                .name(format!("bcwan-net-worker-{i}"))
                .spawn(move || worker_loop(rx, waker, shutdown))?;
        }

        let listeners = Arc::clone(&inner.listeners);
        let (waker, shutdown) = (Arc::clone(&inner.wakers[0]), Arc::clone(&inner.shutdown));
        std::thread::Builder::new()
            .name("bcwan-net-poll".to_string())
            .spawn(move || poller_loop(listeners, workers, waker, shutdown))?;

        Ok(TcpRuntime { inner })
    }

    fn register(&self, listener: TcpListener, shared: Arc<HostShared<M, C>>) {
        self.inner
            .listeners
            .lock()
            .unwrap()
            .push(ListenerEntry { listener, shared });
        self.inner.wakers[0].wake();
    }

    /// Blocks until a message has landed in the inbox of *any* host bound
    /// on this runtime since the last call, or `timeout` elapses; whether
    /// one has. For a loop that drains every inbox itself — a delivery
    /// between its last drain and this call is latched, not lost.
    pub fn wait_for_delivery(&self, timeout: Duration) -> bool {
        self.inner.doorbell.wait(timeout)
    }
}

struct Inner<M, C> {
    node: NodeId,
    codec: Arc<C>,
    cfg: TcpConfig,
    local: SocketAddr,
    pool: Mutex<HashMap<SocketAddr, TcpStream>>,
    stats: Arc<TransportStats>,
    running: Arc<AtomicBool>,
    inbox_depth: Arc<AtomicU64>,
    fault_sends: AtomicU64,
    /// Shared with the workers servicing this host's connections; armed
    /// by `inject_recv_faults`.
    #[cfg(test)]
    fault_recvs: Arc<AtomicU64>,
    /// The runtime serving this host: its threads stay alive while the
    /// host exists, and are woken when it stops.
    runtime: TcpRuntime<M, C>,
}

impl<M, C> Inner<M, C> {
    /// Takes the host off its runtime: once woken, the poller drops the
    /// listener and the workers drop this host's connections.
    fn stop(&self) {
        self.running.store(false, Ordering::SeqCst);
        self.runtime.inner.wake_all();
    }
}

impl<M, C> Drop for Inner<M, C> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A live TCP transport endpoint: a registered listener on an
/// event-driven [`TcpRuntime`] plus a per-peer pool of outbound
/// connections. Clones share the same host.
pub struct TcpHost<M, C> {
    inner: Arc<Inner<M, C>>,
    _msg: PhantomData<fn(&M)>,
}

impl<M, C> Clone for TcpHost<M, C> {
    fn clone(&self) -> Self {
        TcpHost {
            inner: Arc::clone(&self.inner),
            _msg: PhantomData,
        }
    }
}

impl<M, C> std::fmt::Debug for TcpHost<M, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpHost")
            .field("node", &self.inner.node)
            .field("local", &self.inner.local)
            .finish()
    }
}

impl<M: Send + 'static, C: Codec<M>> TcpHost<M, C> {
    /// Binds a listener on `addr` (use port 0 for an OS-assigned port)
    /// on a fresh private runtime with [`TcpConfig::worker_threads`]
    /// workers, and returns the host handle plus the inbox where decoded
    /// inbound messages arrive.
    ///
    /// # Errors
    ///
    /// The bind or thread-spawn failure, if any.
    pub fn bind(
        addr: SocketAddr,
        node: NodeId,
        codec: C,
        cfg: TcpConfig,
    ) -> io::Result<(Self, Inbox<M>)> {
        let runtime = TcpRuntime::new(cfg.worker_threads)?;
        Self::bind_with_runtime(&runtime, addr, node, codec, cfg)
    }

    /// Like [`TcpHost::bind`], but registers the listener on an existing
    /// shared [`TcpRuntime`] — the fleet shape, where dozens of hosts
    /// share one poller and a few workers.
    ///
    /// # Errors
    ///
    /// The bind failure, if any.
    pub fn bind_with_runtime(
        runtime: &TcpRuntime<M, C>,
        addr: SocketAddr,
        node: NodeId,
        codec: C,
        cfg: TcpConfig,
    ) -> io::Result<(Self, Inbox<M>)> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let codec = Arc::new(codec);
        let kind_labels = (0..codec.kind_count())
            .map(|i| codec.kind_label(i))
            .collect();
        let stats = Arc::new(TransportStats::new(kind_labels));
        let running = Arc::new(AtomicBool::new(true));
        let (tx, inbox) = inbox_channel(Arc::clone(&runtime.inner.doorbell));
        let inbox_depth = tx.depth_handle();
        #[cfg(test)]
        let fault_recvs = Arc::new(AtomicU64::new(0));

        runtime.register(
            listener,
            Arc::new(HostShared {
                codec: Arc::clone(&codec),
                stats: Arc::clone(&stats),
                running: Arc::clone(&running),
                sender: tx,
                #[cfg(test)]
                fault_recvs: Arc::clone(&fault_recvs),
                key: cfg.auth_key.clone(),
                read_timeout: cfg.read_timeout,
            }),
        );

        let host = TcpHost {
            inner: Arc::new(Inner {
                node,
                codec,
                cfg,
                local,
                pool: Mutex::new(HashMap::new()),
                stats,
                running,
                inbox_depth,
                fault_sends: AtomicU64::new(0),
                #[cfg(test)]
                fault_recvs,
                runtime: runtime.clone(),
            }),
            _msg: PhantomData,
        };
        Ok((host, inbox))
    }

    /// The bound listening address (the one to publish in the directory).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local
    }

    /// This host's overlay identity (stamped into every frame header and
    /// authenticated by the frame tag).
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// Live view of the transport counters.
    pub fn stats(&self) -> &TransportStats {
        &self.inner.stats
    }

    /// Arms the sender to kill the next `n` outbound connections
    /// mid-frame (half the frame written, then a hard shutdown) — the
    /// chaos knob the fault-injection tests turn.
    pub fn inject_send_faults(&self, n: u64) {
        self.inner.fault_sends.fetch_add(n, Ordering::SeqCst);
    }

    /// Arms this host's receive side to die on the next `n` connections
    /// that deliver bytes: the worker discards what arrived (a mid-frame
    /// truncation from the peer's perspective) and hard-closes the
    /// connection — the receive-side mirror of [`inject_send_faults`].
    ///
    /// [`inject_send_faults`]: TcpHost::inject_send_faults
    #[cfg(test)]
    pub(crate) fn inject_recv_faults(&self, n: u64) {
        self.inner.fault_recvs.fetch_add(n, Ordering::SeqCst);
    }

    /// Sends one message to `to`, reusing a pooled connection when one
    /// exists and retrying dial/write failures under exponential backoff.
    ///
    /// # Errors
    ///
    /// [`TransportError`] once `max_send_attempts` are exhausted (or
    /// immediately for an oversized message).
    pub fn send(&self, to: SocketAddr, msg: &M) -> Result<(), TransportError> {
        let inner = &*self.inner;
        let payload = inner.codec.encode(msg);
        if payload.len() > MAX_FRAME_PAYLOAD {
            TransportStats::bump(&inner.stats.send_failures);
            return Err(TransportError::Oversize {
                len: payload.len(),
                max: MAX_FRAME_PAYLOAD,
            });
        }
        let kind = inner.codec.kind_index(msg);
        let frame = encode_frame(
            &inner.cfg.auth_key,
            u64::from(inner.node.0),
            kind as u8,
            &payload,
        );

        let mut last_err = TransportError::Unreachable(format!("{to}: no attempt made"));
        for attempt in 0..inner.cfg.max_send_attempts {
            if attempt > 0 {
                TransportStats::bump(&inner.stats.retries);
                std::thread::sleep(inner.cfg.backoff(attempt - 1));
            }
            // A pooled stream is only ever written to, so one that reads
            // as ready holds the peer's FIN or reset — it reaped the
            // connection, say, after its own read deadline. A write into
            // it would "succeed" and go nowhere; dial again instead.
            let pooled = inner.pool.lock().unwrap().remove(&to);
            let pooled = pooled.filter(|stream| !sys::readable_now(stream));
            let mut stream = match pooled {
                Some(stream) => {
                    TransportStats::bump(&inner.stats.pool_hits);
                    stream
                }
                None => {
                    TransportStats::bump(&inner.stats.pool_misses);
                    match self.dial(to) {
                        Ok(stream) => stream,
                        Err(e) => {
                            last_err = e;
                            continue;
                        }
                    }
                }
            };

            if self.take_fault() {
                // Tear the frame: half the bytes, then a hard close. The
                // receiver sees a truncated frame; we see a failed send.
                TransportStats::bump(&inner.stats.faults_send);
                let torn = frame.len() / 2;
                let _ = stream.write_all(&frame[..torn]);
                let _ = stream.flush();
                let _ = stream.shutdown(Shutdown::Both);
                last_err =
                    TransportError::Io(format!("{to}: injected fault killed the connection"));
                continue;
            }

            match stream.write_all(&frame).and_then(|_| stream.flush()) {
                Ok(()) => {
                    TransportStats::bump_by(&inner.stats.bytes_sent, frame.len() as u64);
                    TransportStats::bump(TransportStats::kind_slot(&inner.stats.frames_sent, kind));
                    inner.pool.lock().unwrap().insert(to, stream);
                    return Ok(());
                }
                Err(e) => {
                    last_err = classify_io(&inner.stats, to, e);
                }
            }
        }
        TransportStats::bump(&inner.stats.send_failures);
        Err(last_err)
    }

    fn dial(&self, to: SocketAddr) -> Result<TcpStream, TransportError> {
        let inner = &*self.inner;
        TransportStats::bump(&inner.stats.dials);
        match TcpStream::connect_timeout(&to, inner.cfg.connect_timeout) {
            Ok(stream) => {
                let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
                let _ = stream.set_nodelay(true);
                Ok(stream)
            }
            Err(e) => {
                TransportStats::bump(&inner.stats.dial_failures);
                if is_timeout(&e) {
                    TransportStats::bump(&inner.stats.timeouts);
                    Err(TransportError::Timeout(format!("dial {to}: {e}")))
                } else {
                    Err(TransportError::Unreachable(format!("dial {to}: {e}")))
                }
            }
        }
    }

    fn take_fault(&self) -> bool {
        take_one(&self.inner.fault_sends)
    }

    /// Drops every pooled outbound connection (peers relocated, test
    /// hygiene). Subsequent sends re-dial.
    pub(crate) fn drop_pool(&self) {
        self.inner.pool.lock().unwrap().clear();
    }

    /// Drops the pooled outbound connection to `peer`, if there is one
    /// (the path to it was cut). The next send to it re-dials; every
    /// other peer's connection stays.
    pub fn drop_peer(&self, peer: SocketAddr) {
        self.inner.pool.lock().unwrap().remove(&peer);
    }

    /// Deregisters the listener and drops pooled connections. The
    /// runtime is woken to close the listener and reap this host's
    /// inbound connections at once.
    pub fn shutdown(&self) {
        self.inner.stop();
        self.drop_pool();
    }

    /// Folds the transport counters into a metrics registry as
    /// `transport.*` rows (per-kind frame counters use the codec's
    /// labels), matching the workspace-wide `sim::metrics` snapshot
    /// convention.
    pub fn export_metrics(&self, reg: &mut Registry) {
        self.inner.stats.export(reg);
        reg.set_gauge(
            "transport.inbox_depth",
            self.inner.inbox_depth.load(Ordering::Relaxed) as f64,
        );
    }
}

/// Atomically consumes one unit from an injected-fault budget.
fn take_one(budget: &AtomicU64) -> bool {
    budget
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok()
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn classify_io(stats: &TransportStats, to: SocketAddr, e: io::Error) -> TransportError {
    if is_timeout(&e) {
        TransportStats::bump(&stats.timeouts);
        TransportError::Timeout(format!("write {to}: {e}"))
    } else {
        TransportError::Io(format!("write {to}: {e}"))
    }
}

/// The accept poller: blocks until a registered listener has a
/// connection waiting (or its waker fires), hands fresh connections
/// round-robin to the workers, and drops the listeners of hosts that
/// shut down.
fn poller_loop<M: Send + 'static, C: Codec<M>>(
    listeners: Arc<Mutex<Vec<ListenerEntry<M, C>>>>,
    workers: Vec<WorkerLink<M, C>>,
    waker: Arc<Waker>,
    shutdown: Arc<AtomicBool>,
) {
    let mut next_worker = 0usize;
    let mut fds = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        fds.clear();
        fds.push(waker.pollfd());
        {
            let mut entries = listeners.lock().unwrap();
            entries.retain(|entry| entry.shared.running.load(Ordering::SeqCst));
            fds.extend(entries.iter().map(|e| PollFd::readable(&e.listener)));
        }
        // Not under the lock: `register` must get in to publish the
        // listener its wake announces. Only this thread removes entries,
        // so `fds[1..]` still lines up with the front of the list after.
        sys::wait(&mut fds, None).expect("poll(2) over open listeners");
        waker.drain();
        let entries = listeners.lock().unwrap();
        for (entry, fd) in entries.iter().zip(&fds[1..]) {
            if !fd.ready() {
                continue;
            }
            // Until `WouldBlock` (the backlog is drained) or an error
            // (this listener is left to the next wake).
            while let Ok((stream, _)) = entry.listener.accept() {
                TransportStats::bump(&entry.shared.stats.conns_accepted);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let conn = ConnState {
                    stream,
                    shared: Arc::clone(&entry.shared),
                    assembler: FrameAssembler::new(),
                    last_activity: Instant::now(),
                };
                workers[next_worker % workers.len()].hand_off(conn);
                next_worker = next_worker.wrapping_add(1);
            }
        }
    }
}

/// One connection worker: adopts connections from the poller and blocks
/// until one of them has bytes (or has hung up), its waker fires, or the
/// nearest read deadline comes due.
fn worker_loop<M, C: Codec<M>>(
    rx: mpsc::Receiver<ConnState<M, C>>,
    waker: Arc<Waker>,
    shutdown: Arc<AtomicBool>,
) {
    let mut conns: Vec<ConnState<M, C>> = Vec::new();
    let mut fds = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    while !shutdown.load(Ordering::SeqCst) {
        // After the drain below and before blocking again: a hand-off is
        // either adopted here or its wake is still pending.
        conns.extend(rx.try_iter());
        fds.clear();
        fds.push(waker.pollfd());
        fds.extend(conns.iter().map(|conn| PollFd::readable(&conn.stream)));
        let now = Instant::now();
        let timeout = conns
            .iter()
            .filter_map(|conn| Some(conn.last_activity + conn.shared.read_timeout?))
            .map(|deadline| deadline.saturating_duration_since(now))
            .fold(POLL_CAP, Duration::min);
        sys::wait(&mut fds, Some(timeout)).expect("poll(2) over open connections");
        waker.drain();
        let mut ready = fds[1..].iter().map(PollFd::ready);
        conns.retain_mut(|conn| {
            let readable = ready.next().unwrap_or(false);
            let verdict = if !conn.shared.running.load(Ordering::SeqCst) {
                Verdict::Close
            } else if readable {
                poll_conn(conn, &mut scratch)
            } else {
                conn.idle_verdict()
            };
            matches!(verdict, Verdict::Keep)
        });
    }
}

enum Verdict {
    /// Keep the connection.
    Keep,
    /// Drop the connection.
    Close,
}

/// Drains a socket that polled ready through its assembler — down to
/// `WouldBlock`, since readiness is level-triggered — delivering
/// complete frames to the host inbox.
fn poll_conn<M, C: Codec<M>>(conn: &mut ConnState<M, C>, scratch: &mut [u8]) -> Verdict {
    let shared = Arc::clone(&conn.shared);
    let stats = &shared.stats;
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                // Peer hung up. Mid-frame it's a torn frame; between
                // frames it's a clean goodbye.
                if !conn.assembler.is_empty() {
                    TransportStats::bump(&stats.frames_rejected);
                }
                return Verdict::Close;
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                #[cfg(test)]
                if take_one(&shared.fault_recvs) {
                    // Injected receive fault: discard what arrived (a
                    // mid-frame truncation from the peer's point of
                    // view) and hard-close the connection.
                    TransportStats::bump(&stats.faults_recv);
                    let _ = conn.stream.shutdown(Shutdown::Both);
                    return Verdict::Close;
                }
                conn.assembler.extend(&scratch[..n]);
                loop {
                    match conn.assembler.next_frame(&shared.key) {
                        Ok(Some(frame)) => {
                            TransportStats::bump_by(&stats.bytes_received, frame.wire_len() as u64);
                            match shared.codec.decode(&frame.payload) {
                                Ok(msg) => {
                                    let kind = shared.codec.kind_index(&msg);
                                    TransportStats::bump(TransportStats::kind_slot(
                                        &stats.frames_received,
                                        kind,
                                    ));
                                    let envelope = Envelope {
                                        from: NodeId(frame.from as u32),
                                        msg,
                                    };
                                    if shared.sender.send(envelope).is_err() {
                                        return Verdict::Close; // inbox gone
                                    }
                                }
                                Err(_) => {
                                    // Framing is still aligned; skip the
                                    // bad payload but keep the stream.
                                    TransportStats::bump(&stats.frames_rejected);
                                }
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            // Desync, corruption, or forgery: the stream
                            // cannot be trusted past this point.
                            TransportStats::bump(&stats.frames_rejected);
                            if e.is_auth() {
                                TransportStats::bump(&stats.auth_failures);
                            }
                            let _ = conn.stream.shutdown(Shutdown::Both);
                            return Verdict::Close;
                        }
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return conn.idle_verdict(),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                if !conn.assembler.is_empty() {
                    TransportStats::bump(&stats.frames_rejected);
                }
                return Verdict::Close;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::CodecError;
    use std::sync::atomic::Ordering;

    /// Toy codec: u32 LE with a leading tag byte.
    struct U32Codec;

    impl Codec<u32> for U32Codec {
        fn encode(&self, msg: &u32) -> Vec<u8> {
            let mut out = vec![0xaa];
            out.extend_from_slice(&msg.to_le_bytes());
            out
        }

        fn decode(&self, bytes: &[u8]) -> Result<u32, CodecError> {
            if bytes.len() != 5 || bytes[0] != 0xaa {
                return Err(CodecError::new("want 5 tagged bytes"));
            }
            Ok(u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]))
        }

        fn kind_count(&self) -> usize {
            2
        }

        fn kind_index(&self, msg: &u32) -> usize {
            (*msg % 2) as usize
        }

        fn kind_label(&self, index: usize) -> &'static str {
            ["even", "odd"][index]
        }
    }

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    fn bind(node: u32) -> (TcpHost<u32, U32Codec>, Inbox<u32>) {
        TcpHost::bind(loopback(), NodeId(node), U32Codec, TcpConfig::fast_test()).expect("bind")
    }

    fn wait_for(mut cond: impl FnMut() -> bool) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !cond() {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    #[test]
    fn send_and_receive_over_loopback() {
        let (alice, _alice_inbox) = bind(1);
        let (bob, bob_inbox) = bind(2);
        alice.send(bob.local_addr(), &7).unwrap();
        alice.send(bob.local_addr(), &8).unwrap();
        let first = bob_inbox.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(first.from, NodeId(1));
        assert_eq!(first.msg, 7);
        assert_eq!(
            bob_inbox.recv_timeout(Duration::from_secs(10)).unwrap().msg,
            8
        );
        // Second send reused the pooled connection.
        assert_eq!(TransportStats::get(&alice.stats().pool_hits), 1);
        assert_eq!(TransportStats::get(&alice.stats().dials), 1);
        alice.shutdown();
        bob.shutdown();
    }

    #[test]
    fn many_hosts_share_one_runtime() {
        // The fleet shape: N hosts, one poller, two workers — and a full
        // round-robin of messages still lands everywhere.
        const N: u32 = 8;
        let runtime = TcpRuntime::new(2).expect("runtime");
        let mut hosts = Vec::new();
        for node in 0..N {
            let pair = TcpHost::bind_with_runtime(
                &runtime,
                loopback(),
                NodeId(node),
                U32Codec,
                TcpConfig::fast_test(),
            )
            .expect("bind");
            hosts.push(pair);
        }
        for i in 0..N as usize {
            let to = hosts[(i + 1) % N as usize].0.local_addr();
            hosts[i].0.send(to, &(i as u32)).unwrap();
        }
        for (i, (_, inbox)) in hosts.iter().enumerate() {
            let env = inbox.recv_timeout(Duration::from_secs(10)).unwrap();
            let expected_from = (i as u32 + N - 1) % N;
            assert_eq!(env.from, NodeId(expected_from));
            assert_eq!(env.msg, expected_from);
        }
        for (host, _) in &hosts {
            host.shutdown();
        }
    }

    #[test]
    fn unreachable_peer_fails_after_retries() {
        let (host, _inbox) = bind(1);
        // Grab a loopback port with no listener behind it.
        let vacant = {
            let probe = TcpListener::bind(loopback()).unwrap();
            probe.local_addr().unwrap()
        };
        let err = host.send(vacant, &1).unwrap_err();
        assert!(matches!(
            err,
            TransportError::Unreachable(_) | TransportError::Timeout(_)
        ));
        let stats = host.stats();
        assert_eq!(
            TransportStats::get(&stats.dial_failures),
            u64::from(TcpConfig::fast_test().max_send_attempts)
        );
        assert!(TransportStats::get(&stats.retries) > 0);
        assert_eq!(TransportStats::get(&stats.send_failures), 1);
        host.shutdown();
    }

    #[test]
    fn injected_fault_recovers_via_retry() {
        let (alice, _alice_inbox) = bind(1);
        let (bob, bob_inbox) = bind(2);
        alice.inject_send_faults(2);
        alice.send(bob.local_addr(), &42).unwrap();
        assert_eq!(
            bob_inbox.recv_timeout(Duration::from_secs(10)).unwrap().msg,
            42
        );
        assert!(TransportStats::get(&alice.stats().retries) >= 2);
        // Bob saw the torn frames and rejected them.
        assert!(wait_for(|| {
            TransportStats::get(&bob.stats().frames_rejected) >= 2
        }));
        alice.shutdown();
        bob.shutdown();
    }

    #[test]
    fn undecodable_payload_rejected_without_dropping_connection() {
        let (bob, bob_inbox) = bind(2);
        // Speak raw frames: a garbage payload, then a valid message on
        // the same connection.
        let key = FrameKey::dev();
        let mut stream = TcpStream::connect(bob.local_addr()).unwrap();
        stream
            .write_all(&encode_frame(&key, 9, 0, b"not a u32"))
            .unwrap();
        stream
            .write_all(&encode_frame(&key, 9, 0, &U32Codec.encode(&5)))
            .unwrap();
        stream.flush().unwrap();
        let env = bob_inbox.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(env.msg, 5);
        assert_eq!(env.from, NodeId(9));
        assert_eq!(TransportStats::get(&bob.stats().frames_rejected), 1);
        assert_eq!(TransportStats::get(&bob.stats().auth_failures), 0);
        bob.shutdown();
    }

    #[test]
    fn tampered_from_header_rejected_and_counted() {
        let (bob, bob_inbox) = bind(2);
        // Forge another gateway's identity by flipping a `from` byte
        // after signing: the CRC still passes, the tag must not.
        let key = FrameKey::dev();
        let mut forged = encode_frame(&key, 9, 0, &U32Codec.encode(&5));
        forged[6] ^= 0x01;
        let mut stream = TcpStream::connect(bob.local_addr()).unwrap();
        stream.write_all(&forged).unwrap();
        stream.flush().unwrap();
        assert!(wait_for(|| {
            TransportStats::get(&bob.stats().auth_failures) >= 1
        }));
        assert!(TransportStats::get(&bob.stats().frames_rejected) >= 1);
        assert!(bob_inbox.try_recv().is_none());
        bob.shutdown();
    }

    #[test]
    fn mismatched_keys_reject_everything_and_export_auth_counter() {
        // Alice holds a different federation's key; bob must reject her
        // frames wholesale and count them under transport.auth.fail.
        let mut rogue_cfg = TcpConfig::fast_test();
        rogue_cfg.auth_key = FrameKey::from_master(b"some-other-federation");
        let (alice, _ai) = TcpHost::bind(loopback(), NodeId(1), U32Codec, rogue_cfg).expect("bind");
        let (bob, bob_inbox) = bind(2);
        // The write itself succeeds — rejection happens on bob's side.
        alice.send(bob.local_addr(), &7).unwrap();
        assert!(wait_for(|| {
            TransportStats::get(&bob.stats().auth_failures) >= 1
        }));
        assert!(bob_inbox.try_recv().is_none());

        let mut reg = Registry::new();
        bob.export_metrics(&mut reg);
        let snap = reg.snapshot();
        let auth = snap
            .counters
            .iter()
            .find(|(n, _)| n == "transport.auth.fail_total")
            .map(|(_, v)| *v)
            .expect("auth counter exported");
        assert!(auth >= 1);
        alice.shutdown();
        bob.shutdown();
    }

    #[test]
    fn oversize_message_rejected_before_dialing() {
        struct BloatCodec;
        impl Codec<u32> for BloatCodec {
            fn encode(&self, _msg: &u32) -> Vec<u8> {
                vec![0; MAX_FRAME_PAYLOAD + 1]
            }
            fn decode(&self, _bytes: &[u8]) -> Result<u32, CodecError> {
                Err(CodecError::new("unused"))
            }
        }
        let (host, _inbox) =
            TcpHost::bind(loopback(), NodeId(1), BloatCodec, TcpConfig::fast_test()).unwrap();
        let err = host.send(host.local_addr(), &1).unwrap_err();
        assert!(matches!(err, TransportError::Oversize { .. }));
        assert_eq!(TransportStats::get(&host.stats().dials), 0);
        host.shutdown();
    }

    #[test]
    fn export_metrics_names_kinds() {
        let (alice, _ai) = bind(1);
        let (bob, bob_inbox) = bind(2);
        alice.send(bob.local_addr(), &2).unwrap(); // even
        alice.send(bob.local_addr(), &3).unwrap(); // odd
        bob_inbox.recv_timeout(Duration::from_secs(10)).unwrap();
        bob_inbox.recv_timeout(Duration::from_secs(10)).unwrap();

        let mut reg = Registry::new();
        alice.export_metrics(&mut reg);
        let snap = reg.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        assert_eq!(counter("transport.frames_sent_even_total"), 1);
        assert_eq!(counter("transport.frames_sent_odd_total"), 1);
        assert!(counter("transport.bytes_sent_total") > 0);
        assert_eq!(counter("transport.dials_total"), 1);
        assert_eq!(counter("transport.pool_hits_total"), 1);
        assert_eq!(counter("transport.auth.fail_total"), 0);

        let mut reg = Registry::new();
        bob.export_metrics(&mut reg);
        let snap = reg.snapshot();
        let received: u64 = snap
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("transport.frames_received_"))
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(received, 2);
        alice.shutdown();
        bob.shutdown();
    }

    #[test]
    fn inbox_depth_gauge_reflects_backlog() {
        let (alice, _ai) = bind(1);
        let (bob, bob_inbox) = bind(2);
        for i in 0..4 {
            alice.send(bob.local_addr(), &i).unwrap();
        }
        // Wait until the worker has parked all four.
        assert!(wait_for(|| bob_inbox.depth() >= 4));
        assert_eq!(bob_inbox.depth(), 4);
        let mut reg = Registry::new();
        bob.export_metrics(&mut reg);
        let snap = reg.snapshot();
        let gauge = snap
            .gauges
            .iter()
            .find(|(n, _)| n == "transport.inbox_depth")
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(gauge, 4.0);
        alice.shutdown();
        bob.shutdown();
    }

    #[test]
    fn fault_counter_drains_to_zero() {
        let (host, _inbox) = bind(1);
        host.inject_send_faults(1);
        assert!(host.take_fault());
        assert!(!host.take_fault());
        assert_eq!(host.inner.fault_sends.load(Ordering::SeqCst), 0);
        host.shutdown();
    }

    #[test]
    fn injected_recv_fault_kills_reader_and_sender_recovers() {
        let (alice, _alice_inbox) = bind(1);
        let (bob, bob_inbox) = bind(2);
        // Arm bob's next data-bearing connection to die mid-frame.
        bob.inject_recv_faults(1);
        // This send may "succeed" from alice's perspective (the bytes
        // land in the socket buffer before bob tears the connection), but
        // bob must never deliver it.
        let _ = alice.send(bob.local_addr(), &13);
        assert!(wait_for(|| {
            TransportStats::get(&bob.stats().faults_recv) >= 1
        }));
        assert_eq!(
            TransportStats::get(&bob.stats().faults_recv),
            1,
            "worker consumed the injected fault"
        );
        // The pooled connection is now dead on bob's side. A fresh dial
        // (what the retry path does after the write error surfaces)
        // reaches a new, unarmed connection.
        alice.drop_pool();
        alice.send(bob.local_addr(), &14).unwrap();
        let env = bob_inbox.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(env.msg, 14);
        // The torn first message was truncated, never delivered.
        assert!(bob_inbox.try_recv().is_none());
        alice.shutdown();
        bob.shutdown();
    }

    #[test]
    fn recv_fault_counters_exported() {
        let (alice, _ai) = bind(1);
        let (bob, bob_inbox) = bind(2);
        bob.inject_recv_faults(1);
        alice.inject_send_faults(1);
        let _ = alice.send(bob.local_addr(), &21);
        // The send-side fault burns the first attempt; the retry lands on
        // bob's armed connection; the next retry gets through.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while bob_inbox.try_recv().is_none() && std::time::Instant::now() < deadline {
            alice.drop_pool();
            let _ = alice.send(bob.local_addr(), &21);
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut reg = Registry::new();
        alice.export_metrics(&mut reg);
        let snap = reg.snapshot();
        let counter = |snap: &bcwan_sim::Snapshot, name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        assert_eq!(counter(&snap, "transport.fault.send_total"), 1);
        assert_eq!(counter(&snap, "transport.fault.recv_total"), 0);
        let mut reg = Registry::new();
        bob.export_metrics(&mut reg);
        let snap = reg.snapshot();
        assert_eq!(counter(&snap, "transport.fault.send_total"), 0);
        assert_eq!(counter(&snap, "transport.fault.recv_total"), 1);
        alice.shutdown();
        bob.shutdown();
    }
}
