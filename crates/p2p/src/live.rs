//! A thread-backed message bus for running gateways as real OS threads.
//!
//! The discrete-event simulator covers the experiments; this bus exists
//! so the examples can also demonstrate the protocol running *live* — one
//! thread per gateway, mpsc channels as sockets — closer in spirit
//! to the paper's Golang daemons listening on TCP ports. (The real
//! sockets are in [`crate::transport::tcp`]; `bcwan::fleet` runs the same
//! gateways over either.)
//!
//! # Inbox disconnect semantics
//!
//! Every receive returns `Option`. [`Inbox::try_recv`] answers `None`
//! when nothing is queued; the blocking [`Inbox::recv`] answers `None`
//! only once every sender handle is dropped and no message can ever
//! arrive again, the cue for a loop to exit. Both transports share the
//! same depth-tracked inbox (`inbox_channel`), so a hang-up means the
//! same thing over mpsc channels and over real sockets, and the
//! `inbox_depth` gauge is comparable across them.
//!
//! # Where the retry/backoff constants live
//!
//! The bus has no retries — an mpsc send either lands or the peer is
//! [`BusError::Unreachable`], which is exactly the at-most-once shape
//! in-process channels give. The dial/write retry and exponential
//! backoff constants (25 ms base, 400 ms cap, 5 attempts, and why those
//! numbers) belong to the socket world and are documented on
//! [`crate::transport::tcp`]'s module docs and
//! [`TcpConfig`](crate::transport::TcpConfig) — tune them there, not
//! here.

use crate::topology::NodeId;
use bcwan_chain::IdMap;
use bcwan_sim::Registry;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

/// An addressed message on the bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sender.
    pub from: NodeId,
    /// Payload.
    pub msg: M,
}

/// Errors from bus operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusError {
    /// The target node is not registered (or has hung up).
    Unreachable(NodeId),
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::Unreachable(n) => write!(f, "node {n} unreachable"),
        }
    }
}

impl std::error::Error for BusError {}

bcwan_sim::counters! {
    /// Counters one bus accumulates across all its clones (`livebus.*`
    /// rows).
    #[derive(Debug, Default)]
    struct BusStats {
        sends: AtomicU64 => "livebus.sends_total",
        unreachable: AtomicU64 => "livebus.unreachable_total",
        broadcasts: AtomicU64 => "livebus.broadcasts_total",
        broadcast_deliveries: AtomicU64 => "livebus.broadcast_deliveries_total",
    }
}

struct Registered<M> {
    sender: InboxSender<M>,
}

struct SharedRegistry<M> {
    senders: IdMap<NodeId, Registered<M>>,
}

/// A clonable handle to the shared bus.
pub struct LiveBus<M> {
    registry: Arc<RwLock<SharedRegistry<M>>>,
    stats: Arc<BusStats>,
    doorbell: Arc<Doorbell>,
}

impl<M> Clone for LiveBus<M> {
    fn clone(&self) -> Self {
        LiveBus {
            registry: Arc::clone(&self.registry),
            stats: Arc::clone(&self.stats),
            doorbell: Arc::clone(&self.doorbell),
        }
    }
}

impl<M> fmt::Debug for LiveBus<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LiveBus({} nodes)",
            self.registry.read().unwrap().senders.len()
        )
    }
}

impl<M> Default for LiveBus<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// "Something was delivered", for whoever drains *every* inbox of one
/// fabric (all inboxes of a [`LiveBus`], all hosts on one `TcpRuntime`)
/// and would otherwise have to poll them on a clock. A ring is latched:
/// one that lands between the drainer's last look and its
/// [`wait`](Doorbell::wait) makes that wait return at once.
#[derive(Debug, Default)]
pub(crate) struct Doorbell {
    rung: Mutex<bool>,
    wake: Condvar,
}

impl Doorbell {
    fn ring(&self) {
        let mut rung = self.rung.lock().expect("doorbell holders never panic");
        // Already rung and not yet answered: whoever waits has been, or
        // will be, let through by that ring.
        if !std::mem::replace(&mut *rung, true) {
            self.wake.notify_all();
        }
    }

    /// Blocks until the bell has been rung since the last `wait`, or
    /// `timeout` elapses; whether it was rung.
    pub(crate) fn wait(&self, timeout: Duration) -> bool {
        let rung = self.rung.lock().expect("doorbell holders never panic");
        let (mut rung, _) = self
            .wake
            .wait_timeout_while(rung, timeout, |rung| !*rung)
            .expect("doorbell holders never panic");
        std::mem::take(&mut *rung)
    }
}

/// The sending half of a depth-tracked inbox channel.
pub(crate) struct InboxSender<M> {
    tx: Sender<Envelope<M>>,
    depth: Arc<AtomicU64>,
    doorbell: Arc<Doorbell>,
}

impl<M> Clone for InboxSender<M> {
    fn clone(&self) -> Self {
        InboxSender {
            tx: self.tx.clone(),
            depth: Arc::clone(&self.depth),
            doorbell: Arc::clone(&self.doorbell),
        }
    }
}

impl<M> InboxSender<M> {
    pub(crate) fn send(&self, env: Envelope<M>) -> Result<(), ()> {
        self.tx.send(env).map_err(|_| ())?;
        self.depth.fetch_add(1, Ordering::Relaxed);
        // Publish first, ring second: the woken drainer finds the message.
        self.doorbell.ring();
        Ok(())
    }

    /// Shared handle to the queue-depth counter, for gauges that outlive
    /// any particular sender clone.
    pub(crate) fn depth_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.depth)
    }
}

/// Creates a depth-tracked inbox channel (shared by the bus and the TCP
/// transport, so "inbox depth" means the same thing on both) whose
/// deliveries ring its fabric's `doorbell`.
pub(crate) fn inbox_channel<M>(doorbell: Arc<Doorbell>) -> (InboxSender<M>, Inbox<M>) {
    let (tx, rx) = channel();
    let depth = Arc::new(AtomicU64::new(0));
    (
        InboxSender {
            tx,
            depth: Arc::clone(&depth),
            doorbell,
        },
        Inbox {
            receiver: rx,
            depth,
        },
    )
}

/// A node's inbox.
pub struct Inbox<M> {
    receiver: Receiver<Envelope<M>>,
    depth: Arc<AtomicU64>,
}

impl<M> fmt::Debug for Inbox<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Inbox {{ depth: {} }}", self.depth())
    }
}

impl<M> Inbox<M> {
    fn took_one(&self) {
        // Saturating: a racing sender may not have incremented yet.
        let _ = self
            .depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            });
    }

    /// Messages queued and not yet received (approximate under
    /// concurrency, exact once senders quiesce).
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Blocks until a message arrives (or every sender hung up).
    pub fn recv(&self) -> Option<Envelope<M>> {
        let env = self.receiver.recv().ok()?;
        self.took_one();
        Some(env)
    }

    /// Non-blocking receive: `None` when nothing is queued.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        let env = self.receiver.try_recv().ok()?;
        self.took_one();
        Some(env)
    }

    /// Blocks with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        let env = self.receiver.recv_timeout(timeout).ok()?;
        self.took_one();
        Some(env)
    }
}

impl<M> LiveBus<M> {
    /// An empty bus.
    pub fn new() -> Self {
        LiveBus {
            registry: Arc::new(RwLock::new(SharedRegistry {
                senders: IdMap::default(),
            })),
            stats: Arc::new(BusStats::default()),
            doorbell: Arc::default(),
        }
    }

    /// Registers a node and returns its inbox. Re-registering replaces the
    /// previous inbox (the old receiver starts draining nothing).
    pub fn register(&self, node: NodeId) -> Inbox<M> {
        let (tx, inbox) = inbox_channel(Arc::clone(&self.doorbell));
        self.registry
            .write()
            .unwrap()
            .senders
            .insert(node, Registered { sender: tx });
        inbox
    }

    /// Blocks until a message has landed in *any* inbox of this bus since
    /// the last call, or `timeout` elapses; whether one has. For a loop
    /// that drains every inbox itself — a delivery between its last
    /// drain and this call is latched, not lost.
    pub fn wait_for_delivery(&self, timeout: Duration) -> bool {
        self.doorbell.wait(timeout)
    }

    /// Registered node count.
    pub fn len(&self) -> usize {
        self.registry.read().unwrap().senders.len()
    }

    /// Whether no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.registry.read().unwrap().senders.is_empty()
    }

    /// Sends a message to one node.
    ///
    /// # Errors
    ///
    /// [`BusError::Unreachable`] when the target is unknown or gone.
    pub fn send(&self, from: NodeId, to: NodeId, msg: M) -> Result<(), BusError> {
        let registry = self.registry.read().unwrap();
        let result = registry
            .senders
            .get(&to)
            .ok_or(())
            .and_then(|reg| reg.sender.send(Envelope { from, msg }));
        match result {
            Ok(()) => {
                self.stats.sends.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(()) => {
                self.stats.unreachable.fetch_add(1, Ordering::Relaxed);
                Err(BusError::Unreachable(to))
            }
        }
    }

    /// Folds the bus counters into a metrics registry (`livebus.*` rows),
    /// closing the loop with the `sim::metrics` snapshot the bench
    /// harnesses emit. Inbox depth is summed across registered nodes.
    pub fn export_metrics(&self, reg: &mut Registry) {
        self.stats.export(reg);
        let depth: u64 = {
            let registry = self.registry.read().unwrap();
            registry
                .senders
                .values()
                .map(|r| r.sender.depth.load(Ordering::Relaxed))
                .sum()
        };
        reg.set_gauge("livebus.inbox_depth", depth as f64);
    }
}

impl<M: Clone> LiveBus<M> {
    /// Broadcasts to every registered node except the sender; returns how
    /// many inboxes accepted it.
    pub fn broadcast(&self, from: NodeId, msg: &M) -> usize {
        let registry = self.registry.read().unwrap();
        let mut delivered = 0;
        for (&node, reg) in &registry.senders {
            if node == from {
                continue;
            }
            if reg
                .sender
                .send(Envelope {
                    from,
                    msg: msg.clone(),
                })
                .is_ok()
            {
                delivered += 1;
            }
        }
        self.stats.broadcasts.fetch_add(1, Ordering::Relaxed);
        self.stats
            .broadcast_deliveries
            .fetch_add(delivered as u64, Ordering::Relaxed);
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_delivery() {
        let bus: LiveBus<&str> = LiveBus::new();
        let inbox = bus.register(NodeId(1));
        bus.register(NodeId(0));
        bus.send(NodeId(0), NodeId(1), "hi").unwrap();
        let env = inbox.recv().unwrap();
        assert_eq!(env.from, NodeId(0));
        assert_eq!(env.msg, "hi");
    }

    #[test]
    fn unknown_target_errors() {
        let bus: LiveBus<()> = LiveBus::new();
        assert_eq!(
            bus.send(NodeId(0), NodeId(9), ()),
            Err(BusError::Unreachable(NodeId(9)))
        );
    }

    #[test]
    fn broadcast_skips_sender() {
        let bus: LiveBus<u32> = LiveBus::new();
        let a = bus.register(NodeId(0));
        let b = bus.register(NodeId(1));
        let c = bus.register(NodeId(2));
        let delivered = bus.broadcast(NodeId(0), &7);
        assert_eq!(delivered, 2);
        assert_eq!(a.try_recv(), None);
        assert_eq!(b.recv().unwrap().msg, 7);
        assert_eq!(c.recv().unwrap().msg, 7);
    }

    #[test]
    fn try_recv_three_states() {
        let bus: LiveBus<u8> = LiveBus::new();
        let inbox = bus.register(NodeId(1));
        // The inbox's three states: empty, holding a message, hung up.
        // Nothing queued, but the bus still holds a sender.
        assert_eq!(inbox.try_recv(), None);
        bus.send(NodeId(0), NodeId(1), 9).unwrap();
        assert_eq!(
            inbox.try_recv().map(|e| e.msg),
            Some(9),
            "queued message surfaces"
        );
        // Dropping the bus (the only sender) ends the blocking receive
        // instead of hanging it.
        drop(bus);
        assert_eq!(inbox.recv(), None);
        assert_eq!(inbox.try_recv(), None, "stays empty");
    }

    #[test]
    fn inbox_depth_tracks_queue() {
        let bus: LiveBus<u8> = LiveBus::new();
        let inbox = bus.register(NodeId(1));
        assert_eq!(inbox.depth(), 0);
        for i in 0..3 {
            bus.send(NodeId(0), NodeId(1), i).unwrap();
        }
        assert_eq!(inbox.depth(), 3);
        inbox.recv().unwrap();
        assert_eq!(inbox.depth(), 2);
        inbox.try_recv().unwrap();
        assert_eq!(inbox.depth(), 1);
        inbox.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(inbox.depth(), 0);
    }

    #[test]
    fn export_metrics_counts_traffic() {
        let bus: LiveBus<u8> = LiveBus::new();
        let _a = bus.register(NodeId(0));
        let _b = bus.register(NodeId(1));
        bus.send(NodeId(0), NodeId(1), 1).unwrap();
        bus.send(NodeId(0), NodeId(9), 1).unwrap_err();
        bus.broadcast(NodeId(0), &2);

        let mut reg = Registry::new();
        bus.export_metrics(&mut reg);
        let snap = reg.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        assert_eq!(counter("livebus.sends_total"), 1);
        assert_eq!(counter("livebus.unreachable_total"), 1);
        assert_eq!(counter("livebus.broadcasts_total"), 1);
        assert_eq!(counter("livebus.broadcast_deliveries_total"), 1);
        // 1 direct + 1 broadcast delivery still queued.
        let depth = snap
            .gauges
            .iter()
            .find(|(n, _)| n == "livebus.inbox_depth")
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(depth, 2.0);
    }

    #[test]
    fn a_delivery_before_the_wait_is_latched() {
        let bus: LiveBus<u8> = LiveBus::new();
        let _inbox = bus.register(NodeId(1));
        assert!(!bus.wait_for_delivery(Duration::ZERO), "nothing sent yet");
        bus.send(NodeId(0), NodeId(1), 1).unwrap();
        bus.send(NodeId(0), NodeId(1), 2).unwrap();
        // Rung before anyone waited: the wait returns at once, and one
        // wait answers every ring so far.
        assert!(bus.wait_for_delivery(Duration::from_secs(5)));
        assert!(!bus.wait_for_delivery(Duration::ZERO));
    }

    #[test]
    fn a_delivery_from_another_thread_ends_the_wait() {
        let bus: LiveBus<u8> = LiveBus::new();
        let _inbox = bus.register(NodeId(1));
        let (waiting_tx, waiting_rx) = channel();
        let sender = {
            let bus = bus.clone();
            std::thread::spawn(move || {
                waiting_rx.recv().unwrap();
                bus.send(NodeId(0), NodeId(1), 1).unwrap();
            })
        };
        waiting_tx.send(()).unwrap();
        assert!(bus.wait_for_delivery(Duration::from_secs(5)));
        sender.join().unwrap();
    }

    #[test]
    fn cross_thread_exchange() {
        let bus: LiveBus<u64> = LiveBus::new();
        let server_inbox = bus.register(NodeId(0));
        let client_inbox = bus.register(NodeId(1));
        let bus2 = bus.clone();
        let server = std::thread::spawn(move || {
            // Echo doubled values back.
            for _ in 0..10 {
                let env = server_inbox.recv().unwrap();
                bus2.send(NodeId(0), env.from, env.msg * 2).unwrap();
            }
        });
        for i in 0..10u64 {
            bus.send(NodeId(1), NodeId(0), i).unwrap();
            let reply = client_inbox
                .recv_timeout(Duration::from_secs(5))
                .expect("echo reply");
            assert_eq!(reply.msg, i * 2);
        }
        server.join().unwrap();
    }
}
