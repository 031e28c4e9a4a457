//! A host's inbox, and the doorbell its fabric rings on every delivery.
//!
//! A [`TcpRuntime`](super::TcpRuntime)'s workers decode frames and push
//! each message into the [`Inbox`] of the host it was addressed to,
//! through that host's `InboxSender`; every push rings the runtime's one
//! `Doorbell`, so whoever drains all the inboxes can block until
//! something lands instead of polling them on a clock.
//!
//! # Inbox disconnect semantics
//!
//! Every receive returns `Option`. [`Inbox::try_recv`] answers `None`
//! when nothing is queued; the blocking [`Inbox::recv`] answers `None`
//! only once every sender handle is dropped and no message can ever
//! arrive again, the cue for a loop to exit.

use crate::NodeId;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// An addressed message, as it comes out of an [`Inbox`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sender.
    pub from: NodeId,
    /// Payload.
    pub msg: M,
}

/// "Something was delivered", for whoever drains *every* inbox of one
/// fabric (all hosts on one `TcpRuntime`) and would otherwise have to
/// poll them on a clock. A ring is latched: one that lands between the
/// drainer's last look and its [`wait`](Doorbell::wait) makes that wait
/// return at once.
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

impl<M> InboxSender<M> {
    pub(crate) fn send(&self, env: Envelope<M>) -> Result<(), ()> {
        self.tx.send(env).map_err(|_| ())?;
        self.depth.fetch_add(1, Ordering::Relaxed);
        // Publish first, ring second: the woken drainer finds the message.
        self.doorbell.ring();
        Ok(())
    }

    /// Shared handle to the queue-depth counter, for gauges that outlive
    /// any particular sender.
    pub(crate) fn depth_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.depth)
    }
}

/// Creates a depth-tracked inbox channel whose deliveries ring its
/// fabric's `doorbell`.
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

/// A host's inbox.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope(msg: u8) -> Envelope<u8> {
        Envelope {
            from: NodeId(0),
            msg,
        }
    }

    #[test]
    fn try_recv_three_states() {
        let (tx, inbox) = inbox_channel(Arc::default());
        // The inbox's three states: empty, holding a message, hung up.
        // Nothing queued, but a sender is still alive.
        assert_eq!(inbox.try_recv(), None);
        tx.send(envelope(9)).unwrap();
        assert_eq!(
            inbox.try_recv().map(|e| e.msg),
            Some(9),
            "queued message surfaces"
        );
        // Dropping the only sender ends the blocking receive instead of
        // hanging it.
        drop(tx);
        assert_eq!(inbox.recv(), None);
        assert_eq!(inbox.try_recv(), None, "stays empty");
    }

    #[test]
    fn inbox_depth_tracks_queue() {
        let (tx, inbox) = inbox_channel(Arc::default());
        assert_eq!(inbox.depth(), 0);
        for i in 0..3 {
            tx.send(envelope(i)).unwrap();
        }
        assert_eq!(inbox.depth(), 3);
        assert_eq!(tx.depth_handle().load(Ordering::Relaxed), 3);
        inbox.recv().unwrap();
        assert_eq!(inbox.depth(), 2);
        inbox.try_recv().unwrap();
        assert_eq!(inbox.depth(), 1);
        inbox.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(inbox.depth(), 0);
    }

    #[test]
    fn a_delivery_before_the_wait_is_latched() {
        let doorbell: Arc<Doorbell> = Arc::default();
        let (tx, _inbox) = inbox_channel(Arc::clone(&doorbell));
        assert!(!doorbell.wait(Duration::ZERO), "nothing sent yet");
        tx.send(envelope(1)).unwrap();
        tx.send(envelope(2)).unwrap();
        // Rung before anyone waited: the wait returns at once, and one
        // wait answers every ring so far.
        assert!(doorbell.wait(Duration::from_secs(5)));
        assert!(!doorbell.wait(Duration::ZERO));
    }

    #[test]
    fn a_delivery_from_another_thread_ends_the_wait() {
        let doorbell: Arc<Doorbell> = Arc::default();
        let (tx, _inbox) = inbox_channel(Arc::clone(&doorbell));
        let (waiting_tx, waiting_rx) = channel();
        let sender = std::thread::spawn(move || {
            waiting_rx.recv().unwrap();
            tx.send(envelope(1)).unwrap();
        });
        waiting_tx.send(()).unwrap();
        assert!(doorbell.wait(Duration::from_secs(5)));
        sender.join().unwrap();
    }
}
