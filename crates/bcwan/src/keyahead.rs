//! Key ahead: a gateway's next ephemeral keypairs, generated on a spare
//! core before the gateway asks for them.
//!
//! A gateway draws a fresh RSA keypair for every exchange it opens
//! (Fig. 3 steps 1–2) from its own key stream ([`key_stream`]), which
//! nothing else draws from, and [`generate_keypair`] is a pure function
//! of the RNG state it is handed (its draw order is a documented
//! contract). So the keypair a node will draw next is decided the moment
//! its last keygen returns. After a keygen, [`KeyAhead`] hands a *clone*
//! of the stream to a helper thread, which runs the next keygen from it,
//! and the next [`keypair`](KeyAhead::keypair) adopts that result — the
//! keypair and the stream state after it. Whatever the thread timing,
//! every key and every simulated number are the ones the inline keygen
//! would have produced.
//!
//! Keys run two deep. A helper that finishes a node's next key chains
//! the key after it, from the stream state that keygen left, so a node
//! that opens sessions faster than one keygen apiece still finds its
//! next key ready. The pool keeps two queues: nodes' next keys, served
//! first, and chained keys, served only when no next key waits — a
//! chained key never delays another node's next one. Adopting a key
//! promotes the key chained after it to the first queue; dropping a
//! node, or asking for another key size, cancels its whole chain.
//!
//! How often a keypair was adopted, waited for or taken back depends on
//! timing, so those counts ([`Claims`]) stay inside the value: a node's
//! never reach a metrics registry or a report.

use bcwan_crypto::rsa::{generate_keypair, RsaKeySize, RsaPrivateKey, RsaPublicKey};
use bcwan_p2p::NodeId;
use bcwan_sim::SimRng;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// Keygens a node must have run before it keeps keys ahead. A gateway
/// that opened one session may never open another — every live TCP
/// fleet's gateways and most of a 200-host gossip fleet's are like that
/// — and a keygen nobody claims takes the spare core from the one thread
/// doing useful work. Arming after the first session cost the `live_tcp`
/// benchmark 17 % of its exchanges per second on 2 vCPUs (EXPERIMENTS
/// § KA); arming after the second left it flat.
const ARM_AFTER: u64 = 2;

/// The high half of every key stream's label, so no node's stream is
/// another subsystem's stream `k` of the same seed.
const KEY_STREAMS: u64 = 0x6b65_7973 << 32;

/// Node `node`'s key stream in the experiment seeded `seed`: a pure
/// function of the two ([`SimRng::stream`]), so a node's keys depend on
/// nothing it does between keygens — not on how many blocks it accepted,
/// nor on how many keys any other node drew.
pub fn key_stream(seed: u64, node: NodeId) -> SimRng {
    SimRng::stream(seed, KEY_STREAMS | u64::from(node.0))
}

/// A keypair computed ahead, and the RNG state its keygen left behind.
struct Ahead {
    e_pk: RsaPublicKey,
    e_sk: RsaPrivateKey,
    rng: SimRng,
}

/// Where one speculative keygen stands.
enum State {
    /// Waiting for a helper, holding the state to draw from.
    Queued(SimRng),
    /// A helper is computing it.
    Running,
    /// Ready to adopt.
    Done(Box<Ahead>),
    /// Claimed, taken back, asked for at another size, or dropped with
    /// its node (its chain with it) — or its keygen panicked. Nothing
    /// will come of it.
    Cancelled,
}

/// A job's state and its place in its node's chain, behind one lock: a
/// helper that finishes a job chains its successor under the lock a
/// claim takes, so a claim sees either no result or the result and its
/// successor.
struct Slot {
    state: State,
    /// Whether this is its node's next key rather than the one after it.
    /// Only a next key chains a successor when it finishes, so a node is
    /// never more than two keys ahead.
    next_key: bool,
    /// The key chained after this one, from the stream state it left.
    successor: Option<Arc<Job>>,
}

/// One speculative keygen, shared by its node and the pool.
struct Job {
    size: RsaKeySize,
    slot: Mutex<Slot>,
    /// Signalled when a helper leaves `Running`.
    finished: Condvar,
}

/// Every update to a job or the queues is a few assignments or one
/// push/pop, so the data is valid even under a lock some thread panicked
/// holding.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Job {
    /// A helper takes the job: the state to draw from, unless its node
    /// took it back or was dropped while it sat in the queue.
    fn start(&self) -> Option<SimRng> {
        let mut slot = lock(&self.slot);
        match std::mem::replace(&mut slot.state, State::Running) {
            State::Queued(rng) => Some(rng),
            other => {
                slot.state = other;
                None
            }
        }
    }

    /// A helper publishes its result — `None` if the keygen panicked —
    /// chains the key after it if this is its node's next key, and wakes
    /// a claim waiting on it. A job cancelled meanwhile stays cancelled
    /// and chains nothing.
    fn finish(&self, done: Option<Ahead>, queue: &Queue) {
        let mut slot = lock(&self.slot);
        if matches!(slot.state, State::Running) {
            slot.state = match done {
                Some(ahead) => {
                    if slot.next_key {
                        slot.successor = Some(queue.push(self.size, ahead.rng.clone(), false));
                    }
                    State::Done(Box::new(ahead))
                }
                None => State::Cancelled,
            };
            self.finished.notify_all();
        }
    }

    /// The owner's claim: the finished keypair (waiting for a running
    /// one) and the key chained after it, or `None` — taken back from the
    /// queue, a panicked keygen, or another key size, which cancels the
    /// chain — in which case the owner computes it inline.
    fn claim(&self, size: RsaKeySize, claims: &mut Claims) -> Option<(Ahead, Option<Arc<Job>>)> {
        if self.size != size {
            self.cancel();
            return None;
        }
        let mut slot = lock(&self.slot);
        if matches!(slot.state, State::Running) {
            claims.waited += 1;
            slot = self
                .finished
                .wait_while(slot, |s| matches!(s.state, State::Running))
                .unwrap_or_else(PoisonError::into_inner);
        }
        match std::mem::replace(&mut slot.state, State::Cancelled) {
            State::Done(ahead) => {
                claims.adopted += 1;
                Some((*ahead, slot.successor.take()))
            }
            State::Queued(_) => {
                claims.taken_back += 1;
                None
            }
            _ => None,
        }
    }

    /// The owner adopted the key before this one, so this is now its next
    /// key: a queued job moves to the first queue, a finished one chains
    /// its own successor, and a running one chains it when it finishes.
    fn promote(self: &Arc<Self>, queue: &Queue) {
        let mut slot = lock(&self.slot);
        slot.next_key = true;
        match &slot.state {
            State::Queued(_) => queue.promote(self),
            State::Done(ahead) => {
                slot.successor = Some(queue.push(self.size, ahead.rng.clone(), false));
            }
            State::Running | State::Cancelled => {}
        }
    }

    /// Cancels this job and every job chained after it: a helper skips
    /// one it has not started and discards one it is running.
    fn cancel(&self) {
        let successor = {
            let mut slot = lock(&self.slot);
            slot.state = State::Cancelled;
            slot.successor.take()
        };
        if let Some(next) = successor {
            next.cancel();
        }
    }
}

/// The two queues of the process-wide helper pool.
#[derive(Default)]
struct Jobs {
    /// Nodes' next keys, oldest first.
    next: VecDeque<Arc<Job>>,
    /// Keys chained after those, served only when `next` is empty.
    chained: VecDeque<Arc<Job>>,
}

/// The process-wide helper pool's work queues.
struct Queue {
    jobs: Mutex<Jobs>,
    ready: Condvar,
}

impl Queue {
    /// Queues a keygen from stream state `rng`: a node's next key, or
    /// the key chained after one.
    fn push(&self, size: RsaKeySize, rng: SimRng, next_key: bool) -> Arc<Job> {
        let job = Arc::new(Job {
            size,
            slot: Mutex::new(Slot {
                state: State::Queued(rng),
                next_key,
                successor: None,
            }),
            finished: Condvar::new(),
        });
        let mut jobs = lock(&self.jobs);
        let queue = if next_key {
            &mut jobs.next
        } else {
            &mut jobs.chained
        };
        queue.push_back(job.clone());
        self.ready.notify_one();
        job
    }

    /// Moves a queued chained job to the back of the first queue. A
    /// helper that popped it a moment ago starts it; the copy left in the
    /// first queue then finds it running and is skipped.
    fn promote(&self, job: &Arc<Job>) {
        let mut jobs = lock(&self.jobs);
        jobs.chained.retain(|queued| !Arc::ptr_eq(queued, job));
        jobs.next.push_back(job.clone());
    }

    /// Waits for a job and takes the oldest next key, else the oldest
    /// chained one.
    fn take(&self) -> Arc<Job> {
        let jobs = lock(&self.jobs);
        let mut jobs = self
            .ready
            .wait_while(jobs, |jobs| jobs.next.is_empty() && jobs.chained.is_empty())
            .unwrap_or_else(PoisonError::into_inner);
        let job = jobs.next.pop_front().or_else(|| jobs.chained.pop_front());
        job.expect("woken on a non-empty queue")
    }

    /// One helper's life: take a job, run its keygen from the cloned
    /// state, publish the result. Helpers live as long as the process; a
    /// keygen that panics cancels its job (the claim falls back to
    /// inline) and the helper goes on.
    fn serve(&self) {
        loop {
            let job = self.take();
            let Some(mut rng) = job.start() else {
                continue;
            };
            let keygen = AssertUnwindSafe(|| {
                let (e_pk, e_sk) = generate_keypair(&mut rng, job.size);
                Ahead { e_pk, e_sk, rng }
            });
            job.finish(panic::catch_unwind(keygen).ok(), self);
        }
    }
}

/// The pool's queue and its helper count, started on first use with one
/// helper per core beyond the first. With no helper (a single core, or
/// none could be spawned) nothing is ever queued.
fn pool() -> &'static (Arc<Queue>, usize) {
    static POOL: OnceLock<(Arc<Queue>, usize)> = OnceLock::new();
    POOL.get_or_init(|| {
        let queue = Arc::new(Queue {
            jobs: Mutex::default(),
            ready: Condvar::new(),
        });
        let spare = thread::available_parallelism().map_or(0, |n| n.get() - 1);
        let helpers = (0..spare)
            .filter(|_| {
                let queue = queue.clone();
                thread::Builder::new()
                    .name("key-ahead".into())
                    .spawn(move || queue.serve())
                    .is_ok()
            })
            .count();
        (queue, helpers)
    })
}

/// How a [`KeyAhead`]'s keygens were served. Thread timing decides these,
/// so they are for tests and probes only: a value that reached a metrics
/// registry or a report would make same-seed runs differ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Claims {
    /// The claim adopted a helper's keypair: ready, or after waiting.
    pub adopted: u64,
    /// A helper was computing it when it was asked for, and the claim
    /// waited (then adopted it, or computed it inline had the keygen
    /// panicked).
    pub waited: u64,
    /// Still queued behind other jobs: taken back and computed inline.
    pub taken_back: u64,
}

/// A node's key stream, drawn from only through
/// [`keypair`](Self::keypair), with the next two keypairs computed ahead
/// on a spare core once the node has opened two sessions.
pub struct KeyAhead {
    rng: SimRng,
    keygens: u64,
    /// The node's next key; the key after it hangs off this job.
    job: Option<Arc<Job>>,
    claims: Claims,
}

impl KeyAhead {
    /// Takes ownership of a node's key stream.
    pub fn new(rng: SimRng) -> Self {
        KeyAhead {
            rng,
            keygens: 0,
            job: None,
            claims: Claims::default(),
        }
    }

    /// What `generate_keypair(&mut rng, size)` returns, leaving the RNG
    /// where that call leaves it.
    pub fn keypair(&mut self, size: RsaKeySize) -> (RsaPublicKey, RsaPrivateKey) {
        let claimed = self
            .job
            .take()
            .and_then(|job| job.claim(size, &mut self.claims));
        let keys = match claimed {
            Some((ahead, successor)) => {
                self.rng = ahead.rng;
                if let Some(next) = successor {
                    next.promote(&pool().0);
                    self.job = Some(next);
                }
                (ahead.e_pk, ahead.e_sk)
            }
            None => generate_keypair(&mut self.rng, size),
        };
        self.keygens += 1;
        if self.keygens >= ARM_AFTER && self.job.is_none() {
            self.arm(size);
        }
        keys
    }

    /// Blocks until the keys kept ahead — the next one and the one
    /// chained after it — have been run, so the next two
    /// [`keypair`](Self::keypair) calls adopt them. For tests; a node
    /// never waits for its helper except to claim.
    pub fn wait_ahead(&self) {
        let mut job = self.job.clone();
        while let Some(current) = job {
            let slot = current
                .finished
                .wait_while(lock(&current.slot), |s| {
                    matches!(s.state, State::Queued(_) | State::Running)
                })
                .unwrap_or_else(PoisonError::into_inner);
            job = slot.successor.clone();
        }
    }

    /// How this value's keygens were served so far.
    pub fn claims(&self) -> Claims {
        self.claims
    }

    /// Helper threads in the process-wide pool (starting it): 0 on a
    /// single core, where every keygen runs inline.
    pub fn helpers() -> usize {
        pool().1
    }

    /// Queues the next keygen from a clone of the current state.
    fn arm(&mut self, size: RsaKeySize) {
        let (queue, helpers) = pool();
        if *helpers == 0 {
            return;
        }
        self.job = Some(queue.push(size, self.rng.clone(), true));
    }
}

/// Cancels the node's whole chain.
impl Drop for KeyAhead {
    fn drop(&mut self) {
        if let Some(job) = &self.job {
            job.cancel();
        }
    }
}

#[cfg(test)]
mod tests {
    //! The job state machine driven by hand against a queue no helper
    //! serves, so every interleaving below is exact rather than timed.

    use super::*;
    use bcwan_crypto::rsa::RsaKeySize::Rsa512;

    fn idle_queue() -> Queue {
        Queue {
            jobs: Mutex::default(),
            ready: Condvar::new(),
        }
    }

    /// What a helper would publish for a job it started with `rng`.
    fn keygen(mut rng: SimRng) -> Option<Ahead> {
        let (e_pk, e_sk) = generate_keypair(&mut rng, Rsa512);
        Some(Ahead { e_pk, e_sk, rng })
    }

    /// Takes the job a helper would take next and runs it.
    fn run_next(queue: &Queue) {
        let job = queue.take();
        let rng = job.start().expect("a queued job");
        job.finish(keygen(rng), queue);
    }

    fn queued(queue: &Queue) -> (usize, usize) {
        let jobs = lock(&queue.jobs);
        (jobs.next.len(), jobs.chained.len())
    }

    fn cancelled(job: &Job) -> bool {
        matches!(lock(&job.slot).state, State::Cancelled)
    }

    #[test]
    fn a_next_key_chains_the_key_after_it_from_its_own_output() {
        let queue = idle_queue();
        let first = queue.push(Rsa512, SimRng::seed_from_u64(1), true);
        run_next(&queue);
        assert_eq!(queued(&queue), (0, 1), "the successor waits apart");
        let (ahead, successor) = first.claim(Rsa512, &mut Claims::default()).expect("done");
        let successor = successor.expect("chained when it finished");
        let mut plain = SimRng::seed_from_u64(1);
        assert_eq!(ahead.e_pk, generate_keypair(&mut plain, Rsa512).0);
        run_next(&queue);
        let (second, after) = successor
            .claim(Rsa512, &mut Claims::default())
            .expect("done");
        assert_eq!(second.e_pk, generate_keypair(&mut plain, Rsa512).0);
        assert!(after.is_none(), "a chained key chains nothing: two deep");
    }

    #[test]
    fn a_finished_chained_key_chains_when_promoted() {
        let queue = idle_queue();
        let chained = queue.push(Rsa512, SimRng::seed_from_u64(2), false);
        run_next(&queue);
        assert_eq!(queued(&queue), (0, 0));
        chained.promote(&queue);
        assert!(lock(&chained.slot).successor.is_some());
        assert_eq!(queued(&queue), (0, 1));
    }

    #[test]
    fn promotion_moves_a_queued_successor_to_the_first_queue() {
        let queue = idle_queue();
        let first = queue.push(Rsa512, SimRng::seed_from_u64(3), true);
        run_next(&queue);
        let (_, successor) = first.claim(Rsa512, &mut Claims::default()).expect("done");
        successor.expect("chained").promote(&queue);
        assert_eq!(queued(&queue), (1, 0));
        run_next(&queue);
        assert_eq!(queued(&queue), (0, 1), "now a next key, it chains");
    }

    #[test]
    fn cancelling_a_job_cancels_its_whole_chain() {
        let queue = idle_queue();
        let first = queue.push(Rsa512, SimRng::seed_from_u64(4), true);
        run_next(&queue);
        let successor = lock(&first.slot).successor.clone().expect("chained");
        first.cancel();
        assert!(cancelled(&first) && cancelled(&successor));
        assert!(successor.start().is_none(), "a helper skips it");
    }

    #[test]
    fn a_job_cancelled_while_running_finishes_into_nothing() {
        let queue = idle_queue();
        let job = queue.push(Rsa512, SimRng::seed_from_u64(5), true);
        let rng = queue.take().start().expect("queued");
        job.cancel();
        job.finish(keygen(rng), &queue);
        assert!(cancelled(&job));
        assert_eq!(queued(&queue), (0, 0), "and chains nothing");
        assert!(job.claim(Rsa512, &mut Claims::default()).is_none());
    }

    #[test]
    fn another_size_cancels_the_chain() {
        let queue = idle_queue();
        let first = queue.push(Rsa512, SimRng::seed_from_u64(6), true);
        run_next(&queue);
        let successor = lock(&first.slot).successor.clone().expect("chained");
        let mut claims = Claims::default();
        assert!(first.claim(RsaKeySize::Rsa1024, &mut claims).is_none());
        assert!(cancelled(&first) && cancelled(&successor));
        assert_eq!(claims, Claims::default(), "neither adopted nor taken back");
    }
}
