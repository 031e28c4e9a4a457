//! Key ahead: a gateway's next ephemeral keypair, generated on a spare
//! core before the gateway asks for it.
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

/// Keygens a node must have run before it keeps one ahead. A gateway
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
    /// Claimed, taken back, or dropped with its node — or its keygen
    /// panicked. Nothing will come of it.
    Cancelled,
}

/// One speculative keygen, shared by its node and the pool.
struct Job {
    size: RsaKeySize,
    state: Mutex<State>,
    /// Signalled when a helper leaves `Running`.
    finished: Condvar,
}

/// Every update to a job or the queue is one assignment or one push/pop,
/// so the data is valid even under a lock some thread panicked holding.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Job {
    /// A helper takes the job: the state to draw from, unless its node
    /// took it back or was dropped while it sat in the queue.
    fn start(&self) -> Option<SimRng> {
        let mut state = lock(&self.state);
        match std::mem::replace(&mut *state, State::Running) {
            State::Queued(rng) => Some(rng),
            other => {
                *state = other;
                None
            }
        }
    }

    /// A helper publishes its result — `None` if the keygen panicked — and
    /// wakes a claim waiting on it. A job whose node was dropped
    /// meanwhile stays cancelled.
    fn finish(&self, done: Option<Ahead>) {
        let mut state = lock(&self.state);
        if matches!(*state, State::Running) {
            *state = done.map_or(State::Cancelled, |ahead| State::Done(Box::new(ahead)));
            self.finished.notify_all();
        }
    }

    /// The owner's claim: the finished keypair (waiting for a running
    /// one), or `None` — taken back from the queue, a panicked keygen,
    /// or for another key size — in which case the owner computes it
    /// inline.
    fn claim(&self, size: RsaKeySize, claims: &mut Claims) -> Option<Ahead> {
        let mut state = lock(&self.state);
        if matches!(*state, State::Running) {
            claims.waited += 1;
            state = self
                .finished
                .wait_while(state, |s| matches!(s, State::Running))
                .unwrap_or_else(PoisonError::into_inner);
        }
        match std::mem::replace(&mut *state, State::Cancelled) {
            State::Done(ahead) if self.size == size => {
                claims.adopted += 1;
                Some(*ahead)
            }
            State::Queued(_) => {
                claims.taken_back += 1;
                None
            }
            _ => None,
        }
    }
}

/// The process-wide helper pool's work queue.
struct Queue {
    jobs: Mutex<VecDeque<Arc<Job>>>,
    ready: Condvar,
}

impl Queue {
    fn push(&self, job: Arc<Job>) {
        lock(&self.jobs).push_back(job);
        self.ready.notify_one();
    }

    /// One helper's life: take the oldest job, run its keygen from the
    /// cloned state, publish the result. Helpers live as long as the
    /// process; a keygen that panics cancels its job (the claim falls
    /// back to inline) and the helper goes on.
    fn serve(&self) {
        loop {
            let job = {
                let jobs = lock(&self.jobs);
                let mut jobs = self
                    .ready
                    .wait_while(jobs, |jobs| jobs.is_empty())
                    .unwrap_or_else(PoisonError::into_inner);
                jobs.pop_front().expect("woken on a non-empty queue")
            };
            let Some(mut rng) = job.start() else {
                continue;
            };
            let keygen = AssertUnwindSafe(|| {
                let (e_pk, e_sk) = generate_keypair(&mut rng, job.size);
                Ahead { e_pk, e_sk, rng }
            });
            job.finish(panic::catch_unwind(keygen).ok());
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
            jobs: Mutex::new(VecDeque::new()),
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
/// [`keypair`](Self::keypair), with the next keypair computed ahead on a
/// spare core once the node has opened two sessions.
pub struct KeyAhead {
    rng: SimRng,
    keygens: u64,
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
        let ahead = self
            .job
            .take()
            .and_then(|job| job.claim(size, &mut self.claims));
        let keys = match ahead {
            Some(ahead) => {
                self.rng = ahead.rng;
                (ahead.e_pk, ahead.e_sk)
            }
            None => generate_keypair(&mut self.rng, size),
        };
        self.keygens += 1;
        if self.keygens >= ARM_AFTER {
            self.arm(size);
        }
        keys
    }

    /// Blocks until the job armed for the next keypair, if any, has been
    /// run — so the next [`keypair`](Self::keypair) adopts it. For tests;
    /// a node never waits for its helper except to claim.
    pub fn wait_ahead(&self) {
        if let Some(job) = &self.job {
            let state = lock(&job.state);
            let _settled = job
                .finished
                .wait_while(state, |s| matches!(s, State::Queued(_) | State::Running))
                .unwrap_or_else(PoisonError::into_inner);
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
        let job = Arc::new(Job {
            size,
            state: Mutex::new(State::Queued(self.rng.clone())),
            finished: Condvar::new(),
        });
        queue.push(job.clone());
        self.job = Some(job);
    }
}

/// A helper that has not started the job skips it; one running it
/// discards the result.
impl Drop for KeyAhead {
    fn drop(&mut self) {
        if let Some(job) = &self.job {
            *lock(&job.state) = State::Cancelled;
        }
    }
}
