//! The end device: the sensor's half of Fig. 3, one implementation under
//! both worlds.
//!
//! A sensor asks the gateway in range for a session key (step 1), seals
//! and signs its reading under the `ePk` that comes down (steps 2–4) and
//! sends the sealed frame (step 5) until the gateway hears it, retrying
//! each unanswered frame up to `MAX_RADIO_RETRIES` times. A duty-cycle
//! gate spaces its exchanges. `Device` reaches the radio only through
//! `DeviceEnv`, as [`Node`](crate::node::Node) reaches the WAN through
//! [`NodeEnv`](crate::node::NodeEnv): the simulator implements it over
//! its event queue, airtimes and loss coin, a live fleet over an instant
//! in-process link. A gateway hears each [`Uplink`] in
//! [`Node::on_uplink`](crate::node::Node::on_uplink) and answers with a
//! [`Downlink`].

use crate::exchange::{seal_reading, SealedUplink};
use crate::provisioning::{DeviceCredentials, DeviceId};
use bcwan_chain::Address;
use bcwan_crypto::rsa::RsaPublicKey;
use bcwan_sim::{SimDuration, SimRng, SimTime};

/// Retransmissions per radio frame before the device gives the exchange
/// up.
pub(crate) const MAX_RADIO_RETRIES: u32 = 3;

/// Seconds past a request's airtime the device waits for the key: the
/// downlink should be back within a couple of seconds.
const REQUEST_TIMEOUT_S: u64 = 3;

/// Seconds past a data frame's airtime the device waits for the gateway
/// to hear it.
const DATA_TIMEOUT_S: u64 = 8;

/// A frame a device puts on the air.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Uplink {
    /// Fig. 3 step 1: asks the gateway in range for a session key.
    Request,
    /// Step 5: the sealed reading, naming the device and its recipient's
    /// address (`@R`).
    Data {
        /// The sending device.
        device_id: DeviceId,
        /// The home recipient's blockchain address.
        recipient: Address,
        /// `Em` and `Sig`.
        uplink: SealedUplink,
    },
}

/// What a gateway sends back down to a device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Downlink {
    /// Step 2: the session's ephemeral public key `ePk`.
    Key(RsaPublicKey),
    /// The gateway heard the data frame: the device stops resending it.
    Ack,
}

/// A device timer, armed through [`DeviceEnv::arm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Timer {
    /// Time to try a new exchange ([`Device::fire`]).
    Fire,
    /// Request `attempt` of exchange `tag` brought no key down.
    Request {
        /// The exchange.
        tag: u64,
        /// Retransmissions before this request.
        attempt: u32,
    },
    /// Data frame `attempt` of exchange `tag` went unheard.
    Data {
        /// The exchange.
        tag: u64,
        /// Retransmissions before this frame.
        attempt: u32,
    },
}

/// Something a device reports about one of its exchanges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeviceNote {
    /// A new exchange starts under this tag; its request goes out next.
    Started,
    /// The key came down: the reading is sealed and its frame goes out.
    Sealed,
    /// A frame went unanswered and goes out again.
    Retry,
    /// The retries ran out: the exchange is over for this device.
    GaveUp,
}

/// The radio around one device, as the device sees it. An environment
/// value is bound to the device it is handed to.
pub(crate) trait DeviceEnv {
    /// Puts `frame` of exchange `tag` on the air at `at`; returns when its
    /// airtime ends.
    fn transmit(&mut self, at: SimTime, tag: u64, frame: Uplink) -> SimTime;

    /// Asks for `timer` to come due at `at`.
    fn arm(&mut self, at: SimTime, timer: Timer);

    /// Reports `note` about exchange `tag`, observed at `at`.
    fn note(&mut self, at: SimTime, tag: u64, note: DeviceNote);

    /// The environment's RNG, which the waits between sends draw from.
    fn rng(&mut self) -> &mut SimRng;

    /// The RNG the seal of exchange `tag` draws its IV and padding from:
    /// by default the environment's own.
    fn seal_rng(&mut self, _tag: u64) -> &mut SimRng {
        self.rng()
    }
}

/// What a device's CPU and duty cycle cost it, fixed by the operator.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DeviceSpec {
    /// Node CPU to seal and sign one reading.
    pub seal_cost: SimDuration,
    /// How long after an exchange starts the duty cycle keeps the device
    /// quiet: one exchange's airtime over the duty-cycle fraction.
    pub off_time: SimDuration,
    /// Mean of the exponential wait between send attempts.
    pub mean_gap: SimDuration,
}

/// Where one of the device's exchanges stands.
#[derive(Debug)]
enum State {
    /// The request is out and no key came down yet; the reading waits.
    Requesting(Vec<u8>),
    /// The request retries ran out. A key that still comes down is
    /// sealed and sent once, unretried.
    GaveUp(Vec<u8>),
    /// Sealed: this data frame goes out until the gateway hears it.
    Sending(Uplink),
}

/// One end device: its provisioned credentials, its duty-cycle gate and
/// its exchanges in flight.
#[derive(Debug)]
pub(crate) struct Device {
    credentials: DeviceCredentials,
    spec: DeviceSpec,
    /// No new exchange starts before this.
    next_allowed: SimTime,
    /// Exchanges the device still acts on, by tag, oldest first.
    exchanges: Vec<(u64, State)>,
}

impl Device {
    /// A provisioned device that may start an exchange at once.
    pub fn new(credentials: DeviceCredentials, spec: DeviceSpec) -> Self {
        Device {
            credentials,
            spec,
            next_allowed: SimTime::ZERO,
            exchanges: Vec::new(),
        }
    }

    /// The device's identifier.
    pub fn id(&self) -> DeviceId {
        self.credentials.device_id
    }

    /// The send timer came due: unless the duty cycle still keeps the
    /// device quiet, exchange `tag` starts with `reading`. Either way the
    /// wait until the next attempt is drawn and armed.
    pub fn fire(&mut self, now: SimTime, tag: u64, reading: &[u8], env: &mut dyn DeviceEnv) {
        if now >= self.next_allowed {
            self.next_allowed = now + self.spec.off_time;
            self.start(now, tag, reading, env);
        }
        let gap = env.rng().exponential(self.spec.mean_gap.as_secs_f64());
        env.arm(now + SimDuration::from_secs_f64(gap), Timer::Fire);
    }

    /// Starts exchange `tag` now, duty cycle aside: the request goes out.
    pub fn start(&mut self, now: SimTime, tag: u64, reading: &[u8], env: &mut dyn DeviceEnv) {
        env.note(now, tag, DeviceNote::Started);
        self.exchanges
            .push((tag, State::Requesting(reading.to_vec())));
        send(now, tag, Uplink::Request, 0, env);
    }

    /// A gateway's answer for exchange `tag` came down. The first key
    /// seals the reading; a later copy, or one for an exchange the device
    /// is done with, changes nothing.
    pub fn receive(&mut self, now: SimTime, tag: u64, downlink: Downlink, env: &mut dyn DeviceEnv) {
        let Some(i) = self.exchanges.iter().position(|(t, _)| *t == tag) else {
            return;
        };
        let Downlink::Key(e_pk) = downlink else {
            self.exchanges.remove(i); // heard: the exchange is the gateway's now
            return;
        };
        let (reading, gave_up) = match &self.exchanges[i].1 {
            State::Requesting(reading) => (reading, false),
            State::GaveUp(reading) => (reading, true),
            State::Sending(_) => return,
        };
        env.note(now, tag, DeviceNote::Sealed);
        let uplink = seal_reading(env.seal_rng(tag), &self.credentials, &e_pk, reading)
            .expect("reading fits RSA block");
        let frame = Uplink::Data {
            device_id: self.credentials.device_id,
            recipient: self.credentials.recipient,
            uplink,
        };
        if gave_up {
            self.exchanges.remove(i);
        } else {
            self.exchanges[i].1 = State::Sending(frame.clone());
        }
        send(now + self.spec.seal_cost, tag, frame, 0, env);
    }

    /// A retransmission timer came due: the frame goes out again unless
    /// it was answered; with the retries spent, the device gives up.
    /// ([`Timer::Fire`] is [`Device::fire`]'s, which the caller runs.)
    pub(crate) fn on_timeout(&mut self, now: SimTime, timer: Timer, env: &mut dyn DeviceEnv) {
        let (Timer::Request { tag, attempt } | Timer::Data { tag, attempt }) = timer else {
            return;
        };
        let Some(i) = self.exchanges.iter().position(|(t, _)| *t == tag) else {
            return;
        };
        let frame = match (&self.exchanges[i].1, timer) {
            (State::Requesting(_), Timer::Request { .. }) => Uplink::Request,
            (State::Sending(frame), Timer::Data { .. }) => frame.clone(),
            // The key came down (or the device gave up) after this timer
            // was armed.
            _ => return,
        };
        if attempt >= MAX_RADIO_RETRIES {
            let state = &mut self.exchanges[i].1;
            match state {
                State::Requesting(reading) => *state = State::GaveUp(std::mem::take(reading)),
                _ => drop(self.exchanges.remove(i)),
            }
            env.note(now, tag, DeviceNote::GaveUp);
            return;
        }
        env.note(now, tag, DeviceNote::Retry);
        send(now, tag, frame, attempt + 1, env);
    }
}

/// Puts `frame` on the air at `at` and arms its retransmission timer.
fn send(at: SimTime, tag: u64, frame: Uplink, attempt: u32, env: &mut dyn DeviceEnv) {
    let (timeout, timer) = match frame {
        Uplink::Request => (REQUEST_TIMEOUT_S, Timer::Request { tag, attempt }),
        Uplink::Data { .. } => (DATA_TIMEOUT_S, Timer::Data { tag, attempt }),
    };
    let end = env.transmit(at, tag, frame);
    env.arm(end + SimDuration::from_secs(timeout), timer);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provisioning::DeviceRegistry;
    use bcwan_crypto::rsa::{generate_keypair, RsaKeySize};

    /// A radio that loses nothing and delivers nothing on its own: it
    /// records what the device did, and the test plays the network.
    struct FakeEnv {
        rng: SimRng,
        sent: Vec<(SimTime, Uplink)>,
        armed: Vec<(SimTime, Timer)>,
        notes: Vec<DeviceNote>,
    }

    const AIR: SimDuration = SimDuration::ZERO;

    impl DeviceEnv for FakeEnv {
        fn transmit(&mut self, at: SimTime, _tag: u64, frame: Uplink) -> SimTime {
            self.sent.push((at, frame));
            at + AIR
        }
        fn arm(&mut self, at: SimTime, timer: Timer) {
            self.armed.push((at, timer));
        }
        fn note(&mut self, _at: SimTime, _tag: u64, note: DeviceNote) {
            self.notes.push(note);
        }
        fn rng(&mut self) -> &mut SimRng {
            &mut self.rng
        }
    }

    const SPEC: DeviceSpec = DeviceSpec {
        seal_cost: SimDuration::ZERO,
        off_time: SimDuration::ZERO,
        mean_gap: SimDuration::ZERO,
    };

    fn setup(spec: DeviceSpec) -> (Device, FakeEnv, RsaPublicKey) {
        let mut rng = SimRng::seed_from_u64(7);
        let creds = DeviceRegistry::new().provision(&mut rng, DeviceId(1), Address([3; 20]));
        let (e_pk, _) = generate_keypair(&mut rng, RsaKeySize::Rsa512);
        let env = FakeEnv {
            rng,
            sent: Vec::new(),
            armed: Vec::new(),
            notes: Vec::new(),
        };
        (Device::new(creds, spec), env, e_pk)
    }

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    /// Fires every armed timer, earliest first, until none is left.
    fn run_timers(device: &mut Device, env: &mut FakeEnv) {
        while !env.armed.is_empty() {
            let next = (0..env.armed.len())
                .min_by_key(|&i| env.armed[i].0)
                .expect("non-empty");
            let (at, timer) = env.armed.remove(next);
            device.on_timeout(at, timer, env);
        }
    }

    #[test]
    fn a_request_lost_every_time_is_retried_then_given_up() {
        let (mut device, mut env, _) = setup(SPEC);
        device.start(SimTime::ZERO, 4, b"r", &mut env);
        run_timers(&mut device, &mut env);
        let requests = env.sent.iter().filter(|(_, f)| *f == Uplink::Request);
        assert_eq!(requests.count() as u32, 1 + MAX_RADIO_RETRIES);
        let retries = env.notes.iter().filter(|n| **n == DeviceNote::Retry);
        assert_eq!(retries.count() as u32, MAX_RADIO_RETRIES);
        assert_eq!(env.notes.first(), Some(&DeviceNote::Started));
        assert_eq!(env.notes.last(), Some(&DeviceNote::GaveUp));
        // Each retry waits out the previous request's timeout.
        let times: Vec<SimTime> = env.sent.iter().map(|(at, _)| *at).collect();
        assert_eq!(times, [secs(0), secs(3), secs(6), secs(9)]);
    }

    #[test]
    fn a_key_after_giving_up_is_still_sealed_and_sent_once() {
        let (mut device, mut env, e_pk) = setup(SPEC);
        device.start(SimTime::ZERO, 4, b"r", &mut env);
        run_timers(&mut device, &mut env);
        env.sent.clear();
        device.receive(secs(20), 4, Downlink::Key(e_pk.clone()), &mut env);
        assert!(matches!(env.sent.as_slice(), [(_, Uplink::Data { .. })]));
        // Its timer is armed, but nothing is resent when it comes due.
        run_timers(&mut device, &mut env);
        assert_eq!(env.sent.len(), 1);
        device.receive(secs(30), 4, Downlink::Key(e_pk), &mut env);
        assert_eq!(env.sent.len(), 1);
    }

    #[test]
    fn a_duplicate_key_after_sealing_sends_nothing() {
        let spec = DeviceSpec {
            seal_cost: SimDuration::from_millis(250),
            ..SPEC
        };
        let (mut device, mut env, e_pk) = setup(spec);
        device.start(SimTime::ZERO, 9, b"reading", &mut env);
        device.receive(secs(1), 9, Downlink::Key(e_pk.clone()), &mut env);
        assert_eq!(env.notes, [DeviceNote::Started, DeviceNote::Sealed]);
        let (at, frame) = env.sent.last().expect("data sent").clone();
        assert!(matches!(
            frame,
            Uplink::Data {
                device_id: DeviceId(1),
                ..
            }
        ));
        assert_eq!(
            at,
            secs(1) + SimDuration::from_millis(250),
            "after the seal"
        );
        let (sent, notes, draw) = (env.sent.len(), env.notes.len(), env.rng.clone().uniform());
        device.receive(secs(2), 9, Downlink::Key(e_pk), &mut env);
        assert_eq!(env.sent.len(), sent);
        assert_eq!(env.notes.len(), notes);
        assert_eq!(env.rng.uniform(), draw, "no seal drew from the RNG");
    }

    #[test]
    fn a_data_timeout_after_the_gateway_heard_it_does_nothing() {
        let (mut device, mut env, e_pk) = setup(SPEC);
        device.start(SimTime::ZERO, 2, b"r", &mut env);
        device.receive(secs(1), 2, Downlink::Key(e_pk), &mut env);
        device.receive(secs(2), 2, Downlink::Ack, &mut env);
        let sent = env.sent.len();
        env.armed.retain(|(_, t)| matches!(t, Timer::Data { .. }));
        assert_eq!(env.armed.len(), 1, "the data frame's timer");
        run_timers(&mut device, &mut env);
        assert_eq!(env.sent.len(), sent);
        assert_eq!(env.notes.last(), Some(&DeviceNote::Sealed));
    }

    #[test]
    fn unanswered_data_is_resent_then_given_up() {
        let (mut device, mut env, e_pk) = setup(SPEC);
        device.start(SimTime::ZERO, 2, b"r", &mut env);
        device.receive(secs(1), 2, Downlink::Key(e_pk), &mut env);
        env.armed.retain(|(_, t)| matches!(t, Timer::Data { .. }));
        run_timers(&mut device, &mut env);
        let data = env.sent.iter().filter(|(_, f)| *f != Uplink::Request);
        assert_eq!(data.count() as u32, 1 + MAX_RADIO_RETRIES);
        assert_eq!(env.notes.last(), Some(&DeviceNote::GaveUp));
    }

    #[test]
    fn a_fire_inside_the_off_time_starts_nothing_but_draws_the_next_gap() {
        let spec = DeviceSpec {
            off_time: SimDuration::from_secs(60),
            mean_gap: SimDuration::from_secs(10),
            ..SPEC
        };
        let (mut device, mut env, _) = setup(spec);
        device.fire(SimTime::ZERO, 0, b"r", &mut env);
        assert_eq!(env.notes, [DeviceNote::Started]);
        env.armed.clear();
        let mut expected = env.rng.clone();
        let gap = SimDuration::from_secs_f64(expected.exponential(10.0));
        device.fire(secs(30), 1, b"r", &mut env);
        assert_eq!(env.notes, [DeviceNote::Started], "no second exchange");
        assert_eq!(env.sent.len(), 1, "only the first request");
        assert_eq!(env.armed, [(secs(30) + gap, Timer::Fire)]);
        assert_eq!(env.rng.uniform(), expected.uniform(), "one gap drawn");
        // Past the off-time the gate opens again.
        device.fire(secs(60), 1, b"r", &mut env);
        assert_eq!(env.notes.last(), Some(&DeviceNote::Started));
    }
}
