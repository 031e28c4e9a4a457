//! The radio leg: what `World` decides of every sensor's air — a frame's
//! airtime, the loss coin and a crashed gateway's deafness. The protocol
//! itself runs in each sensor's `Device` and the gateway's `Node`.

use super::ledger::{ExchangeState, Ledger, Stage};
use super::{Event, Queue, WorkloadConfig, World};
use crate::device::{Device, DeviceEnv, DeviceNote, DeviceSpec, Downlink, Timer, Uplink};
use crate::node::delivery_tag;
use crate::provisioning::DEVICE_KEY_SIZE;
use bcwan_crypto::rsa::RsaPublicKey;
use bcwan_lora::airtime::time_on_air;
use bcwan_lora::frame::{data_uplink_phy_len, LoraFrame, REQUEST_PHY_LEN};
use bcwan_lora::params::{RadioConfig, EU868_DUTY_CYCLE};
use bcwan_sim::{ChaosEngine, SimDuration, SimRng, SimTime};

/// Every sensor's radio: the paper's SF7, 125 kHz, CR 4/5, under the
/// EU868 duty cycle ([`EU868_DUTY_CYCLE`]).
const RADIO: RadioConfig = RadioConfig::paper_sf7();

/// A LoRa frame as the event queue carries it.
#[derive(Debug)]
pub(super) enum Air {
    /// A device's frame ends its airtime at the exchange's gateway.
    Up(Box<Uplink>),
    /// The gateway's keygen finished: the key downlink goes on the air.
    KeyOut(Box<RsaPublicKey>),
    /// The key downlink ends its airtime at the device.
    KeyIn(Box<RsaPublicKey>),
}

bcwan_sim::counters! {
    /// One gateway's radio-leg tally: summed into the unlabeled
    /// `world.lora_*` rows, and one labeled row per host in small fleets.
    #[derive(Debug, Clone, Copy, Default)]
    pub(super) struct RadioTally {
        /// Frames the loss model dropped on this gateway's radio.
        frames_lost: u64 => labeled "world.lora_frames_lost_total",
        /// Node-side retransmissions towards this gateway.
        retries: u64 => labeled "world.lora_retries_total",
    }
}

/// The sensors' pacing and each gateway's tally.
pub(super) struct Radio {
    pub(super) spec: DeviceSpec,
    /// Per-gateway radio tallies (index = actor host − 1).
    pub(super) by_gw: Vec<RadioTally>,
}

impl Radio {
    /// Workload pacing: the duty-cycle minimum interval for one full
    /// exchange (request + data frames), scaled by `load_factor`.
    pub(super) fn new(cfg: &WorkloadConfig) -> Self {
        let request_air = time_on_air(&RADIO, REQUEST_PHY_LEN);
        let data_len = data_uplink_phy_len(cfg.rsa_size.block_len(), DEVICE_KEY_SIZE.block_len());
        let per_exchange_air = request_air + time_on_air(&RADIO, data_len);
        let min_interval =
            SimDuration::from_secs_f64(per_exchange_air.as_secs_f64() / EU868_DUTY_CYCLE);
        let spec = DeviceSpec {
            seal_cost: cfg.costs.node_encrypt + cfg.costs.node_sign,
            off_time: min_interval,
            mean_gap: SimDuration::from_secs_f64(min_interval.as_secs_f64() * cfg.load_factor),
        };
        let by_gw = vec![RadioTally::default(); cfg.actor_hosts as usize];
        Radio { spec, by_gw }
    }
}

/// One device's radio, as the simulator provides it.
pub(super) struct RadioEnv<'a> {
    radio: &'a mut Radio,
    ledger: &'a mut Ledger,
    rng: &'a mut SimRng,
    chaos: &'a mut ChaosEngine,
    queue: &'a mut Queue,
    /// The device this environment is bound to, and its home host.
    sensor: usize,
    home: u32,
    /// The fork a seal draws from, made when the device seals.
    seal: Option<SimRng>,
}

impl RadioEnv<'_> {
    /// Puts a `phy_len`-byte frame of `exchange` on its gateway's channel
    /// at `at`. The loss coin — one draw, always: a chaos burst's loss
    /// rate, none outside one — may take it; otherwise `air` arrives when
    /// its airtime ends. Returns that instant.
    fn send_frame(&mut self, at: SimTime, exchange: usize, phy_len: usize, air: Air) -> SimTime {
        let end = at + time_on_air(&RADIO, phy_len);
        if self.rng.chance(self.chaos.lora_loss_boost(at)) {
            let gateway = self.ledger.exchanges[exchange].gateway as usize;
            self.radio.by_gw[gateway - 1].frames_lost += 1;
            self.chaos.stats.lora_drops += 1;
        } else {
            self.queue.schedule_at(end, Event::Radio { exchange, air });
        }
        end
    }
}

impl DeviceEnv for RadioEnv<'_> {
    fn transmit(&mut self, at: SimTime, tag: u64, frame: Uplink) -> SimTime {
        let exchange = tag as usize;
        let phy_len = match &frame {
            Uplink::Request => {
                let ex = &mut self.ledger.exchanges[exchange];
                if !ex.request_heard {
                    ex.enter(Stage::RequestUplink, at);
                }
                REQUEST_PHY_LEN
            }
            Uplink::Data { uplink, .. } => data_uplink_phy_len(uplink.em.len(), uplink.sig.len()),
        };
        self.send_frame(at, exchange, phy_len, Air::Up(Box::new(frame)))
    }

    fn arm(&mut self, at: SimTime, timer: Timer) {
        let sensor = self.sensor;
        self.queue.schedule_at(at, Event::Device { sensor, timer });
    }

    fn note(&mut self, at: SimTime, tag: u64, note: DeviceNote) {
        let (ledger, exchange) = (&mut *self.ledger, tag as usize);
        match note {
            DeviceNote::Started => {
                // The request reaches one foreign gateway, uniformly.
                let (home, hosts) = (self.home, self.radio.by_gw.len());
                let gateway = loop {
                    let g = self.rng.index(hosts) as u32 + 1;
                    if g != home || hosts == 1 {
                        break g;
                    }
                };
                debug_assert_eq!(exchange, ledger.exchanges.len(), "tags count exchanges");
                ledger.exchanges.push(ExchangeState {
                    sensor: self.sensor,
                    gateway,
                    home,
                    ..Default::default()
                });
                ledger.tally.started += 1;
            }
            DeviceNote::Sealed => {
                let ex = &mut ledger.exchanges[exchange];
                ex.leave(Stage::KeyDownlink, at, &mut ledger.phases);
                ex.enter(Stage::DataUplink, at);
            }
            DeviceNote::Retry => {
                let gateway = ledger.exchanges[exchange].gateway;
                self.radio.by_gw[gateway as usize - 1].retries += 1;
            }
            DeviceNote::GaveUp => ledger.abort(exchange),
        }
    }

    fn rng(&mut self) -> &mut SimRng {
        &mut *self.rng
    }

    fn seal_rng(&mut self, tag: u64) -> &mut SimRng {
        self.seal.insert(self.rng.fork(0x5e_000 + tag))
    }
}

impl World {
    /// Runs `act` on one device, handing it the radio as the simulator
    /// provides it.
    fn at_device<R>(
        &mut self,
        sensor: usize,
        queue: &mut Queue,
        act: impl FnOnce(&mut Device, &mut RadioEnv<'_>) -> R,
    ) -> R {
        let (home, device) = &mut self.devices[sensor];
        let mut env = RadioEnv {
            radio: &mut self.radio,
            ledger: &mut self.ledger,
            rng: &mut self.rng,
            chaos: &mut self.chaos,
            queue,
            sensor,
            home: *home,
            seal: None,
        };
        act(device, &mut env)
    }

    /// A device's timer came due. Its send timer starts exchanges (the
    /// duty cycle permitting) until the run has started all it wants;
    /// then the sensor goes quiet.
    pub(super) fn handle_timer(
        &mut self,
        now: SimTime,
        sensor: usize,
        timer: Timer,
        queue: &mut Queue,
    ) {
        if timer != Timer::Fire {
            self.at_device(sensor, queue, |d, env| d.on_timeout(now, timer, env));
        } else if self.ledger.tally.started < self.cfg.target_exchanges as u64 {
            let tag = self.ledger.exchanges.len() as u64;
            let mut reading = *b"t=....;h=40%";
            reading[2..6].copy_from_slice(&(tag as u32).to_le_bytes());
            self.at_device(sensor, queue, |d, env| d.fire(now, tag, &reading, env));
        }
    }

    /// A frame of `exchange` ends its airtime, or the gateway's key goes
    /// on the air.
    pub(super) fn handle_radio(
        &mut self,
        now: SimTime,
        exchange: usize,
        air: Air,
        queue: &mut Queue,
    ) {
        let tag = exchange as u64;
        let ledger = &mut self.ledger;
        let ex = &mut ledger.exchanges[exchange];
        let (sensor, gateway) = (ex.sensor, ex.gateway);
        let frame = match air {
            Air::Up(frame) => *frame,
            Air::KeyIn(e_pk) => return self.downlink(now, exchange, Downlink::Key(*e_pk), queue),
            Air::KeyOut(e_pk) => {
                let public_key = e_pk.to_bytes();
                // The paper's measurement starts at the gateway's first
                // message; a resent key keeps it. The recipient will know
                // the exchange by this key.
                if ex.measure_start.is_none() {
                    ex.measure_start = Some(now);
                    let key = (ex.home, delivery_tag(&public_key));
                    ledger.deliveries.insert(key, exchange);
                    ex.leave(Stage::Keygen, now, &mut ledger.phases);
                }
                ex.enter(Stage::KeyDownlink, now);
                return self.at_device(sensor, queue, |device, env| {
                    let device_id = device.id().0;
                    let down = LoraFrame::DownlinkEphemeralKey {
                        device_id,
                        public_key,
                    };
                    env.send_frame(now, exchange, down.phy_len(), Air::KeyIn(e_pk));
                });
            }
        };
        let data = matches!(frame, Uplink::Data { .. });
        if data && ex.done {
            return; // nobody takes the reading of a finished exchange
        }
        // A crashed gateway's radio hears nothing; the device's timeout
        // resends until the gateway restarts or the retries run out.
        if self.chaos.host_down(gateway, now) {
            self.chaos.stats.crash_drops += 1;
            return;
        }
        if !data {
            ex.leave(Stage::RequestUplink, now, &mut ledger.phases);
            ex.request_heard = true;
        }
        let reply = self.at_host(gateway, queue, |node, env| {
            node.on_uplink(now, tag, frame, env)
        });
        match reply {
            Some((at, Downlink::Key(e_pk))) => {
                let air = Air::KeyOut(Box::new(e_pk));
                queue.schedule_at(at, Event::Radio { exchange, air });
            }
            Some((_, ack)) => {
                let ledger = &mut self.ledger;
                let ex = &mut ledger.exchanges[exchange];
                ex.leave(Stage::DataUplink, now, &mut ledger.phases);
                ex.enter(Stage::GatewayForward, now);
                self.downlink(now, exchange, ack, queue);
            }
            None => {}
        }
    }

    /// Hands `downlink` to the device of `exchange`.
    fn downlink(&mut self, now: SimTime, exchange: usize, downlink: Downlink, queue: &mut Queue) {
        let (sensor, tag) = (self.ledger.exchanges[exchange].sensor, exchange as u64);
        self.at_device(sensor, queue, |d, env| d.receive(now, tag, downlink, env));
    }
}
