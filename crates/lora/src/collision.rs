//! ALOHA-style collision model for the shared radio channel, keyed by
//! `(channel, spreading factor)`.
//!
//! LoRaWAN uplinks are unslotted ALOHA: two frames overlapping in time on
//! the same channel **and** the same spreading factor destroy each other
//! (ignoring capture). Different spreading factors are quasi-orthogonal —
//! an SF7 frame and an SF12 frame on the same channel demodulate
//! independently — so the offered load that matters for any one frame is
//! the load on *its* `(channel, SF)` key, not the aggregate over the
//! band. The §5.2 workload — 150 sensors pushing towards their duty limit
//! through 5 gateways — makes channel contention a real effect the
//! paper's small testbed glosses over; this module supplies the standard
//! analytic model, a per-key offered-load table, and a sampling helper
//! for the simulator.

use crate::params::SpreadingFactor;
use bcwan_sim::SimRng;

/// The collision domain of one frame: uplink channel index plus
/// spreading factor. Frames collide only with frames sharing their key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoadKey {
    /// Uplink channel index (EU868 mandates 3, gateways commonly run 8).
    pub channel: u8,
    /// Spreading factor (quasi-orthogonal between factors).
    pub sf: SpreadingFactor,
}

impl LoadKey {
    /// Builds a key.
    pub fn new(channel: u8, sf: SpreadingFactor) -> Self {
        LoadKey { channel, sf }
    }
}

/// Normalized offered load `G` per collision-domain key.
///
/// `G` for a key is the mean number of frame-airtimes' worth of traffic
/// offered per airtime on that `(channel, SF)`. The table is built by
/// accumulating each frame's contribution (`airtime / window`) in frame
/// order, which keeps the floating-point sum identical between the
/// scalar and columnar simulation paths.
///
/// A flat `channels × 6` array indexed by `channel · 6 + (SF − 7)`: a
/// lookup or an add is one index, and [`clear`](OfferedLoads::clear)
/// zeroes just the keys added to since the last clear, so the sharded
/// simulator's per-tick refill allocates nothing and a quiet tick costs
/// nothing. An untouched key reads `0.0`, and the first contribution
/// lands as `0.0 + g == g`, so sums are the same as those of a table
/// that stores only the keys it has seen. A key's channel must be below
/// the table's channel count: [`add`](OfferedLoads::add) and
/// [`g`](OfferedLoads::g) panic otherwise.
#[derive(Debug, Clone)]
pub struct OfferedLoads {
    /// `G` per key, at `channel · 6 + (SF − 7)`.
    loads: Vec<f64>,
    /// Indices into `loads` that may be non-zero.
    touched: Vec<usize>,
}

impl OfferedLoads {
    /// An empty (zero-load) table over uplink channels `0..channels`.
    pub fn new(channels: u8) -> Self {
        OfferedLoads {
            loads: vec![0.0; usize::from(channels) * SpreadingFactor::ALL.len()],
            touched: Vec::new(),
        }
    }

    /// Index of `key` in the flat table.
    fn slot(key: LoadKey) -> usize {
        usize::from(key.channel) * SpreadingFactor::ALL.len() + (key.sf.value() - 7) as usize
    }

    /// Adds `g` frame-airtimes of offered load to `key`.
    pub fn add(&mut self, key: LoadKey, g: f64) {
        assert!(g >= 0.0, "negative load contribution");
        let slot = Self::slot(key);
        if self.loads[slot] == 0.0 {
            self.touched.push(slot);
        }
        self.loads[slot] += g;
    }

    /// Total offered load `G` on `key`.
    pub fn g(&self, key: LoadKey) -> f64 {
        self.loads[Self::slot(key)]
    }

    /// Offered load on `key` seen by one frame that itself contributes
    /// `own_g` — i.e. the *competing* load (clamped at zero).
    pub(crate) fn g_excluding(&self, key: LoadKey, own_g: f64) -> f64 {
        (self.g(key) - own_g).max(0.0)
    }

    /// Zeroes every key in place (reused tick-to-tick by the sharded
    /// simulator).
    pub fn clear(&mut self) {
        for slot in self.touched.drain(..) {
            self.loads[slot] = 0.0;
        }
    }
}

/// Normalized offered load `G`: mean number of frame-airtimes' worth of
/// traffic offered per airtime, for `senders` nodes each sending
/// `rate_per_s` frames of `airtime_s` seconds.
pub fn offered_load(senders: u32, rate_per_s: f64, airtime_s: f64) -> f64 {
    assert!(
        rate_per_s >= 0.0 && airtime_s >= 0.0,
        "negative load inputs"
    );
    f64::from(senders) * rate_per_s * airtime_s
}

/// Pure-ALOHA success probability for offered load `G`: `e^(−2G)`
/// (a frame survives if no other frame starts within ±1 airtime).
pub fn aloha_success_probability(g: f64) -> f64 {
    assert!(g >= 0.0, "offered load must be non-negative");
    (-2.0 * g).exp()
}

/// Samples whether a single frame on `key`, itself contributing `own_g`
/// to the table, survives contention from the *other* traffic on its
/// collision domain. Always consumes exactly one draw.
pub(crate) fn frame_survives(
    loads: &OfferedLoads,
    key: LoadKey,
    own_g: f64,
    rng: &mut SimRng,
) -> bool {
    rng.chance(aloha_success_probability(loads.g_excluding(key, own_g)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::airtime::time_on_air;
    use crate::params::RadioConfig;

    fn sf7_key() -> LoadKey {
        LoadKey::new(0, SpreadingFactor::Sf7)
    }

    /// The §5.2-style population load: `senders` nodes each sending
    /// `rate_per_s` frames of `frame_len` PHY bytes at `key`'s spreading
    /// factor under `config`'s bandwidth/coding parameters.
    fn add_population(
        loads: &mut OfferedLoads,
        key: LoadKey,
        config: &RadioConfig,
        (frame_len, senders, rate_per_s): (usize, u32, f64),
    ) {
        let cfg = RadioConfig {
            spreading_factor: key.sf,
            ..*config
        };
        let airtime = time_on_air(&cfg, frame_len).as_secs_f64();
        loads.add(key, offered_load(senders, rate_per_s, airtime));
    }

    #[test]
    fn zero_load_always_succeeds() {
        assert_eq!(aloha_success_probability(0.0), 1.0);
        let mut rng = SimRng::seed_from_u64(1);
        let loads = OfferedLoads::new(1);
        assert!(frame_survives(&loads, sf7_key(), 0.0, &mut rng));
    }

    #[test]
    fn success_decreases_with_load() {
        let mut prev = 1.1;
        for g in [0.0, 0.1, 0.5, 1.0, 2.0, 5.0] {
            let p = aloha_success_probability(g);
            assert!(p < prev);
            prev = p;
        }
    }

    #[test]
    fn paper_workload_is_collision_tolerant_per_gateway() {
        // 30 sensors per gateway sending the 160 B data frame at the
        // (throttled) Fig. 5 rate of ~1 frame/50 s each.
        let cfg = RadioConfig::paper_sf7();
        let mut per_gw = OfferedLoads::new(1);
        add_population(&mut per_gw, sf7_key(), &cfg, (160, 30, 1.0 / 50.0));
        let p = aloha_success_probability(per_gw.g(sf7_key()));
        assert!(p > 0.6, "per-gateway success {p:.3}");
        // All 150 sensors sharing ONE channel/gateway would hurt badly.
        let mut all = OfferedLoads::new(1);
        add_population(&mut all, sf7_key(), &cfg, (160, 150, 1.0 / 50.0));
        let p_all = aloha_success_probability(all.g(sf7_key()));
        assert!(p_all < p - 0.2, "{p_all} vs {p}");
    }

    #[test]
    fn spreading_factors_are_orthogonal() {
        // Saturate SF12 on channel 0; SF7 frames on the same channel are
        // untouched, as are SF12 frames on another channel.
        let cfg = RadioConfig::paper_sf7();
        let sf12 = LoadKey::new(0, SpreadingFactor::Sf12);
        let mut loads = OfferedLoads::new(2);
        add_population(&mut loads, sf12, &cfg, (51, 500, 1.0 / 20.0));
        assert!(aloha_success_probability(loads.g(sf12)) < 0.01);
        assert_eq!(aloha_success_probability(loads.g(sf7_key())), 1.0);
        let sf12_ch1 = LoadKey::new(1, SpreadingFactor::Sf12);
        assert_eq!(aloha_success_probability(loads.g(sf12_ch1)), 1.0);
    }

    #[test]
    fn own_contribution_excluded_from_competing_load() {
        let mut loads = OfferedLoads::new(1);
        let key = sf7_key();
        loads.add(key, 0.3);
        // A frame that IS the whole 0.3 load competes against nothing.
        assert_eq!(loads.g_excluding(key, 0.3), 0.0);
        assert!((loads.g_excluding(key, 0.1) - 0.2).abs() < 1e-15);
        // Rounding can't push the competing load negative.
        assert_eq!(loads.g_excluding(key, 0.4), 0.0);
        let mut rng = SimRng::seed_from_u64(5);
        assert!(frame_survives(&loads, key, 0.3, &mut rng));
    }

    #[test]
    fn sampling_matches_analytic_rate() {
        let mut rng = SimRng::seed_from_u64(2);
        let g = 0.35;
        let mut loads = OfferedLoads::new(1);
        loads.add(sf7_key(), g);
        let n = 20_000;
        let survived = (0..n)
            .filter(|_| frame_survives(&loads, sf7_key(), 0.0, &mut rng))
            .count();
        let rate = survived as f64 / n as f64;
        let expect = aloha_success_probability(g);
        assert!((rate - expect).abs() < 0.02, "{rate} vs {expect}");
    }

    #[test]
    fn offered_load_math() {
        assert_eq!(offered_load(10, 0.1, 0.25), 0.25);
        assert_eq!(offered_load(0, 1.0, 1.0), 0.0);
    }

    #[test]
    fn keys_are_independent_and_clear_zeroes() {
        let mut loads = OfferedLoads::new(2);
        let sf8_ch1 = LoadKey::new(1, SpreadingFactor::Sf8);
        let sf12_ch1 = LoadKey::new(1, SpreadingFactor::Sf12);
        loads.add(sf8_ch1, 0.25);
        loads.add(sf7_key(), 0.5);
        loads.add(sf8_ch1, 0.125);
        assert_eq!(loads.g(sf8_ch1), 0.375);
        assert_eq!(loads.g(sf7_key()), 0.5);
        assert_eq!(loads.g(sf12_ch1), 0.0);
        loads.clear();
        assert_eq!(loads.g(sf8_ch1), 0.0);
        assert_eq!(loads.g(sf7_key()), 0.0);
        // Cleared keys accumulate from zero again.
        loads.add(sf8_ch1, 0.125);
        assert_eq!(loads.g(sf8_ch1), 0.125);
    }

    #[test]
    #[should_panic]
    fn channel_outside_the_table_panics() {
        OfferedLoads::new(1).g(LoadKey::new(1, SpreadingFactor::Sf7));
    }
}
