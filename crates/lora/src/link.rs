//! Radio link model: log-distance path loss, receiver sensitivity, and a
//! shadowing term.
//!
//! The paper's §6 notes that in a real deployment "a sensor has higher
//! chances to communicate with a Gateway that is geolocated closer";
//! this model gives the simulator a physical notion of "within radio
//! range" so roaming scenarios can place sensors and gateways on a map.

use crate::params::SpreadingFactor;
use bcwan_sim::SimRng;

/// A 2-D position in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// East coordinate (m).
    pub x: f64,
    /// North coordinate (m).
    pub y: f64,
}

impl Position {
    /// Builds a position.
    pub fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to `other` in metres.
    pub fn distance_to(&self, other: &Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Log-distance path-loss link model with optional log-normal shadowing.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkModel {
    /// Transmit power in dBm (EU868 limit is +14 dBm ERP).
    pub tx_power_dbm: f64,
    /// Path loss at the reference distance (1 m), dB. ~40 dB at 868 MHz.
    pub pl0_db: f64,
    /// Path-loss exponent (2 free space, 2.7–3.5 suburban).
    pub exponent: f64,
    /// Shadowing standard deviation, dB (0 disables shadowing).
    pub shadowing_db: f64,
}

impl LinkModel {
    /// Suburban preset matching published LoRa range studies
    /// (Petäjäjärvi et al., cited by the paper as reference 6).
    pub fn suburban() -> Self {
        LinkModel {
            tx_power_dbm: 14.0,
            pl0_db: 40.0,
            exponent: 2.9,
            shadowing_db: 4.0,
        }
    }

    /// Mean received power at `distance_m` (no shadowing draw).
    pub(crate) fn mean_rssi_dbm(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(1.0);
        self.tx_power_dbm - (self.pl0_db + 10.0 * self.exponent * d.log10())
    }

    /// Received power with a shadowing draw.
    pub(crate) fn sample_rssi_dbm(&self, distance_m: f64, rng: &mut SimRng) -> f64 {
        let shadow = if self.shadowing_db > 0.0 {
            rng.normal(0.0, self.shadowing_db)
        } else {
            0.0
        };
        self.mean_rssi_dbm(distance_m) + shadow
    }

    /// Deterministic maximum range (mean RSSI = sensitivity) in metres.
    pub fn max_range_m(&self, sf: SpreadingFactor) -> f64 {
        let budget = self.tx_power_dbm - sf.sensitivity_dbm() - self.pl0_db;
        10f64.powf(budget / (10.0 * self.exponent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic free-space link: exponent 2, no shadowing.
    fn free_space() -> LinkModel {
        LinkModel {
            tx_power_dbm: 14.0,
            pl0_db: 40.0,
            exponent: 2.0,
            shadowing_db: 0.0,
        }
    }

    /// Whether one sampled RSSI at `distance_m` clears `sf`'s sensitivity,
    /// the test `Radio::try_deliver_rssi` applies.
    fn frame_received(
        link: &LinkModel,
        distance_m: f64,
        sf: SpreadingFactor,
        rng: &mut SimRng,
    ) -> bool {
        link.sample_rssi_dbm(distance_m, rng) >= sf.sensitivity_dbm()
    }

    #[test]
    fn distance_math() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert_eq!(a.distance_to(&b), 5.0);
        assert_eq!(a.distance_to(&a), 0.0);
    }

    #[test]
    fn rssi_decreases_with_distance() {
        let link = free_space();
        let mut prev = f64::INFINITY;
        for d in [1.0, 10.0, 100.0, 1000.0, 10_000.0] {
            let rssi = link.mean_rssi_dbm(d);
            assert!(rssi < prev);
            prev = rssi;
        }
    }

    #[test]
    fn sub_metre_clamps_to_reference() {
        let link = free_space();
        assert_eq!(link.mean_rssi_dbm(0.0), link.mean_rssi_dbm(1.0));
    }

    #[test]
    fn higher_sf_reaches_further() {
        let link = LinkModel::suburban();
        let r7 = link.max_range_m(SpreadingFactor::Sf7);
        let r12 = link.max_range_m(SpreadingFactor::Sf12);
        assert!(r12 > r7 * 2.0, "SF12 {r12} m vs SF7 {r7} m");
    }

    #[test]
    fn suburban_sf7_range_plausible_km_scale() {
        // The paper's intro: "a LoRa gateway can cover a large Km-area".
        let r = LinkModel::suburban().max_range_m(SpreadingFactor::Sf7);
        assert!((500.0..10_000.0).contains(&r), "range {r} m");
    }

    #[test]
    fn reception_deterministic_without_shadowing() {
        let link = free_space();
        let mut rng = SimRng::seed_from_u64(1);
        let range = link.max_range_m(SpreadingFactor::Sf7);
        assert!(frame_received(
            &link,
            range * 0.9,
            SpreadingFactor::Sf7,
            &mut rng
        ));
        assert!(!frame_received(
            &link,
            range * 1.1,
            SpreadingFactor::Sf7,
            &mut rng
        ));
    }

    #[test]
    fn shadowing_flips_marginal_links_sometimes() {
        let link = LinkModel::suburban();
        let mut rng = SimRng::seed_from_u64(2);
        let range = link.max_range_m(SpreadingFactor::Sf7);
        let received = (0..500)
            .filter(|_| frame_received(&link, range, SpreadingFactor::Sf7, &mut rng))
            .count();
        // At exactly the mean-RSSI threshold, shadowing gives ≈50 %.
        assert!((150..350).contains(&received), "{received}/500");
    }
}
