//! Node energy model.
//!
//! The paper's pitch rests on LoRa's "low power aspect (multi-year life,
//! coin cell operation)". This module prices a BcWAN exchange in
//! millijoules and projects battery life, so the protocol's radio
//! overhead (one extra request frame and one downlink receive per
//! exchange, versus plain LoRaWAN's single uplink) can be quantified.
//!
//! Current-draw defaults follow the SX1276 datasheet (+14 dBm) and a
//! Nucleo-class MCU.

use crate::airtime::time_on_air;
use crate::params::RadioConfig;
use bcwan_sim::SimDuration;

/// Node power characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Supply voltage (V).
    pub voltage: f64,
    /// Radio transmit current (A) — SX1276 at +14 dBm ≈ 44 mA.
    pub tx_current: f64,
    /// Radio receive current (A) ≈ 12 mA.
    pub rx_current: f64,
    /// MCU active current while processing (A).
    pub mcu_current: f64,
    /// Sleep current (A) — microcontroller + radio in sleep.
    pub sleep_current: f64,
}

impl EnergyModel {
    /// SX1276 + Cortex-M-class MCU on a 3 V coin cell.
    pub fn sx1276_coin_cell() -> Self {
        EnergyModel {
            voltage: 3.0,
            tx_current: 0.044,
            rx_current: 0.012,
            mcu_current: 0.010,
            sleep_current: 0.000_002,
        }
    }

    /// Energy (J) to transmit for `airtime`.
    pub(crate) fn tx_energy(&self, airtime: SimDuration) -> f64 {
        self.voltage * self.tx_current * airtime.as_secs_f64()
    }

    /// Energy (J) to receive for `airtime`.
    pub(crate) fn rx_energy(&self, airtime: SimDuration) -> f64 {
        self.voltage * self.rx_current * airtime.as_secs_f64()
    }

    /// Energy (J) for `cpu_time` of MCU work (the node's crypto).
    pub(crate) fn cpu_energy(&self, cpu_time: SimDuration) -> f64 {
        self.voltage * self.mcu_current * cpu_time.as_secs_f64()
    }

    /// Sleep energy (J) over `duration`.
    pub(crate) fn sleep_energy(&self, duration: SimDuration) -> f64 {
        self.voltage * self.sleep_current * duration.as_secs_f64()
    }
}

/// Energy cost of one full BcWAN exchange from the node's side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangeEnergy {
    /// Uplink request transmission (J).
    pub request_tx: f64,
    /// Ephemeral-key downlink reception (J).
    pub key_rx: f64,
    /// Node-side crypto (AES + RSA wrap + sign) (J).
    pub crypto: f64,
    /// Data uplink transmission (J).
    pub data_tx: f64,
}

impl ExchangeEnergy {
    /// Total energy per exchange (J).
    pub fn total(&self) -> f64 {
        self.request_tx + self.key_rx + self.crypto + self.data_tx
    }
}

/// Prices one BcWAN exchange: `request_len`/`key_len`/`data_len` are the
/// PHY frame sizes, `crypto_time` the node CPU time (use the cost model's
/// `node_encrypt + node_sign`).
pub fn exchange_energy(
    model: &EnergyModel,
    config: &RadioConfig,
    request_len: usize,
    key_len: usize,
    data_len: usize,
    crypto_time: SimDuration,
) -> ExchangeEnergy {
    ExchangeEnergy {
        request_tx: model.tx_energy(time_on_air(config, request_len)),
        key_rx: model.rx_energy(time_on_air(config, key_len)),
        crypto: model.cpu_energy(crypto_time),
        data_tx: model.tx_energy(time_on_air(config, data_len)),
    }
}

/// Projected battery life in years for a node performing
/// `exchanges_per_day` BcWAN exchanges on a battery of `capacity_mah`
/// milliamp-hours, sleeping otherwise.
pub fn battery_life_years(
    model: &EnergyModel,
    per_exchange: &ExchangeEnergy,
    exchanges_per_day: f64,
    capacity_mah: f64,
) -> f64 {
    assert!(exchanges_per_day >= 0.0, "negative rate");
    let capacity_j = capacity_mah / 1_000.0 * 3_600.0 * model.voltage;
    let day = SimDuration::from_secs(24 * 3600);
    let active_j = per_exchange.total() * exchanges_per_day;
    let sleep_j = model.sleep_energy(day);
    let per_day = active_j + sleep_j;
    capacity_j / per_day / 365.25
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcwan_sim::SimDuration;

    fn paper_exchange() -> (EnergyModel, ExchangeEnergy) {
        let model = EnergyModel::sx1276_coin_cell();
        let cfg = RadioConfig::paper_sf7();
        // BcWAN frames: 28 B request, 79 B key downlink, 160 B data.
        let ex = exchange_energy(&model, &cfg, 28, 79, 160, SimDuration::from_millis(450));
        (model, ex)
    }

    #[test]
    fn exchange_energy_is_millijoule_scale() {
        let (_, ex) = paper_exchange();
        let mj = ex.total() * 1e3;
        assert!((10.0..120.0).contains(&mj), "exchange cost {mj} mJ");
        // Transmit dominates receive.
        assert!(ex.data_tx > ex.key_rx);
    }

    #[test]
    fn battery_life_multi_year_at_modest_rates() {
        // The intro's "multi-year life, coin cell operation": a 1000 mAh
        // cell at 24 exchanges/day must exceed 2 years.
        let (model, ex) = paper_exchange();
        let years = battery_life_years(&model, &ex, 24.0, 1000.0);
        assert!(years > 2.0, "battery life {years:.1} years");
        // Saturating the duty cycle (≈ 3900/day) drains far faster.
        let saturated = battery_life_years(&model, &ex, 3900.0, 1000.0);
        assert!(saturated < 1.0, "saturated life {saturated:.2} years");
        assert!(years > saturated * 10.0);
    }

    #[test]
    fn sleep_floor_bounds_battery_life() {
        // Even at zero exchanges the sleep current caps the lifetime.
        let (model, ex) = paper_exchange();
        let idle_years = battery_life_years(&model, &ex, 0.0, 1000.0);
        // 2 µA on 1000 mAh ≈ 57 years — finite, sleep-limited.
        assert!((30.0..100.0).contains(&idle_years), "{idle_years}");
    }

    #[test]
    fn higher_sf_costs_more_energy() {
        let model = EnergyModel::sx1276_coin_cell();
        let sf7 = exchange_energy(
            &model,
            &RadioConfig::paper_sf7(),
            28,
            79,
            160,
            SimDuration::ZERO,
        );
        let sf9 = exchange_energy(
            &model,
            &RadioConfig::with_sf(crate::params::SpreadingFactor::Sf9),
            28,
            79,
            160,
            SimDuration::ZERO,
        );
        assert!(sf9.total() > sf7.total() * 2.0, "SF9 should cost >2× SF7");
    }

    #[test]
    fn energy_components_accounted() {
        let (_, ex) = paper_exchange();
        let sum = ex.request_tx + ex.key_rx + ex.crypto + ex.data_tx;
        assert!((ex.total() - sum).abs() < 1e-15);
        assert!(ex.request_tx > 0.0 && ex.key_rx > 0.0 && ex.crypto > 0.0);
    }
}
