//! LoRa time-on-air computation (Semtech AN1200.13).
//!
//! Airtime drives everything the paper's workload model depends on: the
//! 1 % duty cycle yields "a theoretical maximum of 183 messages per sensor
//! per hour" at SF7 for the 128-byte BcWAN payload + 4-byte length header
//! (§5.2), and the key-size ablation (§6) trades RSA modulus bits against
//! exactly this quantity.

use crate::params::RadioConfig;
use bcwan_sim::SimDuration;

/// Symbol duration for the configuration, in seconds.
pub(crate) fn symbol_time_s(config: &RadioConfig) -> f64 {
    let sf = config.spreading_factor.value();
    (1u64 << sf) as f64 / config.bandwidth.hz() as f64
}

/// Number of payload symbols for a PHY payload of `payload_len` bytes.
pub(crate) fn payload_symbols(config: &RadioConfig, payload_len: usize) -> u32 {
    let sf = config.spreading_factor.value() as i64;
    let pl = payload_len as i64;
    let ih = if config.explicit_header { 0 } else { 1 };
    let crc = if config.crc_enabled { 1 } else { 0 };
    let de = if config.low_data_rate_optimization() {
        1
    } else {
        0
    };
    let cr = config.coding_rate.denominator_offset() as i64;

    let numerator = 8 * pl - 4 * sf + 28 + 16 * crc - 20 * ih;
    let denominator = 4 * (sf - 2 * de);
    let ceil = if numerator <= 0 {
        0
    } else {
        (numerator + denominator - 1) / denominator
    };
    8 + (ceil.max(0) * (cr + 4)) as u32
}

/// Time on air for a PHY payload of `payload_len` bytes.
pub fn time_on_air(config: &RadioConfig, payload_len: usize) -> SimDuration {
    let t_sym = symbol_time_s(config);
    let preamble = (config.preamble_symbols as f64 + 4.25) * t_sym;
    let payload = payload_symbols(config, payload_len) as f64 * t_sym;
    SimDuration::from_secs_f64(preamble + payload)
}

/// Maximum messages per hour a single device may send under a duty-cycle
/// fraction (e.g. `0.01` for the EU868 1 % sub-band): the off-time rule
/// allows one transmission per `airtime / duty` window.
pub fn max_messages_per_hour(config: &RadioConfig, payload_len: usize, duty: f64) -> f64 {
    assert!(duty > 0.0 && duty <= 1.0, "duty must be in (0, 1]");
    let airtime = time_on_air(config, payload_len).as_secs_f64();
    3600.0 * duty / airtime
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Bandwidth, CodingRate, RadioConfig, SpreadingFactor};

    #[test]
    fn symbol_time_sf7_125khz() {
        let t = symbol_time_s(&RadioConfig::paper_sf7());
        assert!((t - 0.001024).abs() < 1e-9, "{t}");
    }

    // Cross-checked against the Semtech LoRa airtime calculator.
    #[test]
    fn airtime_sf7_51_bytes() {
        let cfg = RadioConfig::paper_sf7();
        // 51-byte payload, SF7/125kHz/CR4-5, preamble 8, CRC on, explicit header:
        // payloadSymbNb = 8 + ceil((408-28+28+16)/28)*5 = 8 + 16*5 = 88... recompute:
        // 8*51 = 408; 408 - 4*7 + 28 + 16 = 424; ceil(424/28) = 16; 8 + 80 = 88 symbols.
        assert_eq!(payload_symbols(&cfg, 51), 88);
        let t = time_on_air(&cfg, 51).as_secs_f64();
        // (12.25 + 88) * 1.024 ms = 102.656 ms
        assert!((t - 0.102656).abs() < 1e-6, "{t}");
    }

    #[test]
    fn airtime_sf12_with_ldro() {
        let cfg = RadioConfig::with_sf(SpreadingFactor::Sf12);
        assert!(cfg.low_data_rate_optimization());
        // 51 bytes at SF12/125: numerator = 408-48+28+16 = 404,
        // denominator = 4*(12-2) = 40, ceil = 11, symbols = 8+55 = 63.
        assert_eq!(payload_symbols(&cfg, 51), 63);
        let t = time_on_air(&cfg, 51).as_secs_f64();
        // t_sym = 4096/125000 = 32.768 ms; (12.25+63)*32.768 = 2465.8 ms
        assert!((t - 2.46580).abs() < 1e-4, "{t}");
    }

    #[test]
    fn paper_payload_sf7_airtime_and_rate() {
        // The paper's frame: 128-byte payload + 4-byte length header.
        let cfg = RadioConfig::paper_sf7();
        let t = time_on_air(&cfg, 132).as_secs_f64();
        // 8*132-28+28+16 = 1072; ceil(1072/28) = 39; 8+195 = 203 symbols;
        // (12.25+203)*1.024ms = 220.416 ms.
        assert!((t - 0.220416).abs() < 1e-6, "{t}");
        let rate = max_messages_per_hour(&cfg, 132, 0.01);
        // 163 msg/h with the full AN1200.13 model; the paper's quoted 183
        // uses the nominal-bitrate approximation — same order, see
        // EXPERIMENTS.md (T-SF).
        assert!((rate - 163.3).abs() < 1.0, "{rate}");
    }

    #[test]
    fn airtime_monotone_in_sf() {
        let mut prev = 0.0;
        for sf in SpreadingFactor::ALL {
            let t = time_on_air(&RadioConfig::with_sf(sf), 32).as_secs_f64();
            assert!(t > prev, "{sf}: {t} <= {prev}");
            prev = t;
        }
    }

    #[test]
    fn airtime_monotone_in_payload() {
        let cfg = RadioConfig::paper_sf7();
        let mut prev = SimDuration::ZERO;
        for len in (0..=222).step_by(16) {
            let t = time_on_air(&cfg, len);
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn zero_payload_is_preamble_plus_min_symbols() {
        let cfg = RadioConfig {
            spreading_factor: SpreadingFactor::Sf7,
            bandwidth: Bandwidth::Khz125,
            coding_rate: CodingRate::Cr4_5,
            preamble_symbols: 8,
            explicit_header: false,
            crc_enabled: false,
        };
        // numerator = 0 - 28 + 0 - 20 < 0 → ceil term 0 → 8 symbols.
        assert_eq!(payload_symbols(&cfg, 0), 8);
    }

    #[test]
    fn higher_bandwidth_cuts_airtime() {
        let base = RadioConfig::paper_sf7();
        let mut fast = base;
        fast.bandwidth = Bandwidth::Khz250;
        assert!(time_on_air(&fast, 64) < time_on_air(&base, 64));
    }

    #[test]
    #[should_panic(expected = "duty must be in")]
    fn bad_duty_rejected() {
        max_messages_per_hour(&RadioConfig::paper_sf7(), 10, 0.0);
    }
}
