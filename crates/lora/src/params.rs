//! LoRa modulation parameters.

use std::fmt;

/// The ETSI EU868 duty-cycle limit a LoRaWAN end device keeps on the
/// g1 sub-band: 1 % of airtime.
pub const EU868_DUTY_CYCLE: f64 = 0.01;

/// LoRa spreading factor (chirp length exponent). Higher factors trade
/// data rate for range and receiver sensitivity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpreadingFactor {
    /// SF7 — the paper's evaluation setting (fastest, shortest range).
    Sf7,
    /// SF8.
    Sf8,
    /// SF9.
    Sf9,
    /// SF10.
    Sf10,
    /// SF11 (low-data-rate optimization kicks in at 125 kHz).
    Sf11,
    /// SF12 (slowest, longest range).
    Sf12,
}

impl SpreadingFactor {
    /// All factors, ascending.
    pub const ALL: [SpreadingFactor; 6] = [
        SpreadingFactor::Sf7,
        SpreadingFactor::Sf8,
        SpreadingFactor::Sf9,
        SpreadingFactor::Sf10,
        SpreadingFactor::Sf11,
        SpreadingFactor::Sf12,
    ];

    /// The numeric spreading factor (7–12).
    pub fn value(self) -> u32 {
        match self {
            SpreadingFactor::Sf7 => 7,
            SpreadingFactor::Sf8 => 8,
            SpreadingFactor::Sf9 => 9,
            SpreadingFactor::Sf10 => 10,
            SpreadingFactor::Sf11 => 11,
            SpreadingFactor::Sf12 => 12,
        }
    }

    /// Parses a numeric factor.
    pub(crate) fn from_value(v: u32) -> Option<Self> {
        Self::ALL.into_iter().find(|sf| sf.value() == v)
    }

    /// Receiver sensitivity in dBm at 125 kHz (SX1276 datasheet values).
    pub(crate) fn sensitivity_dbm(self) -> f64 {
        match self {
            SpreadingFactor::Sf7 => -123.0,
            SpreadingFactor::Sf8 => -126.0,
            SpreadingFactor::Sf9 => -129.0,
            SpreadingFactor::Sf10 => -132.0,
            SpreadingFactor::Sf11 => -134.5,
            SpreadingFactor::Sf12 => -137.0,
        }
    }

    /// Maximum application payload in bytes (EU868 LoRaWAN 1.1 regional
    /// parameters, dwell-time off).
    pub fn max_payload(self) -> usize {
        match self {
            SpreadingFactor::Sf7 | SpreadingFactor::Sf8 => 222,
            SpreadingFactor::Sf9 => 115,
            _ => 51,
        }
    }
}

impl fmt::Display for SpreadingFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SF{}", self.value())
    }
}

/// Channel bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bandwidth {
    /// 125 kHz — the EU868 default and the paper's setting.
    Khz125,
    /// 250 kHz.
    Khz250,
    /// 500 kHz.
    Khz500,
}

impl Bandwidth {
    /// Bandwidth in hertz.
    pub fn hz(self) -> u32 {
        match self {
            Bandwidth::Khz125 => 125_000,
            Bandwidth::Khz250 => 250_000,
            Bandwidth::Khz500 => 500_000,
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}kHz", self.hz() / 1000)
    }
}

/// Forward-error-correction coding rate `4/(4+n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodingRate {
    /// 4/5 — LoRaWAN default.
    Cr4_5,
    /// 4/6.
    Cr4_6,
    /// 4/7.
    Cr4_7,
    /// 4/8.
    Cr4_8,
}

impl CodingRate {
    /// The `n` in `4/(4+n)` (1–4).
    pub fn denominator_offset(self) -> u32 {
        match self {
            CodingRate::Cr4_5 => 1,
            CodingRate::Cr4_6 => 2,
            CodingRate::Cr4_7 => 3,
            CodingRate::Cr4_8 => 4,
        }
    }
}

impl fmt::Display for CodingRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "4/{}", 4 + self.denominator_offset())
    }
}

/// A complete radio configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RadioConfig {
    /// Spreading factor.
    pub spreading_factor: SpreadingFactor,
    /// Channel bandwidth.
    pub bandwidth: Bandwidth,
    /// Coding rate.
    pub coding_rate: CodingRate,
    /// Preamble symbol count (LoRaWAN uses 8).
    pub preamble_symbols: u32,
    /// Whether the explicit PHY header is present.
    pub explicit_header: bool,
    /// Whether the payload CRC is appended.
    pub crc_enabled: bool,
}

impl RadioConfig {
    /// The paper's evaluation configuration: SF7, 125 kHz, CR 4/5,
    /// 8-symbol preamble, explicit header + CRC.
    pub const fn paper_sf7() -> Self {
        RadioConfig {
            spreading_factor: SpreadingFactor::Sf7,
            bandwidth: Bandwidth::Khz125,
            coding_rate: CodingRate::Cr4_5,
            preamble_symbols: 8,
            explicit_header: true,
            crc_enabled: true,
        }
    }

    /// Same as [`RadioConfig::paper_sf7`] but with another spreading factor.
    pub fn with_sf(sf: SpreadingFactor) -> Self {
        RadioConfig {
            spreading_factor: sf,
            ..Self::paper_sf7()
        }
    }

    /// Whether low-data-rate optimization applies (SF11/SF12 at 125 kHz).
    pub(crate) fn low_data_rate_optimization(&self) -> bool {
        self.bandwidth == Bandwidth::Khz125 && self.spreading_factor.value() >= 11
    }
}

impl Default for RadioConfig {
    fn default() -> Self {
        Self::paper_sf7()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sf_values_and_parse() {
        for sf in SpreadingFactor::ALL {
            assert_eq!(SpreadingFactor::from_value(sf.value()), Some(sf));
        }
        assert_eq!(SpreadingFactor::from_value(6), None);
        assert_eq!(SpreadingFactor::Sf7.to_string(), "SF7");
    }

    #[test]
    fn sensitivity_monotonically_improves() {
        let mut prev = f64::INFINITY;
        for sf in SpreadingFactor::ALL {
            assert!(sf.sensitivity_dbm() < prev);
            prev = sf.sensitivity_dbm();
        }
    }

    #[test]
    fn payload_caps() {
        assert_eq!(SpreadingFactor::Sf7.max_payload(), 222);
        assert_eq!(SpreadingFactor::Sf12.max_payload(), 51);
    }

    #[test]
    fn ldro_only_sf11_up_at_125khz() {
        assert!(!RadioConfig::paper_sf7().low_data_rate_optimization());
        assert!(RadioConfig::with_sf(SpreadingFactor::Sf11).low_data_rate_optimization());
        let mut cfg = RadioConfig::with_sf(SpreadingFactor::Sf12);
        assert!(cfg.low_data_rate_optimization());
        cfg.bandwidth = Bandwidth::Khz250;
        assert!(!cfg.low_data_rate_optimization());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Bandwidth::Khz125.to_string(), "125kHz");
        assert_eq!(CodingRate::Cr4_5.to_string(), "4/5");
    }
}
