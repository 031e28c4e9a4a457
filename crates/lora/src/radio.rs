//! A simulated LoRa radio front-end combining airtime, duty cycle, link
//! budget and frame size limits into a single `transmit` decision.

use crate::airtime::time_on_air;
use crate::duty_cycle::DutyCycleGovernor;
use crate::frame::{FrameError, LoraFrame};
use crate::link::{LinkModel, Position};
use crate::params::RadioConfig;
use bcwan_sim::{SimDuration, SimRng, SimTime};
use std::fmt;

/// Why a transmission could not be made (or was not received).
#[derive(Debug, Clone, PartialEq)]
pub enum RadioError {
    /// Frame exceeds the spreading factor's payload cap.
    Oversized {
        /// PHY bytes of the attempted frame.
        len: usize,
        /// Regional cap for the spreading factor.
        max: usize,
    },
    /// The duty-cycle governor refuses until the given instant.
    DutyCycle {
        /// Earliest legal transmit time.
        next_allowed: SimTime,
    },
    /// Receiver out of range / fade (only reported by `try_deliver_rssi`).
    LinkLost {
        /// Distance of the failed link in metres.
        distance_m: f64,
    },
    /// The frame bytes did not parse.
    Malformed(FrameError),
}

impl fmt::Display for RadioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RadioError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds SF cap of {max}")
            }
            RadioError::DutyCycle { next_allowed } => {
                write!(f, "duty cycle exhausted until {next_allowed}")
            }
            RadioError::LinkLost { distance_m } => {
                write!(f, "link lost at {distance_m:.0} m")
            }
            RadioError::Malformed(e) => write!(f, "malformed frame: {e}"),
        }
    }
}

impl std::error::Error for RadioError {}

impl From<FrameError> for RadioError {
    fn from(e: FrameError) -> Self {
        RadioError::Malformed(e)
    }
}

/// A granted transmission: the frame, its airtime, and when it completes.
#[derive(Debug, Clone, PartialEq)]
pub struct Transmission {
    /// The frame being sent.
    pub frame: LoraFrame,
    /// Time on air.
    pub airtime: SimDuration,
    /// Instant the last symbol leaves the antenna.
    pub completes_at: SimTime,
}

/// A simulated radio attached to one device or gateway.
#[derive(Debug, Clone)]
pub struct Radio {
    config: RadioConfig,
    governor: DutyCycleGovernor,
    position: Position,
}

impl Radio {
    /// Creates a radio with the given configuration, duty fraction and
    /// physical position.
    pub fn new(config: RadioConfig, duty: f64, position: Position) -> Self {
        Radio {
            config,
            governor: DutyCycleGovernor::new(duty),
            position,
        }
    }

    /// The radio configuration.
    pub fn config(&self) -> &RadioConfig {
        &self.config
    }

    /// The radio's position.
    pub fn position(&self) -> Position {
        self.position
    }

    /// Read access to the duty-cycle governor.
    pub fn governor(&self) -> &DutyCycleGovernor {
        &self.governor
    }

    /// Attempts to put `frame` on the air at `now`.
    ///
    /// # Errors
    ///
    /// [`RadioError::Oversized`] if the PHY payload exceeds the SF cap, or
    /// [`RadioError::DutyCycle`] if the off-time has not elapsed.
    pub fn transmit(&mut self, now: SimTime, frame: LoraFrame) -> Result<Transmission, RadioError> {
        let len = frame.phy_len();
        let max = self.config.spreading_factor.max_payload() + crate::frame::HEADER_LEN;
        if len > max {
            return Err(RadioError::Oversized { len, max });
        }
        let airtime = time_on_air(&self.config, len);
        self.governor
            .try_transmit(now, airtime)
            .map_err(|next_allowed| RadioError::DutyCycle { next_allowed })?;
        Ok(Transmission {
            frame,
            airtime,
            completes_at: now + airtime,
        })
    }

    /// Whether a frame transmitted from `self` reaches a receiver at
    /// `receiver_pos` under `link`, sampling shadowing from `rng`. On
    /// success it reports the sampled RSSI (dBm) so callers can apply
    /// capture-effect logic: a frame that later loses an ALOHA collision
    /// still survives if its margin over sensitivity exceeds the capture
    /// threshold.
    ///
    /// # Errors
    ///
    /// [`RadioError::LinkLost`] when the sampled RSSI is under sensitivity.
    pub(crate) fn try_deliver_rssi(
        &self,
        receiver_pos: Position,
        link: &LinkModel,
        rng: &mut SimRng,
    ) -> Result<f64, RadioError> {
        let distance_m = self.position.distance_to(&receiver_pos);
        let rssi = link.sample_rssi_dbm(distance_m, rng);
        if rssi >= self.config.spreading_factor.sensitivity_dbm() {
            Ok(rssi)
        } else {
            Err(RadioError::LinkLost { distance_m })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::ADDRESS_LEN;
    use crate::params::SpreadingFactor;

    fn data_frame() -> LoraFrame {
        LoraFrame::DataUplink {
            device_id: 1,
            recipient: [0; ADDRESS_LEN],
            em: vec![0; 64],
            sig: vec![0; 64],
        }
    }

    #[test]
    fn transmit_produces_airtime() {
        let mut radio = Radio::new(RadioConfig::paper_sf7(), 0.01, Position::default());
        let tx = radio.transmit(SimTime::ZERO, data_frame()).unwrap();
        // 160-byte PHY frame at SF7 ≈ 260 ms.
        let t = tx.airtime.as_secs_f64();
        assert!((0.2..0.32).contains(&t), "airtime {t}");
        assert_eq!(tx.completes_at, SimTime::ZERO + tx.airtime);
    }

    #[test]
    fn duty_cycle_enforced_between_frames() {
        let mut radio = Radio::new(RadioConfig::paper_sf7(), 0.01, Position::default());
        radio.transmit(SimTime::ZERO, data_frame()).unwrap();
        let err = radio
            .transmit(SimTime::from_micros(1000), data_frame())
            .unwrap_err();
        match err {
            RadioError::DutyCycle { next_allowed } => {
                // ~100x the airtime.
                assert!(next_allowed.as_secs_f64() > 20.0);
            }
            other => panic!("expected duty cycle error, got {other}"),
        }
    }

    #[test]
    fn oversized_frame_rejected_at_high_sf() {
        // 160-byte frame exceeds the 51-byte SF12 cap.
        let mut radio = Radio::new(
            RadioConfig::with_sf(SpreadingFactor::Sf12),
            0.01,
            Position::default(),
        );
        assert!(matches!(
            radio.transmit(SimTime::ZERO, data_frame()),
            Err(RadioError::Oversized { .. })
        ));
    }

    #[test]
    fn delivery_depends_on_distance() {
        let link = LinkModel {
            shadowing_db: 0.0,
            ..LinkModel::suburban()
        };
        let mut rng = SimRng::seed_from_u64(3);
        let radio = Radio::new(RadioConfig::paper_sf7(), 0.01, Position::new(0.0, 0.0));
        let near = Position::new(100.0, 0.0);
        let far = Position::new(1e9, 0.0);
        assert!(radio.try_deliver_rssi(near, &link, &mut rng).is_ok());
        assert!(matches!(
            radio.try_deliver_rssi(far, &link, &mut rng),
            Err(RadioError::LinkLost { .. })
        ));
    }

    #[test]
    fn error_display() {
        let e = RadioError::Oversized { len: 200, max: 55 };
        assert!(e.to_string().contains("200"));
    }
}
