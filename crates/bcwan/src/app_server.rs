//! Application servers (paper Figs. 1–2).
//!
//! "[the recipient] will in its turn send it to the right application
//! server. The choice of the application server is not different to what
//! we have in legacy LoRaWAN network" (§4.2). This module supplies that
//! last hop: each recipient node hands every reading it opens to one
//! in-memory server that stores it for the customer application.

use crate::provisioning::DeviceId;
use bcwan_sim::SimTime;

/// A decrypted reading as handed to the customer application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reading {
    /// The producing device.
    pub device_id: DeviceId,
    /// Decrypted payload bytes.
    pub payload: Vec<u8>,
    /// When the recipient finished decrypting it.
    pub received_at: SimTime,
}

/// An in-memory application server: stores readings in arrival order.
#[derive(Debug, Default)]
pub struct AppServer {
    readings: Vec<Reading>,
}

impl AppServer {
    /// Accepts one reading.
    pub fn deliver(&mut self, reading: Reading) {
        self.readings.push(reading);
    }

    /// All readings in arrival order.
    pub fn readings(&self) -> &[Reading] {
        &self.readings
    }

    /// Number of stored readings.
    pub fn len(&self) -> usize {
        self.readings.len()
    }

    /// Whether the server holds no readings.
    pub fn is_empty(&self) -> bool {
        self.readings.is_empty()
    }
}
