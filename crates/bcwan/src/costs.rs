//! Processing-cost model for edge hardware.
//!
//! The paper measures wall-clock latency on a Nucleo node, Raspberry Pi
//! gateways and small PlanetLab VMs (4 cores / 512 MB). Our simulator runs
//! on a workstation, so the CPU component of each protocol step is charged
//! from this table instead of measured. The `pi_class` preset is
//! calibrated so a full no-stall exchange lands at the paper's Fig. 5
//! scale (mean ≈ 1.6 s); `zero` isolates pure network/radio time.

use bcwan_sim::SimDuration;

/// CPU time charged per protocol operation.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Gateway: generate the ephemeral RSA keypair (step 1). Dominated by
    /// prime search; hundreds of ms on a Pi-class core for RSA-512.
    pub rsa_keygen: SimDuration,
    /// Node: AES-CBC + RSA-encrypt the Fig. 4 frame (step 3).
    pub node_encrypt: SimDuration,
    /// Node: RSA-sign `Em ‖ ePk` (step 4). The Nucleo is the slowest CPU
    /// in the chain.
    pub node_sign: SimDuration,
    /// Recipient: verify the node signature (step 8).
    pub verify_signature: SimDuration,
    /// Recipient/gateway: assemble and sign a transaction via the daemon
    /// ("create, sign, send" JSON-RPC round trips in the paper's PoC).
    pub tx_build: SimDuration,
    /// Daemon: validate one incoming transaction.
    pub tx_validate: SimDuration,
    /// Recipient: RSA-decrypt `Em` with the revealed key and AES-decrypt
    /// (step 10).
    pub open_reading: SimDuration,
    /// Gateway: directory lookup (local scan of its chain index).
    pub directory_lookup: SimDuration,
}

impl CostModel {
    /// Calibrated to the paper's testbed classes (Nucleo-144 node,
    /// Raspberry Pi gateway, small VM daemons).
    pub fn pi_class() -> Self {
        CostModel {
            rsa_keygen: SimDuration::from_millis(260),
            node_encrypt: SimDuration::from_millis(80),
            // 512-bit private-key modexp on the 216 MHz Cortex-M7 Nucleo.
            node_sign: SimDuration::from_millis(390),
            verify_signature: SimDuration::from_millis(50),
            // "Create, sign, send" JSON-RPC round trips into the
            // Multichain daemon (§5.1) on a 512 MB PlanetLab VM.
            tx_build: SimDuration::from_millis(120),
            tx_validate: SimDuration::from_millis(20),
            open_reading: SimDuration::from_millis(80),
            directory_lookup: SimDuration::from_millis(8),
        }
    }

    /// Free CPU — isolates radio + network time in ablations.
    pub fn zero() -> Self {
        CostModel {
            rsa_keygen: SimDuration::ZERO,
            node_encrypt: SimDuration::ZERO,
            node_sign: SimDuration::ZERO,
            verify_signature: SimDuration::ZERO,
            tx_build: SimDuration::ZERO,
            tx_validate: SimDuration::ZERO,
            open_reading: SimDuration::ZERO,
            directory_lookup: SimDuration::ZERO,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::pi_class()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pi_class_totals_sub_second_cpu() {
        let c = CostModel::pi_class();
        let total = c.rsa_keygen
            + c.node_encrypt
            + c.node_sign
            + c.verify_signature
            + c.tx_build
            + c.tx_validate
            + c.open_reading
            + c.directory_lookup;
        // CPU alone is well under the 1.6 s exchange; radio + WAN add the rest.
        let s = total.as_secs_f64();
        assert!((0.3..1.2).contains(&s), "cpu total {s}");
    }

    #[test]
    fn zero_is_zero() {
        let c = CostModel::zero();
        assert_eq!(c.rsa_keygen, SimDuration::ZERO);
        assert_eq!(c.open_reading, SimDuration::ZERO);
    }
}
