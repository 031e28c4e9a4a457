//! Proof-of-stake block scheduling (consensus ablation).
//!
//! The paper's §6: "The Proof-of-Work is not suitable for edge nodes to
//! run the blockchain as this is a computational power based method of
//! election. Other methods such as Proof-of-stake do not rely on
//! computational power and thus can help to further close the gap of the
//! blockchain to the edge nodes." This module provides the stake-weighted
//! leader schedule the A4 ablation bench compares against PoW.

use bcwan_chain::Address;
use bcwan_crypto::sha256;

/// A stake-weighted validator set with deterministic slot-leader election.
#[derive(Debug, Clone)]
pub struct ValidatorSet {
    validators: Vec<(Address, u64)>,
    total_stake: u64,
}

/// Errors building a validator set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidatorSetError {
    /// No validators supplied.
    Empty,
    /// A validator has zero stake.
    ZeroStake(Address),
}

impl std::fmt::Display for ValidatorSetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidatorSetError::Empty => write!(f, "validator set is empty"),
            ValidatorSetError::ZeroStake(a) => write!(f, "validator {a} has zero stake"),
        }
    }
}

impl std::error::Error for ValidatorSetError {}

impl ValidatorSet {
    /// Builds a set from `(address, stake)` pairs.
    ///
    /// # Errors
    ///
    /// [`ValidatorSetError`] on an empty set or zero stakes.
    pub fn new(validators: Vec<(Address, u64)>) -> Result<Self, ValidatorSetError> {
        if validators.is_empty() {
            return Err(ValidatorSetError::Empty);
        }
        for (addr, stake) in &validators {
            if *stake == 0 {
                return Err(ValidatorSetError::ZeroStake(*addr));
            }
        }
        let total_stake = validators.iter().map(|(_, s)| s).sum();
        Ok(ValidatorSet {
            validators,
            total_stake,
        })
    }

    /// Number of validators.
    pub fn len(&self) -> usize {
        self.validators.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.validators.is_empty()
    }

    /// The slot leader for block `height` under chain `seed`: a
    /// deterministic, stake-weighted draw (follow-the-satoshi style).
    /// Every honest node computes the same leader.
    pub(crate) fn slot_leader(&self, height: u64, seed: &[u8]) -> Address {
        let mut material = Vec::with_capacity(seed.len() + 8);
        material.extend_from_slice(seed);
        material.extend_from_slice(&height.to_le_bytes());
        let digest = sha256(&material);
        let draw = u64::from_le_bytes(digest[..8].try_into().expect("8 bytes")) % self.total_stake;
        let mut acc = 0u64;
        for (addr, stake) in &self.validators {
            acc += stake;
            if draw < acc {
                return *addr;
            }
        }
        unreachable!("draw < total_stake")
    }

    /// Fraction of slots in `[0, horizon)` led by `addr` — used by the
    /// ablation to confirm stake-proportional block production.
    pub fn leadership_share(&self, addr: &Address, seed: &[u8], horizon: u64) -> f64 {
        let led = (0..horizon)
            .filter(|h| self.slot_leader(*h, seed) == *addr)
            .count();
        led as f64 / horizon as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(b: u8) -> Address {
        Address([b; 20])
    }

    #[test]
    fn construction_rules() {
        assert!(matches!(
            ValidatorSet::new(vec![]),
            Err(ValidatorSetError::Empty)
        ));
        assert!(matches!(
            ValidatorSet::new(vec![(addr(1), 0)]),
            Err(ValidatorSetError::ZeroStake(a)) if a == addr(1)
        ));
        let set = ValidatorSet::new(vec![(addr(1), 10), (addr(2), 30)]).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_stake, 40);
    }

    #[test]
    fn leader_is_deterministic() {
        let set = ValidatorSet::new(vec![(addr(1), 1), (addr(2), 1), (addr(3), 1)]).unwrap();
        for h in 0..20 {
            assert_eq!(set.slot_leader(h, b"seed"), set.slot_leader(h, b"seed"));
        }
        // Different seeds give (usually) different schedules.
        let schedule_a: Vec<_> = (0..20).map(|h| set.slot_leader(h, b"a")).collect();
        let schedule_b: Vec<_> = (0..20).map(|h| set.slot_leader(h, b"b")).collect();
        assert_ne!(schedule_a, schedule_b);
    }

    #[test]
    fn leadership_proportional_to_stake() {
        let set = ValidatorSet::new(vec![(addr(1), 10), (addr(2), 30)]).unwrap();
        let share1 = set.leadership_share(&addr(1), b"bcwan", 4000);
        let share2 = set.leadership_share(&addr(2), b"bcwan", 4000);
        assert!((share1 - 0.25).abs() < 0.05, "share1 {share1}");
        assert!((share2 - 0.75).abs() < 0.05, "share2 {share2}");
        assert!((share1 + share2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_validator_always_leads() {
        let set = ValidatorSet::new(vec![(addr(9), 5)]).unwrap();
        for h in 0..10 {
            assert_eq!(set.slot_leader(h, b"x"), addr(9));
        }
    }

    #[test]
    fn impl_eq_for_error() {
        // Constructed sets are never empty.
        let set = ValidatorSet::new(vec![(addr(1), 1)]).unwrap();
        assert!(!set.is_empty());
    }
}
