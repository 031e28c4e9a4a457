//! The per-exchange fault-tolerance state machine.
//!
//! Every Fig. 3 exchange progresses through named phases; the machine
//! makes the legal transitions explicit, times the phase's retries
//! (bounded re-delivery with exponential backoff while `Sealed`, an
//! unbounded settlement watchdog once the escrow is published), and
//! survives reorgs: a claim or refund that confirms can be *orphaned*
//! back to [`Phase::Escrowed`], after which the watchdog keeps the
//! settlement published until the chain settles it again. The machines
//! live in the nodes that act on them: a gateway's session holds one
//! while it re-delivers, a recipient's escrow record from delivery on
//! (`Node::on_deadline` fires both).
//!
//! ```text
//!                 Sealed        Delivered      EscrowPublished
//!   Created ───────────▶ Sealed ────────▶ Delivered ─────────▶ Escrowed
//!      │                   │                  │                 │     ▲▲
//!      │ Abort             │ Abort            │ Abort           │     ││
//!      ▼                   ▼                  ▼   ClaimConfirmed│     ││ClaimOrphaned
//!   Abandoned ◀────────────┴──────────────────┘      ┌──────────┤     ││
//!                                                    ▼          ▼     ││RefundOrphaned
//!                                                 Claimed    Refunded ┘│
//!                                                    └─────────────────┘
//! ```
//!
//! `Escrowed` deliberately has **no** `Abort` edge: once coins sit in the
//! Listing 1 output, the only exits are on-chain (the gateway's claim or
//! the recipient's CLTV refund). Abandoning there would strand value,
//! which the chaos soak's conservation invariant would flag.

use bcwan_sim::{SimDuration, SimTime};

/// Named lifecycle phases of one exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The sensor fired; radio negotiation (request/key/data) under way.
    Created,
    /// The node sealed the reading; the gateway holds the uplink and is
    /// delivering it to the recipient over the WAN.
    Sealed,
    /// The recipient verified the uplink (Fig. 3 step 8) and is building
    /// the escrow.
    Delivered,
    /// The escrow transaction is published; settlement is now the
    /// chain's business (claim or refund).
    Escrowed,
    /// The gateway's claim confirmed: the key is public, the reward paid.
    Claimed,
    /// The recipient's CLTV refund confirmed: the gateway never claimed.
    Refunded,
    /// The exchange died before any money moved (radio exhaustion,
    /// verification failure, delivery retries exhausted).
    Abandoned,
}

/// Events that move an exchange between phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsmEvent {
    /// The node sealed and transmitted the reading to the gateway.
    Sealed,
    /// The recipient verified the delivery.
    Delivered,
    /// The recipient published the escrow transaction.
    EscrowPublished,
    /// A block confirmed the gateway's claim.
    ClaimConfirmed,
    /// A block confirmed the recipient's refund.
    RefundConfirmed,
    /// A reorg disconnected the block holding the claim.
    ClaimOrphaned,
    /// A reorg disconnected the block holding the refund.
    RefundOrphaned,
    /// The exchange is given up (only legal before money moved).
    Abort,
}

/// An attempted transition that the machine does not allow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IllegalTransition {
    /// The phase the machine was in.
    pub from: Phase,
    /// The event that does not apply there.
    pub event: FsmEvent,
}

impl std::fmt::Display for IllegalTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "event {:?} is illegal in phase {:?}",
            self.event, self.from
        )
    }
}

impl std::error::Error for IllegalTransition {}

/// Exponential-backoff retry schedule for one phase.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RetryPolicy {
    /// Delay before the first retry.
    pub base: SimDuration,
    /// Ceiling the doubling never exceeds.
    pub max: SimDuration,
    /// Retries allowed before the phase gives up (`u32::MAX` = never).
    pub max_retries: u32,
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (0-based): `base · 2ⁿ`,
    /// capped at `max`.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let factor = 1u64 << attempt.min(16);
        let raw = self.base.as_secs_f64() * factor as f64;
        SimDuration::from_secs_f64(raw.min(self.max.as_secs_f64()))
    }

    /// Whether `attempt` retries exhaust the budget.
    pub fn exhausted(&self, attempt: u32) -> bool {
        attempt >= self.max_retries
    }
}

/// Re-delivery schedule while `Sealed` (gateway → recipient): bounded,
/// so a dead recipient eventually abandons the exchange.
pub(crate) const DELIVER_RETRY: RetryPolicy = RetryPolicy {
    base: SimDuration::from_secs(5),
    max: SimDuration::from_secs(40),
    max_retries: 4,
};

/// Settlement watchdog while `Escrowed`: re-floods a vanished or
/// left-out escrow or refund and drives the CLTV refund. Unbounded —
/// escrowed money must terminate on chain. Its `base` is also how long
/// after a settlement went out a block may still leave it out.
pub(crate) const SETTLE_CHECK: RetryPolicy = RetryPolicy {
    base: SimDuration::from_secs(10),
    max: SimDuration::from_secs(60),
    max_retries: u32::MAX,
};

/// Re-floods in a row that blocks from one miner kept leaving out — each
/// block mined at least `SETTLE_CHECK.base` after the settlement last
/// went out — before a node suspects that miner of censorship. An honest
/// miner includes a pooled transaction in its next block, so it
/// essentially never trips this — and a spurious trip only rotates
/// mining duty, it never loses money.
pub(crate) const CENSOR_SUSPECT_SWEEPS: u32 = 4;

/// The state machine for one exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct ExchangeFsm {
    phase: Phase,
    /// When the current deadline window was armed: phase entry, or the
    /// last retry. Anchoring here (not at phase entry) keeps capped
    /// backoff from scheduling deadlines in the past once a phase has
    /// outlived its maximum backoff.
    armed_at: SimTime,
    /// Retries burned inside the current phase.
    retries: u32,
}

impl ExchangeFsm {
    /// A fresh machine in [`Phase::Created`].
    pub fn new(now: SimTime) -> Self {
        ExchangeFsm {
            phase: Phase::Created,
            armed_at: now,
            retries: 0,
        }
    }

    /// A machine for an exchange whose uplink this node just verified
    /// (Fig. 3 step 8): where a recipient's record starts.
    pub fn delivered(now: SimTime) -> Self {
        ExchangeFsm {
            phase: Phase::Delivered,
            ..Self::new(now)
        }
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Retries burned inside the current phase.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// Whether the machine reached a phase that needs no further driving.
    /// `Claimed`/`Refunded` can still be orphaned back by a reorg, so
    /// "settled" is only final once mining stops.
    pub(crate) fn is_settled(&self) -> bool {
        matches!(
            self.phase,
            Phase::Claimed | Phase::Refunded | Phase::Abandoned
        )
    }

    /// Applies `event` at `now`, returning the phase entered.
    ///
    /// # Errors
    ///
    /// [`IllegalTransition`] when `event` has no edge out of the current
    /// phase; the machine is left unchanged so callers can count the
    /// violation and continue.
    pub fn apply(&mut self, event: FsmEvent, now: SimTime) -> Result<Phase, IllegalTransition> {
        use FsmEvent as E;
        use Phase as P;
        let next = match (self.phase, event) {
            (P::Created, E::Sealed) => P::Sealed,
            (P::Sealed, E::Delivered) => P::Delivered,
            (P::Delivered, E::EscrowPublished) => P::Escrowed,
            (P::Escrowed, E::ClaimConfirmed) => P::Claimed,
            (P::Escrowed, E::RefundConfirmed) => P::Refunded,
            (P::Claimed, E::ClaimOrphaned) => P::Escrowed,
            (P::Refunded, E::RefundOrphaned) => P::Escrowed,
            (P::Created | P::Sealed | P::Delivered, E::Abort) => P::Abandoned,
            (from, event) => return Err(IllegalTransition { from, event }),
        };
        self.phase = next;
        self.armed_at = now;
        self.retries = 0;
        Ok(next)
    }

    /// Records one retry in the current phase at `now`, re-arming the
    /// deadline from there.
    pub(crate) fn note_retry(&mut self, now: SimTime) {
        self.retries += 1;
        self.armed_at = now;
    }

    /// The next deadline for the current phase (`DELIVER_RETRY` while
    /// `Sealed`, `SETTLE_CHECK` while `Escrowed`). `None` for phases
    /// that are not deadline-driven.
    pub fn deadline(&self) -> Option<SimTime> {
        let policy = match self.phase {
            Phase::Sealed => &DELIVER_RETRY,
            Phase::Escrowed => &SETTLE_CHECK,
            _ => return None,
        };
        Some(self.armed_at + policy.backoff(self.retries))
    }

    /// Whether the phase's retry budget is spent.
    pub(crate) fn retries_exhausted(&self) -> bool {
        match self.phase {
            Phase::Sealed => DELIVER_RETRY.exhausted(self.retries),
            Phase::Escrowed => SETTLE_CHECK.exhausted(self.retries),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn happy_path_claim() {
        let mut fsm = ExchangeFsm::new(t(0));
        for (event, phase) in [
            (FsmEvent::Sealed, Phase::Sealed),
            (FsmEvent::Delivered, Phase::Delivered),
            (FsmEvent::EscrowPublished, Phase::Escrowed),
            (FsmEvent::ClaimConfirmed, Phase::Claimed),
        ] {
            assert_eq!(fsm.apply(event, t(1)).unwrap(), phase);
        }
        assert!(fsm.is_settled());
    }

    #[test]
    fn refund_path_and_orphan_recovery() {
        let mut fsm = ExchangeFsm::new(t(0));
        fsm.apply(FsmEvent::Sealed, t(1)).unwrap();
        fsm.apply(FsmEvent::Delivered, t(2)).unwrap();
        fsm.apply(FsmEvent::EscrowPublished, t(3)).unwrap();
        // A claim confirms, is orphaned by a reorg, and the escrow then
        // settles through the refund branch instead.
        fsm.apply(FsmEvent::ClaimConfirmed, t(4)).unwrap();
        assert_eq!(
            fsm.apply(FsmEvent::ClaimOrphaned, t(5)).unwrap(),
            Phase::Escrowed
        );
        assert!(!fsm.is_settled());
        fsm.apply(FsmEvent::RefundConfirmed, t(6)).unwrap();
        assert_eq!(fsm.phase(), Phase::Refunded);
        // And a refund can be orphaned right back.
        fsm.apply(FsmEvent::RefundOrphaned, t(7)).unwrap();
        assert_eq!(fsm.phase(), Phase::Escrowed);
    }

    #[test]
    fn escrowed_cannot_abort() {
        let mut fsm = ExchangeFsm::new(t(0));
        fsm.apply(FsmEvent::Sealed, t(1)).unwrap();
        assert_eq!(fsm.apply(FsmEvent::Abort, t(2)).unwrap(), Phase::Abandoned);

        let mut fsm = ExchangeFsm::new(t(0));
        fsm.apply(FsmEvent::Sealed, t(1)).unwrap();
        fsm.apply(FsmEvent::Delivered, t(2)).unwrap();
        fsm.apply(FsmEvent::EscrowPublished, t(3)).unwrap();
        let err = fsm.apply(FsmEvent::Abort, t(4)).unwrap_err();
        assert_eq!(err.from, Phase::Escrowed);
        assert_eq!(fsm.phase(), Phase::Escrowed, "machine unchanged");
    }

    #[test]
    fn illegal_transitions_rejected() {
        let mut fsm = ExchangeFsm::new(t(0));
        assert!(fsm.apply(FsmEvent::ClaimConfirmed, t(1)).is_err());
        assert!(fsm.apply(FsmEvent::Delivered, t(1)).is_err());
        assert_eq!(fsm.phase(), Phase::Created);
    }

    #[test]
    fn deadlines_and_backoff() {
        let mut fsm = ExchangeFsm::new(t(0));
        assert!(fsm.deadline().is_none(), "Created is not driven");
        fsm.apply(FsmEvent::Sealed, t(10)).unwrap();
        assert_eq!(fsm.deadline(), Some(t(15)), "base 5 s");
        fsm.note_retry(t(15));
        let d1 = fsm.deadline().unwrap();
        assert_eq!(d1, t(25), "doubled to 10 s, anchored at the retry");
        fsm.note_retry(t(25));
        fsm.note_retry(t(45));
        fsm.note_retry(t(85));
        let d4 = fsm.deadline().unwrap();
        assert_eq!(d4, t(125), "capped at 40 s");
        assert!(fsm.retries_exhausted(), "4 retries = budget spent");
    }

    #[test]
    fn settle_watchdog_is_unbounded() {
        let mut fsm = ExchangeFsm::new(t(0));
        fsm.apply(FsmEvent::Sealed, t(1)).unwrap();
        fsm.apply(FsmEvent::Delivered, t(2)).unwrap();
        fsm.apply(FsmEvent::EscrowPublished, t(3)).unwrap();
        for i in 0..1000 {
            fsm.note_retry(t(3 + i));
        }
        assert!(!fsm.retries_exhausted());
        assert_eq!(
            fsm.deadline().unwrap(),
            t(1002 + 60),
            "capped at 60 s past the last retry — always in the future"
        );
    }

    #[test]
    fn recipient_machine_starts_delivered() {
        let mut fsm = ExchangeFsm::delivered(t(2));
        assert_eq!(fsm.deadline(), None, "Delivered is not driven");
        assert_eq!(
            fsm.apply(FsmEvent::EscrowPublished, t(3)).unwrap(),
            Phase::Escrowed
        );
        assert_eq!(fsm.deadline(), Some(t(13)), "first settlement sweep");
        assert!(fsm.apply(FsmEvent::Abort, t(4)).is_err());
    }
}
