//! The escrow's settlement machine and the retry clock the nodes drive.
//!
//! Once an escrow is published, Listing 1 leaves two ways out: the
//! gateway's claim, which reveals `eSk`, or the recipient's CLTV refund.
//! `Settlement`, one per escrow in the recipient's record, has no phase
//! that abandons the coins; a reorg orphans a confirmed spend back.
//!
//! ```text
//!   Claimed ◀── ClaimConfirmed ── Escrowed ── RefundConfirmed ──▶ Refunded
//!           ─── ClaimOrphaned ──▶          ◀── RefundOrphaned ───
//! ```

use bcwan_sim::{SimDuration, SimTime};

/// Where an escrow stands on its recipient's main chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The escrow is published and unspent: the sweep drives it.
    Escrowed,
    /// The gateway's claim confirmed: the key is public, the reward paid.
    Claimed,
    /// The recipient's CLTV refund confirmed: the gateway never claimed.
    Refunded,
}

/// A main-chain change to the spend of an escrow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsmEvent {
    /// A block confirmed the gateway's claim.
    ClaimConfirmed,
    /// A block confirmed the recipient's refund.
    RefundConfirmed,
    /// A reorg disconnected the block holding the claim.
    ClaimOrphaned,
    /// A reorg disconnected the block holding the refund.
    RefundOrphaned,
}

/// An exponential-backoff schedule: first delay, the cap on its doubling,
/// and the retries allowed before the clock is spent (`u32::MAX` = never).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RetryPolicy {
    pub base: SimDuration,
    pub max: SimDuration,
    pub max_retries: u32,
}

/// Re-delivery of a held uplink: bounded, so a dead recipient ends it.
pub(crate) const DELIVER_RETRY: RetryPolicy = RetryPolicy {
    base: SimDuration::from_secs(5),
    max: SimDuration::from_secs(40),
    max_retries: 4,
};

/// The escrow sweep: re-floods a vanished or left-out escrow or refund
/// and drives the CLTV refund; unbounded, for escrowed money must end on
/// chain. `base` is also how long a block may leave a settlement out.
pub(crate) const SETTLE_CHECK: RetryPolicy = RetryPolicy {
    base: SimDuration::from_secs(10),
    max: SimDuration::from_secs(60),
    max_retries: u32::MAX,
};

/// Re-floods in a row that one miner's blocks left out before a node
/// suspects it of censorship (a spurious trip only rotates mining duty).
pub(crate) const CENSOR_SUSPECT_SWEEPS: u32 = 4;

/// One retry clock. The gateway re-delivers a held uplink on one
/// ([`DELIVER_RETRY`]); an escrow is swept on one ([`SETTLE_CHECK`]),
/// re-armed by each settlement event. `Node::on_deadline` fires both.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Backoff {
    /// Set again at each retry, so a capped wait never ends in the past.
    armed_at: SimTime,
    retries: u32,
    policy: &'static RetryPolicy,
}

impl Backoff {
    /// A clock armed at `now`, no retries burned.
    pub(crate) fn new(policy: &'static RetryPolicy, now: SimTime) -> Self {
        Backoff {
            armed_at: now,
            retries: 0,
            policy,
        }
    }

    /// The next retry: `base · 2ⁿ` after the last arming, capped at `max`.
    pub(crate) fn deadline(&self) -> SimTime {
        let raw = self.policy.base.as_secs_f64() * (1u64 << self.retries.min(16)) as f64;
        self.armed_at + SimDuration::from_secs_f64(raw.min(self.policy.max.as_secs_f64()))
    }

    /// Records one retry at `now`, re-arming the clock from there.
    pub(crate) fn note_retry(&mut self, now: SimTime) {
        self.retries += 1;
        self.armed_at = now;
    }

    /// Whether the policy's retry budget is spent.
    pub(crate) fn exhausted(&self) -> bool {
        self.retries >= self.policy.max_retries
    }
}

/// The recipient's machine for one escrow: its phase and its sweep.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Settlement {
    phase: Phase,
    sweep: Backoff,
}

impl Settlement {
    /// The machine of an escrow published at `now`.
    pub(crate) fn new(now: SimTime) -> Self {
        let (phase, sweep) = (Phase::Escrowed, Backoff::new(&SETTLE_CHECK, now));
        Settlement { phase, sweep }
    }

    /// Current phase.
    pub(crate) fn phase(&self) -> Phase {
        self.phase
    }

    /// Applies `event` at `now`, re-arming the sweep; `false`, with the
    /// machine unchanged, if `event` has no edge out of the phase.
    pub(crate) fn apply(&mut self, event: FsmEvent, now: SimTime) -> bool {
        use {FsmEvent as E, Phase as P};
        self.phase = match (self.phase, event) {
            (P::Escrowed, E::ClaimConfirmed) => P::Claimed,
            (P::Escrowed, E::RefundConfirmed) => P::Refunded,
            (P::Claimed, E::ClaimOrphaned) | (P::Refunded, E::RefundOrphaned) => P::Escrowed,
            _ => return false,
        };
        self.sweep = Backoff::new(&SETTLE_CHECK, now);
        true
    }

    /// The next sweep, while Escrowed.
    pub(crate) fn deadline(&self) -> Option<SimTime> {
        (self.phase == Phase::Escrowed).then(|| self.sweep.deadline())
    }

    /// Records one sweep at `now`, re-arming the next from there.
    pub(crate) fn note_sweep(&mut self, now: SimTime) {
        self.sweep.note_retry(now);
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
        let mut fsm = Settlement::new(t(0));
        assert!(fsm.apply(FsmEvent::ClaimConfirmed, t(1)));
        assert_eq!(fsm.phase(), Phase::Claimed);
        assert_eq!(fsm.deadline(), None, "a settled escrow is not swept");
    }

    #[test]
    fn refund_path_and_orphan_recovery() {
        let mut fsm = Settlement::new(t(3));
        // A claim confirms, is orphaned by a reorg, and the escrow then
        // settles through the refund branch instead.
        assert!(fsm.apply(FsmEvent::ClaimConfirmed, t(4)));
        assert!(fsm.apply(FsmEvent::ClaimOrphaned, t(5)));
        assert_eq!(fsm.phase(), Phase::Escrowed);
        assert_eq!(fsm.deadline(), Some(t(15)), "the sweep takes over");
        assert!(fsm.apply(FsmEvent::RefundConfirmed, t(6)));
        assert_eq!(fsm.phase(), Phase::Refunded);
        // And a refund can be orphaned right back.
        assert!(fsm.apply(FsmEvent::RefundOrphaned, t(7)));
        assert_eq!(fsm.phase(), Phase::Escrowed);
    }

    #[test]
    fn illegal_transitions_rejected() {
        let mut fsm = Settlement::new(t(0));
        assert!(!fsm.apply(FsmEvent::ClaimOrphaned, t(1)));
        assert!(fsm.apply(FsmEvent::RefundConfirmed, t(1)));
        assert!(
            !fsm.apply(FsmEvent::ClaimConfirmed, t(2)),
            "no double settlement"
        );
        assert_eq!(fsm.phase(), Phase::Refunded);
    }

    /// Every phase × event pair: the four legal ones land where the
    /// diagram says, re-arm the sweep at the event's instant and reset
    /// its retries; the eight others leave the machine as it was.
    #[test]
    fn settlement_table_covers_every_phase_and_event() {
        use FsmEvent as E;
        use Phase as P;
        let events = [
            E::ClaimConfirmed,
            E::RefundConfirmed,
            E::ClaimOrphaned,
            E::RefundOrphaned,
        ];
        let legal = [
            (P::Escrowed, E::ClaimConfirmed, P::Claimed),
            (P::Escrowed, E::RefundConfirmed, P::Refunded),
            (P::Claimed, E::ClaimOrphaned, P::Escrowed),
            (P::Refunded, E::RefundOrphaned, P::Escrowed),
        ];
        // A machine in `phase` whose sweep has burned three retries.
        let machine = |phase| {
            let mut fsm = Settlement::new(t(0));
            for at in 1..=3 {
                fsm.note_sweep(t(at));
            }
            match phase {
                P::Escrowed => {}
                P::Claimed => assert!(fsm.apply(E::ClaimConfirmed, t(4))),
                P::Refunded => assert!(fsm.apply(E::RefundConfirmed, t(4))),
            }
            for at in 5..=7 {
                fsm.note_sweep(t(at));
            }
            fsm
        };
        let mut illegal = 0;
        for from in [P::Escrowed, P::Claimed, P::Refunded] {
            for event in events {
                let mut fsm = machine(from);
                let before = fsm.clone();
                let landed = legal
                    .iter()
                    .find(|(f, e, _)| (*f, *e) == (from, event))
                    .map(|(_, _, to)| *to);
                assert_eq!(
                    fsm.apply(event, t(100)),
                    landed.is_some(),
                    "{from:?} {event:?}"
                );
                match landed {
                    Some(to) => {
                        assert_eq!(fsm.phase(), to, "{from:?} {event:?}");
                        let rearmed = Backoff::new(&SETTLE_CHECK, t(100));
                        assert_eq!(fsm.sweep, rearmed, "{from:?} {event:?}");
                        let due = (to == P::Escrowed).then_some(t(110));
                        assert_eq!(fsm.deadline(), due, "{from:?} {event:?}");
                    }
                    None => {
                        assert_eq!(fsm, before, "{from:?} {event:?} leaves it unchanged");
                        illegal += 1;
                    }
                }
            }
        }
        assert_eq!(illegal, 8);
    }

    #[test]
    fn deadlines_and_backoff() {
        let mut clock = Backoff::new(&DELIVER_RETRY, t(10));
        assert_eq!(clock.deadline(), t(15), "base 5 s");
        clock.note_retry(t(15));
        assert_eq!(
            clock.deadline(),
            t(25),
            "doubled to 10 s, anchored at the retry"
        );
        clock.note_retry(t(25));
        clock.note_retry(t(45));
        assert!(!clock.exhausted(), "3 of 4 retries");
        clock.note_retry(t(85));
        assert_eq!(clock.deadline(), t(125), "capped at 40 s");
        assert!(clock.exhausted(), "4 retries = budget spent");
    }

    #[test]
    fn settle_watchdog_is_unbounded() {
        let mut fsm = Settlement::new(t(3));
        assert_eq!(fsm.deadline(), Some(t(13)), "first sweep after 10 s");
        for i in 0..1000 {
            fsm.note_sweep(t(3 + i));
        }
        assert!(!fsm.sweep.exhausted());
        assert_eq!(
            fsm.deadline(),
            Some(t(1002 + 60)),
            "capped at 60 s past the last sweep — always in the future"
        );
    }
}
