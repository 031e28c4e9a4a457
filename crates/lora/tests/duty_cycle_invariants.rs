//! Randomized invariant tests for `DutyCycleGovernor`.
//!
//! The governor is the one component every transmit path (per-`Radio`
//! scalar and columnar sharded alike) relies on for regulatory
//! correctness, so its invariants are pinned under adversarial random
//! attempt patterns with fixed StdRng seeds:
//!
//! - granted airtime never exceeds `duty × elapsed` (plus one frame of
//!   in-flight slack),
//! - `next_allowed` is monotone non-decreasing,
//! - a rejected attempt reports exactly the current `next_allowed` and
//!   changes no state.

use bcwan_lora::duty_cycle::DutyCycleGovernor;
use bcwan_sim::{SimDuration, SimRng, SimTime};

/// Drives a governor with randomly timed, randomly sized attempts and
/// checks every invariant after every attempt.
fn hammer(seed: u64, duty: f64, attempts: u32) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut gov = DutyCycleGovernor::new(duty);
    let max_airtime = SimDuration::from_millis(500);
    let mut now = SimTime::ZERO;
    let mut prev_next_allowed = gov.next_allowed();
    let mut granted = 0u64;
    for _ in 0..attempts {
        // Jump forward by anything from 0 to ~3 off-time windows; a zero
        // advance retries at the same instant.
        let jump = rng.uniform_range(0.0, 3.0 * max_airtime.as_secs_f64() / duty);
        now += SimDuration::from_secs_f64(jump * rng.uniform());
        let airtime = SimDuration::from_micros(1 + (rng.uniform() * 500_000.0) as u64);
        let before_total = gov.total_airtime();
        let before_next = gov.next_allowed();
        match gov.try_transmit(now, airtime) {
            Ok(()) => {
                granted += 1;
                assert!(now >= before_next, "grant before the off-time elapsed");
                assert_eq!(gov.total_airtime(), before_total + airtime);
            }
            Err(deadline) => {
                assert_eq!(deadline, before_next, "rejection must report next_allowed");
                assert_eq!(gov.total_airtime(), before_total, "rejection mutated state");
                assert_eq!(
                    gov.next_allowed(),
                    before_next,
                    "rejection moved the window"
                );
            }
        }
        assert!(
            gov.next_allowed() >= prev_next_allowed,
            "next_allowed went backwards: {} -> {}",
            prev_next_allowed,
            gov.next_allowed()
        );
        prev_next_allowed = gov.next_allowed();
        assert!(
            gov.within_budget(now.max(gov.next_allowed()), max_airtime),
            "budget violated at {now}: airtime {:?} duty {duty}",
            gov.total_airtime()
        );
    }
    assert_eq!(gov.transmissions(), granted);
    assert!(granted > 0, "seed {seed} never transmitted");
}

#[test]
fn invariants_hold_at_one_percent() {
    for seed in [1, 2, 3, 42] {
        hammer(seed, 0.01, 2_000);
    }
}

#[test]
fn invariants_hold_at_ten_percent() {
    for seed in [7, 99] {
        hammer(seed, 0.1, 2_000);
    }
}

#[test]
fn invariants_hold_at_full_duty() {
    hammer(1234, 1.0, 2_000);
}

#[test]
fn greedy_sender_hits_exact_ceiling() {
    // A sender that retries at every next_allowed converges on exactly
    // duty × elapsed airtime usage.
    let mut gov = DutyCycleGovernor::new(0.01);
    let airtime = SimDuration::from_millis(220);
    let mut now = SimTime::ZERO;
    for _ in 0..200 {
        gov.try_transmit(now, airtime).unwrap();
        now = gov.next_allowed();
    }
    let used = gov.total_airtime().as_secs_f64();
    let elapsed = now.as_secs_f64();
    assert!((used / elapsed - 0.01).abs() < 1e-6, "{used} / {elapsed}");
}

#[test]
fn invariants_hold_across_duty_fractions() {
    for pct in [2u32, 5, 25, 50, 99, 100] {
        hammer(1_000 + u64::from(pct), f64::from(pct) / 100.0, 500);
    }
}
