//! Seeded property tests for the discrete-event kernel and metrics.
//!
//! Each property runs [`CASES`] inputs drawn from a [`SimRng`] seeded
//! with `BASE_SEED + case`; a failure names the case's seed.

use bcwan_sim::{EventQueue, Series, SimDuration, SimRng, SimTime};

const BASE_SEED: u64 = 0x51e9_7000;
const CASES: u64 = 128;

/// Runs `check(seed, rng)` once per case.
fn for_each_case(check: impl Fn(u64, &mut SimRng)) {
    for seed in BASE_SEED..BASE_SEED + CASES {
        check(seed, &mut SimRng::seed_from_u64(seed));
    }
}

fn samples(rng: &mut SimRng, min_len: usize, max_len: usize, lo: f64, hi: f64) -> Vec<f64> {
    let len = min_len + rng.index(max_len - min_len);
    (0..len).map(|_| rng.uniform_range(lo, hi)).collect()
}

/// Events always pop in non-decreasing time order, with FIFO ties.
#[test]
fn queue_pops_in_order() {
    for_each_case(|seed, rng| {
        // A narrow time range on odd cases forces plenty of ties.
        let span = if seed % 2 == 0 { 1_000_000 } else { 8 };
        let times: Vec<u64> = (0..1 + rng.index(99))
            .map(|_| rng.index(span) as u64)
            .collect();
        let mut q: EventQueue<usize> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_micros(t), i);
        }
        let mut popped = Vec::new();
        while let Some(event) = q.pop() {
            popped.push(event);
        }
        assert_eq!(popped.len(), times.len(), "seed {seed:#x}");
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "seed {seed:#x}: time went backwards");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "seed {seed:#x}: tie broke out of order");
            }
        }
    });
}

/// The clock never runs backwards, and scheduling in the past clamps
/// to now.
#[test]
fn clock_monotone_under_mixed_scheduling() {
    for_each_case(|seed, rng| {
        let steps = 1 + rng.index(49);
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime::from_micros(10), 0);
        let mut last = SimTime::ZERO;
        let mut i = 0u32;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "seed {seed:#x}: clock ran backwards");
            last = t;
            if i as usize >= steps {
                break;
            }
            if rng.chance(0.5) {
                q.schedule_at(SimTime::ZERO, i);
            } else {
                q.schedule_in(SimDuration::from_micros(rng.index(1000) as u64), i);
            }
            i += 1;
        }
    });
}

/// Summary statistics are internally consistent for any sample set.
#[test]
fn summary_invariants() {
    for_each_case(|seed, rng| {
        let samples = samples(rng, 1, 200, -1e6, 1e6);
        let series: Series = samples.iter().copied().collect();
        let s = series.summary().unwrap();
        assert_eq!(s.count, samples.len(), "seed {seed:#x}");
        assert!(s.min <= s.median && s.median <= s.max, "seed {seed:#x}");
        assert!(
            s.median <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max,
            "seed {seed:#x}"
        );
        assert!(s.min <= s.mean && s.mean <= s.max, "seed {seed:#x}");
        assert!(s.std_dev >= 0.0, "seed {seed:#x}");
    });
}

/// Histogram counts always total the sample count, over any range.
#[test]
fn histogram_total_invariant() {
    for_each_case(|seed, rng| {
        let samples = samples(rng, 0, 100, -100.0, 100.0);
        let lo = rng.uniform_range(-50.0, 0.0);
        let width = rng.uniform_range(1.0, 100.0);
        let buckets = 1 + rng.index(19);
        let series: Series = samples.iter().copied().collect();
        let hist = series.histogram(lo, lo + width, buckets);
        assert_eq!(hist.len(), buckets, "seed {seed:#x}");
        let total: usize = hist.iter().map(|b| b.count).sum();
        assert_eq!(total, samples.len(), "seed {seed:#x}");
        // Buckets tile the range contiguously.
        for w in hist.windows(2) {
            assert!((w[0].hi - w[1].lo).abs() < 1e-9, "seed {seed:#x}");
        }
    });
}
