//! Adapter for `bcwan-sim`: the event queue, the generator, the metrics
//! registry and the sample series — the pieces every `World` event goes
//! through. Each function does a batch of `n` operations inside one span
//! because a single operation is a few nanoseconds.

use crate::trace::span;
use bcwan_sim::{EventQueue, Registry, Series, SimDuration, SimRng};

const LAYER: &str = "sim";

/// A queue holding `pending` events at pseudo-random times.
pub fn queue_with(pending: usize, seed: u64) -> (EventQueue<u64>, SimRng) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut queue = EventQueue::new();
    for i in 0..pending as u64 {
        queue.schedule_in(SimDuration::from_secs_f64(rng.uniform() * 3600.0), i);
    }
    (queue, rng)
}

/// `n` pop-then-reschedule rounds at a steady queue depth.
pub fn queue_push_pop(queue: &mut EventQueue<u64>, rng: &mut SimRng, n: usize) -> u64 {
    let _s = span(LAYER, "queue_push_pop");
    let mut acc = 0;
    for _ in 0..n {
        let (_, event) = queue.pop().expect("queue stays at its depth");
        acc ^= event;
        queue.schedule_in(SimDuration::from_secs_f64(rng.uniform() * 3600.0), event);
    }
    acc
}

pub fn rng(seed: u64) -> SimRng {
    SimRng::seed_from_u64(seed)
}

pub fn rng_draws(rng: &mut SimRng, n: usize) -> f64 {
    let _s = span(LAYER, "rng_next");
    let mut acc = 0.0;
    for _ in 0..n {
        acc += rng.uniform();
    }
    acc
}

/// `n` counter increments spread over eight registered counters.
pub fn registry_adds(n: usize) -> u64 {
    let mut registry = Registry::new();
    let ids: Vec<_> = (0..8)
        .map(|i| registry.counter(&format!("bench.counter_{i}")))
        .collect();
    let _s = span(LAYER, "registry_add");
    for i in 0..n {
        registry.add(ids[i % ids.len()], 1);
    }
    registry.counter_value(ids[0])
}

pub fn series_of(samples: &[f64]) -> Series {
    let mut series = Series::new();
    for &s in samples {
        series.record(s);
    }
    series
}

pub fn series_summary(series: &Series) -> bool {
    let _s = span(LAYER, "series_summary");
    series.summary().is_some()
}
