//! Structured event tracing with sim-time spans.
//!
//! [`Tracer`] stamps named spans against the simulated clock: a span
//! opens with [`Tracer::span_start`] and closes with [`Tracer::span_end`],
//! keyed by a static phase name plus a caller-chosen `u64` id (an
//! exchange id, a block height, …) so many instances of the same phase
//! can be in flight at once. Closed spans fold into a per-name duration
//! [`Series`], which the bench harnesses summarize into the
//! phase-latency tables of the schema-versioned JSON reports.
//!
//! The tracer is designed around a hard overhead budget: when disabled
//! (the default for `World` unless `tracing` is set on the workload
//! config), every call is a single branch on a `bool` and returns
//! immediately — no allocation, no map lookup.

use crate::metrics::{Registry, Series};
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::collections::HashMap;

/// Key for a span instance: static phase name + caller-chosen instance id.
type SpanKey = (&'static str, u64);

/// A sim-time span tracer.
///
/// ```
/// use bcwan_sim::{SimTime, Tracer};
///
/// let mut tr = Tracer::enabled();
/// tr.span_start("uplink", 1, SimTime::from_micros(0));
/// tr.span_end("uplink", 1, SimTime::from_micros(1500));
/// let (name, durations) = tr.phases().next().unwrap();
/// assert_eq!(name, "uplink");
/// assert_eq!(durations.samples(), &[0.0015]);
/// ```
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    open: HashMap<SpanKey, SimTime>,
    /// Closed span durations (seconds), per phase name.
    closed: BTreeMap<&'static str, Series>,
    /// span_end calls with no matching span_start (indicates an
    /// instrumentation bug; surfaced in reports rather than panicking).
    unmatched_ends: u64,
}

impl Tracer {
    /// A disabled tracer: every call is a no-op behind one branch.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// An enabled tracer.
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::default()
        }
    }

    /// Builds a tracer with the given enablement.
    pub fn new(enabled: bool) -> Self {
        if enabled {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        }
    }

    /// Opens span `name`/`id` at `now`. Re-opening an already-open span
    /// restarts it (the earlier start is discarded).
    #[inline]
    pub fn span_start(&mut self, name: &'static str, id: u64, now: SimTime) {
        if !self.enabled {
            return;
        }
        self.open.insert((name, id), now);
    }

    /// Closes span `name`/`id` at `now`, folding its duration into the
    /// per-name series. An end without a matching start is counted (the
    /// `trace.unmatched_ends_total` row) and otherwise ignored.
    #[inline]
    pub fn span_end(&mut self, name: &'static str, id: u64, now: SimTime) {
        if !self.enabled {
            return;
        }
        match self.open.remove(&(name, id)) {
            Some(start) => {
                let dur = now.saturating_duration_since(start);
                self.closed
                    .entry(name)
                    .or_default()
                    .record(dur.as_secs_f64());
            }
            None => self.unmatched_ends += 1,
        }
    }

    /// Records an externally measured duration directly, without a
    /// start/end pair — for phases whose endpoints live in different
    /// actors where threading an id through would distort the protocol.
    #[inline]
    pub fn record_span(&mut self, name: &'static str, duration: SimDuration) {
        if !self.enabled {
            return;
        }
        self.closed
            .entry(name)
            .or_default()
            .record(duration.as_secs_f64());
    }

    /// Every phase with at least one closed span and its durations
    /// (seconds), sorted by name.
    pub fn phases(&self) -> impl Iterator<Item = (&'static str, &Series)> {
        self.closed.iter().map(|(name, series)| (*name, series))
    }

    /// Publishes the tracer's own health rows (`trace.*`); a disabled
    /// tracer publishes nothing.
    pub fn export(&self, reg: &mut Registry) {
        if self.enabled {
            reg.set_counter("trace.unmatched_ends_total", self.unmatched_ends);
            reg.set_gauge("trace.open_spans", self.open.len() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn durations<'a>(tr: &'a Tracer, name: &str) -> Option<&'a Series> {
        tr.phases().find(|(n, _)| *n == name).map(|(_, s)| s)
    }

    /// The tracer's health rows as [`Tracer::export`] publishes them.
    fn health(tr: &Tracer) -> crate::Snapshot {
        let mut reg = Registry::new();
        tr.export(&mut reg);
        reg.snapshot()
    }

    fn open_spans(tr: &Tracer) -> f64 {
        let snap = health(tr);
        let row = snap.gauges.iter().find(|(n, _)| n == "trace.open_spans");
        row.map_or(0.0, |(_, v)| *v)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        tr.span_start("phase", 0, t(0));
        tr.span_end("phase", 0, t(100));
        tr.record_span("settle", SimDuration::from_millis(40));
        assert!(durations(&tr, "phase").is_none());
        assert_eq!(tr.phases().count(), 0);
        assert!(
            health(&tr).gauges.is_empty(),
            "a disabled tracer exports nothing"
        );
    }

    #[test]
    fn span_duration_in_seconds() {
        let mut tr = Tracer::enabled();
        tr.span_start("up", 7, t(1_000_000));
        tr.span_end("up", 7, t(3_500_000));
        let s = durations(&tr, "up").unwrap();
        assert_eq!(s.samples(), &[2.5]);
    }

    #[test]
    fn concurrent_instances_do_not_collide() {
        let mut tr = Tracer::enabled();
        tr.span_start("x", 1, t(0));
        tr.span_start("x", 2, t(10));
        tr.span_end("x", 2, t(20));
        tr.span_end("x", 1, t(40));
        let samples = durations(&tr, "x").unwrap().samples().to_vec();
        assert_eq!(samples, vec![10e-6, 40e-6]);
    }

    #[test]
    fn unmatched_end_is_counted_not_recorded() {
        let mut tr = Tracer::enabled();
        tr.span_end("ghost", 1, t(5));
        assert_eq!(health(&tr).counter("trace.unmatched_ends_total"), Some(1));
        assert!(durations(&tr, "ghost").is_none());
    }

    #[test]
    fn recorded_spans_fold_into_phases() {
        let mut tr = Tracer::enabled();
        tr.record_span("settle", SimDuration::from_millis(40));
        tr.span_start("mined", 1, t(0));
        tr.span_end("mined", 1, t(10));
        let phases: Vec<_> = tr.phases().map(|(name, s)| (name, s.len())).collect();
        assert_eq!(phases, vec![("mined", 1), ("settle", 1)]);
        assert_eq!(durations(&tr, "settle").unwrap().samples(), &[0.04]);
    }

    #[test]
    fn open_span_visible_until_closed() {
        let mut tr = Tracer::enabled();
        tr.span_start("long", 1, t(0));
        assert_eq!(open_spans(&tr), 1.0);
        tr.span_end("long", 1, t(1));
        assert_eq!(open_spans(&tr), 0.0);
    }
}
