//! Measurement collection for experiments.
//!
//! [`Series`] accumulates scalar samples (latencies, counts) and computes
//! the summary statistics and histogram rows that the figure harnesses
//! print — mean/percentiles for the text in EXPERIMENTS.md and fixed-width
//! buckets mirroring the paper's Fig. 5/6 latency histograms.
//!
//! [`Registry`] is the workspace-wide metrics surface: named counters,
//! gauges, and log-scale [`LogHistogram`]s, registered once (cheap `Copy`
//! handles) and updated on hot paths with a plain vector index. A
//! [`Snapshot`] freezes the registry into sorted name/value rows and
//! serializes to the schema-versioned JSON the bench harnesses emit (see
//! [`Snapshot::to_json`]).

use crate::json::Json;
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Formats a labeled metric name, `base{key="value"}` — the convention
/// for per-host (or otherwise dimensioned) rows, so exporters can split
/// the dimension back out with [`split_label`]. The value must not
/// contain `"`.
pub fn labeled(base: &str, key: &str, value: impl fmt::Display) -> String {
    format!("{base}{{{key}=\"{value}\"}}")
}

/// Splits a [`labeled`] name into `(base, Some((key, value)))`; plain
/// names (or anything not matching the shape) come back `(name, None)`.
pub fn split_label(name: &str) -> (&str, Option<(&str, &str)>) {
    let Some(open) = name.find('{') else {
        return (name, None);
    };
    let Some(rest) = name[open..].strip_prefix('{') else {
        return (name, None);
    };
    let Some(body) = rest.strip_suffix('}') else {
        return (name, None);
    };
    let Some(eq) = body.find("=\"") else {
        return (name, None);
    };
    let Some(value) = body[eq + 2..].strip_suffix('"') else {
        return (name, None);
    };
    (&name[..open], Some((&body[..eq], value)))
}

/// An append-only series of `f64` samples with summary statistics.
#[derive(Debug, Clone, Default)]
pub struct Series {
    samples: Vec<f64>,
}

/// Summary statistics over a [`Series`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for < 2 samples).
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Median (p50).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

/// One histogram bucket: `[lo, hi)` with a count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound (last bucket is inclusive).
    pub hi: f64,
    /// Samples in the bucket.
    pub count: usize,
}

impl Series {
    /// Creates an empty series.
    pub fn new() -> Self {
        Series::default()
    }

    /// Appends one sample.
    pub fn record(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// Number of samples so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Read-only view of the raw samples in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Computes summary statistics.
    ///
    /// Returns `None` for an empty series.
    pub fn summary(&self) -> Option<Summary> {
        if self.samples.is_empty() {
            return None;
        }
        let count = self.samples.len();
        let mean = self.samples.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            self.samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        // Linearly interpolated percentile (the "R-7" definition used by
        // numpy): rank (n-1)·p splits into an integer index and a
        // fractional part that blends the two neighbouring order
        // statistics.
        let pct = |p: f64| -> f64 {
            let rank = (count as f64 - 1.0) * p;
            let lo = rank.floor() as usize;
            let frac = rank - lo as f64;
            if lo + 1 < count {
                sorted[lo] + frac * (sorted[lo + 1] - sorted[lo])
            } else {
                sorted[count - 1]
            }
        };
        Some(Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            median: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            max: sorted[count - 1],
        })
    }

    /// Fixed-width histogram over `[min, max]` with `n` buckets.
    ///
    /// Samples outside the range clamp into the first/last bucket, so the
    /// bucket counts always sum to `len()`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `max <= min`.
    pub fn histogram(&self, min: f64, max: f64, n: usize) -> Vec<Bucket> {
        assert!(n > 0, "need at least one bucket");
        assert!(max > min, "empty histogram range");
        let width = (max - min) / n as f64;
        let mut buckets: Vec<Bucket> = (0..n)
            .map(|i| Bucket {
                lo: min + i as f64 * width,
                hi: min + (i + 1) as f64 * width,
                count: 0,
            })
            .collect();
        for &s in &self.samples {
            let idx = (((s - min) / width).floor() as i64).clamp(0, n as i64 - 1) as usize;
            buckets[idx].count += 1;
        }
        buckets
    }
}

impl Extend<f64> for Series {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        self.samples.extend(iter);
    }
}

impl FromIterator<f64> for Series {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Series {
            samples: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} std={:.3} min={:.3} p50={:.3} p95={:.3} p99={:.3} max={:.3}",
            self.count,
            self.mean,
            self.std_dev,
            self.min,
            self.median,
            self.p95,
            self.p99,
            self.max
        )
    }
}

/// Handle to a registered counter (a plain index — `Copy`, no lookup on
/// the hot path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Log-scale histogram: geometric buckets spanning `1e-6 … 1e10` with
/// four buckets per decade, plus exact count/sum/min/max so means are
/// not quantized. Built for latencies in seconds (1 µs resolution floor)
/// but unit-agnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Buckets per decade of the log-scale histogram.
const BUCKETS_PER_DECADE: f64 = 4.0;
/// Lower edge of the first log bucket.
const LOG_LO: f64 = 1e-6;
/// Number of decades covered.
const LOG_DECADES: usize = 16;
/// Total bucket count.
const LOG_BUCKETS: usize = LOG_DECADES * BUCKETS_PER_DECADE as usize;

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; LOG_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_index(value: f64) -> usize {
        if value <= LOG_LO {
            return 0;
        }
        let idx = ((value / LOG_LO).log10() * BUCKETS_PER_DECADE).floor() as i64;
        idx.clamp(0, LOG_BUCKETS as i64 - 1) as usize
    }

    /// Lower edge of bucket `i`.
    fn bucket_lo(i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            LOG_LO * 10f64.powf(i as f64 / BUCKETS_PER_DECADE)
        }
    }

    /// Upper edge of bucket `i`.
    fn bucket_hi(i: usize) -> f64 {
        LOG_LO * 10f64.powf((i + 1) as f64 / BUCKETS_PER_DECADE)
    }

    /// Records one observation. Non-finite values are dropped; values at
    /// or below the histogram floor land in the first bucket.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.counts[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Approximate quantile from bucket boundaries: the geometric midpoint
    /// of the bucket holding the `q`-th observation, clamped to the exact
    /// min/max. Accurate to bucket resolution (~78 % width).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.count as f64 - 1.0)).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen > rank {
                let lo = Self::bucket_lo(i).max(self.min);
                let hi = Self::bucket_hi(i).min(self.max);
                let mid = if lo > 0.0 { (lo * hi).sqrt() } else { hi / 2.0 };
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Non-empty buckets as `(lo, hi, count)` rows.
    pub fn buckets(&self) -> Vec<Bucket> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Bucket {
                lo: Self::bucket_lo(i),
                hi: Self::bucket_hi(i),
                count: c as usize,
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy)]
enum Slot {
    Counter(usize),
    Gauge(usize),
    Histogram(usize),
}

/// A registry of named metrics.
///
/// Register by name once (idempotent; returns the same handle), then
/// update through the handle on hot paths. Names are conventionally
/// dot-separated with a `_total` suffix for counters, e.g.
/// `world.exchanges_completed_total`.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, LogHistogram)>,
    index: BTreeMap<String, Slot>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or finds) a counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&mut self, name: &str) -> CounterId {
        match self.index.get(name) {
            Some(Slot::Counter(i)) => CounterId(*i),
            Some(_) => panic!("metric {name} already registered with another kind"),
            None => {
                let i = self.counters.len();
                self.counters.push((name.to_string(), 0));
                self.index.insert(name.to_string(), Slot::Counter(i));
                CounterId(i)
            }
        }
    }

    /// Registers (or finds) a gauge.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        match self.index.get(name) {
            Some(Slot::Gauge(i)) => GaugeId(*i),
            Some(_) => panic!("metric {name} already registered with another kind"),
            None => {
                let i = self.gauges.len();
                self.gauges.push((name.to_string(), 0.0));
                self.index.insert(name.to_string(), Slot::Gauge(i));
                GaugeId(i)
            }
        }
    }

    /// Registers (or finds) a log-scale histogram.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        match self.index.get(name) {
            Some(Slot::Histogram(i)) => HistogramId(*i),
            Some(_) => panic!("metric {name} already registered with another kind"),
            None => {
                let i = self.histograms.len();
                self.histograms
                    .push((name.to_string(), LogHistogram::new()));
                self.index.insert(name.to_string(), Slot::Histogram(i));
                HistogramId(i)
            }
        }
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0].1 += 1;
    }

    /// Adds to a counter.
    pub fn add(&mut self, id: CounterId, by: u64) {
        self.counters[id.0].1 += by;
    }

    /// Current counter value.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Registers `name` if needed and sets it to `value` — for end-of-run
    /// aggregation of statistics tracked elsewhere (daemon, chain,
    /// mempool, network).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        let id = self.counter(name);
        self.counters[id.0].1 = value;
    }

    /// Sets a gauge.
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].1 = value;
    }

    /// Registers `name` if needed and sets the gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        let id = self.gauge(name);
        self.gauges[id.0].1 = value;
    }

    /// Records a histogram observation.
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        self.histograms[id.0].1.observe(value);
    }

    /// Freezes the registry into sorted rows.
    pub fn snapshot(&self) -> Snapshot {
        let mut counters: Vec<(String, u64)> = self.counters.clone();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut gauges: Vec<(String, f64)> = self.gauges.clone();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<(String, HistogramSummary)> = self
            .histograms
            .iter()
            .map(|(name, h)| (name.clone(), HistogramSummary::of(h)))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A value a stats struct can hold: how two of them add, and which
/// registry call publishes one. Implemented for `u64` and `AtomicU64`
/// (counter rows), `f64` and [`SimDuration`] (gauge rows, the latter in
/// seconds), and — by [`counters!`](crate::counters) — for every
/// declared stats struct, so one table can nest another.
pub trait Metric {
    /// Adds `other` into `self`.
    fn merge(&mut self, other: &Self);
    /// Publishes the value as row `row` (a nested table ignores `row`
    /// and publishes every row it declares).
    fn export(&self, reg: &mut Registry, row: &str);
    /// Publishes the value as `row{key="value"}` (a nested table: only
    /// the rows it declares `labeled`).
    fn export_labeled(&self, reg: &mut Registry, row: &str, key: &str, value: &dyn fmt::Display) {
        self.export(reg, &labeled(row, key, value));
    }
}

impl Metric for u64 {
    fn merge(&mut self, other: &u64) {
        *self += *other;
    }
    fn export(&self, reg: &mut Registry, row: &str) {
        reg.set_counter(row, *self);
    }
}

impl Metric for AtomicU64 {
    fn merge(&mut self, other: &AtomicU64) {
        *self.get_mut() += other.load(Ordering::Relaxed);
    }
    fn export(&self, reg: &mut Registry, row: &str) {
        reg.set_counter(row, self.load(Ordering::Relaxed));
    }
}

impl Metric for f64 {
    fn merge(&mut self, other: &f64) {
        *self += *other;
    }
    fn export(&self, reg: &mut Registry, row: &str) {
        reg.set_gauge(row, *self);
    }
}

impl Metric for SimDuration {
    fn merge(&mut self, other: &SimDuration) {
        *self += *other;
    }
    fn export(&self, reg: &mut Registry, row: &str) {
        reg.set_gauge(row, self.as_secs_f64());
    }
}

/// Declares a stats struct and its registry rows in one table: each
/// field states its doc line, its type (any [`Metric`]) and the row it
/// is exported as, once, beside the struct that counts it.
///
/// The struct is emitted as written (attributes, visibility, fields),
/// plus `merge(&mut self, &Self)` — field-wise sum in declaration order
/// — `export(&self, &mut Registry)` and `export_labeled(&self, &mut
/// Registry, key, value)`, which publishes only the rows marked
/// `labeled`, as `row{key="value"}` (the per-host rows of small fleets).
/// A field whose type is itself a `counters!` struct nests that table;
/// its row literal is then only a caption.
///
/// ```
/// use bcwan_sim::{counters, Registry};
///
/// counters! {
///     /// What one door counted.
///     #[derive(Debug, Default, Clone, Copy)]
///     pub struct DoorStats {
///         /// People let in.
///         pub entered: u64 => labeled "door.entered_total",
///         /// Seconds the door stood open.
///         pub open_s: f64 => "door.open_seconds",
///     }
/// }
///
/// let mut all = DoorStats::default();
/// let mut reg = Registry::new();
/// for (i, door) in [DoorStats { entered: 2, open_s: 0.5 }; 3].iter().enumerate() {
///     all.merge(door);
///     door.export_labeled(&mut reg, "door", i);
/// }
/// all.export(&mut reg);
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("door.entered_total"), Some(6));
/// assert_eq!(snap.counter("door.entered_total{door=\"2\"}"), Some(2));
/// assert_eq!(snap.gauges, vec![("door.open_seconds".to_string(), 1.5)]);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $ty:ty => $($labeled:ident)? $row:literal
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
        }

        impl $name {
            /// Adds `other` into `self`, field by field in declaration order.
            pub fn merge(&mut self, other: &Self) {
                $( $crate::metrics::Metric::merge(&mut self.$field, &other.$field); )*
            }

            /// Publishes every declared row into `reg`.
            pub fn export(&self, reg: &mut $crate::metrics::Registry) {
                $( $crate::metrics::Metric::export(&self.$field, reg, $row); )*
            }

            /// Publishes the rows declared `labeled` as `row{key="value"}`.
            #[allow(unused_variables)]
            pub fn export_labeled(
                &self,
                reg: &mut $crate::metrics::Registry,
                key: &str,
                value: impl ::std::fmt::Display,
            ) {
                $($(
                    $crate::counters!(@marker $labeled);
                    $crate::metrics::Metric::export_labeled(&self.$field, reg, $row, key, &value);
                )?)*
            }
        }

        impl $crate::metrics::Metric for $name {
            fn merge(&mut self, other: &Self) {
                $name::merge(self, other);
            }
            fn export(&self, reg: &mut $crate::metrics::Registry, _caption: &str) {
                $name::export(self, reg);
            }
            fn export_labeled(
                &self,
                reg: &mut $crate::metrics::Registry,
                _caption: &str,
                key: &str,
                value: &dyn ::std::fmt::Display,
            ) {
                $name::export_labeled(self, reg, key, value);
            }
        }
    };
    (@marker labeled) => {};
}

/// Frozen view of one [`LogHistogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Approximate median.
    pub p50: f64,
    /// Approximate 95th percentile.
    pub p95: f64,
    /// Approximate 99th percentile.
    pub p99: f64,
    /// Non-empty buckets `(lo, hi, count)`.
    pub buckets: Vec<(f64, f64, u64)>,
}

impl HistogramSummary {
    fn of(h: &LogHistogram) -> Self {
        HistogramSummary {
            count: h.count(),
            sum: h.sum(),
            min: if h.count() > 0 { h.min } else { 0.0 },
            max: if h.count() > 0 { h.max } else { 0.0 },
            p50: h.quantile(0.50).unwrap_or(0.0),
            p95: h.quantile(0.95).unwrap_or(0.0),
            p99: h.quantile(0.99).unwrap_or(0.0),
            buckets: h
                .buckets()
                .into_iter()
                .map(|b| (b.lo, b.hi, b.count as u64))
                .collect(),
        }
    }
}

/// A frozen, sorted view of a [`Registry`] — the unit of exchange between
/// an experiment run and the bench JSON emitter.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter rows, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge rows, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram rows, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl Snapshot {
    /// Serializes to the JSON shape embedded in bench reports:
    ///
    /// ```json
    /// {
    ///   "counters": {"name": 1},
    ///   "gauges": {"name": 0.5},
    ///   "histograms": {"name": {"count": …, "sum": …, "min": …, "max": …,
    ///                            "p50": …, "p95": …, "p99": …,
    ///                            "buckets": [[lo, hi, count], …]}}
    /// }
    /// ```
    pub fn to_json(&self) -> Json {
        let counters = Json::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::uint(*v)))
                .collect(),
        );
        let gauges = Json::Object(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        );
        let histograms = Json::Object(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    let buckets = Json::Array(
                        h.buckets
                            .iter()
                            .map(|&(lo, hi, c)| {
                                Json::Array(vec![Json::Num(lo), Json::Num(hi), Json::uint(c)])
                            })
                            .collect(),
                    );
                    let obj = Json::object()
                        .with("count", Json::uint(h.count))
                        .with("sum", Json::Num(h.sum))
                        .with("min", Json::Num(h.min))
                        .with("max", Json::Num(h.max))
                        .with("p50", Json::Num(h.p50))
                        .with("p95", Json::Num(h.p95))
                        .with("p99", Json::Num(h.p99))
                        .with("buckets", buckets);
                    (k.clone(), obj)
                })
                .collect(),
        );
        Json::object()
            .with("counters", counters)
            .with("gauges", gauges)
            .with("histograms", histograms)
    }

    /// Looks up a counter row by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// A time series of [`Snapshot`]s sampled on a fixed sim-time interval —
/// the export mode that turns end-of-run totals into a timeline (e.g.
/// cache hit rate *during* a partition vs after it heals).
///
/// Drive it from any periodic hook with [`maybe_sample`]; sampling is
/// edge-triggered (at most one frame per call), so a hook that fires
/// more often than `every` samples on the interval and a hook that
/// fires less often degrades to the hook's own cadence.
///
/// [`maybe_sample`]: SnapshotSeries::maybe_sample
#[derive(Debug, Clone, Default)]
pub struct SnapshotSeries {
    every: SimDuration,
    next: Option<SimTime>,
    frames: Vec<(SimTime, Snapshot)>,
}

impl SnapshotSeries {
    /// A series sampling every `every` of sim time. The first
    /// `maybe_sample` call always records a frame.
    pub fn new(every: SimDuration) -> Self {
        SnapshotSeries {
            every,
            next: None,
            frames: Vec::new(),
        }
    }

    /// Whether a frame is due at `now` (always, before the first one).
    pub fn due(&self, now: SimTime) -> bool {
        self.next.is_none_or(|next| now >= next)
    }

    /// Records a frame now, due or not — e.g. the closing frame of a run.
    pub fn sample(&mut self, now: SimTime, reg: &Registry) {
        self.frames.push((now, reg.snapshot()));
        self.next = Some(now + self.every);
    }

    /// Records a frame if one is due; returns whether it sampled.
    pub fn maybe_sample(&mut self, now: SimTime, reg: &Registry) -> bool {
        let due = self.due(now);
        if due {
            self.sample(now, reg);
        }
        due
    }

    /// The recorded `(time, snapshot)` frames, oldest first.
    pub fn frames(&self) -> &[(SimTime, Snapshot)] {
        &self.frames
    }

    /// Number of frames recorded.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether nothing was sampled.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Serializes as `{"interval_seconds": …, "frames": [{"t": seconds,
    /// "counters": …, "gauges": …, "histograms": …}, …]}` — each frame
    /// is a full [`Snapshot::to_json`] document plus its timestamp.
    pub fn to_json(&self) -> Json {
        let frames = Json::Array(
            self.frames
                .iter()
                .map(|(t, snap)| {
                    let secs = t.saturating_duration_since(SimTime::ZERO).as_secs_f64();
                    let Json::Object(mut fields) = snap.to_json() else {
                        unreachable!("Snapshot::to_json returns an object");
                    };
                    fields.insert(0, ("t".to_string(), Json::Num(secs)));
                    Json::Object(fields)
                })
                .collect(),
        );
        Json::object()
            .with("interval_seconds", Json::Num(self.every.as_secs_f64()))
            .with("frames", frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_series_has_no_summary() {
        assert!(Series::new().summary().is_none());
        assert!(Series::new().is_empty());
    }

    #[test]
    fn labeled_round_trips_through_split() {
        let name = labeled("store.flush_total", "host", 42);
        assert_eq!(name, "store.flush_total{host=\"42\"}");
        assert_eq!(
            split_label(&name),
            ("store.flush_total", Some(("host", "42")))
        );
        assert_eq!(split_label("plain_total"), ("plain_total", None));
        assert_eq!(split_label("odd{shape"), ("odd{shape", None));
    }

    #[test]
    fn labeled_counters_group_in_snapshots() {
        let mut reg = Registry::new();
        for host in 0..3u32 {
            let id = reg.counter(&labeled("store.flush_total", "host", host));
            reg.add(id, u64::from(host) + 1);
        }
        reg.set_counter("store.flush_total", 6); // the unlabeled sum
        let snap = reg.snapshot();
        for host in 0..3u32 {
            let row = labeled("store.flush_total", "host", host);
            assert_eq!(snap.counter(&row), Some(u64::from(host) + 1));
        }
        assert_eq!(snap.counter("store.flush_total"), Some(6));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn snapshot_series_samples_on_interval() {
        let mut reg = Registry::new();
        let c = reg.counter("ticks_total");
        let mut series = SnapshotSeries::new(SimDuration::from_secs(10));
        let t0 = SimTime::ZERO;
        assert!(series.maybe_sample(t0, &reg), "first call always samples");
        reg.inc(c);
        assert!(
            !series.maybe_sample(t0 + SimDuration::from_secs(5), &reg),
            "not due yet"
        );
        assert!(series.maybe_sample(t0 + SimDuration::from_secs(10), &reg));
        reg.inc(c);
        assert!(series.maybe_sample(t0 + SimDuration::from_secs(25), &reg));
        assert_eq!(series.len(), 3);
        let counts: Vec<u64> = series
            .frames()
            .iter()
            .map(|(_, s)| s.counter("ticks_total").unwrap())
            .collect();
        assert_eq!(counts, vec![0, 1, 2], "frames freeze point-in-time values");
        let json = series.to_json();
        let frames = json.get("frames").unwrap().as_array().unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[1].get("t").unwrap().as_f64(), Some(10.0));
        // Each frame is a full snapshot document, plus its timestamp.
        let last = frames.last().unwrap();
        let ticks = last.get("counters").and_then(|c| c.get("ticks_total"));
        assert_eq!(ticks.and_then(Json::as_f64), Some(2.0));
        assert!(last.get("gauges").is_some() && last.get("histograms").is_some());
    }

    #[test]
    fn summary_of_known_values() {
        let s: Series = (1..=5).map(|x| x as f64).collect();
        let sum = s.summary().unwrap();
        assert_eq!(sum.count, 5);
        assert!((sum.mean - 3.0).abs() < 1e-12);
        assert_eq!(sum.min, 1.0);
        assert_eq!(sum.max, 5.0);
        assert_eq!(sum.median, 3.0);
        // Sample std of 1..5 = sqrt(2.5)
        assert!((sum.std_dev - 2.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_sample_summary() {
        let mut s = Series::new();
        s.record(7.0);
        let sum = s.summary().unwrap();
        assert_eq!(sum.std_dev, 0.0);
        assert_eq!(sum.median, 7.0);
        assert_eq!(sum.p99, 7.0);
    }

    #[test]
    fn histogram_counts_sum_to_len() {
        let s: Series = (0..100).map(|x| x as f64 / 10.0).collect();
        let h = s.histogram(0.0, 10.0, 5);
        assert_eq!(h.len(), 5);
        assert_eq!(h.iter().map(|b| b.count).sum::<usize>(), 100);
        assert_eq!(h[0].count, 20);
    }

    #[test]
    fn histogram_clamps_outliers() {
        let mut s = Series::new();
        s.record(-100.0);
        s.record(0.25);
        s.record(1e9);
        let h = s.histogram(0.0, 1.0, 2);
        assert_eq!(h[0].count, 2); // -100 clamps into first bucket, 0.25 lands there
        assert_eq!(h[1].count, 1); // 1e9 clamps into last
    }

    #[test]
    fn display_summary() {
        let s: Series = vec![1.0, 2.0].into_iter().collect();
        let text = s.summary().unwrap().to_string();
        assert!(text.contains("n=2"));
        assert!(text.contains("mean=1.500"));
    }

    #[test]
    fn percentile_interpolates_linearly() {
        // R-7: p95 of [10, 20, 30, 40] has rank 3·0.95 = 2.85 →
        // 30 + 0.85·(40-30) = 38.5.
        let s: Series = vec![10.0, 20.0, 30.0, 40.0].into_iter().collect();
        let sum = s.summary().unwrap();
        assert!((sum.p95 - 38.5).abs() < 1e-12);
        assert!((sum.median - 25.0).abs() < 1e-12);
    }

    #[test]
    fn registry_handles_are_idempotent() {
        let mut reg = Registry::new();
        let a = reg.counter("a_total");
        let a2 = reg.counter("a_total");
        assert_eq!(a, a2);
        reg.inc(a);
        reg.add(a2, 4);
        assert_eq!(reg.counter_value(a), 5);

        let g = reg.gauge("g");
        reg.set(g, 1.5);
        let h = reg.histogram("h_seconds");
        reg.observe(h, 0.25);
        assert_eq!(reg.snapshot().histograms[0].1.count, 1);
    }

    #[test]
    #[should_panic(expected = "another kind")]
    fn registry_rejects_kind_collision() {
        let mut reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn log_histogram_stats() {
        let mut h = LogHistogram::new();
        assert!(h.mean().is_none());
        assert!(h.quantile(0.5).is_none());
        for v in [0.001, 0.01, 0.1, 1.0, 10.0] {
            h.observe(v);
        }
        h.observe(f64::NAN); // dropped
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 11.111).abs() < 1e-9);
        let p50 = h.quantile(0.5).unwrap();
        // Median observation is 0.1; bucket resolution allows ~78 % error.
        assert!((0.05..0.2).contains(&p50), "p50 = {p50}");
        assert_eq!(h.quantile(1.0).unwrap(), 10.0);
        assert_eq!(h.buckets().iter().map(|b| b.count).sum::<usize>(), 5);
    }

    #[test]
    fn snapshot_rows_are_sorted() {
        let mut reg = Registry::new();
        reg.counter("zeta_total");
        reg.counter("alpha_total");
        reg.set_gauge("mid", 2.0);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha_total", "zeta_total"]);
        assert_eq!(snap.gauges, vec![("mid".to_string(), 2.0)]);
    }

    #[test]
    fn snapshot_json_carries_every_row() {
        let mut reg = Registry::new();
        let c = reg.counter("world.exchanges_completed_total");
        reg.add(c, 17);
        reg.set_gauge("world.sim_time_seconds", 123.456);
        let h = reg.histogram("world.exchange_latency_seconds");
        for v in [0.5, 1.5, 2.5, 30.0] {
            reg.observe(h, v);
        }
        // Also an empty histogram: min/max must come out as zeros.
        reg.histogram("world.empty_seconds");

        let snap = reg.snapshot();
        let doc = snap.to_json();
        let row = |section: &str, name: &str| doc.get(section)?.get(name);
        let value = |section: &str, name: &str| row(section, name).and_then(Json::as_f64);
        assert_eq!(
            value("counters", "world.exchanges_completed_total"),
            Some(17.0)
        );
        assert_eq!(value("gauges", "world.sim_time_seconds"), Some(123.456));
        let (_, latency) = snap
            .histograms
            .iter()
            .find(|(name, _)| name == "world.exchange_latency_seconds")
            .expect("latency histogram");
        let field = |name: &str| {
            row("histograms", "world.exchange_latency_seconds")
                .and_then(|h| h.get(name))
                .and_then(Json::as_f64)
        };
        assert_eq!(field("count"), Some(4.0));
        assert_eq!(field("sum"), Some(34.5));
        assert_eq!(field("p95"), Some(latency.p95));
        let buckets = row("histograms", "world.exchange_latency_seconds")
            .and_then(|h| h.get("buckets"))
            .and_then(Json::as_array)
            .expect("bucket rows");
        assert_eq!(buckets.len(), latency.buckets.len());
        for (rendered, &(lo, hi, count)) in buckets.iter().zip(&latency.buckets) {
            let want = [lo, hi, count as f64].map(Json::Num);
            assert_eq!(rendered.as_array(), Some(want.as_slice()));
        }
        let empty = row("histograms", "world.empty_seconds").expect("empty histogram row");
        for name in ["count", "min", "max"] {
            assert_eq!(empty.get(name).and_then(Json::as_f64), Some(0.0), "{name}");
        }
    }
}
