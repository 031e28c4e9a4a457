//! # bcwan-bench
//!
//! Figure-reproduction harnesses and micro-benchmarks for the BcWAN
//! paper. Each `--bin` target regenerates one artefact of the evaluation
//! (see DESIGN.md's experiment index):
//!
//! | binary | paper artefact |
//! |---|---|
//! | `fig5_latency` | Fig. 5 — exchange latency, verification off |
//! | `fig6_latency` | Fig. 6 — exchange latency, verification on |
//! | `lora_capacity` | §5.2's "183 messages per sensor per hour" (T-SF) |
//! | `ablation_confirmations` | §6 double-spend vs confirmation depth (A1) |
//! | `ablation_keysize` | §6 RSA size vs LoRa airtime (A2) |
//! | `baseline_reputation` | §4.4 reputation-only baseline (A3) |
//! | `ablation_consensus` | §6 PoW vs PoS (A4) |
//! | `ablation_colocation` | §6 co-located gateways vs WAN latency (A5) |
//! | `chain_throughput` | §5.2 Multichain "1000 tx/s" context (T-TP) |
//! | `node_energy` | E1 — node energy budget and channel contention |
//!
//! Every binary prints a human-readable table and, with `--json PATH`,
//! writes one [`BenchReport`] — the schema-versioned machine-readable
//! document described in EXPERIMENTS.md ("Reading the metrics").

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use bcwan_sim::{Bucket, Json, Registry, Series, Snapshot, SnapshotSeries, Summary};

/// Version stamp every bench JSON document carries as `schema_version`.
///
/// Bump when the shape of [`BenchReport::to_json`] changes incompatibly
/// (renamed keys, moved sections). Adding new keys is not a bump.
///
/// History: v2 added the optional `timeline` section (periodic metric
/// snapshots over sim time); v1 documents carry everything else and
/// remain comparable, so [`bench_compare`] accepts any version in
/// `[`[`MIN_SCHEMA_VERSION`]`, `[`SCHEMA_VERSION`]`]`.
pub const SCHEMA_VERSION: u64 = 2;

/// Oldest document version [`bench_compare`] still accepts. Baselines
/// recorded before the `timeline` section exist at v1 and stay valid:
/// every section the comparison reads is unchanged since then.
pub const MIN_SCHEMA_VERSION: u64 = 1;

/// The one machine-readable document shape all bench binaries emit.
///
/// ```json
/// {
///   "schema_version": 2,
///   "experiment": "fig5_latency",
///   "config": { "target_exchanges": 2000, ... },
///   "rows": [ ... experiment-specific rows ... ],
///   "metrics": { "counters": {...}, "gauges": {...}, "histograms": {...} },
///   "phases": { "request_uplink": { "count": ..., "mean_s": ..., ... }, ... },
///   "timeline": { "interval_seconds": ..., "frames": [ { "t": ..., ... } ] }
/// }
/// ```
///
/// `rows` carries the experiment's own table (whatever the figure plots);
/// `metrics` is a [`Registry`] snapshot — for world-driven experiments the
/// full `world.*`/`chain.*`/`net.*` instrumentation, for analytic ones a
/// small registry of run counters; `phases` summarizes the sim-time spans
/// when the run traced them (empty object otherwise).
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Binary name, e.g. `"fig5_latency"`.
    pub experiment: String,
    /// Run configuration, as an ordered JSON object.
    pub config: Json,
    /// Experiment-specific result rows.
    pub rows: Json,
    /// Metrics registry snapshot.
    pub metrics: Snapshot,
    /// Phase-latency summaries, `(phase name, summary)` per traced span.
    pub phases: Vec<(String, Summary)>,
    /// Periodic metric snapshots over sim time (schema v2). `None` — the
    /// run recorded no timeline — omits the `timeline` key entirely.
    pub timeline: Option<SnapshotSeries>,
}

impl BenchReport {
    /// Starts a report with an empty config, no rows, and empty metrics.
    pub fn new(experiment: &str) -> Self {
        BenchReport {
            experiment: experiment.to_string(),
            config: Json::object(),
            rows: Json::Array(Vec::new()),
            metrics: Registry::new().snapshot(),
            phases: Vec::new(),
            timeline: None,
        }
    }

    /// Appends one config key.
    #[must_use]
    pub fn config(mut self, key: &str, value: Json) -> Self {
        self.config = self.config.with(key, value);
        self
    }

    /// Sets the experiment rows.
    #[must_use]
    pub fn rows(mut self, rows: Json) -> Self {
        self.rows = rows;
        self
    }

    /// Attaches a registry snapshot.
    #[must_use]
    pub fn metrics(mut self, snapshot: Snapshot) -> Self {
        self.metrics = snapshot;
        self
    }

    /// Attaches phase series (as produced by a traced `World::run`),
    /// keeping each phase that has at least one sample.
    #[must_use]
    pub fn phases(mut self, phases: &[(String, Series)]) -> Self {
        self.phases = phases
            .iter()
            .filter_map(|(name, series)| series.summary().map(|s| (name.clone(), s)))
            .collect();
        self
    }

    /// Attaches the run's periodic metric timeline (schema v2 section;
    /// see EXPERIMENTS.md, "Reading the metrics"). Empty series are
    /// dropped so an unused `--timeline` flag doesn't emit `[]`.
    #[must_use]
    pub fn timeline(mut self, series: Option<SnapshotSeries>) -> Self {
        self.timeline = series.filter(|s| !s.is_empty());
        self
    }

    /// Renders the schema-versioned document.
    pub fn to_json(&self) -> Json {
        let phases = Json::Object(
            self.phases
                .iter()
                .map(|(name, s)| (name.clone(), summary_json(s)))
                .collect(),
        );
        let mut doc = Json::object()
            .with("schema_version", Json::uint(SCHEMA_VERSION))
            .with("experiment", Json::str(&self.experiment))
            .with("config", self.config.clone())
            .with("rows", self.rows.clone())
            .with("metrics", self.metrics.to_json())
            .with("phases", phases);
        if let Some(timeline) = &self.timeline {
            doc = doc.with("timeline", timeline.to_json());
        }
        doc
    }

    /// Writes the pretty-rendered document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O failure.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().render_pretty())
    }

    /// Prints the phase table (no-op when the run was untraced).
    pub fn print_phases(&self) {
        if self.phases.is_empty() {
            return;
        }
        println!("phase                 count    mean(s)     p50(s)     p95(s)");
        for (name, s) in &self.phases {
            println!(
                "{name:20} {:>6}  {:>9.4}  {:>9.4}  {:>9.4}",
                s.count, s.mean, s.median, s.p95
            );
        }
    }
}

/// Renders a [`Summary`] as the JSON object used in `phases`.
pub fn summary_json(s: &Summary) -> Json {
    Json::object()
        .with("count", Json::size(s.count))
        .with("mean_s", Json::num(s.mean))
        .with("std_s", Json::num(s.std_dev))
        .with("min_s", Json::num(s.min))
        .with("p50_s", Json::num(s.median))
        .with("p95_s", Json::num(s.p95))
        .with("p99_s", Json::num(s.p99))
        .with("max_s", Json::num(s.max))
}

/// One experiment's latency distribution, ready for rendering.
#[derive(Debug, Clone)]
pub struct LatencyReport {
    /// Which figure/config this is.
    pub label: String,
    /// The paper's reported mean for comparison (seconds).
    pub paper_mean_s: Option<f64>,
    /// Completed exchanges.
    pub completed: usize,
    /// Failed exchanges.
    pub failed: usize,
    /// Measured mean (s).
    pub mean_s: f64,
    /// Standard deviation (s).
    pub std_s: f64,
    /// Minimum (s).
    pub min_s: f64,
    /// Median (s).
    pub p50_s: f64,
    /// 95th percentile (s).
    pub p95_s: f64,
    /// 99th percentile (s).
    pub p99_s: f64,
    /// Maximum (s).
    pub max_s: f64,
    /// Histogram rows `(lo, hi, count)` matching the figure's x-axis.
    pub histogram: Vec<(f64, f64, usize)>,
    /// Simulated seconds consumed.
    pub sim_time_s: f64,
    /// Blocks mined during the run.
    pub blocks_mined: u64,
    /// Verification stalls observed.
    pub stalls: u64,
}

impl LatencyReport {
    /// Builds a report from a latency series plus run counters.
    #[allow(clippy::too_many_arguments)] // flat experiment-counter list
    pub fn from_series(
        label: &str,
        paper_mean_s: Option<f64>,
        series: &Series,
        completed: usize,
        failed: usize,
        sim_time_s: f64,
        blocks_mined: u64,
        stalls: u64,
        hist_max_s: f64,
        buckets: usize,
    ) -> Option<Self> {
        let summary = series.summary()?;
        let histogram = series
            .histogram(0.0, hist_max_s, buckets)
            .into_iter()
            .map(|Bucket { lo, hi, count }| (lo, hi, count))
            .collect();
        Some(LatencyReport {
            label: label.to_string(),
            paper_mean_s,
            completed,
            failed,
            mean_s: summary.mean,
            std_s: summary.std_dev,
            min_s: summary.min,
            p50_s: summary.median,
            p95_s: summary.p95,
            p99_s: summary.p99,
            max_s: summary.max,
            histogram,
            sim_time_s,
            blocks_mined,
            stalls,
        })
    }

    /// Prints the report as the text figure: summary line plus an ASCII
    /// histogram shaped like the paper's latency plots.
    pub fn print(&self) {
        println!("== {} ==", self.label);
        match self.paper_mean_s {
            Some(p) => println!(
                "paper mean {:.3}s | measured mean {:.3}s (std {:.3}, n={})",
                p, self.mean_s, self.std_s, self.completed
            ),
            None => println!(
                "measured mean {:.3}s (std {:.3}, n={})",
                self.mean_s, self.std_s, self.completed
            ),
        }
        println!(
            "min {:.3}  p50 {:.3}  p95 {:.3}  p99 {:.3}  max {:.3}  (failed {})",
            self.min_s, self.p50_s, self.p95_s, self.p99_s, self.max_s, self.failed
        );
        println!(
            "sim time {:.1}s, {} blocks, {} stalls",
            self.sim_time_s, self.blocks_mined, self.stalls
        );
        let peak = self
            .histogram
            .iter()
            .map(|&(_, _, c)| c)
            .max()
            .unwrap_or(1)
            .max(1);
        for &(lo, hi, count) in &self.histogram {
            let bar = "#".repeat(count * 50 / peak);
            println!("{lo:7.2}–{hi:<7.2} {count:6} {bar}");
        }
    }

    /// Renders the report as one JSON object (a `rows` entry).
    pub fn to_json(&self) -> Json {
        let histogram = Json::Array(
            self.histogram
                .iter()
                .map(|&(lo, hi, count)| {
                    Json::Array(vec![Json::num(lo), Json::num(hi), Json::size(count)])
                })
                .collect(),
        );
        Json::object()
            .with("label", Json::str(&self.label))
            .with(
                "paper_mean_s",
                self.paper_mean_s.map(Json::num).unwrap_or(Json::Null),
            )
            .with("completed", Json::size(self.completed))
            .with("failed", Json::size(self.failed))
            .with("mean_s", Json::num(self.mean_s))
            .with("std_s", Json::num(self.std_s))
            .with("min_s", Json::num(self.min_s))
            .with("p50_s", Json::num(self.p50_s))
            .with("p95_s", Json::num(self.p95_s))
            .with("p99_s", Json::num(self.p99_s))
            .with("max_s", Json::num(self.max_s))
            .with("histogram", histogram)
            .with("sim_time_s", Json::num(self.sim_time_s))
            .with("blocks_mined", Json::uint(self.blocks_mined))
            .with("stalls", Json::uint(self.stalls))
    }
}

/// Per-iteration timing statistics from one [`bench_fn_stats`] run.
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Mean seconds per iteration.
    pub mean_s: f64,
    /// Median seconds per iteration.
    pub median_s: f64,
    /// 95th-percentile seconds per iteration.
    pub p95_s: f64,
    /// Iterations timed.
    pub iters: u32,
    /// Iterations flagged as outliers: more than `3 · 1.4826 · MAD` from
    /// the median (the scaled-MAD rule; 1.4826 makes MAD consistent with
    /// σ under normality). A noisy machine shows up here instead of
    /// silently skewing the mean.
    pub outliers: usize,
    /// Lower bound of the 95% bootstrap confidence interval for the mean
    /// (percentile method over [`BOOTSTRAP_RESAMPLES`] resamples).
    pub ci95_lo_s: f64,
    /// Upper bound of the 95% bootstrap confidence interval for the mean.
    pub ci95_hi_s: f64,
}

/// Resamples drawn by [`bootstrap_ci_mean`] inside [`bench_fn_stats`].
pub const BOOTSTRAP_RESAMPLES: usize = 200;

impl BenchStats {
    /// Whether the mean is trustworthy: no outlier among the samples and
    /// the mean within 20 % of the median.
    pub fn is_stable(&self) -> bool {
        self.outliers == 0 && (self.mean_s - self.median_s).abs() <= 0.2 * self.median_s.max(1e-12)
    }
}

/// 95% bootstrap confidence interval for the mean of `samples`
/// (percentile method): draw `resamples` same-size resamples with
/// replacement, take each resample's mean, and return the 2.5th and
/// 97.5th percentiles of those means. The resampler is a seeded
/// xorshift64, so reruns over the same samples return the same interval.
/// Degenerate inputs (empty, single sample, or `resamples == 0`)
/// collapse to `(mean, mean)`.
pub fn bootstrap_ci_mean(samples: &[f64], resamples: usize, seed: u64) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    if n == 1 || resamples == 0 {
        return (mean, mean);
    }
    let mut state = seed.max(1);
    let mut means = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let mut sum = 0.0;
        for _ in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            sum += samples[(state % n as u64) as usize];
        }
        means.push(sum / n as f64);
    }
    means.sort_by(|a, b| a.total_cmp(b));
    (percentile(&means, 0.025), percentile(&means, 0.975))
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Times `f` per-iteration over `iters` iterations (after
/// `max(iters/10, 1)` warm-up calls) and returns the full [`BenchStats`]:
/// mean, median, p95, and MAD-based outlier count. The plain-`main`
/// replacement for the Criterion harness the offline build cannot fetch
/// (see ROADMAP "Open items").
pub fn bench_fn_stats<R>(iters: u32, mut f: impl FnMut() -> R) -> BenchStats {
    let iters = iters.max(1);
    for _ in 0..(iters / 10).max(1) {
        std::hint::black_box(f());
    }
    let mut samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t0 = std::time::Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed().as_secs_f64());
    }
    let mean_s = samples.iter().sum::<f64>() / f64::from(iters);
    let mut sorted = samples.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let median_s = percentile(&sorted, 0.5);
    let p95_s = percentile(&sorted, 0.95);
    let outliers = mad_outlier_flags(&samples)
        .into_iter()
        .filter(|flagged| *flagged)
        .count();
    let (ci95_lo_s, ci95_hi_s) =
        bootstrap_ci_mean(&samples, BOOTSTRAP_RESAMPLES, 0x9e37_79b9_7f4a_7c15);
    BenchStats {
        mean_s,
        median_s,
        p95_s,
        iters,
        outliers,
        ci95_lo_s,
        ci95_hi_s,
    }
}

/// Times `f` over `iters` iterations, prints one table line
/// (mean with its 95% bootstrap CI, median, p95, plus an outlier flag
/// when the MAD rule fires), and returns the per-iteration mean in
/// seconds.
pub fn bench_fn<R>(name: &str, iters: u32, f: impl FnMut() -> R) -> f64 {
    let stats = bench_fn_stats(iters, f);
    let (scale, unit) = if stats.median_s < 1e-3 {
        (1e6, "µs")
    } else {
        (1e3, "ms")
    };
    let flag = if stats.outliers > 0 {
        format!("  [{} outliers]", stats.outliers)
    } else {
        String::new()
    };
    println!(
        "{name:<48} mean {:>9.2} {unit}  ci95 [{:>8.2}, {:>8.2}] {unit}  p50 {:>9.2} {unit}  p95 {:>9.2} {unit}  ({} iters){flag}",
        stats.mean_s * scale,
        stats.ci95_lo_s * scale,
        stats.ci95_hi_s * scale,
        stats.median_s * scale,
        stats.p95_s * scale,
        stats.iters,
    );
    stats.mean_s
}

/// Per-element scaled-MAD outlier flags (the rule [`bench_fn_stats`]
/// applies to iteration timings): an element is flagged when it lies more
/// than `3 · 1.4826 · MAD` from the median. With degenerate MAD (over half
/// the samples identical) any sample differing from the median is flagged.
pub fn mad_outlier_flags(samples: &[f64]) -> Vec<bool> {
    if samples.is_empty() {
        return Vec::new();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let median = percentile(&sorted, 0.5);
    let mut deviations: Vec<f64> = samples.iter().map(|s| (s - median).abs()).collect();
    deviations.sort_by(|a, b| a.total_cmp(b));
    let mad = percentile(&deviations, 0.5);
    let cutoff = 3.0 * 1.4826 * mad;
    if cutoff > 0.0 {
        samples
            .iter()
            .map(|s| (s - median).abs() > cutoff)
            .collect()
    } else {
        samples.iter().map(|s| *s != median).collect()
    }
}

/// Which way a metric should move to count as an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricDirection {
    /// Throughput-style metric (`*_per_s`, `*throughput*`).
    HigherIsBetter,
    /// Latency-style metric (`*_s`, `*latency*`).
    LowerIsBetter,
    /// Event counts and configuration echoes — compared but never gated on.
    Informational,
}

/// Classifies a metric name by the report's naming conventions. CI-bound
/// gauges (`*_ci95_lo_s`/`*_ci95_hi_s`) describe measurement noise, not
/// performance, so they are never gated on.
pub fn metric_direction(name: &str) -> MetricDirection {
    if name.contains("_ci95_") {
        MetricDirection::Informational
    } else if name.contains("per_s") || name.contains("throughput") {
        MetricDirection::HigherIsBetter
    } else if name.ends_with("_s") || name.contains("latency") {
        MetricDirection::LowerIsBetter
    } else {
        MetricDirection::Informational
    }
}

/// One metric's baseline-vs-current comparison from [`bench_compare`].
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Qualified metric name (`counters.…`, `gauges.…`, `phases.….mean_s`).
    pub name: String,
    /// Value in the baseline report.
    pub baseline: f64,
    /// Value in the current report.
    pub current: f64,
    /// Relative change in percent (positive = current is larger);
    /// `+∞` when the baseline was zero and the current value is not.
    pub delta_pct: f64,
    /// How this metric is judged.
    pub direction: MetricDirection,
    /// Whether the change exceeds the threshold in the bad direction
    /// (and, when both reports carry CI bounds, the intervals separate).
    pub regression: bool,
    /// Both reports carried 95% CI bounds for this metric
    /// (`<stem>_ci95_lo_s`/`_hi_s` gauges) and the intervals overlap:
    /// an over-threshold delta is then measurement noise, and
    /// `regression` stays false.
    pub within_noise: bool,
    /// Scaled-MAD flag over all delta percentages: this metric moved very
    /// differently from the rest of the report (see [`mad_outlier_flags`]).
    pub outlier: bool,
}

/// Extracts every comparable scalar from a bench report document:
/// metrics counters and gauges, plus each phase's `mean_s`.
fn collect_comparables(doc: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for section in ["counters", "gauges"] {
        if let Some(Json::Object(entries)) = doc.get("metrics").and_then(|m| m.get(section)) {
            for (name, value) in entries {
                if let Some(v) = value.as_f64() {
                    out.push((format!("{section}.{name}"), v));
                }
            }
        }
    }
    if let Some(Json::Object(phases)) = doc.get("phases") {
        for (name, summary) in phases {
            if let Some(v) = summary.get("mean_s").and_then(Json::as_f64) {
                out.push((format!("phases.{name}.mean_s"), v));
            }
        }
    }
    out
}

/// The 95% CI bounds that accompany metric `name`, if the report emitted
/// them: for a metric `<stem>_s` the companions are `<stem>_ci95_lo_s`
/// and `<stem>_ci95_hi_s` in the same section.
fn ci_bounds(metrics: &[(String, f64)], name: &str) -> Option<(f64, f64)> {
    let stem = name.strip_suffix("_s")?;
    let lo = metrics
        .iter()
        .find(|(n, _)| *n == format!("{stem}_ci95_lo_s"))?
        .1;
    let hi = metrics
        .iter()
        .find(|(n, _)| *n == format!("{stem}_ci95_hi_s"))?
        .1;
    (lo <= hi).then_some((lo, hi))
}

/// Compares two bench report documents metric by metric.
///
/// Both documents must carry a schema version in
/// [`MIN_SCHEMA_VERSION`]`..=`[`SCHEMA_VERSION`] and name the same
/// experiment (the `timeline` section added in v2 is ignored here, so
/// v1 baselines stay comparable). Every counter, gauge and phase mean present in *both*
/// reports produces one [`MetricDelta`]; a delta counts as a regression
/// when a `HigherIsBetter` metric drops, or a `LowerIsBetter` metric
/// rises, by more than `threshold_pct` percent. When both reports also
/// carry bootstrap CI gauges for a metric, an over-threshold delta whose
/// intervals still overlap is reported as `within_noise`, not a
/// regression — two noisy runs straddling the threshold don't fail CI.
///
/// # Errors
///
/// A description of the structural mismatch (missing/incompatible schema
/// version, different experiments, or no shared metrics).
pub fn bench_compare(
    baseline: &Json,
    current: &Json,
    threshold_pct: f64,
) -> Result<Vec<MetricDelta>, String> {
    bench_compare_with(baseline, current, threshold_pct, &[])
}

/// [`bench_compare`] with per-metric threshold overrides: each
/// `(pattern, pct)` pair replaces `threshold_pct` for every metric whose
/// qualified name contains `pattern` (last match wins). This is how CI
/// holds one hot metric to a tighter bar — e.g.
/// `("ecdsa_verify_digest", 10.0)` — without squeezing the whole report.
///
/// # Errors
///
/// Same structural errors as [`bench_compare`].
pub fn bench_compare_with(
    baseline: &Json,
    current: &Json,
    threshold_pct: f64,
    overrides: &[(String, f64)],
) -> Result<Vec<MetricDelta>, String> {
    for (label, doc) in [("baseline", baseline), ("current", current)] {
        match doc.get("schema_version").and_then(Json::as_f64) {
            Some(v) if v >= MIN_SCHEMA_VERSION as f64 && v <= SCHEMA_VERSION as f64 => {}
            Some(v) => {
                return Err(format!(
                    "{label}: schema_version {v}, expected {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION}"
                ))
            }
            None => {
                return Err(format!(
                    "{label}: missing schema_version — not a bench report"
                ))
            }
        }
    }
    let base_exp = baseline.get("experiment").and_then(Json::as_str);
    let cur_exp = current.get("experiment").and_then(Json::as_str);
    if base_exp != cur_exp {
        return Err(format!(
            "experiment mismatch: baseline {base_exp:?} vs current {cur_exp:?}"
        ));
    }
    let base_metrics = collect_comparables(baseline);
    let cur_metrics = collect_comparables(current);
    let mut deltas: Vec<MetricDelta> = Vec::new();
    for (name, base_value) in &base_metrics {
        let Some((_, cur_value)) = cur_metrics.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let delta_pct = if *base_value != 0.0 {
            (cur_value - base_value) / base_value * 100.0
        } else if *cur_value == 0.0 {
            0.0
        } else {
            f64::INFINITY
        };
        let direction = metric_direction(name);
        let threshold = overrides
            .iter()
            .rev()
            .find(|(pattern, _)| name.contains(pattern.as_str()))
            .map_or(threshold_pct, |(_, pct)| *pct);
        let over_threshold = match direction {
            MetricDirection::HigherIsBetter => delta_pct < -threshold,
            MetricDirection::LowerIsBetter => delta_pct > threshold,
            MetricDirection::Informational => false,
        };
        // CI-overlap gate: if both reports bound this metric's mean and
        // the intervals overlap, the delta is indistinguishable from
        // run-to-run noise.
        let within_noise = over_threshold
            && match (
                ci_bounds(&base_metrics, name),
                ci_bounds(&cur_metrics, name),
            ) {
                (Some((b_lo, b_hi)), Some((c_lo, c_hi))) => b_lo <= c_hi && c_lo <= b_hi,
                _ => false,
            };
        deltas.push(MetricDelta {
            name: name.clone(),
            baseline: *base_value,
            current: *cur_value,
            delta_pct,
            direction,
            regression: over_threshold && !within_noise,
            within_noise,
            outlier: false,
        });
    }
    if deltas.is_empty() {
        return Err("no shared metrics between the two reports".to_string());
    }
    let pcts: Vec<f64> = deltas.iter().map(|d| d.delta_pct).collect();
    for (delta, flagged) in deltas.iter_mut().zip(mad_outlier_flags(&pcts)) {
        delta.outlier = flagged;
    }
    Ok(deltas)
}

/// Flags shared by the figure harnesses.
#[derive(Debug, Clone, Default)]
pub struct HarnessArgs {
    /// Positional count override (`N`).
    pub target: Option<usize>,
    /// `--json PATH` — write the [`BenchReport`] document here.
    pub json: Option<String>,
    /// `--timeline SECS` — sample the metrics registry every `SECS` of
    /// sim time into the report's `timeline` section (schema v2).
    pub timeline_s: Option<f64>,
}

/// Parses the shared harness flags (`N`, `--json PATH`,
/// `--timeline SECS`) from `std::env::args`.
pub fn harness_args() -> HarnessArgs {
    let mut parsed = HarnessArgs::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            parsed.json = args.next();
        } else if arg == "--timeline" {
            parsed.timeline_s = args.next().and_then(|v| v.parse().ok());
            assert!(
                parsed.timeline_s.is_some_and(|s| s > 0.0),
                "--timeline requires a positive interval in seconds"
            );
        } else if let Ok(n) = arg.parse::<usize>() {
            parsed.target = Some(n);
        }
    }
    parsed
}

/// Parses `--json PATH` and `N` (positional count override) from
/// `std::env::args`. Returns `(target_override, json_path)`.
/// A `--timeline` flag is consumed (so it never misparses as `N`) but
/// ignored; harnesses that emit timelines use [`harness_args`].
pub fn parse_harness_args() -> (Option<usize>, Option<String>) {
    let args = harness_args();
    (args.target, args.json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        let series: Series = vec![1.0, 2.0, 3.0].into_iter().collect();
        let mut registry = Registry::new();
        let c = registry.counter("bench.rows_total");
        registry.add(c, 3);
        BenchReport::new("unit_test")
            .config("n", Json::size(3))
            .rows(Json::Array(vec![Json::num(1.5)]))
            .metrics(registry.snapshot())
            .phases(&[("settle".to_string(), series)])
    }

    #[test]
    fn report_from_series() {
        let series: Series = vec![1.0, 2.0, 3.0].into_iter().collect();
        let report =
            LatencyReport::from_series("test", Some(1.6), &series, 3, 0, 100.0, 5, 0, 5.0, 5)
                .unwrap();
        assert_eq!(report.completed, 3);
        assert!((report.mean_s - 2.0).abs() < 1e-12);
        assert_eq!(report.histogram.len(), 5);
        assert_eq!(
            report.histogram.iter().map(|&(_, _, c)| c).sum::<usize>(),
            3
        );
        let json = report.to_json();
        assert_eq!(json.get("completed").and_then(Json::as_f64), Some(3.0));
        assert_eq!(json.get("paper_mean_s").and_then(Json::as_f64), Some(1.6));
    }

    #[test]
    fn empty_series_no_report() {
        let series = Series::new();
        assert!(LatencyReport::from_series("x", None, &series, 0, 0, 0.0, 0, 0, 1.0, 2).is_none());
    }

    #[test]
    fn bench_report_carries_schema_version() {
        let doc = sample_report().to_json();
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_f64),
            Some(SCHEMA_VERSION as f64)
        );
        assert_eq!(
            doc.get("experiment").and_then(Json::as_str),
            Some("unit_test")
        );
        let metrics = doc.get("metrics").expect("metrics section");
        let counters = metrics.get("counters").expect("counters");
        assert_eq!(
            counters.get("bench.rows_total").and_then(Json::as_f64),
            Some(3.0)
        );
        let phases = doc.get("phases").expect("phases section");
        let settle = phases.get("settle").expect("settle phase");
        assert_eq!(settle.get("count").and_then(Json::as_f64), Some(3.0));
        assert_eq!(settle.get("mean_s").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn bench_report_round_trips_through_parser() {
        let doc = sample_report().to_json();
        for text in [doc.render(), doc.render_pretty()] {
            let parsed = bcwan_sim::json::parse(&text).expect("parses");
            assert_eq!(parsed, doc);
        }
        // The metrics section parses back into a Snapshot.
        let metrics = doc.get("metrics").expect("metrics");
        let snap = Snapshot::from_json(metrics).expect("valid snapshot");
        assert_eq!(snap.counters, vec![("bench.rows_total".to_string(), 3)]);
    }

    #[test]
    fn bench_stats_orders_percentiles() {
        let stats = bench_fn_stats(50, || std::hint::black_box(17u64.wrapping_mul(31)));
        assert_eq!(stats.iters, 50);
        assert!(stats.median_s <= stats.p95_s);
        assert!(stats.mean_s > 0.0);
        assert!(stats.ci95_lo_s <= stats.ci95_hi_s);
        assert!(stats.ci95_lo_s > 0.0, "timings are positive: {stats:?}");
    }

    #[test]
    fn bootstrap_ci_brackets_the_mean_and_is_deterministic() {
        let samples: Vec<f64> = (0..40).map(|i| 1.0 + f64::from(i % 5) * 0.1).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let (lo, hi) = bootstrap_ci_mean(&samples, 200, 42);
        assert!(
            lo <= mean && mean <= hi,
            "CI [{lo}, {hi}] misses mean {mean}"
        );
        assert!(hi - lo < 0.2, "CI absurdly wide for tight samples");
        assert_eq!(
            bootstrap_ci_mean(&samples, 200, 42),
            (lo, hi),
            "same seed, same CI"
        );
        // Degenerate inputs collapse to the mean.
        assert_eq!(bootstrap_ci_mean(&[], 200, 1), (0.0, 0.0));
        assert_eq!(bootstrap_ci_mean(&[3.0], 200, 1), (3.0, 3.0));
        assert_eq!(bootstrap_ci_mean(&samples, 0, 1), (mean, mean));
    }

    #[test]
    fn ci_gauges_are_informational() {
        assert_eq!(
            metric_direction("gauges.bench.ecdsa_verify_digest_ci95_lo_s"),
            MetricDirection::Informational
        );
        assert_eq!(
            metric_direction("gauges.bench.ecdsa_verify_digest_ci95_hi_s"),
            MetricDirection::Informational
        );
        assert_eq!(
            metric_direction("gauges.bench.ecdsa_verify_digest_s"),
            MetricDirection::LowerIsBetter
        );
    }

    fn latency_report_with_ci(mean: f64, lo: f64, hi: f64) -> Json {
        let mut registry = Registry::new();
        registry.set_gauge("bench.verify_s", mean);
        registry.set_gauge("bench.verify_ci95_lo_s", lo);
        registry.set_gauge("bench.verify_ci95_hi_s", hi);
        BenchReport::new("micro")
            .metrics(registry.snapshot())
            .to_json()
    }

    #[test]
    fn overlapping_cis_suppress_a_regression() {
        // +30% mean shift past a 20% threshold, but the intervals overlap:
        // noise, not a regression.
        let baseline = latency_report_with_ci(1.0, 0.7, 1.4);
        let noisy = latency_report_with_ci(1.3, 1.1, 1.6);
        let deltas = bench_compare(&baseline, &noisy, 20.0).unwrap();
        let verify = deltas
            .iter()
            .find(|d| d.name == "gauges.bench.verify_s")
            .unwrap();
        assert!(verify.within_noise, "overlapping CIs: {verify:?}");
        assert!(!verify.regression);

        // Separated intervals: the same shift is a real regression.
        let clearly_worse = latency_report_with_ci(1.3, 1.28, 1.32);
        let tight_base = latency_report_with_ci(1.0, 0.98, 1.02);
        let deltas = bench_compare(&tight_base, &clearly_worse, 20.0).unwrap();
        let verify = deltas
            .iter()
            .find(|d| d.name == "gauges.bench.verify_s")
            .unwrap();
        assert!(verify.regression, "separated CIs must gate: {verify:?}");
        assert!(!verify.within_noise);
    }

    #[test]
    fn per_metric_threshold_overrides_apply_by_substring() {
        let baseline = latency_report_with_ci(1.0, 0.98, 1.02);
        // Current is +15%: passes the default 20% threshold.
        let current = latency_report_with_ci(1.15, 1.13, 1.17);
        let deltas = bench_compare(&baseline, &current, 20.0).unwrap();
        assert!(deltas.iter().all(|d| !d.regression));
        // A 10% override on the verify metric: fails.
        let overrides = vec![("verify_s".to_string(), 10.0)];
        let deltas = bench_compare_with(&baseline, &current, 20.0, &overrides).unwrap();
        let verify = deltas
            .iter()
            .find(|d| d.name == "gauges.bench.verify_s")
            .unwrap();
        assert!(verify.regression, "10% override must trip on +15%");
        // The override never touches unrelated metrics.
        assert!(deltas
            .iter()
            .filter(|d| d.name != "gauges.bench.verify_s")
            .all(|d| !d.regression));
    }

    #[test]
    fn mad_outlier_flagging_catches_a_spike() {
        // One iteration sleeps ~3ms among ~instant ones: must be flagged.
        let mut n = 0u32;
        let stats = bench_fn_stats(30, || {
            n += 1;
            if n == 25 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
        });
        assert!(stats.outliers >= 1, "spike not flagged: {stats:?}");
        assert!(
            stats.median_s < stats.mean_s,
            "spike skews mean above median"
        );
    }

    fn throughput_report(tx_per_s: f64, accepted: u64) -> Json {
        let mut registry = Registry::new();
        registry.set_counter("mempool.accepted", accepted);
        registry.set_gauge("bench.block_connect_tx_per_s", tx_per_s);
        BenchReport::new("chain_throughput")
            .metrics(registry.snapshot())
            .to_json()
    }

    #[test]
    fn compare_flags_throughput_regression() {
        let baseline = throughput_report(100.0, 500);
        let improved = throughput_report(250.0, 500);
        let regressed = throughput_report(70.0, 500);

        let deltas = bench_compare(&baseline, &improved, 20.0).unwrap();
        assert!(deltas.iter().all(|d| !d.regression), "{deltas:?}");
        let tp = deltas
            .iter()
            .find(|d| d.name == "gauges.bench.block_connect_tx_per_s")
            .unwrap();
        assert_eq!(tp.direction, MetricDirection::HigherIsBetter);
        assert!((tp.delta_pct - 150.0).abs() < 1e-9);

        let deltas = bench_compare(&baseline, &regressed, 20.0).unwrap();
        let tp = deltas
            .iter()
            .find(|d| d.name == "gauges.bench.block_connect_tx_per_s")
            .unwrap();
        assert!(tp.regression, "-30% must trip a 20% threshold");
        // A -30% drop passes a generous 40% threshold.
        let deltas = bench_compare(&baseline, &regressed, 40.0).unwrap();
        assert!(deltas.iter().all(|d| !d.regression));
    }

    #[test]
    fn compare_counters_are_informational() {
        let baseline = throughput_report(100.0, 500);
        let current = throughput_report(100.0, 2); // count collapsed
        let deltas = bench_compare(&baseline, &current, 20.0).unwrap();
        let accepted = deltas
            .iter()
            .find(|d| d.name == "counters.mempool.accepted")
            .unwrap();
        assert_eq!(accepted.direction, MetricDirection::Informational);
        assert!(!accepted.regression);
    }

    #[test]
    fn compare_accepts_v1_baselines_rejects_future_schemas() {
        let current = throughput_report(100.0, 500);
        // A v1 baseline (recorded before the timeline section existed).
        let v1 = {
            let Json::Object(mut fields) = throughput_report(90.0, 500) else {
                unreachable!()
            };
            fields.retain(|(k, _)| k != "schema_version");
            fields.insert(0, ("schema_version".to_string(), Json::uint(1)));
            Json::Object(fields)
        };
        let deltas = bench_compare(&v1, &current, 20.0).expect("v1 baseline still compares");
        assert!(deltas.iter().all(|d| !d.regression));
        // A document from a future schema is refused, not misread.
        let future = {
            let Json::Object(mut fields) = throughput_report(90.0, 500) else {
                unreachable!()
            };
            fields.retain(|(k, _)| k != "schema_version");
            fields.insert(0, ("schema_version".to_string(), Json::uint(99)));
            Json::Object(fields)
        };
        assert!(bench_compare(&future, &current, 20.0)
            .unwrap_err()
            .contains("schema_version"));
    }

    #[test]
    fn timeline_section_is_optional_and_round_trips() {
        // No timeline: the key is absent, not null/empty.
        let bare = BenchReport::new("x").to_json();
        assert_eq!(bare.get("timeline"), None);

        let mut series = bcwan_sim::SnapshotSeries::new(bcwan_sim::SimDuration::from_secs(10));
        let mut registry = Registry::new();
        registry.set_counter("world.lora_frames_lost_total", 1);
        series.maybe_sample(bcwan_sim::SimTime::ZERO, &registry);
        registry.set_counter("world.lora_frames_lost_total", 4);
        series.maybe_sample(bcwan_sim::SimTime::from_micros(10_000_000), &registry);
        let doc = BenchReport::new("x").timeline(Some(series)).to_json();
        let timeline = doc.get("timeline").expect("timeline section");
        assert_eq!(
            timeline.get("interval_seconds").and_then(Json::as_f64),
            Some(10.0)
        );
        let Some(Json::Array(frames)) = timeline.get("frames") else {
            panic!("frames array");
        };
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1].get("t").and_then(Json::as_f64), Some(10.0));
        // And the whole document still parses back.
        let parsed = bcwan_sim::json::parse(&doc.render_pretty()).expect("parses");
        assert_eq!(parsed, doc);

        // An empty series is dropped like None.
        let empty = bcwan_sim::SnapshotSeries::new(bcwan_sim::SimDuration::from_secs(1));
        let doc = BenchReport::new("x").timeline(Some(empty)).to_json();
        assert_eq!(doc.get("timeline"), None);
    }

    #[test]
    fn compare_rejects_mismatched_reports() {
        let a = throughput_report(100.0, 1);
        let other = BenchReport::new("fig5_latency").to_json();
        assert!(bench_compare(&a, &other, 20.0)
            .unwrap_err()
            .contains("experiment mismatch"));
        let no_schema = Json::object().with("experiment", Json::str("chain_throughput"));
        assert!(bench_compare(&no_schema, &a, 20.0)
            .unwrap_err()
            .contains("schema_version"));
    }

    #[test]
    fn compare_phase_means_lower_is_better() {
        let mk = |mean: f64| {
            let series: Series = vec![mean; 3].into_iter().collect();
            BenchReport::new("fig5_latency")
                .phases(&[("keygen".to_string(), series)])
                .to_json()
        };
        let deltas = bench_compare(&mk(2.0), &mk(1.0), 20.0).unwrap();
        let keygen = deltas
            .iter()
            .find(|d| d.name == "phases.keygen.mean_s")
            .unwrap();
        assert_eq!(keygen.direction, MetricDirection::LowerIsBetter);
        assert!(!keygen.regression, "getting faster is not a regression");
        let deltas = bench_compare(&mk(1.0), &mk(2.0), 20.0).unwrap();
        assert!(
            deltas.iter().any(|d| d.regression),
            "phase mean doubling must regress: {deltas:?}"
        );
    }

    #[test]
    fn mad_flags_match_bench_stats_rule() {
        assert!(mad_outlier_flags(&[]).is_empty());
        // Degenerate MAD: identical samples, one differs.
        let flags = mad_outlier_flags(&[5.0, 5.0, 5.0, 7.0]);
        assert_eq!(flags, vec![false, false, false, true]);
        // A clear spike among spread samples.
        let flags = mad_outlier_flags(&[1.0, 1.1, 0.9, 1.05, 50.0]);
        assert!(flags[4] && flags[..4].iter().all(|f| !f));
    }

    #[test]
    fn percentile_handles_edges() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[4.0], 0.95), 4.0);
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 1.0), 4.0);
    }

    #[test]
    fn empty_phases_render_as_empty_object() {
        let doc = BenchReport::new("x").to_json();
        assert_eq!(doc.get("phases"), Some(&Json::Object(Vec::new())));
        assert!(doc.render().contains("\"phases\":{}"));
    }
}
