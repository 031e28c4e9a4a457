//! # bcwan-bench
//!
//! Figure-reproduction harnesses for the BcWAN paper. Each `--bin`
//! target regenerates one artefact of the evaluation (see DESIGN.md's
//! experiment index):
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
//! | `node_energy` | E1 — node energy budget and channel contention |
//!
//! Every binary prints a human-readable table and, with `--json PATH`,
//! writes one [`BenchReport`] — the schema-versioned machine-readable
//! document described in EXPERIMENTS.md ("Reading the metrics").
//! Per-layer wall-clock costs and the parent-vs-change regression gate
//! live in `benchmark/`, not here.
//!
//! The models only one ablation calls live beside it rather than in the
//! crates a gateway links: [`pos`] (A4), [`attack`] (A1) and
//! [`reputation`] (A3).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attack;
pub mod pos;
pub mod reputation;

use bcwan_sim::{Bucket, Json, Registry, Series, Snapshot, SnapshotSeries, Summary};

/// Version stamp every bench JSON document carries as `schema_version`.
///
/// Bump when the shape of [`BenchReport::to_json`] changes incompatibly
/// (renamed keys, moved sections). Adding new keys is not a bump.
pub(crate) const SCHEMA_VERSION: u64 = 2;

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
/// small registry of run counters; `phases` summarizes a `World` run's
/// eight exchange phases (empty object for analytic bins).
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
    /// Phase-latency summaries, `(phase name, summary)` per phase.
    pub phases: Vec<(String, Summary)>,
    /// Periodic metric snapshots over sim time. `None` — the run
    /// recorded no timeline — omits the `timeline` key entirely.
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

    /// Attaches phase series (as `World::run` produces them),
    /// keeping each phase that has at least one sample.
    #[must_use]
    pub fn phases(mut self, phases: &[(String, Series)]) -> Self {
        self.phases = phases
            .iter()
            .filter_map(|(name, series)| series.summary().map(|s| (name.clone(), s)))
            .collect();
        self
    }

    /// Attaches the run's periodic metric timeline (see EXPERIMENTS.md,
    /// "Reading the metrics"). Empty series are dropped so an unused
    /// `--timeline` flag doesn't emit `[]`.
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

    /// Prints the phase table (no-op when the report has no phases).
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

/// Flags shared by the figure harnesses.
#[derive(Debug, Clone, Default)]
pub struct HarnessArgs {
    /// Positional count override (`N`).
    pub target: Option<usize>,
    /// `--json PATH` — write the [`BenchReport`] document here.
    pub json: Option<String>,
    /// `--timeline SECS` — sample the metrics registry every `SECS` of
    /// sim time into the report's `timeline` section.
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
    fn bench_report_metrics_section_is_the_snapshot() {
        let doc = sample_report().to_json();
        let mut registry = Registry::new();
        let c = registry.counter("bench.rows_total");
        registry.add(c, 3);
        assert_eq!(doc.get("metrics"), Some(&registry.snapshot().to_json()));
        let rendered = doc.render();
        assert!(rendered.contains(r#""counters":{"bench.rows_total":3}"#));
    }

    #[test]
    fn timeline_section_is_optional_and_holds_every_frame() {
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
        // Each frame holds the counters as they stood when it was taken.
        let lost = frames.iter().map(|frame| {
            let counters = frame.get("counters")?;
            counters.get("world.lora_frames_lost_total")?.as_f64()
        });
        assert_eq!(lost.collect::<Vec<_>>(), [Some(1.0), Some(4.0)]);

        // An empty series is dropped like None.
        let empty = bcwan_sim::SnapshotSeries::new(bcwan_sim::SimDuration::from_secs(1));
        let doc = BenchReport::new("x").timeline(Some(empty)).to_json();
        assert_eq!(doc.get("timeline"), None);
    }

    #[test]
    fn empty_phases_render_as_empty_object() {
        let doc = BenchReport::new("x").to_json();
        assert_eq!(doc.get("phases"), Some(&Json::Object(Vec::new())));
        assert!(doc.render().contains("\"phases\":{}"));
    }
}
