//! What every workload shares: the run context, the repetition loop that
//! turns one noisy wall-clock reading into a median over in-process
//! repetitions on identical inputs, the traced second pass, and the
//! result a run hands back.

use crate::alloc;
use crate::proc;
use crate::stats::{iqr_share, median};
use crate::trace::{self, Span};
use std::path::PathBuf;
use std::time::Instant;

/// How one run was asked to run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    /// Wall seconds of measured work to accumulate before stopping.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: every size cut to about a tenth.
    pub quick: bool,
}

impl Ctx {
    /// `full` sizes normally, `small` ones in smoke mode.
    pub fn size(&self, full: usize, small: usize) -> usize {
        if self.quick {
            small
        } else {
            full
        }
    }

    /// Fewest repetitions of one pass. The traced run's numbers carry no
    /// bound, so it settles for two to stay inside the time a run may take.
    pub fn min_reps(&self) -> usize {
        if self.quick || self.trace {
            2
        } else {
            3
        }
    }

    /// A scratch directory of this run's own, inside the benchmark's
    /// `out/` (the run may write nowhere outside its checkout).
    pub fn scratch_dir(&self) -> PathBuf {
        out_dir().join(format!("tmp-{}-{}", self.workload, std::process::id()))
    }
}

/// `benchmark/out`, next to this crate's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What a run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed (exchanges, transactions, frames,
    /// scenario runs — whatever the workload's unit of work is).
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that did not hold; empty means correct.
    pub problems: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Simulated-time results, fingerprints and counters: values that
    /// repeat exactly for one seed and that `check` requires to be equal
    /// between two sets of runs.
    pub exact: Vec<(String, String)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.problems.push(what());
        }
    }

    pub fn exact(&mut self, name: &str, value: impl ToString) {
        self.exact.push((name.to_string(), value.to_string()));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(metric(name, value, unit));
    }
}

/// Per-repetition timings of one pass.
#[derive(Debug, Default, Clone)]
pub struct RepTimes {
    pub setup_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    /// Peak resident memory when the last of the minimum repetitions
    /// ended — a fixed point, because how many more repetitions fit the
    /// time budget varies with the machine's speed, and with it how far
    /// the allocator's high-water mark creeps.
    pub peak_rss_mib: f64,
}

impl RepTimes {
    pub fn reps(&self) -> usize {
        self.wall_s.len()
    }
}

/// The traced second pass.
pub struct Traced<O> {
    pub times: RepTimes,
    pub outputs: Vec<O>,
    pub spans: Vec<Span>,
}

pub struct Measured<O> {
    pub times: RepTimes,
    pub outputs: Vec<O>,
    pub traced: Option<Traced<O>>,
}

/// Most repetitions of one pass; keeps a mis-sized job from looping on.
const MAX_REPS: usize = 64;

fn pass<F, O>(
    budget_s: f64,
    min_reps: usize,
    traced: bool,
    setup: &mut impl FnMut() -> F,
    job: &mut impl FnMut(F) -> (f64, O),
) -> (RepTimes, Vec<O>) {
    let mut times = RepTimes::default();
    let mut outputs = Vec::new();
    let mut measured = 0.0;
    while times.reps() < min_reps || (measured < budget_s && times.reps() < MAX_REPS) {
        trace::set_rep(times.reps() as u32);
        let t = Instant::now();
        let fixture = setup();
        times.setup_s.push(t.elapsed().as_secs_f64());

        let cpu0 = proc::cpu_s();
        // The allocator counts during traced jobs only, set-up excluded;
        // the untraced pass never touches the process-wide switch.
        if traced {
            alloc::set_counting(true);
        }
        let (wall_s, output) = job(fixture);
        if traced {
            alloc::set_counting(false);
        }
        times.cpu_s.push(proc::cpu_s() - cpu0);
        times.wall_s.push(wall_s);
        measured += wall_s;
        outputs.push(output);
        if times.reps() == min_reps {
            times.peak_rss_mib = proc::peak_rss_mib();
        }
    }
    (times, outputs)
}

/// Repeats `setup` then `job` on identical inputs until `ctx.seconds` of
/// measured wall time have accumulated. `job` returns the wall seconds
/// it measured itself (so it can leave its own bookkeeping out) plus its
/// outputs for checking. With `ctx.trace` each pass gets a third of the
/// budget and a second pass runs with spans and the counting allocator
/// switched on; what is left of the run's time is the microbenches'.
pub fn measure<F, O>(
    ctx: &Ctx,
    mut setup: impl FnMut() -> F,
    mut job: impl FnMut(F) -> (f64, O),
) -> Measured<O> {
    let budget = if ctx.trace {
        ctx.seconds / 3.0
    } else {
        ctx.seconds
    };
    let (times, outputs) = pass(budget, ctx.min_reps(), false, &mut setup, &mut job);
    let traced = ctx.trace.then(|| {
        trace::enable();
        let (times, outputs) = pass(budget, ctx.min_reps(), true, &mut setup, &mut job);
        Traced {
            times,
            outputs,
            spans: trace::disable(),
        }
    });
    Measured {
        times,
        outputs,
        traced,
    }
}

/// Runs `f` and returns its wall seconds beside its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

impl<O> Measured<O> {
    /// Outputs of every repetition, the untraced pass's first.
    pub fn all_outputs(&self) -> impl Iterator<Item = &O> {
        self.outputs
            .iter()
            .chain(self.traced.iter().flat_map(|t| t.outputs.iter()))
    }

    /// The traced pass's spans (none after an untraced run).
    pub fn into_spans(self) -> Vec<Span> {
        self.traced.map(|t| t.spans).unwrap_or_default()
    }

    /// The end-to-end metrics every workload reports. `work` is the
    /// workload's primary unit of work done in `work_wall_s[i]` seconds
    /// of repetition `i` (its primary section; the whole job when the
    /// job has one section).
    pub fn end_to_end(&self, work: f64, work_wall_s: &[f64]) -> Vec<Metric> {
        let rates: Vec<f64> = work_wall_s.iter().map(|s| work / s).collect();
        vec![
            metric("setup_s", median(&self.times.setup_s), "s"),
            metric("work_per_wall_s", median(&rates), "1/s"),
            metric("job_wall_s", median(&self.times.wall_s), "s"),
            metric("peak_rss_mib", self.times.peak_rss_mib, "MiB"),
        ]
    }

    /// The `bench.*` rows: how the numbers above were taken.
    pub fn bench_layer(&self, threads: usize) -> Vec<Metric> {
        let mut rows = vec![
            metric("bench.reps", self.times.reps() as f64, "count"),
            metric(
                "bench.rep_iqr_share",
                iqr_share(&self.times.wall_s),
                "share",
            ),
            metric("bench.threads", threads as f64, "count"),
            // CPU seconds of a job that mostly sleeps (`live_tcp`) swing by
            // a third between runs of the same code, so they are a ledger
            // row, not a bounded end-to-end metric.
            metric("bench.job_cpu_s", median(&self.times.cpu_s), "s"),
        ];
        if let Some(traced) = &self.traced {
            let overhead = median(&traced.times.wall_s) / median(&self.times.wall_s) - 1.0;
            rows.push(metric("bench.trace_overhead_share", overhead, "share"));
            let covered = trace::root_covered_s(&traced.spans);
            let wall: f64 =
                traced.times.wall_s.iter().sum::<f64>() + traced.times.setup_s.iter().sum::<f64>();
            rows.push(metric("bench.span_coverage_share", covered / wall, "share"));
        }
        rows
    }
}

/// Median seconds per call of `f` over `calls` timed calls, after a few
/// untimed ones to warm caches and lazy tables.
pub fn unit_cost_s(calls: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..calls.div_ceil(20).min(5) {
        f();
    }
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(trace: bool) -> Ctx {
        Ctx {
            workload: "test",
            seed: 1,
            seconds: 0.02,
            trace,
            quick: true,
        }
    }

    #[test]
    fn measure_repeats_until_the_budget_is_spent() {
        let mut setups = 0;
        let m = measure(
            &ctx(false),
            || setups += 1,
            |()| {
                let t = Instant::now();
                std::thread::sleep(std::time::Duration::from_millis(4));
                (t.elapsed().as_secs_f64(), 7u8)
            },
        );
        assert!(
            m.times.reps() >= 2 && m.times.reps() <= 6,
            "{}",
            m.times.reps()
        );
        assert_eq!(setups, m.times.reps());
        assert!(m.traced.is_none());
        let e2e = m.end_to_end(100.0, &m.times.wall_s);
        let names: Vec<_> = e2e.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            ["setup_s", "work_per_wall_s", "job_wall_s", "peak_rss_mib"]
        );
        let rate = e2e[1].value;
        assert!(rate > 100.0 / 0.02 && rate < 100.0 / 0.004, "{rate}");
    }

    #[test]
    fn traced_pass_records_spans_and_allocations() {
        let _switch = alloc::TEST_SWITCH.lock().unwrap_or_else(|p| p.into_inner());
        let m = measure(
            &ctx(true),
            || (),
            |()| {
                let _s = trace::span("layer", "call");
                let before = alloc::counts();
                std::hint::black_box(vec![0u8; 1 << 16]);
                (0.02, alloc::counts().since(before).bytes)
            },
        );
        assert!(
            m.outputs.iter().all(|bytes| *bytes == 0),
            "untraced jobs count nothing"
        );
        let traced = m.traced.as_ref().expect("traced pass ran");
        assert_eq!(traced.spans.len(), traced.times.reps());
        assert!(traced.outputs.iter().all(|bytes| *bytes >= 1 << 16));
        let bench = m.bench_layer(1);
        assert!(bench.iter().any(|r| r.name == "bench.trace_overhead_share"));
    }

    #[test]
    fn unit_cost_is_a_median_of_timed_calls() {
        let cost = unit_cost_s(50, || {
            std::thread::sleep(std::time::Duration::from_micros(200))
        });
        assert!((200e-6..5e-3).contains(&cost), "{cost}");
    }
}
