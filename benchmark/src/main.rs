//! `bcwan-perf`: the repository's benchmark, measured from outside.
//!
//! ```text
//! bcwan-perf --workload W --seed N --seconds S --trace 0|1 [--quick]
//! bcwan-perf all [--seed N] [--seconds S] [--trace] [--quick]
//! bcwan-perf check A/ B/
//! ```
//!
//! The first form runs one workload and ends its standard output with
//! one JSON object (`correct`, `attempted`, `failed`, `metrics`): every
//! end-to-end metric of `BENCHMARK.json` with `--trace 0`, every
//! per-layer metric with `--trace 1`. `all` runs every workload that
//! way, each in a child process of its own; `check` compares two `out/`
//! directories against the bounds. See the README.

mod alloc;
mod check;
mod deadline;
mod harness;
mod json;
mod layers;
mod micro;
mod proc;
mod spec;
mod stats;
mod trace;
mod workloads;

use harness::{Ctx, Metric, Outcome};
use json::Json;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Threads the machine offers; sizes every "≤ nproc busy threads" choice.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

const USAGE: &str = "usage: bcwan-perf --workload W --seed N --seconds S --trace 0|1 [--quick]
       bcwan-perf all [--seed N] [--seconds S] [--trace] [--quick]
       bcwan-perf check A/ B/";

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 2018;

/// Flags shared by the single-workload form and `all`.
#[derive(Debug, Clone, PartialEq)]
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} takes a value"));
        match arg.as_str() {
            "--workload" => flags.workload = Some(value()?.clone()),
            "--seed" => {
                flags.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                flags.seconds = Some(s);
            }
            // `--trace 0|1` in the single-workload form, bare `--trace` in `all`.
            "--trace" => match it.clone().next().map(String::as_str) {
                Some("0") => {
                    it.next();
                    flags.trace = false;
                }
                Some("1") => {
                    it.next();
                    flags.trace = true;
                }
                _ => flags.trace = true,
            },
            "--quick" => flags.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(flags)
}

fn metric_entry(name: &str, value: f64, unit: &str) -> (String, Json) {
    (
        name.to_string(),
        Json::Obj(vec![
            ("value".into(), Json::Num(value)),
            ("unit".into(), Json::Str(unit.into())),
        ]),
    )
}

fn metrics_json(rows: &[Metric]) -> Json {
    Json::Obj(
        rows.iter()
            .map(|m| metric_entry(&m.name, m.value, m.unit))
            .collect(),
    )
}

/// The `metrics` object of the result line: every metric `BENCHMARK.json`
/// lists for this mode, in its order. A per-layer metric this workload
/// never measures (its code path does not run here) reads 0.
fn contract_metrics(
    listed: &[spec::MetricSpec],
    measured: &[Metric],
    problems: &mut Vec<String>,
) -> Json {
    for m in measured {
        match listed.iter().find(|l| l.name == m.name) {
            None => problems.push(format!("metric {} is not in BENCHMARK.json", m.name)),
            Some(l) if l.unit != m.unit => problems.push(format!(
                "metric {} has unit {}, BENCHMARK.json says {}",
                m.name, m.unit, l.unit
            )),
            Some(_) => {}
        }
    }
    Json::Obj(
        listed
            .iter()
            .map(|l| {
                let value = measured
                    .iter()
                    .find(|m| m.name == l.name)
                    .map_or(0.0, |m| m.value);
                metric_entry(&l.name, value, &l.unit)
            })
            .collect(),
    )
}

fn write_out(name: &str, doc: &Json) {
    let dir = harness::out_dir();
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(name), doc.render() + "\n"));
    if let Err(e) = written {
        eprintln!("bcwan-perf: cannot write {}: {e}", dir.join(name).display());
    }
}

/// Runs one workload; the process exit code.
fn run_one(flags: &Flags) -> Result<ExitCode, String> {
    let spec = spec::spec();
    let name = flags.workload.as_deref().ok_or("--workload is required")?;
    let &(workload, run) = workloads::ALL
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or(format!("unknown workload {name:?}"))?;
    let ctx = Ctx {
        workload,
        seed: flags.seed,
        seconds: flags
            .seconds
            .unwrap_or(if flags.quick { 0.5 } else { spec.run_seconds }),
        trace: flags.trace,
        quick: flags.quick,
    };
    // Three times what the run should take (two passes of `seconds` at
    // worst, set-up, inputs, microbenches), under the caller's 180 s.
    let budget = Duration::from_secs_f64((3.0 * (2.0 * ctx.seconds + 10.0)).min(170.0));
    workloads::before_threads(workload);
    let watchdog = deadline::arm(workload, budget);
    let Outcome {
        attempted,
        failed,
        mut problems,
        end_to_end,
        per_layer,
        exact,
        spans,
    } = run(&ctx);
    drop(watchdog);

    let (listed, measured) = if ctx.trace {
        (&spec.per_layer, &per_layer)
    } else {
        (&spec.end_to_end, &end_to_end)
    };
    for m in measured {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
    if !ctx.trace {
        for (key, value) in &exact {
            println!("{workload} exact.{key} {value} exact");
        }
    }
    let metrics = contract_metrics(listed, measured, &mut problems);
    problems.extend(
        measured
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("metric {} is not a finite number", m.name)),
    );
    if attempted == 0 {
        problems.push("nothing was attempted".into());
    }
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }
    for p in &problems {
        eprintln!("bcwan-perf: {workload}: INCORRECT: {p}");
    }
    let correct = problems.is_empty();

    let head = vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(attempted as f64)),
        ("failed".to_string(), Json::Num(failed as f64)),
    ];
    let mut saved = vec![
        ("workload".to_string(), Json::Str(workload.into())),
        ("seed".to_string(), Json::Num(ctx.seed as f64)),
        ("quick".to_string(), Json::Bool(ctx.quick)),
    ];
    saved.extend(head.clone());
    saved.push(("metrics".into(), metrics_json(measured)));
    saved.push((
        "exact".into(),
        Json::Obj(exact.into_iter().map(|(k, v)| (k, Json::Str(v))).collect()),
    ));
    saved.push((
        "problems".into(),
        Json::Arr(problems.into_iter().map(Json::Str).collect()),
    ));
    if ctx.trace {
        write_out(&format!("{workload}.layers.json"), &Json::Obj(saved));
        write_out(
            &format!("{workload}.trace.json"),
            &trace::to_json(workload, &spans),
        );
    } else {
        write_out(&format!("{workload}.json"), &Json::Obj(saved));
    }

    let mut line = head;
    line.push(("metrics".into(), metrics));
    println!("{}", Json::Obj(line).render());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload in a child process of its own — untraced, or with
/// `--trace` traced — and prints the children's metric lines.
fn run_all(flags: &Flags) -> Result<ExitCode, String> {
    if flags.workload.is_some() {
        return Err("`all` takes no --workload".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut ok = true;
    for (workload, _) in workloads::ALL {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload])
            .args(["--seed", &flags.seed.to_string()])
            .args(["--trace", if flags.trace { "1" } else { "0" }]);
        if let Some(seconds) = flags.seconds {
            child.args(["--seconds", &seconds.to_string()]);
        }
        if flags.quick {
            child.arg("--quick");
        }
        // `output` waits for the child to end.
        let output = child
            .output()
            .map_err(|e| format!("cannot start {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        for line in stdout.lines().filter(|l| !l.starts_with('{')) {
            println!("{line}");
        }
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        if !output.status.success() {
            eprintln!("bcwan-perf: {workload} exited {}", output.status);
            ok = false;
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_check(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("check takes two directories".into());
    };
    let findings = check::compare_dirs(&spec::spec(), Path::new(a), Path::new(b))?;
    for line in &findings.report {
        println!("{line}");
    }
    for breach in &findings.breaches {
        eprintln!("bcwan-perf: check: {breach}");
    }
    Ok(if findings.breaches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => parse_flags(&args[1..]).and_then(|f| run_all(&f)),
        Some("check") => run_check(&args[1..]),
        Some(_) => parse_flags(&args).and_then(|f| run_one(&f)),
        None => Err("no arguments".into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("bcwan-perf: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parses_the_contract_form_and_the_all_form() {
        let f = parse_flags(&args(&[
            "--workload",
            "radio_1m",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(f.workload.as_deref(), Some("radio_1m"));
        assert_eq!(
            (f.seed, f.seconds, f.trace, f.quick),
            (7, Some(10.0), true, false)
        );
        let f = parse_flags(&args(&["--trace", "0", "--quick"])).unwrap();
        assert!(!f.trace && f.quick && f.seed == DEFAULT_SEED);
        let f = parse_flags(&args(&["--trace", "--seed", "3"])).unwrap();
        assert!(f.trace && f.seed == 3);
        assert!(parse_flags(&args(&["--seconds", "0"])).is_err());
        assert!(parse_flags(&args(&["--seed"])).is_err());
        assert!(parse_flags(&args(&["--frobnicate"])).is_err());
    }

    #[test]
    fn contract_metrics_list_every_metric_and_flag_strays() {
        let listed = spec::spec().per_layer;
        let mut problems = Vec::new();
        let measured = vec![
            harness::metric("bench.reps", 5.0, "count"),
            harness::metric("not.listed", 1.0, "s"),
            harness::metric("bench.threads", 2.0, "s"),
        ];
        let rows = contract_metrics(&listed, &measured, &mut problems);
        assert_eq!(rows.entries().unwrap().len(), listed.len());
        let value = |name| {
            rows.get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(value("bench.reps"), Some(5.0));
        assert_eq!(value("lora.shard_new_s"), Some(0.0));
        assert_eq!(problems.len(), 2, "{problems:?}");
    }
}
