//! Smoke test: every workload at about a tenth of its size, through the
//! same command line the driver uses, untraced and traced. Checks the
//! contract of the result line against `BENCHMARK.json` and that `check`
//! accepts a set of runs compared with itself.

use std::collections::BTreeSet;
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_bcwan-perf");
const SPEC: &str = include_str!("../../BENCHMARK.json");
const WORKLOADS: [&str; 5] = [
    "fig5_paper",
    "fleet_gossip",
    "chain_ibd",
    "live_tcp",
    "radio_1m",
];

/// The `"name": "…"` values of one top-level list of `BENCHMARK.json`,
/// in order (the spec is flat enough for a textual scan).
fn names_in(list: &str) -> Vec<String> {
    let start = SPEC.find(&format!("\"{list}\"")).expect("list present");
    let body = &SPEC[start..];
    let end = body.find(']').expect("list closes");
    body[..end]
        .split("\"name\":")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn run(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .output()
        .expect("bcwan-perf starts")
}

/// Metric names of the result line, in order, after checking its shape.
fn result_line_names(stdout: &str) -> Vec<String> {
    let line = stdout.lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\":true,\"attempted\":"),
        "{line}"
    );
    assert!(line.contains(",\"failed\":0,\"metrics\":{"), "{line}");
    let metrics = &line[line.find("\"metrics\":{").unwrap() + 11..];
    metrics
        .split("\":{\"value\":")
        .filter_map(|piece| piece.rsplit('"').next())
        .filter(|name| !name.is_empty() && !name.contains('}'))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_workload_prints_every_listed_metric_once_with_a_unit() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let listed = names_in(list);
        for workload in WORKLOADS {
            let out = run(&[
                "--workload",
                workload,
                "--seed",
                "5",
                "--trace",
                trace,
                "--quick",
            ]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload} trace {trace}: {stderr}");
            assert_eq!(
                result_line_names(&stdout),
                listed,
                "{workload} trace {trace}"
            );

            // The human-readable lines: `workload metric value unit`, each
            // measured metric once, every name one the spec lists.
            let mut seen = BTreeSet::new();
            for line in stdout.lines().filter(|l| !l.starts_with('{')) {
                let fields: Vec<&str> = line.split(' ').collect();
                assert_eq!(fields.len(), 4, "{line}");
                assert_eq!(fields[0], workload);
                assert!(
                    fields[2].parse::<f64>().is_ok() || fields[3] == "exact",
                    "{line}"
                );
                assert!(!fields[3].is_empty());
                assert!(seen.insert(fields[1].to_string()), "{line}: printed twice");
                assert!(
                    fields[1].starts_with("exact.") || listed.iter().any(|n| n == fields[1]),
                    "{line}: not in BENCHMARK.json"
                );
            }
            if trace == "0" {
                assert_eq!(
                    seen.iter().filter(|n| !n.starts_with("exact.")).count(),
                    listed.len()
                );
            }
        }
    }
    // The traced runs left spans for all five workloads.
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    for workload in WORKLOADS {
        let trace = std::fs::read_to_string(out_dir.join(format!("{workload}.trace.json")))
            .expect("trace file written");
        assert!(trace.contains("\"spans\":[{"), "{workload}: no spans");
    }
    // A set of runs agrees with itself under `check`.
    let dir = out_dir.to_str().unwrap();
    let out = run(&["check", dir, dir]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result_line() {
    for args in [
        &["--workload", "nope"][..],
        &[][..],
        &["check", "/nonexistent"][..],
    ] {
        let out = run(args);
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}
