//! `check A/ B/`: compares two `out/` directories metric by metric
//! against the bounds in `BENCHMARK.json`. `A` is the baseline. Wall-clock
//! metrics may be worse in `B` by at most their bound (direction-aware);
//! simulated-time results, fingerprints and counters must be equal; the
//! failure count must not rise.

use crate::json::Json;
use crate::spec::{MetricSpec, Spec};
use std::path::Path;

#[derive(Debug, Default, PartialEq)]
pub struct Findings {
    /// One line per comparison made.
    pub report: Vec<String>,
    /// The comparisons that failed.
    pub breaches: Vec<String>,
}

/// By what share of the baseline `after` is worse than `before`
/// (negative when it is better).
pub fn worse_by(spec: &MetricSpec, before: f64, after: f64) -> f64 {
    if spec.higher_is_better {
        (before - after) / before
    } else {
        (after - before) / before
    }
}

/// Whether `after` breaches the metric's bound against `before`.
pub fn breaches(spec: &MetricSpec, before: f64, after: f64) -> bool {
    spec.bound
        .is_some_and(|bound| worse_by(spec, before, after) > bound)
}

fn load(dir: &Path, workload: &str) -> Result<Json, String> {
    let path = dir.join(format!("{workload}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compares one workload's two saved results.
pub fn compare(spec: &Spec, workload: &str, a: &Json, b: &Json, out: &mut Findings) {
    for side in [a, b] {
        if side.get("correct") != Some(&Json::Bool(true)) {
            out.breaches
                .push(format!("{workload}: a run was not correct"));
        }
    }
    let failed = |doc: &Json| doc.get("failed").and_then(Json::as_f64);
    match (failed(a), failed(b)) {
        (Some(before), Some(after)) if after <= before => {}
        (before, after) => out.breaches.push(format!(
            "{workload}: failed operations went from {before:?} to {after:?}"
        )),
    }
    for m in &spec.end_to_end {
        let value = |doc: &Json| {
            doc.get("metrics")
                .and_then(|ms| ms.get(&m.name))
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
        };
        let (Some(before), Some(after)) = (value(a), value(b)) else {
            out.breaches
                .push(format!("{workload}: {} is missing", m.name));
            continue;
        };
        let worse = worse_by(m, before, after);
        let verdict = if breaches(m, before, after) {
            out.breaches.push(format!(
                "{workload}: {} worse by {:.1} % (bound {:.0} %): {before} -> {after} {}",
                m.name,
                worse * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                m.unit
            ));
            "BREACH"
        } else {
            "ok"
        };
        out.report.push(format!(
            "{workload} {} {before} -> {after} {} ({:+.1} % worse) {verdict}",
            m.name,
            m.unit,
            worse * 100.0
        ));
    }
    let exact = |doc: &Json| {
        doc.get("exact")
            .and_then(Json::entries)
            .unwrap_or(&[])
            .to_vec()
    };
    let (before, after) = (exact(a), exact(b));
    if before == after {
        out.report
            .push(format!("{workload} exact values equal ({})", before.len()));
        return;
    }
    if before.len() != after.len() {
        out.breaches
            .push(format!("{workload}: the sets of exact values differ"));
    }
    for (key, was) in &before {
        let now = after.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        if now != Some(was) {
            out.breaches.push(format!(
                "{workload}: exact value {key} differs: {} vs {}",
                was.render(),
                now.map_or("missing".into(), Json::render)
            ));
        }
    }
}

/// Compares every workload of the spec across two directories.
///
/// # Errors
///
/// When a result file is missing or is not JSON; also when the two sets
/// were run with different seeds or sizes, which compares nothing.
pub fn compare_dirs(spec: &Spec, a: &Path, b: &Path) -> Result<Findings, String> {
    let mut out = Findings::default();
    for workload in &spec.workloads {
        let (doc_a, doc_b) = (load(a, workload)?, load(b, workload)?);
        for key in ["seed", "quick"] {
            if doc_a.get(key) != doc_b.get(key) {
                return Err(format!("{workload}: the two sets differ in {key}"));
            }
        }
        compare(spec, workload, &doc_a, &doc_b, &mut out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: name.into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn bound_logic_is_direction_aware() {
        let rate = metric("rate", true, 0.10);
        assert!(!breaches(&rate, 100.0, 91.0));
        assert!(breaches(&rate, 100.0, 89.0));
        assert!(!breaches(&rate, 100.0, 150.0), "better is never a breach");
        let time = metric("time", false, 0.10);
        assert!(!breaches(&time, 2.0, 2.19));
        assert!(breaches(&time, 2.0, 2.21));
        assert!(!breaches(&time, 2.0, 1.0));
        assert!((worse_by(&time, 2.0, 2.5) - 0.25).abs() < 1e-12);
        assert!((worse_by(&rate, 100.0, 75.0) - 0.25).abs() < 1e-12);
    }

    fn doc(rate: f64, time: f64, failed: f64, fingerprint: &str) -> Json {
        Json::parse(&format!(
            r#"{{"correct":true,"failed":{failed},
                "metrics":{{"rate":{{"value":{rate},"unit":"u"}},"time":{{"value":{time},"unit":"u"}}}},
                "exact":{{"fingerprint":"{fingerprint}"}}}}"#
        ))
        .unwrap()
    }

    fn spec() -> Spec {
        Spec {
            workloads: vec!["w".into()],
            end_to_end: vec![metric("rate", true, 0.10), metric("time", false, 0.10)],
            per_layer: vec![],
            run_seconds: 1.0,
        }
    }

    #[test]
    fn compare_flags_slowdowns_unequal_exact_values_and_new_failures() {
        let base = doc(100.0, 2.0, 0.0, "abc");
        let mut same = Findings::default();
        compare(&spec(), "w", &base, &doc(95.0, 2.1, 0.0, "abc"), &mut same);
        assert!(same.breaches.is_empty(), "{:?}", same.breaches);
        assert_eq!(same.report.len(), 3);

        let mut slow = Findings::default();
        compare(&spec(), "w", &base, &doc(80.0, 2.0, 0.0, "abc"), &mut slow);
        assert_eq!(slow.breaches.len(), 1);
        assert!(slow.breaches[0].contains("rate"));

        let mut drift = Findings::default();
        compare(
            &spec(),
            "w",
            &base,
            &doc(100.0, 2.0, 0.0, "abd"),
            &mut drift,
        );
        assert_eq!(drift.breaches.len(), 1);
        assert!(drift.breaches[0].contains("fingerprint"));

        let mut failing = Findings::default();
        compare(
            &spec(),
            "w",
            &base,
            &doc(100.0, 2.0, 1.0, "abc"),
            &mut failing,
        );
        assert_eq!(failing.breaches.len(), 1);
        assert!(failing.breaches[0].contains("failed"));
    }
}
