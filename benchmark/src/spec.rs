//! `BENCHMARK.json`: the list of workloads and metrics, with the bound
//! by which each end-to-end metric may worsen. Embedded at build time so
//! the binary and the file cannot disagree.

use crate::json::Json;

const TEXT: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may get worse; `None`
    /// for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
    pub run_seconds: f64,
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or(format!("BENCHMARK.json: no {key} list"))?
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("BENCHMARK.json: {key} entry without {k}"))
            };
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

pub fn parse(text: &str) -> Result<Spec, String> {
    let doc = Json::parse(text)?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no workloads list")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    Ok(Spec {
        workloads,
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json: no run_seconds")?,
    })
}

/// The embedded spec.
///
/// # Panics
///
/// If the committed `BENCHMARK.json` does not parse — a build-time
/// defect that `cargo test` catches.
pub fn spec() -> Spec {
    parse(TEXT).expect("committed BENCHMARK.json parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_spec_meets_the_contract() {
        let spec = spec();
        let names: Vec<&str> = crate::workloads::ALL.iter().map(|(n, _)| *n).collect();
        assert_eq!(spec.workloads, names, "workloads match the code");
        assert!((1.0..=60.0).contains(&spec.run_seconds));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let mut seen = std::collections::BTreeSet::new();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(seen.insert(m.name.clone()), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{} unit {}",
                m.name,
                m.unit
            );
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25 && bound <= setup.bound.unwrap());
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
