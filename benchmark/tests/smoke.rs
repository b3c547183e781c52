//! Smoke test: every workload runs end to end through the library with
//! two segments, passes its checks, and reports every metric that
//! `BENCHMARK.json` lists, with its unit and a finite value.

use gist_benchmark::json::{get, number};
use gist_benchmark::metrics::{MetricSpec, END_TO_END, PER_LAYER};
use gist_benchmark::{run, Budget, Workload};
use gist_obs::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn benchmark_json() -> Json {
    Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Json, section: &str) -> &'a [Json] {
    match get(doc, section) {
        Some(Json::Arr(items)) => items,
        _ => panic!("BENCHMARK.json has no {section} list"),
    }
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    match get(entry, key) {
        Some(Json::Str(s)) => s,
        _ => panic!("entry without {key}: {entry:?}"),
    }
}

#[test]
fn benchmark_json_lists_the_metric_tables() {
    let doc = benchmark_json();
    let check = |section: &str, table: &[MetricSpec]| {
        let listed = entries(&doc, section);
        assert_eq!(listed.len(), table.len(), "{section}");
        for (entry, m) in listed.iter().zip(table) {
            assert_eq!(text(entry, "name"), m.name);
            assert_eq!(text(entry, "unit"), m.unit, "{}", m.name);
            assert_eq!(text(entry, "better"), m.better.label(), "{}", m.name);
            assert_eq!(get(entry, "bound").and_then(number), m.bound, "{}", m.name);
        }
    };
    check("end_to_end", END_TO_END);
    check("per_layer", PER_LAYER);
    let workloads: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

/// One test drives every workload: the gist-obs registry is
/// process-global, so workloads must not run concurrently.
#[test]
fn every_workload_reports_every_listed_metric() {
    let doc = benchmark_json();
    let listed: Vec<(&str, &str)> = entries(&doc, "end_to_end")
        .iter()
        .chain(entries(&doc, "per_layer"))
        .map(|e| (text(e, "name"), text(e, "unit")))
        .collect();
    for workload in Workload::ALL {
        let outcome = run(workload, 7, Budget::Segments(2), true);
        let name = workload.name();
        assert!(outcome.correct(), "{name}: {:?}", outcome.violations);
        assert_eq!(outcome.failed, 0, "{name}");
        assert!(outcome.attempted > 0, "{name}");
        assert_eq!(outcome.traced_digest, Some(outcome.digest), "{name}");
        let lines = outcome.lines();
        for &(metric, unit) in &listed {
            let prefix = format!("{metric} {name} ");
            let line = lines
                .iter()
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("{name}: {metric} not printed"));
            let fields: Vec<&str> = line.split(' ').collect();
            assert_eq!(fields.len(), 4, "{line}");
            let value: f64 = fields[2].parse().expect("numeric value");
            assert!(value.is_finite(), "{line}");
            assert_eq!(fields[3], unit, "{line}");
        }
        for (metric, s) in &outcome.end_to_end {
            assert!(s.value > 0.0, "{name}: end-to-end {metric} is {}", s.value);
        }
        let result = Json::parse(&outcome.result_line()).expect("result line parses");
        assert_eq!(get(&result, "correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = get(&result, "metrics") else {
            panic!("{name}: result has no metrics");
        };
        let reported: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(
            reported, expected,
            "{name}: traced result reports per-layer metrics"
        );
    }
    // Same seed, same work: the digest repeats across runs.
    let a = run(Workload::Synth, 3, Budget::Segments(1), false);
    let b = run(Workload::Synth, 3, Budget::Segments(1), false);
    assert_eq!(a.digest, b.digest);
}

#[test]
fn calibration_names_no_workspace_crate() {
    let source = include_str!("../src/calibration.rs");
    assert!(
        !source.contains("gist_") && !source.contains("gist-"),
        "the calibration kernel must not depend on the system under test"
    );
}
