//! Self-tests of the benchmark: every named metric appears with its
//! unit, a planted wrong reference fails the run, and the seed moves the
//! inputs but not the metric set. Run with
//! `cargo test --release --manifest-path perfbench/harness/Cargo.toml`.

use perfbench::draw::LawCheck;
use perfbench::report::Outcome;
use perfbench::{draw, ingest, run, Ctx, WORKLOADS};

fn tiny(seed: u64, trace: bool) -> Ctx {
    Ctx {
        seed,
        seconds: 0.6,
        trace,
        tiny: true,
        plant: false,
    }
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closing quote");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn assert_emits(out: &Outcome, section: &str, workload: &str) {
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    for (name, unit) in declared(section) {
        let m = out
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {names:?}"));
        assert_eq!(m.unit, unit, "{workload}: unit of {name}");
        assert!(m.value.is_finite(), "{workload}: {name} = {}", m.value);
    }
    assert!(
        out.failures.is_empty() && out.failed == 0,
        "{workload}: {:?}",
        out.failures
    );
}

#[test]
fn tiny_runs_emit_every_named_metric() {
    for workload in WORKLOADS {
        let out = run(workload, &tiny(1, false)).expect("known workload");
        assert_emits(&out, "end_to_end", workload);
        let out = run(workload, &tiny(1, true)).expect("known workload");
        assert_emits(&out, "per_layer", workload);
        assert!(
            !out.spans.is_empty(),
            "{workload}: traced run recorded no spans"
        );
    }
}

#[test]
fn planted_wrong_reference_trips_the_check() {
    for workload in WORKLOADS {
        let ctx = Ctx {
            plant: true,
            ..tiny(2, false)
        };
        let out = run(workload, &ctx).expect("known workload");
        assert!(
            out.failures.iter().any(|f| f.contains("mass")),
            "{workload}: planted mass error not caught: {:?}",
            out.failures
        );
        assert!(out.json().starts_with("{\"correct\": false"));
    }
}

#[test]
fn law_check_rejects_a_wrong_law() {
    let law = [0.5, 0.3, 0.2];
    let mut right = LawCheck::new(3);
    let mut wrong = LawCheck::new(3);
    for i in 0..3000u64 {
        // Deterministic draws in the proportions 5:3:2 and 2:3:5.
        right.observe([0, 0, 0, 0, 0, 1, 1, 1, 2, 2][(i % 10) as usize], &law);
        wrong.observe([0, 0, 1, 1, 1, 2, 2, 2, 2, 2][(i % 10) as usize], &law);
    }
    assert!(right.verdict().2 > 0.5);
    assert!(wrong.verdict().2 < draw::CHI_ALPHA);
}

#[test]
fn seed_changes_inputs_not_metric_set() {
    assert_ne!(ingest::base_stream(1), ingest::base_stream(2));
    assert_eq!(ingest::base_stream(1), ingest::base_stream(1));
    assert_ne!(draw::preload(1), draw::preload(2));
    for workload in WORKLOADS {
        let names = |seed| {
            let out = run(workload, &tiny(seed, false)).expect("known workload");
            out.metrics.into_iter().map(|m| m.name).collect::<Vec<_>>()
        };
        assert_eq!(names(3), names(4), "{workload}");
    }
}
