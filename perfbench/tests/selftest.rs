//! Self-tests of the benchmark: a tiny run of each workload emits every
//! metric `BENCHMARK.json` names, with its unit, and the correctness gate
//! trips on a wrong reference constant. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::gate::Reference;
use perfbench::workloads::{self, Config, RunOutput, Workload};
use perfbench::{ledger, report::Metrics};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// The workloads install a process-wide store: tests take turns.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn tiny(workload: Workload, tag: &str) -> Config {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{}-{tag}", workload.name()));
    Config {
        min_samples: [8, 40, 8, 4],
        cycles: 2,
        ..Config::new(workload, 7, 0.2, 2, dir)
    }
}

fn assert_emits(metrics: &Metrics, section: &str, what: &str) {
    let units: Vec<(String, String)> = metrics
        .iter()
        .map(|(n, _, u)| (n.to_string(), u.to_string()))
        .collect();
    for (name, unit) in declared(section) {
        let got = units.iter().find(|(n, _)| *n == name);
        assert_eq!(
            got.map(|(_, u)| u.as_str()),
            Some(unit.as_str()),
            "{what}: {name}"
        );
    }
    assert_eq!(
        units.len(),
        declared(section).len(),
        "{what}: no undeclared metric"
    );
}

fn clean(out: &RunOutput, what: &str) {
    assert!(out.tally.attempted > 0, "{what}: nothing attempted");
    assert_eq!(out.tally.failed, 0, "{what}: {:?}", out.tally.errors);
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let _turn = serial();
    for w in Workload::ALL {
        let out = workloads::run(&tiny(w, "e2e")).expect("tiny run");
        clean(&out, w.name());
        assert_emits(&out.metrics, "end_to_end", w.name());
        for (name, value, _) in out.metrics.iter() {
            assert!(
                value.is_finite() && value > 0.0,
                "{}: {name} = {value}",
                w.name()
            );
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    let _turn = serial();
    for w in Workload::ALL {
        let out = ledger::run(&tiny(w, "traced")).expect("tiny traced run");
        clean(&out, w.name());
        assert_emits(&out.metrics, "per_layer", w.name());
    }
}

#[test]
fn a_wrong_reference_constant_trips_the_gate() {
    let _turn = serial();
    for w in [Workload::SurvivalN2, Workload::ScalingRb] {
        let cfg = Config {
            reference: Reference { log2_offset: 0.5 },
            ..tiny(w, "wrong")
        };
        let out = workloads::run(&cfg).expect("tiny run");
        assert!(
            out.tally.failed > 0,
            "{}: gate passed a wrong constant",
            w.name()
        );
    }
}
