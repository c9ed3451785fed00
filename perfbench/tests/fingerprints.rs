//! Two traced runs with one seed must agree exactly on the counts the
//! benchmark documents as fingerprints, so later changes can cite them.

use std::process::Command;

const FINGERPRINTS: [&str; 7] = [
    "sim.snapshots",
    "core.peephole_removed",
    "inject.prepare_calls",
    "inject.early_exits",
    "inject.harness.checkpoints",
    "sim.timing.issued",
    "inject.gate.attempts",
];

/// Run one short traced run and return its result line.
fn traced_run(workload: &str, seed: u64) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_swapcodes-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "1"])
        .env_clear()
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "benchmark failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_owned()
}

/// The value of metric `name` in a result line.
fn metric(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len();
    let rest = &line[at..];
    let end = rest.find(',').expect("value is followed by its unit");
    rest[..end].parse().expect("numeric value")
}

fn assert_fingerprints_repeat(workload: &str) {
    let (a, b) = (traced_run(workload, 7), traced_run(workload, 7));
    assert!(a.starts_with("{\"correct\": true"), "{workload}: {a}");
    for name in FINGERPRINTS {
        let (x, y) = (metric(&a, name), metric(&b, name));
        assert_eq!(x.to_bits(), y.to_bits(), "{workload}: {name} {x} vs {y}");
    }
    assert!(metric(&a, "inject.prepare_calls") > 0.0);
    assert!(metric(&a, "sim.timing.issued") > 0.0);
    assert!(metric(&a, "inject.gate.attempts") > 0.0);
}

#[test]
fn prep_bound_fingerprints_repeat() {
    assert_fingerprints_repeat("prep-bound");
}

#[test]
fn exec_bound_fingerprints_repeat() {
    assert_fingerprints_repeat("exec-bound");
}
