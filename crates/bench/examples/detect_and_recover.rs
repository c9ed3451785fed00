//! Detect-and-recover, end to end: the acceptance campaign for the recovery
//! subsystem plus the overhead/miscorrection report.
//!
//! Phase 1 is the differential proof: over a 3×3 (workload × scheme) matrix
//! the recovery oracle re-runs every injected trial through the bounded
//! ladder (warp checkpoint/replay → kernel relaunch) and asserts that
//!
//! * detections get converted into completed runs (nonzero DUE→recovered),
//! * every `Recovered` trial's output compared equal to the golden run, and
//! * zero recovery-induced SDCs appear (safe mode never miscorrects).
//!
//! Phase 2 renders the report: recovered fraction and recovery cycle
//! overhead per scheme, then the opt-in in-place-correction experiment with
//! its measured miscorrection rate.
//!
//! `SWAPCODES_FAST=1` shrinks trial counts for CI smoke runs.

use swapcodes_bench::figures::recovery_report;
use swapcodes_core::{PredictorSet, Scheme};
use swapcodes_inject::oracle::recovery_oracle;
use swapcodes_sim::recovery::RecoveryConfig;
use swapcodes_workloads::by_name;

fn main() {
    let fast = swapcodes_bench::fast_mode();
    let trials: u64 = if fast { 30 } else { 120 };
    let workloads = ["matmul", "kmeans", "b+tree"];
    let schemes = [
        Scheme::SwDup,
        Scheme::SwapEcc,
        Scheme::SwapPredict(PredictorSet::MAD),
    ];
    let rcfg = RecoveryConfig::default();

    println!("== Recovery oracle: {trials} trials per cell ==");
    let mut recovered = 0u64;
    for name in workloads {
        let w = by_name(name).expect("workload");
        for scheme in schemes {
            let v = recovery_oracle(&w, scheme, trials, 0xD0C5, &rcfg).expect("cell prepares");
            assert!(
                v.miscorrections.is_empty(),
                "{name} x {scheme:?}: recovery invented an SDC: {v}"
            );
            assert!(
                v.escapes.is_empty(),
                "{name} x {scheme:?}: fault escaped detection: {v}"
            );
            recovered += v.recovered;
            println!("  {name:>8} x {v}");
        }
    }
    assert!(
        recovered > 0,
        "acceptance requires nonzero DUE->recovered conversion"
    );
    println!("  total recovered across the matrix: {recovered}");
    println!();

    let report_trials = u32::try_from(trials).expect("small trial count");
    recovery_report(&workloads, report_trials, 0xD0C5);
}
