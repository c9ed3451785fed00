//! Predicted-vs-measured AVF calibration table: the static vulnerability
//! analyzer's per-class coverage predictions gated against a fresh
//! injection campaign. `SWAPCODES_FAST=1` shrinks trials.

use swapcodes_bench::figures;

fn main() {
    let trials: u64 = if swapcodes_bench::fast_mode() {
        120
    } else {
        360
    };
    figures::avf_report(trials, 0xACE_CA1B);
}
