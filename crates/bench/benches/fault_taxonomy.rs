//! Fault-model taxonomy: per-class detection coverage under the mixed
//! transient/control/stuck-at campaign, plus the control-fault coverage
//! gap of statically-clean kernels. `SWAPCODES_FAST=1` shrinks trials.

use swapcodes_bench::figures;

fn main() {
    let trials: u64 = if swapcodes_bench::fast_mode() {
        80
    } else {
        240
    };
    figures::fault_taxonomy_report(&["matmul", "kmeans", "hspot"], trials, 0xFA17_0007);
}
