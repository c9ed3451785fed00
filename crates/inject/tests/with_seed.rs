//! Seed re-targeting of a prepared campaign: everything `prepare_with`
//! derives is independent of the seed, so
//! `prepare_with(w, s, a, o).with_seed(b)` must run exactly the campaign
//! `prepare_with(w, s, b, o)` runs — the same per-class tallies and the same
//! checkpoint identity. This is what lets the campaign service prepare each
//! cell once and serve every later shard and job from it.

use proptest::prelude::*;
use swapcodes_core::Scheme;
use swapcodes_inject::{ArchCampaign, CampaignOptions, FaultMix};
use swapcodes_workloads::lookup;

/// `(workload, scheme, mix)` cells; the last draws every fault class,
/// stuck-at sites included.
fn cells() -> [(&'static str, Scheme, FaultMix); 3] {
    [
        ("kmeans", Scheme::SwapEcc, FaultMix::transient_only()),
        ("hspot", Scheme::SwDup, FaultMix::control_only()),
        ("pathf", Scheme::SwapEcc, FaultMix::all_classes()),
    ]
}

fn prepare(cell: usize, seed: u64) -> ArchCampaign<'static> {
    let (name, scheme, mix) = cells()[cell];
    let opts = CampaignOptions {
        mix,
        ..CampaignOptions::default()
    };
    ArchCampaign::prepare_with(lookup(name).expect("workload"), scheme, seed, opts)
        .expect("cell prepares")
}

/// The fields a checkpoint record is stamped with (the trial range aside).
fn identity(
    c: &ArchCampaign<'_>,
) -> (&'static str, &'static str, String, String, String, u64, u64) {
    (
        c.engine_tag(),
        c.recovery_engine_tag(),
        c.mix().tag(),
        c.workload().name.to_owned(),
        c.scheme().label(),
        c.seed(),
        c.fuel,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn with_seed_equals_a_fresh_prepare(
        cell in 0usize..3,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let retargeted = prepare(cell, a).with_seed(b);
        let fresh = prepare(cell, b);
        prop_assert_eq!(identity(&retargeted), identity(&fresh));
        prop_assert_eq!(retargeted.run_range_classed(0, 24), fresh.run_range_classed(0, 24));
    }
}

#[test]
fn with_seed_shares_the_prepared_state() {
    let c = prepare(2, 1);
    let d = c.with_seed(2);
    assert_eq!(d.seed(), 2);
    assert_eq!(c.seed(), 1, "the source campaign keeps its seed");
    assert!(std::ptr::eq(c.kernel(), d.kernel()));
    assert!(std::ptr::eq(
        c.site_catalog().expect("all-class mix"),
        d.site_catalog().expect("all-class mix")
    ));
    assert_eq!(c.resident_bytes(), d.resident_bytes());
}

#[test]
fn stuck_at_site_catalog_is_built_once_per_process() {
    let c = prepare(2, 1);
    let d = prepare(2, 1);
    assert!(std::ptr::eq(
        c.site_catalog().expect("all-class mix"),
        d.site_catalog().expect("all-class mix")
    ));
    assert!(prepare(0, 1).site_catalog().is_none());
}
