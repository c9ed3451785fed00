//! System-level static verification: the verifier, the validator lints and
//! the transforms agree with each other across the whole workload suite,
//! through the facade crate the way a downstream user sees them.

use swapcodes::core::{apply, PredictorSet, Scheme};
use swapcodes::isa::json::Json;
use swapcodes::isa::validate::{lint, validate, Lint};
use swapcodes::verify::verify;

fn all_schemes() -> Vec<Scheme> {
    vec![
        Scheme::SwDup,
        Scheme::SwapEcc,
        Scheme::SwapPredict(PredictorSet::MAD),
        Scheme::InterThread { checked: true },
    ]
}

#[test]
fn transformed_suite_is_statically_verified_and_valid() {
    for w in swapcodes::workloads::all() {
        for scheme in all_schemes() {
            let Ok(t) = apply(scheme, &w.kernel, w.launch) else {
                continue;
            };
            // The transform output is structurally valid...
            assert_eq!(validate(&t.kernel), Ok(()), "{} x {scheme:?}", w.name);
            // ...and provably protected.
            let report = verify(scheme, &t.kernel);
            assert!(report.is_clean(), "{} x {scheme:?}: {report}", w.name);
            assert!(
                (report.coverage.fraction() - 1.0).abs() < f64::EPSILON,
                "{} x {scheme:?} not fully covered",
                w.name
            );
        }
    }
}

#[test]
fn lints_tolerate_transform_idioms() {
    // Transform outputs may contain a defensive unreachable EXIT in front
    // of the appended trap block — an UnreachableCode *lint*, never an
    // error. Intra-thread schemes emit no shuffles, so their outputs must
    // never trip the divergent-shuffle lint (check branches to the trap
    // block are aborts, not divergence). Inter-thread duplication MAY trip
    // it: its check shuffles inside data-dependent branches are exactly
    // where the scheme's pair-uniformity assumption (§V) is load-bearing,
    // and the lint is how that spot gets surfaced to a kernel author.
    for w in swapcodes::workloads::all() {
        for scheme in all_schemes() {
            let Ok(t) = apply(scheme, &w.kernel, w.launch) else {
                continue;
            };
            let interthread = matches!(scheme, Scheme::InterThread { .. });
            for l in lint(&t.kernel) {
                let tolerated = matches!(l, Lint::UnreachableCode { .. })
                    || (interthread && matches!(l, Lint::ShflInDivergentFlow { .. }));
                assert!(tolerated, "{} x {scheme:?}: unexpected lint {l}", w.name);
            }
        }
    }
}

#[test]
fn raw_workloads_lint_clean() {
    // The curated suite itself has no divergent shuffles and no dead code.
    for w in swapcodes::workloads::all() {
        assert_eq!(lint(&w.kernel), Vec::new(), "{}", w.name);
    }
}

#[test]
fn machine_readable_report_round_trips_key_facts() {
    let w = swapcodes::workloads::by_name("matmul").expect("matmul");
    let t = apply(Scheme::SwapEcc, &w.kernel, w.launch).expect("applies");
    let report = verify(Scheme::SwapEcc, &t.kernel);
    let json = report.to_json();
    assert!(json.contains("\"scheme\":\"Swap-ECC\""));
    assert!(json.contains("\"clean\":true"));
    assert!(json.contains(&format!("\"points\":{}", report.coverage.points)));
    assert!(json.contains("\"fraction\":1"));
    let doc = Json::parse(&json).expect("report is valid JSON");
    assert_eq!(doc.get("scheme").and_then(Json::as_str), Some("Swap-ECC"));
    assert_eq!(doc.get("clean").and_then(Json::as_bool), Some(true));
    let coverage = doc.get("coverage").expect("coverage object");
    assert_eq!(
        coverage.get("points").and_then(Json::as_u64),
        Some(u64::from(report.coverage.points))
    );
}
