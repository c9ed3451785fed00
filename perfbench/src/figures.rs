//! The offline figure layers: timing sweeps through `SweepEngine` and
//! gate-level campaigns through `run_unit_campaign`, each with an untraced
//! timed form, a traced form, and the correctness checks run outside the
//! timed window.

use std::time::Instant;

use swapcodes_bench::SweepEngine;
use swapcodes_core::Scheme;
use swapcodes_gates::units::ArithUnit;
use swapcodes_inject::{run_unit_campaign, CampaignConfig, UnitCampaignResult};
use swapcodes_sim::simulate_kernel;
use swapcodes_sim::timing::{simulate_kernel_reference, TimingConfig};
use swapcodes_workloads::Workload;

use crate::host::process_cpu_s;
use crate::trace::Tracer;
use crate::workload::{
    job_seed, profile_schemes, timing_schemes, unit_inputs, GATE_INPUTS, POOL_THREADS, UNITS,
};

/// One timed repetition of a phase: units of work and the time taken.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Work items completed (timing cells, or operand tuples).
    pub items: u64,
    /// Wall seconds.
    pub secs: f64,
    /// Process CPU seconds, every pool thread included.
    pub cpu_s: f64,
}

impl Rep {
    /// Time `f`, which completes `items` work items.
    fn measure<T>(items: u64, f: impl FnOnce() -> T) -> (T, Self) {
        let cpu = process_cpu_s();
        let t = Instant::now();
        let out = f();
        let rep = Rep {
            items,
            secs: t.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - cpu,
        };
        (out, rep)
    }

    /// Items per process CPU second.
    pub fn rate(&self) -> f64 {
        self.items as f64 / self.cpu_s.max(1e-9)
    }

    /// Items per wall second.
    pub fn wall_rate(&self) -> f64 {
        self.items as f64 / self.secs.max(1e-9)
    }

    /// All of `reps` as one repetition.
    pub fn pooled(reps: &[Rep]) -> Rep {
        reps.iter().fold(
            Rep {
                items: 0,
                secs: 0.0,
                cpu_s: 0.0,
            },
            |a, r| Rep {
                items: a.items + r.items,
                secs: a.secs + r.secs,
                cpu_s: a.cpu_s + r.cpu_s,
            },
        )
    }
}

/// One fresh-engine sweep: timings over the Fig. 12/15/16 scheme matrix
/// plus the Fig. 13 profiles.
pub fn sweep_once(kernels: &[Workload]) -> (SweepEngine, Rep) {
    let cells = (kernels.len() * timing_schemes().len()) as u64;
    Rep::measure(cells, || {
        let engine = SweepEngine::with_threads(POOL_THREADS);
        engine.prewarm_timings(kernels, &timing_schemes());
        engine.prewarm_profiles(kernels, &profile_schemes());
        engine
    })
}

/// The fixed subset of cells checked against `simulate_kernel_reference`:
/// Baseline and Swap-ECC on the first kernel, SW-Dup on the last.
fn reference_cells(kernels: &[Workload]) -> Vec<(&Workload, Scheme)> {
    let first = &kernels[0];
    let last = &kernels[kernels.len() - 1];
    vec![
        (first, Scheme::Baseline),
        (first, Scheme::SwapEcc),
        (last, Scheme::SwDup),
    ]
}

/// Check the reference subset; returns `(cells checked, mismatches)`.
pub fn check_sweep(engine: &SweepEngine, kernels: &[Workload]) -> (u64, u64) {
    let cells = reference_cells(kernels);
    let mut bad = 0u64;
    for &(w, s) in &cells {
        let reference = swapcodes_core::apply(s, &w.kernel, w.launch)
            .ok()
            .and_then(|t| {
                let mut mem = w.build_memory();
                simulate_kernel_reference(&t.kernel, t.launch, &mut mem, &TimingConfig::default())
                    .ok()
            });
        if reference.is_none() || engine.timing(w, s).value().copied() != reference {
            eprintln!(
                "MISMATCH: sweep cell {} x {} differs from simulate_kernel_reference",
                w.name,
                s.label()
            );
            bad += 1;
        }
    }
    (cells.len() as u64, bad)
}

/// Traced sweep: a serial walk of the same matrix with one span per call
/// (`core::apply`, `simulate_kernel`, `swapcodes_bench::profile`), then one
/// untraced engine sweep for the parallel efficiency. Returns the total
/// issued warp instructions over the matrix (an exact-count fingerprint).
pub fn traced_sweep(tr: &mut Tracer, kernels: &[Workload]) -> u64 {
    let cfg = TimingConfig::default();
    let mut issued = 0u64;
    for w in kernels {
        for s in timing_schemes() {
            let id = format!("{}/{}", w.name, s.label());
            let cell_start = Instant::now();
            let (applied, _) = tr.time("core.apply", None, &id, || {
                swapcodes_core::apply(s, &w.kernel, w.launch)
            });
            if let Ok(t) = applied {
                let mut mem = w.build_memory();
                let (timing, _) = tr.time("sim.timing.cell", None, &id, || {
                    simulate_kernel(&t.kernel, t.launch, &mut mem, &cfg)
                });
                if let Ok(timing) = timing {
                    issued += timing.issued;
                }
            }
            tr.record("bench.cell", None, &id, cell_start, Instant::now());
        }
        for s in profile_schemes() {
            let id = format!("{}/{}", w.name, s.label());
            tr.time("bench.profile", None, &id, || {
                swapcodes_bench::profile(w, s)
            });
        }
    }
    tr.count("sim.timing.issued", issued as f64);
    let (_, rep) = sweep_once(kernels);
    tr.count("bench.sweep.wall_ms", rep.secs * 1e3);
    issued
}

/// The gate campaign configuration of a run.
pub fn gate_config(seed: u64, threads: usize) -> CampaignConfig {
    CampaignConfig {
        seed,
        threads: Some(threads),
        ..CampaignConfig::default()
    }
}

/// Seed-generated operand tuples for every unit, for pass `rep`.
pub fn gate_inputs(seed: u64, rep: usize) -> Vec<Vec<[u64; 3]>> {
    UNITS
        .iter()
        .map(|&k| unit_inputs(k, job_seed(seed, rep), GATE_INPUTS))
        .collect()
}

/// One pass over every unit with pass `rep`'s operands (generated outside
/// the timed span); returns the rep and each unit's result.
pub fn gate_once(
    units: &[ArithUnit],
    seed: u64,
    rep: usize,
    cfg: &CampaignConfig,
) -> (Rep, Vec<UnitCampaignResult>) {
    let inputs = gate_inputs(seed, rep);
    let items = inputs.iter().map(|i| i.len() as u64).sum();
    let (results, rep) = Rep::measure(items, || {
        units
            .iter()
            .zip(&inputs)
            .map(|(u, i)| run_unit_campaign(u, i, cfg))
            .collect()
    });
    (rep, results)
}

/// Whether two unit campaign results agree exactly.
fn same_result(a: &UnitCampaignResult, b: &UnitCampaignResult) -> bool {
    a.records == b.records
        && a.attempts == b.attempts
        && a.fully_masked_inputs == b.fully_masked_inputs
}

/// Re-run the first unit single-threaded and compare; `(checked, bad)`.
pub fn check_gate(
    units: &[ArithUnit],
    inputs: &[Vec<[u64; 3]>],
    cfg: &CampaignConfig,
    first: &[UnitCampaignResult],
) -> (u64, u64) {
    let serial = run_unit_campaign(&units[0], &inputs[0], &gate_config(cfg.seed, 1));
    if same_result(&serial, &first[0]) {
        (1, 0)
    } else {
        eprintln!(
            "MISMATCH: {} gate campaign differs between {POOL_THREADS} threads and 1",
            units[0].kind().label()
        );
        (1, 1)
    }
}

/// Traced gate pass: one span per unit campaign. Returns the total
/// attempts (an exact-count fingerprint).
pub fn traced_gate(
    tr: &mut Tracer,
    units: &[ArithUnit],
    inputs: &[Vec<[u64; 3]>],
    cfg: &CampaignConfig,
) -> u64 {
    let mut attempts = 0u64;
    for (u, i) in units.iter().zip(inputs) {
        let (res, _) = tr.time("inject.gate.campaign", None, u.kind().label(), || {
            run_unit_campaign(u, i, cfg)
        });
        attempts += res.attempts;
        tr.count("inject.gate.inputs", i.len() as f64);
    }
    tr.count("inject.gate.attempts", attempts as f64);
    attempts
}
