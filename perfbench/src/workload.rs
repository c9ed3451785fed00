//! The three benchmark workloads and the fixed configuration every run
//! pins explicitly (never from the environment or the machine's core
//! count).
//!
//! Every workload runs the same three phases — a closed-loop campaign
//! service phase, a timing-sweep phase and a gate-campaign phase — so that
//! every end-to-end metric is measured on every workload. What differs is
//! the job shape and each phase's share of the measured window: each
//! workload gives one layer group most of the work and the others little.

use swapcodes_core::{PredictorSet, Scheme};
use swapcodes_gates::units::UnitKind;

/// Service worker threads.
pub const SERVICE_WORKERS: usize = 2;
/// `SweepEngine::with_threads` and `CampaignConfig::threads`.
pub const POOL_THREADS: usize = 2;
/// Set-up repetitions per untraced run, spread over the window; `setup_s`
/// is their median.
pub const SETUP_REPS: usize = 11;
/// Operand tuples per unit in one gate-campaign pass.
pub const GATE_INPUTS: usize = 250;

/// The kernels of the paper's suite — the timing sweep's full row set.
pub const ALL_KERNELS: [&str; 15] = [
    "needle", "b+tree", "mumm", "kmeans", "matmul", "lavaMD", "bprop", "gauss", "pathf", "snap",
    "hspot", "bfs", "srad_v2", "lud", "heart",
];

/// The six gate-level units of Fig. 10.
pub const UNITS: [UnitKind; 6] = [
    UnitKind::FxpAdd32,
    UnitKind::FxpMad32,
    UnitKind::FpAdd32,
    UnitKind::FpFma32,
    UnitKind::FpAdd64,
    UnitKind::FpFma64,
];

/// One campaign job as the closed-loop client submits it.
#[derive(Debug, Clone, Copy)]
pub struct JobShape {
    /// Kernels (one cell each).
    pub kernels: &'static [&'static str],
    /// Scheme label as the spec parser accepts it.
    pub scheme: &'static str,
    /// Fault mix label.
    pub mix: &'static str,
    /// Trials per cell.
    pub trials: u64,
    /// Trials per shard (one `prepare_with` per shard lease).
    pub shard_trials: u64,
    /// Durable service: fsynced checkpoints in a fresh directory.
    pub durable: bool,
}

impl JobShape {
    /// The spec document for job `index` with seed `seed`.
    pub fn spec_json(&self, index: usize, seed: u64) -> String {
        let kernels: Vec<String> = self.kernels.iter().map(|k| format!("\"{k}\"")).collect();
        format!(
            "{{\"name\":\"bench-{index}\",\"workloads\":[{}],\"schemes\":[\"{}\"],\
             \"fault_mix\":\"{}\",\"trials\":{},\"seed\":{seed},\"shard_trials\":{}}}",
            kernels.join(","),
            self.scheme,
            self.mix,
            self.trials,
            self.shard_trials
        )
    }
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// CLI name.
    pub name: &'static str,
    /// The service phase's job.
    pub job: JobShape,
    /// Kernels of the sweep phase.
    pub sweep_kernels: &'static [&'static str],
    /// Kernels per sweep repetition: the phase walks `sweep_kernels` in
    /// chunks of this many, one fresh engine per chunk. A small share gets
    /// small chunks, so its repetitions still spread over the whole run.
    pub sweep_chunk: usize,
    /// Shares of the measured window: service, sweep, gate.
    pub shares: [f64; 3],
}

/// Swap-ECC over six kernels, transient faults, 16-trial shards: prepare
/// is re-run on every lease and dominates worker time.
const PREP_JOB: JobShape = JobShape {
    kernels: &["matmul", "kmeans", "hspot", "lavaMD", "srad_v2", "pathf"],
    scheme: "swap-ecc",
    mix: "transient",
    trials: 64,
    shard_trials: 16,
    durable: false,
};

/// SW-Dup over four kernels, every fault class, one 128-trial shard per
/// cell on a durable service: trials, resume and checkpoints dominate.
const EXEC_JOB: JobShape = JobShape {
    kernels: &["matmul", "lavaMD", "bprop", "srad_v2"],
    scheme: "sw-dup",
    mix: "all",
    trials: 128,
    shard_trials: 128,
    durable: true,
};

/// The small service load the `figures` workload carries so its service
/// metrics exist: two cheap Swap-ECC cells.
const LIGHT_JOB: JobShape = JobShape {
    kernels: &["kmeans", "hspot"],
    scheme: "swap-ecc",
    mix: "transient",
    trials: 32,
    shard_trials: 16,
    durable: false,
};

/// The side sweep of the service workloads: three kernels, full scheme
/// matrix.
const SIDE_SWEEP: &[&str] = &["kmeans", "hspot", "pathf"];

/// All workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "prep-bound",
        job: PREP_JOB,
        sweep_kernels: SIDE_SWEEP,
        sweep_chunk: 1,
        shares: [0.5, 0.25, 0.25],
    },
    WorkloadDef {
        name: "exec-bound",
        job: EXEC_JOB,
        sweep_kernels: SIDE_SWEEP,
        sweep_chunk: 1,
        shares: [0.5, 0.25, 0.25],
    },
    WorkloadDef {
        name: "figures",
        job: LIGHT_JOB,
        sweep_kernels: &ALL_KERNELS,
        sweep_chunk: ALL_KERNELS.len(),
        shares: [0.1, 0.6, 0.3],
    },
];

/// Look a workload up by CLI name.
pub fn by_name(name: &str) -> Option<WorkloadDef> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The distinct schemes of the Fig. 12, 15 and 16 timing matrices.
pub fn timing_schemes() -> Vec<Scheme> {
    vec![
        Scheme::Baseline,
        Scheme::SwDup,
        Scheme::SwapEcc,
        Scheme::SwapPredict(PredictorSet::ADD_SUB),
        Scheme::SwapPredict(PredictorSet::MAD),
        Scheme::InterThread { checked: true },
        Scheme::InterThread { checked: false },
        Scheme::SwapPredict(PredictorSet::OTHER_FXP),
        Scheme::SwapPredict(PredictorSet::FP_ADD_SUB),
        Scheme::SwapPredict(PredictorSet::FP_MAD),
    ]
}

/// The Fig. 13 profile schemes.
pub fn profile_schemes() -> Vec<Scheme> {
    let mut s = vec![Scheme::Baseline];
    s.extend(Scheme::figure12_sweep());
    s
}

/// SplitMix64 finaliser: job seeds and operand streams derive from the
/// workload seed through it.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the `index`-th job of a run.
pub fn job_seed(base: u64, index: usize) -> u64 {
    mix64(base ^ mix64(index as u64 + 1))
}

/// Seed-generated operand tuples for one unit, masked to its operand
/// widths.
pub fn unit_inputs(kind: UnitKind, base: u64, count: usize) -> Vec<[u64; 3]> {
    let widths = kind.operand_widths();
    let mut state = mix64(base ^ 0x6A7E_5EED);
    (0..count)
        .map(|_| {
            let mut t = [0u64; 3];
            for (word, &w) in t.iter_mut().zip(&widths) {
                state = mix64(state);
                *word = match w {
                    0 => 0,
                    64 => state,
                    w => state & ((1u64 << w) - 1),
                };
            }
            t
        })
        .collect()
}
