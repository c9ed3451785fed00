//! SwapCodes campaign benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload prep-bound --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload (`prep-bound`, `exec-bound` or `figures`) for about
//! `--seconds` seconds and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced (the
//! rates and the job cost on the process CPU clock, see [`host`]); with
//! `--trace 1` they are the per-layer ones from a traced run, whose spans
//! are also written to `perfbench/out/`. See `perfbench/README.md`.

mod figures;
mod host;
mod replay;
mod serve_load;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use swapcodes_gates::units::{build_unit, ArithUnit};
use swapcodes_inject::{default_thread_count, CampaignOptions};
use swapcodes_serve::Service;
use swapcodes_workloads::Workload;

use crate::serve_load::{service_config, ServeRun};
use crate::trace::Tracer;
use crate::workload::{WorkloadDef, POOL_THREADS, SERVICE_WORKERS, SETUP_REPS, UNITS};

/// Every environment knob the measured code reads. The benchmark refuses to
/// run when any is set, so a run measures the configuration it prints.
const PINNED_ENV: [&str; 11] = [
    "SWAPCODES_FUEL",
    "SWAPCODES_SNAPSHOT_INTERVAL",
    "SWAPCODES_EXEC_TIER",
    "SWAPCODES_FAULT_MODEL",
    "SWAPCODES_COW_PAGE_WORDS",
    "SWAPCODES_THREADS",
    "SWAPCODES_SERVE_WORKERS",
    "SWAPCODES_SHARD_TIMEOUT_MS",
    "SWAPCODES_CHECKPOINT_DIR",
    "SWAPCODES_FAST",
    "SWAPCODES_INPUTS",
];

struct Args {
    workload: WorkloadDef,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One metric as printed.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Operations attempted and failed across every check of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, (attempted, failed): (u64, u64)) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// What one set-up built.
struct Setup {
    /// The sweep's kernels, in order.
    kernels: Vec<Workload>,
    units: Vec<ArithUnit>,
    service: Service,
    service_epoch: Instant,
    /// Seconds the set-up took.
    secs: f64,
}

/// Kernel construction (`by_name` + `build_memory` for every kernel the
/// run uses), the six gate netlists, and `Service::start` — timed as one.
fn setup(def: &WorkloadDef, dir: Option<PathBuf>, mut tr: Option<&mut Tracer>) -> Setup {
    // Sweep kernels first, in order; the job's other kernels after them.
    let mut names: Vec<&str> = def.sweep_kernels.to_vec();
    names.extend(
        def.job
            .kernels
            .iter()
            .filter(|k| !def.sweep_kernels.contains(k)),
    );
    let t0 = Instant::now();
    let mut kernels = Vec::new();
    for name in &names {
        let start = Instant::now();
        let w = swapcodes_workloads::by_name(name).expect("benchmark kernels exist");
        std::hint::black_box(w.build_memory());
        if let Some(tr) = tr.as_deref_mut() {
            tr.record("workloads.build", None, name, start, Instant::now());
        }
        kernels.push(w);
    }
    let mut units = Vec::new();
    for kind in UNITS {
        let start = Instant::now();
        units.push(build_unit(kind));
        if let Some(tr) = tr.as_deref_mut() {
            tr.record("gates.build", None, kind.label(), start, Instant::now());
        }
    }
    let service_epoch = Instant::now();
    let service = Service::start(service_config(dir));
    let secs = t0.elapsed().as_secs_f64();
    kernels.truncate(def.sweep_kernels.len());
    Setup {
        kernels,
        units,
        service,
        service_epoch,
        secs,
    }
}

/// The service directory of set-up number `rep` (durable workloads only).
fn service_dir(def: &WorkloadDef, scratch: &Path, rep: usize) -> Option<PathBuf> {
    def.job
        .durable
        .then(|| scratch.join(format!("service-{rep}")))
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Service-phase checks: every job `Completed`, no failed shards, no
/// requeues, tallies equal to the serial reference.
fn check_serve(run: &ServeRun, trials: u64, requeued: u64, tally: &mut Tally) {
    tally.add((
        run.jobs.len() as u64 + run.submit_errors,
        run.jobs.iter().filter(|j| !j.completed).count() as u64 + run.submit_errors,
    ));
    let shards: u64 = run.jobs.iter().map(|j| j.failed_shards).sum();
    tally.add((0, shards + requeued));
    tally.add(serve_load::check_against_reference(&run.jobs, trials));
}

fn print_config(def: &WorkloadDef, args: &Args) {
    let cfg = service_config(def.job.durable.then(|| PathBuf::from("<fresh dir>")));
    let opts = CampaignOptions::default();
    println!(
        "config: workload={} seed={} seconds={} trace={}",
        def.name, args.seed, args.seconds, args.trace
    );
    println!(
        "config: ServiceConfig {{ workers: {}, shard_timeout_ms: {}, max_attempts: {}, \
         backoff_base_ms: {}, checkpoint_interval: {}, dir: {:?}, chaos: None }}",
        cfg.workers,
        cfg.shard_timeout_ms,
        cfg.max_attempts,
        cfg.backoff_base_ms,
        cfg.checkpoint_interval,
        cfg.dir
    );
    println!(
        "config: CampaignOptions {{ tier: {:?}, peephole: {}, cow_page_words: {} }} mix={}",
        opts.tier, opts.peephole, opts.cow_page_words, def.job.mix
    );
    println!(
        "config: job {:?} x {} trials/cell, {} per shard; sweep/gate threads={POOL_THREADS}; \
         default_thread_count()={} (not used)",
        def.job.kernels,
        def.job.trials,
        def.job.shard_trials,
        default_thread_count()
    );
}

/// The untraced run: end-to-end metrics.
fn run_untraced(def: &WorkloadDef, args: &Args, scratch: &Path, tally: &mut Tally) -> Vec<Metric> {
    let s = setup(def, service_dir(def, scratch, 0), None);
    let mut setup_samples = vec![s.secs];
    let gcfg = figures::gate_config(args.seed, POOL_THREADS);

    // The three phases are interleaved unit by unit — one job, one sweep,
    // one gate pass — always advancing the phase furthest behind its
    // share, so every metric's samples span the whole window and see the
    // same host conditions. Further set-ups (each service shut down again
    // at once) are spread evenly over the window the same way.
    let mut serve = ServeRun::default();
    let mut sweep_reps = Vec::new();
    let mut sweep_failed = 0u64;
    let mut last_engine = None;
    let mut gate_reps = Vec::new();
    let mut first_gate = Vec::new();
    let mut used = [0.0f64; 3];
    let mut host_speed = host::HostSpeed::default();
    // Sweep repetitions per walk over all the sweep kernels.
    let rotation = s.kernels.len() / def.sweep_chunk;
    let t0 = Instant::now();
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= args.seconds
            && !serve.jobs.is_empty()
            && sweep_reps.len() >= rotation
            && !gate_reps.is_empty()
        {
            break;
        }
        if (setup_samples.len() as f64) < SETUP_REPS as f64 * elapsed / args.seconds {
            let extra = setup(def, service_dir(def, scratch, setup_samples.len()), None);
            setup_samples.push(extra.secs);
            extra.service.shutdown();
        }
        host_speed.sample();
        let phase = (0..3)
            .min_by(|&a, &b| (used[a] / def.shares[a]).total_cmp(&(used[b] / def.shares[b])))
            .expect("three phases");
        let start = Instant::now();
        match phase {
            0 => {
                serve.run_job(&s.service, s.service_epoch, &def.job, args.seed, None);
                if serve.submit_errors > 0 {
                    break;
                }
            }
            1 => {
                let first = sweep_reps.len() % rotation * def.sweep_chunk;
                let kernels = &s.kernels[first..first + def.sweep_chunk];
                let (engine, rep) = figures::sweep_once(kernels);
                sweep_failed += engine.failures().len() as u64;
                sweep_reps.push(rep);
                last_engine = Some((engine, kernels));
            }
            _ => {
                let (rep, results) =
                    figures::gate_once(&s.units, args.seed, gate_reps.len(), &gcfg);
                if gate_reps.is_empty() {
                    first_gate = results;
                }
                gate_reps.push(rep);
            }
        }
        used[phase] += start.elapsed().as_secs_f64();
    }
    let requeued = s.service.metrics().requeued;
    s.service.shutdown();
    let rss = peak_rss_mb();

    // Correctness, outside every timed window.
    check_serve(&serve, def.job.trials, requeued, tally);
    let cells: u64 = sweep_reps.iter().map(|r| r.items).sum();
    tally.add((cells, sweep_failed));
    match &last_engine {
        Some((engine, kernels)) => tally.add(figures::check_sweep(engine, kernels)),
        None => tally.add((1, 1)),
    }
    tally.add((gate_reps.len() as u64 * UNITS.len() as u64, 0));
    if first_gate.is_empty() {
        tally.add((1, 1));
    } else {
        let inputs = figures::gate_inputs(args.seed, 0);
        tally.add(figures::check_gate(&s.units, &inputs, &gcfg, &first_gate));
    }

    let latencies: Vec<f64> = serve.jobs.iter().map(|j| j.latency_s).collect();
    let job_cpu: Vec<f64> = serve.jobs.iter().map(|j| j.cpu_s).collect();
    // Kernels differ in cost, so the sweep rate pools whole rotations: a
    // partial one would tilt the kernel mix.
    let sweep = figures::Rep::pooled(&sweep_reps[..sweep_reps.len() / rotation * rotation]);
    let gate_rates: Vec<f64> = gate_reps.iter().map(figures::Rep::rate).collect();
    // The wall-clock figures, for reading only: on a shared host they
    // mostly measure the neighbours (see `host`).
    let gate_wall: Vec<f64> = gate_reps.iter().map(figures::Rep::wall_rate).collect();
    println!(
        "samples: {} jobs ({:.1} trials/s over the summed job wall time, wall p50 {:.4} s), \
         {} sweep reps ({:.2} cells/s wall), {} gate reps ({:.0} inputs/s wall), {} set-ups",
        serve.jobs.len(),
        serve.aggregate_rate(),
        median(&latencies),
        sweep_reps.len(),
        sweep.wall_rate(),
        gate_reps.len(),
        median(&gate_wall),
        setup_samples.len()
    );
    // Rates and times at reference host speed: rates divided by the host
    // speed index, times multiplied by it (see `host`).
    let raw = [
        median(&serve.job_rates()),
        median(&job_cpu),
        sweep.rate(),
        median(&gate_rates),
        median(&setup_samples),
    ];
    println!(
        "raw: trials {:.2}/cpu-s, job {:.4} cpu-s, sweep {:.3} cells/cpu-s, \
         gate {:.1} inputs/cpu-s, set-up {:.6} s; {}",
        raw[0],
        raw[1],
        raw[2],
        raw[3],
        raw[4],
        host_speed.describe()
    );
    let h = host_speed.index();
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("trials_per_cpu_s", raw[0] / h, "1/s"),
        m("job_cpu_p50_s", raw[1] * h, "s"),
        m("sweep_cells_per_cpu_s", raw[2] / h, "1/s"),
        m("gate_inputs_per_cpu_s", raw[3] / h, "1/s"),
        m("setup_s", raw[4] * h, "s"),
        m("peak_rss_mb", rss, "MB"),
    ]
}

/// Counters read after the first replayed job: the exact-count
/// fingerprints for the seed.
#[derive(Default)]
struct Fingerprint {
    snapshots: f64,
    peephole_removed: f64,
    prepare_calls: f64,
    early_exits: f64,
    checkpoints: f64,
}

/// The traced run: per-layer metrics.
fn run_traced(def: &WorkloadDef, args: &Args, scratch: &Path, tally: &mut Tally) -> Vec<Metric> {
    let mut tr = Tracer::default();
    let s = setup(def, service_dir(def, scratch, 0), Some(&mut tr));
    let share = |i: usize| Duration::from_secs_f64(args.seconds * def.shares[i]);

    let serve = serve_load::closed_loop(
        &s.service,
        s.service_epoch,
        &def.job,
        args.seed,
        share(0),
        Some(&mut tr),
    );
    let requeued = s.service.metrics().requeued;
    s.service.shutdown();

    // Replay the service's jobs in order until the replay's share is used
    // (always at least the first job, which carries the fingerprints).
    let replay_dir = def.job.durable.then(|| scratch.join("replay"));
    let t0 = Instant::now();
    let mut replayed = Vec::new();
    let mut fp = None;
    let mut replay_bad = 0u64;
    for job in &serve.jobs {
        if !replayed.is_empty() && t0.elapsed() >= share(0) {
            break;
        }
        let before = tr.total_ms("inject.prepare") + tr.total_ms("inject.harness.shard");
        replay_bad += replay::replay_job(&mut tr, job, &def.job, replay_dir.as_deref());
        let work = tr.total_ms("inject.prepare") + tr.total_ms("inject.harness.shard") - before;
        replayed.push((job.latency_s * 1e3, work));
        if fp.is_none() {
            fp = Some(Fingerprint {
                snapshots: tr.counter("sim.snapshots"),
                peephole_removed: tr.counter("core.peephole_removed"),
                prepare_calls: tr.counter("inject.prepare_calls"),
                early_exits: tr.counter("inject.tel.early_exits"),
                checkpoints: tr.durations_ms("inject.harness.checkpoint").len() as f64,
            });
        }
    }
    // Only a refused first submission leaves nothing to replay; that run
    // already counts as failed.
    let fp = fp.unwrap_or_default();

    let issued = figures::traced_sweep(&mut tr, &s.kernels);
    let inputs = figures::gate_inputs(args.seed, 0);
    let gcfg = figures::gate_config(args.seed, POOL_THREADS);
    let gate_attempts = figures::traced_gate(&mut tr, &s.units, &inputs, &gcfg);

    let trace_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.jsonl", def.name, args.seed));
    if let Err(e) = tr.write_jsonl(&trace_path) {
        eprintln!("could not write {}: {e}", trace_path.display());
    }

    check_serve(&serve, def.job.trials, requeued, tally);
    tally.add((
        replayed.len() as u64 * def.job.kernels.len() as u64,
        replay_bad,
    ));

    // Tracing overhead: traced jobs' throughput per CPU second, the
    // end-to-end clock, against the untraced jobs of the same phase.
    let tps = |traced: bool| {
        let (t, c) = serve
            .jobs
            .iter()
            .filter(|j| j.traced == traced)
            .fold((0.0, 0.0), |(t, c), j| (t + j.trials as f64, c + j.cpu_s));
        ratio(t, c)
    };
    let overhead = ratio(tps(false), tps(true)) - 1.0;
    let traced_jobs: Vec<_> = serve.jobs.iter().filter(|j| j.traced).collect();
    let waits: Vec<f64> = traced_jobs
        .iter()
        .flat_map(|j| j.queue_waits_ms.iter().copied())
        .collect();
    let (wall_ms, work_ms) = replayed
        .iter()
        .fold((0.0, 0.0), |(a, b), (l, w)| (a + l, b + w));
    let workers = SERVICE_WORKERS as f64;
    let prepare = tr.total_ms("inject.prepare");
    let shard = tr.total_ms("inject.harness.shard");
    let tel_trials = tr.counter("inject.tel.trials");
    let first_shard = tr.counter("inject.harness.first_shard_ms");
    let cell_ms = tr.total_ms("sim.timing.cell");
    let gate_ms = tr.total_ms("inject.gate.campaign");
    let inputs_total = tr.counter("inject.gate.inputs");
    println!(
        "samples: {} jobs ({} traced), {} replayed, {} queue-wait samples",
        serve.jobs.len(),
        traced_jobs.len(),
        replayed.len(),
        waits.len()
    );
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("workloads.build_ms", tr.mean_ms("workloads.build"), "ms"),
        m(
            "serve.submit_ms",
            median(&traced_jobs.iter().map(|j| j.submit_ms).collect::<Vec<_>>()),
            "ms",
        ),
        m("serve.queue_wait_ms", median(&waits), "ms"),
        m(
            "serve.results_ms",
            median(&traced_jobs.iter().map(|j| j.results_ms).collect::<Vec<_>>()),
            "ms",
        ),
        m(
            "serve.worker_busy_frac",
            ratio(work_ms, workers * wall_ms),
            "ratio",
        ),
        m(
            "serve.self_ms",
            ratio(wall_ms - work_ms / workers, replayed.len() as f64),
            "ms",
        ),
        m("serve.requeued", requeued as f64, "count"),
        m("verify.gate_ms", tr.mean_ms("verify.gate"), "ms"),
        m("core.apply_ms", tr.mean_ms("core.apply"), "ms"),
        m("core.peephole_ms", tr.mean_ms("core.peephole"), "ms"),
        m("core.peephole_removed", fp.peephole_removed, "count"),
        m("sim.golden_ms", tr.mean_ms("sim.golden"), "ms"),
        m("sim.capture_ms", tr.mean_ms("sim.capture"), "ms"),
        m("sim.snapshots", fp.snapshots, "count"),
        m("inject.prepare_ms", tr.mean_ms("inject.prepare"), "ms"),
        m("inject.prepare_calls", fp.prepare_calls, "count"),
        m(
            "inject.prepare_share",
            ratio(prepare, prepare + shard),
            "ratio",
        ),
        m(
            "inject.trial_us",
            1e3 * ratio(
                tr.total_ms("inject.harness.trials"),
                tr.counter("inject.harness.trial_events"),
            ),
            "us",
        ),
        m(
            "inject.ns_per_instr",
            1e6 * ratio(
                tr.total_ms("inject.telemetry"),
                tr.counter("inject.tel.executed"),
            ),
            "ns",
        ),
        m(
            "inject.resume_skip_frac",
            ratio(
                tr.counter("inject.tel.resumed_from"),
                tr.counter("inject.tel.golden_dynamic"),
            ),
            "ratio",
        ),
        m(
            "inject.early_exit_rate",
            ratio(tr.counter("inject.tel.early_exits"), tel_trials),
            "ratio",
        ),
        m("inject.early_exits", fp.early_exits, "count"),
        m(
            "inject.bytes_cloned_per_trial",
            ratio(tr.counter("inject.tel.bytes_cloned"), tel_trials),
            "bytes",
        ),
        m(
            "inject.cow_page_hit_rate",
            1.0 - ratio(
                tr.counter("inject.tel.pages_cloned"),
                tr.counter("inject.tel.pages_total"),
            ),
            "ratio",
        ),
        m(
            "inject.harness.shard_overhead_frac",
            ratio(
                first_shard - tr.total_ms("inject.harness.range"),
                first_shard,
            ),
            "ratio",
        ),
        m(
            "inject.harness.checkpoint_ms",
            tr.mean_ms("inject.harness.checkpoint"),
            "ms",
        ),
        m("inject.harness.checkpoints", fp.checkpoints, "count"),
        m("sim.timing.cell_ms", tr.mean_ms("sim.timing.cell"), "ms"),
        m(
            "sim.timing.warp_instr_per_s",
            ratio(issued as f64, cell_ms / 1e3),
            "1/s",
        ),
        m("sim.timing.issued", issued as f64, "count"),
        m("bench.profile_ms", tr.mean_ms("bench.profile"), "ms"),
        m(
            "bench.sweep.parallel_eff",
            ratio(
                tr.total_ms("bench.cell") + tr.total_ms("bench.profile"),
                POOL_THREADS as f64 * tr.counter("bench.sweep.wall_ms"),
            ),
            "ratio",
        ),
        m("gates.build_ms", tr.mean_ms("gates.build"), "ms"),
        m(
            "inject.gate.ns_per_attempt",
            1e6 * ratio(gate_ms, gate_attempts as f64),
            "ns",
        ),
        m(
            "inject.gate.attempts_per_input",
            ratio(gate_attempts as f64, inputs_total),
            "count",
        ),
        m("inject.gate.attempts", gate_attempts as f64, "count"),
        m("trace.overhead_frac", overhead, "ratio"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: perfbench --workload prep-bound|exec-bound|figures --seed N \
                 --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(var) = PINNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("refusing to run: {var} is set; the benchmark pins every SWAPCODES_* knob");
        return ExitCode::from(2);
    }
    let allocator_fixed = host::fix_allocator_thresholds();
    let def = args.workload;
    print_config(&def, &args);
    println!(
        "config: malloc trim_threshold={} mmap_threshold={} (fixed: {allocator_fixed})",
        host::TRIM_THRESHOLD,
        host::MMAP_THRESHOLD
    );

    let scratch = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("run-{}", std::process::id()));
    let mut tally = Tally::default();
    let metrics = if args.trace {
        run_traced(&def, &args, &scratch, &mut tally)
    } else {
        run_untraced(&def, &args, &scratch, &mut tally)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    // Leaves `out/` in place only when a traced run wrote into it.
    let _ = std::fs::remove_dir(scratch.parent().expect("scratch is under out/"));

    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            body,
            "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    ExitCode::SUCCESS
}
