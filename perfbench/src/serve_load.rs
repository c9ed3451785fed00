//! The service phase: one client thread driving `swapcodes-serve` in
//! process through `Service::submit/wait/results` in a closed loop, and the
//! serial-reference check of every job it ran.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use swapcodes_core::Scheme;
use swapcodes_inject::{ArchCampaign, CampaignOptions, FaultClassTallies, FaultMix};
use swapcodes_serve::{JobState, Service, ServiceConfig, ShardStatus};

use crate::host::process_cpu_s;
use crate::trace::Tracer;
use crate::workload::{job_seed, JobShape, POOL_THREADS, SERVICE_WORKERS};

/// How long one job may take before the client gives up on it.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// The service configuration every run uses, spelled out field by field so
/// nothing comes from `ServiceConfig::default` (which reads the
/// environment).
pub fn service_config(dir: Option<PathBuf>) -> ServiceConfig {
    ServiceConfig {
        workers: SERVICE_WORKERS,
        shard_timeout_ms: 5_000,
        max_attempts: 4,
        backoff_base_ms: 10,
        checkpoint_interval: 16,
        dir,
        chaos: None,
    }
}

/// The engine options the service workers and the references prepare
/// campaigns with (the defaults, never `CampaignOptions::from_env`).
pub fn campaign_options(mix: FaultMix) -> CampaignOptions {
    CampaignOptions {
        mix,
        ..CampaignOptions::default()
    }
}

/// One job the client ran.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Position in the run.
    pub index: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Fault mix the service parsed from the spec.
    pub mix: FaultMix,
    /// Submit to results returned, seconds.
    pub latency_s: f64,
    /// Process CPU seconds used from submit to results returned: the
    /// workers' prepares and trials plus the service's own threads.
    pub cpu_s: f64,
    /// Whether the client traced this job (board polling instead of
    /// `Service::wait`).
    pub traced: bool,
    /// Trials the service completed.
    pub trials: u64,
    /// Job settled as `Completed`.
    pub completed: bool,
    /// Shards that ended `Failed`.
    pub failed_shards: u64,
    /// Merged per-cell tallies from the board.
    pub cells: Vec<(String, Scheme, FaultClassTallies)>,
    /// `Service::submit` time, ms (traced jobs).
    pub submit_ms: f64,
    /// `Service::results` time, ms (traced jobs).
    pub results_ms: f64,
    /// Enqueue to lease start per observed shard, ms (traced jobs).
    pub queue_waits_ms: Vec<f64>,
}

/// What one service phase produced.
#[derive(Debug, Default)]
pub struct ServeRun {
    /// Every job, in submission order.
    pub jobs: Vec<JobRecord>,
    /// Submissions the service refused.
    pub submit_errors: u64,
}

impl ServeRun {
    /// Submit, wait for and fetch job `index` of the run, recording it.
    /// With a tracer, every odd job is traced: its submit and results
    /// calls are spans and the board is polled every millisecond to sample
    /// each shard's queue wait; even jobs run untraced, so one phase
    /// measures the tracing overhead.
    pub fn run_job(
        &mut self,
        svc: &Service,
        svc_epoch: Instant,
        shape: &JobShape,
        base_seed: u64,
        tracer: Option<&mut Tracer>,
    ) {
        let index = self.jobs.len();
        let seed = job_seed(base_seed, index);
        let spec = shape.spec_json(index, seed);
        let traced = tracer.is_some() && index % 2 == 1;
        let id_label = format!("j{index}");
        let cpu_start = process_cpu_s();
        let sub_start = Instant::now();
        let submitted = svc.submit(&spec);
        let sub_end = Instant::now();
        let Ok(id) = submitted else {
            self.submit_errors += 1;
            return;
        };
        let mut waits = Vec::new();
        let settled = if traced {
            let sub_ms = sub_end.saturating_duration_since(svc_epoch).as_secs_f64() * 1e3;
            let (settled, started) = poll_board(svc, id);
            waits.extend(started.values().map(|&ms| (ms as f64 - sub_ms).max(0.0)));
            settled
        } else {
            svc.wait(id, JOB_TIMEOUT)
        };
        if !settled {
            let _ = svc.cancel(id);
        }
        let res_start = Instant::now();
        let results = svc.results(id);
        let res_end = Instant::now();
        let cpu_s = process_cpu_s() - cpu_start;
        let latency_s = res_end.duration_since(sub_start).as_secs_f64();
        if let (Some(tr), true) = (tracer, traced) {
            let job_span = tr.record("serve.job", None, &id_label, sub_start, res_end);
            tr.record(
                "serve.submit",
                Some(job_span),
                &id_label,
                sub_start,
                sub_end,
            );
            tr.record(
                "serve.results",
                Some(job_span),
                &id_label,
                res_start,
                res_end,
            );
        }
        let rec = svc.with_board(|b| {
            let job = &b.jobs[b.job_index(id).expect("submitted job is on the board")];
            JobRecord {
                index,
                seed,
                mix: job.spec.mix,
                latency_s,
                cpu_s,
                traced,
                trials: job.completed_trials(),
                completed: settled && results.is_some() && job.state == JobState::Completed,
                failed_shards: job
                    .cells
                    .iter()
                    .flat_map(|c| &c.shards)
                    .filter(|s| s.status == ShardStatus::Failed)
                    .count() as u64,
                cells: job
                    .cells
                    .iter()
                    .map(|c| (c.workload.clone(), c.scheme, c.merged().0))
                    .collect(),
                submit_ms: (sub_end - sub_start).as_secs_f64() * 1e3,
                results_ms: (res_end - res_start).as_secs_f64() * 1e3,
                queue_waits_ms: waits,
            }
        });
        self.jobs.push(rec);
    }

    /// Completed trials per process CPU second, per job: with one client
    /// the jobs tile the service phase, so each job's `trials / cpu_s` is
    /// the rate over its slice of the phase and the median over jobs is
    /// the burst-robust form of the aggregate.
    pub fn job_rates(&self) -> Vec<f64> {
        self.jobs
            .iter()
            .map(|j| j.trials as f64 / j.cpu_s.max(1e-9))
            .collect()
    }

    /// Total trials over total latency — the plain wall-clock aggregate.
    pub fn aggregate_rate(&self) -> f64 {
        let trials: u64 = self.jobs.iter().map(|j| j.trials).sum();
        let wall: f64 = self.jobs.iter().map(|j| j.latency_s).sum();
        trials as f64 / wall.max(1e-9)
    }
}

/// Run jobs back to back until `budget` has elapsed (at least one job).
pub fn closed_loop(
    svc: &Service,
    svc_epoch: Instant,
    shape: &JobShape,
    base_seed: u64,
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
) -> ServeRun {
    let mut run = ServeRun::default();
    let t0 = Instant::now();
    while run.jobs.is_empty() || t0.elapsed() < budget {
        run.run_job(svc, svc_epoch, shape, base_seed, tracer.as_deref_mut());
        if run.submit_errors > 0 {
            break;
        }
    }
    run
}

/// Poll the board every millisecond until job `id` settles, recording the
/// first-seen lease start (ms since the service epoch) of every shard.
fn poll_board(svc: &Service, id: u64) -> (bool, HashMap<(usize, usize), u64>) {
    let deadline = Instant::now() + JOB_TIMEOUT;
    let mut started = HashMap::new();
    loop {
        let settled = svc.with_board(|b| {
            let Some(i) = b.job_index(id) else {
                return true;
            };
            let job = &b.jobs[i];
            for (ci, cell) in job.cells.iter().enumerate() {
                for (si, shard) in cell.shards.iter().enumerate() {
                    if let Some(lease) = &shard.lease {
                        started.entry((ci, si)).or_insert(lease.started_ms);
                    }
                }
            }
            job.is_settled()
        });
        if settled {
            return (true, started);
        }
        if Instant::now() >= deadline {
            return (false, started);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Compare every cell of every job with a serial
/// `ArchCampaign::prepare_with(..).run_range_classed(0, trials)` on the same
/// kernel, scheme, seed and mix. Cells are spread over the pool threads;
/// each reference itself is serial. Returns `(cells checked, mismatches)`.
pub fn check_against_reference(jobs: &[JobRecord], trials: u64) -> (u64, u64) {
    let tasks: Vec<(&JobRecord, usize)> = jobs
        .iter()
        .flat_map(|j| (0..j.cells.len()).map(move |c| (j, c)))
        .collect();
    let next = AtomicUsize::new(0);
    let mismatches = Mutex::new(0u64);
    std::thread::scope(|s| {
        for _ in 0..POOL_THREADS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(job, c)) = tasks.get(i) else { break };
                let (name, scheme, merged) = &job.cells[c];
                let ok = swapcodes_workloads::by_name(name).is_some_and(|w| {
                    ArchCampaign::prepare_with(&w, *scheme, job.seed, campaign_options(job.mix))
                        .is_ok_and(|c| c.run_range_classed(0, trials) == *merged)
                });
                if !ok {
                    eprintln!(
                        "MISMATCH: job {} cell {name} x {} differs from the serial reference",
                        job.index,
                        scheme.label()
                    );
                    *mismatches.lock().expect("mismatch counter") += 1;
                }
            });
        }
    });
    let n = mismatches.into_inner().expect("mismatch counter");
    (tasks.len() as u64, n)
}
