//! Traced replay of the service's jobs: the work a worker does on every
//! shard lease, called directly so each call into a layer is one span.
//!
//! Per cell the parts of `ArchCampaign::prepare_with` are called once on
//! their own (`core::apply`, `core::peephole`, the fault-free
//! `Executor::run`, `CampaignEngine::capture_config`) together with the
//! service's verify gate. Per shard — exactly as `run_leased_shard` does —
//! `prepare_with` and `run_arch_shard_checkpointed` run with the service's
//! checkpoint settings. On each cell's first shard the same range is also
//! run through `run_range_classed` (harness overhead) and trial by trial
//! through `run_trial_telemetry_salted` (resume/CoW telemetry).

use std::path::Path;
use std::time::Instant;

use swapcodes_inject::{
    run_arch_shard_checkpointed, ArchCampaign, CheckpointConfig, FaultClassTallies, ShardControl,
    ShardEvent, ShardSpec,
};
use swapcodes_sim::exec::ExecConfig;
use swapcodes_sim::{CampaignEngine, Executor};

use crate::serve_load::{campaign_options, JobRecord};
use crate::trace::Tracer;
use crate::workload::JobShape;

/// Replay one job; returns the number of cells whose replayed tallies
/// differ from the service's merged tallies.
pub fn replay_job(tr: &mut Tracer, job: &JobRecord, shape: &JobShape, dir: Option<&Path>) -> u64 {
    let mut mismatches = 0u64;
    let job_span = tr.open("replay.job", None, &format!("j{}", job.index));
    for (ci, (name, scheme, served)) in job.cells.iter().enumerate() {
        let id = format!("j{}/{name}", job.index);
        let Some(w) = swapcodes_workloads::by_name(name) else {
            mismatches += 1;
            continue;
        };
        // The verify gate and the parts of prepare, each once per cell.
        let (applied, apply_span) = tr.time("core.apply", Some(job_span), &id, || {
            swapcodes_core::apply(*scheme, &w.kernel, w.launch)
        });
        let Ok(t) = applied else {
            mismatches += 1;
            continue;
        };
        let ((kernel, peep), _) = tr.time("core.peephole", Some(apply_span), &id, || {
            swapcodes_core::peephole(&t.kernel)
        });
        tr.count("core.peephole_removed", peep.removed() as f64);
        let (report, _) = tr.time("verify.gate", Some(apply_span), &id, || {
            swapcodes_verify::verify(*scheme, &kernel)
        });
        if !report.is_clean() {
            mismatches += 1;
        }
        let exec = Executor {
            config: ExecConfig {
                protection: t.protection,
                cta_limit: Some(1),
                ..ExecConfig::default()
            },
        };
        let mut mem = w.build_memory();
        let (golden, _) = tr.time("sim.golden", Some(apply_span), &id, || {
            exec.run(&kernel, t.launch, &mut mem)
        });
        let Ok(golden) = golden else {
            mismatches += 1;
            continue;
        };
        let opts = campaign_options(job.mix);
        let interval = (golden.dynamic_instructions / 32).max(512);
        let initial = w.build_memory();
        let (captured, _) = tr.time("sim.capture", Some(apply_span), &id, || {
            CampaignEngine::capture_config(
                &kernel,
                t.launch,
                t.protection,
                &initial,
                interval,
                &ExecConfig {
                    tier: opts.tier,
                    cow_page_words: opts.cow_page_words,
                    ..ExecConfig::default()
                },
            )
        });
        if captured.is_err() {
            mismatches += 1;
        }

        // The per-lease work, shard by shard.
        let mut merged = FaultClassTallies::default();
        let mut start = 0u64;
        let mut si = 0usize;
        while start < shape.trials {
            let end = (start + shape.shard_trials).min(shape.trials);
            let sid = format!("{id}/s{si}");
            let (campaign, _) = tr.time("inject.prepare", Some(job_span), &sid, || {
                ArchCampaign::prepare_with(&w, *scheme, job.seed, opts)
            });
            tr.count("inject.prepare_calls", 1.0);
            let Ok(campaign) = campaign else {
                mismatches += 1;
                break;
            };
            if si == 0 {
                tr.count("sim.snapshots", campaign.snapshot_count() as f64);
            }
            let (shard_classes, shard_ms) =
                replay_shard(tr, &campaign, &sid, start, end, dir, job_span);
            merged.merge(&shard_classes);
            if si == 0 {
                tr.count("inject.harness.first_shard_ms", shard_ms);
                if replay_range(tr, &campaign, &sid, start, end) != shard_classes {
                    mismatches += 1;
                }
                replay_telemetry(tr, &campaign, &sid, start, end);
            }
            start = end;
            si += 1;
        }
        if merged != *served {
            eprintln!(
                "MISMATCH: replay of job {} cell {ci} ({name}) differs from the service",
                job.index
            );
            mismatches += 1;
        }
    }
    tr.close(job_span);
    mismatches
}

/// One `run_arch_shard_checkpointed` call as the service makes it, with
/// the trial and checkpoint events as child spans. Returns the tallies and
/// the call's duration in ms.
fn replay_shard(
    tr: &mut Tracer,
    campaign: &ArchCampaign<'_>,
    sid: &str,
    start: u64,
    end: u64,
    dir: Option<&Path>,
    parent: usize,
) -> (FaultClassTallies, f64) {
    let ck = CheckpointConfig {
        dir: dir.map(Path::to_path_buf),
        interval: 16,
        max_retries: 3,
        stop_after: None,
    };
    let shard = ShardSpec {
        tag: format!("replay-{sid}"),
        start,
        end,
    };
    let mut last_trial = None;
    let mut trials = 0u64;
    let mut checkpoints: Vec<(Instant, Instant)> = Vec::new();
    let t0 = Instant::now();
    let run = run_arch_shard_checkpointed(campaign, &shard, &ck, None, |ev| {
        let now = Instant::now();
        match ev {
            ShardEvent::Trial { .. } => {
                trials += 1;
                last_trial = Some(now);
            }
            ShardEvent::Checkpointed { .. } => {
                checkpoints.push((last_trial.unwrap_or(t0), now));
            }
            ShardEvent::Adopted { .. } => {}
        }
        ShardControl::Continue
    });
    let t1 = Instant::now();
    let span = tr.record("inject.harness.shard", Some(parent), sid, t0, t1);
    for (a, b) in checkpoints {
        tr.record("inject.harness.checkpoint", Some(span), sid, a, b);
    }
    if let Some(last) = last_trial {
        tr.record("inject.harness.trials", Some(span), sid, t0, last);
    }
    tr.count("inject.harness.trial_events", trials as f64);
    (run.classes, (t1 - t0).as_secs_f64() * 1e3)
}

/// The same range through the plain serial driver.
fn replay_range(
    tr: &mut Tracer,
    campaign: &ArchCampaign<'_>,
    sid: &str,
    start: u64,
    end: u64,
) -> FaultClassTallies {
    let (classes, _) = tr.time("inject.harness.range", None, sid, || {
        campaign.run_range_classed(start, end)
    });
    classes
}

/// The same range trial by trial with fast-forward telemetry.
fn replay_telemetry(tr: &mut Tracer, campaign: &ArchCampaign<'_>, sid: &str, start: u64, end: u64) {
    let golden = campaign.golden_dynamic();
    let mut sums = [0u64; 7];
    let t0 = Instant::now();
    for trial in start..end {
        let (_, t) = campaign.run_trial_telemetry_salted(trial, 0);
        for (sum, v) in sums.iter_mut().zip([
            1,
            t.resumed_from,
            t.executed,
            u64::from(t.early_exit),
            t.bytes_cloned,
            t.cow_pages_cloned,
            t.cow_pages_total,
        ]) {
            *sum += v;
        }
    }
    tr.record("inject.telemetry", None, sid, t0, Instant::now());
    for (name, v) in [
        "inject.tel.trials",
        "inject.tel.resumed_from",
        "inject.tel.executed",
        "inject.tel.early_exits",
        "inject.tel.bytes_cloned",
        "inject.tel.pages_cloned",
        "inject.tel.pages_total",
    ]
    .into_iter()
    .zip(sums)
    {
        tr.count(name, v as f64);
    }
    tr.count("inject.tel.golden_dynamic", (golden * sums[0]) as f64);
}
