//! End-to-end robustness tests over a live campaign service.
//!
//! The acceptance property throughout: because every trial is a pure
//! function of `(seed, trial index)`, the service's merged per-cell
//! tallies must be **byte-identical** to a single-threaded serial run of
//! the same campaign — no matter how many worker attempts were killed
//! (panic, vanish, hang), how shards were interleaved across the pool, or
//! whether the whole service process was torn down and restarted from its
//! persisted state mid-campaign.

use std::path::PathBuf;
use std::time::Duration;

use proptest::prelude::*;
use swapcodes_core::Scheme;
use swapcodes_inject::{ArchCampaign, CampaignOptions, FaultClassTallies, FaultMix};
use swapcodes_serve::{
    ChaosAction, ChaosConfig, JobState, Service, ServiceConfig, ShardStatus, SubmitError,
};
use swapcodes_workloads::by_name;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swapcodes-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The serial single-threaded reference for one cell: same seed, same mix,
/// same engine options the service workers use.
fn serial_reference(
    workload: &str,
    scheme: Scheme,
    seed: u64,
    mix: FaultMix,
    trials: u64,
) -> FaultClassTallies {
    let w = by_name(workload).expect("workload");
    let opts = CampaignOptions {
        mix,
        ..CampaignOptions::from_env()
    };
    let campaign = ArchCampaign::prepare_with(&w, scheme, seed, opts).expect("cell prepares");
    campaign.run_range_classed(0, trials)
}

/// Every cell of a settled job matches its serial reference byte-for-byte.
fn assert_cells_match_reference(service: &Service, id: u64) {
    let (cells, seed, mix, trials) = service.with_board(|b| {
        let job = &b.jobs[b.job_index(id).expect("job on board")];
        let cells: Vec<(String, Scheme, FaultClassTallies)> = job
            .cells
            .iter()
            .map(|c| (c.workload.clone(), c.scheme, c.merged().0))
            .collect();
        (cells, job.spec.seed, job.spec.mix, job.spec.trials)
    });
    for (workload, scheme, merged) in cells {
        let reference = serial_reference(&workload, scheme, seed, mix, trials);
        assert_eq!(
            merged,
            reference,
            "{workload} x {} diverges from the serial reference",
            scheme.label()
        );
    }
}

const WAIT: Duration = Duration::from_secs(300);

/// Acceptance: with *every* first attempt chaos-killed (well past the
/// "≥25% of workers killed" bar) across all three kill styles, every shard
/// still completes within the retry budget and the merged tallies are
/// byte-identical to the serial reference.
#[test]
fn chaos_killing_every_first_attempt_preserves_byte_identical_tallies() {
    let dir = scratch_dir("chaos");
    let cfg = ServiceConfig {
        workers: 4,
        shard_timeout_ms: 400,
        max_attempts: 4,
        backoff_base_ms: 5,
        checkpoint_interval: 5,
        dir: Some(dir.clone()),
        chaos: Some(ChaosConfig::new(
            0xC4A0_5BAD,
            1000,
            vec![ChaosAction::Panic, ChaosAction::Vanish, ChaosAction::Hang],
        )),
    };
    let service = Service::start(cfg);
    let id = service
        .submit(
            r#"{"name":"chaos","workloads":["kmeans","matmul"],
                "schemes":["swap-ecc","sw-dup"],"fault_mix":"all",
                "trials":24,"seed":77,"shard_trials":12}"#,
        )
        .expect("spec is admissible");
    assert!(service.wait(id, WAIT), "job must settle despite chaos");

    service.with_board(|b| {
        let job = &b.jobs[b.job_index(id).expect("job")];
        assert_eq!(job.state, JobState::Completed, "all shards within budget");
        for cell in &job.cells {
            for shard in &cell.shards {
                assert_eq!(shard.status, ShardStatus::Done, "{}", shard.spec.tag);
                assert_eq!(shard.cursor, shard.spec.end);
            }
        }
    });
    assert_cells_match_reference(&service, id);

    let m = service.metrics();
    // 2 workloads x 2 schemes x 2 shards = 8 first attempts, all killed.
    assert!(m.requeued >= 8, "every first attempt requeues: {m:?}");
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Kill-and-resume chaos property: whatever the kill schedule (seed and
    /// kill fraction drawn per case), a settled campaign's merged tallies
    /// match the serial reference byte-for-byte.
    #[test]
    fn chaos_schedule_never_perturbs_tallies(
        chaos_seed in 0u64..u64::MAX,
        kill_permille in 250u64..=1000,
    ) {
        let dir = scratch_dir(&format!("prop-{chaos_seed:x}"));
        let cfg = ServiceConfig {
            workers: 3,
            shard_timeout_ms: 400,
            max_attempts: 4,
            backoff_base_ms: 5,
            checkpoint_interval: 4,
            dir: Some(dir.clone()),
            chaos: Some(ChaosConfig::new(
                chaos_seed,
                kill_permille,
                vec![ChaosAction::Panic, ChaosAction::Vanish, ChaosAction::Hang],
            )),
        };
        let service = Service::start(cfg);
        let id = service
            .submit(
                r#"{"name":"prop","workloads":["kmeans"],
                    "schemes":["swap-ecc","sw-dup"],"fault_mix":"transient:2,control:1",
                    "trials":24,"seed":3,"shard_trials":12}"#,
            )
            .expect("spec is admissible");
        prop_assert!(service.wait(id, WAIT), "job must settle despite chaos");
        let state = service.with_board(|b| b.jobs[b.job_index(id).unwrap()].state);
        prop_assert_eq!(state, JobState::Completed);
        assert_cells_match_reference(&service, id);
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A shard that hangs on *every* attempt is deadlined by the monitor,
/// requeued with backoff, and capped by the retry budget — degrading its
/// own job to `Degraded` while a second tenant's job completes untouched.
#[test]
fn hung_shard_is_deadlined_requeued_and_budget_capped_without_stalling_tenants() {
    let cfg = ServiceConfig {
        workers: 3,
        shard_timeout_ms: 60,
        max_attempts: 2,
        backoff_base_ms: 5,
        checkpoint_interval: 4,
        dir: None,
        chaos: Some(ChaosConfig {
            seed: 0xDEAD_10CC,
            kill_permille: 1000,
            actions: vec![ChaosAction::Hang],
            // Hang *every* attempt of job 0's shards; job 1 is untouched.
            first_attempt_only: false,
            only_tag_containing: Some("j0-".to_owned()),
        }),
    };
    let service = Service::start(cfg);
    let victim = service
        .submit(
            r#"{"name":"victim","workloads":["kmeans"],"schemes":["swap-ecc"],
                "trials":16,"seed":5,"shard_trials":16}"#,
        )
        .expect("victim spec");
    let bystander = service
        .submit(
            r#"{"name":"bystander","workloads":["kmeans"],"schemes":["sw-dup"],
                "trials":16,"seed":5,"shard_trials":8}"#,
        )
        .expect("bystander spec");
    assert_eq!((victim, bystander), (0, 1));

    assert!(
        service.wait(bystander, WAIT),
        "bystander must complete while the victim's shard hangs"
    );
    assert!(
        service.wait(victim, WAIT),
        "victim must settle once its retry budget is spent"
    );

    service.with_board(|b| {
        let v = &b.jobs[b.job_index(victim).expect("victim job")];
        assert_eq!(v.state, JobState::Degraded, "budget exhaustion degrades");
        let shard = &v.cells[0].shards[0];
        assert_eq!(shard.status, ShardStatus::Failed);
        assert_eq!(shard.failures, 2, "exactly max_attempts losses");
        let err = shard.last_error.as_deref().expect("loss reason recorded");
        assert!(err.contains("lost"), "loss-flavored error, got {err:?}");
        assert!(v.status_json().contains("\"state\":\"degraded\""));

        let by = &b.jobs[b.job_index(bystander).expect("bystander job")];
        assert_eq!(by.state, JobState::Completed);
    });
    assert_cells_match_reference(&service, bystander);

    let m = service.metrics();
    assert!(m.requeued >= 2, "both hung attempts count: {m:?}");
    assert!(m.recoveries >= 1, "monitor detected the loss: {m:?}");
    service.shutdown();
}

/// Full service teardown mid-campaign (modeling a crash or SIGKILL of the
/// whole process after checkpoints were flushed) followed by a fresh
/// `Service::start` over the same directory: the restarted generation
/// resumes from the persisted job files and shard checkpoints and finishes
/// byte-identical to the serial reference.
#[test]
fn service_restart_resumes_persisted_jobs_byte_identically() {
    let dir = scratch_dir("restart");
    let cfg = || ServiceConfig {
        workers: 2,
        shard_timeout_ms: 400,
        max_attempts: 4,
        backoff_base_ms: 5,
        checkpoint_interval: 2,
        dir: Some(dir.clone()),
        chaos: None,
    };

    // Generation 1: submit, let it make some progress, tear it down.
    let gen1 = Service::start(cfg());
    let id = gen1
        .submit(
            r#"{"name":"restart","workloads":["kmeans"],"schemes":["swap-ecc"],
                "fault_mix":"all","trials":24,"seed":11,"shard_trials":8}"#,
        )
        .expect("spec");
    let deadline = std::time::Instant::now() + WAIT;
    loop {
        let done = gen1.with_board(|b| {
            let job = &b.jobs[b.job_index(id).expect("job")];
            job.completed_trials() > 0
        });
        if done || std::time::Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    gen1.shutdown();

    // Generation 2: a fresh service over the same directory adopts the
    // persisted job and the shards' trusted prefixes.
    let gen2 = Service::start(cfg());
    let resumed = gen2.with_board(|b| b.job_index(id).is_some());
    assert!(resumed, "restart must resume the persisted job");
    assert!(gen2.wait(id, WAIT), "resumed job must finish");
    gen2.with_board(|b| {
        let job = &b.jobs[b.job_index(id).expect("job")];
        assert_eq!(job.state, JobState::Completed);
        assert_eq!(job.completed_trials(), job.total_trials());
    });
    assert_cells_match_reference(&gen2, id);
    gen2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cancellation settles the job promptly (running shards stop at the next
/// issue boundary) and other tenants are unaffected.
#[test]
fn cancelled_job_settles_and_other_tenants_finish() {
    let service = Service::start(ServiceConfig {
        workers: 2,
        shard_timeout_ms: 400,
        max_attempts: 4,
        backoff_base_ms: 5,
        checkpoint_interval: 8,
        dir: None,
        chaos: None,
    });
    let doomed = service
        .submit(
            r#"{"name":"doomed","workloads":["kmeans","matmul"],"schemes":["swap-ecc"],
                "trials":64,"seed":1,"shard_trials":16}"#,
        )
        .expect("spec");
    let survivor = service
        .submit(
            r#"{"name":"survivor","workloads":["kmeans"],"schemes":["sw-dup"],
                "trials":12,"seed":2,"shard_trials":6}"#,
        )
        .expect("spec");
    assert!(service.cancel(doomed), "known job cancels");
    assert!(!service.cancel(999), "unknown job does not");
    assert!(service.wait(doomed, WAIT), "cancelled job settles");
    assert!(service.wait(survivor, WAIT), "survivor completes");
    service.with_board(|b| {
        assert_eq!(
            b.jobs[b.job_index(doomed).unwrap()].state,
            JobState::Cancelled
        );
        assert_eq!(
            b.jobs[b.job_index(survivor).unwrap()].state,
            JobState::Completed
        );
    });
    assert_cells_match_reference(&service, survivor);
    service.shutdown();
}

/// The prepared-campaign cache is seed-free and survives chaos: two jobs
/// over the same cells with different seeds, then a third whose every first
/// shard attempt is killed and re-leased on the warm cache, all merge
/// byte-identically to their serial references — and each distinct cell is
/// prepared exactly once.
#[test]
fn warm_cache_serves_new_seeds_and_re_leased_shards_byte_identically() {
    let dir = scratch_dir("warm-cache");
    let service = Service::start(ServiceConfig {
        workers: 3,
        shard_timeout_ms: 400,
        max_attempts: 4,
        backoff_base_ms: 5,
        checkpoint_interval: 3,
        dir: Some(dir.clone()),
        chaos: Some(ChaosConfig {
            only_tag_containing: Some("j2-".to_owned()),
            ..ChaosConfig::new(
                0x5EED_CA5E,
                1000,
                vec![ChaosAction::Panic, ChaosAction::Vanish, ChaosAction::Hang],
            )
        }),
    });
    let spec = |seed: u64| {
        format!(
            r#"{{"name":"warm","workloads":["kmeans","hspot"],
                "schemes":["swap-ecc","sw-dup"],"fault_mix":"all",
                "trials":24,"seed":{seed},"shard_trials":12}}"#
        )
    };
    for (expected_id, seed) in [11u64, 12, 13].into_iter().enumerate() {
        let id = service.submit(&spec(seed)).expect("spec is admissible");
        assert_eq!(id, expected_id as u64);
        assert!(service.wait(id, WAIT), "job {id} must settle");
        let state = service.with_board(|b| b.jobs[b.job_index(id).expect("job")].state);
        assert_eq!(state, JobState::Completed);
        assert_cells_match_reference(&service, id);
    }

    let m = service.metrics();
    // 2 workloads x 2 schemes, 2 shards each; job 2's first attempts died.
    assert_eq!(m.prepare_fills, 4, "one fill per distinct cell: {m:?}");
    assert!(m.requeued >= 8, "every chaos first attempt requeues: {m:?}");
    assert!(m.prepare_hits >= 3 * 8 + 8 - 4, "{m:?}");
    assert_eq!(m.prepare_evictions, 0);
    assert!(m.prepare_resident_bytes > 0);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Submitting garbage never reaches the queue: malformed JSON, bad fields
/// and verify-gate rejections all come back as structured errors.
#[test]
fn submit_rejects_structurally_with_verify_findings() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let err = service.submit("not json").expect_err("garbage");
    assert!(matches!(err, SubmitError::Spec(_)));
    assert!(err.to_json().contains("\"error\":\"bad_json\""));

    let err = service
        .submit(r#"{"workloads":["no-such-workload"],"schemes":["swap-ecc"]}"#)
        .expect_err("unknown workload");
    assert!(matches!(err, SubmitError::Gate(_)));
    assert!(err.to_json().contains("\"error\":\"unknown_workload\""));
    service.shutdown();
}
