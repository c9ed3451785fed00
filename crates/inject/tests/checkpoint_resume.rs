//! Kill-and-resume integration tests: a campaign interrupted mid-flight
//! (modeling a crash or SIGKILL between checkpoints) must resume from its
//! on-disk checkpoint and finish with tallies identical to an uninterrupted
//! run of the same campaign.

use std::path::PathBuf;

use swapcodes_core::Scheme;
use swapcodes_gates::units::fxp_add32;
use swapcodes_inject::{
    run_arch_campaign_checkpointed, run_arch_shard_checkpointed,
    run_recovery_campaign_checkpointed, run_unit_campaign, run_unit_campaign_checkpointed,
    ArchCampaign, CampaignConfig, CampaignOptions, CheckpointConfig, RecoveryCampaignConfig,
    ShardControl, ShardEvent, ShardSpec,
};
use swapcodes_workloads::by_name;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swapcodes-ckpt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn arch_campaign_resumes_byte_identically_after_interruption() {
    let w = by_name("kmeans").expect("kmeans workload");
    let trials = 20u64;
    let seed = 0xC0FF_EE00;

    // Reference: one uninterrupted run with no checkpoint directory at all.
    let reference = run_arch_campaign_checkpointed(
        &w,
        Scheme::SwapEcc,
        trials,
        seed,
        &CheckpointConfig {
            dir: None,
            ..CheckpointConfig::default()
        },
    )
    .expect("swap-ecc applies to kmeans");
    assert!(reference.finished);
    assert_eq!(reference.completed, trials);

    // Interrupted twice, resumed from disk each time.
    let dir = scratch_dir("arch");
    let ck = |stop_after: Option<u64>| CheckpointConfig {
        dir: Some(dir.clone()),
        interval: 4,
        stop_after,
        ..CheckpointConfig::default()
    };
    let first = run_arch_campaign_checkpointed(&w, Scheme::SwapEcc, trials, seed, &ck(Some(7)))
        .expect("prepare");
    assert!(!first.finished, "stop_after must interrupt the run");
    assert_eq!(first.completed, 7);

    let second = run_arch_campaign_checkpointed(&w, Scheme::SwapEcc, trials, seed, &ck(Some(9)))
        .expect("prepare");
    assert!(!second.finished);
    assert_eq!(second.completed, 16, "second run resumes at trial 7");

    let last = run_arch_campaign_checkpointed(&w, Scheme::SwapEcc, trials, seed, &ck(None))
        .expect("prepare");
    assert!(last.finished);
    assert_eq!(last.completed, trials);
    assert_eq!(
        last.outcomes, reference.outcomes,
        "resumed tallies diverge from the uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn arch_checkpoint_for_other_campaign_is_ignored() {
    let w = by_name("kmeans").expect("kmeans workload");
    let dir = scratch_dir("arch-stale");
    let ck = |stop_after: Option<u64>| CheckpointConfig {
        dir: Some(dir.clone()),
        interval: 2,
        stop_after,
        ..CheckpointConfig::default()
    };
    // Leave a half-finished checkpoint behind under seed A...
    let partial =
        run_arch_campaign_checkpointed(&w, Scheme::SwDup, 12, 1, &ck(Some(5))).expect("prepare");
    assert!(!partial.finished);
    // ...then run the same workload/scheme under seed B: the stale file must
    // not be trusted, so the campaign starts from scratch and matches a
    // checkpoint-free run.
    let resumed =
        run_arch_campaign_checkpointed(&w, Scheme::SwDup, 12, 2, &ck(None)).expect("prepare");
    let reference = run_arch_campaign_checkpointed(
        &w,
        Scheme::SwDup,
        12,
        2,
        &CheckpointConfig {
            dir: None,
            ..CheckpointConfig::default()
        },
    )
    .expect("prepare");
    assert!(resumed.finished);
    assert_eq!(resumed.outcomes, reference.outcomes);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoint/resume composes with the recovery ladder: a recovery campaign
/// interrupted mid-flight resumes from disk and finishes with tallies *and*
/// recovery-work stats identical to an uninterrupted run — and its on-disk
/// state is mode-tagged, so a plain campaign's checkpoint is never trusted.
#[test]
fn recovery_campaign_resumes_byte_identically_after_interruption() {
    let w = by_name("matmul").expect("matmul workload");
    let trials = 18u64;
    let seed = 0x02EC_04E2u64;
    let rcfg = RecoveryCampaignConfig::default();

    let reference = run_recovery_campaign_checkpointed(
        &w,
        Scheme::SwapEcc,
        trials,
        seed,
        &rcfg,
        &CheckpointConfig {
            dir: None,
            ..CheckpointConfig::default()
        },
    )
    .expect("swap-ecc applies to matmul");
    assert!(reference.finished);
    assert_eq!(reference.completed, trials);
    assert!(
        reference.outcomes.recovered() > 0,
        "campaign must exercise recovery: {:?}",
        reference.outcomes
    );

    let dir = scratch_dir("recover");
    let ck = |stop_after: Option<u64>| CheckpointConfig {
        dir: Some(dir.clone()),
        interval: 3,
        stop_after,
        ..CheckpointConfig::default()
    };
    // Run a *plain* campaign into the same directory first: its checkpoint
    // file is keyed differently and its mode tag is "plain", so the recovery
    // campaign below must start from zero either way.
    let _ = run_arch_campaign_checkpointed(&w, Scheme::SwapEcc, trials, seed, &ck(Some(4)));

    let first =
        run_recovery_campaign_checkpointed(&w, Scheme::SwapEcc, trials, seed, &rcfg, &ck(Some(5)))
            .expect("prepare");
    assert!(!first.finished, "stop_after must interrupt the run");
    assert_eq!(first.completed, 5);

    let second =
        run_recovery_campaign_checkpointed(&w, Scheme::SwapEcc, trials, seed, &rcfg, &ck(Some(6)))
            .expect("prepare");
    assert!(!second.finished);
    assert_eq!(second.completed, 11, "second run resumes at trial 5");

    let last =
        run_recovery_campaign_checkpointed(&w, Scheme::SwapEcc, trials, seed, &rcfg, &ck(None))
            .expect("prepare");
    assert!(last.finished);
    assert_eq!(last.completed, trials);
    assert_eq!(
        last.outcomes, reference.outcomes,
        "resumed tallies diverge from the uninterrupted run"
    );
    assert_eq!(
        last.stats, reference.stats,
        "resumed recovery stats diverge from the uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unit_campaign_resumes_byte_identically_after_interruption() {
    let unit = fxp_add32();
    let inputs: Vec<[u64; 3]> = (0..40)
        .map(|i| [i * 0x1234_5678 % 0xFFFF_FFFF, i * 999 + 7, 0])
        .collect();
    let cfg = CampaignConfig::default();

    // Reference semantics: the plain (non-checkpointed) campaign driver.
    let reference = run_unit_campaign(&unit, &inputs, &cfg);

    let dir = scratch_dir("unit");
    let ck = |stop_after: Option<u64>| CheckpointConfig {
        dir: Some(dir.clone()),
        interval: 8,
        stop_after,
        ..CheckpointConfig::default()
    };
    let first = run_unit_campaign_checkpointed(&unit, &inputs, &cfg, &ck(Some(13)));
    assert!(!first.finished);
    assert!(first.result.is_none(), "interrupted runs carry no result");
    assert_eq!(first.completed, 13);

    let second = run_unit_campaign_checkpointed(&unit, &inputs, &cfg, &ck(None));
    assert!(second.finished);
    assert_eq!(second.completed, inputs.len() as u64);
    let resumed = second.result.expect("finished runs carry a result");
    assert_eq!(resumed.records, reference.records);
    assert_eq!(resumed.fully_masked_inputs, reference.fully_masked_inputs);
    assert_eq!(resumed.attempts, reference.attempts);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn default_config_reads_checkpoint_dir_from_env() {
    // Safe against the other tests here: they all set `dir` explicitly, so
    // a concurrent default() call never reaches their checkpoint paths.
    std::env::set_var("SWAPCODES_CHECKPOINT_DIR", "/tmp/swapcodes-env-probe");
    let picked = CheckpointConfig::default().dir;
    std::env::remove_var("SWAPCODES_CHECKPOINT_DIR");
    assert_eq!(picked, Some(PathBuf::from("/tmp/swapcodes-env-probe")));
}

#[test]
fn unit_campaign_without_checkpoint_dir_matches_plain_driver() {
    let unit = fxp_add32();
    let inputs: Vec<[u64; 3]> = (0..10).map(|i| [i * 77 + 5, i * 13 + 1, 0]).collect();
    let cfg = CampaignConfig::default();
    let plain = run_unit_campaign(&unit, &inputs, &cfg);
    let run = run_unit_campaign_checkpointed(
        &unit,
        &inputs,
        &cfg,
        &CheckpointConfig {
            dir: None,
            ..CheckpointConfig::default()
        },
    );
    assert!(run.finished);
    let result = run.result.expect("result");
    assert_eq!(result.records, plain.records);
    assert_eq!(result.attempts, plain.attempts);
}

/// Checkpoints from before the record carried a schema version: a plain
/// campaign's and an `arch-shard` one, verbatim as the older harness wrote
/// them for exactly these cells. Both must be rejected loudly and the runs
/// restarted from their range starts, never resumed or misparsed.
#[test]
fn unversioned_checkpoints_restart_from_range_start() {
    const PLAIN: &str = r#"{"campaign":"arch","mode":"plain","engine":"ff2p","faultmix":"t1c0s0","workload":"kmeans","scheme":"Swap-ECC","seed":1592590337,"fuel":25296,"trials":12,"completed":5,"trap":0,"due":5,"crash":0,"hang":0,"masked":0,"sdc":0,"rec_correct":0,"rec_replay":0,"rec_relaunch":0,"miscorrected":0,"t_trap":0,"t_due":5,"t_crash":0,"t_hang":0,"t_masked":0,"t_sdc":0,"t_rec_correct":0,"t_rec_replay":0,"t_rec_relaunch":0,"t_miscorrected":0,"c_trap":0,"c_due":0,"c_crash":0,"c_hang":0,"c_masked":0,"c_sdc":0,"c_rec_correct":0,"c_rec_replay":0,"c_rec_relaunch":0,"c_miscorrected":0,"s_trap":0,"s_due":0,"s_crash":0,"s_hang":0,"s_masked":0,"s_sdc":0,"s_rec_correct":0,"s_rec_replay":0,"s_rec_relaunch":0,"s_miscorrected":0,"ckpts":0,"replays":0,"replayed":0,"corrections":0,"relaunches":0}"#;
    const SHARD: &str = r#"{"campaign":"arch-shard","engine":"ff2p","faultmix":"t1c0s0","workload":"kmeans","scheme":"SW-Dup","seed":1592590338,"fuel":28304,"start":4,"end":16,"cursor":9,"trap":4,"due":0,"crash":0,"hang":0,"masked":1,"sdc":0,"rec_correct":0,"rec_replay":0,"rec_relaunch":0,"miscorrected":0,"t_trap":4,"t_due":0,"t_crash":0,"t_hang":0,"t_masked":1,"t_sdc":0,"t_rec_correct":0,"t_rec_replay":0,"t_rec_relaunch":0,"t_miscorrected":0,"c_trap":0,"c_due":0,"c_crash":0,"c_hang":0,"c_masked":0,"c_sdc":0,"c_rec_correct":0,"c_rec_replay":0,"c_rec_relaunch":0,"c_miscorrected":0,"s_trap":0,"s_due":0,"s_crash":0,"s_hang":0,"s_masked":0,"s_sdc":0,"s_rec_correct":0,"s_rec_replay":0,"s_rec_relaunch":0,"s_miscorrected":0}"#;
    let dir = scratch_dir("unversioned");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("arch-kmeans-swap-ecc.ckpt.json"), PLAIN).expect("plain ckpt");
    std::fs::write(dir.join("legacy-shard.ckpt.json"), SHARD).expect("shard ckpt");
    let ck = |stop_after: Option<u64>| CheckpointConfig {
        dir: Some(dir.clone()),
        interval: 2,
        stop_after,
        ..CheckpointConfig::default()
    };
    let w = by_name("kmeans").expect("kmeans workload");

    // The old plain checkpoint stood at trial 5 of 12.
    let seed = 0x5EED_0001u64;
    let first = run_arch_campaign_checkpointed(&w, Scheme::SwapEcc, 12, seed, &ck(Some(3)))
        .expect("prepare");
    assert!(first.stale_engine, "an unversioned checkpoint is stale");
    assert_eq!(first.completed, 3, "run must restart from trial 0");
    let log = std::fs::read_to_string(dir.join("anomalies.jsonl")).expect("anomaly log");
    assert!(log.contains("schema version"), "rejection names why: {log}");
    let last =
        run_arch_campaign_checkpointed(&w, Scheme::SwapEcc, 12, seed, &ck(None)).expect("prepare");
    assert!(last.finished && !last.stale_engine);
    let reference = ArchCampaign::prepare(&w, Scheme::SwapEcc, seed)
        .expect("prepare")
        .run_range_classed(0, 12);
    assert_eq!(last.classes, reference);

    // The old shard checkpoint stood at trial 9 of [4, 16).
    let c = ArchCampaign::prepare_with(&w, Scheme::SwDup, 0x5EED_0002, CampaignOptions::default())
        .expect("prepare");
    let shard = ShardSpec {
        tag: "legacy-shard".to_owned(),
        start: 4,
        end: 16,
    };
    let mut adopted = false;
    let mut first_trial = None;
    let run = run_arch_shard_checkpointed(&c, &shard, &ck(None), None, |ev| {
        match ev {
            ShardEvent::Adopted { .. } => adopted = true,
            ShardEvent::Trial { trial, .. } => {
                first_trial.get_or_insert(trial);
            }
            ShardEvent::Checkpointed { .. } => {}
        }
        ShardControl::Continue
    });
    assert!(
        !adopted,
        "an unversioned shard checkpoint must not be adopted"
    );
    assert_eq!(first_trial, Some(4), "shard must restart from its start");
    assert!(run.finished);
    assert_eq!(run.classes, c.run_range_classed(4, 16));
    let log = std::fs::read_to_string(dir.join("anomalies-legacy-shard.jsonl")).expect("shard log");
    assert!(log.contains("schema version"), "rejection names why: {log}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The unit campaign's checkpoint is versioned too: stripping the version
/// from a mid-run checkpoint makes the next run restart from input 0 with
/// a logged reason, and still finish identical to the plain driver.
#[test]
fn unversioned_unit_checkpoint_restarts_loudly() {
    let unit = fxp_add32();
    let inputs: Vec<[u64; 3]> = (0..24).map(|i| [i * 0x9E37 + 3, i * 31 + 1, 0]).collect();
    let cfg = CampaignConfig::default();
    let reference = run_unit_campaign(&unit, &inputs, &cfg);
    let dir = scratch_dir("unit-unversioned");
    let ck = |stop_after: Option<u64>| CheckpointConfig {
        dir: Some(dir.clone()),
        interval: 8,
        stop_after,
        ..CheckpointConfig::default()
    };
    let first = run_unit_campaign_checkpointed(&unit, &inputs, &cfg, &ck(Some(16)));
    assert_eq!(first.completed, 16);
    let ckpt = dir.join("unit-fxp-add.ckpt.json");
    let text = std::fs::read_to_string(&ckpt).expect("unit checkpoint");
    assert!(
        text.contains("\"v\":1,"),
        "unit checkpoint is versioned: {text}"
    );
    std::fs::write(&ckpt, text.replace("\"v\":1,", "")).expect("rewrite");

    let second = run_unit_campaign_checkpointed(&unit, &inputs, &cfg, &ck(Some(8)));
    assert_eq!(second.completed, 8, "run must restart from input 0");
    assert_eq!(second.anomalies, 1);
    let log = std::fs::read_to_string(dir.join("anomalies.jsonl")).expect("anomaly log");
    assert!(log.contains("schema version"), "rejection names why: {log}");

    let last = run_unit_campaign_checkpointed(&unit, &inputs, &cfg, &ck(None));
    let result = last.result.expect("finished runs carry a result");
    assert_eq!(result.records, reference.records);
    assert_eq!(result.attempts, reference.attempts);
    let _ = std::fs::remove_dir_all(&dir);
}
