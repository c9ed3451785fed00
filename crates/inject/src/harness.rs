//! Crash containment and checkpoint/resume for injection campaigns.
//!
//! Real injection campaigns are huge (§IV runs hundreds of thousands of
//! trials) and run for hours, so the harness treats the campaign host
//! itself as unreliable:
//!
//! * every work item runs inside [`contain`] — a `catch_unwind` wrapper
//!   with a bounded, deterministically re-seeded retry — so one pathological
//!   trial cannot take down the whole campaign;
//! * items that stay unrecoverable after the retries are appended to a
//!   structured JSONL **anomaly log** ([`AnomalyLog`]) and the campaign
//!   moves on;
//! * progress (tallies + trial cursor) is periodically snapshotted with
//!   [`write_atomic`] (write-temp-then-rename), so a campaign killed by a
//!   crash, OOM or SIGKILL resumes from its last checkpoint — and because
//!   trials are pure functions of `(seed, index)`, the resumed tallies are
//!   byte-identical to an uninterrupted run.
//!
//! Every arch-level entry point — [`run_arch_campaign_checkpointed`],
//! [`run_recovery_campaign_checkpointed`] and the service's
//! [`run_arch_shard_checkpointed`] — runs one private in-order driver over
//! a trial range (`[0, trials)` for whole campaigns) and persists one
//! versioned checkpoint record with one loader. A file that is not
//! resumable is logged and the run restarts from its range start; one
//! written under another schema version, trial engine or fault mix is
//! *stale* and flags the run. The gate-level
//! [`run_unit_campaign_checkpointed`] keeps its own chunked loop and
//! records sidecar, under the same schema-version check.
//!
//! Checkpoints and the anomaly log live in an explicit
//! [`CheckpointConfig::dir`], by default the `SWAPCODES_CHECKPOINT_DIR` of
//! [`RunConfig::from_env`]; with no directory configured the harness
//! still contains panics but keeps no on-disk state. All on-disk formats
//! are single-line flat JSON objects, written by this module's `format!`
//! templates over [`escape`] and read back with [`Json::parse`]; a line
//! that does not parse as an object is torn or foreign.

use std::fs;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use swapcodes_core::Scheme;
use swapcodes_gates::units::ArithUnit;
use swapcodes_isa::json::{escape, Json};
use swapcodes_workloads::Workload;

use swapcodes_sim::recovery::{RecoveryConfig, RecoveryStats};
use swapcodes_sim::{CancelToken, FaultClass};

use crate::arch::{ArchCampaign, ArchOutcomes, FaultClassTallies, PrepError, TrialOutcome};
use crate::config::{take_env_anomalies, RunConfig};
use crate::gate::{run_unit_campaign_slice, CampaignConfig, InputOutcome, UnitCampaignResult};
use crate::recovery::RecoveryCampaignConfig;

/// Write `contents` to `path` atomically: write and fsync a sibling
/// temporary file, then rename it over the target. A crash at any point
/// leaves either the old file or the new one, never a torn mix.
///
/// # Errors
///
/// Propagates the underlying filesystem errors.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Run `item` (called with a retry salt, 0 first) under `catch_unwind`, at
/// most `max_attempts` times. Returns the first non-panicking result, or
/// the last panic message once the retry budget is exhausted.
///
/// The salt lets deterministic work items re-seed on retry: replaying a
/// deterministic panic verbatim can never succeed, but a fresh draw for the
/// same item index usually does — and stays reproducible.
///
/// # Errors
///
/// Returns the final panic payload (rendered to a string) when every
/// attempt panicked.
pub fn contain<T>(max_attempts: u32, mut item: impl FnMut(u32) -> T) -> Result<T, String> {
    let mut last = String::new();
    for salt in 0..max_attempts.max(1) {
        match catch_unwind(AssertUnwindSafe(|| item(salt))) {
            Ok(v) => return Ok(v),
            Err(payload) => last = panic_message(payload.as_ref()),
        }
    }
    Err(last)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// File-name-safe slug: lowercase alphanumerics, everything else `-`.
#[must_use]
pub fn slug(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Anomaly log
// ---------------------------------------------------------------------------

/// Size cap for `anomalies.jsonl`. When an append pushes the file past
/// this, the log rotates in place: the oldest lines are dropped and a
/// retained-tail marker (`{"rotated":true,"dropped":K}`) is written as the
/// first line, so a pathological campaign (every trial panicking) cannot
/// fill the disk while the count of lost lines stays auditable.
pub const ANOMALY_LOG_CAP_BYTES: u64 = 256 * 1024;

/// Append-only JSONL log of unrecoverable work items. Each line is
/// `{"campaign":"…","item":N,"retries":R,"panic":"…"}`; the campaign keeps
/// running after logging. Growth is bounded by [`ANOMALY_LOG_CAP_BYTES`]
/// via size-triggered tail rotation.
#[derive(Debug)]
pub struct AnomalyLog {
    path: Option<PathBuf>,
    /// Anomalies recorded through this handle.
    pub count: u64,
}

impl AnomalyLog {
    /// A log writing to `anomalies.jsonl` under `dir` (or a counting-only
    /// log when no directory is configured).
    #[must_use]
    pub fn new(dir: Option<&Path>) -> Self {
        Self {
            path: dir.map(|d| d.join("anomalies.jsonl")),
            count: 0,
        }
    }

    /// A log writing to `anomalies-<shard>.jsonl` under `dir`, so shards of
    /// one service campaign never contend on a single file. The shard tag is
    /// [`slug`]ged into the filename.
    #[must_use]
    pub fn for_shard(dir: Option<&Path>, shard: &str) -> Self {
        Self {
            path: dir.map(|d| d.join(format!("anomalies-{}.jsonl", slug(shard)))),
            count: 0,
        }
    }

    /// Record one unrecoverable item. Logging is best-effort: a failed
    /// append must not kill the campaign the log exists to protect.
    ///
    /// Concurrent writers on the same checkpoint directory (service shards,
    /// or two campaign processes pointed at one `SWAPCODES_CHECKPOINT_DIR`)
    /// serialize on an advisory lock held for the whole append+rotate pair —
    /// without it, one writer's rotation (read, trim, rename-over) can
    /// silently drop a line another writer appended after the read.
    pub fn record(&mut self, campaign: &str, item: u64, retries: u32, panic_msg: &str) {
        self.count += 1;
        let Some(path) = &self.path else { return };
        let line = anomaly_line(campaign, item, retries, panic_msg);
        // The lock lives on a sibling file that is never rotated or renamed,
        // so every writer — in this process or another — locks the same
        // inode. Dropping the guard (even on an early error path) unlocks.
        let _guard = lock_sibling(path);
        let _ = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        rotate_anomaly_log(path, ANOMALY_LOG_CAP_BYTES);
    }
}

/// One anomaly-log line, newline-terminated.
fn anomaly_line(campaign: &str, item: u64, retries: u32, panic_msg: &str) -> String {
    format!(
        "{{\"campaign\":\"{}\",\"item\":{item},\"retries\":{retries},\"panic\":\"{}\"}}\n",
        escape(campaign),
        escape(panic_msg)
    )
}

/// Take an exclusive advisory lock on `<path>.lock`, blocking until granted.
/// Returns the open handle; the lock releases when the handle drops. Errors
/// degrade to no locking (`None`) — same best-effort stance as the log
/// writes themselves.
fn lock_sibling(path: &Path) -> Option<fs::File> {
    let mut lock_path = path.as_os_str().to_owned();
    lock_path.push(".lock");
    let f = fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(Path::new(&lock_path))
        .ok()?;
    f.lock().ok()?;
    Some(f)
}

/// Rotate the anomaly log in place when it exceeds `cap` bytes: keep the
/// newest lines up to half the cap, drop the rest, and lead the file with a
/// `{"rotated":true,"dropped":K}` marker whose count accumulates across
/// rotations. Best-effort, atomic (write-temp-then-rename), and a no-op
/// under the cap.
fn rotate_anomaly_log(path: &Path, cap: u64) {
    let Ok(meta) = fs::metadata(path) else { return };
    if meta.len() <= cap {
        return;
    }
    let Ok(text) = fs::read_to_string(path) else {
        return;
    };
    let keep_budget = usize::try_from(cap / 2).unwrap_or(usize::MAX);
    let mut kept: std::collections::VecDeque<&str> = std::collections::VecDeque::new();
    let mut kept_bytes = 0usize;
    let mut dropped = 0u64;
    for line in text.lines() {
        // A previous rotation's marker carries its dropped count forward
        // instead of being retained as an ordinary line.
        if let Some(marker) = parse_record(line) {
            if marker.get("rotated").and_then(Json::as_bool) == Some(true) {
                dropped += marker.get("dropped").and_then(Json::as_u64).unwrap_or(0);
                continue;
            }
        }
        kept.push_back(line);
        kept_bytes += line.len() + 1;
        while kept_bytes > keep_budget {
            let Some(old) = kept.pop_front() else { break };
            kept_bytes -= old.len() + 1;
            dropped += 1;
        }
    }
    let mut out = format!("{{\"rotated\":true,\"dropped\":{dropped}}}\n");
    for line in kept {
        out.push_str(line);
        out.push('\n');
    }
    let _ = write_atomic(path, &out);
}

// ---------------------------------------------------------------------------
// Checkpoint configuration
// ---------------------------------------------------------------------------

/// How a checkpointed campaign persists and contains its work.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Checkpoint/anomaly directory; `None` disables on-disk state (the
    /// default is [`RunConfig::checkpoint_dir`]).
    pub dir: Option<PathBuf>,
    /// Snapshot progress every this many completed items.
    pub interval: u64,
    /// Containment attempts per work item (first try + re-seeded retries).
    pub max_retries: u32,
    /// Test hook: stop (as if killed) after completing this many items in
    /// *this* invocation, leaving the checkpoint behind for a resume.
    pub stop_after: Option<u64>,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self {
            dir: RunConfig::from_env().checkpoint_dir,
            interval: 256,
            max_retries: 3,
            stop_after: None,
        }
    }
}

/// Progress of a checkpointed campaign invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignRun {
    /// Aggregate tallies over every completed trial (resumed + this
    /// invocation) — always `classes.aggregate()`.
    pub outcomes: ArchOutcomes,
    /// The same tallies split by fault class.
    pub classes: FaultClassTallies,
    /// Trials completed so far.
    pub completed: u64,
    /// Whether the campaign ran to its trial target (false when the
    /// `stop_after` hook cut it short).
    pub finished: bool,
    /// Unrecoverable items logged during this invocation.
    pub anomalies: u64,
    /// A checkpoint for this campaign was found but was written by a
    /// different trial engine, fault-class mix or checkpoint schema
    /// version; it was rejected (with a logged anomaly) and the campaign
    /// restarted from trial 0.
    pub stale_engine: bool,
}

/// Progress of a checkpointed detect-and-recover campaign invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryCampaignRun {
    /// Aggregate tallies over every completed trial (resumed + this
    /// invocation), including the `recovered_*`/`miscorrected` buckets.
    pub outcomes: ArchOutcomes,
    /// The same tallies split by fault class.
    pub classes: FaultClassTallies,
    /// Recovery work summed over every completed trial.
    pub stats: RecoveryStats,
    /// Trials completed so far.
    pub completed: u64,
    /// Whether the campaign ran to its trial target.
    pub finished: bool,
    /// Unrecoverable items logged during this invocation.
    pub anomalies: u64,
    /// A stale checkpoint was rejected and the campaign restarted from
    /// trial 0 (see [`CampaignRun::stale_engine`]).
    pub stale_engine: bool,
}

/// A contiguous trial range `[start, end)` of one campaign cell, owned by
/// exactly one worker at a time. Because trials are pure in
/// `(seed, index)`, any partition of `0..trials` into shards — run in any
/// order, on any workers, interrupted and resumed any number of times —
/// merges to tallies byte-identical to a single serial pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Unique shard tag (e.g. `"job3-cell1-shard2"`); keys the shard's
    /// on-disk checkpoint and per-shard anomaly log via [`slug`].
    pub tag: String,
    /// First trial index of the range (inclusive).
    pub start: u64,
    /// One past the last trial index (exclusive).
    pub end: u64,
}

/// Progress events streamed by [`run_arch_shard_checkpointed`] to its
/// caller (the campaign service forwards them over a channel as tally
/// deltas; tests use them to interrupt the shard mid-flight).
#[derive(Debug)]
pub enum ShardEvent<'a> {
    /// A matching shard checkpoint was adopted: `classes` already covers
    /// trials `[start, cursor)` and those trials will not re-run. Emitted
    /// at most once, before any [`ShardEvent::Trial`].
    Adopted {
        /// Per-class tallies restored from the checkpoint.
        classes: &'a FaultClassTallies,
        /// The next trial index to run.
        cursor: u64,
    },
    /// One trial completed (contained normally, or conservatively tallied
    /// as `Crash` after retry exhaustion — see [`contain`]).
    Trial {
        /// The trial index just tallied.
        trial: u64,
        /// The fault class drawn for the trial.
        class: FaultClass,
        /// The trial's outcome.
        outcome: TrialOutcome,
    },
    /// Progress through `cursor` was flushed to the shard checkpoint.
    Checkpointed {
        /// Trials `[start, cursor)` are now durable.
        cursor: u64,
    },
}

/// Caller's verdict after each [`ShardEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardControl {
    /// Keep running the shard.
    Continue,
    /// Abandon the shard *abruptly* — return immediately without flushing a
    /// checkpoint, exactly as a lost worker would. Durable state is
    /// whatever the last [`ShardEvent::Checkpointed`] wrote; the service's
    /// requeue path must re-adopt from that trusted prefix.
    Die,
}

/// Terminal state of one [`run_arch_shard_checkpointed`] invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRun {
    /// Per-class tallies over trials `[start, cursor)` — resumed prefix
    /// plus this invocation's work.
    pub classes: FaultClassTallies,
    /// One past the last tallied trial index.
    pub cursor: u64,
    /// The shard ran to `end`.
    pub finished: bool,
    /// The shard stopped at a cancellation point (checkpoint flushed; the
    /// in-flight trial, if any, was discarded untallied and re-runs on
    /// resume).
    pub cancelled: bool,
    /// The shard was abandoned by [`ShardControl::Die`] (checkpoint *not*
    /// flushed).
    pub abandoned: bool,
    /// Unrecoverable trials logged during this invocation.
    pub anomalies: u64,
}

// ---------------------------------------------------------------------------
// The arch checkpoint record
// ---------------------------------------------------------------------------

/// Schema version stamped into every checkpoint record as `"v":1`. A file
/// with no version or another one is rejected loudly and the run restarts
/// from its range start, so a format change can never be misparsed.
const CHECKPOINT_VERSION: &str = "1";

/// A record parsed as a JSON object; `None` for a torn or foreign line.
fn parse_record(text: &str) -> Option<Json> {
    Json::parse(text).ok().filter(|f| matches!(f, Json::Obj(_)))
}

/// `Err` names why a parsed checkpoint's schema version is not ours.
fn check_version(f: &Json) -> Result<(), String> {
    let found = match f.get("v") {
        Some(Json::Num(v)) if v == CHECKPOINT_VERSION => return Ok(()),
        Some(Json::Num(v)) => v.clone(),
        Some(other) => format!("{other:?}"),
        None => "(none)".to_owned(),
    };
    Err(format!(
        "checkpoint schema version {found} is not {CHECKPOINT_VERSION}"
    ))
}

/// Serialize one tally's ten buckets with a per-class key prefix
/// (`""` for the aggregate, `"t_"`/`"c_"`/`"s_"` for the classes).
fn outcome_fields(prefix: &str, t: &ArchOutcomes) -> String {
    format!(
        "\"{prefix}trap\":{},\"{prefix}due\":{},\"{prefix}crash\":{},\"{prefix}hang\":{},\
         \"{prefix}masked\":{},\"{prefix}sdc\":{},\"{prefix}rec_correct\":{},\
         \"{prefix}rec_replay\":{},\"{prefix}rec_relaunch\":{},\"{prefix}miscorrected\":{}",
        t.trap,
        t.due,
        t.crash,
        t.hang,
        t.masked,
        t.sdc,
        t.recovered_correct,
        t.recovered_replay,
        t.recovered_relaunch,
        t.miscorrected
    )
}

fn parse_outcome_fields(f: &Json, prefix: &str) -> Option<ArchOutcomes> {
    let g = |k: &str| f.get(&format!("{prefix}{k}")).and_then(Json::as_u64);
    Some(ArchOutcomes {
        trap: g("trap")?,
        due: g("due")?,
        crash: g("crash")?,
        hang: g("hang")?,
        masked: g("masked")?,
        sdc: g("sdc")?,
        recovered_correct: g("rec_correct")?,
        recovered_replay: g("rec_replay")?,
        recovered_relaunch: g("rec_relaunch")?,
        miscorrected: g("miscorrected")?,
    })
}

/// Which trial function a driver run executes.
#[derive(Debug, Clone, Copy)]
enum TrialKind<'r> {
    /// Fast-forward trials; they report default recovery stats.
    Plain,
    /// Trials through the recovery ladder.
    Recover(&'r RecoveryConfig),
}

impl TrialKind<'_> {
    /// Run one trial; `None` when `cancel` cut it short (plain trials poll
    /// the token at every issue boundary, recovery trials never do).
    fn run(
        self,
        campaign: &ArchCampaign<'_>,
        trial: u64,
        salt: u32,
        cancel: Option<&CancelToken>,
    ) -> Option<(FaultClass, TrialOutcome, RecoveryStats)> {
        match self {
            TrialKind::Plain => campaign
                .run_trial_classed_cancellable(trial, salt, cancel)
                .map(|(class, outcome)| (class, outcome, RecoveryStats::default())),
            TrialKind::Recover(rcfg) => {
                let class = campaign.trial_fault_salted(trial, salt).class;
                let t = campaign.run_trial_recovering_salted(trial, salt, rcfg);
                Some((class, t.outcome, t.stats))
            }
        }
    }
}

/// What a checkpoint record is stamped with. Mode, cell and range decide
/// whether a record belongs to this run at all; engine and fault mix (and
/// the schema version) decide whether it is resumable. The mode keeps a
/// recovery run from resuming a plain run's tallies and vice versa: same
/// trials, different bucket semantics.
struct Identity<'a> {
    mode: &'static str,
    engine: &'static str,
    mix: String,
    workload: &'a str,
    scheme: String,
    seed: u64,
    fuel: u64,
    start: u64,
    end: u64,
}

impl<'a> Identity<'a> {
    fn of(campaign: &'a ArchCampaign<'_>, kind: TrialKind<'_>, shard: &ShardSpec) -> Self {
        let (mode, engine) = match kind {
            TrialKind::Plain => ("plain", campaign.engine_tag()),
            TrialKind::Recover(_) => ("recover", campaign.recovery_engine_tag()),
        };
        Self {
            mode,
            engine,
            mix: campaign.mix().tag(),
            workload: campaign.workload().name,
            scheme: campaign.scheme().label(),
            seed: campaign.seed(),
            fuel: campaign.fuel,
            start: shard.start,
            end: shard.end,
        }
    }
}

/// What a checkpoint record carries: trials `[start, cursor)` are done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Progress {
    cursor: u64,
    classes: FaultClassTallies,
    stats: RecoveryStats,
}

/// The one checkpoint record: a single line of flat JSON.
fn checkpoint_json(id: &Identity<'_>, p: &Progress) -> String {
    format!(
        "{{\"v\":{CHECKPOINT_VERSION},\"campaign\":\"arch\",\"mode\":\"{}\",\"engine\":\"{}\",\
         \"faultmix\":\"{}\",\"workload\":\"{}\",\"scheme\":\"{}\",\
         \"seed\":{},\"fuel\":{},\"start\":{},\"end\":{},\"cursor\":{},\
         {},{},{},{},\
         \"ckpts\":{},\"replays\":{},\"replayed\":{},\"corrections\":{},\"relaunches\":{}}}",
        id.mode,
        id.engine,
        escape(&id.mix),
        escape(id.workload),
        escape(&id.scheme),
        id.seed,
        id.fuel,
        id.start,
        id.end,
        p.cursor,
        outcome_fields("", &p.classes.aggregate()),
        outcome_fields("t_", &p.classes.transient),
        outcome_fields("c_", &p.classes.control),
        outcome_fields("s_", &p.classes.stuck_at),
        p.stats.checkpoints,
        p.stats.replays,
        p.stats.replayed_instructions,
        p.stats.corrections,
        p.stats.relaunches
    )
}

/// What a checkpoint file at a run's path turned out to be. One value
/// exists per run, so boxing the large variant would buy nothing.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum Loaded {
    /// Ours: resume from this progress.
    Resumable(Progress),
    /// Describes this cell but was written under another schema version,
    /// engine or fault mix, so its tallies are not comparable: restart
    /// loudly. The string names the reason.
    Stale(String),
    /// Another cell's or range's record, or a torn file: restart.
    Foreign,
}

/// Classify checkpoint text against `id`. The aggregate buckets are
/// redundant with the class buckets, and the class buckets must account
/// for exactly `cursor - start` trials; any disagreement means a torn or
/// hand-edited file.
fn load_checkpoint(text: &str, id: &Identity<'_>) -> Loaded {
    let Some(f) = parse_record(text) else {
        return Loaded::Foreign;
    };
    if let Err(reason) = check_version(&f) {
        return Loaded::Stale(reason);
    }
    let s = |k: &str| f.get(k).and_then(Json::as_str);
    let n = |k: &str| f.get(k).and_then(Json::as_u64);
    let same_cell = || {
        Some(
            s("campaign")? == "arch"
                && s("mode")? == id.mode
                && s("workload")? == id.workload
                && s("scheme")? == id.scheme
                && n("seed")? == id.seed
                && n("fuel")? == id.fuel
                && n("start")? == id.start
                && n("end")? == id.end,
        )
    };
    if same_cell() != Some(true) {
        return Loaded::Foreign;
    }
    for (key, what, ours) in [
        ("engine", "engine", id.engine),
        ("faultmix", "fault mix", &id.mix),
    ] {
        let found = s(key).unwrap_or("");
        if found != ours {
            return Loaded::Stale(format!(
                "checkpoint {what} \"{found}\" is incompatible with \"{ours}\""
            ));
        }
    }
    let progress = || {
        let classes = FaultClassTallies {
            transient: parse_outcome_fields(&f, "t_")?,
            control: parse_outcome_fields(&f, "c_")?,
            stuck_at: parse_outcome_fields(&f, "s_")?,
        };
        let p = Progress {
            cursor: n("cursor")?,
            classes,
            stats: RecoveryStats {
                checkpoints: n("ckpts")?,
                replays: n("replays")?,
                replayed_instructions: n("replayed")?,
                corrections: n("corrections")?,
                relaunches: u32::try_from(n("relaunches")?).ok()?,
            },
        };
        (parse_outcome_fields(&f, "")? == classes.aggregate()
            && (id.start..=id.end).contains(&p.cursor)
            && classes.total() == p.cursor - id.start)
            .then_some(p)
    };
    progress().map_or(Loaded::Foreign, Loaded::Resumable)
}

// ---------------------------------------------------------------------------
// The in-order checkpoint driver
// ---------------------------------------------------------------------------

/// How a driver invocation ended. Every stop but `Abandoned` flushes a
/// checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// Ran to the end of the range.
    Finished,
    /// The `stop_after` hook fired.
    Interrupted,
    /// A cancellation point was reached.
    Cancelled,
    /// [`ShardControl::Die`].
    Abandoned,
}

/// What [`drive`] returns: where the run stopped and how.
struct DriverRun {
    progress: Progress,
    stop: Stop,
    stale: bool,
    anomalies: u64,
}

/// The one arch-level checkpoint driver: run trials `[shard.start,
/// shard.end)` of `campaign` in logical order, each under [`contain`],
/// persisting a [`checkpoint_json`] record to `<slug(tag)>.ckpt.json`
/// every `ck.interval` trials of this invocation and wherever it stops
/// cleanly.
///
/// * A record left by an earlier invocation is adopted
///   ([`ShardEvent::Adopted`]) when [`load_checkpoint`] finds it
///   resumable; any other existing file is logged and the run restarts
///   from the range start — stale files also set [`DriverRun::stale`].
/// * Trials whose retries all panic are logged under `shard.tag` and
///   conservatively tallied as `Crash`, attributed to the salt-0 draw's
///   class (the deterministic one a re-run would see first).
/// * `cancel` is polled between trials and inside plain trials; either
///   way the checkpoint is flushed and the in-flight trial re-runs in
///   full on resume. `ck.stop_after` stops (flushed) at the loop head.
///   [`ShardControl::Die`] from `on_event` returns without a flush.
///
/// Because trials are pure in `(seed, index, salt)`, any sequence of
/// interrupted invocations tallies byte-identically to one straight run.
fn drive(
    campaign: &ArchCampaign<'_>,
    kind: TrialKind<'_>,
    shard: &ShardSpec,
    mut log: AnomalyLog,
    ck: &CheckpointConfig,
    cancel: Option<&CancelToken>,
    mut on_event: impl FnMut(ShardEvent<'_>) -> ShardControl,
) -> DriverRun {
    let id = Identity::of(campaign, kind, shard);
    let name = shard.tag.as_str();
    for msg in take_env_anomalies() {
        log.record(name, 0, 0, &msg);
    }
    let path = ck.dir.as_ref().map(|d| {
        let _ = fs::create_dir_all(d);
        d.join(format!("{}.ckpt.json", slug(name)))
    });
    let save = |p: &Progress| {
        if let Some(path) = &path {
            let _ = write_atomic(path, &checkpoint_json(&id, p));
        }
    };

    let mut p = Progress {
        cursor: shard.start,
        ..Progress::default()
    };
    let mut stale = false;
    let mut adopted = false;
    if let Some(text) = path.as_deref().and_then(|p| fs::read_to_string(p).ok()) {
        let restart = |why: &str| format!("{why}; restarting from trial {}", shard.start);
        match load_checkpoint(&text, &id) {
            Loaded::Resumable(found) => {
                p = found;
                adopted = true;
            }
            Loaded::Stale(reason) => {
                stale = true;
                log.record(name, 0, 0, &restart(&reason));
            }
            Loaded::Foreign => log.record(
                name,
                0,
                0,
                &restart("checkpoint belongs to another campaign cell or range"),
            ),
        }
    }

    let stop = 'run: {
        if adopted
            && on_event(ShardEvent::Adopted {
                classes: &p.classes,
                cursor: p.cursor,
            }) == ShardControl::Die
        {
            break 'run Stop::Abandoned;
        }
        let mut done_this_run = 0u64;
        loop {
            if p.cursor >= shard.end {
                break 'run Stop::Finished;
            }
            if cancel.is_some_and(CancelToken::is_cancelled) {
                break 'run Stop::Cancelled;
            }
            if ck.stop_after == Some(done_this_run) {
                break 'run Stop::Interrupted;
            }
            let trial = p.cursor;
            let (class, outcome, stats) = match contain(ck.max_retries, |salt| {
                kind.run(campaign, trial, salt, cancel)
            }) {
                Ok(Some(ran)) => ran,
                Ok(None) => break 'run Stop::Cancelled,
                Err(panic_msg) => {
                    log.record(name, trial, ck.max_retries, &panic_msg);
                    (
                        campaign.trial_fault_salted(trial, 0).class,
                        TrialOutcome::Crash,
                        RecoveryStats::default(),
                    )
                }
            };
            p.classes.record(class, outcome);
            p.stats.merge(&stats);
            p.cursor += 1;
            done_this_run += 1;
            if on_event(ShardEvent::Trial {
                trial,
                class,
                outcome,
            }) == ShardControl::Die
            {
                break 'run Stop::Abandoned;
            }
            if ck.interval > 0 && done_this_run.is_multiple_of(ck.interval) {
                save(&p);
                if on_event(ShardEvent::Checkpointed { cursor: p.cursor }) == ShardControl::Die {
                    break 'run Stop::Abandoned;
                }
            }
        }
    };
    if stop != Stop::Abandoned {
        save(&p);
    }
    DriverRun {
        progress: p,
        stop,
        stale,
        anomalies: log.count,
    }
}

/// Run a whole campaign `[0, trials)` through [`drive`] under the name
/// `<prefix>-<workload>-<scheme>`, logging to `anomalies.jsonl`.
fn drive_campaign(
    campaign: &ArchCampaign<'_>,
    kind: TrialKind<'_>,
    prefix: &str,
    trials: u64,
    ck: &CheckpointConfig,
) -> DriverRun {
    let whole = ShardSpec {
        tag: format!(
            "{prefix}-{}-{}",
            slug(campaign.workload().name),
            slug(&campaign.scheme().label())
        ),
        start: 0,
        end: trials,
    };
    let log = AnomalyLog::new(ck.dir.as_deref());
    drive(campaign, kind, &whole, log, ck, None, |_| {
        ShardControl::Continue
    })
}

/// Run (or resume) an architecture-level campaign with panic containment,
/// anomaly logging and periodic atomic checkpoints
/// (`arch-<workload>-<scheme>.ckpt.json`).
///
/// Because trials are pure in `(seed, index)`, a resumed campaign tallies
/// byte-identically to an uninterrupted one. Unrecoverable trials are
/// logged and conservatively counted as `crash`.
///
/// # Errors
///
/// Propagates [`PrepError`] when the campaign cannot start at all.
pub fn run_arch_campaign_checkpointed(
    workload: &Workload,
    scheme: Scheme,
    trials: u64,
    seed: u64,
    ck: &CheckpointConfig,
) -> Result<CampaignRun, PrepError> {
    let campaign = ArchCampaign::prepare(workload, scheme, seed)?;
    let run = drive_campaign(&campaign, TrialKind::Plain, "arch", trials, ck);
    Ok(CampaignRun {
        outcomes: run.progress.classes.aggregate(),
        classes: run.progress.classes,
        completed: run.progress.cursor,
        finished: run.stop == Stop::Finished,
        anomalies: run.anomalies,
        stale_engine: run.stale,
    })
}

/// Run (or resume) a detect-and-recover campaign with panic containment,
/// anomaly logging and periodic atomic checkpoints
/// (`recover-<workload>-<scheme>.ckpt.json`) — the recovery analogue of
/// [`run_arch_campaign_checkpointed`], persisting the recovery-stat
/// counters alongside the tallies so overhead accounting survives a crash.
///
/// Trials remain pure in `(seed, index)` (the ladder adds no randomness),
/// so a resumed campaign tallies byte-identically to an uninterrupted one.
///
/// # Errors
///
/// Propagates [`PrepError`] when the campaign cannot start at all.
pub fn run_recovery_campaign_checkpointed(
    workload: &Workload,
    scheme: Scheme,
    trials: u64,
    seed: u64,
    rcfg: &RecoveryCampaignConfig,
    ck: &CheckpointConfig,
) -> Result<RecoveryCampaignRun, PrepError> {
    let campaign = ArchCampaign::prepare(workload, scheme, seed)?;
    let kind = TrialKind::Recover(&rcfg.recovery);
    let run = drive_campaign(&campaign, kind, "recover", trials, ck);
    Ok(RecoveryCampaignRun {
        outcomes: run.progress.classes.aggregate(),
        classes: run.progress.classes,
        stats: run.progress.stats,
        completed: run.progress.cursor,
        finished: run.stop == Stop::Finished,
        anomalies: run.anomalies,
        stale_engine: run.stale,
    })
}

/// Run (or resume) one shard of an architecture-level campaign against an
/// already-prepared [`ArchCampaign`], with panic containment, a per-shard
/// anomaly log, periodic atomic checkpoints (`<slug(tag)>.ckpt.json`), and
/// two distinct stop paths:
///
/// * **cancellation** (`cancel` token, polled between trials *and* at every
///   issue boundary inside a trial) flushes the checkpoint and returns with
///   `cancelled` set — the in-flight trial is discarded untallied and
///   re-runs in full on resume, preserving byte-identity;
/// * **abandonment** ([`ShardControl::Die`] from `on_event`) returns
///   immediately *without* flushing, modelling a worker lost mid-shard —
///   the durable state is the last checkpoint's trusted prefix.
///
/// The caller observes every tallied trial, in logical order, through
/// `on_event`, which is the service's delta stream into its merge-on-read
/// aggregator.
pub fn run_arch_shard_checkpointed(
    campaign: &ArchCampaign<'_>,
    shard: &ShardSpec,
    ck: &CheckpointConfig,
    cancel: Option<&CancelToken>,
    on_event: impl FnMut(ShardEvent<'_>) -> ShardControl,
) -> ShardRun {
    let log = AnomalyLog::for_shard(ck.dir.as_deref(), &shard.tag);
    let run = drive(campaign, TrialKind::Plain, shard, log, ck, cancel, on_event);
    ShardRun {
        classes: run.progress.classes,
        cursor: run.progress.cursor,
        finished: run.stop == Stop::Finished,
        cancelled: run.stop == Stop::Cancelled,
        abandoned: run.stop == Stop::Abandoned,
        anomalies: run.anomalies,
    }
}

// ---------------------------------------------------------------------------
// Gate-level unit campaign with checkpointing
// ---------------------------------------------------------------------------

/// Progress of a checkpointed unit campaign invocation.
#[derive(Debug)]
pub struct UnitCampaignRun {
    /// The assembled result — present only when the campaign finished.
    pub result: Option<UnitCampaignResult>,
    /// Inputs completed so far.
    pub completed: u64,
    /// Whether every input was processed.
    pub finished: bool,
    /// Unrecoverable items logged during this invocation.
    pub anomalies: u64,
}

fn unit_checkpoint_json(unit: &str, seed: u64, inputs: u64, completed: u64) -> String {
    format!(
        "{{\"v\":{CHECKPOINT_VERSION},\"campaign\":\"unit\",\"unit\":\"{}\",\"seed\":{seed},\
         \"inputs\":{inputs},\"completed\":{completed}}}",
        escape(unit)
    )
}

fn outcome_json(o: &InputOutcome) -> String {
    match o.record {
        Some(r) => format!(
            "{{\"i\":{},\"golden\":{},\"faulty\":{},\"attempts\":{}}}",
            o.index, r.golden, r.faulty, o.attempts
        ),
        None => format!(
            "{{\"i\":{},\"masked\":true,\"attempts\":{}}}",
            o.index, o.attempts
        ),
    }
}

fn parse_outcome(line: &str) -> Option<InputOutcome> {
    let f = parse_record(line)?;
    let n = |k: &str| f.get(k).and_then(Json::as_u64);
    let record = if f.get("masked").and_then(Json::as_bool) == Some(true) {
        None
    } else {
        Some(crate::gate::InjectionRecord {
            golden: n("golden")?,
            faulty: n("faulty")?,
        })
    };
    Some(InputOutcome {
        index: n("i")?,
        record,
        attempts: n("attempts")?,
    })
}

/// Load the trusted prefix of a unit campaign's records sidecar: lines with
/// `i < completed`, deduplicated keep-first (a crash between a sidecar
/// append and the checkpoint rename leaves untrusted or duplicate lines
/// behind — they are simply re-run). Returns `None` unless the prefix is
/// complete, in which case the campaign restarts from scratch.
fn load_unit_records(path: &Path, completed: u64) -> Option<Vec<InputOutcome>> {
    let text = fs::read_to_string(path).ok()?;
    let mut by_index: Vec<Option<InputOutcome>> = std::iter::repeat_with(|| None)
        .take(usize::try_from(completed).ok()?)
        .collect();
    for line in text.lines() {
        let Some(o) = parse_outcome(line) else {
            continue;
        };
        if o.index < completed {
            let slot = &mut by_index[usize::try_from(o.index).ok()?];
            if slot.is_none() {
                *slot = Some(o);
            }
        }
    }
    by_index.into_iter().collect()
}

/// Run (or resume) a gate-level unit campaign with panic containment and
/// periodic atomic checkpoints. Per-input outcomes stream to a
/// `unit-<label>.records.jsonl` sidecar; the checkpoint records how many of
/// those lines are trusted.
///
/// Unrecoverable chunks are anomaly-logged and their inputs counted as
/// fully masked (they produced no record).
///
/// # Panics
///
/// Panics if `inputs` is empty.
#[must_use]
pub fn run_unit_campaign_checkpointed(
    unit: &ArithUnit,
    inputs: &[[u64; 3]],
    cfg: &CampaignConfig,
    ck: &CheckpointConfig,
) -> UnitCampaignRun {
    assert!(
        !inputs.is_empty(),
        "no operand stream for {:?}",
        unit.kind()
    );
    let label = unit.kind().label();
    let name = format!("unit-{}", slug(label));
    let total = inputs.len() as u64;
    let paths = ck.dir.as_ref().map(|d| {
        let _ = fs::create_dir_all(d);
        (
            d.join(format!("{name}.ckpt.json")),
            d.join(format!("{name}.records.jsonl")),
        )
    });

    // Resume: trust the checkpoint only when its schema version and
    // identity match and the sidecar actually contains the full completed
    // prefix. A version mismatch restarts loudly.
    let mut log = AnomalyLog::new(ck.dir.as_deref());
    let mut outcomes: Vec<InputOutcome> = Vec::with_capacity(inputs.len());
    let mut completed = 0u64;
    if let Some((ckpt, records)) = &paths {
        let loaded = fs::read_to_string(ckpt)
            .ok()
            .and_then(|text| {
                let f = parse_record(&text)?;
                if let Err(reason) = check_version(&f) {
                    log.record(&name, 0, 0, &format!("{reason}; restarting from input 0"));
                    return None;
                }
                let s = |k: &str| f.get(k).and_then(Json::as_str);
                let n = |k: &str| f.get(k).and_then(Json::as_u64);
                (s("campaign")? == "unit"
                    && s("unit")? == label
                    && n("seed")? == cfg.seed
                    && n("inputs")? == total)
                    .then(|| n("completed"))?
            })
            .filter(|&c| c <= total)
            .and_then(|c| Some((c, load_unit_records(records, c)?)));
        if let Some((c, recs)) = loaded {
            completed = c;
            outcomes = recs;
        }
    }

    let append_and_checkpoint = |chunk: &[InputOutcome], completed: u64| {
        if let Some((ckpt, records)) = &paths {
            let mut lines = String::new();
            for o in chunk {
                lines.push_str(&outcome_json(o));
                lines.push('\n');
            }
            let _ = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(records)
                .and_then(|mut f| {
                    f.write_all(lines.as_bytes())?;
                    f.sync_all()
                });
            let _ = write_atomic(
                ckpt,
                &unit_checkpoint_json(label, cfg.seed, total, completed),
            );
        }
    };

    let chunk_len = if ck.interval > 0 { ck.interval } else { total };
    let mut done_this_run = 0u64;
    while completed < total {
        let remaining_budget = ck
            .stop_after
            .map_or(u64::MAX, |s| s.saturating_sub(done_this_run));
        if remaining_budget == 0 {
            return UnitCampaignRun {
                result: None,
                completed,
                finished: false,
                anomalies: log.count,
            };
        }
        let end = (completed + chunk_len.min(remaining_budget)).min(total);
        let lo = usize::try_from(completed).expect("input index fits usize");
        let hi = usize::try_from(end).expect("input index fits usize");
        let chunk = contain(ck.max_retries, |salt| {
            // Retry re-seeds every input in the chunk deterministically.
            let salted = CampaignConfig {
                seed: cfg.seed ^ u64::from(salt).wrapping_mul(0xA076_1D64_78BD_642F),
                ..*cfg
            };
            run_unit_campaign_slice(unit, &inputs[lo..hi], &salted, completed)
        })
        .unwrap_or_else(|panic_msg| {
            log.record(&name, completed, ck.max_retries, &panic_msg);
            (completed..end)
                .map(|index| InputOutcome {
                    index,
                    record: None,
                    attempts: 0,
                })
                .collect()
        });
        append_and_checkpoint(&chunk, end);
        outcomes.extend(chunk);
        done_this_run += end - completed;
        completed = end;
    }

    let mut records = Vec::with_capacity(outcomes.len());
    let mut fully_masked = 0u64;
    let mut attempts = 0u64;
    for o in &outcomes {
        attempts += o.attempts;
        match o.record {
            Some(r) => records.push(r),
            None => fully_masked += 1,
        }
    }
    UnitCampaignRun {
        result: Some(UnitCampaignResult {
            unit_label: label,
            output_bits: unit.kind().output_bits(),
            records,
            fully_masked_inputs: fully_masked,
            attempts,
        }),
        completed,
        finished: true,
        anomalies: log.count,
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn contain_succeeds_after_reseeded_retry() {
        let out = contain(3, |salt| {
            assert!(salt >= 2, "flaky below salt 2");
            salt
        });
        assert_eq!(out, Ok(2));
    }

    #[test]
    fn contain_reports_last_panic() {
        let out: Result<(), String> = contain(2, |salt| panic!("boom {salt}"));
        assert_eq!(out, Err("boom 1".to_owned()));
    }

    fn identity(mode: &'static str, engine: &'static str, mix: &str) -> Identity<'static> {
        Identity {
            mode,
            engine,
            mix: mix.to_owned(),
            workload: "bfs",
            scheme: "Swap-ECC".to_owned(),
            seed: 9,
            fuel: 1000,
            start: 0,
            end: 100,
        }
    }

    #[test]
    fn flat_json_roundtrips() {
        let classes = FaultClassTallies {
            transient: ArchOutcomes {
                trap: 1,
                due: 2,
                crash: 3,
                hang: 4,
                masked: 5,
                sdc: 6,
                recovered_correct: 7,
                recovered_replay: 8,
                recovered_relaunch: 9,
                miscorrected: 1,
            },
            control: ArchOutcomes {
                hang: 17,
                sdc: 2,
                ..ArchOutcomes::default()
            },
            stuck_at: ArchOutcomes {
                due: 11,
                masked: 4,
                ..ArchOutcomes::default()
            },
        };
        let p = Progress {
            cursor: classes.total(),
            classes,
            stats: RecoveryStats {
                checkpoints: 11,
                replays: 12,
                replayed_instructions: 13,
                corrections: 14,
                relaunches: 15,
            },
        };
        let id = identity("recover", "classicp", "t1c1s1");
        let line = checkpoint_json(&id, &p);
        let f = Json::parse(&line).expect("parses");
        let s = |k: &str| f.get(k).and_then(Json::as_str);
        let n = |k: &str| f.get(k).and_then(Json::as_u64);
        assert_eq!(n("v"), Some(1));
        assert_eq!(s("mode"), Some("recover"));
        assert_eq!(s("engine"), Some("classicp"));
        assert_eq!(s("faultmix"), Some("t1c1s1"));
        assert_eq!(s("workload"), Some("bfs"));
        assert_eq!(s("scheme"), Some("Swap-ECC"));
        // Aggregate fields merge the classes; per-class fields round-trip.
        assert_eq!(n("hang"), Some(21));
        assert_eq!(n("due"), Some(13));
        assert_eq!(n("t_rec_replay"), Some(8));
        assert_eq!(n("c_hang"), Some(17));
        assert_eq!(n("s_due"), Some(11));
        assert_eq!(n("replayed"), Some(13));
        match load_checkpoint(&line, &id) {
            Loaded::Resumable(back) => assert_eq!(back, p),
            other => panic!("own record must resume, got {other:?}"),
        }
        // Tallies that disagree with the cursor mean a torn file.
        let torn = checkpoint_json(&id, &Progress { cursor: 3, ..p });
        assert!(matches!(load_checkpoint(&torn, &id), Loaded::Foreign));
    }

    fn masked_progress(n: u64) -> Progress {
        Progress {
            cursor: n,
            classes: FaultClassTallies {
                transient: ArchOutcomes {
                    masked: n,
                    ..ArchOutcomes::default()
                },
                ..FaultClassTallies::default()
            },
            stats: RecoveryStats::default(),
        }
    }

    #[test]
    fn mode_mismatch_rejects_checkpoint() {
        let line = checkpoint_json(&identity("plain", "ff2p", "t1c0s0"), &masked_progress(3));
        // A recovery campaign must not resume a plain campaign's tallies.
        assert!(matches!(
            load_checkpoint(&line, &identity("recover", "classicp", "t1c0s0")),
            Loaded::Foreign
        ));
        assert!(matches!(
            load_checkpoint(&line, &identity("plain", "ff2p", "t1c0s0")),
            Loaded::Resumable(Progress { cursor: 3, .. })
        ));
        // Neither may a shard of another range.
        let other_range = Identity {
            start: 1,
            ..identity("plain", "ff2p", "t1c0s0")
        };
        assert!(matches!(
            load_checkpoint(&line, &other_range),
            Loaded::Foreign
        ));
    }

    #[test]
    fn engine_mismatch_is_stale_not_ignored() {
        // A checkpoint with no engine field at all, or a different tag,
        // describes *this* campaign, so it must surface as stale rather
        // than being silently ignored or resumed.
        let id = identity("plain", "ff2p", "t1c0s0");
        let line = checkpoint_json(&id, &masked_progress(3));
        for stale in [
            line.replace("\"engine\":\"ff2p\",", ""),
            line.replace("\"engine\":\"ff2p\"", "\"engine\":\"ff1\""),
        ] {
            match load_checkpoint(&stale, &id) {
                Loaded::Stale(reason) => assert!(reason.contains("engine"), "{reason}"),
                other => panic!("engine mismatch must be stale, got {other:?}"),
            }
        }
    }

    #[test]
    fn fault_mix_mismatch_is_stale_not_ignored() {
        // Same campaign identity and engine, but the tallies were drawn
        // under a different class mix (or predate mix tagging): per-trial
        // draws differ, so the checkpoint must be rejected loudly.
        let line = checkpoint_json(&identity("plain", "ff2p", "t1c1s1"), &masked_progress(3));
        let id = identity("plain", "ff2p", "t1c0s0");
        for stale in [line.clone(), line.replace("\"faultmix\":\"t1c1s1\",", "")] {
            match load_checkpoint(&stale, &id) {
                Loaded::Stale(reason) => assert!(reason.contains("fault mix"), "{reason}"),
                other => panic!("mix mismatch must be stale, got {other:?}"),
            }
        }
    }

    #[test]
    fn missing_or_other_schema_version_is_stale() {
        let id = identity("plain", "ff2p", "t1c0s0");
        let line = checkpoint_json(&id, &masked_progress(3));
        for stale in [
            line.replace("\"v\":1,", ""),
            line.replace("\"v\":1,", "\"v\":2,"),
        ] {
            match load_checkpoint(&stale, &id) {
                Loaded::Stale(reason) => assert!(reason.contains("version"), "{reason}"),
                other => panic!("version mismatch must be stale, got {other:?}"),
            }
        }
    }

    /// Characters that break hand-rolled JSON codecs: quotes, backslashes,
    /// control characters, the flat format's own delimiters, and
    /// multi-byte UTF-8.
    const HOSTILE: [char; 22] = [
        '"', '\\', ',', '{', '}', ':', '\n', '\r', '\t', ' ', '\u{0}', '\u{1}', '\u{8}', '\u{c}',
        '\u{1b}', '\u{1f}', '\u{7f}', 'a', 'é', '€', '😀', '\u{2028}',
    ];

    /// Strings of up to 32 characters, each a [`HOSTILE`] one or (half the
    /// time) an arbitrary Unicode scalar value.
    fn adversarial_string() -> impl Strategy<Value = String> {
        prop::collection::vec((0..HOSTILE.len() * 2, any::<u32>()), 0..32).prop_map(|picks| {
            picks
                .into_iter()
                .map(|(i, raw)| {
                    HOSTILE.get(i).copied().unwrap_or_else(|| {
                        char::from_u32(raw % 0x11_0000).unwrap_or(char::REPLACEMENT_CHARACTER)
                    })
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The string fields of a checkpoint record and of an anomaly line
        /// (whose `panic` field carries multi-line `assert_eq!` messages)
        /// survive a write/parse round trip unchanged.
        #[test]
        fn record_string_fields_roundtrip(
            workload in adversarial_string(),
            scheme in adversarial_string(),
            mix in adversarial_string(),
            panic_msg in adversarial_string(),
        ) {
            let id = Identity {
                mode: "plain",
                engine: "ff2p",
                mix: mix.clone(),
                workload: &workload,
                scheme: scheme.clone(),
                seed: 9,
                fuel: 1000,
                start: 5,
                end: 40,
            };
            let p = Progress { cursor: 8, ..masked_progress(3) };
            let line = checkpoint_json(&id, &p);
            let f = Json::parse(&line).expect("record parses");
            let s = |k: &str| f.get(k).and_then(Json::as_str);
            prop_assert_eq!(s("workload"), Some(workload.as_str()));
            prop_assert_eq!(s("scheme"), Some(scheme.as_str()));
            prop_assert_eq!(s("faultmix"), Some(mix.as_str()));
            prop_assert!(
                matches!(load_checkpoint(&line, &id), Loaded::Resumable(back) if back == p),
                "record does not resume: {}", line
            );

            let line = anomaly_line(&workload, 7, 3, &panic_msg);
            prop_assert!(line.ends_with('\n') && line.lines().count() == 1);
            let f = Json::parse(&line).expect("anomaly line parses");
            prop_assert_eq!(f.get("campaign").and_then(Json::as_str), Some(workload.as_str()));
            prop_assert_eq!(f.get("item").and_then(Json::as_u64), Some(7));
            prop_assert_eq!(f.get("panic").and_then(Json::as_str), Some(panic_msg.as_str()));
        }

        /// No strict prefix of a checkpoint record (what a torn write
        /// leaves) is ever resumed: each one loads as foreign.
        #[test]
        fn checkpoint_record_prefixes_load_as_foreign(
            workload in adversarial_string(),
            scheme in adversarial_string(),
            done in 0u64..35,
        ) {
            let id = Identity {
                workload: &workload,
                scheme,
                start: 5,
                end: 40,
                ..identity("plain", "ff2p", "t1c0s0")
            };
            let p = Progress { cursor: 5 + done, ..masked_progress(done) };
            let line = checkpoint_json(&id, &p);
            prop_assert!(matches!(load_checkpoint(&line, &id), Loaded::Resumable(back) if back == p));
            for cut in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
                prop_assert!(
                    matches!(load_checkpoint(&line[..cut], &id), Loaded::Foreign),
                    "prefix of {} bytes loads: {}", cut, &line[..cut]
                );
            }
        }

        /// No strict prefix of a unit-record line parses, so a torn
        /// sidecar tail is skipped rather than trusted.
        #[test]
        fn unit_record_prefixes_are_skipped(
            index in any::<u64>(),
            golden in any::<u64>(),
            faulty in any::<u64>(),
            attempts in any::<u64>(),
            masked in any::<bool>(),
        ) {
            let o = InputOutcome {
                index,
                record: (!masked).then_some(crate::gate::InjectionRecord { golden, faulty }),
                attempts,
            };
            let line = outcome_json(&o);
            prop_assert_eq!(parse_outcome(&line).map(|b| (b.index, b.record, b.attempts)),
                Some((index, o.record, attempts)));
            for cut in 0..line.len() {
                prop_assert!(parse_outcome(&line[..cut]).is_none(), "prefix loads: {}", &line[..cut]);
            }
        }
    }

    #[test]
    fn anomaly_log_rotates_at_cap_with_tail_marker() {
        let dir =
            std::env::temp_dir().join(format!("swapcodes-harness-rotate-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("anomalies.jsonl");
        let _ = fs::remove_file(&path);
        // Force a tiny cap by rotating manually around ordinary appends.
        let mut log = AnomalyLog::new(Some(&dir));
        let long_msg = "x".repeat(100);
        for i in 0..40u64 {
            log.record("rotate-test", i, 3, &long_msg);
            rotate_anomaly_log(&path, 2048);
        }
        let text = fs::read_to_string(&path).expect("log exists");
        assert!(
            text.len() <= 4096,
            "log stays bounded after rotation: {} bytes",
            text.len()
        );
        let first = text.lines().next().expect("non-empty");
        let f = Json::parse(first).expect("marker parses");
        assert_eq!(f.get("rotated").and_then(Json::as_bool), Some(true));
        let dropped = f
            .get("dropped")
            .and_then(Json::as_u64)
            .expect("dropped count");
        assert!(dropped > 0, "old lines were dropped");
        // The newest line always survives rotation.
        let last = text.lines().last().expect("non-empty");
        let lf = Json::parse(last).expect("tail line parses");
        assert_eq!(lf.get("item").and_then(Json::as_u64), Some(39));
        // Dropped + retained = everything ever logged.
        let retained = text.lines().count() as u64 - 1;
        assert_eq!(dropped + retained, 40);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn outcome_lines_roundtrip() {
        let hit = InputOutcome {
            index: 7,
            record: Some(crate::gate::InjectionRecord {
                golden: 10,
                faulty: 14,
            }),
            attempts: 63,
        };
        let masked = InputOutcome {
            index: 8,
            record: None,
            attempts: 4096,
        };
        for o in [hit, masked] {
            let back = parse_outcome(&outcome_json(&o)).expect("roundtrip");
            assert_eq!(back.index, o.index);
            assert_eq!(back.record, o.record);
            assert_eq!(back.attempts, o.attempts);
        }
    }

    #[test]
    fn write_atomic_replaces_contents() {
        let path = std::env::temp_dir().join(format!(
            "swapcodes-harness-atomic-{}.json",
            std::process::id()
        ));
        write_atomic(&path, "first").expect("write");
        write_atomic(&path, "second").expect("overwrite");
        assert_eq!(fs::read_to_string(&path).expect("read"), "second");
        let _ = fs::remove_file(&path);
    }
}
