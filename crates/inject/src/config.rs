//! One parsed view of the `SWAPCODES_*` environment knobs.
//!
//! A campaign's tallies depend only on workload, scheme, seed, fault model
//! and fuel. The other knobs size a run (threads, inputs, fast mode), place
//! its state (checkpoint directory) or bound its wall clock (shard
//! timeout); none of them changes a result. The seven knobs are the fields
//! of [`RunConfig`], named after them.
//!
//! [`RunConfig::from_vars`] parses all seven in one pass and is pure;
//! [`RunConfig::from_env`] feeds it the process environment, re-reading it
//! on every call, and is the one place in the workspace that reads a
//! `SWAPCODES_*` variable.
//!
//! A malformed value is ignored (the knob keeps its default) and surfaced
//! once per variable: printed to stderr and queued for
//! [`take_env_anomalies`], which the checkpointed campaign drivers drain
//! into their anomaly log. So is any other `SWAPCODES_*` name, so a typo
//! or a knob that no longer exists is never silently ignored.

use std::ffi::OsStr;
use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;

use crate::arch::{CampaignOptions, FaultMix};

const PREFIX: &str = "SWAPCODES_";

/// Upper bound on a worker-thread count (`SWAPCODES_THREADS`, and
/// `swapcodes-serve serve --workers`): larger values are rejected as out
/// of range rather than handed to the OS as thread-spawn requests.
pub const MAX_THREADS: usize = 256;

/// The effective `SWAPCODES_*` settings. `None` fields keep the default of
/// the code that consumes them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunConfig {
    /// `FUEL`: per-trial step budget; unset derives 8x the golden run +
    /// 10 000.
    pub fuel: Option<u64>,
    /// `FAULT_MODEL`: a [`FaultMix::parse`] mix; unset is pure transient.
    pub fault_mix: Option<FaultMix>,
    /// `THREADS`: `1..=`[`MAX_THREADS`] workers for sweeps and campaigns;
    /// unset is the available parallelism.
    pub threads: Option<usize>,
    /// `CHECKPOINT_DIR`: campaign checkpoint and anomaly-log directory
    /// (empty means unset).
    pub checkpoint_dir: Option<PathBuf>,
    /// `SHARD_TIMEOUT_MS`: base wall-clock deadline of a service shard.
    pub shard_timeout_ms: Option<u64>,
    /// `FAST`: `1` shrinks campaigns to CI-smoke sizes, `0` runs in full.
    pub fast: bool,
    /// `INPUTS`: gate-level campaign inputs per unit (full mode only).
    pub inputs: Option<usize>,
    /// The variables that were ignored, as `(name, message)` pairs.
    pub anomalies: Vec<(String, String)>,
}

impl RunConfig {
    /// Parse every `SWAPCODES_*` pair of `vars` in one pass; other names are
    /// skipped. A malformed value or an unrecognised `SWAPCODES_*` name
    /// leaves its field at the default and is recorded in `anomalies`.
    #[must_use]
    pub fn from_vars<K, V>(vars: impl IntoIterator<Item = (K, V)>) -> Self
    where
        K: AsRef<OsStr>,
        V: AsRef<OsStr>,
    {
        let mut cfg = Self::default();
        for (name, value) in vars {
            let value = value.as_ref();
            let Some(knob) = name.as_ref().to_str().and_then(|n| n.strip_prefix(PREFIX)) else {
                continue;
            };
            if let Err(why) = cfg.set(knob, value) {
                let var = format!("{PREFIX}{knob}");
                let msg = format!("ignoring {var}={:?}: {why}", value.to_string_lossy());
                cfg.anomalies.push((var, msg));
            }
        }
        cfg
    }

    /// [`Self::from_vars`] over the process environment, surfacing each
    /// anomaly once per variable (see [`take_env_anomalies`]).
    #[must_use]
    pub fn from_env() -> Self {
        let cfg = Self::from_vars(std::env::vars_os());
        let mut reg = SURFACED.lock().expect("env anomaly registry poisoned");
        for (var, msg) in &cfg.anomalies {
            if reg.surface(var, msg) {
                eprintln!("swapcodes: {msg}");
            }
        }
        cfg
    }

    fn set(&mut self, knob: &str, value: &OsStr) -> Result<(), String> {
        if knob == "CHECKPOINT_DIR" {
            self.checkpoint_dir = (!value.is_empty()).then(|| PathBuf::from(value));
            return Ok(());
        }
        let v = value.to_str().ok_or("value is not valid unicode")?;
        match knob {
            "FUEL" => self.fuel = Some(positive(v, u64::MAX)?),
            "FAULT_MODEL" => self.fault_mix = Some(FaultMix::parse(v)?),
            "THREADS" => self.threads = Some(parse_thread_count(v)?),
            "SHARD_TIMEOUT_MS" => self.shard_timeout_ms = Some(positive(v, u64::MAX)?),
            "FAST" => {
                self.fast = match v.trim() {
                    "1" => true,
                    "0" => false,
                    _ => return Err("expected 0 or 1".to_owned()),
                }
            }
            "INPUTS" => self.inputs = Some(positive(v, usize::MAX as u64)? as usize),
            _ => return Err("not a recognised setting".to_owned()),
        }
        Ok(())
    }

    /// The default campaign options under this configuration's fault mix
    /// and fuel override.
    #[must_use]
    pub fn campaign_options(&self) -> CampaignOptions {
        CampaignOptions {
            mix: self.fault_mix.unwrap_or_default(),
            fuel: self.fuel,
            ..CampaignOptions::default()
        }
    }
}

/// One line of effective values, unset knobs shown as `default`.
impl fmt::Display for RunConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn or_default(v: Option<impl fmt::Display>) -> String {
            v.map_or_else(|| "default".to_owned(), |v| v.to_string())
        }
        write!(
            f,
            "fuel={} fault_model={} threads={} checkpoint_dir={} shard_timeout_ms={} fast={} \
             inputs={}",
            or_default(self.fuel),
            or_default(self.fault_mix.map(|m| m.tag())),
            or_default(self.threads),
            or_default(self.checkpoint_dir.as_ref().map(|d| d.display())),
            or_default(self.shard_timeout_ms),
            u8::from(self.fast),
            or_default(self.inputs),
        )
    }
}

/// Parse an integer in `1..=max`.
fn positive(v: &str, max: u64) -> Result<u64, String> {
    match v.trim().parse::<u64>().map_err(|e| e.to_string())? {
        0 => Err("must be positive".to_owned()),
        n if n > max => Err(format!("out of range (at most {max})")),
        n => Ok(n),
    }
}

/// Parse a worker-thread count: an integer in `1..=`[`MAX_THREADS`].
///
/// # Errors
///
/// A message naming why the value is not a valid count.
pub fn parse_thread_count(v: &str) -> Result<usize, String> {
    positive(v, MAX_THREADS as u64).map(|n| n as usize)
}

/// Anomalies surfaced so far. `from_env` runs once per prepared campaign
/// and per checkpoint config, and one typo should be reported once, not
/// once per cell.
#[derive(Default)]
struct Surfaced {
    vars: Vec<String>,
    pending: Vec<String>,
}

static SURFACED: Mutex<Surfaced> = Mutex::new(Surfaced {
    vars: Vec::new(),
    pending: Vec::new(),
});

impl Surfaced {
    /// Queue `msg` unless `var` was surfaced before; `true` when queued.
    fn surface(&mut self, var: &str, msg: &str) -> bool {
        if self.vars.iter().any(|v| v == var) {
            return false;
        }
        self.vars.push(var.to_owned());
        self.pending.push(msg.to_owned());
        true
    }
}

/// Drain the environment anomalies queued since the last call. The
/// checkpointed campaign drivers append them to their [`AnomalyLog`], so a
/// typo'd override is visible in the campaign's on-disk record instead of
/// only on a scrolled-away stderr.
///
/// [`AnomalyLog`]: crate::harness::AnomalyLog
#[must_use]
pub fn take_env_anomalies() -> Vec<String> {
    std::mem::take(
        &mut SURFACED
            .lock()
            .expect("env anomaly registry poisoned")
            .pending,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    type Check = fn(&RunConfig) -> bool;

    /// Every kept knob with valid, malformed, zero and empty values, plus
    /// the four deleted knobs and an unrelated variable: `(name, value,
    /// expected field state, whether the pair is surfaced)`.
    const TABLE: &[(&str, &str, Check, bool)] = &[
        ("SWAPCODES_FUEL", "5000", |c| c.fuel == Some(5000), false),
        ("SWAPCODES_FUEL", " 7 ", |c| c.fuel == Some(7), false),
        ("SWAPCODES_FUEL", "not-a-number", |c| c.fuel.is_none(), true),
        ("SWAPCODES_FUEL", "0", |c| c.fuel.is_none(), true),
        ("SWAPCODES_FUEL", "", |c| c.fuel.is_none(), true),
        (
            "SWAPCODES_FAULT_MODEL",
            "all",
            |c| c.fault_mix == Some(FaultMix::all_classes()),
            false,
        ),
        (
            "SWAPCODES_FAULT_MODEL",
            "transient:2,control:1",
            |c| c.fault_mix.map(|m| m.tag()).as_deref() == Some("t2c1s0"),
            false,
        ),
        (
            "SWAPCODES_FAULT_MODEL",
            "cosmic",
            |c| c.fault_mix.is_none(),
            true,
        ),
        (
            "SWAPCODES_FAULT_MODEL",
            "control:0",
            |c| c.fault_mix.is_none(),
            true,
        ),
        ("SWAPCODES_FAULT_MODEL", "", |c| c.fault_mix.is_none(), true),
        ("SWAPCODES_THREADS", "3", |c| c.threads == Some(3), false),
        (
            "SWAPCODES_THREADS",
            "256",
            |c| c.threads == Some(MAX_THREADS),
            false,
        ),
        ("SWAPCODES_THREADS", "abc", |c| c.threads.is_none(), true),
        ("SWAPCODES_THREADS", "0", |c| c.threads.is_none(), true),
        ("SWAPCODES_THREADS", "", |c| c.threads.is_none(), true),
        ("SWAPCODES_THREADS", "257", |c| c.threads.is_none(), true),
        (
            "SWAPCODES_THREADS",
            "1000000",
            |c| c.threads.is_none(),
            true,
        ),
        (
            "SWAPCODES_CHECKPOINT_DIR",
            "/tmp/ckpt",
            |c| c.checkpoint_dir == Some(PathBuf::from("/tmp/ckpt")),
            false,
        ),
        (
            "SWAPCODES_CHECKPOINT_DIR",
            "",
            |c| c.checkpoint_dir.is_none(),
            false,
        ),
        (
            "SWAPCODES_SHARD_TIMEOUT_MS",
            "250",
            |c| c.shard_timeout_ms == Some(250),
            false,
        ),
        (
            "SWAPCODES_SHARD_TIMEOUT_MS",
            "soon",
            |c| c.shard_timeout_ms.is_none(),
            true,
        ),
        (
            "SWAPCODES_SHARD_TIMEOUT_MS",
            "0",
            |c| c.shard_timeout_ms.is_none(),
            true,
        ),
        (
            "SWAPCODES_SHARD_TIMEOUT_MS",
            "",
            |c| c.shard_timeout_ms.is_none(),
            true,
        ),
        ("SWAPCODES_FAST", "1", |c| c.fast, false),
        ("SWAPCODES_FAST", "0", |c| !c.fast, false),
        ("SWAPCODES_FAST", "yes", |c| !c.fast, true),
        ("SWAPCODES_FAST", "", |c| !c.fast, true),
        ("SWAPCODES_INPUTS", "123", |c| c.inputs == Some(123), false),
        ("SWAPCODES_INPUTS", "abc", |c| c.inputs.is_none(), true),
        ("SWAPCODES_INPUTS", "0", |c| c.inputs.is_none(), true),
        ("SWAPCODES_INPUTS", "", |c| c.inputs.is_none(), true),
        (
            "SWAPCODES_EXEC_TIER",
            "tier1",
            |c| *c == with_no_anomalies(c),
            true,
        ),
        (
            "SWAPCODES_SNAPSHOT_INTERVAL",
            "512",
            |c| *c == with_no_anomalies(c),
            true,
        ),
        (
            "SWAPCODES_COW_PAGE_WORDS",
            "64",
            |c| *c == with_no_anomalies(c),
            true,
        ),
        (
            "SWAPCODES_SERVE_WORKERS",
            "4",
            |c| *c == with_no_anomalies(c),
            true,
        ),
        ("PATH", "/usr/bin", |c| *c == RunConfig::default(), false),
    ];

    /// `c` as it would be without anomalies: equal to the default exactly
    /// when the pair set nothing.
    fn with_no_anomalies(c: &RunConfig) -> RunConfig {
        RunConfig {
            anomalies: c.anomalies.clone(),
            ..RunConfig::default()
        }
    }

    #[test]
    fn from_vars_table() {
        for &(var, value, check, surfaced) in TABLE {
            let cfg = RunConfig::from_vars([(var, value)]);
            assert!(check(&cfg), "{var}={value:?} parsed to {cfg:?}");
            if surfaced {
                assert_eq!(cfg.anomalies.len(), 1, "{var}={value:?}: {cfg:?}");
                let (name, msg) = &cfg.anomalies[0];
                assert_eq!(name, var);
                assert!(msg.contains(var), "{msg}");
            } else {
                assert!(cfg.anomalies.is_empty(), "{var}={value:?}: {cfg:?}");
            }
        }
    }

    #[test]
    fn anomaly_messages_name_the_reason() {
        let reason =
            |var: &str, value: &str| RunConfig::from_vars([(var, value)]).anomalies[0].1.clone();
        assert!(reason("SWAPCODES_FUEL", "0").contains("positive"));
        assert!(reason("SWAPCODES_THREADS", "1000000").contains("out of range"));
        assert!(reason("SWAPCODES_EXEC_TIER", "tier1").contains("not a recognised setting"));
    }

    #[test]
    fn one_pass_over_many_vars() {
        let cfg = RunConfig::from_vars([
            ("SWAPCODES_FUEL", "9000"),
            ("SWAPCODES_FAST", "1"),
            ("HOME", "/root"),
            ("SWAPCODES_THREADS", "abc"),
            ("SWAPCODES_INPUTS", "50"),
            ("SWAPCODES_EXEC_TIER", "tier1"),
        ]);
        assert_eq!(cfg.fuel, Some(9000));
        assert!(cfg.fast);
        assert_eq!(cfg.threads, None);
        assert_eq!(cfg.inputs, Some(50));
        let vars: Vec<&str> = cfg.anomalies.iter().map(|(v, _)| v.as_str()).collect();
        assert_eq!(vars, ["SWAPCODES_THREADS", "SWAPCODES_EXEC_TIER"]);
        assert_eq!(
            cfg.campaign_options(),
            CampaignOptions {
                fuel: Some(9000),
                ..CampaignOptions::default()
            }
        );
    }

    #[test]
    fn empty_environment_is_the_default() {
        let cfg = RunConfig::from_vars(Vec::<(String, String)>::new());
        assert_eq!(cfg, RunConfig::default());
        assert_eq!(cfg.campaign_options(), CampaignOptions::default());
        assert_eq!(
            cfg.to_string(),
            "fuel=default fault_model=default threads=default checkpoint_dir=default \
             shard_timeout_ms=default fast=0 inputs=default"
        );
    }

    #[cfg(unix)]
    #[test]
    fn non_unicode_values_are_surfaced_except_for_paths() {
        use std::ffi::OsString;
        use std::os::unix::ffi::OsStringExt;
        let raw = || OsString::from_vec(vec![b'4', 0xFF]);
        let cfg = RunConfig::from_vars([("SWAPCODES_FUEL", raw())]);
        assert_eq!(cfg.fuel, None);
        assert!(cfg.anomalies[0].1.contains("unicode"), "{cfg:?}");
        let cfg = RunConfig::from_vars([("SWAPCODES_CHECKPOINT_DIR", raw())]);
        assert_eq!(cfg.checkpoint_dir, Some(PathBuf::from(raw())));
        assert!(cfg.anomalies.is_empty());
    }

    /// Repeated reads of a malformed variable surface it once; once
    /// surfaced and drained, it never queues again.
    #[test]
    fn malformed_vars_surface_once() {
        let mut reg = Surfaced::default();
        for _ in 0..3 {
            let cfg = RunConfig::from_vars([
                ("SWAPCODES_FUEL", "not-a-number"),
                ("SWAPCODES_EXEC_TIER", "tier9"),
            ]);
            for (var, msg) in &cfg.anomalies {
                reg.surface(var, msg);
            }
        }
        let msgs = std::mem::take(&mut reg.pending);
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs[0].contains("SWAPCODES_FUEL"), "{msgs:?}");
        assert!(msgs[1].contains("SWAPCODES_EXEC_TIER"), "{msgs:?}");
        assert!(!reg.surface("SWAPCODES_FUEL", "again"));
        assert!(reg.pending.is_empty());
    }
}
