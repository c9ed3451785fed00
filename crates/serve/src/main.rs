//! `swapcodes-serve` — the campaign service CLI.
//!
//! ```text
//! swapcodes-serve serve  [--addr 127.0.0.1:7171] [--workers N] [--dir PATH]
//! swapcodes-serve submit [--addr ...] SPEC.json
//! swapcodes-serve status [--addr ...] JOB_ID
//! swapcodes-serve results [--addr ...] JOB_ID
//! swapcodes-serve cancel [--addr ...] JOB_ID
//! ```
//!
//! `serve` runs the worker pool and HTTP API in the foreground until
//! killed; with `--dir` it resumes persisted jobs from their shard
//! checkpoints on startup (the CI kill-and-restart flow). `--workers` takes
//! a count in `1..=MAX_THREADS` (default 4); anything else is a usage
//! error. The startup banner prints the resolved `SWAPCODES_*` settings.
//! The other verbs are thin HTTP clients printing the JSON response.

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use swapcodes_inject::parse_thread_count;
use swapcodes_serve::http;
use swapcodes_serve::{Service, ServiceConfig};

const DEFAULT_ADDR: &str = "127.0.0.1:7171";

fn usage() -> ExitCode {
    eprintln!(
        "usage: swapcodes-serve serve   [--addr HOST:PORT] [--workers N] [--dir PATH]\n\
         \u{20}      swapcodes-serve submit  [--addr HOST:PORT] SPEC.json\n\
         \u{20}      swapcodes-serve status  [--addr HOST:PORT] JOB_ID\n\
         \u{20}      swapcodes-serve results [--addr HOST:PORT] JOB_ID\n\
         \u{20}      swapcodes-serve cancel  [--addr HOST:PORT] JOB_ID"
    );
    ExitCode::from(2)
}

struct Flags {
    addr: String,
    workers: Option<usize>,
    dir: Option<String>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        addr: DEFAULT_ADDR.to_owned(),
        workers: None,
        dir: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--addr" => flags.addr = value()?,
            "--workers" => {
                let v = value()?;
                let n = parse_thread_count(&v).map_err(|e| format!("--workers {v:?}: {e}"))?;
                flags.workers = Some(n);
            }
            "--dir" => flags.dir = Some(value()?),
            _ if a.starts_with("--") => return Err(format!("unknown flag {a}")),
            _ => flags.positional.push(a.clone()),
        }
    }
    Ok(flags)
}

fn client(addr: &str, method: &str, path: &str, body: Option<&str>) -> ExitCode {
    match http::request(addr, method, path, body) {
        Ok((status, payload)) => {
            println!("{payload}");
            if (200..300).contains(&status) {
                ExitCode::SUCCESS
            } else {
                eprintln!("swapcodes-serve: HTTP {status}");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("swapcodes-serve: {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(verb) = args.first().map(String::as_str) else {
        return usage();
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("swapcodes-serve: {e}");
            return usage();
        }
    };
    match verb {
        "serve" => {
            let mut cfg = ServiceConfig::default();
            if let Some(w) = flags.workers {
                cfg.workers = w;
            }
            if let Some(d) = &flags.dir {
                cfg.dir = Some(d.into());
            }
            let listener = match TcpListener::bind(&flags.addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("swapcodes-serve: bind {}: {e}", flags.addr);
                    return ExitCode::FAILURE;
                }
            };
            let banner = format!(
                "listening on {} ({} workers{})",
                flags.addr,
                cfg.workers,
                cfg.dir
                    .as_ref()
                    .map(|d| format!(", state in {}", d.display()))
                    .unwrap_or_default()
            );
            let service = Arc::new(Service::start(cfg));
            eprintln!(
                "swapcodes-serve: {banner}; run config: {}",
                service.run_config()
            );
            let stop = AtomicBool::new(false);
            if let Err(e) = http::serve(&service, &listener, &stop) {
                eprintln!("swapcodes-serve: {e}");
                return ExitCode::FAILURE;
            }
            service.shutdown();
            ExitCode::SUCCESS
        }
        "submit" => {
            let Some(path) = flags.positional.first() else {
                return usage();
            };
            let spec = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("swapcodes-serve: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            client(&flags.addr, "POST", "/jobs", Some(&spec))
        }
        "status" | "results" | "cancel" => {
            let Some(id) = flags.positional.first() else {
                return usage();
            };
            match verb {
                "status" => client(&flags.addr, "GET", &format!("/jobs/{id}"), None),
                "results" => client(&flags.addr, "GET", &format!("/jobs/{id}/results"), None),
                _ => client(&flags.addr, "POST", &format!("/jobs/{id}/cancel"), None),
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use swapcodes_inject::MAX_THREADS;

    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, String> {
        parse_flags(&args.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn workers_take_a_count_in_range() {
        assert_eq!(parse(&["--workers", "3"]).unwrap().workers, Some(3));
        let max = MAX_THREADS.to_string();
        assert_eq!(
            parse(&["--workers", &max]).unwrap().workers,
            Some(MAX_THREADS)
        );
        let over = (MAX_THREADS + 1).to_string();
        for bad in ["abc", "0", "-1", "", &over, "1000000"] {
            let err = parse(&["--workers", bad]).err();
            assert!(err.is_some_and(|e| e.contains("--workers")), "{bad:?}");
        }
        assert!(parse(&["--workers"]).is_err());
    }

    #[test]
    fn other_flags_and_positionals() {
        let f = parse(&["--addr", "0.0.0.0:1", "--dir", "/tmp/s", "7"]).unwrap();
        assert_eq!(
            (f.addr.as_str(), f.dir.as_deref()),
            ("0.0.0.0:1", Some("/tmp/s"))
        );
        assert_eq!((f.workers, f.positional), (None, vec!["7".to_owned()]));
        assert!(parse(&["--addr"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
