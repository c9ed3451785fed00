//! What the benchmark does about its host: a small shared virtual machine.
//!
//! - **The process CPU clock.** The process is often not running: another
//!   tenant holds the core, or the hypervisor has descheduled the vCPU.
//!   Wall time counts those gaps; the process CPU clock does not (Linux
//!   subtracts hypervisor steal from task run time under paravirtual steal
//!   accounting). Work per CPU second is therefore the host-independent
//!   cost of the work, where work per wall second mostly measures the
//!   neighbours.
//! - **Fixed allocator thresholds.** By default glibc returns freed memory
//!   to the kernel (`munmap`, heap trim) on thresholds it adjusts as the
//!   run goes. Each return flushes the TLB of every CPU that may hold the
//!   address space; on a VM that is an interrupt to the other vCPU, and
//!   whether that vCPU still holds it decides, run by run, whether a
//!   1.2 ms set-up takes 1.7 ms. With both thresholds fixed high, freed
//!   memory stays with the process and is reused.
//! - **A host speed index.** Even per CPU second the host is not steady:
//!   other tenants' load on the same physical cores and caches slows every
//!   instruction, by up to 40% for minutes at a time. Three fixed loops of
//!   the benchmark's own — an interpreter over a 1 MiB memory, hash-map
//!   inserts and lookups, and a sort — are timed on the CPU clock between
//!   the measured units, and their speed relative to reference times gives
//!   the index the end-to-end figures are divided by. The loops are not
//!   program code, so no change to the program moves the index.

use std::collections::HashMap;
use std::ffi::{c_int, c_long};
use std::time::{Duration, Instant};

use crate::median;

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: CPU time of every thread of the
/// process, live or exited.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// `M_TRIM_THRESHOLD` and `M_MMAP_THRESHOLD` in glibc's `malloc.h`.
const M_TRIM_THRESHOLD: c_int = -1;
const M_MMAP_THRESHOLD: c_int = -3;

/// Freed heap top kept before trimming, bytes.
pub const TRIM_THRESHOLD: c_int = 512 << 20;
/// Smallest allocation served by its own mapping, bytes (glibc's maximum).
pub const MMAP_THRESHOLD: c_int = 32 << 20;

/// `struct timespec` on Linux (`time_t` and `long` are both `long` in the
/// ABI of the `clock_gettime` symbol).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn mallopt(param: c_int, value: c_int) -> c_int;
}

/// CPU seconds the whole process has used so far.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the duration
    // of the call, and `CLOCK_PROCESS_CPUTIME_ID` is a clock every Linux
    // kernel supports; the call writes only through `tp`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Fix the allocator's trim and mmap thresholds. Call once, before any
/// other thread starts. Returns whether the allocator accepted both.
pub fn fix_allocator_thresholds() -> bool {
    // SAFETY: `mallopt` takes two plain integers and only changes the
    // allocator's parameters; no other thread exists yet to race with it.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
            && mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    }
}

/// CPU seconds each calibration loop (interp, hash, sort) takes at
/// reference host speed: about the fastest medians measured on a 2-vCPU
/// Intel Xeon 2.0 GHz guest.
const REFERENCE_S: [f64; 3] = [5.75e-3, 3.70e-3, 1.90e-3];

/// Least wall time between two calibration samples.
const CALIBRATION_GAP: Duration = Duration::from_millis(400);

/// Host speed samples taken through a run.
#[derive(Default)]
pub struct HostSpeed {
    /// CPU seconds of each calibration loop, per sample.
    times: Vec<[f64; 3]>,
    last: Option<Instant>,
}

impl HostSpeed {
    /// Time the calibration loops, unless the last sample is recent.
    pub fn sample(&mut self) {
        if self.last.is_some_and(|t| t.elapsed() < CALIBRATION_GAP) {
            return;
        }
        self.times.push(calibration_cpu_s());
        self.last = Some(Instant::now());
    }

    /// The host speed index: over samples, the median of the geometric
    /// mean of the loops' reference-to-measured time ratios. 1 at reference
    /// speed, below 1 on a slower host.
    pub fn index(&self) -> f64 {
        let speeds: Vec<f64> = self
            .times
            .iter()
            .map(|t| {
                let log: f64 = REFERENCE_S
                    .iter()
                    .zip(t)
                    .map(|(r, t)| (r / t.max(1e-9)).ln())
                    .sum();
                (log / REFERENCE_S.len() as f64).exp()
            })
            .collect();
        if speeds.is_empty() {
            1.0
        } else {
            median(&speeds)
        }
    }

    /// The index with each loop's median CPU time, for printing.
    pub fn describe(&self) -> String {
        let loop_ms = |i: usize| median(&self.times.iter().map(|t| t[i] * 1e3).collect::<Vec<_>>());
        format!(
            "host speed index {:.4} over {} samples (loop medians: interp {:.3} ms, \
             hash {:.3} ms, sort {:.3} ms)",
            self.index(),
            self.times.len(),
            loop_ms(0),
            loop_ms(1),
            loop_ms(2)
        )
    }
}

/// One xorshift64 step.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A register-machine interpreter: loads, stores and ALU operations chosen
/// pseudo-randomly over 64 registers and a 1 MiB memory.
fn interp_loop() -> u64 {
    let mut mem = vec![0u32; 1 << 18];
    let mut regs = [0u32; 64];
    let mut x = 0x9E37_79B9_7F4A_7C15;
    let mut taken = 0u64;
    for _ in 0..500_000 {
        let v = xorshift(&mut x);
        let a = ((v >> 8) & 63) as usize;
        let b = ((v >> 16) & 63) as usize;
        let addr = ((v >> 24) as usize ^ regs[b] as usize) & ((1 << 18) - 1);
        match v & 7 {
            0 => regs[a] = regs[a].wrapping_add(regs[b]),
            1 => regs[a] = regs[a].wrapping_mul(regs[b] | 1),
            2 => regs[a] = mem[addr],
            3 => mem[addr] = regs[a],
            4 => regs[a] ^= regs[b].rotate_left(5),
            5 if regs[a] > regs[b] => regs[a] = regs[b],
            5 => taken += 1,
            6 => regs[a] = mem[addr].wrapping_add(regs[b]),
            _ => mem[addr] ^= regs[b],
        }
    }
    taken + regs.iter().map(|&r| u64::from(r)).sum::<u64>()
}

/// Hash-map inserts, then as many lookups.
fn hash_loop() -> u64 {
    const N: u64 = 50_000;
    let mut x = 777;
    let mut m = HashMap::new();
    for i in 0..N {
        m.insert(xorshift(&mut x) % (2 * N), i);
    }
    (0..N)
        .filter(|_| m.contains_key(&(xorshift(&mut x) % (2 * N))))
        .count() as u64
}

/// Sort of pseudo-random words.
fn sort_loop() -> u64 {
    let mut x = 99;
    let mut v: Vec<u64> = (0..100_000).map(|_| xorshift(&mut x)).collect();
    v.sort_unstable();
    v[v.len() / 2]
}

/// CPU seconds of one pass of each calibration loop.
fn calibration_cpu_s() -> [f64; 3] {
    let time = |f: fn() -> u64| {
        let c = process_cpu_s();
        std::hint::black_box(f());
        process_cpu_s() - c
    };
    [time(interp_loop), time(hash_loop), time(sort_loop)]
}
