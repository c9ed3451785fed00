//! Synthetic GPU workloads mirroring the paper's evaluation suite.
//!
//! The paper evaluates on Rodinia 2.3, the SNAP DOE miniapp, and the CUDA
//! SDK matrix multiply. The real binaries cannot run here (there is no GPU
//! and no CUDA), so each benchmark is re-created as a kernel in the
//! [`swapcodes_isa`] IR whose *characteristics* match the original: dynamic
//! instruction mix (fixed-point vs FP32 vs FP64 vs memory), register
//! pressure, CTA geometry, shared-memory/barrier usage, branchiness and
//! memory-boundedness. These are the properties that determine how each
//! duplication scheme performs (Figs. 12–15), so preserving them preserves
//! the experiments' shape.
//!
//! Each workload provides deterministic input data and designates an output
//! region used for silent-data-corruption comparisons in fault-injection
//! campaigns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backprop;
mod bfs;
mod btree;
mod gaussian;
mod heartwall;
mod hotspot;
mod kmeans;
mod lavamd;
mod lud;
mod matmul;
mod mummer;
mod needle;
mod pathfinder;
mod snap;
mod srad;

pub(crate) mod util;

use std::sync::OnceLock;

use swapcodes_isa::Kernel;
use swapcodes_sim::{GlobalMemory, Launch};

/// A benchmark: kernel, launch geometry, input initialisation and the output
/// region checked for silent corruption.
pub struct Workload {
    /// Short name (matches the paper's figure labels).
    pub name: &'static str,
    /// The kernel.
    pub kernel: Kernel,
    /// Launch geometry.
    pub launch: Launch,
    /// Global memory size in bytes.
    pub mem_bytes: u32,
    /// Deterministic input initialiser.
    pub init: fn(&mut GlobalMemory),
    /// `(byte_address, words)` of the output region.
    pub output: (u32, u32),
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("instrs", &self.kernel.len())
            .field("launch", &self.launch)
            .finish_non_exhaustive()
    }
}

impl Workload {
    /// Allocate and initialise this workload's global memory.
    #[must_use]
    pub fn build_memory(&self) -> GlobalMemory {
        let mut m = GlobalMemory::new(self.mem_bytes as usize);
        (self.init)(&mut m);
        m
    }

    /// The output region words of `mem`.
    #[must_use]
    pub fn output_words(&self, mem: &GlobalMemory) -> Vec<u32> {
        mem.read_u32_slice(self.output.0, self.output.1 as usize)
    }
}

/// The 13 Rodinia-2.3-like workloads, in the paper's Fig. 13 order
/// (sorted by increasing checking-code bloat).
#[must_use]
pub fn rodinia() -> Vec<Workload> {
    vec![
        lavamd::workload(),
        backprop::workload(),
        kmeans::workload(),
        lud::workload(),
        gaussian::workload(),
        btree::workload(),
        mummer::workload(),
        hotspot::workload(),
        heartwall::workload(),
        needle::workload(),
        bfs::workload(),
        pathfinder::workload(),
        srad::workload(),
    ]
}

/// Every workload: Rodinia-like suite plus SNAP and matrix multiply.
#[must_use]
pub fn all() -> Vec<Workload> {
    let mut v = rodinia();
    v.push(snap::workload());
    v.push(matmul::workload());
    v
}

/// Look a workload up by name in a registry of [`all`] built once per
/// process on first use, so repeated lookups (one per campaign-service
/// shard lease) build nothing. [`by_name`] builds a fresh, owned copy.
#[must_use]
pub fn lookup(name: &str) -> Option<&'static Workload> {
    static ALL: OnceLock<Vec<Workload>> = OnceLock::new();
    ALL.get_or_init(all).iter().find(|w| w.name == name)
}

/// Look a workload up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete() {
        let names: Vec<&str> = all().iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 15);
        assert!(names.contains(&"lavaMD"));
        assert!(names.contains(&"snap"));
        assert!(names.contains(&"matmul"));
        // Unique names.
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("bfs").is_some());
        assert!(by_name("nonesuch").is_none());
        let w = lookup("matmul").expect("matmul");
        assert!(std::ptr::eq(w, lookup("matmul").expect("matmul")));
        assert_eq!(
            by_name("matmul").expect("matmul").kernel.len(),
            w.kernel.len()
        );
    }

    #[test]
    fn memory_fits_launch() {
        for w in all() {
            let mem = w.build_memory();
            assert!(
                w.output.0 + w.output.1 * 4 <= mem.len() as u32,
                "{}",
                w.name
            );
            assert!(w.launch.ctas > 0 && w.launch.threads_per_cta > 0);
        }
    }
}
