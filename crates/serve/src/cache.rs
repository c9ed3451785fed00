//! The prepared-campaign cache: each cell is prepared once per service and
//! shared by every shard and job that leases it, whatever their seed.
//!
//! [`ArchCampaign::prepare_with`] (transform, peephole, reference golden
//! run, snapshot ladder, tier-2 compile) costs tens of trials' worth of
//! work and is pure in everything but the seed, which it only stores. So
//! the cache key is the checkpoint identity minus the seed ([`PrepKey`]),
//! and a hit is re-targeted at the lease's seed with
//! [`ArchCampaign::with_seed`] in O(1).
//!
//! * **Single-flight.** Each key owns one slot. The first lease of a cell
//!   fills it; concurrent leases of the same cell block on that slot only,
//!   never on the map, so adjacent shards never prepare duplicates.
//! * **Panics leave the slot empty.** A fill that unwinds stores nothing,
//!   and the next lease of the cell fills it afresh.
//! * **Errors are cached.** A [`PrepError`] is deterministic in the key, so
//!   it is stored like a campaign and every shard of the cell fails with it.
//! * **Byte budget.** Entries are charged [`ArchCampaign::resident_bytes`];
//!   past [`PREPARED_CACHE_BYTES`] the least-recently-used filled entries
//!   are evicted (shards already holding one keep it alive until they end).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use swapcodes_core::Scheme;
use swapcodes_inject::{ArchCampaign, CampaignOptions, PrepError};

/// Resident-byte budget of one service's cache. A prepared cell holds its
/// snapshot ladder (up to about 32 rungs of global memory, shared memory
/// and warp register files), its transformed kernel and its golden output:
/// 0.3–4.3 MB per Swap-ECC or SW-Dup cell across the suite, so the budget
/// keeps a few dozen cells — every cell of a typical job matrix — resident.
pub const PREPARED_CACHE_BYTES: u64 = 64 << 20;

/// Everything a prepared campaign depends on, except the seed: the
/// checkpoint identity (engine tag, mix tag, fuel) minus the seed.
/// `prepare_with` reads nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrepKey {
    /// Workload name.
    pub workload: &'static str,
    /// Protection scheme.
    pub scheme: Scheme,
    /// Resolved options (tier, peephole, fault mix, CoW page size, fuel).
    pub options: CampaignOptions,
}

/// What a fill produces.
pub type Prepared = Result<ArchCampaign<'static>, PrepError>;

struct Entry {
    key: PrepKey,
    slot: Arc<OnceLock<Prepared>>,
    /// Charged bytes; 0 until filled, and for cached errors.
    bytes: u64,
    last_used: u64,
}

#[derive(Default)]
struct Lru {
    entries: Vec<Entry>,
    tick: u64,
}

/// Cache counters, reported through `ServiceMetrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Fills that ran to completion (campaign or cached error).
    pub fills: u64,
    /// Lookups served by an existing or concurrently filled slot.
    pub hits: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Bytes charged to resident entries.
    pub resident_bytes: u64,
}

/// A byte-budgeted, single-flight cache of prepared campaigns.
pub struct PreparedCache {
    budget: u64,
    lru: Mutex<Lru>,
    fills: AtomicU64,
    hits: AtomicU64,
    evictions: AtomicU64,
}

impl PreparedCache {
    /// An empty cache evicting past `budget` resident bytes.
    #[must_use]
    pub fn new(budget: u64) -> Self {
        Self {
            budget,
            lru: Mutex::new(Lru::default()),
            fills: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The campaign for `key` at `seed`, running `fill` on a miss. Only one
    /// caller per key fills at a time; the others wait for its result. If
    /// `fill` panics the panic propagates and the slot stays empty.
    ///
    /// # Errors
    ///
    /// The [`PrepError`] the key's fill produced (cached like a campaign).
    pub fn get(
        &self,
        key: PrepKey,
        seed: u64,
        fill: impl FnOnce() -> Prepared,
    ) -> Result<ArchCampaign<'static>, PrepError> {
        let slot = self.slot(key);
        let mut filled = false;
        let prepared = slot.get_or_init(|| {
            let p = fill();
            filled = true;
            p
        });
        if filled {
            self.fills.fetch_add(1, Ordering::Relaxed);
            let bytes = prepared.as_ref().map_or(0, ArchCampaign::resident_bytes);
            self.charge(&slot, bytes);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        match prepared {
            Ok(c) => Ok(c.with_seed(seed)),
            Err(e) => Err(e.clone()),
        }
    }

    /// The counters and the bytes currently charged.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let resident_bytes = self
            .lru
            .lock()
            .expect("cache poisoned")
            .entries
            .iter()
            .map(|e| e.bytes)
            .sum();
        CacheStats {
            fills: self.fills.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes,
        }
    }

    /// The slot for `key` (created empty on first use), marked most
    /// recently used.
    fn slot(&self, key: PrepKey) -> Arc<OnceLock<Prepared>> {
        let mut lru = self.lru.lock().expect("cache poisoned");
        lru.tick += 1;
        let tick = lru.tick;
        if let Some(e) = lru.entries.iter_mut().find(|e| e.key == key) {
            e.last_used = tick;
            return Arc::clone(&e.slot);
        }
        let slot = Arc::new(OnceLock::new());
        lru.entries.push(Entry {
            key,
            slot: Arc::clone(&slot),
            bytes: 0,
            last_used: tick,
        });
        slot
    }

    /// Charge a freshly filled slot, then evict least-recently-used filled
    /// entries (never this one) until the cache fits its budget.
    fn charge(&self, slot: &Arc<OnceLock<Prepared>>, bytes: u64) {
        let mut lru = self.lru.lock().expect("cache poisoned");
        let Some(e) = lru.entries.iter_mut().find(|e| Arc::ptr_eq(&e.slot, slot)) else {
            return; // unreachable: eviction skips unfilled slots
        };
        e.bytes = bytes;
        let mut total: u64 = lru.entries.iter().map(|e| e.bytes).sum();
        while total > self.budget {
            let Some(victim) = lru
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.bytes > 0 && !Arc::ptr_eq(&e.slot, slot))
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            else {
                break;
            };
            total -= lru.entries.swap_remove(victim).bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;

    fn key(workload: &'static str) -> PrepKey {
        PrepKey {
            workload,
            scheme: Scheme::SwapEcc,
            options: CampaignOptions::default(),
        }
    }

    fn prepare(name: &str, seed: u64) -> Prepared {
        let w = swapcodes_workloads::lookup(name).expect("workload");
        ArchCampaign::prepare_with(w, Scheme::SwapEcc, seed, CampaignOptions::default())
    }

    #[test]
    fn panicking_fill_leaves_the_slot_empty_for_the_next_fill() {
        let cache = PreparedCache::new(PREPARED_CACHE_BYTES);
        let k = key("kmeans");
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            cache.get(k, 1, || panic!("fill crashed"))
        }));
        assert!(crashed.is_err());
        assert_eq!(cache.stats(), CacheStats::default());

        let c = cache.get(k, 5, || prepare("kmeans", 1)).expect("fills");
        assert_eq!(c.seed(), 5);
        let again = cache
            .get(k, 9, || panic!("a filled slot never refills"))
            .expect("hit");
        assert_eq!(again.seed(), 9);
        let s = cache.stats();
        assert_eq!((s.fills, s.hits, s.evictions), (1, 1, 0));
        assert_eq!(s.resident_bytes, c.resident_bytes());
        assert!(s.resident_bytes > 0);
    }

    #[test]
    fn errors_are_cached_and_charged_nothing() {
        let cache = PreparedCache::new(PREPARED_CACHE_BYTES);
        let k = key("kmeans");
        let err = cache.get(k, 0, || Err(PrepError::NotApplicable));
        assert_eq!(err.expect_err("cached error"), PrepError::NotApplicable);
        let again = cache.get(k, 1, || panic!("errors are cached"));
        assert_eq!(again.expect_err("cached error"), PrepError::NotApplicable);
        let s = cache.stats();
        assert_eq!((s.fills, s.hits, s.resident_bytes), (1, 1, 0));
    }

    #[test]
    fn a_lease_arriving_mid_fill_waits_instead_of_filling() {
        let cache = &PreparedCache::new(PREPARED_CACHE_BYTES);
        let k = key("hspot");
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let filler = s.spawn(move || {
                cache.get(k, 1, || {
                    started_tx.send(()).expect("test alive");
                    go_rx.recv().expect("test alive");
                    prepare("hspot", 1)
                })
            });
            started_rx.recv().expect("fill started");
            let waiter = s.spawn(move || cache.get(k, 2, || panic!("second fill of one cell")));
            go_tx.send(()).expect("filler alive");
            assert_eq!(filler.join().expect("filler").expect("fills").seed(), 1);
            assert_eq!(waiter.join().expect("waiter").expect("hit").seed(), 2);
        });
        let s = cache.stats();
        assert_eq!((s.fills, s.hits), (1, 1));
    }

    #[test]
    fn budget_evicts_least_recently_used() {
        let names = ["kmeans", "hspot", "pathf"];
        let sizes: Vec<u64> = names
            .iter()
            .map(|n| prepare(n, 0).expect("prepares").resident_bytes())
            .collect();
        // Any two cells fit, all three do not.
        let cache = PreparedCache::new(sizes.iter().sum::<u64>() - 1);
        let _ = cache.get(key("kmeans"), 0, || prepare("kmeans", 0));
        let _ = cache.get(key("hspot"), 0, || prepare("hspot", 0));
        // Touch kmeans, so hspot is the least recently used.
        let _ = cache.get(key("kmeans"), 0, || unreachable!("resident"));
        let _ = cache.get(key("pathf"), 0, || prepare("pathf", 0));
        let s = cache.stats();
        assert_eq!((s.fills, s.evictions), (3, 1));
        assert_eq!(s.resident_bytes, sizes[0] + sizes[2]);
        let _ = cache.get(key("kmeans"), 0, || unreachable!("kmeans stayed"));
        let _ = cache.get(key("hspot"), 0, || prepare("hspot", 0));
        assert_eq!(cache.stats().fills, 4, "hspot was evicted and refills");
    }
}
