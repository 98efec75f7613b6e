//! Fully-associative victim cache (Jouppi, ISCA 1990).
//!
//! The victim cache holds blocks recently evicted from an L1. On an L1 miss the
//! victim cache is probed; a hit returns the block (and usually moves it back into
//! the L1). The paper uses a 16-entry victim cache as a fail-safe for block-disabled
//! caches: sets that lost most of their ways to faults evict frequently, and those
//! evictions exhibit enough temporal locality to be captured by a small buffer.
//!
//! At low voltage the victim cache is built either from 10T cells (all entries
//! usable) or from 6T cells with a per-entry 10T disable bit (faulty entries are
//! disabled; the paper conservatively models half of them as faulty).

use crate::stats::CacheStats;

/// A fully-associative victim cache with true-LRU replacement.
///
/// The recency clock is a `u64`: a 32-bit clock wraps after 2^32
/// insert/touch operations and inverts the LRU order. ([`crate::SetAssocCache`]
/// has no clock: it keeps a `u8` recency rank per way.)
/// Invalid entries carry no meaningful LRU value and are never compared —
/// victim selection prefers them structurally (first invalid slot) before any
/// recency comparison happens, so no sentinel value exists to collide with a
/// live clock.
#[derive(Debug, Clone)]
pub struct VictimCache {
    block_bytes: u64,
    entries: Vec<Entry>,
    lru_clock: u64,
    stats: CacheStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    valid: bool,
    block_addr: u64,
    dirty: bool,
    /// Only meaningful while `valid`; never compared otherwise.
    lru: u64,
}

impl Entry {
    fn empty() -> Self {
        Self {
            valid: false,
            block_addr: 0,
            dirty: false,
            lru: 0,
        }
    }
}

impl VictimCache {
    /// Creates a victim cache with `entries` usable entries and the given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two.
    #[must_use]
    pub fn new(entries: usize, block_bytes: u64) -> Self {
        assert!(block_bytes.is_power_of_two(), "block size must be a power of two");
        Self {
            block_bytes,
            entries: vec![Entry::empty(); entries],
            lru_clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The paper's 16-entry, 64 B/block victim cache.
    #[must_use]
    pub fn ispass2010() -> Self {
        Self::new(16, 64)
    }

    /// Number of usable entries.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// Access statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the access statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Advances the LRU clock to at least `clock` without touching any entry.
    ///
    /// Test hook for long-horizon regression tests (the clock only moves
    /// forward, so recency stays monotonic).
    pub fn fast_forward_lru_clock(&mut self, clock: u64) {
        self.lru_clock = self.lru_clock.max(clock);
    }

    fn block_of(&self, addr: u64) -> u64 {
        addr & !(self.block_bytes - 1)
    }

    /// Probes for the block containing `addr` and, on a hit, removes it (the caller
    /// normally reinstalls it into the L1). Returns whether the block was dirty.
    pub fn take(&mut self, addr: u64) -> Option<bool> {
        let block = self.block_of(addr);
        self.stats.accesses += 1;
        for e in &mut self.entries {
            if e.valid && e.block_addr == block {
                e.valid = false;
                self.stats.hits += 1;
                return Some(e.dirty);
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Probes for the block containing `addr` without removing it, refreshing its LRU
    /// position on a hit. Returns whether the block was found.
    pub fn touch(&mut self, addr: u64) -> bool {
        let block = self.block_of(addr);
        self.stats.accesses += 1;
        self.lru_clock = self.lru_clock.wrapping_add(1);
        for e in &mut self.entries {
            if e.valid && e.block_addr == block {
                e.lru = self.lru_clock;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Whether the block containing `addr` is present (no statistics or LRU update).
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let block = self.block_of(addr);
        self.entries.iter().any(|e| e.valid && e.block_addr == block)
    }

    /// Inserts a block evicted from the L1, evicting the LRU victim entry if needed.
    /// Returns the displaced block and its dirty bit, if a valid entry was displaced.
    pub fn insert(&mut self, addr: u64, dirty: bool) -> Option<(u64, bool)> {
        if self.entries.is_empty() {
            return Some((self.block_of(addr), dirty));
        }
        let block = self.block_of(addr);
        self.lru_clock = self.lru_clock.wrapping_add(1);
        let clock = self.lru_clock;

        // If the block is already present just refresh it.
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.valid && e.block_addr == block)
        {
            e.lru = clock;
            e.dirty |= dirty;
            return None;
        }

        // Prefer the first invalid entry; only when every entry is valid does
        // recency get compared, so invalid entries never need an LRU value.
        // `entries` was checked non-empty above, so both arms are well defined.
        let victim_idx = match self.entries.iter().position(|e| !e.valid) {
            Some(idx) => idx,
            None => {
                let mut best = 0;
                for (idx, e) in self.entries.iter().enumerate().skip(1) {
                    if e.lru < self.entries[best].lru {
                        best = idx;
                    }
                }
                best
            }
        };
        let displaced = {
            let e = &self.entries[victim_idx];
            if e.valid {
                self.stats.evictions += 1;
                Some((e.block_addr, e.dirty))
            } else {
                None
            }
        };
        self.entries[victim_idx] = Entry {
            valid: true,
            block_addr: block,
            dirty,
            lru: clock,
        };
        displaced
    }

    /// Number of valid entries currently resident.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_take_round_trips() {
        let mut v = VictimCache::new(4, 64);
        assert!(v.insert(0x1000, true).is_none());
        assert_eq!(v.take(0x1000), Some(true));
        // Taking removes the entry.
        assert_eq!(v.take(0x1000), None);
    }

    #[test]
    fn same_block_different_offset_hits() {
        let mut v = VictimCache::new(4, 64);
        v.insert(0x1000, false);
        assert!(v.probe(0x103f));
        assert_eq!(v.take(0x1020), Some(false));
    }

    #[test]
    fn lru_entry_is_displaced_when_full() {
        let mut v = VictimCache::new(2, 64);
        v.insert(0x1000, false);
        v.insert(0x2000, false);
        // Touch 0x1000 so 0x2000 is LRU.
        assert!(v.touch(0x1000));
        let displaced = v.insert(0x3000, false);
        assert_eq!(displaced, Some((0x2000, false)));
        assert!(v.probe(0x1000));
        assert!(v.probe(0x3000));
        assert!(!v.probe(0x2000));
    }

    #[test]
    fn duplicate_insert_refreshes_instead_of_duplicating() {
        let mut v = VictimCache::new(2, 64);
        v.insert(0x1000, false);
        assert!(v.insert(0x1000, true).is_none());
        assert_eq!(v.resident(), 1);
        // Dirty bit is sticky.
        assert_eq!(v.take(0x1000), Some(true));
    }

    #[test]
    fn zero_entry_victim_cache_rejects_everything() {
        let mut v = VictimCache::new(0, 64);
        assert_eq!(v.insert(0x1000, true), Some((0x1000, true)));
        assert_eq!(v.take(0x1000), None);
        assert!(!v.probe(0x1000));
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut v = VictimCache::new(4, 64);
        v.insert(0x1000, false);
        v.take(0x1000);
        v.take(0x1000);
        v.touch(0x2000);
        let s = v.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn lru_survives_the_u32_clock_horizon() {
        // Straddle 2^32 with the recency clock: a 32-bit clock would wrap and
        // displace the most recently touched entry instead of the LRU one.
        let mut v = VictimCache::new(2, 64);
        v.fast_forward_lru_clock(u64::from(u32::MAX) - 2);
        v.insert(0x1000, false); // lru = 2^32 - 2
        v.insert(0x2000, false); // lru = 2^32 - 1
        assert!(v.touch(0x1000)); // lru = 2^32 (would be 0 under a u32 clock)
        let displaced = v.insert(0x3000, false);
        assert_eq!(displaced, Some((0x2000, false)), "0x2000 is the true LRU entry");
        assert!(v.probe(0x1000));
    }

    #[test]
    fn capacity_is_respected() {
        let mut v = VictimCache::new(16, 64);
        for i in 0..100u64 {
            v.insert(i * 64, false);
        }
        assert_eq!(v.resident(), 16);
        // The 16 most recent blocks are present.
        for i in 84..100u64 {
            assert!(v.probe(i * 64), "block {i} should still be resident");
        }
        assert!(!v.probe(0));
    }
}
