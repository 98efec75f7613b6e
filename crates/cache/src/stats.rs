//! Hit/miss accounting for caches and hierarchies.

/// Access counters for a single cache structure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total number of lookups.
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Blocks evicted to make room for a fill.
    pub evictions: u64,
    /// Fills that could not be allocated because the target set had no usable way.
    pub unallocated_fills: u64,
}

impl CacheStats {
    /// Hit rate (`hits / accesses`), or 0 when there were no accesses.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Miss rate (`misses / accesses`), or 0 when there were no accesses.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.unallocated_fills += other.unallocated_fills;
    }
}

/// Counters for a full hierarchy (L1I, L1D, their victim caches, L2, memory).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 instruction cache counters.
    pub l1i: CacheStats,
    /// L1 data cache counters.
    pub l1d: CacheStats,
    /// Instruction-side victim cache counters.
    pub l1i_victim: CacheStats,
    /// Data-side victim cache counters.
    pub l1d_victim: CacheStats,
    /// Unified L2 counters.
    pub l2: CacheStats,
    /// Number of accesses that went all the way to memory.
    pub memory_accesses: u64,
    /// Dirty data leaving the L1 side toward the L2: uncovered dirty
    /// evictions, dirty blocks displaced out of a victim cache, and stores
    /// written through because their set had no usable way to allocate.
    pub writebacks: u64,
    /// Dirty data that reached main memory: L1-side write-backs whose block was
    /// no longer resident in the L2, plus dirty blocks evicted from the L2.
    pub memory_writebacks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_with_no_accesses_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
    }

    #[test]
    fn rates_reflect_counts() {
        let s = CacheStats {
            accesses: 10,
            hits: 7,
            misses: 3,
            evictions: 1,
            unallocated_fills: 0,
        };
        assert!((s.hit_rate() - 0.7).abs() < 1e-12);
        assert!((s.miss_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates_all_fields() {
        let mut a = CacheStats {
            accesses: 10,
            hits: 7,
            misses: 3,
            evictions: 1,
            unallocated_fills: 2,
        };
        let b = CacheStats {
            accesses: 5,
            hits: 1,
            misses: 4,
            evictions: 2,
            unallocated_fills: 1,
        };
        a.merge(&b);
        assert_eq!(a.accesses, 15);
        assert_eq!(a.hits, 8);
        assert_eq!(a.misses, 7);
        assert_eq!(a.evictions, 3);
        assert_eq!(a.unallocated_fills, 3);
    }
}
