//! Differential tests of the structure-of-arrays cache hot path against a
//! faithful port of the pre-refactor scalar implementation.
//!
//! The SoA rewrite of [`SetAssocCache`] (valid/dirty/usable bitsets packed
//! into one state word per set, per-set recency ranks instead of timestamps,
//! 16-bit tags until a wider one is stored, then 32-bit ones) and the batched
//! hierarchy entry points are required to be *bit-identical* to the old
//! array-of-structs code for every observable: outcome sequences,
//! statistics, and residency. The reference keeps the old timestamp clock as
//! the LRU oracle. Its historical `u32` width wrapped after 2^32 recency
//! updates and inverted the LRU order, which the reference reproduces on
//! demand (`wrap32`); the ranked cache has no clock, so nothing of it can
//! wrap.

use proptest::prelude::*;

use vccmin_core::cache::{
    AccessOutcome, CacheGeometry, CacheHierarchy, CacheStats, DisablingScheme, FaultMap,
    HierarchyConfig, SetAssocCache, VictimCache, VictimCacheConfig, VoltageMode, WayDisableMask,
};

// ---------------------------------------------------------------------------
// Reference implementations: line-for-line ports of the pre-SoA code paths.
// ---------------------------------------------------------------------------

/// A way of the reference cache — the old array-of-structs layout.
#[derive(Debug, Clone, Copy)]
struct RefWay {
    valid: bool,
    tag: u64,
    dirty: bool,
    lru: u64,
    usable: bool,
}

/// Port of the pre-refactor `SetAssocCache`: per-way structs, linear scans,
/// explicit victim-selection loop. `wrap32` constrains the recency clock to
/// 32 bits (`wrapping_add` on `u32`), reproducing the old wrap hazard.
#[derive(Debug, Clone)]
struct RefCache {
    geometry: CacheGeometry,
    ways: Vec<RefWay>,
    lru_clock: u64,
    wrap32: bool,
    stats: CacheStats,
}

impl RefCache {
    fn new(geometry: CacheGeometry, wrap32: bool) -> Self {
        let n = (geometry.sets() * geometry.associativity()) as usize;
        Self {
            geometry,
            ways: vec![
                RefWay {
                    valid: false,
                    tag: 0,
                    dirty: false,
                    lru: 0,
                    usable: true,
                };
                n
            ],
            lru_clock: 0,
            wrap32,
            stats: CacheStats::default(),
        }
    }

    fn with_disabled_ways(geometry: CacheGeometry, mask: &WayDisableMask, wrap32: bool) -> Self {
        let mut cache = Self::new(geometry, wrap32);
        for set in 0..geometry.sets() {
            for way in 0..geometry.associativity() {
                if mask.is_disabled(set, way) {
                    let i = (set * geometry.associativity() + way) as usize;
                    cache.ways[i].usable = false;
                }
            }
        }
        cache
    }

    fn idx(&self, set: u64, way: u64) -> usize {
        (set * self.geometry.associativity() + way) as usize
    }

    fn tick(&mut self) -> u64 {
        self.lru_clock = if self.wrap32 {
            u64::from((self.lru_clock as u32).wrapping_add(1))
        } else {
            self.lru_clock.wrapping_add(1)
        };
        self.lru_clock
    }

    fn fast_forward(&mut self, clock: u64) {
        self.lru_clock = self.lru_clock.max(clock);
        if self.wrap32 {
            self.lru_clock &= u64::from(u32::MAX);
        }
    }

    fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        let set = self.geometry.set_of(addr);
        let tag = self.geometry.tag_of(addr);
        self.stats.accesses += 1;
        let clock = self.tick();

        for w in 0..self.geometry.associativity() {
            let i = self.idx(set, w);
            let way = &mut self.ways[i];
            if way.usable && way.valid && way.tag == tag {
                way.lru = clock;
                if write {
                    way.dirty = true;
                }
                self.stats.hits += 1;
                return AccessOutcome {
                    hit: true,
                    evicted: None,
                    evicted_dirty: false,
                    bypassed: false,
                };
            }
        }
        self.stats.misses += 1;

        // Victim: first invalid usable way, else the min-LRU valid usable way
        // (strict `<`, so ties keep the lowest index) — the old scan verbatim.
        let mut victim: Option<u64> = None;
        for w in 0..self.geometry.associativity() {
            let way = &self.ways[self.idx(set, w)];
            if !way.usable {
                continue;
            }
            if !way.valid {
                victim = Some(w);
                break;
            }
            match victim {
                Some(v) if self.ways[self.idx(set, v)].valid => {
                    if way.lru < self.ways[self.idx(set, v)].lru {
                        victim = Some(w);
                    }
                }
                Some(_) => {}
                None => victim = Some(w),
            }
        }

        let Some(v) = victim else {
            self.stats.unallocated_fills += 1;
            return AccessOutcome {
                hit: false,
                evicted: None,
                evicted_dirty: false,
                bypassed: true,
            };
        };

        let geometry = self.geometry;
        let i = self.idx(set, v);
        let way = &mut self.ways[i];
        let evicted = way.valid.then(|| geometry.block_address(way.tag, set));
        let evicted_dirty = way.valid && way.dirty;
        way.valid = true;
        way.tag = tag;
        way.dirty = write;
        way.lru = clock;
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        AccessOutcome {
            hit: false,
            evicted,
            evicted_dirty,
            bypassed: false,
        }
    }

    fn insert(&mut self, addr: u64, dirty: bool) -> AccessOutcome {
        let before = self.stats;
        let outcome = self.access(addr, dirty);
        self.stats = before;
        outcome
    }

    fn mark_dirty(&mut self, addr: u64) -> bool {
        let set = self.geometry.set_of(addr);
        let tag = self.geometry.tag_of(addr);
        for w in 0..self.geometry.associativity() {
            let i = self.idx(set, w);
            let way = &mut self.ways[i];
            if way.usable && way.valid && way.tag == tag {
                way.dirty = true;
                return true;
            }
        }
        false
    }

    fn probe(&self, addr: u64) -> bool {
        let set = self.geometry.set_of(addr);
        let tag = self.geometry.tag_of(addr);
        (0..self.geometry.associativity()).any(|w| {
            let way = &self.ways[self.idx(set, w)];
            way.usable && way.valid && way.tag == tag
        })
    }

    fn resident_blocks(&self) -> u64 {
        self.ways.iter().filter(|w| w.valid).count() as u64
    }
}

/// Port of the pre-refactor `VictimCache`: the `min_by_key` victim pick with
/// the `(valid, lru)` sentinel tuple, widened to a `u64` clock.
#[derive(Debug, Clone)]
struct RefVictim {
    block_bytes: u64,
    entries: Vec<(bool, u64, bool, u64)>, // (valid, block_addr, dirty, lru)
    lru_clock: u64,
    stats: CacheStats,
}

impl RefVictim {
    fn new(entries: usize, block_bytes: u64) -> Self {
        Self {
            block_bytes,
            entries: vec![(false, 0, false, 0); entries],
            lru_clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn block_of(&self, addr: u64) -> u64 {
        addr & !(self.block_bytes - 1)
    }

    fn take(&mut self, addr: u64) -> Option<bool> {
        let block = self.block_of(addr);
        self.stats.accesses += 1;
        for e in &mut self.entries {
            if e.0 && e.1 == block {
                e.0 = false;
                self.stats.hits += 1;
                return Some(e.2);
            }
        }
        self.stats.misses += 1;
        None
    }

    fn touch(&mut self, addr: u64) -> bool {
        let block = self.block_of(addr);
        self.stats.accesses += 1;
        self.lru_clock = self.lru_clock.wrapping_add(1);
        for e in &mut self.entries {
            if e.0 && e.1 == block {
                e.3 = self.lru_clock;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    fn probe(&self, addr: u64) -> bool {
        let block = self.block_of(addr);
        self.entries.iter().any(|e| e.0 && e.1 == block)
    }

    fn insert(&mut self, addr: u64, dirty: bool) -> Option<(u64, bool)> {
        if self.entries.is_empty() {
            return Some((self.block_of(addr), dirty));
        }
        let block = self.block_of(addr);
        self.lru_clock = self.lru_clock.wrapping_add(1);
        let clock = self.lru_clock;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 && e.1 == block) {
            e.3 = clock;
            e.2 |= dirty;
            return None;
        }
        let victim_idx = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| if e.0 { (1, e.3) } else { (0, 0) })
            .map(|(i, _)| i)
            .expect("non-empty");
        let displaced = {
            let e = &self.entries[victim_idx];
            if e.0 {
                self.stats.evictions += 1;
                Some((e.1, e.2))
            } else {
                None
            }
        };
        self.entries[victim_idx] = (true, block, dirty, clock);
        displaced
    }
}

// ---------------------------------------------------------------------------
// Configuration space helpers.
// ---------------------------------------------------------------------------

/// Every (geometry, disable mask) organization an L1 scheme resolves to at the
/// given voltage, one per registry scheme. Unrepairable maps are skipped.
fn organizations(voltage: VoltageMode) -> Vec<(DisablingScheme, CacheGeometry, WayDisableMask)> {
    let geom = CacheGeometry::ispass2010_l1();
    let map = FaultMap::generate(&geom, 0.001, 0xD1FF);
    DisablingScheme::ALL
        .iter()
        .filter_map(|&scheme| {
            if voltage == VoltageMode::Low && scheme.repair().needs_fault_map() {
                let resolved = scheme.repair().repair(&map).ok()?;
                let mask = resolved
                    .disabled
                    .unwrap_or_else(|| WayDisableMask::all_enabled(&resolved.geometry));
                Some((scheme, resolved.geometry, mask))
            } else {
                Some((scheme, geom, WayDisableMask::all_enabled(&geom)))
            }
        })
        .collect()
}

/// A deterministic mixed address stream confined to `span` bytes.
fn lcg_stream(seed: u64, len: usize, span: u64) -> Vec<(u64, bool)> {
    let mut state = seed | 1;
    (0..len)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 11) % span, i % 3 == 0)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The wrap hazard of the old u32 clock, shown on the reference.
// ---------------------------------------------------------------------------

#[test]
fn u32_clock_wrap_inverts_lru_and_u64_clock_does_not() {
    // One 2-way set; A, B, C are distinct blocks of that set.
    let geom = CacheGeometry::new(128, 64, 2, 24).unwrap();
    let (a, b, c) = (0x1_0000u64, 0x2_0000u64, 0x3_0000u64);

    let run = |cache: &mut RefCache| {
        cache.fast_forward(u64::from(u32::MAX) - 2);
        cache.access(a, false); // lru = 2^32 - 2
        cache.access(b, false); // lru = 2^32 - 1
        cache.access(a, false); // lru = 2^32, or 0 under the wrapped clock
        cache.access(c, false).evicted
    };

    // The old 32-bit clock wraps to 0 on A's refresh, so A — the most
    // recently used block — compares as least recent and gets evicted.
    let mut wrapped = RefCache::new(geom, true);
    assert_eq!(
        run(&mut wrapped),
        Some(geom.block_address(geom.tag_of(a), geom.set_of(a))),
        "the u32 reference must exhibit the inversion: MRU block evicted"
    );

    // The widened reference clock keeps the true order: B is the LRU block.
    let mut widened = RefCache::new(geom, false);
    assert_eq!(
        run(&mut widened),
        Some(geom.block_address(geom.tag_of(b), geom.set_of(b))),
        "the u64 reference evicts the true LRU block"
    );
}

// ---------------------------------------------------------------------------
// Deterministic sweeps: every scheme organization, long mixed op streams.
// ---------------------------------------------------------------------------

#[test]
fn soa_cache_matches_the_scalar_reference_for_every_scheme_organization() {
    for voltage in [VoltageMode::High, VoltageMode::Low] {
        for (scheme, geom, mask) in organizations(voltage) {
            let mut cache = SetAssocCache::with_disabled_ways(geom, &mask);
            let mut reference = RefCache::with_disabled_ways(geom, &mask, false);
            // Span several times the cache capacity so fills, evictions and
            // conflict misses all occur; the mixed op stream exercises every
            // mutating entry point.
            let span = geom.size_bytes() * 5;
            for (i, &(addr, write)) in lcg_stream(scheme as u64 + 1, 20_000, span).iter().enumerate()
            {
                match i % 7 {
                    5 => {
                        let got = cache.insert(addr, write);
                        assert_eq!(got, reference.insert(addr, write));
                    }
                    6 => match i % 3 {
                        0 => assert_eq!(cache.mark_dirty(addr), reference.mark_dirty(addr)),
                        _ => assert_eq!(cache.probe(addr), reference.probe(addr)),
                    },
                    _ => {
                        let got = cache.access(addr, write);
                        assert_eq!(
                            got,
                            reference.access(addr, write),
                            "{scheme:?} at {voltage:?}: outcome diverged at op {i}"
                        );
                    }
                }
            }
            assert_eq!(cache.stats(), &reference.stats, "{scheme:?} at {voltage:?}");
            assert_eq!(cache.resident_blocks(), reference.resident_blocks());
        }
    }
}

#[test]
fn soa_cache_matches_the_reference_when_tags_outgrow_32_bits() {
    // The cache stores 16-bit tags until a wider one is filled, then 32-bit
    // ones. Every tag of the stream below fits 16 bits. From op 3,000 on,
    // every fourth address sets bit 40 (a tag between 2^16 and 2^32 in every
    // organization here), and from op 7,000 on, every fourth of the others
    // sets bit 56 (a tag far above 2^32). So each organization widens twice
    // mid-stream with narrower blocks resident, and the outcomes compared
    // include the full addresses of the wide blocks it evicts.
    for voltage in [VoltageMode::High, VoltageMode::Low] {
        for (scheme, geom, mask) in organizations(voltage) {
            let mut cache = SetAssocCache::with_disabled_ways(geom, &mask);
            let mut reference = RefCache::with_disabled_ways(geom, &mask, false);
            let span = geom.size_bytes() * 5;
            for (i, &(addr, write)) in lcg_stream(scheme as u64 + 7, 12_000, span).iter().enumerate()
            {
                let addr = match (i % 4, i) {
                    (0, 3_000..) => addr | 1 << 40,
                    (2, 7_000..) => addr | 1 << 56,
                    _ => addr,
                };
                match i % 5 {
                    3 => assert_eq!(cache.insert(addr, write), reference.insert(addr, write)),
                    4 => assert_eq!(cache.mark_dirty(addr), reference.mark_dirty(addr)),
                    _ => assert_eq!(
                        cache.access(addr, write),
                        reference.access(addr, write),
                        "{scheme:?} at {voltage:?}: outcome diverged at op {i}"
                    ),
                }
                if i % 997 == 0 {
                    assert_eq!(cache.probe(addr), reference.probe(addr));
                }
            }
            assert_eq!(cache.stats(), &reference.stats, "{scheme:?} at {voltage:?}");
            assert_eq!(cache.resident_blocks(), reference.resident_blocks());
        }
    }
}

#[test]
fn victim_cache_matches_the_min_by_key_reference() {
    for entries in [0usize, 1, 2, 16] {
        let mut victim = VictimCache::new(entries, 64);
        let mut reference = RefVictim::new(entries, 64);
        for (i, &(addr, dirty)) in lcg_stream(entries as u64 + 99, 10_000, 1 << 14).iter().enumerate()
        {
            match i % 4 {
                0 => assert_eq!(victim.insert(addr, dirty), reference.insert(addr, dirty)),
                1 => assert_eq!(victim.take(addr), reference.take(addr)),
                2 => assert_eq!(victim.touch(addr), reference.touch(addr)),
                _ => assert_eq!(victim.probe(addr), reference.probe(addr)),
            }
        }
        assert_eq!(victim.stats(), &reference.stats, "{entries} entries");
    }
}

#[test]
fn batched_hierarchy_matches_scalar_across_schemes_voltages_and_victims() {
    let l1_geom = CacheGeometry::ispass2010_l1();
    let l2_geom = CacheGeometry::ispass2010_l2();
    let map_i = FaultMap::generate(&l1_geom, 0.001, 11);
    let map_d = FaultMap::generate(&l1_geom, 0.001, 12);
    let l2_map = FaultMap::generate(&l2_geom, 0.001, 13);

    for &scheme in &DisablingScheme::ALL {
        for voltage in [VoltageMode::High, VoltageMode::Low] {
            for victim in [None, Some(VictimCacheConfig::ispass2010_10t())] {
                let mut cfg = HierarchyConfig::ispass2010(scheme, voltage);
                if scheme.repair().needs_fault_map() {
                    cfg = cfg.with_l2_scheme(scheme);
                }
                if let Some(v) = victim {
                    cfg = cfg.with_victim_caches(v);
                }
                let build = || {
                    CacheHierarchy::with_all_fault_maps(
                        cfg,
                        Some(&map_i),
                        Some(&map_d),
                        Some(&l2_map),
                    )
                };
                let (Ok(mut scalar), Ok(mut batched)) = (build(), build()) else {
                    continue; // unrepairable under this map: nothing to compare
                };

                let data = lcg_stream(scheme as u64 * 31 + 7, 6_000, 1 << 24);
                let instr: Vec<u64> = lcg_stream(scheme as u64 * 31 + 8, 2_000, 1 << 22)
                    .into_iter()
                    .map(|(addr, _)| addr)
                    .collect();

                let scalar_data: Vec<_> = data
                    .iter()
                    .map(|&(addr, write)| scalar.access_data(addr, write))
                    .collect();
                let scalar_instr: Vec<_> =
                    instr.iter().map(|&addr| scalar.access_instr(addr)).collect();

                // Batch with a mix of chunk sizes, including single-element
                // and whole-stream chunks.
                let mut batched_data = Vec::new();
                let mut chunk_results = Vec::new();
                for (i, chunk) in data.chunks(257).enumerate() {
                    chunk_results.clear();
                    if i == 0 {
                        for &(addr, write) in chunk {
                            chunk_results.push(batched.access_data(addr, write));
                        }
                    } else {
                        batched.access_data_batch(chunk, &mut chunk_results);
                    }
                    batched_data.extend_from_slice(&chunk_results);
                }
                chunk_results.clear();
                batched.access_instr_batch(&instr, &mut chunk_results);

                assert_eq!(scalar_data, batched_data, "{scheme:?} {voltage:?} victim={victim:?}");
                assert_eq!(scalar_instr, chunk_results, "{scheme:?} {voltage:?} victim={victim:?}");
                assert_eq!(
                    scalar.stats(),
                    batched.stats(),
                    "{scheme:?} {voltage:?} victim={victim:?}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Property tests: random op streams over random geometries.
// ---------------------------------------------------------------------------

/// One mutating or probing cache operation.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Access(u64, bool),
    Insert(u64, bool),
    MarkDirty(u64),
    Probe(u64),
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    // Accesses get half the weight; the other entry points share the rest.
    (0u8..8, 0u64..(1 << 16), proptest::any::<bool>()).prop_map(|(kind, addr, flag)| match kind {
        0..=3 => CacheOp::Access(addr, flag),
        4 => CacheOp::Insert(addr, flag),
        5 => CacheOp::MarkDirty(addr),
        _ => CacheOp::Probe(addr),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random op streams over random small geometries (1 to 64 ways, so
    /// both the one-word state layout of up to 8 ways and the three-word
    /// layout with rank bytes above) and random disable masks: the SoA cache
    /// and the scalar reference never diverge.
    #[test]
    fn soa_cache_is_equivalent_under_random_op_streams(
        log2_sets in 0u32..5,
        log2_assoc in 0u32..7,
        disable_bits in any::<u64>(),
        start_clock in any::<u64>(),
        ops in proptest::collection::vec(cache_op(), 1..300),
    ) {
        let assoc = 1u64 << log2_assoc;
        let sets = 1u64 << log2_sets;
        let geom = CacheGeometry::new(sets * assoc * 64, 64, assoc, 24).unwrap();
        let mask = WayDisableMask::from_fn(&geom, |set, way| {
            // Pseudo-random but deterministic per (set, way) from one u64.
            disable_bits.rotate_left(((set * assoc + way) % 63) as u32) & 1 == 1
        });
        let mut cache = SetAssocCache::with_disabled_ways(geom, &mask);
        let mut reference = RefCache::with_disabled_ways(geom, &mask, false);
        // The ranked cache has no clock; the reference's starts anywhere.
        reference.fast_forward(start_clock);
        for op in ops {
            match op {
                CacheOp::Access(a, w) => prop_assert_eq!(cache.access(a, w), reference.access(a, w)),
                CacheOp::Insert(a, d) => prop_assert_eq!(cache.insert(a, d), reference.insert(a, d)),
                CacheOp::MarkDirty(a) => prop_assert_eq!(cache.mark_dirty(a), reference.mark_dirty(a)),
                CacheOp::Probe(a) => prop_assert_eq!(cache.probe(a), reference.probe(a)),
            }
        }
        prop_assert_eq!(cache.stats(), &reference.stats);
        prop_assert_eq!(cache.resident_blocks(), reference.resident_blocks());
    }

    /// Random take/touch/insert/probe streams: the sentinel-free victim cache
    /// and the `min_by_key` reference never diverge.
    #[test]
    fn victim_cache_is_equivalent_under_random_op_streams(
        entries in 0usize..9,
        ops in proptest::collection::vec((0u8..4, 0u64..(1 << 12), any::<bool>()), 1..300),
    ) {
        let mut victim = VictimCache::new(entries, 64);
        let mut reference = RefVictim::new(entries, 64);
        for (kind, addr, flag) in ops {
            match kind {
                0 => prop_assert_eq!(victim.insert(addr, flag), reference.insert(addr, flag)),
                1 => prop_assert_eq!(victim.take(addr), reference.take(addr)),
                2 => prop_assert_eq!(victim.touch(addr), reference.touch(addr)),
                _ => prop_assert_eq!(victim.probe(addr), reference.probe(addr)),
            }
        }
        prop_assert_eq!(victim.stats(), &reference.stats);
    }
}
