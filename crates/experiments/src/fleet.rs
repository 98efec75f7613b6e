//! The fleet-scale yield executor: the [`crate::yield_study`] campaign,
//! restructured to run over millions of dies with flat memory and a
//! checkpointable, resumable work queue.
//!
//! [`YieldStudy`] runs on one thread and materializes a `DieResult` per die —
//! the reference this executor is tested against, but `O(dies)` memory. This
//! module keeps the exact same per-die probe semantics while reducing every
//! die to a constant-size integer aggregate on the fly:
//!
//! * **Sharding** — the population is split into fixed runs of
//!   [`FleetParams::shard_dies`] consecutive dies. Each shard draws its seed
//!   pairs from [`YieldParams::die_seeds_range`], which is bit-identical to
//!   the corresponding window of the full `die_seeds()` sequence, so shard
//!   boundaries can never change any die's randomness. Shards run one after
//!   another, and a shard's dies are the jobs of the crate's job map: on the
//!   rayon pool, or on the calling thread when `serial`. So a population of
//!   one shard still keeps every worker busy.
//! * **Streaming aggregation** — a shard reduces to per-scheme histograms of
//!   minimum-operational-voltage grid indices plus dead-die counts
//!   ([`ShardRecord`]). Histogram counts are integers and addition commutes,
//!   so shards merge in any order into the same aggregate; campaign memory is
//!   `O(schemes x grid)` regardless of population size.
//! * **Binary-searched probing** — per die and scheme, fault maps are nested
//!   across the descending voltage grid, so the operational flags form a
//!   true-prefix. The executor binary-searches the prefix length instead of
//!   scanning the grid, generating ~log2(steps) fault maps per die instead of
//!   `steps`. The search is lockstep: every scheme keeps its own `[lo, hi)`
//!   interval, each probe generates the maps at the first unresolved
//!   scheme's midpoint and updates every scheme whose interval contains it,
//!   then drops them. A search over a monotone true-prefix finds the same
//!   boundary whatever pivots it takes, so sharing probes this way changes no
//!   result, and only one (L1, L2) map pair per die is ever alive.
//! * **Probes at draw speed** — each probe samples its maps with
//!   [`FaultMap::generate_at_voltage`], which decides a block's draws against
//!   its tile's threshold band and computes the block's own thresholds only
//!   when a draw lands inside the band. A probe therefore costs about its 17
//!   uniform draws per block, as i.i.d. sampling does, and sharing draws
//!   across a die's probes is all that could make it cheaper.
//! * **Checkpointing** — with a [`CheckpointStore`], every finished shard is
//!   persisted atomically as soon as its dies finish. A killed campaign
//!   resumes by recomputing only the missing or invalid shards (a record
//!   whose counts do not add up to its die count is invalid); because the
//!   on-disk payload *is* the in-memory aggregate, a resumed run's reports
//!   are byte-identical to an uninterrupted run's.
//!
//! Both yield tables render here, from the aggregate alone:
//! [`FleetStudy::yield_curve`] and [`FleetStudy::vccmin_summary`] read only
//! the grid, the histogram, the dead counts and the die count, so equal
//! aggregates print equal bytes. [`YieldStudy::min_voltage_histogram`] derives
//! the same aggregate from the linear scan; that is how the tests compare the
//! two executors.

use std::io;
use std::path::Path;

use vccmin_cache::repair::{registry, RepairScheme};
use vccmin_fault::{DieVariation, FaultMap};

use crate::checkpoint::{fnv1a64, CheckpointStore, ShardRecord};
use crate::map_jobs;
use crate::report::FigureTable;
use crate::yield_study::{YieldParams, YieldStudy};

/// Parameters of a fleet campaign: a yield campaign plus its shard size.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetParams {
    /// The underlying yield campaign (population size, variation model,
    /// voltage grid, capacity floor, master seed).
    pub yields: YieldParams,
    /// Dies per shard: the unit of checkpointing. (The unit of parallel
    /// scheduling is one die.)
    pub shard_dies: usize,
}

impl FleetParams {
    /// Wraps a yield campaign with the default shard size (2048 dies): large
    /// enough that checkpoint I/O is negligible, small enough that a killed
    /// campaign loses at most a second or two of work.
    #[must_use]
    pub fn new(yields: YieldParams) -> Self {
        Self {
            yields,
            shard_dies: 2048,
        }
    }

    /// Number of shards the population splits into.
    ///
    /// # Panics
    ///
    /// Panics if `shard_dies` is zero.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        assert!(self.shard_dies > 0, "a shard must hold at least one die");
        self.yields.dies.div_ceil(self.shard_dies)
    }

    /// The die range `[start, start + count)` of shard `shard_index`; the
    /// final shard may be short.
    #[must_use]
    pub fn shard_bounds(&self, shard_index: u64) -> (usize, usize) {
        let start = (shard_index as usize) * self.shard_dies;
        let count = self.shard_dies.min(self.yields.dies.saturating_sub(start));
        (start, count)
    }

    /// An FNV-1a fingerprint of everything that determines a shard's bytes:
    /// the yield parameters (including the master seed), the exact grid
    /// voltages (as IEEE-754 bits), the registry's scheme labels and the
    /// shard size. Two campaigns share checkpoint records only if they would
    /// compute identical shards.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut desc = format!("{:?}|shard_dies={}", self.yields, self.shard_dies);
        for v in self.yields.voltage_grid() {
            desc.push_str(&format!("|{:016x}", v.to_bits()));
        }
        for label in YieldStudy::scheme_labels() {
            desc.push('|');
            desc.push_str(&label);
        }
        fnv1a64(desc.as_bytes())
    }
}

impl Default for FleetParams {
    fn default() -> Self {
        Self::new(YieldParams::quick())
    }
}

/// The streaming aggregate of a fleet campaign: the complete per-scheme
/// Vcc-min accounting of the population in `O(schemes x grid)` memory.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStudy {
    /// The parameters the campaign ran with.
    pub params: FleetParams,
    /// The probed voltage grid, highest first.
    pub grid: Vec<f64>,
    /// Number of dies aggregated (equals `params.yields.dies` when complete).
    pub dies: u64,
    /// Per scheme (registry order), per grid index: dies whose minimum
    /// operational voltage is that grid voltage.
    pub hist: Vec<Vec<u64>>,
    /// Per scheme: dies not operational even at the top of the grid.
    pub dead: Vec<u64>,
}

impl FleetStudy {
    /// Runs the campaign on the calling thread, streaming shard by shard.
    #[must_use]
    pub fn run(params: &FleetParams) -> Self {
        Self::run_plain(params, true)
    }

    /// Runs the campaign with one job per die on the rayon pool, shard after
    /// shard. Bit-identical to [`FleetStudy::run`]: every die's seeds are
    /// derived from its index alone, and integer histogram merging is
    /// order-independent.
    #[must_use]
    pub fn run_parallel(params: &FleetParams) -> Self {
        Self::run_plain(params, false)
    }

    fn run_plain(params: &FleetParams, serial: bool) -> Self {
        let grid = params.yields.voltage_grid();
        let schemes = registry();
        let records = (0..params.shard_count() as u64)
            .map(|s| compute_shard(params, &grid, &schemes, s, serial))
            .collect();
        Self::aggregate(params, grid, records)
    }

    /// Runs the campaign against a checkpoint directory: shards already
    /// persisted (by any earlier run with the same parameters) are loaded
    /// instead of recomputed, each freshly computed shard is persisted as
    /// soon as its dies finish, and the final aggregate is byte-identical to
    /// an uninterrupted run's. Invalid, truncated or foreign-parameter shard
    /// files are treated as missing and recomputed. A missing shard's dies
    /// run on the calling thread when `serial`, on the rayon pool otherwise.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from reading or writing the checkpoint directory.
    pub fn run_checkpointed(params: &FleetParams, dir: &Path, serial: bool) -> io::Result<Self> {
        let grid = params.yields.voltage_grid();
        let schemes = registry();
        let store = CheckpointStore::open(dir, params.fingerprint())?;
        let mut records = Vec::with_capacity(params.shard_count());
        for s in 0..params.shard_count() as u64 {
            let (start, count) = params.shard_bounds(s);
            let loaded = store
                .load(s, schemes.len(), grid.len())?
                .filter(|r| r.die_start == start as u64 && r.die_count == count as u64);
            let record = match loaded {
                Some(record) => record,
                None => {
                    let fresh = compute_shard(params, &grid, &schemes, s, serial);
                    store.save(&fresh)?;
                    fresh
                }
            };
            records.push(record);
        }
        Ok(Self::aggregate(params, grid, records))
    }

    /// Merges shard records (any order — integer addition commutes) into the
    /// campaign aggregate.
    fn aggregate(params: &FleetParams, grid: Vec<f64>, records: Vec<ShardRecord>) -> Self {
        let schemes = registry().len();
        let mut hist = vec![vec![0u64; grid.len()]; schemes];
        let mut dead = vec![0u64; schemes];
        let mut dies = 0u64;
        for record in records {
            dies += record.die_count;
            for (into, from) in hist.iter_mut().zip(&record.hist) {
                for (c, &f) in into.iter_mut().zip(from) {
                    *c += f;
                }
            }
            for (d, &f) in dead.iter_mut().zip(&record.dead) {
                *d += f;
            }
        }
        Self {
            params: params.clone(),
            grid,
            dies,
            hist,
            dead,
        }
    }

    /// The yield-vs-voltage curves: one row per grid voltage (highest first),
    /// one column per repair scheme, each cell the fraction of dies
    /// operational at that voltage. A die is operational at grid index `k`
    /// exactly when its minimum-voltage index is `>= k` (the true-prefix
    /// structure), so the operational counts are suffix sums of the histogram.
    #[must_use]
    pub fn yield_curve(&self) -> FigureTable {
        let ok_counts: Vec<Vec<u64>> = self
            .hist
            .iter()
            .map(|counts| {
                let mut suffix = vec![0u64; counts.len()];
                let mut running = 0u64;
                for k in (0..counts.len()).rev() {
                    running += counts[k];
                    suffix[k] = running;
                }
                suffix
            })
            .collect();
        let mut table = FigureTable::new(
            "Yield study: fraction of dies operational vs supply voltage",
            "voltage",
            YieldStudy::scheme_labels(),
        );
        for (k, &v) in self.grid.iter().enumerate() {
            let values = ok_counts
                .iter()
                .map(|counts| self.share(counts[k]))
                .collect();
            table.push_row(format!("{v:.3}"), values);
        }
        table
    }

    /// The per-scheme Vcc-min distribution over the die population: mean,
    /// best (lowest) and worst (highest) minimum operational voltage among
    /// dies that run at all, plus the fraction of dead dies (not operational
    /// even at the top of the grid). A scheme with zero live dies has *no*
    /// Vcc-min — its mean/best/worst cells are empty ([`None`]), not a
    /// too-good-to-be-true `0.0`, and they are excluded from the CSV `mean`
    /// footer. Every statistic is computed from the histogram in ascending
    /// grid-index order, so equal counts give equal bytes.
    #[must_use]
    pub fn vccmin_summary(&self) -> FigureTable {
        let mut table = FigureTable::new(
            "Yield study: die Vcc-min distribution per repair scheme",
            "scheme",
            vec![
                "mean Vcc-min".into(),
                "best Vcc-min".into(),
                "worst Vcc-min".into(),
                "dead fraction".into(),
            ],
        );
        for (label, (counts, &dead_count)) in YieldStudy::scheme_labels()
            .into_iter()
            .zip(self.hist.iter().zip(&self.dead))
        {
            let alive: u64 = counts.iter().sum();
            let stats = if alive == 0 {
                [None, None, None]
            } else {
                let sum: f64 = self
                    .grid
                    .iter()
                    .zip(counts)
                    .map(|(&v, &c)| v * c as f64)
                    .sum();
                // The grid is highest-first, so the *best* (lowest) Vcc-min sits
                // at the largest populated index and the worst at the smallest.
                let best = counts.iter().rposition(|&c| c > 0).map(|k| self.grid[k]);
                let worst = counts.iter().position(|&c| c > 0).map(|k| self.grid[k]);
                [Some(sum / alive as f64), best, worst]
            };
            table.push_optional_row(
                label,
                vec![stats[0], stats[1], stats[2], Some(self.share(dead_count))],
            );
        }
        table
    }

    /// `count` as a fraction of the population; zero, not NaN, for an empty
    /// one.
    fn share(&self, count: u64) -> f64 {
        if self.dies == 0 {
            0.0
        } else {
            count as f64 / self.dies as f64
        }
    }
}

/// Reduces one shard of consecutive dies to its histogram aggregate, with
/// one job per die: on the calling thread when `serial`, on the rayon pool
/// otherwise.
fn compute_shard(
    params: &FleetParams,
    grid: &[f64],
    schemes: &[&'static dyn RepairScheme],
    shard_index: u64,
    serial: bool,
) -> ShardRecord {
    let (start, count) = params.shard_bounds(shard_index);
    let l1_seeds = params.yields.die_seeds_range(start, count);
    let l2_seeds: Vec<Option<(u64, u64)>> = if params.yields.include_l2 {
        params
            .yields
            .l2_die_seeds_range(start, count)
            .into_iter()
            .map(Some)
            .collect()
    } else {
        vec![None; count]
    };
    let dies: Vec<_> = l1_seeds.into_iter().zip(l2_seeds).collect();
    let prefixes = map_jobs(dies, serial, |((die_seed, map_seed), l2)| {
        die_prefix_lengths(&params.yields, grid, schemes, die_seed, map_seed, l2)
    });
    let mut hist = vec![vec![0u64; grid.len()]; schemes.len()];
    let mut dead = vec![0u64; schemes.len()];
    for die in prefixes {
        for (i, len) in die.into_iter().enumerate() {
            match len.checked_sub(1) {
                Some(k) => hist[i][k] += 1,
                None => dead[i] += 1,
            }
        }
    }
    ShardRecord {
        shard_index,
        die_start: start as u64,
        die_count: count as u64,
        hist,
        dead,
    }
}

/// Per scheme, the length of the die's operational true-prefix over the
/// descending grid (0 = dead; `len - 1` indexes the minimum operational
/// voltage). Semantically identical to scanning the grid as
/// `YieldStudy::run_die` does — fault maps are nested across voltages and no
/// scheme gains capacity from extra faults, so the flags are a true-prefix and
/// its length can be binary-searched.
///
/// The schemes search in lockstep: each keeps its own `[lo, hi)` interval
/// (every index below `lo` operational, none at or above `hi`). Each probe
/// generates the fault map(s) at the midpoint of the first unresolved
/// interval, narrows every interval that contains the probe, and drops the
/// maps. Any probe inside an interval keeps that invariant, so each search
/// ends on its prefix length whatever pivots the other schemes choose, after
/// ~log2(steps) map generations per die, with one map pair alive at a time.
fn die_prefix_lengths(
    params: &YieldParams,
    grid: &[f64],
    schemes: &[&'static dyn RepairScheme],
    die_seed: u64,
    map_seed: u64,
    l2_seeds: Option<(u64, u64)>,
) -> Vec<usize> {
    let geometry = YieldStudy::geometry();
    let die = DieVariation::sample(&geometry, &params.variation, die_seed);
    let l2_die = l2_seeds.map(|(l2_die_seed, l2_map_seed)| {
        (
            DieVariation::sample(&YieldStudy::l2_geometry(), &params.variation, l2_die_seed),
            l2_map_seed,
        )
    });
    let mut bounds = vec![(0usize, grid.len()); schemes.len()];
    while let Some(&(lo, hi)) = bounds.iter().find(|(lo, hi)| lo < hi) {
        let mid = lo + (hi - lo) / 2;
        let map = FaultMap::generate_at_voltage(&die, grid[mid], map_seed);
        let l2_map = l2_die
            .as_ref()
            .map(|(d, seed)| FaultMap::generate_at_voltage(d, grid[mid], *seed));
        for (scheme, (lo, hi)) in schemes.iter().zip(&mut bounds) {
            if !(*lo..*hi).contains(&mid) {
                continue;
            }
            let ok = scheme.meets_capacity_floor(&map, params.min_capacity)
                && l2_map
                    .as_ref()
                    .is_none_or(|m| scheme.meets_capacity_floor(m, params.min_capacity));
            if ok {
                *lo = mid + 1;
            } else {
                *hi = mid;
            }
        }
    }
    bounds.into_iter().map(|(lo, _)| lo).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetParams {
        FleetParams {
            yields: YieldParams {
                dies: 30,
                steps: 5,
                ..YieldParams::smoke()
            },
            shard_dies: 8,
        }
    }

    #[test]
    fn shard_bounds_cover_the_population_exactly_once() {
        let params = tiny();
        assert_eq!(params.shard_count(), 4);
        let mut next = 0;
        for s in 0..params.shard_count() as u64 {
            let (start, count) = params.shard_bounds(s);
            assert_eq!(start, next);
            assert!(count > 0);
            next = start + count;
        }
        assert_eq!(next, params.yields.dies);
    }

    #[test]
    fn fleet_histogram_matches_the_materializing_study() {
        // The tentpole invariant: binary-searched, sharded, streaming
        // aggregation reproduces the per-die linear scan exactly.
        let params = tiny();
        let fleet = FleetStudy::run(&params);
        let study = YieldStudy::run(&params.yields);
        let (hist, dead) = study.min_voltage_histogram();
        assert_eq!(fleet.hist, hist);
        assert_eq!(fleet.dead, dead);
        assert_eq!(fleet.dies, params.yields.dies as u64);
    }

    #[test]
    fn yield_curve_cells_are_the_scans_operational_shares() {
        // The curve's suffix sums over the histogram give, cell by cell, the
        // share of dies the linear scan flags operational.
        for include_l2 in [false, true] {
            let mut params = tiny();
            params.yields.include_l2 = include_l2;
            let curve = FleetStudy::run(&params).yield_curve();
            let study = YieldStudy::run(&params.yields);
            assert_eq!(curve.rows.len(), study.grid.len());
            for (k, (_, values)) in curve.rows.iter().enumerate() {
                assert_eq!(values.len(), YieldStudy::scheme_labels().len());
                for (i, &value) in values.iter().enumerate() {
                    let ok = study.dies.iter().filter(|d| d.operational[i][k]).count();
                    let share = ok as f64 / study.dies.len() as f64;
                    assert_eq!(value, Some(share), "include_l2={include_l2} scheme {i} row {k}");
                }
            }
        }
    }

    #[test]
    fn yield_curve_and_summary_have_the_expected_shape() {
        let fleet = FleetStudy::run(&tiny());
        let curve = fleet.yield_curve();
        assert_eq!(curve.rows.len(), fleet.grid.len());
        assert_eq!(curve.series_labels.len(), 5);
        for (_, values) in &curve.rows {
            for v in values {
                assert!((0.0..=1.0).contains(&v.unwrap()));
            }
        }
        let summary = fleet.vccmin_summary();
        assert_eq!(summary.rows.len(), 5);
        for (_, values) in &summary.rows {
            // best <= mean <= worst for live schemes.
            let (mean, best, worst) =
                (values[0].unwrap(), values[1].unwrap(), values[2].unwrap());
            assert!(best <= mean + 1e-12);
            assert!(mean <= worst + 1e-12);
        }
    }

    #[test]
    fn dead_scheme_reports_empty_cells_not_zero() {
        // A grid entirely below every non-ideal scheme's floor: at 0.46 V
        // (pfail ~ 6e-3) block-disabling cannot hold half capacity on any die,
        // so it must report *no* Vcc-min — empty mean/best/worst cells and a
        // dead fraction of 1 — instead of a "best Vcc-min 0.000" that reads
        // better than any live scheme.
        let mut params = tiny();
        params.yields.v_high = 0.46;
        params.yields.v_low = 0.44;
        params.yields.steps = 2;
        let summary = FleetStudy::run(&params).vccmin_summary();
        let labels = YieldStudy::scheme_labels();
        let block = labels.iter().position(|l| l == "block disabling").unwrap();
        let (label, values) = &summary.rows[block];
        assert_eq!(label, "block disabling");
        assert_eq!(values[0], None, "a dead scheme has no mean Vcc-min");
        assert_eq!(values[1], None, "a dead scheme has no best Vcc-min");
        assert_eq!(values[2], None, "a dead scheme has no worst Vcc-min");
        assert_eq!(values[3], Some(1.0));
        // The baseline ignores faults and stays alive, so the mean footer is
        // computed over live schemes only — and stays a real voltage, not a
        // value dragged toward zero by the dead row.
        let means = summary.series_means();
        assert!(means[0].unwrap() >= params.yields.v_low);
        // The CSV encodes the dead cells as empty fields.
        let csv = summary.to_csv();
        assert!(
            csv.lines().any(|l| l.starts_with("block disabling,,,,")),
            "dead scheme must render empty Vcc-min cells: {csv}"
        );
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        let params = tiny();
        assert_eq!(FleetStudy::run(&params), FleetStudy::run_parallel(&params));
    }

    #[test]
    fn shard_size_never_changes_the_aggregate() {
        let base = tiny();
        let reference = FleetStudy::run(&base);
        for shard_dies in [1, 7, 30, 1000] {
            let params = FleetParams {
                shard_dies,
                ..base.clone()
            };
            let study = FleetStudy::run(&params);
            assert_eq!(study.hist, reference.hist, "shard_dies={shard_dies}");
            assert_eq!(study.dead, reference.dead, "shard_dies={shard_dies}");
        }
    }

    #[test]
    fn l2_floor_flows_through_the_fleet_path() {
        let mut params = tiny();
        params.yields.include_l2 = true;
        let fleet = FleetStudy::run(&params);
        let study = YieldStudy::run(&params.yields);
        let (hist, dead) = study.min_voltage_histogram();
        assert_eq!(fleet.hist, hist);
        assert_eq!(fleet.dead, dead);
    }

    #[test]
    fn fingerprint_separates_campaigns_and_shard_sizes() {
        let a = tiny();
        let mut b = tiny();
        b.yields.master_seed ^= 1;
        let mut c = tiny();
        c.shard_dies += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), tiny().fingerprint());
    }

    #[test]
    fn checkpointed_run_is_identical_and_resumes_from_partial_state() {
        let params = tiny();
        let dir = std::env::temp_dir().join(format!("vccmin-fleet-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // A cold checkpointed run matches the plain run.
        let cold = FleetStudy::run_checkpointed(&params, &dir, true).unwrap();
        let plain = FleetStudy::run(&params);
        assert_eq!(cold.hist, plain.hist);
        assert_eq!(cold.dead, plain.dead);

        // Simulate an interruption: delete two shards, corrupt one.
        let store = CheckpointStore::open(&dir, params.fingerprint()).unwrap();
        std::fs::remove_file(store.shard_path(1)).unwrap();
        std::fs::remove_file(store.shard_path(3)).unwrap();
        let path = store.shard_path(0);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        // The resumed run recomputes exactly the damaged shards and reaches
        // the same aggregate.
        let resumed = FleetStudy::run_checkpointed(&params, &dir, false).unwrap();
        assert_eq!(resumed, cold);
        assert_eq!(
            resumed.vccmin_summary().to_csv(),
            plain.vccmin_summary().to_csv()
        );

        // A different campaign refuses the leftover records instead of
        // silently merging foreign results.
        let mut other = params.clone();
        other.yields.master_seed ^= 0xdead;
        let fresh = FleetStudy::run_checkpointed(&other, &dir, true).unwrap();
        assert_eq!(fresh.hist, FleetStudy::run(&other).hist);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stored_shard_with_the_wrong_bounds_is_recomputed() {
        // A record that passes every check of the store (fingerprint, index,
        // counts that add up to its die count) but covers one die fewer than
        // its shard must be recomputed, not merged.
        let params = tiny();
        let dir = std::env::temp_dir().join(format!("vccmin-fleet-bounds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let grid = params.yields.voltage_grid();
        let mut short = compute_shard(&params, &grid, &registry(), 1, true);
        short.die_count -= 1;
        for (counts, dead) in short.hist.iter_mut().zip(&mut short.dead) {
            match counts.iter_mut().find(|c| **c > 0) {
                Some(c) => *c -= 1,
                None => *dead -= 1,
            }
        }
        let store = CheckpointStore::open(&dir, params.fingerprint()).unwrap();
        store.save(&short).unwrap();
        assert_eq!(
            store.load(1, short.hist.len(), grid.len()).unwrap(),
            Some(short)
        );

        let resumed = FleetStudy::run_checkpointed(&params, &dir, true).unwrap();
        assert_eq!(resumed, FleetStudy::run(&params));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_population_is_well_defined() {
        let mut params = tiny();
        params.yields.dies = 0;
        let fleet = FleetStudy::run(&params);
        assert_eq!(fleet.dies, 0);
        assert!(fleet.hist.iter().flatten().all(|&c| c == 0));
        for (_, values) in &fleet.yield_curve().rows {
            assert!(values.iter().all(|&v| v == Some(0.0)), "{values:?}");
        }
        for (_, values) in &fleet.vccmin_summary().rows {
            // No dies means no Vcc-min statistics (empty cells, never NaN) and
            // a well-defined dead fraction of zero.
            assert_eq!(values[..3], [None, None, None]);
            assert_eq!(values[3], Some(0.0));
        }
    }
}
