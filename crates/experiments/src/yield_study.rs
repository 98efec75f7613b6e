//! The die-population yield campaign: "at what voltage can each die run, and
//! what fraction of dies meets a target Vcc-min under each repair scheme?"
//!
//! The paper evaluates its schemes at a handful of fixed `pfail` points; this
//! campaign asks the designer's actual question. It samples a population of
//! dies from the process-variation model of `vccmin-fault` (spatially-correlated
//! systematic Vcc-min offsets plus the calibrated `pfail(V)` random
//! component), generates each die's fault map at the voltages of a grid, and
//! computes — per repair scheme in the [`vccmin_cache::repair::registry`] —
//! the die's *minimum operational voltage*: the lowest supply at which the
//! scheme can still repair the map and retain at least
//! [`YieldParams::min_capacity`] of the cache.
//!
//! Two structural invariants make the campaign well posed:
//!
//! * per die and seed, fault maps are **nested across voltages**
//!   ([`FaultMap::generate_at_voltage`]), and no scheme gains capacity from
//!   extra faults, so a die's operational range is a contiguous voltage
//!   interval and every yield curve is monotone non-increasing as the supply
//!   drops;
//! * all randomness derives from [`YieldParams::master_seed`] through
//!   [`SeedSequence`], and each die is an independent unit of work, so any
//!   shard of the population can be evaluated on its own and still match
//!   [`YieldStudy::run`] bit for bit.
//!
//! In the i.i.d. limit (zero systematic variance) the Monte-Carlo yield
//! converges to the closed forms of `vccmin_analysis::yield_model`; the
//! workspace integration tests cross-validate the two.
//!
//! This module defines the campaign ([`YieldParams`]) and its reference
//! executor: [`YieldStudy::run`] scans every die over the whole grid on the
//! calling thread and keeps each die's operational flags, so it needs
//! `O(dies)` memory. The streaming executor in [`crate::fleet`] answers the
//! same per-die probe by binary search, in parallel and in flat memory; it
//! backs every `vccmin-repro yield` run and renders both yield tables. Its
//! tests compare its histogram with [`YieldStudy::min_voltage_histogram`].

use vccmin_cache::repair::{registry, RepairScheme};
use vccmin_fault::{CacheGeometry, DieVariation, FaultMap, SeedSequence, VariationModel};

/// Parameters of a yield campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldParams {
    /// Number of dies in the sampled population.
    pub dies: usize,
    /// The process-variation model dies are sampled from.
    pub variation: VariationModel,
    /// Top of the voltage grid (normalized; inclusive).
    pub v_high: f64,
    /// Bottom of the voltage grid (normalized; inclusive).
    pub v_low: f64,
    /// Number of grid voltages between `v_high` and `v_low` (>= 2).
    pub steps: usize,
    /// Fraction of the fault-free cache a die must retain to count as
    /// operational (0.5 matches the paper's "more than 50% capacity" framing
    /// and word-disabling's halved organization).
    pub min_capacity: f64,
    /// Whether the per-die pass criterion also covers the unified L2: when
    /// set, each die additionally samples an L2 variation + fault map per
    /// voltage and a scheme must hold the capacity floor on *both* arrays for
    /// the die to count as operational. Off by default (the paper's perfect
    /// L2), which leaves every existing result bit-identical.
    pub include_l2: bool,
    /// Master seed from which every die and fault map derives.
    pub master_seed: u64,
}

impl YieldParams {
    /// A quick campaign: 200 dies over an 11-point grid from Vcc-min (0.70)
    /// down to below the paper's half-nominal floor. Finishes in well under a
    /// second; the scale the golden snapshot is pinned at.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            dies: 200,
            variation: VariationModel::ispass2010(),
            v_high: 0.70,
            v_low: 0.45,
            steps: 11,
            min_capacity: 0.5,
            include_l2: false,
            master_seed: 0x15_2A55_2010,
        }
    }

    /// A smoke-test campaign: a couple dozen dies on a coarse grid.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            dies: 24,
            steps: 6,
            master_seed: 7,
            ..Self::quick()
        }
    }

    /// The voltage grid, highest voltage first (the order dies are probed in).
    ///
    /// # Panics
    ///
    /// Panics if the parameters are degenerate: fewer than two steps, a
    /// non-finite or inverted voltage range, or a capacity floor outside
    /// `[0, 1]`.
    #[must_use]
    pub fn voltage_grid(&self) -> Vec<f64> {
        assert!(self.steps >= 2, "a voltage grid needs at least two points");
        assert!(
            self.v_high.is_finite() && self.v_low.is_finite() && self.v_high > self.v_low,
            "voltage grid must run downward from v_high ({}) to v_low ({})",
            self.v_high,
            self.v_low
        );
        assert!(
            (0.0..=1.0).contains(&self.min_capacity),
            "min_capacity must be a fraction, got {}",
            self.min_capacity
        );
        let span = self.v_high - self.v_low;
        (0..self.steps)
            .map(|i| self.v_high - span * i as f64 / (self.steps - 1) as f64)
            .collect()
    }

    /// Per-die (variation seed, fault-map seed) pairs, derived from the master
    /// seed. Exposed so tests can replay an individual die.
    #[must_use]
    pub fn die_seeds(&self) -> Vec<(u64, u64)> {
        self.die_seeds_range(0, self.dies)
    }

    /// The contiguous sub-range `[start, start + count)` of
    /// [`YieldParams::die_seeds`], without materializing the whole population:
    /// the seed stream is fast-forwarded past the first `start` dies. This is
    /// the unit the sharded fleet executor draws its work from —
    /// `die_seeds_range(s, c)` equals `die_seeds()[s..s + c]` bit for bit for
    /// any shard boundary.
    #[must_use]
    pub fn die_seeds_range(&self, start: usize, count: usize) -> Vec<(u64, u64)> {
        seed_pair_range(self.master_seed, "yield-dies", start, count)
    }

    /// Per-die (variation seed, fault-map seed) pairs for the L2 array, from a
    /// seed fork of their own: enabling the L2 floor never changes the L1
    /// side of any die.
    #[must_use]
    pub fn l2_die_seeds(&self) -> Vec<(u64, u64)> {
        self.l2_die_seeds_range(0, self.dies)
    }

    /// The contiguous sub-range `[start, start + count)` of
    /// [`YieldParams::l2_die_seeds`], mirroring
    /// [`YieldParams::die_seeds_range`].
    #[must_use]
    pub fn l2_die_seeds_range(&self, start: usize, count: usize) -> Vec<(u64, u64)> {
        seed_pair_range(self.master_seed, "yield-l2-dies", start, count)
    }
}

/// Seed pairs `[start, start + count)` of the stream forked from `master` as
/// `label`. Skipping discards two seeds per die, exactly like taking them, in
/// O(1) whatever `start` is.
fn seed_pair_range(master: u64, label: &str, start: usize, count: usize) -> Vec<(u64, u64)> {
    let mut seeds = SeedSequence::new(master).fork(label);
    seeds.discard(2 * start as u64);
    (0..count)
        .map(|_| {
            let die = seeds.next_seed();
            let map = seeds.next_seed();
            (die, map)
        })
        .collect()
}

impl Default for YieldParams {
    fn default() -> Self {
        Self::quick()
    }
}

/// The outcome of one die: per repair scheme (registry order), whether the die
/// is operational at each grid voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct DieResult {
    /// Per scheme, per grid voltage (highest first): is the die operational?
    /// Fault maps are nested across the descending grid and capacity is
    /// monotone in the faults, so each scheme's flags are a prefix of `true`s;
    /// the die's minimum operational voltage is the end of that prefix.
    pub operational: Vec<Vec<bool>>,
}

/// The per-die linear scan of a yield campaign over every scheme in the repair
/// registry: the reference the fleet executor is tested against.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldStudy {
    /// The parameters the study ran with.
    pub params: YieldParams,
    /// The probed voltage grid, highest first.
    pub grid: Vec<f64>,
    /// One result per die, in population order.
    pub dies: Vec<DieResult>,
}

impl YieldStudy {
    /// The cache array the die population is sampled for: the paper's L1.
    #[must_use]
    pub fn geometry() -> CacheGeometry {
        CacheGeometry::ispass2010_l1()
    }

    /// The second array the pass criterion covers when
    /// [`YieldParams::include_l2`] is set: the paper's unified L2.
    #[must_use]
    pub fn l2_geometry() -> CacheGeometry {
        CacheGeometry::ispass2010_l2()
    }

    /// Evaluates one die: sample its variation, generate its fault map at
    /// every grid voltage (nested, because the map seed is fixed per die) and
    /// query every repair scheme's capacity — on the L1 alone, or on the L1
    /// and the L2 when the die carries L2 seeds. The scheme registry is
    /// resolved once per campaign and threaded in, not rebuilt per die.
    fn run_die(
        params: &YieldParams,
        grid: &[f64],
        schemes: &[&'static dyn RepairScheme],
        die_seed: u64,
        map_seed: u64,
        l2_seeds: Option<(u64, u64)>,
    ) -> DieResult {
        let geometry = Self::geometry();
        let die = DieVariation::sample(&geometry, &params.variation, die_seed);
        let l2_die = l2_seeds.map(|(l2_die_seed, l2_map_seed)| {
            (
                DieVariation::sample(&Self::l2_geometry(), &params.variation, l2_die_seed),
                l2_map_seed,
            )
        });
        let mut operational = vec![Vec::with_capacity(grid.len()); schemes.len()];
        for &v in grid {
            let map = FaultMap::generate_at_voltage(&die, v, map_seed);
            let l2_map = l2_die
                .as_ref()
                .map(|(d, seed)| FaultMap::generate_at_voltage(d, v, *seed));
            for (i, scheme) in schemes.iter().enumerate() {
                let ok = scheme.meets_capacity_floor(&map, params.min_capacity)
                    && l2_map
                        .as_ref()
                        .is_none_or(|m| scheme.meets_capacity_floor(m, params.min_capacity));
                operational[i].push(ok);
            }
        }
        DieResult { operational }
    }

    /// Runs the campaign on the calling thread, scanning every die over the
    /// whole grid: the materializing reference that
    /// [`FleetStudy`](crate::fleet::FleetStudy) is tested against.
    #[must_use]
    pub fn run(params: &YieldParams) -> Self {
        let grid = params.voltage_grid();
        let schemes = registry();
        let dies = params
            .die_seeds()
            .into_iter()
            .zip(Self::l2_seed_iter(params))
            .map(|((die_seed, map_seed), l2_seeds)| {
                Self::run_die(params, &grid, &schemes, die_seed, map_seed, l2_seeds)
            })
            .collect();
        Self {
            params: params.clone(),
            grid,
            dies,
        }
    }

    /// One optional L2 seed pair per die: `None`s when the L2 floor is off.
    fn l2_seed_iter(params: &YieldParams) -> Vec<Option<(u64, u64)>> {
        if params.include_l2 {
            params.l2_die_seeds().into_iter().map(Some).collect()
        } else {
            vec![None; params.dies]
        }
    }

    /// The repair schemes' labels in registry order: the columns of the yield
    /// tables.
    #[must_use]
    pub fn scheme_labels() -> Vec<String> {
        registry().iter().map(|s| s.label().to_string()).collect()
    }

    /// Per scheme (registry order), the histogram of minimum-operational-
    /// voltage grid indices plus the count of dead dies: exactly the streaming
    /// aggregate the fleet executor accumulates (its `hist` and `dead`),
    /// derived here from the stored per-die flags.
    #[must_use]
    pub fn min_voltage_histogram(&self) -> (Vec<Vec<u64>>, Vec<u64>) {
        let schemes = registry().len();
        let mut hist = vec![vec![0u64; self.grid.len()]; schemes];
        let mut dead = vec![0u64; schemes];
        for die in &self.dies {
            for (i, flags) in die.operational.iter().enumerate() {
                let usable = flags.iter().take_while(|&&ok| ok).count();
                match usable.checked_sub(1) {
                    Some(k) => hist[i][k] += 1,
                    None => dead[i] += 1,
                }
            }
        }
        (hist, dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetParams, FleetStudy};
    use vccmin_fault::PfailVoltageModel;

    fn tiny() -> YieldParams {
        YieldParams {
            dies: 8,
            steps: 5,
            ..YieldParams::smoke()
        }
    }

    /// Per scheme, the length of the die's operational prefix (0 = dead).
    fn prefix_lengths(die: &DieResult) -> Vec<usize> {
        die.operational
            .iter()
            .map(|flags| flags.iter().take_while(|&&ok| ok).count())
            .collect()
    }

    /// Dies the scan flags operational under scheme `scheme` at grid index `k`.
    fn operational_count(study: &YieldStudy, scheme: usize, k: usize) -> usize {
        study
            .dies
            .iter()
            .filter(|d| d.operational[scheme][k])
            .count()
    }

    #[test]
    fn voltage_grid_is_descending_and_inclusive() {
        let grid = YieldParams::quick().voltage_grid();
        assert_eq!(grid.len(), 11);
        assert!((grid[0] - 0.70).abs() < 1e-12);
        assert!((grid[10] - 0.45).abs() < 1e-12);
        for pair in grid.windows(2) {
            assert!(pair[1] < pair[0]);
        }
    }

    #[test]
    fn die_seeds_are_deterministic_and_distinct() {
        let params = tiny();
        let a = params.die_seeds();
        assert_eq!(a, params.die_seeds());
        assert_eq!(a.len(), params.dies);
        let unique: std::collections::HashSet<u64> =
            a.iter().flat_map(|&(d, m)| [d, m]).collect();
        assert_eq!(unique.len(), 2 * params.dies);
    }

    #[test]
    fn seed_ranges_are_windows_of_the_full_sequence() {
        let params = YieldParams {
            dies: 23,
            ..tiny()
        };
        let all = params.die_seeds();
        let l2_all = params.l2_die_seeds();
        for (start, count) in [(0, 23), (0, 5), (7, 9), (22, 1), (23, 0), (5, 0)] {
            assert_eq!(params.die_seeds_range(start, count), all[start..start + count]);
            assert_eq!(
                params.l2_die_seeds_range(start, count),
                l2_all[start..start + count]
            );
        }
    }

    #[test]
    fn seed_ranges_deep_in_a_population_match_drawing_every_seed() {
        // A shard that starts three million dies in fast-forwards its stream
        // in O(1); the reference draws all six million seeds before it.
        let params = tiny();
        let start = 3_000_017;
        for (label, range) in [
            ("yield-dies", params.die_seeds_range(start, 3)),
            ("yield-l2-dies", params.l2_die_seeds_range(start, 3)),
        ] {
            let mut seeds = SeedSequence::new(params.master_seed).fork(label);
            for _ in 0..2 * start {
                let _ = seeds.next_seed();
            }
            let expected: Vec<(u64, u64)> =
                (0..3).map(|_| (seeds.next_seed(), seeds.next_seed())).collect();
            assert_eq!(range, expected, "{label}");
        }
    }

    #[test]
    fn operational_flags_form_a_prefix_and_yield_is_monotone() {
        let study = YieldStudy::run(&tiny());
        for die in &study.dies {
            for flags in &die.operational {
                let first_false = flags.iter().take_while(|&&ok| ok).count();
                assert!(
                    flags[first_false..].iter().all(|&ok| !ok),
                    "operational flags must be a true-prefix: {flags:?}"
                );
            }
        }
        for i in 0..YieldStudy::scheme_labels().len() {
            for k in 1..study.grid.len() {
                assert!(
                    operational_count(&study, i, k) <= operational_count(&study, i, k - 1),
                    "yield must not grow as voltage drops"
                );
            }
        }
    }

    #[test]
    fn baseline_runs_every_die_to_the_bottom_of_the_grid() {
        let study = YieldStudy::run(&tiny());
        for die in &study.dies {
            // Registry order puts the idealized baseline first.
            assert!(die.operational[0].iter().all(|&ok| ok));
        }
    }

    #[test]
    fn schemes_order_their_vccmin_as_their_capacity_models_predict() {
        // At the top of the grid (pfail ~ 1e-7) every scheme should be alive;
        // bit-fix must never have a worse Vcc-min than block-disabling on the
        // same die (it dominates block-disabling on every fault map).
        let study = YieldStudy::run(&YieldParams::smoke());
        let labels = YieldStudy::scheme_labels();
        let block = labels.iter().position(|l| l == "block disabling").unwrap();
        let bitfix = labels.iter().position(|l| l == "bit fix").unwrap();
        for die in &study.dies {
            let usable = prefix_lengths(die);
            assert!(usable[block] > 0, "die dead at pfail ~ 1e-7");
            assert!(
                usable[bitfix] >= usable[block],
                "bit-fix Vcc-min worse than block-disabling: {usable:?}"
            );
        }
    }

    #[test]
    fn histogram_recovers_the_per_die_minimum_voltages() {
        let study = YieldStudy::run(&tiny());
        let (hist, dead) = study.min_voltage_histogram();
        for (i, (counts, &dead_count)) in hist.iter().zip(&dead).enumerate() {
            let total: u64 = counts.iter().sum::<u64>() + dead_count;
            assert_eq!(total, study.dies.len() as u64);
            let dead_dies = study.dies.iter().filter(|d| !d.operational[i][0]).count();
            assert_eq!(dead_count, dead_dies as u64);
            for (k, &count) in counts.iter().enumerate() {
                // Grid index `k` is a die's minimum voltage when the die runs
                // there and not one step lower.
                let expected = study
                    .dies
                    .iter()
                    .filter(|d| {
                        let flags = &d.operational[i];
                        flags[k] && !flags.get(k + 1).copied().unwrap_or(false)
                    })
                    .count() as u64;
                assert_eq!(count, expected);
            }
        }
    }

    #[test]
    fn l2_floor_never_helps_and_only_tightens_the_criterion() {
        // Same seeds with and without the L2 floor: a die operational with the
        // L2 included must be operational without it (the criterion is a
        // conjunction), so its Vcc-min can only rise.
        let base = tiny();
        let with_l2 = YieldParams {
            include_l2: true,
            ..base.clone()
        };
        let a = YieldStudy::run(&base);
        let b = YieldStudy::run(&with_l2);
        assert_eq!(a.dies.len(), b.dies.len());
        for (da, db) in a.dies.iter().zip(&b.dies) {
            for (fa, fb) in da.operational.iter().zip(&db.operational) {
                for (&l1_only, &both) in fa.iter().zip(fb) {
                    assert!(!both || l1_only, "the L2 floor cannot revive a die");
                }
            }
        }
        // The monotone prefix structure survives (nested maps on both arrays).
        for die in &b.dies {
            for flags in &die.operational {
                let first_false = flags.iter().take_while(|&&ok| ok).count();
                assert!(flags[first_false..].iter().all(|&ok| !ok));
            }
        }
        // The idealized baseline ignores faults on both arrays.
        for die in &b.dies {
            assert!(die.operational[0].iter().all(|&ok| ok));
        }
    }

    #[test]
    fn l2_seeds_are_disjoint_from_l1_seeds() {
        let params = tiny();
        let l1: std::collections::HashSet<u64> =
            params.die_seeds().iter().flat_map(|&(d, m)| [d, m]).collect();
        let l2: std::collections::HashSet<u64> =
            params.l2_die_seeds().iter().flat_map(|&(d, m)| [d, m]).collect();
        assert_eq!(l2.len(), 2 * params.dies);
        assert!(l1.is_disjoint(&l2), "L1 and L2 arrays must fault independently");
    }

    #[test]
    fn empty_population_yields_zero_not_nan() {
        let params = YieldParams { dies: 0, ..tiny() };
        let study = YieldStudy::run(&params);
        let (hist, dead) = study.min_voltage_histogram();
        assert!(study.dies.is_empty());
        assert!(hist.iter().flatten().chain(&dead).all(|&c| c == 0));
        // The reports are a function of the scan's aggregate alone.
        let fleet = FleetStudy {
            params: FleetParams::new(params),
            grid: study.grid.clone(),
            dies: 0,
            hist,
            dead,
        };
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

    #[test]
    fn iid_population_is_statistically_flat_across_dies() {
        // Without systematic variation every die sees the same per-word
        // probabilities; at the paper's operating point (~0.5 V, pfail 1e-3)
        // block-disabling should keep essentially every die above half
        // capacity (the paper's 99.9% claim).
        let params = YieldParams {
            dies: 64,
            variation: VariationModel::iid(PfailVoltageModel::ispass2010()),
            ..YieldParams::quick()
        };
        let study = YieldStudy::run(&params);
        let labels = YieldStudy::scheme_labels();
        let block = labels.iter().position(|l| l == "block disabling").unwrap();
        let half_volt = study
            .grid
            .iter()
            .position(|&v| (v - 0.5).abs() < 1e-9)
            .expect("0.5 is on the quick grid");
        let share = operational_count(&study, block, half_volt) as f64 / params.dies as f64;
        assert!(share > 0.95);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn degenerate_grid_is_rejected() {
        let params = YieldParams { steps: 1, ..tiny() };
        let _ = params.voltage_grid();
    }
}
