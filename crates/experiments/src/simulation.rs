//! The simulation campaigns behind Figures 8–12 of the paper.
//!
//! A campaign runs every workload on every cache configuration. Configurations
//! whose behavior depends on the random fault map (the block-disabling variants) are
//! evaluated over several independently sampled fault-map *pairs* (one map for the
//! instruction cache, one for the data cache) and reported as the mean and minimum
//! normalized performance — exactly how the paper presents its results (50 pairs at
//! `pfail = 0.001`).
//!
//! Campaigns additionally carry an **L2-faulty axis**
//! ([`SimulationParams::l2`], an [`L2Protection`]): with anything but the
//! default perfect L2, each fault-map pair is extended by an L2 fault map
//! (sampled from a seed fork of its own, so the L1 maps never change) and the
//! chosen scheme's effective L2 organization — including whole-cache failure
//! on the L2 — feeds the same accounting as the L1 schemes.
//!
//! Every study has one entry point, `run_with_pool(params, &pool, serial)`,
//! and runs through one executor. A [`FaultMapPool`] is the only source of a
//! campaign's fault maps, so studies that share a pool share its maps. The
//! executor plans each cell (a workload with a configuration, or with a
//! governor policy) before anything runs: word-disabling, whose halved cache
//! performs the same on every usable map, takes only its first repairable
//! pair. Every job is then one independent simulation, and the crate's job
//! map runs the jobs on the rayon pool, or on the calling thread with
//! `serial`; both give bit-identical results.

use std::sync::OnceLock;

use vccmin_analysis::voltage::VoltageScalingModel;
use vccmin_cache::{CacheGeometry, CacheHierarchy, DisablingScheme, FaultMap, VoltageMode};
use vccmin_cpu::{CoreModel, SimResult};
use vccmin_fault::SeedSequence;
use vccmin_workloads::{Benchmark, PhaseSchedule};

use crate::config::{L2Protection, SchemeConfig};
use crate::governor::{
    run_governed, GovernedRun, GovernedRunSpec, GovernorMetrics, GovernorPolicy,
    TransitionCostModel,
};
use crate::map_jobs;
use crate::report::FigureTable;
use crate::workload::Workload;

/// Parameters of a simulation campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationParams {
    /// Instructions simulated per run (the paper uses 100 M; the default is scaled
    /// down so a full campaign finishes in minutes on a laptop).
    pub instructions: u64,
    /// Number of fault-map pairs per fault-dependent configuration (the paper uses 50).
    pub fault_map_pairs: usize,
    /// Per-cell probability of failure below Vcc-min (0.001 in the paper).
    pub pfail: f64,
    /// Master seed from which every fault map and trace seed is derived.
    pub master_seed: u64,
    /// Workloads to simulate — synthetic profiles and/or RISC-V kernels.
    pub workloads: Vec<Workload>,
    /// How the unified L2 is protected below Vcc-min. The default
    /// ([`L2Protection::Perfect`]) reproduces the paper's fault-free L2 bit
    /// for bit; any other choice samples one L2 fault map per fault-map pair
    /// and resolves the chosen scheme's effective L2 organization.
    pub l2: L2Protection,
    /// Which CPU backend simulates the traces. The default
    /// ([`CoreModel::OutOfOrder`]) is the paper's core, so every pre-existing
    /// golden is untouched; [`CoreModel::InOrder`] re-runs the same campaign
    /// on the scalar stall-on-use core. The trace seed derivation does not
    /// depend on this axis, so both cores replay identical instruction
    /// streams against identical fault maps.
    pub core: CoreModel,
}

impl SimulationParams {
    /// A quick campaign: every workload, scaled-down instruction counts and fault
    /// map counts. Finishes in a few minutes; suitable for the example binaries.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            instructions: 60_000,
            fault_map_pairs: 5,
            pfail: 0.001,
            master_seed: 0x15_2A55_2010,
            workloads: Workload::all_synthetic(),
            l2: L2Protection::Perfect,
            core: CoreModel::OutOfOrder,
        }
    }

    /// A smoke-test campaign: four representative workloads, tiny traces. Used by
    /// unit/integration tests and the benches' correctness checks.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            instructions: 15_000,
            fault_map_pairs: 2,
            pfail: 0.001,
            master_seed: 7,
            workloads: vec![
                Benchmark::Crafty.into(),
                Benchmark::Mcf.into(),
                Benchmark::Swim.into(),
                Benchmark::Gzip.into(),
            ],
            l2: L2Protection::Perfect,
            core: CoreModel::OutOfOrder,
        }
    }

    /// A quick campaign over the real RISC-V kernels only: the four RV32IM
    /// kernels executed on the interpreter. The instruction budget is higher
    /// than [`Self::quick`] because every kernel starts with a sequential,
    /// data-independent fill routine that must be retired before the
    /// cache-sensitive, data-dependent body is reached. At the default
    /// working set and seed 2010 (other seeds differ by at most one
    /// instruction) the fill routine returns after 27,660 instructions
    /// (matmul), 65,542 (hashjoin), 73,739 (qsort) and 397,325 (compress,
    /// whose byte-fill loop alone runs to 393,227). So at this budget the
    /// compress row simulates only its fill routine. This is the
    /// configuration pinned by the `riscv_schemes` golden; a larger budget
    /// would change it.
    #[must_use]
    pub fn riscv_quick() -> Self {
        Self {
            instructions: 250_000,
            workloads: Workload::all_riscv(),
            ..Self::quick()
        }
    }

    /// The quick-scale two-core matrix campaign pinned by the `core_matrix`
    /// golden: a representative synthetic subset plus one RISC-V kernel, with
    /// an instruction budget high enough that the kernel's sequential fill
    /// prefix (73,739 instructions for qsort) is retired and its
    /// data-dependent body is reached, and a reduced pair count so the
    /// doubled (two-core) campaign stays quick. The other kernels' fill
    /// prefixes are listed at [`Self::riscv_quick`]; compress's would not fit
    /// this budget.
    #[must_use]
    pub fn core_matrix_quick() -> Self {
        Self {
            instructions: 120_000,
            fault_map_pairs: 3,
            workloads: vec![
                Benchmark::Crafty.into(),
                Benchmark::Mcf.into(),
                Benchmark::Swim.into(),
                Benchmark::Gzip.into(),
                vccmin_riscv::RvKernel::Quicksort.into(),
            ],
            ..Self::quick()
        }
    }

    /// The paper-scale campaign: 100 M instructions, 50 fault-map pairs, all 26
    /// workloads. This takes many CPU-hours; use it only for a full reproduction.
    #[must_use]
    pub fn paper_scale() -> Self {
        Self {
            instructions: 100_000_000,
            fault_map_pairs: 50,
            pfail: 0.001,
            master_seed: 2010,
            workloads: Workload::all_synthetic(),
            l2: L2Protection::Perfect,
            core: CoreModel::OutOfOrder,
        }
    }

    /// The trace seed every campaign in this module uses for `workload`,
    /// derived from the master seed so every configuration of a workload
    /// replays the identical instruction stream (public so equivalence tests
    /// can replay it too).
    #[must_use]
    pub fn trace_seed(&self, workload: Workload) -> u64 {
        SeedSequence::new(self.master_seed)
            .fork(workload.name())
            .next_seed()
    }
}

impl Default for SimulationParams {
    fn default() -> Self {
        Self::quick()
    }
}

/// Result of one configuration on one workload: one [`SimResult`] per fault-map
/// pair (a single entry for fault-independent configurations).
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigResult {
    /// The configuration that was simulated.
    pub scheme: SchemeConfig,
    /// One result per evaluated fault-map pair.
    pub runs: Vec<SimResult>,
    /// Fault-map pairs skipped because word-disabling could not repair them
    /// (whole-cache failure).
    pub whole_cache_failures: usize,
}

impl ConfigResult {
    /// Mean IPC over the evaluated fault maps.
    #[must_use]
    pub fn mean_ipc(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().map(SimResult::ipc).sum::<f64>() / self.runs.len() as f64
    }

    /// Minimum (worst fault map) IPC, or 0 when no fault map could be evaluated.
    #[must_use]
    pub fn min_ipc(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs
            .iter()
            .map(SimResult::ipc)
            .fold(f64::INFINITY, f64::min)
    }
}

/// All configuration results for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkResult {
    /// The workload.
    pub workload: Workload,
    /// Results per configuration.
    pub configs: Vec<ConfigResult>,
}

impl BenchmarkResult {
    /// The result for a specific configuration.
    #[must_use]
    pub fn config(&self, scheme: SchemeConfig) -> Option<&ConfigResult> {
        self.configs.iter().find(|c| c.scheme == scheme)
    }

    /// Mean performance of `scheme` normalized to the mean performance of
    /// `baseline`.
    #[must_use]
    pub fn normalized_mean(&self, scheme: SchemeConfig, baseline: SchemeConfig) -> f64 {
        match (self.config(scheme), self.config(baseline)) {
            (Some(s), Some(b)) if b.mean_ipc() > 0.0 => s.mean_ipc() / b.mean_ipc(),
            _ => 0.0,
        }
    }

    /// Minimum (worst fault map) performance of `scheme` normalized to the mean
    /// performance of `baseline`.
    #[must_use]
    pub fn normalized_min(&self, scheme: SchemeConfig, baseline: SchemeConfig) -> f64 {
        match (self.config(scheme), self.config(baseline)) {
            (Some(s), Some(b)) if b.mean_ipc() > 0.0 => s.min_ipc() / b.mean_ipc(),
            _ => 0.0,
        }
    }
}

/// Runs one workload on one hierarchy with the campaign's CPU backend and
/// returns the result. Core construction goes through [`CoreModel::build`] —
/// the same factory path the governor uses — so campaigns and governed runs
/// build cores identically.
fn simulate(params: &SimulationParams, workload: Workload, hierarchy: CacheHierarchy) -> SimResult {
    let mut cpu = params.core.build(hierarchy);
    let mut trace = workload.source(params.trace_seed(workload));
    cpu.run(&mut trace, Some(params.instructions))
}

/// Generates a campaign's fault-map pairs (instruction cache, data cache).
fn generate_fault_map_pairs(master_seed: u64, pfail: f64, count: usize) -> Vec<(FaultMap, FaultMap)> {
    let geom = CacheGeometry::ispass2010_l1();
    let mut seeds = SeedSequence::new(master_seed).fork("fault-maps");
    (0..count)
        .map(|_| {
            let si = seeds.next_seed();
            let sd = seeds.next_seed();
            (
                FaultMap::generate(&geom, pfail, si),
                FaultMap::generate(&geom, pfail, sd),
            )
        })
        .collect()
}

/// Generates a campaign's L2 fault maps, one per fault-map pair, from a seed
/// fork of their own: the L1 pairs are bit-identical whether or not the L2 axis
/// is enabled.
fn generate_l2_fault_maps(master_seed: u64, pfail: f64, count: usize) -> Vec<FaultMap> {
    let geom = CacheGeometry::ispass2010_l2();
    let mut seeds = SeedSequence::new(master_seed).fork("l2-fault-maps");
    (0..count)
        .map(|_| FaultMap::generate(&geom, pfail, seeds.next_seed()))
        .collect()
}

/// The fault maps of one campaign parameter set, generated once and shared:
/// the only source of a campaign's fault maps.
///
/// A pool derives them from `params.master_seed` through [`SeedSequence`]
/// forks exactly once, lazily per cache level (a high-voltage-only campaign
/// never generates L1 pairs; a perfect-L2 campaign never generates L2 maps),
/// and hands out shared slices, so campaigns that run several studies over one
/// parameter set (`vccmin-repro all`) reuse one set of maps bit-identically.
#[derive(Debug)]
pub struct FaultMapPool {
    master_seed: u64,
    pfail: f64,
    pair_count: usize,
    pairs: OnceLock<Vec<(FaultMap, FaultMap)>>,
    l2: OnceLock<Vec<FaultMap>>,
}

impl FaultMapPool {
    /// A pool for `params`. Nothing is generated until first use.
    #[must_use]
    pub fn new(params: &SimulationParams) -> Self {
        Self {
            master_seed: params.master_seed,
            pfail: params.pfail,
            pair_count: params.fault_map_pairs,
            pairs: OnceLock::new(),
            l2: OnceLock::new(),
        }
    }

    /// Whether this pool was built from fault-map-equivalent parameters
    /// (same master seed, failure probability and pair count).
    #[must_use]
    pub fn matches(&self, params: &SimulationParams) -> bool {
        self.master_seed == params.master_seed
            && self.pfail == params.pfail
            && self.pair_count == params.fault_map_pairs
    }

    /// The campaign's L1 fault-map pairs (instruction cache, data cache).
    #[must_use]
    pub fn pairs(&self) -> &[(FaultMap, FaultMap)] {
        self.pairs
            .get_or_init(|| generate_fault_map_pairs(self.master_seed, self.pfail, self.pair_count))
    }

    /// The campaign's L2 fault maps, one per pair, if `l2` actually needs them
    /// for any of `schemes`; an empty slice otherwise (nothing is generated in
    /// that case).
    #[must_use]
    pub fn l2_maps_if_needed(&self, l2: L2Protection, schemes: &[SchemeConfig]) -> &[FaultMap] {
        if !l2.needs_fault_maps(schemes) {
            return &[];
        }
        self.l2
            .get_or_init(|| generate_l2_fault_maps(self.master_seed, self.pfail, self.pair_count))
    }
}

/// Whether `scheme` at `voltage` is evaluated once per fault-map pair: the L1
/// scheme or the campaign's L2 protection depends on the sampled faults.
fn map_dependent(params: &SimulationParams, scheme: SchemeConfig, voltage: VoltageMode) -> bool {
    voltage == VoltageMode::Low
        && (scheme.fault_dependent()
            || params.l2.scheme_for(scheme).repair().needs_fault_map())
}

/// Whether `scheme` performs the same on every fault-map pair it can repair:
/// word-disabling's always-halved cache, on *both* the L1s and the L2. Such a
/// cell simulates only its first repairable pair.
fn map_uniform(params: &SimulationParams, scheme: SchemeConfig) -> bool {
    scheme.scheme().repair().performance_uniform_across_maps()
        && params
            .l2
            .scheme_for(scheme)
            .repair()
            .performance_uniform_across_maps()
}

/// The jobs of one campaign cell, planned before anything runs.
struct CellPlan {
    /// The fault-map pairs to simulate, by index; `None` is one fault-free
    /// run.
    pairs: Vec<Option<usize>>,
    /// Pairs counted as whole-cache failures without being simulated.
    skipped: usize,
}

/// Plans one cell of `scheme` at `voltage`: a fault-independent configuration
/// runs once without maps, a map-dependent one once per pair. A
/// [`map_uniform`] cell takes its first repairable pair, and the pairs before
/// it count as whole-cache failures; the check builds no cache array.
fn plan_cell(
    params: &SimulationParams,
    scheme: SchemeConfig,
    voltage: VoltageMode,
    pairs: &[(FaultMap, FaultMap)],
    l2_maps: &[FaultMap],
) -> CellPlan {
    let (planned, skipped) = if !map_dependent(params, scheme, voltage) {
        (vec![None], 0)
    } else if !map_uniform(params, scheme) {
        ((0..pairs.len()).map(Some).collect(), 0)
    } else {
        let cfg = scheme.hierarchy_config_with_l2(voltage, params.l2);
        let first = pairs.iter().enumerate().position(|(i, (map_i, map_d))| {
            CacheHierarchy::repairable(cfg, Some(map_i), Some(map_d), l2_maps.get(i))
        });
        match first {
            Some(i) => (vec![Some(i)], i),
            None => (Vec::new(), pairs.len()),
        }
    };
    CellPlan {
        pairs: planned,
        skipped,
    }
}

/// Splits a cell's job outputs into its runs and its whole-cache failures
/// (`None` outputs).
fn tally<T>(outputs: impl Iterator<Item = Option<T>>) -> (Vec<T>, usize) {
    let mut runs = Vec::new();
    let mut failures = 0;
    for output in outputs {
        match output {
            Some(run) => runs.push(run),
            None => failures += 1,
        }
    }
    (runs, failures)
}

/// Runs planned cells, each named by its `cell` key, as one job map: one job
/// per planned pair, each an independent simulation by `run`. [`map_jobs`]
/// runs them on the calling thread when `serial` and on the rayon pool
/// otherwise, and returns them in job order, so the result is bit-identical
/// either way. Returns every cell with its runs and its whole-cache failures
/// (the planned skips plus every `None` output), in cell order.
fn run_planned<C, T>(
    cells: Vec<(C, CellPlan)>,
    serial: bool,
    run: impl Fn(&C, Option<usize>) -> Option<T> + Sync,
) -> Vec<(C, Vec<T>, usize)>
where
    C: Sync,
    T: Send,
{
    let jobs: Vec<(&C, Option<usize>)> = cells
        .iter()
        .flat_map(|(cell, plan)| plan.pairs.iter().map(move |&pair| (cell, pair)))
        .collect();
    let mut outputs = map_jobs(jobs, serial, |(cell, pair)| run(cell, pair)).into_iter();
    cells
        .into_iter()
        .map(|(cell, plan)| {
            let (runs, failures) = tally(outputs.by_ref().take(plan.pairs.len()));
            (cell, runs, plan.skipped + failures)
        })
        .collect()
}

/// Runs a campaign over every (workload, configuration) cell at `voltage`.
/// The fault maps come from `pool` and the trace seeds from
/// `params.master_seed`.
fn run_campaign(
    params: &SimulationParams,
    pool: &FaultMapPool,
    schemes: &[SchemeConfig],
    voltage: VoltageMode,
    serial: bool,
) -> Vec<BenchmarkResult> {
    assert!(pool.matches(params), "fault-map pool built from different parameters");
    let (pairs, l2_maps): (&[(FaultMap, FaultMap)], &[FaultMap]) = match voltage {
        VoltageMode::Low => (pool.pairs(), pool.l2_maps_if_needed(params.l2, schemes)),
        VoltageMode::High => (&[], &[]),
    };
    let cells = params
        .workloads
        .iter()
        .flat_map(|&workload| schemes.iter().map(move |&scheme| (workload, scheme)))
        .map(|(workload, scheme)| {
            let plan = plan_cell(params, scheme, voltage, pairs, l2_maps);
            ((workload, scheme), plan)
        })
        .collect();
    let mut configs = run_planned(cells, serial, |&(workload, scheme), pair| {
        let cfg = scheme.hierarchy_config_with_l2(voltage, params.l2);
        let hierarchy = match pair {
            Some(i) => {
                let (map_i, map_d) = &pairs[i];
                CacheHierarchy::with_all_fault_maps(cfg, Some(map_i), Some(map_d), l2_maps.get(i))
                    .ok()?
            }
            None => CacheHierarchy::new(cfg),
        };
        Some(simulate(params, workload, hierarchy))
    })
    .into_iter()
    .map(|((_, scheme), runs, whole_cache_failures)| ConfigResult {
        scheme,
        runs,
        whole_cache_failures,
    });
    params
        .workloads
        .iter()
        .map(|&workload| BenchmarkResult {
            workload,
            configs: configs.by_ref().take(schemes.len()).collect(),
        })
        .collect()
}

/// The low-voltage campaign behind Figures 8, 9 and 10.
#[derive(Debug, Clone, PartialEq)]
pub struct LowVoltageStudy {
    /// Per-workload results.
    pub workloads: Vec<BenchmarkResult>,
}

impl LowVoltageStudy {
    /// The configurations this study evaluates.
    pub const SCHEMES: [SchemeConfig; 6] = [
        SchemeConfig::Baseline,
        SchemeConfig::BaselineVictim,
        SchemeConfig::WordDisabling,
        SchemeConfig::BlockDisabling,
        SchemeConfig::BlockDisablingVictim10T,
        SchemeConfig::BlockDisablingVictim6T,
    ];

    /// Runs the campaign with the fault maps of `pool`, one job per planned
    /// workload × configuration × fault-map pair, on the calling thread when
    /// `serial` and on all available cores otherwise; both give bit-identical
    /// results. A pool shared with another study hands out the maps it has
    /// already generated.
    ///
    /// # Panics
    ///
    /// Panics if `pool` was built from another master seed, failure
    /// probability or fault-map pair count than `params`
    /// ([`FaultMapPool::matches`]): its maps would be another campaign's.
    #[must_use]
    pub fn run_with_pool(params: &SimulationParams, pool: &FaultMapPool, serial: bool) -> Self {
        Self {
            workloads: run_campaign(params, pool, &Self::SCHEMES, VoltageMode::Low, serial),
        }
    }

    /// Figure 8: performance normalized to the baseline *without* victim cache —
    /// word-disabling, block-disabling (avg), block-disabling+V$ 10T (avg),
    /// block-disabling (min), block-disabling+V$ 10T (min).
    #[must_use]
    pub fn figure8(&self) -> FigureTable {
        let mut table = FigureTable::new(
            "Figure 8: below Vcc-min, normalized to baseline without victim cache",
            "benchmark",
            vec![
                "word disabling".into(),
                "block disabling avg".into(),
                "block disabling avg+V$ 10T".into(),
                "block disabling min".into(),
                "block disabling min+V$ 10T".into(),
            ],
        );
        for b in &self.workloads {
            let base = SchemeConfig::Baseline;
            table.push_row(
                b.workload.name(),
                vec![
                    b.normalized_mean(SchemeConfig::WordDisabling, base),
                    b.normalized_mean(SchemeConfig::BlockDisabling, base),
                    b.normalized_mean(SchemeConfig::BlockDisablingVictim10T, base),
                    b.normalized_min(SchemeConfig::BlockDisabling, base),
                    b.normalized_min(SchemeConfig::BlockDisablingVictim10T, base),
                ],
            );
        }
        table
    }

    /// Figure 9: every configuration (including the baseline) has a 10T victim
    /// cache; normalized to that baseline.
    #[must_use]
    pub fn figure9(&self) -> FigureTable {
        let mut table = FigureTable::new(
            "Figure 9: below Vcc-min, normalized to baseline with 10T victim cache",
            "benchmark",
            vec![
                "word disabling".into(),
                "block disabling avg".into(),
                "block disabling min".into(),
            ],
        );
        for b in &self.workloads {
            let base = SchemeConfig::BaselineVictim;
            table.push_row(
                b.workload.name(),
                vec![
                    b.normalized_mean(SchemeConfig::WordDisabling, base),
                    b.normalized_mean(SchemeConfig::BlockDisablingVictim10T, base),
                    b.normalized_min(SchemeConfig::BlockDisablingVictim10T, base),
                ],
            );
        }
        table
    }

    /// Figure 10: 10T versus 6T victim cells for the block-disabled cache,
    /// normalized to the baseline without victim cache.
    #[must_use]
    pub fn figure10(&self) -> FigureTable {
        let mut table = FigureTable::new(
            "Figure 10: 16-entry victim cache, 10T vs 6T cells (below Vcc-min)",
            "benchmark",
            vec![
                "word disabling".into(),
                "block disabling avg+V$ 10T".into(),
                "block disabling avg+V$ 6T".into(),
                "block disabling min+V$ 10T".into(),
                "block disabling min+V$ 6T".into(),
            ],
        );
        for b in &self.workloads {
            let base = SchemeConfig::Baseline;
            table.push_row(
                b.workload.name(),
                vec![
                    b.normalized_mean(SchemeConfig::WordDisabling, base),
                    b.normalized_mean(SchemeConfig::BlockDisablingVictim10T, base),
                    b.normalized_mean(SchemeConfig::BlockDisablingVictim6T, base),
                    b.normalized_min(SchemeConfig::BlockDisablingVictim10T, base),
                    b.normalized_min(SchemeConfig::BlockDisablingVictim6T, base),
                ],
            );
        }
        table
    }

    /// Average (over workloads) of the mean performance of `scheme` normalized to
    /// `baseline` — the numbers quoted in the paper's abstract and Section VI.A.
    #[must_use]
    pub fn average_normalized(&self, scheme: SchemeConfig, baseline: SchemeConfig) -> f64 {
        if self.workloads.is_empty() {
            return 0.0;
        }
        self.workloads
            .iter()
            .map(|b| b.normalized_mean(scheme, baseline))
            .sum::<f64>()
            / self.workloads.len() as f64
    }
}

/// The high-voltage campaign behind Figures 11 and 12.
#[derive(Debug, Clone, PartialEq)]
pub struct HighVoltageStudy {
    /// Per-workload results.
    pub workloads: Vec<BenchmarkResult>,
}

impl HighVoltageStudy {
    /// The configurations this study evaluates.
    pub const SCHEMES: [SchemeConfig; 6] = [
        SchemeConfig::Baseline,
        SchemeConfig::BaselineVictim,
        SchemeConfig::WordDisabling,
        SchemeConfig::WordDisablingVictim,
        SchemeConfig::BlockDisabling,
        SchemeConfig::BlockDisablingVictim10T,
    ];

    /// Runs the campaign, one job per workload × configuration cell, on the
    /// calling thread when `serial` and on all available cores otherwise. The
    /// high-voltage campaign needs no fault maps, so `pool` is only checked,
    /// never populated; the signature is every study's, so a multi-study
    /// session threads one pool through all of them.
    ///
    /// # Panics
    ///
    /// Panics if `pool` was built from another master seed, failure
    /// probability or fault-map pair count than `params`
    /// ([`FaultMapPool::matches`]): its maps would be another campaign's.
    #[must_use]
    pub fn run_with_pool(params: &SimulationParams, pool: &FaultMapPool, serial: bool) -> Self {
        Self {
            workloads: run_campaign(params, pool, &Self::SCHEMES, VoltageMode::High, serial),
        }
    }

    /// Figure 11: high-voltage performance normalized to the baseline without victim
    /// cache.
    #[must_use]
    pub fn figure11(&self) -> FigureTable {
        let mut table = FigureTable::new(
            "Figure 11: high voltage, normalized to baseline without victim cache",
            "benchmark",
            vec![
                "word disabling".into(),
                "block disabling".into(),
                "block disabling+V$ 10T".into(),
            ],
        );
        for b in &self.workloads {
            let base = SchemeConfig::Baseline;
            table.push_row(
                b.workload.name(),
                vec![
                    b.normalized_mean(SchemeConfig::WordDisabling, base),
                    b.normalized_mean(SchemeConfig::BlockDisabling, base),
                    b.normalized_mean(SchemeConfig::BlockDisablingVictim10T, base),
                ],
            );
        }
        table
    }

    /// Figure 12: word vs block disabling when both (and the baseline) have victim
    /// caches, at high voltage.
    #[must_use]
    pub fn figure12(&self) -> FigureTable {
        let mut table = FigureTable::new(
            "Figure 12: high voltage, all configurations with victim caches",
            "benchmark",
            vec!["word disabling".into(), "block disabling".into()],
        );
        for b in &self.workloads {
            let base = SchemeConfig::BaselineVictim;
            table.push_row(
                b.workload.name(),
                vec![
                    b.normalized_mean(SchemeConfig::WordDisablingVictim, base),
                    b.normalized_mean(SchemeConfig::BlockDisablingVictim10T, base),
                ],
            );
        }
        table
    }
}

/// A low-voltage campaign over the repair-scheme matrix: every base scheme
/// (no victim caches) against the fault-free baseline. This is the study behind
/// `vccmin-repro schemes` / `--scheme`, and the natural home for schemes that
/// are not part of the paper's original figures.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeMatrixStudy {
    /// Per-workload results.
    pub workloads: Vec<BenchmarkResult>,
    /// The configurations that were evaluated (baseline first).
    schemes: Vec<SchemeConfig>,
}

impl SchemeMatrixStudy {
    /// The full matrix: one victim-cache-less configuration per scheme in the
    /// repair registry, in registry order — a scheme added to the registry
    /// joins this study (and its figure table) automatically.
    #[must_use]
    pub fn matrix_schemes() -> [SchemeConfig; DisablingScheme::ALL.len()] {
        DisablingScheme::ALL.map(SchemeConfig::for_scheme)
    }

    /// Runs the full scheme matrix with the fault maps of `pool`, on the
    /// calling thread when `serial` and on all available cores otherwise;
    /// both give bit-identical results.
    ///
    /// # Panics
    ///
    /// Panics if `pool` was built from another master seed, failure
    /// probability or fault-map pair count than `params`
    /// ([`FaultMapPool::matches`]): its maps would be another campaign's.
    #[must_use]
    pub fn run_with_pool(params: &SimulationParams, pool: &FaultMapPool, serial: bool) -> Self {
        let schemes = Self::matrix_schemes();
        Self {
            workloads: run_campaign(params, pool, &schemes, VoltageMode::Low, serial),
            schemes: schemes.to_vec(),
        }
    }

    /// Runs a single scheme (plus the baseline it is normalized to) like
    /// [`SchemeMatrixStudy::run_with_pool`].
    ///
    /// # Panics
    ///
    /// Panics if `pool` was built from another master seed, failure
    /// probability or fault-map pair count than `params`
    /// ([`FaultMapPool::matches`]): its maps would be another campaign's.
    #[must_use]
    pub fn run_single_with_pool(
        params: &SimulationParams,
        pool: &FaultMapPool,
        scheme: SchemeConfig,
        serial: bool,
    ) -> Self {
        let mut schemes = vec![SchemeConfig::Baseline];
        if scheme != SchemeConfig::Baseline {
            schemes.push(scheme);
        }
        let workloads = run_campaign(params, pool, &schemes, VoltageMode::Low, serial);
        Self { workloads, schemes }
    }

    /// The configurations this study evaluated, baseline first.
    #[must_use]
    pub fn schemes(&self) -> &[SchemeConfig] {
        &self.schemes
    }

    /// The scheme-matrix table: per workload, the mean and worst-fault-map
    /// performance of every evaluated scheme, normalized to the fault-free
    /// baseline.
    #[must_use]
    pub fn table(&self) -> FigureTable {
        let mut columns: Vec<SchemeConfig> = self
            .schemes
            .iter()
            .copied()
            .filter(|&s| s != SchemeConfig::Baseline)
            .collect();
        if columns.is_empty() {
            // A baseline-only run still gets a (trivially 1.0) column rather
            // than a degenerate zero-column table.
            columns.push(SchemeConfig::Baseline);
        }
        let mut labels = Vec::new();
        for &scheme in &columns {
            labels.push(format!("{} avg", scheme.label()));
            labels.push(format!("{} min", scheme.label()));
        }
        let mut table = FigureTable::new(
            "Scheme matrix: below Vcc-min, normalized to the fault-free baseline",
            "benchmark",
            labels,
        );
        for b in &self.workloads {
            let mut values = Vec::new();
            for &scheme in &columns {
                values.push(b.normalized_mean(scheme, SchemeConfig::Baseline));
                values.push(b.normalized_min(scheme, SchemeConfig::Baseline));
            }
            table.push_row(b.workload.name(), values);
        }
        table
    }
}

/// One CPU backend's scheme matrix within a [`CoreMatrixStudy`].
#[derive(Debug, Clone, PartialEq)]
pub struct CoreMatrixEntry {
    /// The CPU backend this matrix was simulated on.
    pub core: CoreModel,
    /// The full scheme matrix on that backend.
    pub study: SchemeMatrixStudy,
}

/// The headline cross-backend study: the paper's repair-scheme matrix re-run
/// on every [`CoreModel`], each normalized to *that backend's* fault-free
/// baseline. The out-of-order columns reproduce the paper's numbers; the
/// in-order columns show each scheme's latency/capacity penalty with no
/// memory-level parallelism left to hide it.
///
/// Both backends replay identical instruction streams (the trace seed does
/// not depend on the core) against identical fault maps (shared
/// [`FaultMapPool`]), so any per-column difference is purely the core model.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreMatrixStudy {
    /// One scheme matrix per backend, in [`CoreModel::ALL`] order.
    pub cores: Vec<CoreMatrixEntry>,
}

impl CoreMatrixStudy {
    /// Runs the matrix on every backend with the fault maps of `pool`, on the
    /// calling thread when `serial` and on all available cores otherwise.
    /// `params.core` is ignored — the study sweeps the core axis itself, in
    /// [`CoreModel::ALL`] order, and both backends share the pool's maps.
    ///
    /// # Panics
    ///
    /// Panics if `pool` was built from another master seed, failure
    /// probability or fault-map pair count than `params`
    /// ([`FaultMapPool::matches`]): its maps would be another campaign's.
    #[must_use]
    pub fn run_with_pool(params: &SimulationParams, pool: &FaultMapPool, serial: bool) -> Self {
        let cores = CoreModel::ALL
            .iter()
            .map(|&core| {
                let core_params = SimulationParams {
                    core,
                    ..params.clone()
                };
                CoreMatrixEntry {
                    core,
                    study: SchemeMatrixStudy::run_with_pool(&core_params, pool, serial),
                }
            })
            .collect();
        Self { cores }
    }

    /// The evaluated (non-baseline) scheme columns of one entry's matrix.
    fn scheme_columns(entry: &CoreMatrixEntry) -> Vec<SchemeConfig> {
        entry
            .study
            .schemes()
            .iter()
            .copied()
            .filter(|&s| s != SchemeConfig::Baseline)
            .collect()
    }

    /// The core-matrix table: per workload, every backend's per-scheme mean
    /// and worst-fault-map performance, normalized to the same backend's
    /// fault-free baseline. Column labels are prefixed with the core name
    /// (`"ooo: bit-fix avg"`, `"in-order: bit-fix avg"`, ...).
    #[must_use]
    pub fn table(&self) -> FigureTable {
        let mut labels = Vec::new();
        for entry in &self.cores {
            for scheme in Self::scheme_columns(entry) {
                labels.push(format!("{}: {} avg", entry.core, scheme.label()));
                labels.push(format!("{}: {} min", entry.core, scheme.label()));
            }
        }
        let mut table = FigureTable::new(
            "Core matrix: below Vcc-min, per CPU backend, normalized to that backend's fault-free baseline",
            "benchmark",
            labels,
        );
        let Some(first) = self.cores.first() else {
            return table;
        };
        for (row, reference) in first.study.workloads.iter().enumerate() {
            let mut values = Vec::new();
            for entry in &self.cores {
                let b = &entry.study.workloads[row];
                debug_assert_eq!(b.workload, reference.workload, "entries share workload order");
                for scheme in Self::scheme_columns(entry) {
                    values.push(b.normalized_mean(scheme, SchemeConfig::Baseline));
                    values.push(b.normalized_min(scheme, SchemeConfig::Baseline));
                }
            }
            table.push_row(reference.workload.name(), values);
        }
        table
    }

    /// Average (over workloads) of how much of `scheme`'s normalized-mean
    /// performance loss the out-of-order core's MLP was hiding: the in-order
    /// loss minus the out-of-order loss. Positive means the scheme looks
    /// cheaper on the paper's core than it is on a core that cannot overlap
    /// misses. Returns `None` unless both backends evaluated the scheme.
    #[must_use]
    pub fn mlp_hidden_loss(&self, scheme: SchemeConfig) -> Option<f64> {
        let per_core: Vec<f64> = self
            .cores
            .iter()
            .map(|entry| {
                let study = &entry.study;
                if study.workloads.is_empty() || !study.schemes().contains(&scheme) {
                    return None;
                }
                let mean = study
                    .workloads
                    .iter()
                    .map(|b| b.normalized_mean(scheme, SchemeConfig::Baseline))
                    .sum::<f64>()
                    / study.workloads.len() as f64;
                Some(1.0 - mean)
            })
            .collect::<Option<Vec<f64>>>()?;
        match per_core.as_slice() {
            [ooo_loss, inorder_loss, ..] => Some(inorder_loss - ooo_loss),
            _ => None,
        }
    }
}

/// Labels of the governor policies, in study order. The first policy (pinned
/// nominal) is the normalization reference of the figure table.
pub const GOVERNOR_POLICY_LABELS: [&str; 4] = ["nominal", "low", "interval", "reactive"];

/// Results of one governor policy on one workload: one governed run per
/// evaluated fault-map pair (a single entry for policies that never leave the
/// nominal mode).
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorPolicyResult {
    /// The policy that was simulated.
    pub policy: GovernorPolicy,
    /// One governed run per evaluated fault-map pair.
    pub runs: Vec<GovernedRun>,
    /// Fault-map pairs skipped because the repair scheme could not repair them
    /// below Vcc-min (whole-cache failure).
    pub whole_cache_failures: usize,
}

impl GovernorPolicyResult {
    /// Mean normalized metrics over the evaluated fault maps, or `None` when
    /// no fault map could be evaluated — the explicit empty case, so no NaN
    /// ever reaches a figure table.
    #[must_use]
    pub fn mean_metrics(&self, model: &VoltageScalingModel) -> Option<GovernorMetrics> {
        if self.runs.is_empty() {
            return None;
        }
        let n = self.runs.len() as f64;
        let mut acc = GovernorMetrics {
            time: 0.0,
            energy: 0.0,
            edp: 0.0,
            low_residency: 0.0,
        };
        for run in &self.runs {
            let m = run.metrics(model);
            acc.time += m.time;
            acc.energy += m.energy;
            acc.edp += m.edp;
            acc.low_residency += m.low_residency;
        }
        Some(GovernorMetrics {
            time: acc.time / n,
            energy: acc.energy / n,
            edp: acc.edp / n,
            low_residency: acc.low_residency / n,
        })
    }

    /// Mean number of mode transitions over the evaluated fault maps.
    #[must_use]
    pub fn mean_transitions(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().map(|r| r.transitions as f64).sum::<f64>() / self.runs.len() as f64
    }
}

/// All governor-policy results for one workload, in
/// [`GovernorStudy::policies`] order (reference policy first).
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorBenchmarkResult {
    /// The workload.
    pub workload: Workload,
    /// One result per policy.
    pub policies: Vec<GovernorPolicyResult>,
}

/// The voltage-mode governor campaign: every workload executed under a set of
/// runtime mode-switching policies (pinned nominal, pinned low, fixed
/// interval, phase-reactive) on phase-annotated traces, with modeled pipeline
/// drain + cache-reconfiguration transition costs, reported as performance,
/// energy and EDP relative to the pinned-nominal reference.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorStudy {
    /// Per-workload results.
    pub workloads: Vec<GovernorBenchmarkResult>,
}

impl GovernorStudy {
    /// The cache configuration the governor runs on: block-disabling, the
    /// paper's scheme, whose low-voltage behavior is fault-map dependent.
    pub const SCHEME: SchemeConfig = SchemeConfig::BlockDisabling;

    /// The governor's decision epoch (and interval-policy segment length) for
    /// a campaign: an eighth of the run, floored so smoke-scale runs still
    /// transition.
    #[must_use]
    pub fn quantum(params: &SimulationParams) -> u64 {
        (params.instructions / 8).max(512)
    }

    /// The workload-phase schedule of a campaign: a compute/memory square wave
    /// aligned to the governor quantum (three compute quanta, two memory
    /// quanta), so the reactive policy can act exactly at phase boundaries.
    #[must_use]
    pub fn phase_schedule(params: &SimulationParams) -> PhaseSchedule {
        let q = Self::quantum(params);
        PhaseSchedule::alternating(3 * q, 2 * q)
    }

    /// The policies this study evaluates, in [`GOVERNOR_POLICY_LABELS`] order
    /// with the pinned-nominal reference first.
    #[must_use]
    pub fn policies(params: &SimulationParams) -> [GovernorPolicy; 4] {
        let q = Self::quantum(params);
        [
            GovernorPolicy::pinned(VoltageMode::High),
            GovernorPolicy::pinned(VoltageMode::Low),
            GovernorPolicy::Interval { nominal: q, low: q },
            GovernorPolicy::Reactive { quantum: q },
        ]
    }

    /// The scaling model used for the study's time/energy accounting: the
    /// Table III operating points (3 GHz nominal, 600 MHz below Vcc-min),
    /// consistent with the simulator's per-mode memory latencies.
    #[must_use]
    pub fn scaling_model() -> VoltageScalingModel {
        VoltageScalingModel::ispass2010_operating_points()
    }

    /// Runs one governed job: one (workload, policy, fault-map pair).
    fn run_job(
        params: &SimulationParams,
        phases: &PhaseSchedule,
        workload: Workload,
        policy: &GovernorPolicy,
        maps: Option<&(FaultMap, FaultMap)>,
        l2_map: Option<&FaultMap>,
    ) -> Option<GovernedRun> {
        run_governed(&GovernedRunSpec {
            workload,
            core: params.core,
            scheme: Self::SCHEME,
            l2_scheme: params.l2.scheme_for(Self::SCHEME),
            policy,
            maps,
            l2_map,
            trace_seed: params.trace_seed(workload),
            instructions: params.instructions,
            phases: Some(phases),
            cost: TransitionCostModel::Modeled,
        })
    }

    /// Runs the campaign with the fault maps of `pool`, one job per
    /// workload × policy × fault-map pair, on the calling thread when
    /// `serial` and on all available cores otherwise; both give
    /// bit-identical results.
    ///
    /// # Panics
    ///
    /// Panics if `pool` was built from another master seed, failure
    /// probability or fault-map pair count than `params`
    /// ([`FaultMapPool::matches`]): its maps would be another campaign's.
    #[must_use]
    pub fn run_with_pool(params: &SimulationParams, pool: &FaultMapPool, serial: bool) -> Self {
        assert!(pool.matches(params), "fault-map pool built from different parameters");
        let pairs = pool.pairs();
        let l2_maps = pool.l2_maps_if_needed(params.l2, &[Self::SCHEME]);
        let phases = Self::phase_schedule(params);
        let policies = Self::policies(params);
        // A policy that can select low voltage is planned as a low-voltage
        // cell of the study's scheme, which runs once per pair; any other as a
        // high-voltage cell, which runs once without maps.
        let cells = params
            .workloads
            .iter()
            .flat_map(|&workload| policies.iter().map(move |policy| (workload, policy)))
            .map(|(workload, policy)| {
                let voltage = if policy.uses_low_voltage() {
                    VoltageMode::Low
                } else {
                    VoltageMode::High
                };
                let plan = plan_cell(params, Self::SCHEME, voltage, pairs, l2_maps);
                ((workload, policy), plan)
            })
            .collect();
        let mut results = run_planned(cells, serial, |&(workload, policy), pair| {
            Self::run_job(
                params,
                &phases,
                workload,
                policy,
                pair.map(|i| &pairs[i]),
                pair.and_then(|i| l2_maps.get(i)),
            )
        })
        .into_iter()
        .map(|((_, policy), runs, whole_cache_failures)| GovernorPolicyResult {
            policy: policy.clone(),
            runs,
            whole_cache_failures,
        });
        let workloads = params
            .workloads
            .iter()
            .map(|&workload| GovernorBenchmarkResult {
                workload,
                policies: results.by_ref().take(policies.len()).collect(),
            })
            .collect();
        Self { workloads }
    }

    /// The governor figure table: per workload, each non-reference policy's
    /// relative performance (reference time / policy time), relative energy
    /// and relative EDP against the pinned-nominal reference. Cells whose
    /// reference or policy could not be evaluated report 0 — never NaN.
    #[must_use]
    pub fn table(&self) -> FigureTable {
        let model = Self::scaling_model();
        let mut labels = Vec::new();
        for label in &GOVERNOR_POLICY_LABELS[1..] {
            labels.push(format!("{label} perf"));
            labels.push(format!("{label} energy"));
            labels.push(format!("{label} EDP"));
        }
        let mut table = FigureTable::new(
            "Governor study: runtime voltage-mode switching vs pinned nominal (block disabling)",
            "benchmark",
            labels,
        );
        for b in &self.workloads {
            let reference = b.policies.first().and_then(|p| p.mean_metrics(&model));
            let mut values = Vec::new();
            for policy in &b.policies[1..] {
                let metrics = policy.mean_metrics(&model);
                match (reference, metrics) {
                    (Some(r), Some(m)) if m.time > 0.0 && r.energy > 0.0 && r.edp > 0.0 => {
                        values.push(r.time / m.time);
                        values.push(m.energy / r.energy);
                        values.push(m.edp / r.edp);
                    }
                    _ => values.extend([0.0, 0.0, 0.0]),
                }
            }
            table.push_row(b.workload.name(), values);
        }
        table
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_result_statistics() {
        let make = |ipc_cycles: &[(u64, u64)]| ConfigResult {
            scheme: SchemeConfig::BlockDisabling,
            runs: ipc_cycles
                .iter()
                .map(|&(instructions, cycles)| SimResult {
                    instructions,
                    cycles,
                    loads: 0,
                    stores: 0,
                    conditional_branches: 0,
                    branch_mispredictions: 0,
                    hierarchy: Default::default(),
                })
                .collect(),
            whole_cache_failures: 0,
        };
        let r = make(&[(100, 100), (100, 200)]);
        assert!((r.mean_ipc() - 0.75).abs() < 1e-12);
        assert!((r.min_ipc() - 0.5).abs() < 1e-12);
        assert_eq!(make(&[]).mean_ipc(), 0.0);
    }

    #[test]
    fn empty_config_results_yield_zero_statistics_not_nan() {
        let empty = ConfigResult {
            scheme: SchemeConfig::WordDisabling,
            runs: Vec::new(),
            whole_cache_failures: 3,
        };
        assert_eq!(empty.mean_ipc(), 0.0);
        assert_eq!(empty.min_ipc(), 0.0);
        assert!(empty.mean_ipc().is_finite() && empty.min_ipc().is_finite());
    }

    #[test]
    fn normalization_against_empty_or_missing_configs_is_zero_not_nan() {
        let run = SimResult {
            instructions: 100,
            cycles: 100,
            loads: 0,
            stores: 0,
            conditional_branches: 0,
            branch_mispredictions: 0,
            hierarchy: Default::default(),
        };
        let b = BenchmarkResult {
            workload: Benchmark::Gzip.into(),
            configs: vec![
                ConfigResult {
                    scheme: SchemeConfig::Baseline,
                    runs: Vec::new(), // every fault map failed
                    whole_cache_failures: 5,
                },
                ConfigResult {
                    scheme: SchemeConfig::BlockDisabling,
                    runs: vec![run],
                    whole_cache_failures: 0,
                },
            ],
        };
        // Empty baseline: the ratio is defined as 0, not NaN/inf.
        for v in [
            b.normalized_mean(SchemeConfig::BlockDisabling, SchemeConfig::Baseline),
            b.normalized_min(SchemeConfig::BlockDisabling, SchemeConfig::Baseline),
            // Empty numerator over a usable baseline.
            b.normalized_mean(SchemeConfig::Baseline, SchemeConfig::BlockDisabling),
            b.normalized_min(SchemeConfig::Baseline, SchemeConfig::BlockDisabling),
            // Configurations that were never simulated at all.
            b.normalized_mean(SchemeConfig::BitFix, SchemeConfig::BlockDisabling),
            b.normalized_min(SchemeConfig::BlockDisabling, SchemeConfig::BitFix),
        ] {
            assert_eq!(v, 0.0, "degenerate normalization must be exactly 0");
        }
        // A study with no workloads averages to 0 as well.
        let study = LowVoltageStudy { workloads: Vec::new() };
        assert_eq!(
            study.average_normalized(SchemeConfig::BlockDisabling, SchemeConfig::Baseline),
            0.0
        );
    }

    #[test]
    fn governor_study_parallel_is_bit_identical_to_serial() {
        let mut params = SimulationParams::smoke();
        params.workloads = vec![Benchmark::Gzip.into(), Benchmark::Mcf.into()];
        params.instructions = 5_000;
        let pool = FaultMapPool::new(&params);
        let serial = GovernorStudy::run_with_pool(&params, &pool, true);
        let parallel = GovernorStudy::run_with_pool(&params, &pool, false);
        assert_eq!(serial, parallel);
        assert_eq!(serial.table(), parallel.table());
    }

    #[test]
    fn governor_study_produces_sane_relative_metrics() {
        let mut params = SimulationParams::smoke();
        params.workloads = vec![Benchmark::Crafty.into()];
        params.instructions = 8_000;
        let study = GovernorStudy::run_with_pool(&params, &FaultMapPool::new(&params), true);
        let table = study.table();
        assert_eq!(table.rows.len(), 1);
        assert_eq!(table.series_labels.len(), 9);
        let b = &study.workloads[0];
        assert_eq!(b.policies.len(), 4);
        // The nominal reference never leaves high voltage.
        assert_eq!(b.policies[0].runs.len(), 1);
        assert_eq!(b.policies[0].mean_transitions(), 0.0);
        // Low-using policies run once per fault-map pair.
        for policy in &b.policies[1..] {
            assert_eq!(
                policy.runs.len() + policy.whole_cache_failures,
                params.fault_map_pairs
            );
        }
        // The interval policy transitions; pinned-low does not.
        assert_eq!(b.policies[1].mean_transitions(), 0.0);
        assert!(b.policies[2].mean_transitions() >= 1.0);
        let model = GovernorStudy::scaling_model();
        let nominal = b.policies[0].mean_metrics(&model).unwrap();
        let low = b.policies[1].mean_metrics(&model).unwrap();
        // Pinned-low runs slower but burns far less energy.
        assert!(low.time > nominal.time);
        assert!(low.energy < nominal.energy);
        assert_eq!(low.low_residency, 1.0);
        assert_eq!(nominal.low_residency, 0.0);
        for v in &table.rows[0].1 {
            let v = v.unwrap();
            assert!(v.is_finite() && v >= 0.0);
        }
    }

    #[test]
    fn governor_policy_result_with_no_runs_reports_none_metrics() {
        let empty = GovernorPolicyResult {
            policy: GovernorPolicy::pinned(VoltageMode::Low),
            runs: Vec::new(),
            whole_cache_failures: 2,
        };
        assert!(empty.mean_metrics(&GovernorStudy::scaling_model()).is_none());
        assert_eq!(empty.mean_transitions(), 0.0);
    }

    #[test]
    fn fault_map_pairs_are_deterministic_and_distinct() {
        let params = SimulationParams::smoke();
        let pairs = || {
            generate_fault_map_pairs(params.master_seed, params.pfail, params.fault_map_pairs)
        };
        let a = pairs();
        let b = pairs();
        assert_eq!(a.len(), params.fault_map_pairs);
        assert_eq!(a, b);
        assert_ne!(a[0].0, a[0].1, "instruction and data maps differ");
        assert_ne!(a[0].0, a[1].0, "pairs are independent");
    }

    #[test]
    fn fault_map_pool_matches_the_derived_maps() {
        let mut params = SimulationParams::smoke();
        params.l2 = L2Protection::Matched;
        let pool = FaultMapPool::new(&params);
        assert!(pool.matches(&params));
        let (seed, pfail, count) = (params.master_seed, params.pfail, params.fault_map_pairs);
        assert_eq!(pool.pairs(), generate_fault_map_pairs(seed, pfail, count));
        assert_eq!(
            pool.l2_maps_if_needed(L2Protection::Matched, &[SchemeConfig::BlockDisabling]),
            generate_l2_fault_maps(seed, pfail, count)
        );
        // A perfect L2 needs no maps and must not generate any.
        assert!(pool
            .l2_maps_if_needed(L2Protection::Perfect, &[SchemeConfig::BlockDisabling])
            .is_empty());
        let mut other = params.clone();
        other.master_seed ^= 1;
        assert!(!pool.matches(&other));
    }

    // A mismatched pool must be refused in release builds too: it would
    // otherwise simulate another campaign's fault maps without a word.

    #[test]
    #[should_panic(expected = "fault-map pool built from different parameters")]
    fn a_pool_from_another_seed_is_refused() {
        let params = SimulationParams::smoke();
        let mut other = params.clone();
        other.master_seed ^= 1;
        let _ = SchemeMatrixStudy::run_with_pool(&params, &FaultMapPool::new(&other), true);
    }

    #[test]
    #[should_panic(expected = "fault-map pool built from different parameters")]
    fn a_pool_with_another_pair_count_is_refused() {
        let params = SimulationParams::smoke();
        let mut other = params.clone();
        other.fault_map_pairs += 1;
        let pool = FaultMapPool::new(&other);
        let _ = SchemeMatrixStudy::run_single_with_pool(
            &params,
            &pool,
            SchemeConfig::BlockDisabling,
            true,
        );
    }

    #[test]
    #[should_panic(expected = "fault-map pool built from different parameters")]
    fn a_governor_pool_with_another_pfail_is_refused() {
        let params = SimulationParams::smoke();
        let mut other = params.clone();
        other.pfail *= 2.0;
        let _ = GovernorStudy::run_with_pool(&params, &FaultMapPool::new(&other), true);
    }

    #[test]
    fn pooled_studies_match_their_unpooled_reference() {
        let mut params = SimulationParams::smoke();
        params.workloads = vec![Benchmark::Gzip.into()];
        params.instructions = 4_000;
        // One pool shared across every study of the session, exactly like the
        // CLI's `all` target, against a fresh pool per study.
        let pool = FaultMapPool::new(&params);
        let fresh = || FaultMapPool::new(&params);
        let low = LowVoltageStudy::run_with_pool(&params, &pool, false);
        assert_eq!(low, LowVoltageStudy::run_with_pool(&params, &fresh(), true));
        let high = HighVoltageStudy::run_with_pool(&params, &pool, false);
        assert_eq!(high, HighVoltageStudy::run_with_pool(&params, &fresh(), true));
        let gov = GovernorStudy::run_with_pool(&params, &pool, false);
        assert_eq!(gov, GovernorStudy::run_with_pool(&params, &fresh(), true));
        let word = SchemeConfig::WordDisabling;
        let single = SchemeMatrixStudy::run_single_with_pool(&params, &pool, word, false);
        assert_eq!(
            single,
            SchemeMatrixStudy::run_single_with_pool(&params, &fresh(), word, false)
        );
    }

    #[test]
    fn trace_seeds_differ_per_benchmark_but_not_per_call() {
        let params = SimulationParams::smoke();
        assert_eq!(
            params.trace_seed(Benchmark::Crafty.into()),
            params.trace_seed(Benchmark::Crafty.into())
        );
        assert_ne!(
            params.trace_seed(Benchmark::Crafty.into()),
            params.trace_seed(Benchmark::Mcf.into())
        );
    }

    #[test]
    fn parallel_low_voltage_campaign_is_bit_identical_to_serial() {
        let mut params = SimulationParams::smoke();
        params.workloads = vec![Benchmark::Crafty.into(), Benchmark::Gzip.into()];
        params.instructions = 5_000;
        let pool = FaultMapPool::new(&params);
        let serial = LowVoltageStudy::run_with_pool(&params, &pool, true);
        let parallel = LowVoltageStudy::run_with_pool(&params, &pool, false);
        assert_eq!(serial, parallel);
        assert_eq!(serial.figure8(), parallel.figure8());
    }

    #[test]
    fn parallel_high_voltage_campaign_is_bit_identical_to_serial() {
        let mut params = SimulationParams::smoke();
        params.workloads = vec![Benchmark::Mcf.into()];
        params.instructions = 5_000;
        let pool = FaultMapPool::new(&params);
        let serial = HighVoltageStudy::run_with_pool(&params, &pool, true);
        let parallel = HighVoltageStudy::run_with_pool(&params, &pool, false);
        assert_eq!(serial, parallel);
        assert_eq!(serial.figure11(), parallel.figure11());
    }

    #[test]
    fn parallel_campaign_matches_serial_when_fault_maps_are_unusable() {
        // At a very high pfail some fault-map pairs cannot be repaired, so the
        // whole-cache-failure accounting and word-disabling's first-usable-pair
        // early exit both come into play.
        let mut params = SimulationParams::smoke();
        params.workloads = vec![Benchmark::Swim.into()];
        params.instructions = 3_000;
        params.pfail = 0.08;
        params.fault_map_pairs = 4;
        let pool = FaultMapPool::new(&params);
        let serial = LowVoltageStudy::run_with_pool(&params, &pool, true);
        let parallel = LowVoltageStudy::run_with_pool(&params, &pool, false);
        assert_eq!(serial, parallel);
        let failures: usize = serial
            .workloads
            .iter()
            .flat_map(|b| b.configs.iter())
            .map(|c| c.whole_cache_failures)
            .sum();
        assert!(
            failures > 0,
            "expected at least one whole-cache failure at pfail = {}",
            params.pfail
        );
    }

    #[test]
    fn scheme_matrix_parallel_is_bit_identical_to_serial() {
        let mut params = SimulationParams::smoke();
        params.workloads = vec![Benchmark::Gzip.into()];
        params.instructions = 5_000;
        let pool = FaultMapPool::new(&params);
        let serial = SchemeMatrixStudy::run_with_pool(&params, &pool, true);
        let parallel = SchemeMatrixStudy::run_with_pool(&params, &pool, false);
        assert_eq!(serial, parallel);
        let table = serial.table();
        assert_eq!(table.rows.len(), 1);
        // Four non-baseline schemes, two columns (avg, min) each.
        assert_eq!(table.series_labels.len(), 8);
        for v in &table.rows[0].1 {
            let v = v.unwrap();
            assert!((0.1..=1.2).contains(&v), "normalized value {v} out of range");
        }
    }

    #[test]
    fn core_matrix_study_sweeps_both_backends_and_parallel_matches_serial() {
        let mut params = SimulationParams::smoke();
        params.workloads = vec![Benchmark::Gzip.into()];
        params.instructions = 3_000;
        let pool = FaultMapPool::new(&params);
        let serial = CoreMatrixStudy::run_with_pool(&params, &pool, true);
        let parallel = CoreMatrixStudy::run_with_pool(&params, &pool, false);
        assert_eq!(serial, parallel);
        assert_eq!(serial.cores.len(), CoreModel::ALL.len());
        assert_eq!(serial.cores[0].core, CoreModel::OutOfOrder);
        assert_eq!(serial.cores[1].core, CoreModel::InOrder);
        // The out-of-order entry is exactly the plain scheme matrix (the
        // params' default core), so the new axis cannot drift from the
        // pre-existing study.
        assert_eq!(
            serial.cores[0].study,
            SchemeMatrixStudy::run_with_pool(&params, &pool, true)
        );
        let table = serial.table();
        assert_eq!(table.rows.len(), 1);
        // Two backends x four non-baseline schemes x (avg, min).
        assert_eq!(table.series_labels.len(), 16);
        assert!(table.series_labels[0].starts_with("ooo: "));
        assert!(table.series_labels[8].starts_with("in-order: "));
        for v in &table.rows[0].1 {
            let v = v.unwrap();
            assert!(v.is_finite() && v > 0.0, "normalized value {v} out of range");
        }
        let hidden = serial.mlp_hidden_loss(SchemeConfig::BitFix).unwrap();
        assert!(hidden.is_finite());
        assert!(serial.mlp_hidden_loss(SchemeConfig::BlockDisablingVictim10T).is_none());
    }

    #[test]
    fn in_order_campaign_params_change_results_but_not_structure() {
        let mut params = SimulationParams::smoke();
        params.workloads = vec![Benchmark::Crafty.into()];
        params.instructions = 3_000;
        let pool = FaultMapPool::new(&params);
        let ooo = SchemeMatrixStudy::run_with_pool(&params, &pool, true);
        params.core = CoreModel::InOrder;
        let inorder = SchemeMatrixStudy::run_with_pool(&params, &pool, true);
        assert_eq!(ooo.schemes(), inorder.schemes());
        for (a, b) in ooo.workloads.iter().zip(&inorder.workloads) {
            assert_eq!(a.workload, b.workload);
            for (ca, cb) in a.configs.iter().zip(&b.configs) {
                assert_eq!(ca.runs.len(), cb.runs.len());
                for (ra, rb) in ca.runs.iter().zip(&cb.runs) {
                    assert_eq!(ra.instructions, rb.instructions, "identical committed streams");
                    assert!(rb.cycles > ra.cycles, "the scalar core is never faster");
                }
            }
        }
    }

    #[test]
    fn single_scheme_run_evaluates_only_that_scheme_and_its_baseline() {
        let mut params = SimulationParams::smoke();
        params.workloads = vec![Benchmark::Mcf.into()];
        params.instructions = 5_000;
        let pool = FaultMapPool::new(&params);
        let way = SchemeConfig::WaySacrifice;
        let study = SchemeMatrixStudy::run_single_with_pool(&params, &pool, way, false);
        assert_eq!(
            study.schemes(),
            &[SchemeConfig::Baseline, SchemeConfig::WaySacrifice]
        );
        let table = study.table();
        assert_eq!(table.series_labels.len(), 2);
        let avg = table.rows[0].1[0].unwrap();
        let min = table.rows[0].1[1].unwrap();
        assert!(avg > 0.0 && min <= avg + 1e-9);
        let serial = SchemeMatrixStudy::run_single_with_pool(&params, &pool, way, true);
        assert_eq!(study, serial, "serial and parallel single-scheme runs agree");
    }

    // The end-to-end campaign tests live in the workspace-level integration tests
    // (tests/), where the longer runtime is acceptable; a minimal high-voltage run
    // is checked here because it needs no fault maps and is fast.
    #[test]
    fn high_voltage_study_produces_sane_normalized_results() {
        let mut params = SimulationParams::smoke();
        params.workloads = vec![Benchmark::Gzip.into()];
        params.instructions = 8_000;
        let study = HighVoltageStudy::run_with_pool(&params, &FaultMapPool::new(&params), true);
        let fig11 = study.figure11();
        assert_eq!(fig11.rows.len(), 1);
        let values = &fig11.rows[0].1;
        // Word disabling pays its extra cycle even at high voltage; block disabling
        // matches the baseline exactly.
        assert!(values[0].unwrap() < 1.0, "word disabling should lose performance");
        assert!(
            (values[1].unwrap() - 1.0).abs() < 1e-9,
            "block disabling must match the baseline at high voltage, got {:?}",
            values[1]
        );
        assert!(values[2].unwrap() >= values[1].unwrap() - 1e-9, "a victim cache never hurts");
    }
}
