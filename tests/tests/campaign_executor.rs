//! Differential test of the campaign executor against a frozen port of the
//! serial loop it replaced.
//!
//! The executor plans every (workload, configuration) cell before anything
//! runs and then maps one job per planned simulation. The old loop walked
//! each cell's fault-map pairs in order, counted every pair a repair scheme
//! could not repair as a whole-cache failure, and stopped after the first
//! usable pair when both the L1 and the L2 scheme perform the same on every
//! usable map (word-disabling). The port below is that loop, rebuilt from
//! public functions only. Every study result must match it exactly, on the
//! calling thread and on the rayon pool.
//!
//! The sweep covers the four ways a cell's pairs can turn out: the first pair
//! usable, unusable pairs before a usable one, no usable pair, and an
//! independent pair that fails. The test counts each one and requires it to
//! occur, so the sweep cannot quietly stop covering a case.

use vccmin_core::cache::{CacheHierarchy, DisablingScheme, FaultMap, VoltageMode};
use vccmin_core::cpu::{CoreModel, SimResult};
use vccmin_core::experiments::simulation::{
    BenchmarkResult, ConfigResult, FaultMapPool, HighVoltageStudy, LowVoltageStudy,
    SchemeMatrixStudy, SimulationParams,
};
use vccmin_core::experiments::{L2Protection, SchemeConfig, Workload};

// ---------------------------------------------------------------------------
// Reference implementation: a frozen port of the serial campaign loop.
// ---------------------------------------------------------------------------

/// Whether a cell is evaluated once per fault-map pair.
fn map_dependent(params: &SimulationParams, scheme: SchemeConfig, voltage: VoltageMode) -> bool {
    voltage == VoltageMode::Low
        && (scheme.fault_dependent() || params.l2.scheme_for(scheme).repair().needs_fault_map())
}

/// Whether the loop stops after the first usable pair.
fn stops_after_first_pair(params: &SimulationParams, scheme: SchemeConfig) -> bool {
    scheme.scheme().repair().performance_uniform_across_maps()
        && params
            .l2
            .scheme_for(scheme)
            .repair()
            .performance_uniform_across_maps()
}

fn simulate(params: &SimulationParams, workload: Workload, hierarchy: CacheHierarchy) -> SimResult {
    let mut cpu = params.core.build(hierarchy);
    let mut trace = workload.source(params.trace_seed(workload));
    cpu.run(&mut trace, Some(params.instructions))
}

fn reference_config(
    params: &SimulationParams,
    pairs: &[(FaultMap, FaultMap)],
    l2_maps: &[FaultMap],
    workload: Workload,
    scheme: SchemeConfig,
    voltage: VoltageMode,
) -> ConfigResult {
    let cfg = scheme.hierarchy_config_with_l2(voltage, params.l2);
    let mut runs = Vec::new();
    let mut whole_cache_failures = 0;
    if map_dependent(params, scheme, voltage) {
        for (i, (map_i, map_d)) in pairs.iter().enumerate() {
            match CacheHierarchy::with_all_fault_maps(cfg, Some(map_i), Some(map_d), l2_maps.get(i))
            {
                Ok(hierarchy) => {
                    runs.push(simulate(params, workload, hierarchy));
                    if stops_after_first_pair(params, scheme) {
                        break;
                    }
                }
                Err(_) => whole_cache_failures += 1,
            }
        }
    } else {
        runs.push(simulate(params, workload, CacheHierarchy::new(cfg)));
    }
    ConfigResult {
        scheme,
        runs,
        whole_cache_failures,
    }
}

/// The port's campaign over `schemes`, on the fault maps the campaign's
/// master seed derives (`l2_maps` holds one L2 map per pair, used only when
/// the L2 protection needs them, exactly as the campaign does).
fn reference_campaign(
    params: &SimulationParams,
    pairs: &[(FaultMap, FaultMap)],
    l2_maps: &[FaultMap],
    schemes: &[SchemeConfig],
    voltage: VoltageMode,
) -> Vec<BenchmarkResult> {
    let (pairs, l2_maps) = match voltage {
        VoltageMode::Low if params.l2.needs_fault_maps(schemes) => (pairs, l2_maps),
        VoltageMode::Low => (pairs, &[][..]),
        VoltageMode::High => (&[][..], &[][..]),
    };
    params
        .workloads
        .iter()
        .map(|&workload| BenchmarkResult {
            workload,
            configs: schemes
                .iter()
                .map(|&scheme| reference_config(params, pairs, l2_maps, workload, scheme, voltage))
                .collect(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Outcome accounting.
// ---------------------------------------------------------------------------

/// How often each way a map-dependent cell's pairs can turn out occurred in
/// the reference results.
#[derive(Debug, Default)]
struct Outcomes {
    first_pair_usable: usize,
    skipped_then_usable: usize,
    no_usable_pair: usize,
    independent_pair_failed: usize,
}

impl Outcomes {
    fn record(&mut self, params: &SimulationParams, results: &[BenchmarkResult]) {
        for config in results.iter().flat_map(|b| &b.configs) {
            if !map_dependent(params, config.scheme, VoltageMode::Low) {
                continue;
            }
            let failed = config.whole_cache_failures;
            if !stops_after_first_pair(params, config.scheme) {
                self.independent_pair_failed += usize::from(failed > 0);
            } else if config.runs.is_empty() {
                self.no_usable_pair += 1;
            } else if failed == 0 {
                self.first_pair_usable += 1;
            } else {
                self.skipped_then_usable += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The sweep.
// ---------------------------------------------------------------------------

const L2_PROTECTIONS: [L2Protection; 4] = [
    L2Protection::Perfect,
    L2Protection::Matched,
    L2Protection::Fixed(DisablingScheme::WordDisabling),
    L2Protection::Fixed(DisablingScheme::BlockDisabling),
];
const PFAILS: [f64; 3] = [0.001, 0.003, 0.005];
const SEEDS: [u64; 3] = [1, 2, 7];

/// Runs every study of one parameter set through the executor, on the
/// calling thread and on the pool, and compares each with the reference.
fn check_against_reference(
    params: &SimulationParams,
    pool: &FaultMapPool,
    (pairs, l2_maps): (&[(FaultMap, FaultMap)], &[FaultMap]),
    outcomes: &mut Outcomes,
) {
    let reference = |schemes: &[SchemeConfig], voltage| {
        reference_campaign(params, pairs, l2_maps, schemes, voltage)
    };
    let low = reference(&LowVoltageStudy::SCHEMES, VoltageMode::Low);
    let high = reference(&HighVoltageStudy::SCHEMES, VoltageMode::High);
    let matrix = reference(&SchemeMatrixStudy::matrix_schemes(), VoltageMode::Low);
    let case = format!(
        "core {} L2 {} pfail {} seed {}",
        params.core, params.l2, params.pfail, params.master_seed
    );
    for serial in [true, false] {
        assert_eq!(
            LowVoltageStudy::run_with_pool(params, pool, serial).workloads,
            low,
            "low voltage, {case}, serial {serial}"
        );
        assert_eq!(
            HighVoltageStudy::run_with_pool(params, pool, serial).workloads,
            high,
            "high voltage, {case}, serial {serial}"
        );
        assert_eq!(
            SchemeMatrixStudy::run_with_pool(params, pool, serial).workloads,
            matrix,
            "scheme matrix, {case}, serial {serial}"
        );
    }
    outcomes.record(params, &low);
    outcomes.record(params, &matrix);
}

/// Sweeps every L2 protection, pfail and master seed on one core and checks
/// that the sweep met every pair outcome.
fn sweep(core: CoreModel) {
    let mut outcomes = Outcomes::default();
    for pfail in PFAILS {
        for master_seed in SEEDS {
            let base = SimulationParams {
                // The pair outcomes depend only on the fault maps; a short
                // trace keeps the sweep's hundreds of campaigns quick.
                instructions: 500,
                fault_map_pairs: 5,
                pfail,
                master_seed,
                core,
                ..SimulationParams::smoke()
            };
            // The maps depend only on the seed, pfail and pair count, so every
            // L2 protection below shares one set of them.
            let pairs = base.derived_fault_map_pairs();
            let l2_maps = SimulationParams {
                l2: L2Protection::Matched,
                ..base.clone()
            }
            .derived_l2_fault_maps(&[SchemeConfig::BlockDisabling]);
            let pool = FaultMapPool::new(&base);
            for l2 in L2_PROTECTIONS {
                let params = SimulationParams {
                    l2,
                    ..base.clone()
                };
                check_against_reference(&params, &pool, (&pairs, &l2_maps), &mut outcomes);
            }
        }
    }
    assert!(outcomes.first_pair_usable > 0, "{outcomes:?}");
    assert!(outcomes.skipped_then_usable > 0, "{outcomes:?}");
    assert!(outcomes.no_usable_pair > 0, "{outcomes:?}");
    assert!(outcomes.independent_pair_failed > 0, "{outcomes:?}");
}

#[test]
fn out_of_order_campaigns_match_the_frozen_serial_loop() {
    sweep(CoreModel::OutOfOrder);
}

#[test]
fn in_order_campaigns_match_the_frozen_serial_loop() {
    sweep(CoreModel::InOrder);
}
