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
//! The governor study plans its cells with the same planner. The second port
//! below is its own loop from before that: for each workload and policy, one
//! governed run per pair, in order, when the policy can select low voltage,
//! and otherwise one run without maps, a `None` run counting as a whole-cache
//! failure.
//!
//! The sweep covers the four ways a cell's pairs can turn out: the first pair
//! usable, unusable pairs before a usable one, no usable pair, and an
//! independent pair that fails. For the governor it covers a low-voltage cell
//! with a whole-cache failure and an interval run that switches modes. The
//! test counts each one and requires it to occur, so the sweep cannot quietly
//! stop covering a case.

use vccmin_core::cache::{CacheHierarchy, DisablingScheme, FaultMap, VoltageMode};
use vccmin_core::cpu::{CoreModel, SimResult};
use vccmin_core::experiments::simulation::{
    BenchmarkResult, ConfigResult, FaultMapPool, GovernorBenchmarkResult, GovernorPolicyResult,
    GovernorStudy, HighVoltageStudy, LowVoltageStudy, SchemeMatrixStudy, SimulationParams,
};
use vccmin_core::experiments::{
    run_governed, GovernedRunSpec, GovernorPolicy, L2Protection, SchemeConfig, TransitionCostModel,
    Workload,
};

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

/// The port of the governor campaign's loop, on the maps of `pool`.
fn reference_governor(
    params: &SimulationParams,
    pool: &FaultMapPool,
) -> Vec<GovernorBenchmarkResult> {
    let scheme = GovernorStudy::SCHEME;
    let pairs = pool.pairs();
    let l2_maps = pool.l2_maps_if_needed(params.l2, &[scheme]);
    let phases = GovernorStudy::phase_schedule(params);
    let policy_result = |workload: Workload, policy: GovernorPolicy| {
        let run = |maps, l2_map| {
            run_governed(&GovernedRunSpec {
                workload,
                core: params.core,
                scheme,
                l2_scheme: params.l2.scheme_for(scheme),
                policy: &policy,
                maps,
                l2_map,
                trace_seed: params.trace_seed(workload),
                instructions: params.instructions,
                phases: Some(&phases),
                cost: TransitionCostModel::Modeled,
            })
        };
        let outputs: Vec<_> = if policy.uses_low_voltage() {
            pairs
                .iter()
                .enumerate()
                .map(|(i, pair)| run(Some(pair), l2_maps.get(i)))
                .collect()
        } else {
            vec![run(None, None)]
        };
        let whole_cache_failures = outputs.iter().filter(|output| output.is_none()).count();
        GovernorPolicyResult {
            runs: outputs.into_iter().flatten().collect(),
            policy,
            whole_cache_failures,
        }
    };
    params
        .workloads
        .iter()
        .map(|&workload| GovernorBenchmarkResult {
            workload,
            policies: GovernorStudy::policies(params)
                .into_iter()
                .map(|policy| policy_result(workload, policy))
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
    /// Governor cells that can select low voltage and lost a pair to a
    /// whole-cache failure.
    governor_low_cell_failed: usize,
    /// Governed runs of the interval policy that switched modes.
    interval_runs_switching: usize,
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

    fn record_governor(&mut self, results: &[GovernorBenchmarkResult]) {
        for result in results.iter().flat_map(|b| &b.policies) {
            let low = result.policy.uses_low_voltage();
            self.governor_low_cell_failed += usize::from(low && result.whole_cache_failures > 0);
            if matches!(result.policy, GovernorPolicy::Interval { .. }) {
                self.interval_runs_switching +=
                    result.runs.iter().filter(|run| run.transitions > 0).count();
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

/// Runs the governor study of one parameter set through the executor, on the
/// calling thread and on the pool, and compares it with the port.
fn check_governor_against_reference(
    params: &SimulationParams,
    pool: &FaultMapPool,
    outcomes: &mut Outcomes,
) {
    let reference = reference_governor(params, pool);
    for serial in [true, false] {
        assert_eq!(
            GovernorStudy::run_with_pool(params, pool, serial).workloads,
            reference,
            "governor, core {} L2 {} pfail {} seed {}, serial {serial}",
            params.core,
            params.l2,
            params.pfail,
            params.master_seed
        );
    }
    outcomes.record_governor(&reference);
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
            let pool = FaultMapPool::new(&base);
            let pairs = pool.pairs();
            let l2_maps =
                pool.l2_maps_if_needed(L2Protection::Matched, &[SchemeConfig::BlockDisabling]);
            // The governor runs past two of its quanta (512 instructions each
            // at this scale), so the interval policy switches to low voltage
            // and back; one workload and two pairs keep its sweep quick.
            let governed_base = SimulationParams {
                instructions: 1_200,
                fault_map_pairs: 2,
                workloads: base.workloads[..1].to_vec(),
                ..base.clone()
            };
            let governor_pool = FaultMapPool::new(&governed_base);
            for l2 in L2_PROTECTIONS {
                let params = SimulationParams {
                    l2,
                    ..base.clone()
                };
                check_against_reference(&params, &pool, (pairs, l2_maps), &mut outcomes);
                let governed = SimulationParams {
                    l2,
                    ..governed_base.clone()
                };
                check_governor_against_reference(&governed, &governor_pool, &mut outcomes);
            }
        }
    }
    assert!(outcomes.first_pair_usable > 0, "{outcomes:?}");
    assert!(outcomes.skipped_then_usable > 0, "{outcomes:?}");
    assert!(outcomes.no_usable_pair > 0, "{outcomes:?}");
    assert!(outcomes.independent_pair_failed > 0, "{outcomes:?}");
    assert!(outcomes.governor_low_cell_failed > 0, "{outcomes:?}");
    assert!(outcomes.interval_runs_switching > 0, "{outcomes:?}");
}

#[test]
fn out_of_order_campaigns_match_the_frozen_serial_loop() {
    sweep(CoreModel::OutOfOrder);
}

#[test]
fn in_order_campaigns_match_the_frozen_serial_loop() {
    sweep(CoreModel::InOrder);
}
