//! Properties of the voltage-mode governor, pinned at workspace level:
//!
//! 1. a governor pinned to one mode (no transition, so no transition cost) is
//!    *bit-identical* to the corresponding single-mode campaign — the governor
//!    path is a strict generalization of the paper's studies;
//! 2. at equal low-voltage residency, more transitions never increase energy
//!    efficiency (overhead cycles and cold caches only ever add energy);
//! 3. EDP is monotone in the per-transition cost;
//! 4. the closed-form expected-overhead model of `vccmin-analysis` predicts the
//!    simulated totals from single-mode IPCs up to cache-warmup error.

use proptest::prelude::*;

use vccmin_core::analysis::governor as model;
use vccmin_core::cache::VoltageMode;
use vccmin_core::experiments::simulation::{FaultMapPool, GovernorStudy};
use vccmin_core::experiments::{
    run_governed, Workload, GovernedRun, GovernedRunSpec, GovernorPolicy, HighVoltageStudy, LowVoltageStudy,
    SchemeConfig, SimulationParams,
};
use vccmin_core::cache::DisablingScheme;
use vccmin_core::cpu::CoreModel;
use vccmin_core::{Benchmark, FaultMap};

fn small_params(benchmarks: Vec<Benchmark>, instructions: u64) -> SimulationParams {
    SimulationParams {
        instructions,
        workloads: benchmarks.into_iter().map(Into::into).collect(),
        ..SimulationParams::smoke()
    }
}

fn pinned_run(
    params: &SimulationParams,
    workload: Workload,
    mode: VoltageMode,
    maps: Option<&(FaultMap, FaultMap)>,
) -> GovernedRun {
    run_governed(&GovernedRunSpec {
        workload,
        core: CoreModel::OutOfOrder,
        scheme: SchemeConfig::BlockDisabling,
        l2_scheme: DisablingScheme::Baseline,
        policy: &GovernorPolicy::pinned(mode),
        maps,
        l2_map: None,
        trace_seed: params.trace_seed(workload),
        instructions: params.instructions,
        phases: None,
    })
    .expect("block-disabling repairs every smoke-scale fault map")
    .with_fixed_transition_cost(0)
}

#[test]
fn pinned_low_governor_is_bit_identical_to_the_low_voltage_study() {
    let params = small_params(vec![Benchmark::Crafty, Benchmark::Swim], 6_000);
    let pool = FaultMapPool::new(&params);
    let study = LowVoltageStudy::run_with_pool(&params, &pool, true);
    let pairs = pool.pairs();
    for b in &study.workloads {
        let config = b
            .config(SchemeConfig::BlockDisabling)
            .expect("the study evaluates block-disabling");
        assert_eq!(config.runs.len(), pairs.len());
        for (k, pair) in pairs.iter().enumerate() {
            let governed = pinned_run(&params, b.workload, VoltageMode::Low, Some(pair));
            assert_eq!(governed.segments.len(), 1, "a pinned schedule is one segment");
            assert_eq!(governed.transitions, 0);
            assert_eq!(governed.transition_cycles(), 0);
            assert_eq!(
                governed.segments[0].sim, config.runs[k],
                "{} pair {k}: the governed run must replay the study bit for bit",
                b.workload.name()
            );
        }
    }
}

#[test]
fn pinned_nominal_governor_is_bit_identical_to_the_high_voltage_study() {
    let params = small_params(vec![Benchmark::Mcf, Benchmark::Gzip], 6_000);
    let study = HighVoltageStudy::run_with_pool(&params, &FaultMapPool::new(&params), true);
    for b in &study.workloads {
        let config = b
            .config(SchemeConfig::BlockDisabling)
            .expect("the study evaluates block-disabling");
        let governed = pinned_run(&params, b.workload, VoltageMode::High, None);
        assert_eq!(governed.segments.len(), 1);
        assert_eq!(
            governed.segments[0].sim, config.runs[0],
            "{}: high-voltage governed run must replay the study",
            b.workload.name()
        );
    }
}

#[test]
fn closed_form_overhead_model_cross_validates_the_simulation() {
    let scaling = GovernorStudy::scaling_model();
    for benchmark in [Benchmark::Gzip, Benchmark::Swim] {
        let params = small_params(vec![benchmark], 12_000);
        let pool = FaultMapPool::new(&params);
        let pair = &pool.pairs()[0];
        let quantum = 3_000;
        let cost = 500u64;

        // Single-mode IPCs, measured once per mode at the granularity the
        // governor executes (one cold quantum): every interval segment restarts
        // with cold caches, so quantum-scale IPC is the model's honest input.
        let quantum_params = small_params(vec![benchmark], quantum);
        let nominal = pinned_run(&quantum_params, benchmark.into(), VoltageMode::High, None);
        let low = pinned_run(&quantum_params, benchmark.into(), VoltageMode::Low, Some(pair));
        let ipc_nominal = nominal.segments[0].sim.ipc();
        let ipc_low = low.segments[0].sim.ipc();
        let governed = run_governed(&GovernedRunSpec {
            workload: benchmark.into(),
            core: CoreModel::OutOfOrder,
            scheme: SchemeConfig::BlockDisabling,
            l2_scheme: DisablingScheme::Baseline,
            policy: &GovernorPolicy::Interval {
                nominal: quantum,
                low: quantum,
            },
            maps: Some(pair),
            l2_map: None,
            trace_seed: params.trace_seed(benchmark.into()),
            instructions: params.instructions,
            phases: None,
        })
        .unwrap()
        .with_fixed_transition_cost(cost);
        assert_eq!(governed.transitions, 3);

        let predicted = model::expected_cycles(
            6_000.0,
            6_000.0,
            ipc_nominal,
            ipc_low,
            governed.transitions as f64,
            cost as f64,
        );
        let simulated = governed.mode_cycles();
        let rel = (simulated.total() - predicted.total()).abs() / predicted.total();
        assert!(
            rel < 0.25,
            "{}: simulated {} vs predicted {} cycles (rel {rel}); the residual \
             is trace-position variation across quanta and must stay bounded",
            benchmark.name(),
            simulated.total(),
            predicted.total()
        );
        // Time/energy composition goes through the same closed-form helpers,
        // so cross-checking one metric suffices for the others.
        let metrics = governed.metrics(&scaling);
        assert!((metrics.time - model::normalized_time(&scaling, &simulated)).abs() < 1e-9);
        assert!((metrics.energy - model::normalized_energy(&scaling, &simulated)).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// At equal low-voltage residency (same instruction split), doubling the
    /// transition count can only burn more energy: the extra overhead cycles
    /// and the extra cold-cache restarts both add, never subtract.
    #[test]
    fn more_transitions_never_increase_energy_efficiency(
        bench_idx in 0usize..4,
        cost in 0u64..2_000,
    ) {
        let benchmark = [Benchmark::Gzip, Benchmark::Swim, Benchmark::Crafty, Benchmark::Mcf][bench_idx];
        let params = small_params(vec![benchmark], 6_000);
        let pool = FaultMapPool::new(&params);
        let pair = &pool.pairs()[0];
        let run_with_quantum = |quantum: u64| -> GovernedRun {
            run_governed(&GovernedRunSpec {
                workload: benchmark.into(),
                core: CoreModel::OutOfOrder,
                scheme: SchemeConfig::BlockDisabling,
                l2_scheme: DisablingScheme::Baseline,
                policy: &GovernorPolicy::Interval { nominal: quantum, low: quantum },
                maps: Some(pair),
                l2_map: None,
                trace_seed: params.trace_seed(benchmark.into()),
                instructions: params.instructions,
                phases: None,
            })
            .unwrap()
            .with_fixed_transition_cost(cost)
        };
        let coarse = run_with_quantum(1_500); // 4 segments, 3 transitions
        let fine = run_with_quantum(750); // 8 segments, 7 transitions
        prop_assert!(fine.transitions > coarse.transitions);
        prop_assert!(
            (fine.low_instruction_residency() - coarse.low_instruction_residency()).abs() < 1e-9,
            "the comparison requires equal residency"
        );
        let scaling = GovernorStudy::scaling_model();
        let coarse_m = coarse.metrics(&scaling);
        let fine_m = fine.metrics(&scaling);
        // Same work: efficiency (instructions per energy) can only drop.
        prop_assert!(
            fine_m.energy >= coarse_m.energy - 1e-9,
            "{}: {} transitions used {} energy, {} transitions used {}",
            benchmark.name(), fine.transitions, fine_m.energy, coarse.transitions, coarse_m.energy
        );
        prop_assert!(fine_m.time >= coarse_m.time - 1e-9);
    }

    /// EDP is monotone in the per-transition cost: re-pricing the same
    /// simulation at a higher cost can only increase both factors.
    #[test]
    fn edp_is_monotone_in_transition_cost(
        cost_a in 0u64..50_000,
        cost_b in 0u64..50_000,
    ) {
        let benchmark = Benchmark::Gzip;
        let params = small_params(vec![benchmark], 4_000);
        let pool = FaultMapPool::new(&params);
        let pair = &pool.pairs()[0];
        let run = run_governed(&GovernedRunSpec {
            workload: benchmark.into(),
            core: CoreModel::OutOfOrder,
            scheme: SchemeConfig::BlockDisabling,
            l2_scheme: DisablingScheme::Baseline,
            policy: &GovernorPolicy::Interval { nominal: 1_000, low: 1_000 },
            maps: Some(pair),
            l2_map: None,
            trace_seed: params.trace_seed(benchmark.into()),
            instructions: params.instructions,
            phases: None,
        })
        .unwrap()
        .with_fixed_transition_cost(0);
        prop_assert!(run.transitions > 0);
        let (lo, hi) = if cost_a <= cost_b { (cost_a, cost_b) } else { (cost_b, cost_a) };
        let scaling = GovernorStudy::scaling_model();
        let cheap = run.with_fixed_transition_cost(lo).metrics(&scaling);
        let pricey = run.with_fixed_transition_cost(hi).metrics(&scaling);
        prop_assert!(pricey.time >= cheap.time - 1e-9);
        prop_assert!(pricey.energy >= cheap.energy - 1e-9);
        prop_assert!(pricey.edp >= cheap.edp - 1e-9);
    }
}
