//! Workspace-level tests of the real RISC-V workloads as first-class trace
//! sources:
//!
//! 1. the quick-scale scheme matrix over the four RV32IM kernels is pinned,
//!    byte for byte, to `tests/golden/riscv_schemes.csv`;
//! 2. the serial and parallel executors stay bit-identical on riscv campaigns;
//! 3. the governor runs a riscv kernel end to end, and its pinned-mode runs
//!    replay the single-mode campaign bit for bit (the same strict
//!    generalization the synthetic workloads pin in `governor.rs`);
//! 4. architectural state is deterministic: two interpreters fed the same
//!    kernel and seed stay in lock-step, register file and all.
//!
//! Regenerate the golden snapshot (only for an intentional change) with:
//!
//! ```text
//! cargo run --release --bin vccmin-repro -- schemes \
//!     --workload riscv:matmul,riscv:qsort,riscv:hashjoin,riscv:compress \
//!     --instructions 250000 --csv --out tests/golden/riscv_schemes.csv
//! ```

use vccmin_core::cache::{DisablingScheme, VoltageMode};
use vccmin_core::experiments::simulation::{
    FaultMapPool, LowVoltageStudy, SchemeMatrixStudy, SimulationParams,
};
use vccmin_core::experiments::{
    run_governed, GovernedRunSpec, GovernorPolicy, GovernorStudy, SchemeConfig,
    TransitionCostModel, Workload,
};
use vccmin_core::cpu::CoreModel;
use vccmin_core::riscv::{Cpu, RvKernel, RvTraceSource};

const RISCV_SCHEMES: &str = include_str!("../golden/riscv_schemes.csv");

fn small_riscv_params(kernels: Vec<RvKernel>, instructions: u64) -> SimulationParams {
    SimulationParams {
        instructions,
        workloads: kernels.into_iter().map(Into::into).collect(),
        ..SimulationParams::smoke()
    }
}

#[test]
fn quick_scale_riscv_scheme_matrix_matches_its_snapshot() {
    let params = SimulationParams::riscv_quick();
    let study = SchemeMatrixStudy::run_with_pool(&params, &FaultMapPool::new(&params), false);
    assert_eq!(
        study.table().to_csv(),
        RISCV_SCHEMES,
        "the riscv scheme matrix drifted from tests/golden/riscv_schemes.csv; \
         if the change is intentional, regenerate the snapshot per the module docs"
    );
}

#[test]
fn riscv_golden_snapshot_has_the_expected_shape() {
    let lines: Vec<&str> = RISCV_SCHEMES.lines().collect();
    assert_eq!(lines.len(), 6, "header + 4 kernels + mean");
    assert!(lines[0].starts_with("benchmark,"));
    assert!(lines[1].starts_with("riscv:matmul,"));
    assert!(lines[5].starts_with("mean,"));
}

#[test]
fn serial_and_parallel_riscv_campaigns_are_bit_identical() {
    let params = small_riscv_params(vec![RvKernel::Matmul, RvKernel::HashJoin], 8_000);
    let pool = FaultMapPool::new(&params);
    let serial = SchemeMatrixStudy::run_with_pool(&params, &pool, true);
    let parallel = SchemeMatrixStudy::run_with_pool(&params, &pool, false);
    assert_eq!(serial, parallel);
    assert_eq!(serial.table(), parallel.table());
    let gov_serial = GovernorStudy::run_with_pool(&params, &pool, true);
    let gov_parallel = GovernorStudy::run_with_pool(&params, &pool, false);
    assert_eq!(gov_serial, gov_parallel);
}

#[test]
fn mixed_synthetic_and_riscv_campaigns_run_side_by_side() {
    let params = SimulationParams {
        instructions: 6_000,
        workloads: vec![
            Workload::parse("gzip").expect("gzip is a synthetic workload"),
            Workload::parse("riscv:qsort").expect("riscv:qsort is a kernel"),
        ],
        ..SimulationParams::smoke()
    };
    let study = LowVoltageStudy::run_with_pool(&params, &FaultMapPool::new(&params), false);
    assert_eq!(study.workloads.len(), 2);
    for b in &study.workloads {
        let v = b.normalized_mean(SchemeConfig::BlockDisabling, SchemeConfig::Baseline);
        assert!(
            v > 0.5 && v <= 1.01,
            "{}: normalized performance out of range: {v}",
            b.workload
        );
    }
}

#[test]
fn pinned_governor_on_a_riscv_kernel_replays_the_campaign_bit_for_bit() {
    let params = small_riscv_params(vec![RvKernel::Compress], 8_000);
    let workload = params.workloads[0];
    let pool = FaultMapPool::new(&params);
    let study = LowVoltageStudy::run_with_pool(&params, &pool, true);
    let config = study.workloads[0]
        .config(SchemeConfig::BlockDisabling)
        .expect("the study evaluates block-disabling");
    for (k, pair) in pool.pairs().iter().enumerate() {
        let governed = run_governed(&GovernedRunSpec {
            workload,
            core: CoreModel::OutOfOrder,
            scheme: SchemeConfig::BlockDisabling,
            l2_scheme: DisablingScheme::Baseline,
            policy: &GovernorPolicy::pinned(VoltageMode::Low),
            maps: Some(pair),
            l2_map: None,
            trace_seed: params.trace_seed(workload),
            instructions: params.instructions,
            phases: None,
            cost: TransitionCostModel::Free,
        })
        .expect("block-disabling repairs every smoke-scale fault map");
        assert_eq!(governed.segments.len(), 1);
        assert_eq!(
            governed.segments[0].sim, config.runs[k],
            "pair {k}: the governed riscv run must replay the study bit for bit"
        );
    }
}

#[test]
fn interval_governor_executes_a_riscv_kernel_across_mode_switches() {
    let params = small_riscv_params(vec![RvKernel::HashJoin], 12_000);
    let workload = params.workloads[0];
    let pool = FaultMapPool::new(&params);
    let pair = &pool.pairs()[0];
    let run = run_governed(&GovernedRunSpec {
        workload,
        core: CoreModel::OutOfOrder,
        scheme: SchemeConfig::BlockDisabling,
        l2_scheme: DisablingScheme::Baseline,
        policy: &GovernorPolicy::Interval {
            nominal: 3_000,
            low: 3_000,
        },
        maps: Some(pair),
        l2_map: None,
        trace_seed: params.trace_seed(workload),
        instructions: params.instructions,
        phases: None,
        cost: TransitionCostModel::Modeled,
    })
    .expect("block-disabling repairs every smoke-scale fault map");
    assert_eq!(run.segments.len(), 4);
    assert_eq!(run.transitions, 3);
    assert!(run.transition_cycles() > 0, "modeled transitions must cost cycles");
    assert_eq!(run.instructions(), 12_000);
}

#[test]
fn riscv_architectural_state_stays_in_lock_step() {
    // Two independent interpreters over the same kernel image must agree on
    // every piece of architectural state at every step — the determinism
    // guarantee underneath all the trace-level pins above.
    for kernel in RvKernel::ALL {
        let mut a: Cpu = kernel.image(2010).into_cpu();
        let mut b: Cpu = kernel.image(2010).into_cpu();
        for step in 0..30_000u32 {
            let ra = a.step();
            let rb = b.step();
            assert_eq!(ra, rb, "{kernel} step {step}: retirements diverged");
            assert_eq!(a.pc(), b.pc(), "{kernel} step {step}: pc diverged");
            if ra.is_err() {
                break;
            }
        }
        assert_eq!(a, b, "{kernel}: full state (registers + memory) diverged");
        assert!(a.retired() > 0, "{kernel}: nothing retired");
    }
}

#[test]
fn riscv_trace_sources_with_the_same_seed_are_identical_and_seeds_matter() {
    for kernel in RvKernel::ALL {
        let a: Vec<_> = RvTraceSource::new(kernel, 7).take(6_000).collect();
        let b: Vec<_> = RvTraceSource::new(kernel, 7).take(6_000).collect();
        assert_eq!(a, b, "{kernel}: same seed must give the identical stream");
    }
}
