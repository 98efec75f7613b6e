//! Workspace-level pins of the CPU-backend axis (`CoreModel`):
//!
//! 1. the quick-scale two-backend core matrix (synthetic + riscv workloads) is
//!    pinned, byte for byte, to `tests/golden/core_matrix.csv`;
//! 2. the serial and parallel executors stay bit-identical on the in-order
//!    path, both for a single-backend scheme matrix and for the full core
//!    matrix;
//! 3. the in-order core is never faster than the out-of-order core on the
//!    identical trace and fault map — for every repair scheme at both voltage
//!    modes, across random master seeds — while committing the identical
//!    instruction count (the backends replay the same stream);
//! 4. a governor pinned to one mode on the in-order backend replays the
//!    in-order single-mode campaign bit for bit — the same strict
//!    generalization the out-of-order backend pins in `governor.rs`.
//!
//! Regenerate the golden snapshot (only for an intentional change) with:
//!
//! ```text
//! cargo run --release --bin vccmin-repro -- core-matrix --csv \
//!     --out tests/golden/core_matrix.csv
//! ```

use proptest::prelude::*;

use vccmin_core::cache::{DisablingScheme, VoltageMode};
use vccmin_core::cpu::CoreModel;
use vccmin_core::experiments::simulation::{
    CoreMatrixStudy, FaultMapPool, HighVoltageStudy, LowVoltageStudy, SchemeMatrixStudy,
    SimulationParams,
};
use vccmin_core::experiments::{run_governed, GovernedRunSpec, GovernorPolicy, SchemeConfig};
use vccmin_core::Benchmark;

const CORE_MATRIX: &str = include_str!("../golden/core_matrix.csv");

fn small_params(core: CoreModel, seed: u64, instructions: u64) -> SimulationParams {
    SimulationParams {
        core,
        master_seed: seed,
        instructions,
        workloads: vec![Benchmark::Gzip.into(), Benchmark::Swim.into()],
        fault_map_pairs: 2,
        ..SimulationParams::smoke()
    }
}

#[test]
fn quick_scale_core_matrix_matches_its_snapshot() {
    let params = SimulationParams::core_matrix_quick();
    let study = CoreMatrixStudy::run_with_pool(&params, &FaultMapPool::new(&params), false);
    assert_eq!(
        study.table().to_csv(),
        CORE_MATRIX,
        "the core matrix drifted from tests/golden/core_matrix.csv; \
         if the change is intentional, regenerate the snapshot per the module docs"
    );
}

#[test]
fn core_matrix_snapshot_has_the_expected_shape() {
    let lines: Vec<&str> = CORE_MATRIX.lines().collect();
    assert_eq!(lines.len(), 7, "header + 5 workloads + mean");
    assert!(lines[0].starts_with("benchmark,"));
    assert!(lines[5].starts_with("riscv:qsort,"));
    assert!(lines[6].starts_with("mean,"));
    // Every backend contributes its own column block, out-of-order first.
    let header = lines[0];
    let ooo = header.find("ooo: ").expect("out-of-order columns");
    let inorder = header.find("in-order: ").expect("in-order columns");
    assert!(ooo < inorder, "the default backend leads the table");
}

#[test]
fn serial_and_parallel_in_order_campaigns_are_bit_identical() {
    let params = small_params(CoreModel::InOrder, 2010, 5_000);
    let pool = FaultMapPool::new(&params);
    let serial = SchemeMatrixStudy::run_with_pool(&params, &pool, true);
    let parallel = SchemeMatrixStudy::run_with_pool(&params, &pool, false);
    assert_eq!(serial, parallel);
    assert_eq!(serial.table(), parallel.table());

    let matrix_serial = CoreMatrixStudy::run_with_pool(&params, &pool, true);
    let matrix_parallel = CoreMatrixStudy::run_with_pool(&params, &pool, false);
    assert_eq!(matrix_serial, matrix_parallel);
    assert_eq!(matrix_serial.table(), matrix_parallel.table());
}

/// Asserts every run of `inorder` took at least as many cycles as the matching
/// run of `ooo` while committing the identical instruction count.
fn assert_in_order_never_faster(
    ooo: &[vccmin_core::experiments::BenchmarkResult],
    inorder: &[vccmin_core::experiments::BenchmarkResult],
    mode: VoltageMode,
) {
    assert_eq!(ooo.len(), inorder.len());
    for (bo, bi) in ooo.iter().zip(inorder) {
        assert_eq!(bo.workload, bi.workload);
        assert_eq!(bo.configs.len(), bi.configs.len());
        for (co, ci) in bo.configs.iter().zip(&bi.configs) {
            assert_eq!(co.scheme, ci.scheme);
            assert_eq!(co.runs.len(), ci.runs.len(), "same fault maps evaluated");
            for (k, (ro, ri)) in co.runs.iter().zip(&ci.runs).enumerate() {
                assert_eq!(
                    ro.instructions,
                    ri.instructions,
                    "{} {} pair {k} at {mode:?}: both backends replay the same stream",
                    bo.workload.name(),
                    co.scheme.label(),
                );
                assert!(
                    ri.cycles >= ro.cycles,
                    "{} {} pair {k} at {mode:?}: the in-order core finished in {} cycles, \
                     faster than the out-of-order core's {}",
                    bo.workload.name(),
                    co.scheme.label(),
                    ri.cycles,
                    ro.cycles,
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// With no memory-level parallelism, the in-order core can only be slower:
    /// on the identical trace and fault map it never beats the out-of-order
    /// core, for any repair scheme at either voltage mode, and it commits the
    /// identical instruction count.
    #[test]
    fn in_order_is_never_faster_for_any_scheme_or_voltage_mode(seed in 1u64..10_000) {
        let ooo = small_params(CoreModel::OutOfOrder, seed, 3_000);
        let inorder = small_params(CoreModel::InOrder, seed, 3_000);
        // The two backends differ only in the core, so they share one pool.
        let pool = FaultMapPool::new(&ooo);

        // Below Vcc-min: every repair scheme in the registry.
        let low_ooo = SchemeMatrixStudy::run_with_pool(&ooo, &pool, true);
        let low_inorder = SchemeMatrixStudy::run_with_pool(&inorder, &pool, true);
        assert_in_order_never_faster(&low_ooo.workloads, &low_inorder.workloads, VoltageMode::Low);

        // Nominal voltage: the fault-free configurations.
        let high_ooo = HighVoltageStudy::run_with_pool(&ooo, &pool, true);
        let high_inorder = HighVoltageStudy::run_with_pool(&inorder, &pool, true);
        assert_in_order_never_faster(
            &high_ooo.workloads,
            &high_inorder.workloads,
            VoltageMode::High,
        );
    }
}

#[test]
fn pinned_in_order_governor_replays_the_in_order_campaign_bit_for_bit() {
    let params = small_params(CoreModel::InOrder, 42, 6_000);
    let pool = FaultMapPool::new(&params);
    let study = LowVoltageStudy::run_with_pool(&params, &pool, true);
    let pairs = pool.pairs();
    for b in &study.workloads {
        let config = b
            .config(SchemeConfig::BlockDisabling)
            .expect("the study evaluates block-disabling");
        for (k, pair) in pairs.iter().enumerate() {
            let governed = run_governed(&GovernedRunSpec {
                workload: b.workload,
                core: CoreModel::InOrder,
                scheme: SchemeConfig::BlockDisabling,
                l2_scheme: DisablingScheme::Baseline,
                policy: &GovernorPolicy::pinned(VoltageMode::Low),
                maps: Some(pair),
                l2_map: None,
                trace_seed: params.trace_seed(b.workload),
                instructions: params.instructions,
                phases: None,
            })
            .expect("block-disabling repairs every smoke-scale fault map");
            assert_eq!(governed.segments.len(), 1, "a pinned schedule is one segment");
            assert_eq!(governed.transitions, 0);
            assert_eq!(
                governed.segments[0].sim, config.runs[k],
                "{} pair {k}: the in-order governed run must replay the study bit for bit",
                b.workload.name()
            );
        }
    }
}

#[test]
fn interval_governor_switches_modes_on_the_in_order_core() {
    let params = small_params(CoreModel::InOrder, 7, 8_000);
    let workload = params.workloads[0];
    let pool = FaultMapPool::new(&params);
    let pair = &pool.pairs()[0];
    let run = run_governed(&GovernedRunSpec {
        workload,
        core: CoreModel::InOrder,
        scheme: SchemeConfig::BlockDisabling,
        l2_scheme: DisablingScheme::Baseline,
        policy: &GovernorPolicy::Interval {
            nominal: 4_000,
            low: 4_000,
        },
        maps: Some(pair),
        l2_map: None,
        trace_seed: params.trace_seed(workload),
        instructions: params.instructions,
        phases: None,
    })
    .expect("block-disabling repairs every smoke-scale fault map");
    assert_eq!(run.segments.len(), 2);
    assert_eq!(run.transitions, 1);
    assert_eq!(run.instructions(), 8_000);
    // The one modeled transition (exiting nominal mode) drains the in-order
    // core's shallow window: front end (10) + one in-flight instruction (1) +
    // L1 (3) + L2 (20) + memory at high voltage (255), plus block-disabling
    // reconfiguration of both 64-set L1s — cheaper than the out-of-order
    // core's ROB drain, which the governor unit tests pin at
    // 10 + 32 + 3 + 20 + 255 + 2 * 64.
    assert_eq!(
        run.transition_cycles_nominal,
        10 + 1 + 3 + 20 + 255 + 2 * 64
    );
    assert_eq!(run.transition_cycles_low, 0);
}
