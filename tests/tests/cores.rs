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
//!    generalization the out-of-order backend pins in `governor.rs`;
//! 5. the in-order core fed its trace in slices of 1, 7 and 4096
//!    instructions (`begin`, `feed`, `finish`) gives the result of its
//!    whole-trace run, for every scheme, voltage and L2 protection, for
//!    non-default configurations, across consecutive runs with
//!    `reset_stats`, and on random inputs (`pipeline_hot_path.rs` holds the
//!    out-of-order core to the same against its frozen reference).
//!
//! Regenerate the golden snapshot (only for an intentional change) with:
//!
//! ```text
//! cargo run --release --bin vccmin-repro -- core-matrix --csv \
//!     --out tests/golden/core_matrix.csv
//! ```

use proptest::prelude::*;

use vccmin_core::cache::{
    CacheGeometry, CacheHierarchy, DisablingScheme, FaultMap, HierarchyConfig, VoltageMode,
};
use vccmin_core::cpu::{CoreModel, CpuConfig, InOrderCore, SimResult, TraceInstruction};
use vccmin_core::experiments::simulation::{
    CoreMatrixStudy, FaultMapPool, HighVoltageStudy, LowVoltageStudy, SchemeMatrixStudy,
    SimulationParams,
};
use vccmin_core::experiments::{run_governed, GovernedRunSpec, GovernorPolicy, SchemeConfig};
use vccmin_core::{Benchmark, TraceGenerator};

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

// ---------------------------------------------------------------------------
// Chunked in-order runs against the whole-trace run.
// ---------------------------------------------------------------------------

/// Slice sizes the chunked runs take their trace in: one instruction at a
/// time, an odd size, and one larger than every trace here.
const CHUNK_SIZES: [usize; 3] = [1, 7, 4096];

/// A trace that switches benchmark every 1,500 instructions, so one run sees
/// several instruction mixes and working sets.
fn mixed_trace(seed: u64, len: usize) -> Vec<TraceInstruction> {
    let benchmarks = [Benchmark::Gzip, Benchmark::Mcf, Benchmark::Swim, Benchmark::Crafty];
    (0..len.div_ceil(1_500))
        .flat_map(|k| {
            let profile = benchmarks[(seed as usize + k) % benchmarks.len()].profile();
            TraceGenerator::new(&profile, seed ^ k as u64).take(1_500)
        })
        .take(len)
        .collect()
}

/// The hierarchy of `scheme` at `voltage` with fixed fault maps, or `None`
/// if the scheme cannot repair them.
fn mapped_hierarchy(
    scheme: DisablingScheme,
    voltage: VoltageMode,
    faulty_l2: bool,
) -> Option<CacheHierarchy> {
    let l1 = CacheGeometry::ispass2010_l1();
    let mut config = HierarchyConfig::ispass2010(scheme, voltage);
    if faulty_l2 {
        config = config.with_l2_scheme(scheme);
    }
    CacheHierarchy::with_all_fault_maps(
        config,
        Some(&FaultMap::generate(&l1, 0.001, 0xC0DE)),
        Some(&FaultMap::generate(&l1, 0.001, 0xDA7A)),
        Some(&FaultMap::generate(&CacheGeometry::ispass2010_l2(), 0.001, 0x12)),
    )
    .ok()
}

/// Feeds `trace` to `core` in slices of `size` instructions.
fn run_chunked(
    core: &mut InOrderCore,
    trace: &[TraceInstruction],
    cap: Option<u64>,
    size: usize,
) -> SimResult {
    core.begin(cap);
    for chunk in trace.chunks(size) {
        core.feed(chunk);
    }
    core.finish()
}

/// The whole-trace run of `trace` (one `run` over the trace), and the
/// results of the same core fed slices of each of [`CHUNK_SIZES`], each with
/// its slice size.
fn whole_and_chunked(
    config: CpuConfig,
    hierarchy: &CacheHierarchy,
    trace: &[TraceInstruction],
    cap: Option<u64>,
) -> (SimResult, Vec<(usize, SimResult)>) {
    let core = || InOrderCore::new(config, hierarchy.clone()).expect("a valid configuration");
    let whole = core().run(&mut trace.iter().copied(), cap);
    let chunked = CHUNK_SIZES
        .iter()
        .map(|&size| (size, run_chunked(&mut core(), trace, cap, size)))
        .collect();
    (whole, chunked)
}

/// Non-default in-order configurations: single units, no front-end depth,
/// a short gshare history and a deep front end.
fn in_order_configs() -> Vec<(&'static str, CpuConfig)> {
    let paper = CpuConfig::ispass2010();
    vec![
        ("table-ii", paper),
        (
            "single-units",
            CpuConfig { int_alus: 1, int_muls: 1, mem_ports: 1, ..paper },
        ),
        ("no-front-end", CpuConfig { front_end_depth: 0, ..paper }),
        (
            "short-history-deep-front-end",
            CpuConfig { gshare_history_bits: 4, front_end_depth: 20, ..paper },
        ),
    ]
}

#[test]
fn chunked_in_order_runs_match_the_whole_trace_run() {
    let trace = mixed_trace(0x5EED, 6_000);
    let mut compared = 0;
    for &scheme in &DisablingScheme::ALL {
        for voltage in [VoltageMode::High, VoltageMode::Low] {
            for faulty_l2 in [false, true] {
                let Some(hierarchy) = mapped_hierarchy(scheme, voltage, faulty_l2) else {
                    continue;
                };
                for cap in [None, Some(4_321)] {
                    let (whole, chunked) =
                        whole_and_chunked(CpuConfig::ispass2010(), &hierarchy, &trace, cap);
                    for (size, got) in chunked {
                        assert_eq!(
                            got, whole,
                            "{scheme:?} at {voltage:?}, faulty L2 {faulty_l2}, cap {cap:?}, \
                             chunks of {size}"
                        );
                    }
                    compared += 1;
                }
            }
        }
    }
    assert!(compared >= 32, "only {compared} hierarchies were repairable");
}

#[test]
fn chunked_in_order_runs_match_for_non_default_configs() {
    let hierarchy = mapped_hierarchy(DisablingScheme::BlockDisabling, VoltageMode::Low, true)
        .expect("block disabling repairs the maps");
    for seed in 0..3 {
        let trace = mixed_trace(0xC0F1_6000 + seed, 4_000);
        for (label, config) in in_order_configs() {
            for cap in [None, Some(2_777)] {
                let (whole, chunked) = whole_and_chunked(config, &hierarchy, &trace, cap);
                for (size, got) in chunked {
                    assert_eq!(got, whole, "{label}, seed {seed}, cap {cap:?}, chunks of {size}");
                }
            }
        }
    }
}

#[test]
fn consecutive_chunked_in_order_runs_with_reset_stats_match() {
    // The governor's pattern: one core runs consecutive segments, with
    // statistics reset but cache and predictor state carried between them.
    let hierarchy = mapped_hierarchy(DisablingScheme::WordDisabling, VoltageMode::Low, false)
        .expect("word disabling repairs the maps");
    for (label, config) in in_order_configs() {
        let core = || InOrderCore::new(config, hierarchy.clone()).expect("a valid configuration");
        let mut whole = core();
        let mut chunked = CHUNK_SIZES.map(|size| (size, core()));
        for (segment, seed) in [0xA11u64, 0xB22].into_iter().enumerate() {
            let trace = mixed_trace(seed, 3_000);
            let cap = (segment == 1).then_some(2_500);
            let want = whole.run(&mut trace.iter().copied(), cap);
            whole.reset_stats();
            for (size, core) in &mut chunked {
                let got = run_chunked(core, &trace, cap, *size);
                assert_eq!(got, want, "{label}, segment {segment}, chunks of {size}");
                core.reset_stats();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random traces, schemes, voltages, L2 protection, configurations and
    /// caps: chunked in-order runs equal the whole-trace run.
    #[test]
    fn chunked_in_order_runs_match_under_random_inputs(
        seed in any::<u64>(),
        len in 1usize..5_000,
        hierarchy_pick in (0usize..5, any::<bool>(), any::<bool>()),
        config_index in 0usize..4,
        cap in 0u64..5_500,
    ) {
        let (scheme_index, low_voltage, faulty_l2) = hierarchy_pick;
        let scheme = DisablingScheme::ALL[scheme_index];
        let voltage = if low_voltage { VoltageMode::Low } else { VoltageMode::High };
        let Some(hierarchy) = mapped_hierarchy(scheme, voltage, faulty_l2) else {
            return Ok(());
        };
        let (label, config) = in_order_configs()[config_index];
        let trace = mixed_trace(seed, len);
        // Caps below, at and above the trace length; 0 means no cap.
        let cap = (cap > 0).then_some(cap);
        let (whole, chunked) = whole_and_chunked(config, &hierarchy, &trace, cap);
        for (size, got) in chunked {
            prop_assert_eq!(
                got,
                whole,
                "{label} {scheme:?} {voltage:?} faulty L2 {faulty_l2} cap {cap:?} chunks of {size}"
            );
        }
    }
}
