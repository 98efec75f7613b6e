//! Golden-figure regression tests: the quick()-scale figure tables are pinned,
//! byte for byte, to checked-in CSV snapshots under `tests/golden/`.
//!
//! Figures 8–12 were captured from the enum-dispatch implementation *before*
//! the `RepairScheme` trait refactor, so these tests prove the refactor (and
//! any future one) does not shift the paper's results. The scheme-matrix table
//! pins the two post-paper schemes (bit-fix, way-sacrifice) the same way.
//!
//! Every campaign below derives all randomness from `SimulationParams::quick()`'s
//! fixed master seed, and the parallel executor is bit-identical to the serial
//! reference by construction (see `serial_parallel_equivalence.rs`), so the
//! snapshots are stable across machines and thread counts.
//!
//! If a change *intentionally* alters results, regenerate the snapshots with:
//!
//! ```text
//! cargo run --release --bin vccmin-repro -- lowvolt  --csv   # figs 8-10
//! cargo run --release --bin vccmin-repro -- highvolt --csv   # figs 11-12
//! cargo run --release --bin vccmin-repro -- schemes  --csv   # scheme matrix
//! cargo run --release --bin vccmin-repro -- governor --csv   # governor study
//! ```
//!
//! and split the output into one file per table (28 lines each: header, 26
//! benchmarks, mean; summary lines go to stderr and never pollute the CSV) —
//! then say so loudly in the commit message.

use vccmin_core::experiments::simulation::{
    FaultMapPool, GovernorStudy, HighVoltageStudy, LowVoltageStudy, SchemeMatrixStudy,
    SimulationParams,
};

const FIG8: &str = include_str!("../golden/fig8.csv");
const FIG9: &str = include_str!("../golden/fig9.csv");
const FIG10: &str = include_str!("../golden/fig10.csv");
const FIG11: &str = include_str!("../golden/fig11.csv");
const FIG12: &str = include_str!("../golden/fig12.csv");
const SCHEME_MATRIX: &str = include_str!("../golden/scheme_matrix.csv");
const GOVERNOR: &str = include_str!("../golden/governor.csv");

fn assert_matches_golden(actual: &str, golden: &str, figure: &str) {
    assert_eq!(
        actual, golden,
        "{figure} drifted from its golden snapshot (tests/golden/); \
         if the change is intentional, regenerate the snapshot per the module docs"
    );
}

#[test]
fn quick_scale_low_voltage_figures_match_the_pre_refactor_snapshots() {
    let params = SimulationParams::quick();
    let study = LowVoltageStudy::run_with_pool(&params, &FaultMapPool::new(&params), false);
    assert_matches_golden(&study.figure8().to_csv(), FIG8, "figure 8");
    assert_matches_golden(&study.figure9().to_csv(), FIG9, "figure 9");
    assert_matches_golden(&study.figure10().to_csv(), FIG10, "figure 10");
}

#[test]
fn quick_scale_high_voltage_figures_match_the_pre_refactor_snapshots() {
    let params = SimulationParams::quick();
    let study = HighVoltageStudy::run_with_pool(&params, &FaultMapPool::new(&params), false);
    assert_matches_golden(&study.figure11().to_csv(), FIG11, "figure 11");
    assert_matches_golden(&study.figure12().to_csv(), FIG12, "figure 12");
}

#[test]
fn quick_scale_scheme_matrix_matches_its_snapshot() {
    let params = SimulationParams::quick();
    let study = SchemeMatrixStudy::run_with_pool(&params, &FaultMapPool::new(&params), false);
    assert_matches_golden(&study.table().to_csv(), SCHEME_MATRIX, "scheme matrix");
}

#[test]
fn quick_scale_governor_study_matches_its_snapshot() {
    let params = SimulationParams::quick();
    let study = GovernorStudy::run_with_pool(&params, &FaultMapPool::new(&params), false);
    assert_matches_golden(&study.table().to_csv(), GOVERNOR, "governor study");
}

#[test]
fn golden_snapshots_have_the_expected_shape() {
    // A cheap structural guard so a bad regeneration (wrong split, truncated
    // file) fails fast with a clear message instead of a huge diff.
    for (name, golden, columns) in [
        ("fig8", FIG8, 5),
        ("fig9", FIG9, 3),
        ("fig10", FIG10, 5),
        ("fig11", FIG11, 3),
        ("fig12", FIG12, 2),
        ("scheme_matrix", SCHEME_MATRIX, 8),
        ("governor", GOVERNOR, 9),
    ] {
        let lines: Vec<&str> = golden.lines().collect();
        assert_eq!(lines.len(), 28, "{name}: header + 26 benchmarks + mean");
        assert!(lines[0].starts_with("benchmark,"), "{name} header: {}", lines[0]);
        assert!(lines[27].starts_with("mean,"), "{name} footer: {}", lines[27]);
        for line in &lines {
            assert_eq!(
                line.split(',').count(),
                columns + 1,
                "{name}: every row has a key and {columns} series values"
            );
        }
    }
}
