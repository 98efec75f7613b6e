//! Cross-crate integration tests: the full workload → CPU → cache → statistics
//! pipeline, exercised through the experiment harness.

use vccmin_core::experiments::simulation::{
    FaultMapPool, HighVoltageStudy, LowVoltageStudy, SimulationParams,
};
use vccmin_core::{Benchmark, SchemeConfig};

fn smoke_params() -> SimulationParams {
    SimulationParams {
        instructions: 12_000,
        fault_map_pairs: 2,
        workloads: vec![
            Benchmark::Crafty.into(),
            Benchmark::Gzip.into(),
            Benchmark::Swim.into(),
        ],
        ..SimulationParams::smoke()
    }
}

#[test]
fn low_voltage_study_reproduces_the_papers_ordering() {
    let params = smoke_params();
    let study = LowVoltageStudy::run_with_pool(&params, &FaultMapPool::new(&params), false);
    assert_eq!(study.workloads.len(), 3);

    let word = study.average_normalized(SchemeConfig::WordDisabling, SchemeConfig::Baseline);
    let block = study.average_normalized(SchemeConfig::BlockDisabling, SchemeConfig::Baseline);
    let block_vc =
        study.average_normalized(SchemeConfig::BlockDisablingVictim10T, SchemeConfig::Baseline);

    // Every scheme loses performance relative to the ideal baseline, but none should
    // collapse (all the schemes keep at least half the cache).
    for v in [word, block, block_vc] {
        assert!(v > 0.5 && v <= 1.01, "normalized performance out of range: {v}");
    }
    // The paper's headline ordering: block-disabling beats word-disabling, and the
    // victim cache helps block-disabling further.
    assert!(
        block > word,
        "block disabling ({block}) should outperform word disabling ({word})"
    );
    assert!(
        block_vc >= block - 1e-6,
        "a victim cache should not hurt block disabling ({block_vc} vs {block})"
    );
}

#[test]
fn low_voltage_figures_have_one_row_per_benchmark_and_sane_values() {
    let params = smoke_params();
    let study = LowVoltageStudy::run_with_pool(&params, &FaultMapPool::new(&params), false);
    for table in [study.figure8(), study.figure9(), study.figure10()] {
        assert_eq!(table.rows.len(), params.workloads.len());
        for (bench, values) in &table.rows {
            for v in values {
                let v = v.expect("simulation tables have no missing cells");
                assert!(
                    (0.1..=1.5).contains(&v),
                    "{bench}: normalized value {v} outside sanity range in '{}'",
                    table.title
                );
            }
        }
        // The mean row must be the mean of the per-benchmark rows.
        let means = table.series_means();
        assert_eq!(means.len(), table.series_labels.len());
    }
}

#[test]
fn minimum_performance_never_exceeds_average_performance() {
    let params = smoke_params();
    let study = LowVoltageStudy::run_with_pool(&params, &FaultMapPool::new(&params), false);
    for b in &study.workloads {
        for scheme in [
            SchemeConfig::BlockDisabling,
            SchemeConfig::BlockDisablingVictim10T,
            SchemeConfig::BlockDisablingVictim6T,
        ] {
            let avg = b.normalized_mean(scheme, SchemeConfig::Baseline);
            let min = b.normalized_min(scheme, SchemeConfig::Baseline);
            assert!(
                min <= avg + 1e-9,
                "{}: min ({min}) exceeds avg ({avg}) for {scheme}",
                b.workload
            );
        }
    }
}

#[test]
fn high_voltage_block_disabling_matches_the_baseline_exactly() {
    let mut params = smoke_params();
    params.workloads = vec![Benchmark::Crafty.into(), Benchmark::Mcf.into()];
    let study = HighVoltageStudy::run_with_pool(&params, &FaultMapPool::new(&params), false);
    let fig11 = study.figure11();
    for (bench, values) in &fig11.rows {
        let word = values[0].expect("simulation tables have no missing cells");
        let block = values[1].expect("simulation tables have no missing cells");
        assert!(
            (block - 1.0).abs() < 1e-9,
            "{bench}: block disabling must be transparent at high voltage, got {block}"
        );
        assert!(
            word < 1.0,
            "{bench}: word disabling pays its alignment-network cycle at high voltage, got {word}"
        );
    }
    // Figure 12 (both with victim caches): block disabling again matches its baseline.
    for (_, values) in &study.figure12().rows {
        assert!((values[1].unwrap() - 1.0).abs() < 1e-9);
        assert!(values[0].unwrap() < 1.0);
    }
}

#[test]
fn campaigns_are_reproducible_for_a_fixed_seed() {
    let params = SimulationParams {
        instructions: 8_000,
        fault_map_pairs: 2,
        workloads: vec![Benchmark::Gzip.into()],
        ..SimulationParams::smoke()
    };
    // Each run regenerates its maps from the seed in a pool of its own.
    let run = |params: &SimulationParams| {
        LowVoltageStudy::run_with_pool(params, &FaultMapPool::new(params), true)
    };
    let a = run(&params);
    let b = run(&params);
    assert_eq!(a.figure8().rows, b.figure8().rows);

    let mut other = params;
    other.master_seed ^= 0xdead_beef;
    let c = run(&other);
    // A different seed draws different fault maps, so the block-disabling columns
    // (which depend on them) are allowed to differ; the table shape stays the same.
    assert_eq!(a.figure8().rows.len(), c.figure8().rows.len());
}
