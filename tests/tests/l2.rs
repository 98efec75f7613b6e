//! Workspace-level tests of the below-Vcc-min L2:
//!
//! 1. the default perfect L2 is bit-identical to the pre-L2 hierarchy (the
//!    original goldens in `golden_figures.rs` already pin this at quick scale;
//!    here the equivalence is pinned structurally at campaign level);
//! 2. the matched-L2 scheme matrix — every registry scheme protecting both the
//!    L1s and the L2 — is pinned, byte for byte, to
//!    `tests/golden/l2_schemes.csv` at quick scale;
//! 3. a fault superset never increases any scheme's L2 capacity;
//! 4. the serial and parallel executors stay bit-identical with a faulty L2,
//!    including when word-disabling's whole-cache failure fires on the L2.
//!
//! Regenerate the golden snapshot (only for an intentional change) with:
//!
//! ```text
//! cargo run --release --bin vccmin-repro -- schemes --l2-scheme matched --csv \
//!     --out tests/golden/l2_schemes.csv
//! ```

use vccmin_core::cache::repair::registry;
use vccmin_core::cache::{CacheGeometry, DisablingScheme, FaultMap};
use vccmin_core::experiments::simulation::{
    FaultMapPool, GovernorStudy, SchemeMatrixStudy, SimulationParams,
};
use vccmin_core::experiments::L2Protection;
use vccmin_core::Benchmark;

const L2_SCHEMES: &str = include_str!("../golden/l2_schemes.csv");

fn smoke_params(l2: L2Protection) -> SimulationParams {
    SimulationParams {
        instructions: 5_000,
        workloads: vec![Benchmark::Crafty.into(), Benchmark::Gzip.into()],
        l2,
        ..SimulationParams::smoke()
    }
}

#[test]
fn quick_scale_matched_l2_matrix_matches_its_snapshot() {
    let params = SimulationParams {
        l2: L2Protection::Matched,
        ..SimulationParams::quick()
    };
    let study = SchemeMatrixStudy::run_with_pool(&params, &FaultMapPool::new(&params), false);
    assert_eq!(
        study.table().to_csv(),
        L2_SCHEMES,
        "the matched-L2 scheme matrix drifted from tests/golden/l2_schemes.csv; \
         if the change is intentional, regenerate the snapshot per the module docs"
    );
}

#[test]
fn l2_golden_snapshot_has_the_expected_shape() {
    let lines: Vec<&str> = L2_SCHEMES.lines().collect();
    assert_eq!(lines.len(), 28, "header + 26 benchmarks + mean");
    assert!(lines[0].starts_with("benchmark,"));
    assert!(lines[27].starts_with("mean,"));
    for line in &lines {
        // One key column plus (avg, min) per non-baseline registry scheme.
        assert_eq!(line.split(',').count(), 1 + 2 * (registry().len() - 1));
    }
}

#[test]
fn perfect_l2_campaign_is_bit_identical_to_a_baseline_protected_one() {
    // `Fixed(Baseline)` routes through the full L2 plumbing (scheme resolution,
    // map-dependence tests, job splitting) yet must reproduce the default
    // perfect-L2 campaign exactly, because the baseline scheme ignores faults.
    let perfect = smoke_params(L2Protection::Perfect);
    let baseline = smoke_params(L2Protection::Fixed(DisablingScheme::Baseline));
    // The two differ only in the L2 protection, so they share one pool.
    let pool = FaultMapPool::new(&perfect);
    let perfect = SchemeMatrixStudy::run_with_pool(&perfect, &pool, true);
    let baseline = SchemeMatrixStudy::run_with_pool(&baseline, &pool, true);
    assert_eq!(perfect, baseline);
}

#[test]
fn faulty_l2_costs_performance() {
    // Raw IPC comparison: the block-disabled L2 loses ~40% of its blocks at
    // pfail = 0.001, so no configuration may gain more than out-of-order
    // scheduling noise, and the campaign as a whole must lose ground.
    let perfect = smoke_params(L2Protection::Perfect);
    let faulty = smoke_params(L2Protection::Fixed(DisablingScheme::BlockDisabling));
    let pool = FaultMapPool::new(&perfect);
    let perfect = SchemeMatrixStudy::run_with_pool(&perfect, &pool, true);
    let faulty = SchemeMatrixStudy::run_with_pool(&faulty, &pool, true);
    let mut perfect_total = 0.0;
    let mut faulty_total = 0.0;
    for (p, f) in perfect.workloads.iter().zip(&faulty.workloads) {
        for (pc, fc) in p.configs.iter().zip(&f.configs) {
            assert_eq!(pc.scheme, fc.scheme);
            assert!(
                fc.mean_ipc() <= pc.mean_ipc() * (1.0 + 1e-3),
                "{} {}: a faulty L2 ({}) must not beat a perfect one ({})",
                p.workload.name(),
                pc.scheme,
                fc.mean_ipc(),
                pc.mean_ipc()
            );
            perfect_total += pc.mean_ipc();
            faulty_total += fc.mean_ipc();
        }
    }
    assert!(
        faulty_total < perfect_total,
        "the faulty L2 must cost performance overall ({faulty_total} vs {perfect_total})"
    );
}

#[test]
fn l2_fault_superset_never_increases_any_schemes_capacity() {
    let l2 = CacheGeometry::ispass2010_l2();
    for seed in 0..4u64 {
        let a = FaultMap::generate(&l2, 0.001, seed);
        let b = FaultMap::generate(&l2, 0.001, 1_000 + seed);
        let superset = a.union(&b);
        for scheme in registry() {
            let base = scheme.effective_capacity(&a).unwrap_or(0.0);
            let more = scheme.effective_capacity(&superset).unwrap_or(0.0);
            assert!(
                more <= base + 1e-12,
                "{} seed {seed}: capacity grew from {base} to {more} under extra L2 faults",
                scheme.name()
            );
        }
    }
}

#[test]
fn serial_and_parallel_stay_bit_identical_with_a_faulty_l2() {
    for l2 in [
        L2Protection::Fixed(DisablingScheme::BlockDisabling),
        L2Protection::Fixed(DisablingScheme::BitFix),
        L2Protection::Matched,
    ] {
        let params = smoke_params(l2);
        let pool = FaultMapPool::new(&params);
        let serial = SchemeMatrixStudy::run_with_pool(&params, &pool, true);
        let parallel = SchemeMatrixStudy::run_with_pool(&params, &pool, false);
        assert_eq!(serial, parallel, "L2 {l2:?}");
        assert_eq!(serial.table(), parallel.table());
    }
}

#[test]
fn l2_whole_cache_failures_are_counted_and_stay_bit_identical() {
    // At pfail = 0.005 the 2 MB L2 word-disable organization fails with near
    // certainty on every map, while the L1s usually survive — the failures
    // must come from the L2 path and agree across executors.
    let mut params = smoke_params(L2Protection::Fixed(DisablingScheme::WordDisabling));
    params.pfail = 0.005;
    params.workloads = vec![Benchmark::Swim.into()];
    let pool = FaultMapPool::new(&params);
    let serial = SchemeMatrixStudy::run_with_pool(&params, &pool, true);
    let parallel = SchemeMatrixStudy::run_with_pool(&params, &pool, false);
    assert_eq!(serial, parallel);
    let failures: usize = serial
        .workloads
        .iter()
        .flat_map(|b| b.configs.iter())
        .map(|c| c.whole_cache_failures)
        .sum();
    assert!(
        failures > 0,
        "expected L2 whole-cache failures at pfail = {}",
        params.pfail
    );
}

#[test]
fn governor_with_protected_l2_stays_bit_identical_and_charges_more_per_switch() {
    let perfect = smoke_params(L2Protection::Perfect);
    let protected = smoke_params(L2Protection::Fixed(DisablingScheme::BlockDisabling));
    let pool = FaultMapPool::new(&perfect);
    let serial = GovernorStudy::run_with_pool(&protected, &pool, true);
    let parallel = GovernorStudy::run_with_pool(&protected, &pool, false);
    assert_eq!(serial, parallel);
    let reference = GovernorStudy::run_with_pool(&perfect, &pool, true);
    for (p, f) in reference.workloads.iter().zip(&serial.workloads) {
        // Policy index 2 is the interval policy: it transitions, so the
        // block-disabled L2 must charge its per-set reconfiguration on top of
        // the L1s' on every evaluated map.
        for (pr, fr) in p.policies[2].runs.iter().zip(&f.policies[2].runs) {
            assert!(fr.transitions > 0);
            assert!(
                fr.transition_cycles() > pr.transition_cycles(),
                "{}: protected-L2 transitions must cost more ({} vs {})",
                p.workload.name(),
                fr.transition_cycles(),
                pr.transition_cycles()
            );
        }
    }
}
