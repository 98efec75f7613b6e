//! Proves that the campaign job map returns the same results on the rayon
//! pool as on the calling thread (`--serial`) — same `BenchmarkResult`s,
//! same rendered figure tables — at the
//! scale of `SimulationParams::quick()` (all 26 benchmarks, 5 fault-map
//! pairs). The instruction count is reduced so the double campaign stays
//! test-suite friendly; the fan-out shape (benchmark × configuration ×
//! fault-map pair) is exactly the `quick()` one.

use vccmin_core::experiments::simulation::{
    FaultMapPool, GovernorStudy, HighVoltageStudy, LowVoltageStudy, SchemeMatrixStudy,
    SimulationParams,
};

// On single-CPU machines the parallel executor degenerates to one worker; CI
// exports RAYON_NUM_THREADS=4 (read at pool setup by both the vendored shim
// and the real rayon) so these tests exercise genuinely concurrent execution
// there. Setting the variable from inside the tests would race between
// concurrently scheduled tests and be ignored by real rayon's global pool.
fn quick_scale_params() -> SimulationParams {
    SimulationParams {
        instructions: 4_000,
        ..SimulationParams::quick()
    }
}

#[test]
fn parallel_low_voltage_study_is_bit_identical_to_serial_at_quick_scale() {
    let params = quick_scale_params();
    assert_eq!(params.workloads.len(), 26, "quick() covers all benchmarks");
    assert_eq!(params.fault_map_pairs, 5);

    let pool = FaultMapPool::new(&params);
    let serial = LowVoltageStudy::run_with_pool(&params, &pool, true);
    let parallel = LowVoltageStudy::run_with_pool(&params, &pool, false);

    // Structural equality of every SimResult of every fault-map pair…
    assert_eq!(serial, parallel);
    // …and byte-identical rendered figure tables.
    for (s, p) in [
        (serial.figure8(), parallel.figure8()),
        (serial.figure9(), parallel.figure9()),
        (serial.figure10(), parallel.figure10()),
    ] {
        assert_eq!(s, p);
        assert_eq!(s.to_string(), p.to_string());
        assert_eq!(s.to_csv(), p.to_csv());
    }
}

#[test]
fn parallel_high_voltage_study_is_bit_identical_to_serial_at_quick_scale() {
    let params = quick_scale_params();
    let pool = FaultMapPool::new(&params);
    let serial = HighVoltageStudy::run_with_pool(&params, &pool, true);
    let parallel = HighVoltageStudy::run_with_pool(&params, &pool, false);
    assert_eq!(serial, parallel);
    for (s, p) in [
        (serial.figure11(), parallel.figure11()),
        (serial.figure12(), parallel.figure12()),
    ] {
        assert_eq!(s, p);
        assert_eq!(s.to_string(), p.to_string());
        assert_eq!(s.to_csv(), p.to_csv());
    }
}

#[test]
fn parallel_scheme_matrix_study_is_bit_identical_to_serial_at_quick_scale() {
    let params = quick_scale_params();
    let pool = FaultMapPool::new(&params);
    let serial = SchemeMatrixStudy::run_with_pool(&params, &pool, true);
    let parallel = SchemeMatrixStudy::run_with_pool(&params, &pool, false);
    assert_eq!(serial, parallel);
    assert_eq!(serial.schemes(), parallel.schemes());
    let (s, p) = (serial.table(), parallel.table());
    assert_eq!(s, p);
    assert_eq!(s.to_string(), p.to_string());
    assert_eq!(s.to_csv(), p.to_csv());
}

#[test]
fn parallel_governor_study_is_bit_identical_to_serial_at_quick_scale() {
    let params = quick_scale_params();
    let pool = FaultMapPool::new(&params);
    let serial = GovernorStudy::run_with_pool(&params, &pool, true);
    let parallel = GovernorStudy::run_with_pool(&params, &pool, false);
    // Structural equality of every governed segment of every fault-map pair…
    assert_eq!(serial, parallel);
    // …and byte-identical rendered figure tables.
    let (s, p) = (serial.table(), parallel.table());
    assert_eq!(s, p);
    assert_eq!(s.to_string(), p.to_string());
    assert_eq!(s.to_csv(), p.to_csv());
}

#[test]
fn repeated_parallel_runs_are_reproducible() {
    let mut params = quick_scale_params();
    params.workloads.truncate(4);
    params.instructions = 3_000;
    // A pool per run, so the maps are regenerated too.
    let a = LowVoltageStudy::run_with_pool(&params, &FaultMapPool::new(&params), false);
    let b = LowVoltageStudy::run_with_pool(&params, &FaultMapPool::new(&params), false);
    assert_eq!(a, b, "parallel scheduling must not leak into results");
}
