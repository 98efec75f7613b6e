//! Benchmarks (and regeneration) of the simulation figures: Fig. 8 (low voltage,
//! no-victim-cache baseline), Fig. 9 (low voltage, victim-cache baseline), Fig. 10
//! (6T vs 10T victim cells), Fig. 11 and Fig. 12 (high voltage).
//!
//! Each bench regenerates the corresponding figure from a scaled-down campaign (a
//! subset of benchmarks, short traces, a few fault-map pairs) and prints its series
//! means, so the bench log reports the same who-wins-by-how-much comparison the
//! paper makes. The full-scale campaign is available via the `vccmin-repro` CLI.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use vccmin_bench::bench_params;
use vccmin_core::experiments::report::FigureTable;
use vccmin_core::experiments::simulation::{FaultMapPool, HighVoltageStudy, LowVoltageStudy};

fn print_means(tag: &str, table: &FigureTable) {
    let means: Vec<String> = table
        .series_labels
        .iter()
        .zip(table.series_means())
        .map(|(label, mean)| format!("{label}={:.1}%", 100.0 * mean.unwrap_or(0.0)))
        .collect();
    println!("[{tag}] {}", means.join("  "));
}

fn bench_low_voltage(c: &mut Criterion) {
    let params = bench_params();
    // Regenerate the figures once and print the headline means.
    let study = LowVoltageStudy::run_with_pool(&params, &FaultMapPool::new(&params), true);
    print_means("fig8", &study.figure8());
    print_means("fig9", &study.figure9());
    print_means("fig10", &study.figure10());

    let mut group = c.benchmark_group("simulation_low_voltage");
    group.sample_size(10).measurement_time(Duration::from_secs(20));
    group.bench_function("fig08_fig09_fig10_lowvolt_campaign", |b| {
        // A fresh pool per run, so each run also generates its fault maps.
        b.iter(|| {
            let params = black_box(&params);
            black_box(LowVoltageStudy::run_with_pool(
                params,
                &FaultMapPool::new(params),
                true,
            ))
        })
    });
    group.bench_function("fig08_lowvolt_no_vc_baseline", |b| {
        b.iter(|| black_box(study.figure8()))
    });
    group.bench_function("fig09_lowvolt_vc_baseline", |b| {
        b.iter(|| black_box(study.figure9()))
    });
    group.bench_function("fig10_victim_cell_type", |b| {
        b.iter(|| black_box(study.figure10()))
    });
    group.finish();
}

fn bench_high_voltage(c: &mut Criterion) {
    let params = bench_params();
    let study = HighVoltageStudy::run_with_pool(&params, &FaultMapPool::new(&params), true);
    print_means("fig11", &study.figure11());
    print_means("fig12", &study.figure12());

    let mut group = c.benchmark_group("simulation_high_voltage");
    group.sample_size(10).measurement_time(Duration::from_secs(20));
    group.bench_function("fig11_fig12_highvolt_campaign", |b| {
        b.iter(|| {
            let params = black_box(&params);
            black_box(HighVoltageStudy::run_with_pool(
                params,
                &FaultMapPool::new(params),
                true,
            ))
        })
    });
    group.bench_function("fig11_highvolt_no_vc", |b| {
        b.iter(|| black_box(study.figure11()))
    });
    group.bench_function("fig12_highvolt_vc", |b| {
        b.iter(|| black_box(study.figure12()))
    });
    group.finish();
}

criterion_group!(benches, bench_low_voltage, bench_high_voltage);
criterion_main!(benches);
