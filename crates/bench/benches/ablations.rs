//! Ablation benches for the model's main design choices:
//!
//! * sensitivity of block-disabling capacity to the block size (the analytical side
//!   of Fig. 6, plus a simulated IPC check);
//! * sensitivity of the block-disabled cache to the per-cell failure probability;
//! * sensitivity of the victim-cache benefit to its entry count;
//! * the cost of the probability analysis primitives used throughout (urn model vs
//!   closed form);
//! * the run-level cost of each CPU backend on the identical trace (the
//!   out-of-order cycle loop vs the in-order per-instruction model) — reported
//!   for visibility, not gated like the hierarchy bench.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use vccmin_core::analysis::block_faults;
use vccmin_core::cache::{DisablingScheme, HierarchyConfig, VictimCacheConfig, VoltageMode};
use vccmin_core::{
    ArrayGeometry, Benchmark, CacheGeometry, CacheHierarchy, CoreModel, CpuConfig, FaultMap,
    Pipeline, TraceGenerator,
};

fn run_block_disabled(pfail: f64, victim_entries: Option<usize>, instructions: u64) -> f64 {
    let geom = CacheGeometry::ispass2010_l1();
    let mi = FaultMap::generate(&geom, pfail, 11);
    let md = FaultMap::generate(&geom, pfail, 22);
    let mut cfg = HierarchyConfig::ispass2010(DisablingScheme::BlockDisabling, VoltageMode::Low);
    if let Some(entries) = victim_entries {
        cfg = cfg.with_victim_caches(VictimCacheConfig {
            entries,
            ..VictimCacheConfig::ispass2010_10t()
        });
    }
    let hierarchy =
        CacheHierarchy::with_all_fault_maps(cfg, Some(&mi), Some(&md), None).expect("maps fit");
    let mut pipeline = Pipeline::new(CpuConfig::ispass2010(), hierarchy);
    let mut trace = TraceGenerator::new(&Benchmark::Crafty.profile(), 42);
    pipeline.run(&mut trace, Some(instructions)).ipc()
}

fn bench_pfail_sensitivity(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_pfail");
    group.sample_size(10).measurement_time(Duration::from_secs(10));
    for &pfail in &[0.0005, 0.001, 0.002] {
        let ipc = run_block_disabled(pfail, None, 20_000);
        println!("[ablation_pfail] crafty, block-disable, pfail={pfail}: IPC={ipc:.3}");
        group.bench_with_input(BenchmarkId::from_parameter(pfail), &pfail, |b, &p| {
            b.iter(|| black_box(run_block_disabled(black_box(p), None, 20_000)))
        });
    }
    group.finish();
}

fn bench_victim_entries(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_victim_entries");
    group.sample_size(10).measurement_time(Duration::from_secs(10));
    for &entries in &[4usize, 8, 16, 32] {
        let ipc = run_block_disabled(0.001, Some(entries), 20_000);
        println!("[ablation_victim] crafty, block-disable, {entries}-entry V$: IPC={ipc:.3}");
        group.bench_with_input(BenchmarkId::from_parameter(entries), &entries, |b, &e| {
            b.iter(|| black_box(run_block_disabled(0.001, Some(black_box(e)), 20_000)))
        });
    }
    group.finish();
}

fn run_core(core: CoreModel, instructions: u64) -> f64 {
    let cfg = HierarchyConfig::ispass2010_baseline_high_voltage();
    let hierarchy = CacheHierarchy::new(cfg);
    let mut cpu = core.build(hierarchy);
    let mut trace = TraceGenerator::new(&Benchmark::Crafty.profile(), 42);
    cpu.run(&mut trace, Some(instructions)).ipc()
}

fn bench_core_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_core_model");
    group.sample_size(10).measurement_time(Duration::from_secs(10));
    for core in CoreModel::ALL {
        let ipc = run_core(core, 20_000);
        println!("[ablation_core_model] crafty, {core} core: IPC={ipc:.3}");
        group.bench_with_input(BenchmarkId::from_parameter(core), &core, |b, &m| {
            b.iter(|| black_box(run_core(black_box(m), 20_000)))
        });
    }
    group.finish();
}

fn bench_analysis_primitives(c: &mut Criterion) {
    let geom = ArrayGeometry::ispass2010_l1();
    for &block_bytes in &[32u64, 64, 128] {
        let g = geom.with_block_bytes(block_bytes).unwrap();
        println!(
            "[ablation_block_size] {block_bytes} B blocks: capacity at pfail=0.001 = {:.1}%",
            100.0 * block_faults::mean_capacity(&g, 0.001)
        );
    }
    let mut group = c.benchmark_group("ablation_analysis_primitives");
    group.bench_function("urn_model_exact_eq1", |b| {
        b.iter(|| black_box(block_faults::mean_faulty_blocks_exact(&geom, black_box(275)).unwrap()))
    });
    group.bench_function("closed_form_eq2", |b| {
        b.iter(|| black_box(block_faults::mean_faulty_blocks(&geom, black_box(0.001))))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pfail_sensitivity,
    bench_victim_entries,
    bench_core_models,
    bench_analysis_primitives
);
criterion_main!(benches);
