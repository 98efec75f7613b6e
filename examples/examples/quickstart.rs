//! Quickstart: the whole library in one page.
//!
//! 1. Ask the probability analysis how much cache survives below Vcc-min.
//! 2. Sample a fault map and build a block-disabled cache hierarchy.
//! 3. Run a workload on the cycle-level core and compare against the baseline.
//!
//! Run with: `cargo run --release -p vccmin-examples --example quickstart`

use vccmin_core::analysis::{block_faults, capacity::CapacityDistribution};
use vccmin_core::cache::{DisablingScheme, HierarchyConfig, VoltageMode};
use vccmin_core::{
    ArrayGeometry, Benchmark, CacheGeometry, CacheHierarchy, CpuConfig, FaultMap, Pipeline,
    TraceGenerator,
};

fn main() {
    let pfail = 0.001;

    // ---------------------------------------------------------------- analysis --
    let array = ArrayGeometry::ispass2010_l1();
    let mean_capacity = block_faults::mean_capacity(&array, pfail);
    let dist = CapacityDistribution::new(&array, pfail);
    println!("== probability analysis (32 KB, 8-way, 64 B blocks, pfail = {pfail}) ==");
    println!("expected faulty cells      : {:.0}", block_faults::expected_faulty_cells(&array, pfail));
    println!("mean block-disable capacity: {:.1}%", 100.0 * mean_capacity);
    println!(
        "P[capacity > 50%]          : {:.4} (word-disabling always gives exactly 50%)",
        dist.prob_capacity_above(0.5)
    );

    // -------------------------------------------------------------- simulation --
    let geometry = CacheGeometry::ispass2010_l1();
    let map_i = FaultMap::generate(&geometry, pfail, 1);
    let map_d = FaultMap::generate(&geometry, pfail, 2);
    println!("\n== sampled fault maps ==");
    println!(
        "instruction cache: {} / {} blocks usable",
        map_i.fault_free_blocks(),
        geometry.blocks()
    );
    println!(
        "data cache       : {} / {} blocks usable",
        map_d.fault_free_blocks(),
        geometry.blocks()
    );

    let benchmark = Benchmark::Gzip;
    let instructions = 100_000;
    let run = |config: HierarchyConfig, with_maps: bool| {
        let hierarchy = if with_maps {
            CacheHierarchy::with_all_fault_maps(config, Some(&map_i), Some(&map_d), None)
                .expect("fault maps match the geometry")
        } else {
            CacheHierarchy::new(config)
        };
        let mut pipeline =
            Pipeline::new(CpuConfig::ispass2010(), hierarchy).expect("Table II is a valid core");
        let mut trace = TraceGenerator::new(&benchmark.profile(), 42);
        pipeline.run(&mut trace, Some(instructions))
    };

    println!("\n== {benchmark} below Vcc-min ({instructions} instructions) ==");
    let baseline = run(
        HierarchyConfig::ispass2010(DisablingScheme::Baseline, VoltageMode::Low),
        false,
    );
    let word = run(
        HierarchyConfig::ispass2010(DisablingScheme::WordDisabling, VoltageMode::Low),
        true,
    );
    let block = run(
        HierarchyConfig::ispass2010(DisablingScheme::BlockDisabling, VoltageMode::Low),
        true,
    );
    println!("baseline (ideal)  IPC = {:.3}", baseline.ipc());
    println!(
        "word disabling    IPC = {:.3}  ({:.1}% of baseline)",
        word.ipc(),
        100.0 * word.normalized_to(&baseline)
    );
    println!(
        "block disabling   IPC = {:.3}  ({:.1}% of baseline)",
        block.ipc(),
        100.0 * block.normalized_to(&baseline)
    );
}
