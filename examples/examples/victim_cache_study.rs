//! Victim-cache ablation: how the victim cache turns block-disabling's variable
//! per-set associativity from a liability into an advantage (Section III.A and
//! Fig. 10 of the paper), and what 6T versus 10T victim cells cost.
//!
//! Run with: `cargo run --release -p vccmin-examples --example victim_cache_study`

use vccmin_core::analysis::victim;
use vccmin_core::cache::VictimCacheConfig;
use vccmin_core::{
    ArrayGeometry, Benchmark, CacheGeometry, CacheHierarchy, CpuConfig, DisablingScheme, FaultMap,
    HierarchyConfig, Pipeline, TraceGenerator, VoltageMode,
};

fn main() {
    let pfail = 0.001;

    // Analytical expectation for the victim cache itself (Section V).
    let vc_geom = ArrayGeometry::ispass2010_victim_cache();
    println!("== victim-cache survival below Vcc-min (16 entries, pfail = {pfail}) ==");
    println!(
        "expected faulty entries with 6T cells : {:.1}",
        victim::expected_faulty_entries(&vc_geom, pfail)
    );
    println!(
        "usable entries, 6T + disable bits     : {:.1} (paper conservatively assumes 8)",
        victim::expected_usable_entries(&vc_geom, vccmin_core::cache::CellTechnology::SixT, pfail)
    );
    println!(
        "usable entries, 10T cells             : {:.0}",
        victim::expected_usable_entries(&vc_geom, vccmin_core::cache::CellTechnology::TenT, pfail)
    );

    // Simulated effect on a capacity-sensitive benchmark over a few fault maps.
    let geometry = CacheGeometry::ispass2010_l1();
    let benchmark = Benchmark::Crafty;
    let instructions = 60_000;
    println!("\n== {benchmark} below Vcc-min, per fault map ==");
    println!(
        "{:>8} {:>10} {:>14} {:>18} {:>18}",
        "map", "usable", "no victim $", "victim $ (10T)", "victim $ (6T)"
    );
    let run = |config: HierarchyConfig, mi: &FaultMap, md: &FaultMap| -> f64 {
        let hierarchy = CacheHierarchy::with_all_fault_maps(config, Some(mi), Some(md), None)
            .expect("maps fit");
        let mut pipeline =
            Pipeline::new(CpuConfig::ispass2010(), hierarchy).expect("Table II is a valid core");
        let mut trace = TraceGenerator::new(&benchmark.profile(), 42);
        pipeline.run(&mut trace, Some(instructions)).ipc()
    };
    let base_cfg = HierarchyConfig::ispass2010(DisablingScheme::BlockDisabling, VoltageMode::Low);
    for seed in 0..5u64 {
        let mi = FaultMap::generate(&geometry, pfail, 100 + seed);
        let md = FaultMap::generate(&geometry, pfail, 200 + seed);
        let plain = run(base_cfg, &mi, &md);
        let vc10 = run(
            base_cfg.with_victim_caches(VictimCacheConfig::ispass2010_10t()),
            &mi,
            &md,
        );
        let vc6 = run(
            base_cfg.with_victim_caches(VictimCacheConfig::ispass2010_6t()),
            &mi,
            &md,
        );
        println!(
            "{:>8} {:>10} {:>14.3} {:>18.3} {:>18.3}",
            seed,
            md.fault_free_blocks(),
            plain,
            vc10,
            vc6
        );
    }
    println!("\nIPC spread across fault maps narrows once a victim cache backs the disabled sets,");
    println!("which is exactly the determinism argument of Section VI.A of the paper.");
}
