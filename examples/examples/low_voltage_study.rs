//! A scaled-down version of the paper's main experiment (Figs. 8–10): every
//! SPEC-like benchmark, below Vcc-min, comparing word-disabling against
//! block-disabling with and without victim caches.
//!
//! The default run uses a handful of benchmarks, small traces and a few fault-map
//! pairs so it finishes in well under a minute. Pass `--full` to run all 26
//! benchmarks with the quick-campaign defaults (a few minutes).
//!
//! Run with: `cargo run --release -p vccmin-examples --example low_voltage_study [-- --full]`

use vccmin_core::experiments::simulation::{FaultMapPool, LowVoltageStudy, SimulationParams};
use vccmin_core::{Benchmark, SchemeConfig};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let params = if full {
        SimulationParams::quick()
    } else {
        SimulationParams {
            instructions: 40_000,
            fault_map_pairs: 3,
            workloads: vec![
                Benchmark::Crafty.into(),
                Benchmark::Gzip.into(),
                Benchmark::Mesa.into(),
                Benchmark::Sixtrack.into(),
                Benchmark::Mcf.into(),
                Benchmark::Swim.into(),
            ],
            ..SimulationParams::quick()
        }
    };
    eprintln!(
        "running {} workloads x {} fault-map pairs x {} instructions ...",
        params.workloads.len(),
        params.fault_map_pairs,
        params.instructions
    );
    let study = LowVoltageStudy::run_with_pool(&params, &FaultMapPool::new(&params), true);

    println!("{}", study.figure8());
    println!("{}", study.figure9());
    println!("{}", study.figure10());

    let word = study.average_normalized(SchemeConfig::WordDisabling, SchemeConfig::Baseline);
    let block = study.average_normalized(SchemeConfig::BlockDisabling, SchemeConfig::Baseline);
    let block_vc =
        study.average_normalized(SchemeConfig::BlockDisablingVictim10T, SchemeConfig::Baseline);
    println!("== headline comparison (paper: word 88.8%, block 91.7%, block+V$ 94.7%) ==");
    println!("word disabling        : {:.1}% of baseline", 100.0 * word);
    println!("block disabling       : {:.1}% of baseline", 100.0 * block);
    println!("block disabling + V$  : {:.1}% of baseline", 100.0 * block_vc);
    println!(
        "block disabling + V$ outperforms word disabling by {:.1}% on average",
        100.0 * (block_vc / word - 1.0)
    );
}
