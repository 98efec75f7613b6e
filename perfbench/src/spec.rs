//! The three benchmark workloads: their campaign parameters, the timed set-up
//! and the timed campaign call.

use std::hint::black_box;

use vccmin_cache::repair::{registry, RepairScheme};
use vccmin_cpu::CoreModel;
use vccmin_experiments::{
    FaultMapPool, FleetParams, FleetStudy, L2Protection, SchemeMatrixStudy, SimulationParams,
    Workload, YieldParams,
};
use vccmin_riscv::RvKernel;
use vccmin_workloads::Benchmark;

/// The seed the reference digests were first pinned at.
pub const DEFAULT_SEED: u64 = 1;
/// A second pinned seed, never used while the workload sizes were tuned.
pub const HELD_OUT_SEED: u64 = 20_100;

/// Instructions per cell on the out-of-order scheme matrix.
const OOO_INSTRUCTIONS: u64 = 40_000;
/// Instructions per cell on the in-order, faulty-L2 scheme matrix.
const INORDER_INSTRUCTIONS: u64 = 300_000;
/// Fault-map pairs per fault-dependent cell on both campaign workloads.
const FAULT_MAP_PAIRS: usize = 3;
/// Dies in the yield population: fewer than one 2048-die shard.
const YIELD_DIES: usize = 50;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// The scheme matrix below Vcc-min on the out-of-order core, perfect L2.
    OooSchemes,
    /// The scheme matrix on the in-order core with a matched, faulty L2.
    InOrderL2Schemes,
    /// The fleet yield study with the L2 capacity floor.
    YieldL2,
}

impl Bench {
    pub const ALL: [Self; 3] = [Self::OooSchemes, Self::InOrderL2Schemes, Self::YieldL2];

    pub fn name(self) -> &'static str {
        match self {
            Self::OooSchemes => "ooo-schemes",
            Self::InOrderL2Schemes => "inorder-l2-schemes",
            Self::YieldL2 => "yield-l2",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|b| b.name() == name)
    }
}

/// Campaign parameters of a campaign workload at `seed`.
pub fn campaign_params(bench: Bench, seed: u64) -> SimulationParams {
    match bench {
        Bench::OooSchemes => SimulationParams {
            instructions: OOO_INSTRUCTIONS,
            fault_map_pairs: FAULT_MAP_PAIRS,
            master_seed: seed,
            l2: L2Protection::Perfect,
            core: CoreModel::OutOfOrder,
            ..SimulationParams::core_matrix_quick()
        },
        Bench::InOrderL2Schemes => {
            let mut workloads: Vec<Workload> = [
                Benchmark::Crafty,
                Benchmark::Mcf,
                Benchmark::Swim,
                Benchmark::Gzip,
            ]
            .into_iter()
            .map(Workload::from)
            .collect();
            workloads.extend(RvKernel::ALL.into_iter().map(Workload::from));
            SimulationParams {
                instructions: INORDER_INSTRUCTIONS,
                fault_map_pairs: FAULT_MAP_PAIRS,
                master_seed: seed,
                workloads,
                l2: L2Protection::Matched,
                core: CoreModel::InOrder,
                ..SimulationParams::quick()
            }
        }
        Bench::YieldL2 => unreachable!("yield-l2 is not a simulation campaign"),
    }
}

/// Yield parameters of the fleet workload at `seed`: what
/// `vccmin-repro yield --l2-scheme matched --dies 50` runs.
pub fn yield_params(seed: u64) -> YieldParams {
    YieldParams {
        dies: YIELD_DIES,
        include_l2: true,
        master_seed: seed,
        ..YieldParams::quick()
    }
}

/// Everything a workload needs before its first simulated instruction or die.
pub enum Setup {
    Campaign {
        params: SimulationParams,
        pool: FaultMapPool,
    },
    Fleet {
        fleet: FleetParams,
        grid: Vec<f64>,
        schemes: [&'static dyn RepairScheme; 5],
        seeds: Vec<(u64, u64)>,
        l2_seeds: Vec<(u64, u64)>,
    },
}

/// The untraced result of one campaign call.
pub enum Output {
    Campaign(SchemeMatrixStudy),
    Fleet(FleetStudy),
}

impl Setup {
    /// Builds the parameters and forces every lazily generated input: the L1
    /// fault-map pairs and, where the L2 is faulty, the L2 maps; for the fleet,
    /// the voltage grid, the scheme registry and the per-die seeds.
    pub fn new(bench: Bench, seed: u64) -> Self {
        match bench {
            Bench::YieldL2 => {
                let yields = yield_params(seed);
                let grid = yields.voltage_grid();
                let seeds = yields.die_seeds_range(0, yields.dies);
                let l2_seeds = yields.l2_die_seeds_range(0, yields.dies);
                Self::Fleet {
                    fleet: FleetParams::new(yields),
                    grid,
                    schemes: registry(),
                    seeds,
                    l2_seeds,
                }
            }
            _ => {
                let params = campaign_params(bench, seed);
                let pool = FaultMapPool::new(&params);
                black_box(pool.pairs());
                black_box(pool.l2_maps_if_needed(params.l2, &SchemeMatrixStudy::matrix_schemes()));
                Self::Campaign { params, pool }
            }
        }
    }

    /// Runs the campaign on the worker pool and renders its tables.
    pub fn run(&self) -> Output {
        match self {
            Self::Campaign { params, pool } => {
                let study = SchemeMatrixStudy::run_with_pool(params, pool, false);
                black_box(study.table().to_string());
                Output::Campaign(study)
            }
            Self::Fleet { fleet, .. } => {
                let study = FleetStudy::run_parallel(fleet);
                black_box(study.yield_curve().to_string());
                black_box(study.vccmin_summary().to_string());
                Output::Fleet(study)
            }
        }
    }
}
