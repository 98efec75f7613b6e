//! Experiment harness reproducing the tables and figures of
//! *Performance-Effective Operation below Vcc-min* (ISPASS 2010).
//!
//! The crate glues the other `vccmin` crates together into the paper's evaluation:
//!
//! * [`analysis_figures`] — the closed-form series of Figs. 1 and 3–7 (probability
//!   analysis) for the paper's cache geometry;
//! * [`overhead`] — the transistor-count comparison of Table I;
//! * [`config`] — the named cache configurations of Table III (baseline,
//!   word-disabling, block-disabling, with and without victim caches, at high and
//!   low voltage), plus the [`L2Protection`] axis that puts the unified L2 below
//!   Vcc-min (perfect, matched to the L1 scheme, or fixed);
//! * [`simulation`] — the simulation campaigns behind Figs. 8–12 (every SPEC-like
//!   benchmark, every configuration, multiple random fault-map pairs, reported as
//!   mean and minimum normalized performance) plus the [`SchemeMatrixStudy`]
//!   that compares every repair scheme in the registry — baseline,
//!   word-disabling, block-disabling, bit-fix and way-sacrifice — the
//!   [`GovernorStudy`] that executes benchmarks under runtime
//!   voltage-mode-switching policies, and the [`CoreMatrixStudy`] that re-runs
//!   the scheme matrix on every CPU backend ([`CoreModel`](vccmin_cpu::CoreModel)
//!   axis) to expose how much memory-level parallelism hides each scheme's
//!   latency;
//! * [`governor`] — the runtime voltage-mode governor itself: mode-selection
//!   policies (static schedule, fixed interval, phase-reactive), transition
//!   costs (pipeline drain + repair-scheme reconfiguration) and the governed
//!   segment executor with energy/EDP accounting;
//! * [`yield_study`] — the die-population yield campaign: process-variation
//!   dies sampled from the `vccmin-fault` variation model, each die's minimum
//!   operational voltage computed per repair scheme; its per-die linear scan is
//!   the reference the fleet executor is tested against;
//! * [`fleet`] — the fleet-scale streaming executor for the same campaign:
//!   sharded work units, binary-searched per-die Vcc-min probing, constant
//!   memory histogram aggregation and checkpoint/resume, equal to
//!   [`yield_study`]'s scan at any scale. It renders the campaign's reports:
//!   Vcc-min distributions and yield-vs-voltage curves;
//! * [`checkpoint`] — the compact binary shard-result store (`VFS1` records,
//!   atomic writes, checksum + parameter-fingerprint validation) behind the
//!   fleet executor's resumability;
//! * [`report`] — plain-text rendering of series and tables, used by the example
//!   binaries, the `vccmin-repro` CLI and the benches.
//!
//! # Example
//!
//! Reproduce a scaled-down Fig. 8 (low-voltage performance, normalized to the
//! baseline without victim cache):
//!
//! ```no_run
//! use vccmin_experiments::simulation::{FaultMapPool, LowVoltageStudy, SimulationParams};
//!
//! let params = SimulationParams::quick();
//! let study = LowVoltageStudy::run_with_pool(&params, &FaultMapPool::new(&params), false);
//! println!("{}", study.figure8());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Shared strict lint table — kept byte-identical in every workspace crate and
// applied per-crate (not via `[workspace.lints]`, which the vendored toolchain
// setup does not rely on). simlint's D-rules cover the determinism side; this
// table covers the general-correctness side.
#![deny(
    clippy::dbg_macro,
    clippy::exit,
    clippy::mem_forget,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(
    clippy::explicit_iter_loop,
    clippy::manual_let_else,
    clippy::map_unwrap_or,
    clippy::redundant_closure_for_method_calls,
    clippy::semicolon_if_nothing_returned
)]

use rayon::prelude::*;

pub mod analysis_figures;
pub mod checkpoint;
pub mod config;
pub mod fleet;
pub mod governor;
pub mod overhead;
pub mod report;
pub mod simulation;
pub mod workload;
pub mod yield_study;

pub use checkpoint::{CheckpointStore, ShardRecord};
pub use config::{L2Protection, SchemeConfig, ALL_LOW_VOLTAGE_SCHEMES};
pub use fleet::{FleetParams, FleetStudy};
pub use governor::{
    run_governed, GovernedRun, GovernedRunSpec, GovernedSegment, GovernorMetrics, GovernorPolicy,
};
pub use overhead::{OverheadRow, OverheadTable};
pub use simulation::{
    BenchmarkResult, CoreMatrixEntry, CoreMatrixStudy, FaultMapPool, GovernorBenchmarkResult,
    GovernorPolicyResult, GovernorStudy, HighVoltageStudy, LowVoltageStudy, SchemeMatrixStudy,
    SimulationParams, GOVERNOR_POLICY_LABELS,
};
pub use workload::{Workload, WorkloadSource, RISCV_PREFIX};
pub use yield_study::{DieResult, YieldParams, YieldStudy};

/// The job map every campaign of this crate runs through: maps `jobs` through
/// `f` and returns the outputs in job order, on the calling thread when
/// `serial` and on the rayon pool otherwise. Jobs must be independent of each
/// other; then a serial and a parallel run return the same outputs, whatever
/// the scheduling.
pub(crate) fn map_jobs<J, R, F>(jobs: Vec<J>, serial: bool, f: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Send + Sync,
{
    if serial {
        jobs.into_iter().map(f).collect()
    } else {
        jobs.into_par_iter().map(f).collect()
    }
}
