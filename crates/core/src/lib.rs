//! # vccmin-core
//!
//! Facade crate for the reproduction of *Performance-Effective Operation below
//! Vcc-min* (Ladas, Sazeides, Desmet — ISPASS 2010): fault-tolerant cache operation
//! below the minimum reliable supply voltage through **block disabling** and victim
//! caching, compared against the **word-disabling** scheme of Wilkerson et al.
//!
//! The facade re-exports the public API of the workspace crates:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`analysis`] | `vccmin-analysis` | probability analysis of random cell faults (Eqs. 1–6, Figs. 3–7) |
//! | [`fault`] | `vccmin-fault` | cache geometry, seeded fault maps, 6T/10T cells |
//! | [`cache`] | `vccmin-cache` | set-associative caches, victim caches, disabling schemes, hierarchy |
//! | [`cpu`] | `vccmin-cpu` | trace-driven cycle-level CPU backends: out-of-order (Table II) and in-order stall-on-use, behind the `Cpu` trait |
//! | [`workloads`] | `vccmin-workloads` | 26 synthetic SPEC CPU2000-like trace generators |
//! | [`riscv`] | `vccmin-riscv` | deterministic RV32IM interpreter + real kernel trace sources |
//! | [`experiments`] | `vccmin-experiments` | Table I/III configurations, Figs. 8–12 campaigns, reports |
//!
//! # Quickstart
//!
//! Estimate how much cache capacity survives below Vcc-min, then measure the
//! performance of block-disabling on one workload:
//!
//! ```
//! use vccmin_core::analysis::{block_faults, ArrayGeometry};
//! use vccmin_core::cache::{CacheHierarchy, FaultMap, CacheGeometry, VoltageMode, DisablingScheme, HierarchyConfig};
//! use vccmin_core::cpu::{CpuConfig, Pipeline};
//! use vccmin_core::workloads::{Benchmark, TraceGenerator};
//!
//! // Analytical capacity at pfail = 0.001 (Fig. 3 / Fig. 4).
//! let geom = ArrayGeometry::ispass2010_l1();
//! assert!(block_faults::mean_capacity(&geom, 0.001) > 0.5);
//!
//! // Simulated performance of a block-disabled L1 below Vcc-min.
//! let cache_geom = CacheGeometry::ispass2010_l1();
//! let map_i = FaultMap::generate(&cache_geom, 0.001, 1);
//! let map_d = FaultMap::generate(&cache_geom, 0.001, 2);
//! let config = HierarchyConfig::ispass2010(DisablingScheme::BlockDisabling, VoltageMode::Low);
//! let hierarchy = CacheHierarchy::with_fault_maps(config, Some(&map_i), Some(&map_d)).unwrap();
//! let mut pipeline = Pipeline::new(CpuConfig::ispass2010(), hierarchy);
//! let mut trace = TraceGenerator::new(&Benchmark::Gzip.profile(), 42);
//! let result = pipeline.run(&mut trace, Some(20_000));
//! assert!(result.ipc() > 0.0);
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

/// Probability analysis of random cell faults in cache arrays (Section IV).
pub mod analysis {
    pub use vccmin_analysis::*;
}

/// Fault-injection model: cache geometry, fault maps, seeds, cell technologies.
pub mod fault {
    pub use vccmin_fault::*;
}

/// Cache hierarchy simulator with block/word disabling and victim caching.
pub mod cache {
    pub use vccmin_cache::*;
}

/// Trace-driven cycle-level processor models (out-of-order Table II core and
/// the in-order stall-on-use core) behind the `Cpu` trait.
pub mod cpu {
    pub use vccmin_cpu::*;
}

/// Synthetic SPEC CPU2000-like workload generators.
pub mod workloads {
    pub use vccmin_workloads::*;
}

/// Deterministic RV32IM interpreter, assembler, and real kernel workloads.
pub mod riscv {
    pub use vccmin_riscv::*;
}

/// Experiment harness: configurations, campaigns, tables and figures.
pub mod experiments {
    pub use vccmin_experiments::*;
}

// Convenience re-exports of the most commonly used types.
pub use vccmin_analysis::{ArrayGeometry, CellPfail};
pub use vccmin_cache::{CacheHierarchy, DisablingScheme, HierarchyConfig, VoltageMode};
pub use vccmin_cpu::{CoreModel, CpuConfig, InOrderCore, Pipeline, SimResult};
pub use vccmin_cache::{RepairScheme, WayDisableMask};
pub use vccmin_experiments::{
    GovernedRun, GovernorPolicy, GovernorStudy, L2Protection, LowVoltageStudy, OverheadTable,
    SchemeConfig, SchemeMatrixStudy, SimulationParams, TransitionCostModel, Workload,
    WorkloadSource, YieldParams, YieldStudy,
};
pub use vccmin_fault::{CacheGeometry, DieVariation, FaultMap, PfailVoltageModel, VariationModel};
pub use vccmin_riscv::{RvKernel, RvTraceSource};
pub use vccmin_workloads::{Benchmark, PhaseSchedule, TraceGenerator, WorkloadPhase};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_re_exports_are_consistent() {
        // The same types are reachable through the module facade and the top-level
        // re-exports.
        let a = crate::CacheGeometry::ispass2010_l1();
        let b = crate::fault::CacheGeometry::ispass2010_l1();
        assert_eq!(a, b);
        let t = crate::OverheadTable::ispass2010();
        assert_eq!(t.rows().len(), 8);
    }
}
