//! Synthetic SPEC CPU2000-like workloads for the below-Vcc-min cache study.
//!
//! The paper evaluates its cache-disabling schemes by running all 26 SPEC CPU2000
//! benchmarks (reference inputs, 100M-instruction SimPoint regions) on the
//! `sim-alpha` simulator. SPEC binaries and reference inputs cannot be redistributed,
//! so this crate substitutes **synthetic trace generators**: one per benchmark name,
//! each parameterized by a [`BenchmarkProfile`] (instruction mix, data working-set
//! size and locality, code footprint, branch predictability, dependence density)
//! chosen so that the benchmark's *cache-capacity sensitivity* — the property the
//! paper's figures exercise — falls in the published range for that program.
//!
//! What must hold for the reproduction to be meaningful is not instruction-level
//! fidelity but the spread of behaviors: some benchmarks barely notice a smaller L1
//! (e.g. the `swim`-like streaming profiles), others are highly sensitive to L1
//! capacity and associativity (e.g. the `crafty`- and `vortex`-like profiles with
//! working sets around the 32 KB L1 size).
//!
//! # Example
//!
//! ```
//! use vccmin_workloads::{Benchmark, TraceGenerator};
//!
//! let profile = Benchmark::Crafty.profile();
//! let mut gen = TraceGenerator::new(&profile, 42);
//! let first_thousand: Vec<_> = (&mut gen).take(1000).collect();
//! assert_eq!(first_thousand.len(), 1000);
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

pub mod generator;
pub mod phase;
pub mod profile;
pub mod profiles;

pub use generator::TraceGenerator;
pub use phase::{PhaseSchedule, PhaseSegment, WorkloadPhase};
pub use profile::{BenchmarkProfile, Suite};
pub use profiles::Benchmark;
