//! Trace-driven cycle-level processor models behind a shared [`Cpu`] trait.
//!
//! This crate is the `sim-alpha`-like substrate of the ISPASS 2010 reproduction: a
//! cycle-level model of a high-performance out-of-order core with the structural
//! parameters of Table II of the paper (15-stage pipeline, gshare branch predictor,
//! 4-wide fetch/decode, 6-wide issue, 4-wide commit, 128-entry reorder buffer,
//! 40/20-entry integer/floating-point issue queues, a pool of functional units) on
//! top of the cache hierarchy provided by [`vccmin_cache`].
//!
//! Alongside the out-of-order [`Pipeline`] lives a scalar stall-on-use
//! [`InOrderCore`] — the comparison axis that re-examines the paper's
//! latency/capacity trade-offs where no memory-level parallelism hides a repair
//! scheme's extra cycles. Both backends implement [`Cpu`], and campaigns select
//! between them through the [`CoreModel`] axis (whose
//! [`build`](CoreModel::build) method is the single core-construction factory).
//!
//! The model is *trace driven*: instructions come from any [`TraceSource`]
//! (synthetic workload generators live in the `vccmin-workloads` crate) and carry
//! their operation class, register operands, memory address and branch outcome. The
//! pipeline extracts instruction- and memory-level parallelism exactly as the real
//! machine would: independent loads overlap their miss latencies, mispredicted
//! branches squash the front end for a full pipeline refill, and the reorder buffer,
//! issue queues and functional units bound the achievable IPC.
//!
//! What the model deliberately does *not* do is execute wrong-path instructions or
//! model data values — neither affects the relative cache-capacity/latency
//! trade-offs the paper studies.
//!
//! # Example
//!
//! ```
//! use vccmin_cpu::{CpuConfig, Pipeline, OpClass, TraceInstruction};
//! use vccmin_cache::{CacheHierarchy, HierarchyConfig};
//!
//! // A small loop of independent integer adds (the PCs wrap so the I-cache warms up).
//! let trace: Vec<TraceInstruction> = (0..10_000)
//!     .map(|i| TraceInstruction::alu(0x1000 + (i % 256) * 4, OpClass::IntAlu))
//!     .collect();
//! let hierarchy = CacheHierarchy::new(HierarchyConfig::ispass2010_baseline_high_voltage());
//! let mut pipeline = Pipeline::new(CpuConfig::ispass2010(), hierarchy)?;
//! let result = pipeline.run(&mut trace.into_iter(), None);
//! assert!(result.ipc() > 1.0, "independent ALU ops should sustain multi-issue IPC");
//! # Ok::<(), vccmin_cpu::CpuConfigError>(())
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

pub mod branch;
pub mod config;
pub mod core;
pub mod inorder;
pub mod instruction;
pub mod pipeline;
pub mod result;

pub use branch::{BranchPredictor, GsharePredictor, ReturnAddressStack};
pub use config::{CpuConfig, CpuConfigError};
pub use core::{feed_chunks, CoreModel, Cpu, CHUNK_INSTRUCTIONS};
pub use inorder::InOrderCore;
pub use instruction::{BranchInfo, BranchKind, OpClass, Reg, TraceInstruction};
pub use pipeline::{Pipeline, TraceSource};
pub use result::SimResult;
