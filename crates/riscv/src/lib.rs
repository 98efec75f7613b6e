//! A deterministic RV32IM user-mode interpreter that feeds *real* program
//! traces into the Vcc-min pipeline model.
//!
//! The paper evaluates 26 SPEC CPU2000 binaries; this reproduction's
//! synthetic `TraceGenerator` profiles approximate their statistics but have
//! cyclic phase behavior by construction. This crate closes part of that
//! gap: a small, dependency-free RISC-V interpreter executes real kernels
//! (blocked matmul, quicksort, hash join, LZ-style compression) and an
//! adapter translates every retired instruction into the exact
//! `TraceInstruction` stream the pipeline consumes — real pcs, real register
//! dependence chains, real effective addresses, and actually-executed
//! control flow feeding the branch predictor and return-address stack.
//!
//! The pieces, bottom-up:
//!
//! * [`mem`] — a sparse 32-bit memory over 4 KiB pages, found through a flat
//!   two-level page table (no search, no ambient hash state); a page that
//!   instructions are fetched from also keeps their decoded form;
//! * [`inst`] — the RV32IM instruction set with exact `decode`/`encode`;
//! * [`cpu`] — the fetch–decode–execute interpreter ([`Cpu`]), spec-accurate
//!   including div/rem-by-zero and signed-overflow semantics, decoding each
//!   text word once;
//! * [`asm`] — a tiny two-pass program builder ([`Assembler`]) with labels
//!   and pseudo-ops, replacing an external assembler and ELF loading;
//! * [`kernels`] — the four shipped kernels ([`RvKernel`]), parameterizable
//!   by [`WorkingSet`] so their data straddles the 32 KiB L1;
//! * [`trace`] — [`RvTraceSource`], the `TraceSource` adapter, including the
//!   documented `OpClass` translation table and a data-dependent
//!   memory-boundedness phase signal for the governor.
//!
//! Everything is deterministic: a kernel image is a pure function of
//! `(kernel, seed, working-set)`, and the interpreter reads no host state,
//! so two runs retire bit-identical streams — pinned by FNV-1a trace hashes
//! in the workspace test suite.
//!
//! Decoding each word once changes no stream. Decoding, and the trace
//! template kept with it, are pure functions of the word, and every write
//! that can reach a page — a store the interpreter executes, or one made
//! through [`Cpu::mem_mut`] — drops that page's decoded table. The workspace
//! tests check this step for step against a frozen port of the interpreter
//! that decoded every fetch.

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

pub mod asm;
pub mod cpu;
pub mod inst;
pub mod kernels;
pub mod mem;
pub mod trace;

pub use asm::{AsmError, Assembler, Program};
pub use cpu::{Cpu, ExecBranch, Retired, Trap};
pub use inst::Instr;
pub use kernels::{fold_seed, KernelImage, RvKernel, WorkingSet};
pub use mem::SparseMemory;
pub use trace::RvTraceSource;
