//! Fault-injection model for SRAM cache arrays operating below Vcc-min.
//!
//! Below the minimum reliable supply voltage, 6T SRAM cells fail with a per-cell
//! probability `pfail`. This crate models that process for set-associative caches:
//!
//! * [`CacheGeometry`] — the physical organization of a cache (size, block size,
//!   associativity, tag width) and the cell counts derived from it;
//! * [`FaultMap`] — a reproducible, seeded sample of which words and tags contain at
//!   least one faulty cell, the same information a low-voltage boot-time memory test
//!   would produce. A map packs each block's faulty-word mask into a lane of
//!   `words_per_block` bits, beside one tag-fault and one any-fault bit per block:
//!   18 bits for the paper's 16-word blocks, 72 KiB for its 2 MB L2. [`BlockFaults`]
//!   is one block decoded, and [`SetFaults`] one set's way bitsets and faulty-word
//!   counts, read a whole `u64` at a time, which the repair schemes consume;
//! * [`SeedSequence`] — a SplitMix64 sequence used to derive independent seeds for
//!   the many fault maps an experiment needs;
//! * [`variation`] — process variation: per-die, spatially-correlated systematic
//!   Vcc-min offsets (seeded coarse-grid Gaussian field, bilinear interpolation)
//!   on top of the calibrated `pfail(V)` random component, and
//!   [`FaultMap::generate_at_voltage`] to sample the die's fault map at any
//!   supply voltage;
//! * classification helpers used by the disabling schemes (faulty blocks per set,
//!   word-disable usability, victim-cache entry survival).
//!
//! [`CacheGeometry::new`] admits blocks of 1 to 64 words, so a block's lane never
//! straddles a word of the packed map.
//!
//! Faults are assumed uniformly random and independent at cell granularity, the same
//! assumption the paper (and Wilkerson et al.) make. Sampling is performed at word
//! and tag granularity using the exact derived Bernoulli probabilities, which yields
//! a distribution identical to cell-level sampling for every quantity consumed by the
//! disabling schemes (a word is faulty iff at least one of its cells is).
//!
//! # Example
//!
//! ```
//! use vccmin_fault::{CacheGeometry, FaultMap};
//!
//! let geom = CacheGeometry::ispass2010_l1();
//! let map = FaultMap::generate(&geom, 0.001, 42);
//! let capacity = map.fault_free_block_fraction();
//! assert!(capacity > 0.4 && capacity < 0.8);
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

pub mod fault_map;
pub mod geometry;
pub mod seed;
pub mod variation;

pub use fault_map::{BlockFaults, FaultMap, FaultMapStats, SetFaults};
pub use geometry::{CacheGeometry, GeometryError};
pub use seed::SeedSequence;
pub use variation::{DieVariation, SystematicField, VariationModel};
pub use vccmin_analysis::victim::CellTechnology;
pub use vccmin_analysis::yield_model::PfailVoltageModel;
