//! The [`Cpu`] abstraction and the [`CoreModel`] campaign axis.
//!
//! Every consumer of a core — the scheme matrix, the voltage-mode governor, the
//! RISC-V kernel campaigns — drives it through the [`Cpu`] trait, so a study can
//! swap the out-of-order [`Pipeline`] for the in-order [`InOrderCore`] (or any
//! future backend) without touching its own logic. [`CoreModel`] is the serializable/parsable selector
//! that campaigns thread through their parameters and the CLI exposes as
//! `--core`; [`CoreModel::build`] is the single factory path through which both
//! the simulation and governor executors construct cores.
//!
//! # Chunked runs
//!
//! A core keeps the state of its run between calls, so a run can take its
//! trace in slices: [`Cpu::begin`] starts it with its instruction limit,
//! [`Cpu::feed`] hands it the next slice, and [`Cpu::finish`] tells it the
//! trace has ended, lets it drain, and returns the result. However the trace
//! is sliced, the result is that of one call that pulls the instructions one
//! at a time. [`Cpu::run`] is this protocol over a [`TraceSource`], in
//! slices of [`CHUNK_INSTRUCTIONS`] filled by [`feed_chunks`]; a campaign can
//! instead feed one generated slice to several cores in turn, so that they
//! share one pass over the trace.

use std::fmt;

use vccmin_cache::CacheHierarchy;

use crate::config::{CpuConfig, CpuConfigError};
use crate::inorder::InOrderCore;
use crate::instruction::TraceInstruction;
use crate::pipeline::{Pipeline, TraceSource};
use crate::result::SimResult;

/// Instructions per slice when a run pulls its trace from a source. 256
/// instructions take 12 KB, which stay in the host's caches while every core
/// of a group consumes them. Slices four times as long ran no faster in paired
/// campaigns and raised their peak memory.
pub const CHUNK_INSTRUCTIONS: usize = 256;

/// Pulls at most `max_instructions` instructions from `trace`, in slices of
/// [`CHUNK_INSTRUCTIONS`], and hands each slice to `feed` until the trace
/// ends or the limit is reached. Nothing beyond the limit is pulled, so a
/// caller can resume the same source for its next run.
pub fn feed_chunks<S>(
    trace: &mut S,
    max_instructions: Option<u64>,
    mut feed: impl FnMut(&[TraceInstruction]),
) where
    S: TraceSource + ?Sized,
{
    let mut left = max_instructions.unwrap_or(u64::MAX);
    let mut chunk = Vec::with_capacity(CHUNK_INSTRUCTIONS);
    while left > 0 {
        let want = left.min(CHUNK_INSTRUCTIONS as u64) as usize;
        chunk.clear();
        while chunk.len() < want {
            let Some(instr) = trace.next_instruction() else {
                break;
            };
            chunk.push(instr);
        }
        if chunk.is_empty() {
            return;
        }
        feed(&chunk);
        if chunk.len() < want {
            return;
        }
        left -= want as u64;
    }
}

/// A trace-driven cycle-level CPU backend over a [`CacheHierarchy`].
///
/// Implementations must be deterministic: the same trace against the same
/// hierarchy and internal state yields the same [`SimResult`], bit for bit,
/// however the trace is sliced between [`Cpu::feed`] calls.
pub trait Cpu {
    /// Starts a run that commits at most `max_instructions` instructions,
    /// discarding the state of any earlier run but not the cache contents,
    /// predictor training or statistics.
    fn begin(&mut self, max_instructions: Option<u64>);

    /// Simulates the run as far as `chunk`, the next slice of its trace,
    /// takes it. Instructions past the run's limit are ignored.
    fn feed(&mut self, chunk: &[TraceInstruction]);

    /// Ends the run's trace, simulates until the machine drains and returns
    /// the aggregate result.
    fn finish(&mut self) -> SimResult;

    /// Simulates the trace until it is exhausted or `max_instructions` have
    /// been committed, and returns the aggregate result. It pulls at most
    /// `max_instructions` instructions from `trace`.
    fn run(&mut self, trace: &mut dyn TraceSource, max_instructions: Option<u64>) -> SimResult {
        self.begin(max_instructions);
        feed_chunks(trace, max_instructions, |chunk| self.feed(chunk));
        self.finish()
    }

    /// Resets every statistics counter (cache hierarchy, branch predictor)
    /// while preserving cache contents and predictor training state, so
    /// consecutive [`Cpu::run`] calls report per-segment counters.
    fn reset_stats(&mut self);

    /// Worst-case cycles to drain the machine before a voltage-mode
    /// transition. Each backend reports its own bound: the out-of-order core
    /// must retire up to a full reorder buffer, the in-order core only its
    /// shallow in-flight window.
    fn drain_cycles(&self) -> u64;
}

impl Cpu for Pipeline {
    fn begin(&mut self, max_instructions: Option<u64>) {
        Pipeline::begin(self, max_instructions);
    }

    fn feed(&mut self, chunk: &[TraceInstruction]) {
        Pipeline::feed(self, chunk);
    }

    fn finish(&mut self) -> SimResult {
        Pipeline::finish(self)
    }

    fn reset_stats(&mut self) {
        Pipeline::reset_stats(self);
    }

    fn drain_cycles(&self) -> u64 {
        Pipeline::drain_cycles(self)
    }
}

/// Which CPU backend a campaign simulates — a first-class study axis alongside
/// the repair scheme and the L2 protection level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum CoreModel {
    /// The paper's Alpha-21264-like out-of-order core (Table II): MLP from the
    /// reorder buffer, issue queues and load/store queue hides much of each
    /// repair scheme's latency penalty.
    #[default]
    OutOfOrder,
    /// A scalar stall-on-use in-order core sharing the same cache/latency
    /// parameters: no MLP, so every extra cycle a scheme adds is exposed.
    InOrder,
}

impl CoreModel {
    /// Every core model, in reporting order (the default first).
    pub const ALL: [Self; 2] = [Self::OutOfOrder, Self::InOrder];

    /// CLI/report name of the out-of-order core.
    pub const OUT_OF_ORDER_NAME: &'static str = "ooo";

    /// CLI/report name of the in-order core.
    pub const IN_ORDER_NAME: &'static str = "in-order";

    /// Short stable name used in CLI flags, table labels and CSV columns.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::OutOfOrder => Self::OUT_OF_ORDER_NAME,
            Self::InOrder => Self::IN_ORDER_NAME,
        }
    }

    /// One-line description for `--list-cores`.
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            Self::OutOfOrder => {
                "out-of-order core of Table II (4-wide, 128-entry ROB, gshare + RAS); the default"
            }
            Self::InOrder => {
                "scalar stall-on-use in-order core (blocking data cache, shared gshare front end)"
            }
        }
    }

    /// Parses a CLI name (`"ooo"`, `"out-of-order"`, `"in-order"`, `"inorder"`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            Self::OUT_OF_ORDER_NAME | "out-of-order" | "o3" => Some(Self::OutOfOrder),
            Self::IN_ORDER_NAME | "inorder" => Some(Self::InOrder),
            _ => None,
        }
    }

    /// Builds this core over `hierarchy` with the paper's structural parameters
    /// — the one factory path shared by every campaign executor.
    #[must_use]
    pub fn build(self, hierarchy: CacheHierarchy) -> Box<dyn Cpu> {
        fn rejected<T>(error: CpuConfigError) -> T {
            // simlint::allow(panic-path, "the paper's configuration validates; `paper_configuration_builds_both_cores` pins it")
            panic!("the Table II configuration was rejected: {error}")
        }
        let config = CpuConfig::ispass2010();
        match self {
            Self::OutOfOrder => Box::new(Pipeline::new(config, hierarchy).unwrap_or_else(rejected)),
            Self::InOrder => Box::new(InOrderCore::new(config, hierarchy).unwrap_or_else(rejected)),
        }
    }
}

impl fmt::Display for CoreModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vccmin_cache::HierarchyConfig;

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::ispass2010_baseline_high_voltage())
    }

    #[test]
    fn names_round_trip_through_from_name() {
        for core in CoreModel::ALL {
            assert_eq!(CoreModel::from_name(core.name()), Some(core));
            assert_eq!(core.to_string(), core.name());
        }
        assert_eq!(CoreModel::from_name("out-of-order"), Some(CoreModel::OutOfOrder));
        assert_eq!(CoreModel::from_name("inorder"), Some(CoreModel::InOrder));
        assert_eq!(CoreModel::from_name("vliw"), None);
    }

    #[test]
    fn default_is_the_out_of_order_core() {
        assert_eq!(CoreModel::default(), CoreModel::OutOfOrder);
        assert_eq!(CoreModel::ALL[0], CoreModel::OutOfOrder);
    }

    #[test]
    fn trait_run_on_the_pipeline_matches_the_inherent_run() {
        use crate::instruction::{OpClass, TraceInstruction};
        let trace: Vec<TraceInstruction> = (0..4_000)
            .map(|i| TraceInstruction::alu(0x1000 + (i % 256) * 4, OpClass::IntAlu))
            .collect();
        let mut inherent = Pipeline::new(CpuConfig::ispass2010(), hierarchy()).unwrap();
        let direct = inherent.run(&mut trace.clone().into_iter(), None);
        let mut boxed = CoreModel::OutOfOrder.build(hierarchy());
        let via_trait = boxed.run(&mut trace.into_iter(), None);
        assert_eq!(direct, via_trait, "the trait must not change Pipeline behavior");
    }

    #[test]
    fn paper_configuration_builds_both_cores() {
        assert_eq!(CpuConfig::ispass2010().validate(), Ok(()));
        for core in CoreModel::ALL {
            let _ = core.build(hierarchy());
        }
    }

    #[test]
    fn run_pulls_no_more_than_its_limit() {
        use crate::instruction::{OpClass, TraceInstruction};
        let mut trace = (0..5_000u64).map(|i| TraceInstruction::alu(0x1000 + i * 4, OpClass::IntAlu));
        for core in CoreModel::ALL {
            let mut cpu = core.build(hierarchy());
            assert_eq!(cpu.run(&mut trace, Some(1_500)).instructions, 1_500);
        }
        assert_eq!(trace.next().map(|i| i.pc), Some(0x1000 + 3_000 * 4));
    }

    #[test]
    fn drain_bounds_differ_by_backend_depth() {
        let ooo = CoreModel::OutOfOrder.build(hierarchy());
        let inorder = CoreModel::InOrder.build(hierarchy());
        assert!(
            inorder.drain_cycles() < ooo.drain_cycles(),
            "the in-order core has no ROB to drain: {} vs {}",
            inorder.drain_cycles(),
            ooo.drain_cycles()
        );
    }
}
