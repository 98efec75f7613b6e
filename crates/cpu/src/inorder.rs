//! A scalar stall-on-use in-order core model.
//!
//! The comparison axis to the out-of-order [`Pipeline`](crate::Pipeline): the
//! same front end (I-cache fetch blocks, gshare + RAS), the same
//! functional-unit latencies and the same cache hierarchy, but no reorder
//! buffer and no memory-level parallelism. Instructions issue strictly in
//! program order, one per cycle; an instruction stalls only when it *uses* a
//! register whose producer has not completed (stall-on-use, so a load's
//! latency is hidden until its first consumer), and the data cache is
//! blocking — a miss occupies it until the fill returns, so misses serialize
//! instead of overlapping.
//!
//! Because issue order equals program order, the model advances
//! instruction-by-instruction instead of cycle-by-cycle: each instruction's
//! issue cycle is the maximum of the front-end availability, its operands'
//! ready cycles, the blocking data cache for memory ops, and the cycle after
//! its predecessor issued (the one issue slot per cycle). Cache accesses still
//! happen in program order, so the hierarchy state evolution is deterministic.
//!
//! # Chunked runs
//!
//! The core keeps its run's state (the instruction count and limit, each
//! register's ready cycle, the fetch, cache and issue-slot availability) in
//! a [`RunState`] between calls, so a run can take its trace in slices
//! ([`Cpu::begin`], [`Cpu::feed`], [`Cpu::finish`]). Each slice loads the
//! state into locals, steps its instructions in one loop and stores it back.
//! Nothing is in flight between two instructions that the state does not
//! hold, so a run that suspends after any instruction and resumes with the
//! next gives the result of one uninterrupted run.

use vccmin_cache::CacheHierarchy;

use crate::branch::{BranchPredictor, FrontEndPredictor};
use crate::config::{CpuConfig, CpuConfigError};
use crate::core::Cpu;
use crate::instruction::{OpClass, TraceInstruction, NUM_REGS};
use crate::pipeline::TraceSource;
use crate::result::SimResult;

/// The state of a run between two instructions.
#[derive(Debug, Clone)]
struct RunState {
    /// Instructions the run may commit.
    limit: u64,
    committed: u64,
    loads: u64,
    stores: u64,
    /// Cycle each architectural register's newest value becomes available.
    reg_ready: [u64; NUM_REGS],
    /// Earliest cycle the next instruction may leave the front end.
    next_fetch: u64,
    current_fetch_block: Option<u64>,
    /// Blocking data cache: earliest cycle the next memory op may access it.
    mem_free: u64,
    /// The one issue slot per cycle: earliest cycle the next instruction may
    /// issue.
    issue_free: u64,
    last_complete: u64,
}

impl RunState {
    /// A run at cycle 0 with nothing issued: the first instruction
    /// traverses the full front-end depth.
    fn new(config: &CpuConfig, max_instructions: Option<u64>) -> Self {
        Self {
            limit: max_instructions.unwrap_or(u64::MAX),
            committed: 0,
            loads: 0,
            stores: 0,
            reg_ready: [0; NUM_REGS],
            next_fetch: u64::from(config.front_end_depth),
            current_fetch_block: None,
            mem_free: 0,
            issue_free: 0,
            last_complete: 0,
        }
    }
}

/// The in-order core: shared structural configuration, branch predictor and
/// cache hierarchy, and the state of the current run.
#[derive(Debug)]
pub struct InOrderCore {
    config: CpuConfig,
    hierarchy: CacheHierarchy,
    predictor: FrontEndPredictor,
    run: RunState,
}

impl InOrderCore {
    /// Creates an in-order core with the given configuration and hierarchy.
    ///
    /// # Errors
    ///
    /// A configuration that [`CpuConfig::validate`] rejects, such as one
    /// without a functional unit for some operation class.
    pub fn new(config: CpuConfig, hierarchy: CacheHierarchy) -> Result<Self, CpuConfigError> {
        config.validate()?;
        let predictor = FrontEndPredictor::new(config.gshare_history_bits, config.ras_entries);
        Ok(Self {
            run: RunState::new(&config, None),
            config,
            hierarchy,
            predictor,
        })
    }

    /// Resets statistics counters while preserving cache contents and
    /// predictor training state (see [`crate::Pipeline::reset_stats`]).
    pub fn reset_stats(&mut self) {
        self.hierarchy.reset_stats();
        self.predictor.conditional_branches = 0;
        self.predictor.mispredictions = 0;
    }

    /// Worst-case cycles to drain the core before a voltage-mode transition:
    /// the shallow in-order bound — flush the front end, let the one in-flight
    /// instruction complete, including one access that missed all the way to
    /// memory ([`CacheHierarchy::worst_access_latency`]). There is no reorder
    /// buffer to retire, so this is far below the out-of-order bound.
    #[must_use]
    pub fn drain_cycles(&self) -> u64 {
        let worst_memory_access = u64::from(self.hierarchy.worst_access_latency());
        u64::from(self.config.front_end_depth) + 1 + worst_memory_access
    }

    /// Simulates the trace until it is exhausted or `max_instructions` have
    /// been committed, and returns the aggregate result ([`Cpu::run`]).
    pub fn run(
        &mut self,
        trace: &mut dyn TraceSource,
        max_instructions: Option<u64>,
    ) -> SimResult {
        Cpu::run(self, trace, max_instructions)
    }

    /// Starts a run of at most `max_instructions` instructions at cycle 0
    /// ([`Cpu::begin`]).
    pub fn begin(&mut self, max_instructions: Option<u64>) {
        self.run = RunState::new(&self.config, max_instructions);
    }

    /// Issues the instructions of `chunk` in program order, up to the run's
    /// limit ([`Cpu::feed`]).
    pub fn feed(&mut self, chunk: &[TraceInstruction]) {
        let cfg = self.config;
        // Both L1s hit in the hierarchy's one L1 hit latency.
        let l1d_hit_latency = self.hierarchy.l1_hit_latency();
        let l1i_hit_latency = l1d_hit_latency;
        let run = &mut self.run;
        let take = run.limit.saturating_sub(run.committed).min(chunk.len() as u64) as usize;
        let reg_ready = &mut run.reg_ready;
        let mut loads = run.loads;
        let mut stores = run.stores;
        let mut next_fetch = run.next_fetch;
        let mut current_fetch_block = run.current_fetch_block;
        let mut mem_free = run.mem_free;
        let mut issue_free = run.issue_free;
        let mut last_complete = run.last_complete;

        for instr in &chunk[..take] {
            // Instruction-cache access on a fetch-block change; extra latency
            // over an L1I hit stalls the front end.
            let block = instr.pc & !63;
            if current_fetch_block != Some(block) {
                let access = self.hierarchy.access_instr(instr.pc);
                current_fetch_block = Some(block);
                next_fetch += u64::from(access.latency.saturating_sub(l1i_hit_latency));
            }

            // Earliest issue cycle: front end, then stall-on-use on source
            // operands, then the blocking data cache for memory ops, then the
            // issue slot. A scalar core issues into a fresh cycle, and a
            // validated configuration has a unit for every class, so one is
            // free.
            let mut issue = next_fetch.max(issue_free);
            for src in instr.srcs.iter().flatten() {
                issue = issue.max(reg_ready[usize::from(*src)]);
            }
            if instr.is_mem() {
                issue = issue.max(mem_free);
            }
            issue_free = issue + 1;

            // Execute: memory ops access the hierarchy in program order.
            let exec_latency = match instr.op {
                OpClass::Load => {
                    // simlint::allow(panic-path, "trace constructors attach an address to every memory op")
                    let addr = instr.mem_addr.expect("loads carry an address");
                    let access = self.hierarchy.access_data(addr, false);
                    mem_free = if access.latency > l1d_hit_latency {
                        // A miss blocks the cache until the fill returns.
                        issue + u64::from(access.latency)
                    } else {
                        issue + 1
                    };
                    loads += 1;
                    access.latency
                }
                OpClass::Store => {
                    // simlint::allow(panic-path, "trace constructors attach an address to every memory op")
                    let addr = instr.mem_addr.expect("stores carry an address");
                    let access = self.hierarchy.access_data(addr, true);
                    mem_free = if access.latency > l1d_hit_latency {
                        issue + u64::from(access.latency)
                    } else {
                        issue + 1
                    };
                    stores += 1;
                    // The write is posted; retirement is off the critical path.
                    cfg.exec_latency(OpClass::Store)
                }
                other => cfg.exec_latency(other),
            };
            let complete = issue + u64::from(exec_latency.max(1));
            if let Some(dest) = instr.dest {
                reg_ready[usize::from(dest)] = complete;
            }

            if let Some(branch) = &instr.branch {
                let correct = self.predictor.predict_and_update(instr.pc, branch);
                if branch.taken {
                    // A taken branch redirects fetch to a new block...
                    current_fetch_block = None;
                }
                if !correct {
                    // ...and a mispredicted one squashes the front end until
                    // the branch resolves, plus a full pipeline refill.
                    next_fetch = next_fetch.max(complete + u64::from(cfg.front_end_depth));
                } else if branch.taken {
                    // At most one taken branch per fetch cycle.
                    next_fetch = next_fetch.max(issue + 1);
                }
            }

            // Program order: no later instruction issues before this one.
            next_fetch = next_fetch.max(issue);
            last_complete = last_complete.max(complete);
        }

        run.committed += take as u64;
        run.loads = loads;
        run.stores = stores;
        run.next_fetch = next_fetch;
        run.current_fetch_block = current_fetch_block;
        run.mem_free = mem_free;
        run.issue_free = issue_free;
        run.last_complete = last_complete;
    }

    /// Returns the run's result ([`Cpu::finish`]): an instruction is
    /// complete once it has issued, so nothing is left to drain.
    pub fn finish(&mut self) -> SimResult {
        SimResult {
            instructions: self.run.committed,
            cycles: self.run.last_complete.max(1),
            loads: self.run.loads,
            stores: self.run.stores,
            conditional_branches: self.predictor.conditional_branches,
            branch_mispredictions: self.predictor.mispredictions,
            hierarchy: self.hierarchy.stats(),
        }
    }
}

impl Cpu for InOrderCore {
    fn begin(&mut self, max_instructions: Option<u64>) {
        InOrderCore::begin(self, max_instructions);
    }

    fn feed(&mut self, chunk: &[TraceInstruction]) {
        InOrderCore::feed(self, chunk);
    }

    fn finish(&mut self) -> SimResult {
        InOrderCore::finish(self)
    }

    fn reset_stats(&mut self) {
        InOrderCore::reset_stats(self);
    }

    fn drain_cycles(&self) -> u64 {
        InOrderCore::drain_cycles(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::TraceInstruction;
    use crate::Pipeline;
    use vccmin_cache::{DisablingScheme, HierarchyConfig, VoltageMode};

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::ispass2010_baseline_high_voltage())
    }

    fn scalar_core() -> InOrderCore {
        InOrderCore::new(CpuConfig::ispass2010(), hierarchy()).unwrap()
    }

    fn run(trace: Vec<TraceInstruction>) -> SimResult {
        scalar_core().run(&mut trace.into_iter(), None)
    }

    #[test]
    fn empty_trace_produces_empty_result() {
        let r = run(vec![]);
        assert_eq!(r.instructions, 0);
        assert!(r.cycles >= 1);
    }

    #[test]
    fn scalar_issue_caps_ipc_at_one() {
        // Long enough that the cold I-cache misses (which a scalar front end
        // cannot hide) amortize away.
        let trace: Vec<_> = (0..100_000)
            .map(|i| TraceInstruction::alu(0x1000 + (i % 256) * 4, OpClass::IntAlu))
            .collect();
        let r = run(trace);
        assert_eq!(r.instructions, 100_000);
        assert!(r.ipc() <= 1.0 + 1e-9, "scalar issue cannot exceed IPC 1, got {}", r.ipc());
        assert!(r.ipc() > 0.9, "independent single-cycle ops should approach IPC 1, got {}", r.ipc());
    }

    #[test]
    fn max_instructions_caps_the_run() {
        let trace: Vec<_> = (0..10_000)
            .map(|i| TraceInstruction::alu(0x1000 + i * 4, OpClass::IntAlu))
            .collect();
        let r = scalar_core().run(&mut trace.into_iter(), Some(1_000));
        assert_eq!(r.instructions, 1_000);
    }

    #[test]
    fn a_config_without_a_functional_unit_is_rejected_naming_its_class() {
        let config = CpuConfig {
            fp_muls: 0,
            ..CpuConfig::ispass2010()
        };
        let error = InOrderCore::new(config, hierarchy()).unwrap_err();
        assert_eq!(error, CpuConfigError::NoUnit(OpClass::FpMul));
        assert_eq!(error.to_string(), "no functional unit executes FpMul ops");
    }

    #[test]
    fn stall_on_use_hides_load_latency_until_the_consumer() {
        // A load followed immediately by its consumer stalls for the load-use
        // latency; padding the gap with independent work hides it.
        let make = |gap: usize| -> Vec<TraceInstruction> {
            let mut trace = Vec::new();
            for i in 0..2_000u64 {
                trace.push(TraceInstruction::load(
                    0x1000 + (i % 16) * 4,
                    0x40_0000 + (i % 64) * 64,
                    2,
                ));
                for g in 0..gap {
                    trace.push(TraceInstruction::alu(
                        0x2000 + (g as u64) * 4,
                        OpClass::IntAlu,
                    ));
                }
                trace.push(
                    TraceInstruction::alu(0x3000, OpClass::IntAlu)
                        .with_dest(3)
                        .with_srcs(Some(2), None),
                );
            }
            trace
        };
        let tight = run(make(0));
        let padded = run(make(4));
        // Same loads either way; the padded version does more work in no more
        // cycles per load-use pair, so its CPI must be lower.
        assert!(
            padded.cpi() < tight.cpi(),
            "independent work should hide the load-use latency: {} vs {}",
            padded.cpi(),
            tight.cpi()
        );
    }

    #[test]
    fn blocking_cache_serializes_independent_misses() {
        // Independent missing loads (distinct destinations, never consumed):
        // an OoO core overlaps them through the LSQ; the in-order blocking
        // cache serializes each full miss latency.
        let make = || -> Vec<TraceInstruction> {
            (0..2_000)
                .map(|i| {
                    TraceInstruction::load(0x1000 + (i % 16) * 4, 0x100_0000 + i * 4096, (i % 8) as u8)
                })
                .collect()
        };
        let inorder = run(make());
        let mut ooo = Pipeline::new(CpuConfig::ispass2010(), hierarchy()).unwrap();
        let ooo_result = ooo.run(&mut make().into_iter(), None);
        assert!(inorder.hierarchy.l1d.miss_rate() > 0.9);
        assert!(
            inorder.cycles > ooo_result.cycles * 3,
            "misses that the OoO core overlaps must serialize in order: {} vs {}",
            inorder.cycles,
            ooo_result.cycles
        );
    }

    #[test]
    fn mispredicted_branches_cost_pipeline_refills() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let random: Vec<_> = (0..20_000)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                TraceInstruction::conditional_branch(0x6000 + (i % 512) * 4, state & 1 == 1, 0x7000)
            })
            .collect();
        let predictable: Vec<_> = (0..20_000)
            .map(|i| TraceInstruction::conditional_branch(0x6000 + (i % 512) * 4, true, 0x7000))
            .collect();
        let r_random = run(random);
        let r_predictable = run(predictable);
        assert!(r_random.branch_mispredict_rate() > 0.3);
        assert!(r_predictable.branch_mispredict_rate() < 0.05);
        assert!(
            r_predictable.ipc() > r_random.ipc() * 1.5,
            "mispredictions should hurt: {} vs {}",
            r_predictable.ipc(),
            r_random.ipc()
        );
    }

    #[test]
    fn drain_cycles_use_the_shallow_in_order_bound() {
        let core = scalar_core();
        // front_end_depth (10) + in-flight instruction (1) + L1 (3) + L2 (20) +
        // memory (255).
        assert_eq!(core.drain_cycles(), 10 + 1 + 3 + 20 + 255);
        let low = InOrderCore::new(
            CpuConfig::ispass2010(),
            CacheHierarchy::new(HierarchyConfig::ispass2010(
                DisablingScheme::Baseline,
                VoltageMode::Low,
            )),
        )
        .unwrap();
        assert!(low.drain_cycles() < core.drain_cycles());
    }

    #[test]
    fn reset_stats_clears_counters_but_keeps_training() {
        let trace: Vec<_> = (0..2_000)
            .map(|i| TraceInstruction::conditional_branch(0x6000 + (i % 64) * 4, true, 0x7000))
            .collect();
        let mut core = scalar_core();
        let first = core.run(&mut trace.clone().into_iter(), None);
        core.reset_stats();
        let second = core.run(&mut trace.into_iter(), None);
        assert!(first.conditional_branches == second.conditional_branches);
        assert!(
            second.branch_mispredictions <= first.branch_mispredictions,
            "training persists across reset_stats: {} vs {}",
            second.branch_mispredictions,
            first.branch_mispredictions
        );
    }
}
