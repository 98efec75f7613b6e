//! The cycle-level out-of-order pipeline model.
//!
//! Each simulated cycle performs, in back-to-front order: commit, completion,
//! issue, dispatch and fetch. The model tracks the reorder buffer, the integer and
//! floating-point issue queues, the load/store queue, per-class functional-unit
//! availability, register dependences through a rename table, the gshare/RAS front
//! end, and the instruction- and data-side cache hierarchies.
//!
//! Branch mispredictions stall the front end until the branch resolves (issues and
//! executes); the subsequent pipeline-refill delay is modeled by the front-end depth
//! every fetched instruction must traverse before dispatch. Wrong-path instructions
//! themselves are not simulated — their primary performance effect (the refill
//! bubble) is captured, which is sufficient for the relative cache-organization
//! comparisons the paper makes.
//!
//! # The event-driven loop
//!
//! [`Pipeline::run`] never scans the whole reorder buffer, and skips the
//! cycles in which nothing can happen:
//!
//! - The reorder buffer is a ring indexed by sequence number (the instruction
//!   with sequence number `seq` lives in slot `seq mod rob_entries`), so
//!   reaching any in-flight instruction is one index.
//! - Every in-flight instruction counts its source operands whose producer has
//!   not completed, and every producer keeps the list of those waiting consumer
//!   operands. A completion walks its list; a consumer whose count reaches zero
//!   joins a ready bitset over the slots.
//! - Issue walks the ready bitset from the head slot, so it visits ready
//!   instructions oldest first: loads reach the data cache in the same order,
//!   and the issue-width and functional-unit limits pick the same instructions,
//!   as a scan of the whole reorder buffer would.
//! - Issued instructions wait on a completion wheel (a hashed timing wheel,
//!   Varghese and Lauck, SOSP 1987): one bucket per due cycle modulo
//!   `WHEEL_BUCKETS`, each a singly linked list threaded through the
//!   reorder-buffer slots, with an occupancy bitset over the buckets. Each
//!   executed cycle drains its own bucket. An entry due on a later lap of the
//!   wheel stays in its bucket until its lap comes round, so every latency is
//!   exact and the wheel never grows. The order in which one cycle's
//!   completions are taken does not matter, because they commute: completing
//!   an entry only decrements its consumers' pending counts and sets ready
//!   bits, and a resolving mispredicted branch only raises the end of the
//!   fetch stall to the next cycle.
//! - Commit clears the rename table at the retiring instruction's own
//!   destination register, the only one that can still name it.
//!
//! **The idle-cycle skip is exact.** A cycle in which no stage changes any
//! state — nothing commits, completes, issues, dispatches or is fetched, and
//! the front end neither touches the instruction cache nor finds the trace
//! exhausted — leaves the machine exactly as it found it, apart from the
//! clock. The clock enters the stages' decisions through three comparisons
//! only: an issued entry's due cycle, the fetch-queue head's `ready_at`, and
//! the end of a fetch stall. Until the clock reaches the earliest of these,
//! every cycle would repeat the idle one, so the loop jumps straight to it,
//! or to the wheel's next occupied bucket if that comes first (the bucket's
//! entries may be due a lap later, and the cycle reached is then idle again).
//! The jump never passes a due cycle, so every entry completes in the cycle
//! it is due. Skipped cycles still count, and no cache access moves
//! to another cycle or order, so [`SimResult`] is exactly that of a loop that
//! steps one cycle at a time. An idle cycle with none of the three events
//! ahead can never be followed by progress: that is a deadlock, which no
//! configuration that [`CpuConfig::validate`] accepts can reach, and the loop
//! reports it at once as a broken invariant.
//!
//! # Chunked runs
//!
//! The pipeline keeps every structure of its run (the reorder buffer, the
//! fetch queue, and in a `RunState` the rename table, the queue occupancies,
//! the front-end state and the clock) between calls, so a run can take its trace
//! in slices ([`Cpu::begin`], [`Cpu::feed`], [`Cpu::finish`]). The trace is
//! read in one place only: the fetch stage, the last stage of a cycle. When a
//! slice runs dry there, the run suspends mid-fetch and records how much of
//! that cycle's fetch bandwidth it has used and whether an earlier stage of
//! the cycle changed state. The next slice resumes the same cycle's fetch
//! where it stopped, and [`Cpu::finish`] resumes it with the trace at its end.
//! No other stage reads the trace and no decision looks ahead of the
//! instruction being fetched, so every cycle does exactly what it would have
//! done with the whole trace at hand. Each call loads the run's scalars into
//! locals for its one loop and stores them back when it returns.

use std::collections::VecDeque;

use vccmin_cache::{AccessResult, CacheHierarchy};

use crate::branch::{BranchPredictor, FrontEndPredictor};
use crate::config::{CpuConfig, CpuConfigError};
use crate::core::Cpu;
use crate::instruction::{OpClass, Reg, TraceInstruction, NUM_REGS};
use crate::result::SimResult;

/// A source of trace instructions for the pipeline.
///
/// Implemented for every iterator over [`TraceInstruction`], so a `Vec`'s iterator
/// or a lazily generating workload both work.
pub trait TraceSource {
    /// Returns the next instruction of the trace, or `None` when it is exhausted.
    fn next_instruction(&mut self) -> Option<TraceInstruction>;
}

impl<I> TraceSource for I
where
    I: Iterator<Item = TraceInstruction>,
{
    fn next_instruction(&mut self) -> Option<TraceInstruction> {
        self.next()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Dispatched into the ROB / issue queue, waiting for operands or resources.
    Waiting,
    /// Issued to a functional unit, executing.
    Issued,
    /// Execution finished; waiting to commit in order.
    Completed,
}

/// Ends an intrusive list: a consumer list or a completion-wheel bucket.
const NIL: usize = usize::MAX;

/// Buckets of the completion wheel. A power of two, so a due cycle finds its
/// bucket with a mask, and above the longest latency of the paper's
/// hierarchies (a 4-cycle L1 hit, then the L2 with any repair overhead and
/// 255 cycles of memory, under 300 in all), so at Table II no entry waits a
/// lap.
const WHEEL_BUCKETS: usize = 512;
const WHEEL_MASK: usize = WHEEL_BUCKETS - 1;

/// The completion-wheel bucket of due cycle `due`.
fn bucket_of(due: u64) -> usize {
    due as usize & WHEEL_MASK
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    op: OpClass,
    dest: Option<Reg>,
    mem_addr: Option<u64>,
    state: EntryState,
    /// Source operands whose producer has not completed yet.
    pending: u8,
    /// The first consumer operand waiting on this entry's result, encoded as
    /// `slot * 2 + operand`, or [`NIL`].
    consumers: usize,
    /// For each source operand, the next consumer operand waiting on the same
    /// producer.
    next_consumer: [usize; 2],
    /// Once issued, the cycle the entry completes in.
    due: u64,
    /// Once issued, the next slot in the same wheel bucket, or [`NIL`].
    next_due: usize,
}

impl RobEntry {
    fn new(instr: &TraceInstruction) -> Self {
        Self {
            op: instr.op,
            dest: instr.dest,
            mem_addr: instr.mem_addr,
            state: EntryState::Waiting,
            pending: 0,
            consumers: NIL,
            next_consumer: [NIL; 2],
            due: 0,
            next_due: NIL,
        }
    }
}

/// The lowest set bit of `bits` in `from..to`.
fn first_set_in(bits: &[u64], from: usize, to: usize) -> Option<usize> {
    if from >= to {
        return None;
    }
    let mut word = from / 64;
    let mut set = bits[word] & (u64::MAX << (from % 64));
    loop {
        if set != 0 {
            let bit = word * 64 + set.trailing_zeros() as usize;
            return (bit < to).then_some(bit);
        }
        word += 1;
        if word * 64 >= to {
            return None;
        }
        set = bits[word];
    }
}

/// The reorder buffer: a ring of `rob_entries` slots holding the in-flight
/// sequence numbers `head..head + len` (sequence number `seq` in slot
/// `seq mod rob_entries`), the bitset of ready slots — entries waiting in an
/// issue queue whose every producer has completed — and the completion wheel
/// of the issued entries (see the module documentation).
#[derive(Debug)]
struct ReorderBuffer {
    entries: Vec<RobEntry>,
    head: u64,
    head_slot: usize,
    len: usize,
    ready: Vec<u64>,
    /// The first slot of each wheel bucket's list, or [`NIL`].
    wheel: Box<[usize; WHEEL_BUCKETS]>,
    /// The non-empty wheel buckets.
    occupied: [u64; WHEEL_BUCKETS / 64],
}

impl ReorderBuffer {
    fn new(capacity: usize) -> Self {
        let placeholder = RobEntry::new(&TraceInstruction::alu(0, OpClass::IntAlu));
        Self {
            entries: vec![placeholder; capacity],
            head: 0,
            head_slot: 0,
            len: 0,
            ready: vec![0; capacity.div_ceil(64)],
            wheel: Box::new([NIL; WHEEL_BUCKETS]),
            occupied: [0; WHEEL_BUCKETS / 64],
        }
    }

    /// Empties the buffer and restarts its sequence numbers at 0.
    fn clear(&mut self) {
        self.head = 0;
        self.head_slot = 0;
        self.len = 0;
        self.ready.fill(0);
        self.wheel.fill(NIL);
        self.occupied = [0; WHEEL_BUCKETS / 64];
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn is_full(&self) -> bool {
        self.len >= self.entries.len()
    }

    /// Folds a slot index in `0..2 * capacity` back into the ring.
    fn wrap(&self, slot: usize) -> usize {
        if slot >= self.entries.len() {
            slot - self.entries.len()
        } else {
            slot
        }
    }

    /// The slot of the in-flight instruction `age` entries behind the head.
    fn slot_at(&self, age: usize) -> usize {
        self.wrap(self.head_slot + age)
    }

    /// The slot of in-flight sequence number `seq`.
    fn slot(&self, seq: u64) -> usize {
        self.slot_at((seq - self.head) as usize)
    }

    /// How far behind the head the entry in `slot` is.
    fn age(&self, slot: usize) -> usize {
        self.wrap(slot + self.entries.len() - self.head_slot)
    }

    fn head(&self) -> Option<&RobEntry> {
        (self.len > 0).then(|| &self.entries[self.head_slot])
    }

    /// The head's state, for diagnostics.
    fn describe_head(&self) -> String {
        match self.head() {
            Some(head) => format!(
                "seq {} {:?} {:?} with {} pending producer(s)",
                self.head, head.op, head.state, head.pending
            ),
            None => "empty".to_string(),
        }
    }

    /// Appends the next instruction in program order. Each source operand whose
    /// producer (the in-flight sequence number from the rename table) has not
    /// completed joins that producer's consumer list; with none pending, the
    /// entry is ready at once.
    fn push(&mut self, mut entry: RobEntry, producers: [Option<u64>; 2]) {
        let slot = self.slot_at(self.len);
        for (operand, producer) in producers.into_iter().enumerate() {
            let Some(producer) = producer else { continue };
            let producer = self.slot(producer);
            let producer = &mut self.entries[producer];
            if producer.state != EntryState::Completed {
                entry.next_consumer[operand] = producer.consumers;
                producer.consumers = slot * 2 + operand;
                entry.pending += 1;
            }
        }
        if entry.pending == 0 {
            self.set_ready(slot);
        }
        self.entries[slot] = entry;
        self.len += 1;
    }

    /// Removes the head if it has completed, returning it with its sequence
    /// number.
    fn retire(&mut self) -> Option<(u64, RobEntry)> {
        let head = *self.head()?;
        if head.state != EntryState::Completed {
            return None;
        }
        let seq = self.head;
        self.head += 1;
        self.head_slot = self.slot_at(1);
        self.len -= 1;
        Some((seq, head))
    }

    /// Marks `slot` issued, taking it out of the ready set and onto the wheel
    /// bucket of the cycle `due` it completes in.
    fn issue(&mut self, slot: usize, due: u64) {
        let bucket = bucket_of(due);
        let entry = &mut self.entries[slot];
        entry.state = EntryState::Issued;
        entry.due = due;
        entry.next_due = self.wheel[bucket];
        self.wheel[bucket] = slot;
        self.occupied[bucket / 64] |= 1 << (bucket % 64);
        self.ready[slot / 64] &= !(1 << (slot % 64));
    }

    /// Completes every issued entry due at `cycle`, in any order (they
    /// commute), and leaves the bucket's entries due on a later lap in it.
    /// Returns how many completed, and whether sequence number `branch` was
    /// among them.
    fn complete_due(&mut self, cycle: u64, branch: Option<u64>) -> (usize, bool) {
        let bucket = bucket_of(cycle);
        if self.wheel[bucket] == NIL {
            return (0, false);
        }
        let mut link = std::mem::replace(&mut self.wheel[bucket], NIL);
        let (mut completed, mut resolved) = (0, false);
        while link != NIL {
            let slot = link;
            let entry = &mut self.entries[slot];
            link = entry.next_due;
            if entry.due != cycle {
                entry.next_due = self.wheel[bucket];
                self.wheel[bucket] = slot;
                continue;
            }
            self.complete(slot);
            completed += 1;
            if let Some(branch) = branch {
                resolved |= self.head + self.age(slot) as u64 == branch;
            }
        }
        if self.wheel[bucket] == NIL {
            self.occupied[bucket / 64] &= !(1 << (bucket % 64));
        }
        (completed, resolved)
    }

    /// The first cycle after `cycle` whose wheel bucket is occupied, or `None`
    /// with nothing issued. That is the next completion, unless the bucket's
    /// entries are due on a later lap; it is never after the next completion.
    fn next_due(&self, cycle: u64) -> Option<u64> {
        let from = bucket_of(cycle + 1);
        let next = first_set_in(&self.occupied, from, WHEEL_BUCKETS)
            .or_else(|| first_set_in(&self.occupied, 0, from))?;
        Some(cycle + 1 + (next.wrapping_sub(from) & WHEEL_MASK) as u64)
    }

    /// Marks `slot` completed and wakes its consumers; each one left with no
    /// pending producer becomes ready.
    fn complete(&mut self, slot: usize) {
        let entry = &mut self.entries[slot];
        entry.state = EntryState::Completed;
        let mut link = std::mem::replace(&mut entry.consumers, NIL);
        while link != NIL {
            let (consumer, operand) = (link / 2, link % 2);
            let entry = &mut self.entries[consumer];
            link = entry.next_consumer[operand];
            entry.pending -= 1;
            if entry.pending == 0 {
                self.set_ready(consumer);
            }
        }
    }

    fn set_ready(&mut self, slot: usize) {
        self.ready[slot / 64] |= 1 << (slot % 64);
    }

    #[cfg(debug_assertions)]
    fn is_ready(&self, slot: usize) -> bool {
        self.ready[slot / 64] & (1 << (slot % 64)) != 0
    }

    /// The oldest ready entry at least `age` entries behind the head, as
    /// `(slot, age)`.
    fn next_ready(&self, age: usize) -> Option<(usize, usize)> {
        let capacity = self.entries.len();
        let from = self.head_slot + age;
        if from < capacity {
            if let Some(slot) = first_set_in(&self.ready, from, capacity) {
                return Some((slot, slot - self.head_slot));
            }
            first_set_in(&self.ready, 0, self.head_slot)
                .map(|slot| (slot, slot + capacity - self.head_slot))
        } else {
            first_set_in(&self.ready, from - capacity, self.head_slot)
                .map(|slot| (slot, slot + capacity - self.head_slot))
        }
    }

    /// Occupancy invariants, checked in debug builds at the end of every cycle
    /// the loop executes (a skipped cycle changes no state); release builds
    /// compile neither the check nor its call.
    #[cfg(debug_assertions)]
    fn debug_check(&self, cycle: u64, issue_queues: usize, lsq: usize) {
        let (mut waiting, mut issued, mut memory, mut ready) = (0, 0, 0, 0);
        for age in 0..self.len {
            let slot = self.slot_at(age);
            let entry = &self.entries[slot];
            waiting += usize::from(entry.state == EntryState::Waiting);
            issued += usize::from(entry.state == EntryState::Issued);
            memory += usize::from(entry.op.is_mem());
            let should_be_ready = entry.state == EntryState::Waiting && entry.pending == 0;
            debug_assert_eq!(
                self.is_ready(slot),
                should_be_ready,
                "slot {slot}: the ready set must hold exactly the waiting entries with no \
                 pending producer"
            );
            ready += usize::from(should_be_ready);
        }
        let ready_bits: usize = self.ready.iter().map(|w| w.count_ones() as usize).sum();
        debug_assert_eq!(ready_bits, ready, "ready bits outside the in-flight range");
        debug_assert_eq!(
            issue_queues, waiting,
            "issue-queue occupancy must equal the waiting entries"
        );
        debug_assert_eq!(lsq, memory, "LSQ occupancy must equal the in-flight memory ops");

        // The wheel holds exactly the issued entries, each in the bucket of
        // its due cycle, and every due cycle is still ahead.
        let mut on_wheel = 0;
        for (bucket_index, &first) in self.wheel.iter().enumerate() {
            debug_assert_eq!(
                self.occupied[bucket_index / 64] & (1 << (bucket_index % 64)) != 0,
                first != NIL,
                "bucket {bucket_index}: the occupancy bit must mark a non-empty bucket"
            );
            let mut link = first;
            while link != NIL {
                let entry = &self.entries[link];
                debug_assert!(
                    self.age(link) < self.len && entry.state == EntryState::Issued,
                    "slot {link} is on the wheel but not an issued in-flight entry"
                );
                debug_assert_eq!(bucket_of(entry.due), bucket_index, "slot {link}: wrong bucket");
                debug_assert!(entry.due > cycle, "slot {link}: due by cycle {cycle}");
                on_wheel += 1;
                debug_assert!(on_wheel <= issued, "the wheel holds more than the issued entries");
                link = entry.next_due;
            }
        }
        debug_assert_eq!(on_wheel, issued, "the wheel must hold exactly the issued entries");
    }
}

#[derive(Debug, Clone)]
struct FetchedInstr {
    seq: u64,
    instr: TraceInstruction,
    ready_at: u64,
}

/// Where a run that ran out of trace stopped: in the fetch stage of its
/// current cycle.
#[derive(Debug, Clone, Copy)]
struct Suspended {
    /// Instructions the cycle has fetched so far.
    fetched_this_cycle: u32,
    /// Whether commit, completion, issue or dispatch changed state in the
    /// cycle.
    progressed: bool,
}

/// The scalar state of a run between two slices of its trace, and its
/// rename table: with the pipeline's buffers, everything the loop of
/// [`Pipeline::feed`] carries from one cycle to the next.
#[derive(Debug, Clone)]
struct RunState {
    /// Instructions the run may fetch.
    fetch_limit: u64,
    cycle: u64,
    committed: u64,
    fetched: u64,
    loads: u64,
    stores: u64,
    next_seq: u64,
    /// An instruction taken from the trace whose fetch block has not arrived.
    pending_fetch: Option<TraceInstruction>,
    /// The trace has ended or the fetch limit is reached.
    trace_done: bool,
    /// Rename table: architectural register -> seq of the in-flight producer.
    reg_producer: [Option<u64>; NUM_REGS],
    int_iq: usize,
    fp_iq: usize,
    lsq: usize,
    fetch_stall_until: u64,
    waiting_branch: Option<u64>,
    current_fetch_block: Option<u64>,
    suspended: Option<Suspended>,
    /// The run has drained: nothing is in flight and nothing more is fetched.
    done: bool,
}

impl RunState {
    /// A run at cycle 0 with an empty machine.
    fn new(max_instructions: Option<u64>) -> Self {
        Self {
            fetch_limit: max_instructions.unwrap_or(u64::MAX),
            cycle: 0,
            committed: 0,
            fetched: 0,
            loads: 0,
            stores: 0,
            next_seq: 0,
            pending_fetch: None,
            trace_done: false,
            reg_producer: [None; NUM_REGS],
            int_iq: 0,
            fp_iq: 0,
            lsq: 0,
            fetch_stall_until: 0,
            waiting_branch: None,
            current_fetch_block: None,
            suspended: None,
            done: false,
        }
    }
}

/// The pipeline model: configuration, branch predictor, cache hierarchy and
/// the state of the current run.
#[derive(Debug)]
pub struct Pipeline {
    config: CpuConfig,
    hierarchy: CacheHierarchy,
    predictor: FrontEndPredictor,
    rob: ReorderBuffer,
    fetch_queue: VecDeque<FetchedInstr>,
    /// Stores retiring in one cycle update the data cache as a single batch
    /// (in commit order); both buffers are reused across cycles. The store
    /// results are latency-irrelevant (retirement is off the critical path)
    /// but the accesses themselves mutate the cache state, so they must
    /// happen at commit, in program order.
    store_batch: Vec<(u64, bool)>,
    store_results: Vec<AccessResult>,
    run: RunState,
}

impl Pipeline {
    /// Creates a pipeline with the given core configuration and cache hierarchy.
    ///
    /// # Errors
    ///
    /// A configuration that [`CpuConfig::validate`] rejects: one under which
    /// some trace could never drain, such as `lsq_entries: 0` or no
    /// functional unit for an operation class.
    pub fn new(config: CpuConfig, hierarchy: CacheHierarchy) -> Result<Self, CpuConfigError> {
        config.validate()?;
        Ok(Self::assemble(config, hierarchy))
    }

    /// Builds a pipeline without validating its configuration.
    fn assemble(config: CpuConfig, hierarchy: CacheHierarchy) -> Self {
        Self {
            predictor: FrontEndPredictor::new(config.gshare_history_bits, config.ras_entries),
            rob: ReorderBuffer::new(config.rob_entries),
            fetch_queue: VecDeque::new(),
            store_batch: Vec::with_capacity(config.commit_width as usize),
            store_results: Vec::with_capacity(config.commit_width as usize),
            run: RunState::new(None),
            config,
            hierarchy,
        }
    }

    /// Resets every statistics counter (cache hierarchy, branch predictor)
    /// while preserving cache contents and predictor training state. Callers
    /// that issue multiple [`Pipeline::run`] calls on one pipeline (e.g. a
    /// voltage-mode governor executing consecutive same-mode segments) use
    /// this between calls so each [`SimResult`] reports *that segment's*
    /// counters instead of pipeline-lifetime cumulative ones.
    pub fn reset_stats(&mut self) {
        self.hierarchy.reset_stats();
        self.predictor.conditional_branches = 0;
        self.predictor.mispredictions = 0;
    }

    /// Worst-case cycles to drain the machine before a voltage-mode transition:
    /// stop fetching, let every in-flight instruction (up to a full ROB,
    /// retiring `commit_width` per cycle) complete — including one outstanding
    /// access that missed all the way to memory
    /// ([`CacheHierarchy::worst_access_latency`]) — and discard the front-end
    /// stages. This is the pipeline-side component of a governor's transition
    /// cost; the cache-side component is
    /// [`RepairScheme::reconfiguration_cycles`](vccmin_cache::RepairScheme::reconfiguration_cycles).
    #[must_use]
    pub fn drain_cycles(&self) -> u64 {
        let cfg = &self.config;
        let rob_drain = (cfg.rob_entries as u64).div_ceil(u64::from(cfg.commit_width.max(1)));
        // The worst access includes every repair-scheme overhead, so a
        // repaired cache stretches the drain bound like it stretches the
        // in-flight accesses it covers.
        let worst_memory_access = u64::from(self.hierarchy.worst_access_latency());
        u64::from(cfg.front_end_depth) + rob_drain + worst_memory_access
    }

    /// Simulates the trace until it is exhausted or `max_instructions` have been
    /// committed, and returns the aggregate result ([`Cpu::run`]).
    pub fn run(
        &mut self,
        trace: &mut dyn TraceSource,
        max_instructions: Option<u64>,
    ) -> SimResult {
        Cpu::run(self, trace, max_instructions)
    }

    /// Starts a run that fetches at most `max_instructions` instructions, at
    /// cycle 0 with an empty machine ([`Cpu::begin`]).
    pub fn begin(&mut self, max_instructions: Option<u64>) {
        self.rob.clear();
        self.fetch_queue.clear();
        self.run = RunState::new(max_instructions);
    }

    /// Simulates the run until it needs an instruction past `chunk`, the
    /// next slice of its trace, or until it drains ([`Cpu::feed`]).
    pub fn feed(&mut self, chunk: &[TraceInstruction]) {
        self.advance(chunk, false);
    }

    /// Ends the run's trace, simulates until the machine drains and returns
    /// the run's result ([`Cpu::finish`]).
    pub fn finish(&mut self) -> SimResult {
        self.advance(&[], true);
        let run = &self.run;
        SimResult {
            instructions: run.committed,
            cycles: run.cycle.max(1),
            loads: run.loads,
            stores: run.stores,
            conditional_branches: self.predictor.conditional_branches,
            branch_mispredictions: self.predictor.mispredictions,
            hierarchy: self.hierarchy.stats(),
        }
    }

    /// The cycle loop: runs cycles until fetch needs an instruction past
    /// `chunk` (unless `last`, when the trace ends there) or the machine
    /// drains.
    ///
    /// # Panics
    ///
    /// Panics on a deadlock, an idle cycle with no completion,
    /// dispatch-readiness or fetch-stall event ahead, naming the state of the
    /// reorder-buffer head. A configuration that [`CpuConfig::validate`]
    /// accepts cannot deadlock, so this guards an invariant.
    fn advance(&mut self, chunk: &[TraceInstruction], last: bool) {
        if self.run.done {
            return;
        }
        let cfg = self.config;
        let l1i_hit_latency = self.hierarchy.l1_hit_latency();
        // The fetch queue models every front-end stage between fetch and dispatch, so
        // it must hold front_end_depth cycles' worth of fetch bandwidth (plus slack)
        // or it would artificially throttle the pipeline.
        let fetch_buffer_capacity = (cfg.fetch_width * (cfg.front_end_depth + 4)) as usize;
        let hierarchy = &mut self.hierarchy;
        let predictor = &mut self.predictor;
        let rob = &mut self.rob;
        let fetch_queue = &mut self.fetch_queue;
        let store_batch = &mut self.store_batch;
        let store_results = &mut self.store_results;
        let run = &mut self.run;
        let reg_producer = &mut run.reg_producer;
        let fetch_limit = run.fetch_limit;
        let mut cycle = run.cycle;
        let mut committed = run.committed;
        let mut fetched = run.fetched;
        let mut loads = run.loads;
        let mut stores = run.stores;
        let mut next_seq = run.next_seq;
        let mut pending_fetch = run.pending_fetch.take();
        let mut trace_done = run.trace_done;
        let mut int_iq = run.int_iq;
        let mut fp_iq = run.fp_iq;
        let mut lsq = run.lsq;
        let mut fetch_stall_until = run.fetch_stall_until;
        let mut waiting_branch = run.waiting_branch;
        let mut current_fetch_block = run.current_fetch_block;
        let mut resume = run.suspended.take();
        let mut next = 0;

        let suspended = 'cycles: loop {
            let Suspended {
                mut fetched_this_cycle,
                progressed,
            } = match resume.take() {
                Some(suspended) => suspended,
                None => {
                    // ----------------------------------------------------------
                    // 1. Commit: retire completed instructions in order.
                    // ----------------------------------------------------------
                    let mut commits = 0;
                    store_batch.clear();
                    while commits < cfg.commit_width {
                        let Some((seq, head)) = rob.retire() else { break };
                        if head.op.is_mem() {
                            lsq -= 1;
                            if head.op == OpClass::Store {
                                // Stores update the data cache at retirement; the access
                                // latency is off the critical path of the pipeline.
                                if let Some(addr) = head.mem_addr {
                                    store_batch.push((addr, true));
                                }
                                stores += 1;
                            } else {
                                loads += 1;
                            }
                        }
                        // Clear the rename table if this instruction is still the newest
                        // producer of its destination register.
                        if let Some(dest) = head.dest {
                            let producer = &mut reg_producer[dest as usize];
                            if *producer == Some(seq) {
                                *producer = None;
                            }
                        }
                        committed += 1;
                        commits += 1;
                    }
                    if !store_batch.is_empty() {
                        store_results.clear();
                        hierarchy.access_data_batch(store_batch, store_results);
                    }

                    // ----------------------------------------------------------
                    // 2. Completion: finish the issued instructions due this cycle.
                    // ----------------------------------------------------------
                    let (completed, branch_resolved) = rob.complete_due(cycle, waiting_branch);
                    if branch_resolved {
                        // The mispredicted branch resolved: the front end may restart
                        // next cycle.
                        waiting_branch = None;
                        fetch_stall_until = fetch_stall_until.max(cycle + 1);
                    }

                    // ----------------------------------------------------------
                    // 3. Issue: select ready instructions, oldest first.
                    // ----------------------------------------------------------
                    let mut issued_this_cycle = 0u32;
                    let mut int_alu_used = 0u32;
                    let mut int_mul_used = 0u32;
                    let mut fp_alu_used = 0u32;
                    let mut fp_mul_used = 0u32;
                    let mut mem_ports_used = 0u32;
                    let mut age = 0;
                    while issued_this_cycle < cfg.issue_width {
                        let Some((slot, slot_age)) = rob.next_ready(age) else { break };
                        age = slot_age + 1;
                        let entry = rob.entries[slot];
                        // Functional-unit availability.
                        let (used, limit): (&mut u32, u32) = match entry.op {
                            OpClass::IntAlu | OpClass::Branch => (&mut int_alu_used, cfg.int_alus),
                            OpClass::IntMul => (&mut int_mul_used, cfg.int_muls),
                            OpClass::FpAlu => (&mut fp_alu_used, cfg.fp_alus),
                            OpClass::FpMul => (&mut fp_mul_used, cfg.fp_muls),
                            OpClass::Load | OpClass::Store => (&mut mem_ports_used, cfg.mem_ports),
                        };
                        if *used >= limit {
                            continue;
                        }
                        *used += 1;
                        issued_this_cycle += 1;

                        // Execution latency.
                        let latency = match entry.op {
                            OpClass::Load => {
                                // simlint::allow(panic-path, "dispatch stores an address for every memory op before it reaches issue")
                                let addr = entry.mem_addr.expect("loads carry an address");
                                let access = hierarchy.access_data(addr, false);
                                access.latency
                            }
                            other => cfg.exec_latency(other),
                        };
                        rob.issue(slot, cycle + u64::from(latency.max(1)));
                        // Leaving the issue queue frees its entry.
                        if entry.op.is_fp() {
                            fp_iq -= 1;
                        } else {
                            int_iq -= 1;
                        }
                    }

                    // ----------------------------------------------------------
                    // 4. Dispatch: move fetched instructions into the ROB / issue queues.
                    // ----------------------------------------------------------
                    let mut dispatched = 0;
                    while dispatched < cfg.decode_width {
                        let Some(front) = fetch_queue.front() else { break };
                        if front.ready_at > cycle || rob.is_full() {
                            break;
                        }
                        let needs_fp = front.instr.op.is_fp();
                        if needs_fp && fp_iq >= cfg.fp_iq_entries {
                            break;
                        }
                        if !needs_fp && int_iq >= cfg.int_iq_entries {
                            break;
                        }
                        if front.instr.is_mem() && lsq >= cfg.lsq_entries {
                            break;
                        }
                        let Some(fetched_instr) = fetch_queue.pop_front() else { break };
                        let instr = fetched_instr.instr;
                        debug_assert_eq!(fetched_instr.seq, rob.head + rob.len as u64);
                        let producers =
                            instr.srcs.map(|src| src.and_then(|reg| reg_producer[reg as usize]));
                        if let Some(dest) = instr.dest {
                            reg_producer[dest as usize] = Some(fetched_instr.seq);
                        }
                        if needs_fp {
                            fp_iq += 1;
                        } else {
                            int_iq += 1;
                        }
                        if instr.is_mem() {
                            lsq += 1;
                        }
                        rob.push(RobEntry::new(&instr), producers);
                        dispatched += 1;
                    }

                    Suspended {
                        fetched_this_cycle: 0,
                        progressed: commits > 0
                            || completed > 0
                            || issued_this_cycle > 0
                            || dispatched > 0,
                    }
                }
            };

            // ------------------------------------------------------------------
            // 5. Fetch: pull new instructions from the trace.
            // ------------------------------------------------------------------
            // Every pass of the fetch loop consumes the pending instruction or
            // the trace, so it changes state even when it stalls.
            let mut fetch_changed = false;
            if waiting_branch.is_none() && cycle >= fetch_stall_until && !trace_done {
                while fetched_this_cycle < cfg.fetch_width
                    && fetch_queue.len() < fetch_buffer_capacity
                    && fetched < fetch_limit
                {
                    fetch_changed = true;
                    let instr = match pending_fetch.take() {
                        Some(i) => i,
                        None => match chunk.get(next) {
                            Some(&i) => {
                                next += 1;
                                i
                            }
                            None if last => {
                                trace_done = true;
                                break;
                            }
                            None => {
                                break 'cycles Some(Suspended {
                                    fetched_this_cycle,
                                    progressed,
                                })
                            }
                        },
                    };
                    // Instruction-cache access on a fetch-block change.
                    let block = instr.pc & !63;
                    if current_fetch_block != Some(block) {
                        let access = hierarchy.access_instr(instr.pc);
                        current_fetch_block = Some(block);
                        let extra = access.latency.saturating_sub(l1i_hit_latency);
                        if extra > 0 {
                            // The block is not available yet: stall the front end and
                            // retry this instruction when it arrives.
                            pending_fetch = Some(instr);
                            fetch_stall_until = cycle + u64::from(extra);
                            break;
                        }
                    }

                    let seq = next_seq;
                    next_seq += 1;
                    fetched += 1;
                    fetched_this_cycle += 1;

                    let mut mispredicted = false;
                    let mut taken = false;
                    if let Some(branch) = &instr.branch {
                        let correct = predictor.predict_and_update(instr.pc, branch);
                        mispredicted = !correct;
                        taken = branch.taken;
                        if taken {
                            // A taken branch redirects fetch to a new block.
                            current_fetch_block = None;
                        }
                    }
                    fetch_queue.push_back(FetchedInstr {
                        seq,
                        instr,
                        ready_at: cycle + u64::from(cfg.front_end_depth),
                    });
                    if mispredicted {
                        waiting_branch = Some(seq);
                        break;
                    }
                    if taken {
                        // At most one taken branch per fetch cycle.
                        break;
                    }
                }
                if fetched >= fetch_limit {
                    trace_done = true;
                    fetch_changed = true;
                }
            }

            #[cfg(debug_assertions)]
            rob.debug_check(cycle, int_iq + fp_iq, lsq);

            // ------------------------------------------------------------------
            // Termination, then the next cycle that can change anything.
            // ------------------------------------------------------------------
            if trace_done && rob.is_empty() && fetch_queue.is_empty() && pending_fetch.is_none() {
                break 'cycles None;
            }
            if progressed || fetch_changed {
                cycle += 1;
                continue;
            }
            // An idle cycle: nothing changes until the clock reaches the next
            // completion, the fetch-queue head's dispatch time or the end of a
            // fetch stall (see the module documentation).
            let next_completion = rob.next_due(cycle);
            let next_dispatch = fetch_queue.front().map(|f| f.ready_at).filter(|&t| t > cycle);
            let fetch_resume =
                (waiting_branch.is_none() && !trace_done && fetch_stall_until > cycle)
                    .then_some(fetch_stall_until);
            let events = [next_completion, next_dispatch, fetch_resume];
            let Some(next_event) = events.into_iter().flatten().min() else {
                // simlint::allow(panic-path, "a validated configuration cannot deadlock; this guards that invariant, documented under # Panics")
                panic!(
                    "pipeline deadlock at cycle {cycle}: no stage can make progress and no \
                     event is pending (ROB head: {}, ROB {}/{}, int IQ {int_iq}/{}, \
                     FP IQ {fp_iq}/{}, LSQ {lsq}/{}, fetch-queue head: {:?})",
                    rob.describe_head(),
                    rob.len,
                    cfg.rob_entries,
                    cfg.int_iq_entries,
                    cfg.fp_iq_entries,
                    cfg.lsq_entries,
                    fetch_queue.front().map(|f| f.instr),
                );
            };
            cycle = next_event;
        };

        run.cycle = cycle;
        run.committed = committed;
        run.fetched = fetched;
        run.loads = loads;
        run.stores = stores;
        run.next_seq = next_seq;
        run.pending_fetch = pending_fetch;
        run.trace_done = trace_done;
        run.int_iq = int_iq;
        run.fp_iq = fp_iq;
        run.lsq = lsq;
        run.fetch_stall_until = fetch_stall_until;
        run.waiting_branch = waiting_branch;
        run.current_fetch_block = current_fetch_block;
        run.done = suspended.is_none();
        run.suspended = suspended;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::{BranchInfo, BranchKind};
    use vccmin_cache::{DisablingScheme, HierarchyConfig, VoltageMode};

    fn baseline_pipeline() -> Pipeline {
        Pipeline::new(
            CpuConfig::ispass2010(),
            CacheHierarchy::new(HierarchyConfig::ispass2010_baseline_high_voltage()),
        )
        .unwrap()
    }

    fn run(trace: Vec<TraceInstruction>) -> SimResult {
        baseline_pipeline().run(&mut trace.into_iter(), None)
    }

    #[test]
    fn empty_trace_produces_empty_result() {
        let r = run(vec![]);
        assert_eq!(r.instructions, 0);
        assert!(r.cycles >= 1);
    }

    #[test]
    fn committed_instruction_count_equals_trace_length() {
        let trace: Vec<_> = (0..5_000)
            .map(|i| TraceInstruction::alu(0x1000 + i * 4, OpClass::IntAlu))
            .collect();
        let r = run(trace);
        assert_eq!(r.instructions, 5_000);
    }

    #[test]
    fn independent_alu_ops_reach_multi_issue_ipc() {
        let trace: Vec<_> = (0..20_000)
            .map(|i| TraceInstruction::alu(0x1000 + (i % 256) * 4, OpClass::IntAlu))
            .collect();
        let r = run(trace);
        assert!(
            r.ipc() > 2.0,
            "independent single-cycle ops should exceed IPC 2, got {}",
            r.ipc()
        );
        assert!(r.ipc() <= 4.0 + 1e-9, "IPC cannot exceed the commit width");
    }

    #[test]
    fn ipc_never_exceeds_commit_width() {
        let trace: Vec<_> = (0..10_000)
            .map(|i| TraceInstruction::alu(0x2000 + (i % 64) * 4, OpClass::IntAlu))
            .collect();
        let r = run(trace);
        assert!(r.ipc() <= 4.0 + 1e-9);
        assert!(r.cycles >= 10_000 / 4);
    }

    #[test]
    fn dependent_chain_limits_ipc_to_one() {
        // Every instruction depends on the previous one through register 1.
        let trace: Vec<_> = (0..5_000)
            .map(|i| {
                TraceInstruction::alu(0x3000 + (i % 64) * 4, OpClass::IntAlu)
                    .with_dest(1)
                    .with_srcs(Some(1), None)
            })
            .collect();
        let r = run(trace);
        assert!(
            r.ipc() <= 1.05,
            "a serial dependence chain cannot exceed IPC 1, got {}",
            r.ipc()
        );
    }

    #[test]
    fn fp_heavy_code_is_limited_by_the_single_fp_alu() {
        let fp_trace: Vec<_> = (0..5_000)
            .map(|i| TraceInstruction::alu(0x4000 + (i % 64) * 4, OpClass::FpAlu).with_dest(40))
            .collect();
        let int_trace: Vec<_> = (0..5_000)
            .map(|i| TraceInstruction::alu(0x4000 + (i % 64) * 4, OpClass::IntAlu).with_dest(4))
            .collect();
        let fp = run(fp_trace);
        let int = run(int_trace);
        assert!(fp.ipc() <= 1.05, "1 FP ALU bounds FP IPC at 1, got {}", fp.ipc());
        assert!(int.ipc() > fp.ipc());
    }

    #[test]
    fn cache_missing_loads_are_slower_than_hitting_loads() {
        // Hitting loads: a tiny working set. Missing loads: a huge stride.
        let hits: Vec<_> = (0..5_000)
            .map(|i| TraceInstruction::load(0x5000 + (i % 16) * 4, 0x100_0000 + (i % 64) * 4, 2))
            .collect();
        let misses: Vec<_> = (0..5_000)
            .map(|i| TraceInstruction::load(0x5000 + (i % 16) * 4, 0x100_0000 + i * 4096, 2))
            .collect();
        let fast = run(hits);
        let slow = run(misses);
        assert!(
            fast.ipc() > slow.ipc() * 1.5,
            "missing loads should be much slower: {} vs {}",
            fast.ipc(),
            slow.ipc()
        );
        assert!(slow.hierarchy.l1d.miss_rate() > 0.9);
        assert!(fast.hierarchy.l1d.miss_rate() < 0.1);
    }

    #[test]
    fn mispredicted_branches_cost_pipeline_refills() {
        // Alternating taken/not-taken is learned by gshare; a pseudo-random pattern
        // is not. The random pattern must run slower.
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
    fn max_instructions_caps_the_run() {
        let trace: Vec<_> = (0..10_000)
            .map(|i| TraceInstruction::alu(0x1000 + i * 4, OpClass::IntAlu))
            .collect();
        let r = baseline_pipeline().run(&mut trace.into_iter(), Some(1_000));
        assert_eq!(r.instructions, 1_000);
    }

    #[test]
    fn stores_update_the_data_cache_at_commit() {
        let trace: Vec<_> = (0..1_000)
            .map(|i| TraceInstruction::store(0x8000 + (i % 16) * 4, 0x20_0000 + (i % 8) * 64, 3))
            .collect();
        let r = run(trace);
        assert_eq!(r.stores, 1_000);
        assert!(r.hierarchy.l1d.accesses >= 1_000);
    }

    #[test]
    fn calls_and_returns_use_the_ras() {
        let mut trace = Vec::new();
        for i in 0..500u64 {
            let call_pc = 0x9000 + i * 16;
            trace.push(TraceInstruction {
                pc: call_pc,
                op: OpClass::Branch,
                dest: None,
                srcs: [None, None],
                mem_addr: None,
                branch: Some(BranchInfo {
                    kind: BranchKind::Call,
                    taken: true,
                    target: 0xf000,
                }),
            });
            trace.push(TraceInstruction::alu(0xf000, OpClass::IntAlu));
            trace.push(TraceInstruction {
                pc: 0xf004,
                op: OpClass::Branch,
                dest: None,
                srcs: [None, None],
                mem_addr: None,
                branch: Some(BranchInfo {
                    kind: BranchKind::Return,
                    taken: true,
                    target: call_pc + 4,
                }),
            });
        }
        let r = run(trace);
        assert_eq!(r.instructions, 1_500);
        // Well-nested call/return pairs should be predicted almost perfectly.
        assert!(r.branch_mispredictions < 10);
    }

    #[test]
    fn drain_cycles_cover_rob_front_end_and_one_memory_round_trip() {
        let p = baseline_pipeline();
        // front_end_depth (10) + rob/commit (128/4 = 32) + L1 (3) + L2 (20) +
        // memory (255).
        assert_eq!(p.drain_cycles(), 10 + 32 + 3 + 20 + 255);
        // At low voltage memory is closer in cycles, so the drain bound shrinks.
        let low = Pipeline::new(
            CpuConfig::ispass2010(),
            CacheHierarchy::new(HierarchyConfig::ispass2010(
                DisablingScheme::Baseline,
                VoltageMode::Low,
            )),
        )
        .unwrap();
        assert!(low.drain_cycles() < p.drain_cycles());
    }

    #[test]
    fn word_disabled_hierarchy_is_slower_for_l1_resident_loads() {
        // A load-heavy loop whose working set fits in the L1: the extra cycle of
        // word-disabling shows up directly in the load-use latency.
        let make_trace = || -> Vec<TraceInstruction> {
            (0..20_000)
                .map(|i| {
                    TraceInstruction::load(0x5000 + (i % 16) * 4, 0x40_0000 + (i % 128) * 64, 2)
                        .with_srcs(Some(2), None)
                })
                .collect()
        };
        let baseline = run(make_trace());
        let mut word_pipeline = Pipeline::new(
            CpuConfig::ispass2010(),
            CacheHierarchy::new(HierarchyConfig::ispass2010(
                DisablingScheme::WordDisabling,
                VoltageMode::High,
            )),
        )
        .unwrap();
        let word = word_pipeline.run(&mut make_trace().into_iter(), None);
        assert!(
            word.ipc() < baseline.ipc(),
            "word-disabling's extra L1 cycle must cost performance: {} vs {}",
            word.ipc(),
            baseline.ipc()
        );
    }

    /// Runs a trace that must deadlock and returns the panic message. The
    /// configuration skips validation, which would reject it: the loop's
    /// deadlock guard is what is under test.
    fn deadlock_message(config: CpuConfig, trace: Vec<TraceInstruction>) -> String {
        let mut pipeline = Pipeline::assemble(
            config,
            CacheHierarchy::new(HierarchyConfig::ispass2010_baseline_high_voltage()),
        );
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pipeline.run(&mut trace.into_iter(), None)
        }));
        let payload = outcome.expect_err("a configuration that cannot drain its trace must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("the deadlock panic carries a formatted message")
    }

    #[test]
    fn deadlocked_configurations_panic_on_the_first_idle_cycle() {
        let load = TraceInstruction::load(0x1000, 0x2000, 1);
        let fp = TraceInstruction::alu(0x1000, OpClass::FpMul).with_dest(40);
        let paper = CpuConfig::ispass2010();
        let cases = [
            ("no LSQ entry for a load", CpuConfig { lsq_entries: 0, ..paper }, load),
            ("no FP multiplier", CpuConfig { fp_muls: 0, ..paper }, fp),
            ("no reorder buffer", CpuConfig { rob_entries: 0, ..paper }, fp),
        ];
        for (label, config, instr) in cases {
            let hierarchy = CacheHierarchy::new(HierarchyConfig::ispass2010_baseline_high_voltage());
            assert!(Pipeline::new(config, hierarchy).is_err(), "{label}: validation rejects it");
            let message = deadlock_message(config, vec![instr]);
            let cycle: u64 = message
                .strip_prefix("pipeline deadlock at cycle ")
                .and_then(|rest| rest.split(':').next())
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("{label}: unexpected panic message: {message}"));
            // One cold I-cache miss to memory plus the front-end depth: the
            // deadlock is found within a few hundred cycles, not after a 1M-cycle
            // watchdog.
            assert!(cycle < 1_000, "{label}: deadlock reported only at cycle {cycle}");
            assert!(message.contains("ROB head"), "{label}: {message}");
        }
    }

    #[test]
    fn a_deadlock_names_the_stuck_reorder_buffer_head() {
        let config = CpuConfig { fp_alus: 0, ..CpuConfig::ispass2010() };
        let trace = vec![
            TraceInstruction::alu(0x1000, OpClass::IntAlu).with_dest(1),
            TraceInstruction::alu(0x1004, OpClass::FpAlu).with_dest(40),
        ];
        let message = deadlock_message(config, trace);
        assert!(
            message.contains("ROB head: seq 1 FpAlu Waiting with 0 pending producer(s)"),
            "{message}"
        );
    }

    #[test]
    fn consecutive_runs_restart_sequence_numbers_and_keep_warm_caches() {
        let trace = || {
            (0..4_000u64).map(|i| {
                TraceInstruction::load(0x1000 + (i % 64) * 4, 0x40_0000 + (i % 512) * 64, 2)
                    .with_srcs(Some(2), None)
            })
        };
        let mut pipeline = baseline_pipeline();
        let cold = pipeline.run(&mut trace(), None);
        pipeline.reset_stats();
        let warm = pipeline.run(&mut trace(), None);
        assert_eq!(cold.instructions, warm.instructions);
        assert!(warm.cycles < cold.cycles, "the second run starts with warm caches");
        assert!(warm.hierarchy.l1d.misses < cold.hierarchy.l1d.misses);
    }
}
