//! Differential tests of the event-driven out-of-order loop against a frozen,
//! line-for-line port of the per-cycle loop it replaced.
//!
//! The rebuilt [`Pipeline::run`] (sequence-indexed reorder buffer, wakeup
//! lists feeding a ready bitset, a fixed-size completion wheel whose buckets
//! hold every issued instruction until the cycle it is due, and the
//! idle-cycle skip) must be *bit-identical* to the old loop, which stepped
//! every cycle, rescanned the whole reorder buffer for completions and looked
//! up every source operand with a linear search. Every observable is
//! compared: the whole [`SimResult`], including the cache-hierarchy counters,
//! which would diverge if a single cache access moved to another cycle or
//! order.
//!
//! Besides the paper's hierarchies, every sweep runs each one with 10T and
//! with 6T victim caches on both L1s (a victim hit adds its own latency) and
//! with a memory latency of several thousand cycles, so that in-flight misses
//! stay on the completion wheel for many laps.
//!
//! Every comparison also feeds the rebuilt loop its trace in slices
//! (`begin`, `feed`, `finish`) of 1, 7 and 4096 instructions, which suspend
//! and resume the loop mid-fetch, and requires the same result as the
//! reference. A last property test builds random valid configurations and
//! checks that neither core deadlocks on random traces.

use std::collections::VecDeque;
use std::sync::OnceLock;

use proptest::prelude::*;

use vccmin_core::cache::{
    CacheGeometry, CacheHierarchy, DisablingScheme, FaultMap, HierarchyConfig, VictimCacheConfig,
    VoltageMode,
};
use vccmin_core::cpu::branch::FrontEndPredictor;
use vccmin_core::cpu::instruction::NUM_REGS;
use vccmin_core::cpu::{
    BranchInfo, BranchKind, BranchPredictor, Cpu, CpuConfig, InOrderCore, OpClass, Pipeline,
    SimResult, TraceInstruction, TraceSource,
};

// ---------------------------------------------------------------------------
// Reference implementation: a line-for-line port of the per-cycle loop.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    Waiting,
    Issued,
    Completed,
}

#[derive(Debug, Clone)]
struct RobEntry {
    seq: u64,
    op: OpClass,
    mem_addr: Option<u64>,
    mispredicted_branch: bool,
    deps: [Option<u64>; 2],
    state: EntryState,
    complete_cycle: u64,
}

#[derive(Debug, Clone)]
struct FetchedInstr {
    seq: u64,
    instr: TraceInstruction,
    ready_at: u64,
    mispredicted: bool,
}

/// Port of the pre-rebuild `Pipeline`: the same configuration, predictor and
/// hierarchy, and the loop that stepped one cycle at a time.
struct RefPipeline {
    config: CpuConfig,
    hierarchy: CacheHierarchy,
    predictor: FrontEndPredictor,
}

impl RefPipeline {
    fn new(config: CpuConfig, hierarchy: CacheHierarchy) -> Self {
        let predictor = FrontEndPredictor::new(config.gshare_history_bits, config.ras_entries);
        Self {
            config,
            hierarchy,
            predictor,
        }
    }

    fn reset_stats(&mut self) {
        self.hierarchy.reset_stats();
        self.predictor.conditional_branches = 0;
        self.predictor.mispredictions = 0;
    }

    fn run(&mut self, trace: &mut dyn TraceSource, max_instructions: Option<u64>) -> SimResult {
        let cfg = self.config;
        let l1i_hit_latency = {
            let hcfg = self.hierarchy.config();
            hcfg.l1.hit_latency(hcfg.voltage)
        };
        let fetch_limit = max_instructions.unwrap_or(u64::MAX);

        let mut cycle: u64 = 0;
        let mut committed: u64 = 0;
        let mut fetched: u64 = 0;
        let mut loads: u64 = 0;
        let mut stores: u64 = 0;

        let mut rob: VecDeque<RobEntry> = VecDeque::with_capacity(cfg.rob_entries);
        let mut fetch_queue: VecDeque<FetchedInstr> = VecDeque::new();
        let mut pending_fetch: Option<TraceInstruction> = None;
        let mut trace_done = false;

        let mut reg_producer: [Option<u64>; NUM_REGS] = [None; NUM_REGS];

        let mut int_iq = 0usize;
        let mut fp_iq = 0usize;
        let mut lsq = 0usize;

        let mut next_seq: u64 = 0;
        let mut oldest_inflight_seq: u64 = 0;

        let mut fetch_stall_until: u64 = 0;
        let mut waiting_branch: Option<u64> = None;
        let mut current_fetch_block: Option<u64> = None;
        let fetch_buffer_capacity = (cfg.fetch_width * (cfg.front_end_depth + 4)) as usize;

        let mut last_progress_cycle: u64 = 0;
        let mut last_committed: u64 = 0;

        let mut store_batch: Vec<(u64, bool)> = Vec::with_capacity(cfg.commit_width as usize);
        let mut store_results = Vec::with_capacity(cfg.commit_width as usize);

        loop {
            // 1. Commit.
            let mut commits = 0;
            store_batch.clear();
            while commits < cfg.commit_width {
                match rob.front() {
                    Some(head)
                        if head.state == EntryState::Completed && head.complete_cycle <= cycle => {}
                    _ => break,
                }
                let Some(head) = rob.pop_front() else { break };
                if head.op.is_mem() {
                    lsq -= 1;
                    if head.op == OpClass::Store {
                        if let Some(addr) = head.mem_addr {
                            store_batch.push((addr, true));
                        }
                        stores += 1;
                    } else {
                        loads += 1;
                    }
                }
                for r in &mut reg_producer {
                    if *r == Some(head.seq) {
                        *r = None;
                    }
                }
                oldest_inflight_seq = head.seq + 1;
                committed += 1;
                commits += 1;
            }
            if !store_batch.is_empty() {
                store_results.clear();
                self.hierarchy
                    .access_data_batch(&store_batch, &mut store_results);
            }

            // 2. Completion.
            for entry in &mut rob {
                if entry.state == EntryState::Issued && entry.complete_cycle <= cycle {
                    entry.state = EntryState::Completed;
                    if entry.mispredicted_branch && waiting_branch == Some(entry.seq) {
                        waiting_branch = None;
                        fetch_stall_until = fetch_stall_until.max(cycle + 1);
                    }
                }
            }

            // 3. Issue.
            let mut issued_this_cycle = 0u32;
            let mut int_alu_used = 0u32;
            let mut int_mul_used = 0u32;
            let mut fp_alu_used = 0u32;
            let mut fp_mul_used = 0u32;
            let mut mem_ports_used = 0u32;
            let completed_flags: Vec<(u64, bool)> = rob
                .iter()
                .map(|e| {
                    (
                        e.seq,
                        e.state == EntryState::Completed && e.complete_cycle <= cycle,
                    )
                })
                .collect();
            let is_ready = |dep: u64, oldest: u64, flags: &[(u64, bool)]| -> bool {
                if dep < oldest {
                    return true;
                }
                flags
                    .iter()
                    .find(|(s, _)| *s == dep)
                    .is_none_or(|(_, done)| *done)
            };

            for entry in &mut rob {
                if issued_this_cycle >= cfg.issue_width {
                    break;
                }
                if entry.state != EntryState::Waiting {
                    continue;
                }
                let deps_ready = entry.deps.iter().all(|d| match d {
                    Some(dep) => is_ready(*dep, oldest_inflight_seq, &completed_flags),
                    None => true,
                });
                if !deps_ready {
                    continue;
                }
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

                let latency = match entry.op {
                    OpClass::Load => {
                        let addr = entry.mem_addr.expect("loads carry an address");
                        let access = self.hierarchy.access_data(addr, false);
                        access.latency
                    }
                    other => cfg.exec_latency(other),
                };
                entry.state = EntryState::Issued;
                entry.complete_cycle = cycle + u64::from(latency.max(1));
                if entry.op.is_fp() {
                    fp_iq -= 1;
                } else {
                    int_iq -= 1;
                }
            }

            // 4. Dispatch.
            let mut dispatched = 0;
            while dispatched < cfg.decode_width {
                let Some(front) = fetch_queue.front() else {
                    break;
                };
                if front.ready_at > cycle || rob.len() >= cfg.rob_entries {
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
                let Some(fetched_instr) = fetch_queue.pop_front() else {
                    break;
                };
                let instr = fetched_instr.instr;
                let mut deps = [None, None];
                for (slot, src) in instr.srcs.iter().enumerate() {
                    if let Some(reg) = src {
                        deps[slot] = reg_producer[*reg as usize];
                    }
                }
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
                rob.push_back(RobEntry {
                    seq: fetched_instr.seq,
                    op: instr.op,
                    mem_addr: instr.mem_addr,
                    mispredicted_branch: fetched_instr.mispredicted,
                    deps,
                    state: EntryState::Waiting,
                    complete_cycle: u64::MAX,
                });
                dispatched += 1;
            }

            // 5. Fetch.
            if waiting_branch.is_none() && cycle >= fetch_stall_until && !trace_done {
                let mut fetched_this_cycle = 0;
                while fetched_this_cycle < cfg.fetch_width
                    && fetch_queue.len() < fetch_buffer_capacity
                    && fetched < fetch_limit
                {
                    let instr = match pending_fetch.take() {
                        Some(i) => i,
                        None => match trace.next_instruction() {
                            Some(i) => i,
                            None => {
                                trace_done = true;
                                break;
                            }
                        },
                    };
                    let block = instr.pc & !63;
                    if current_fetch_block != Some(block) {
                        let access = self.hierarchy.access_instr(instr.pc);
                        current_fetch_block = Some(block);
                        let extra = access.latency.saturating_sub(l1i_hit_latency);
                        if extra > 0 {
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
                        let correct = self.predictor.predict_and_update(instr.pc, branch);
                        mispredicted = !correct;
                        taken = branch.taken;
                        if taken {
                            current_fetch_block = None;
                        }
                    }
                    fetch_queue.push_back(FetchedInstr {
                        seq,
                        instr,
                        ready_at: cycle + u64::from(cfg.front_end_depth),
                        mispredicted,
                    });
                    if mispredicted {
                        waiting_branch = Some(seq);
                        break;
                    }
                    if taken {
                        break;
                    }
                }
                if fetched >= fetch_limit {
                    trace_done = true;
                }
            }

            // Termination and watchdog.
            if trace_done && rob.is_empty() && fetch_queue.is_empty() && pending_fetch.is_none() {
                break;
            }
            if committed > last_committed {
                last_committed = committed;
                last_progress_cycle = cycle;
            }
            assert!(
                cycle - last_progress_cycle < 1_000_000,
                "pipeline made no forward progress for 1M cycles (deadlock?)"
            );
            cycle += 1;
        }

        SimResult {
            instructions: committed,
            cycles: cycle.max(1),
            loads,
            stores,
            conditional_branches: self.predictor.conditional_branches,
            branch_mispredictions: self.predictor.mispredictions,
            hierarchy: self.hierarchy.stats(),
        }
    }
}

// ---------------------------------------------------------------------------
// Random traces.
// ---------------------------------------------------------------------------

/// SplitMix64: a tiny deterministic generator for trace shapes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn percent(&mut self, p: u64) -> bool {
        self.below(100) < p
    }

    /// One of a few integer registers, so dependence chains form.
    fn int_reg(&mut self) -> u8 {
        1 + self.below(6) as u8
    }

    /// One of a few floating-point registers.
    fn fp_reg(&mut self) -> u8 {
        32 + self.below(6) as u8
    }
}

fn branch(
    pc: u64,
    kind: BranchKind,
    taken: bool,
    target: u64,
    src: Option<u8>,
) -> TraceInstruction {
    TraceInstruction {
        pc,
        op: OpClass::Branch,
        dest: None,
        srcs: [src, None],
        mem_addr: None,
        branch: Some(BranchInfo {
            kind,
            taken,
            target,
        }),
    }
}

/// A random trace of `len` instructions whose mix is drawn from `seed`:
/// register dependence chains (some instructions read one register through
/// both sources), loads and stores walking small and large strides or
/// cycling through more blocks than one L1 set holds, FP bursts
/// that saturate the single FP ALU and multiplier, conditional branches with
/// random outcomes, calls, returns to the wrong address (RAS mispredictions,
/// and nesting deeper than the RAS), and jumps across a code footprint larger
/// than the L1 instruction cache, so fetch crosses blocks and misses.
fn random_trace(seed: u64, len: usize) -> Vec<TraceInstruction> {
    let mut rng = Rng(seed);
    let mem_percent = rng.below(50);
    let branch_percent = rng.below(25);
    let fp_burst_percent = rng.below(5);
    let stride = [8, 64, 4096, 1 << 20][rng.below(4) as usize];
    let conflict_percent = rng.below(40);
    let code_span = [1u64 << 12, 1 << 16, 1 << 20][rng.below(3) as usize];

    let mut trace = Vec::with_capacity(len);
    let mut pc = 0x1_0000u64;
    let mut addr = 0x100_0000u64;
    let mut fp_burst = 0;
    let mut calls: Vec<u64> = Vec::new();
    while trace.len() < len {
        let mut next_pc = pc + 4;
        let instr = if fp_burst > 0 {
            fp_burst -= 1;
            let op = if rng.percent(50) {
                OpClass::FpAlu
            } else {
                OpClass::FpMul
            };
            let a = rng.fp_reg();
            let b = if rng.percent(25) { a } else { rng.fp_reg() };
            TraceInstruction::alu(pc, op)
                .with_dest(rng.fp_reg())
                .with_srcs(Some(a), Some(b))
        } else {
            let roll = rng.below(100);
            if roll < mem_percent {
                addr = if rng.percent(10) {
                    0x100_0000 + (rng.below(1 << 26) & !7)
                } else if rng.percent(conflict_percent) {
                    // Twelve blocks of one L1 set, more than its ways hold:
                    // evicted blocks come back, from a victim cache if the
                    // L1 has one.
                    0x200_0000 + rng.below(12) * 4096
                } else {
                    addr + stride
                };
                if rng.percent(70) {
                    let base = rng.int_reg();
                    TraceInstruction::load(pc, addr, rng.int_reg()).with_srcs(Some(base), None)
                } else {
                    TraceInstruction::store(pc, addr, rng.int_reg())
                }
            } else if roll < mem_percent + branch_percent {
                let far = 0x1_0000 + (rng.below(code_span) & !3);
                match rng.below(10) {
                    0..=4 => {
                        let taken = rng.percent(50);
                        let target = if rng.percent(50) {
                            pc + 4 * rng.below(32)
                        } else {
                            far
                        };
                        if taken {
                            next_pc = target;
                        }
                        branch(
                            pc,
                            BranchKind::Conditional,
                            taken,
                            target,
                            Some(rng.int_reg()),
                        )
                    }
                    5 | 6 => {
                        calls.push(pc + 4);
                        next_pc = far;
                        branch(pc, BranchKind::Call, true, far, None)
                    }
                    7 | 8 => {
                        // Returns usually go back to the caller; sometimes to a
                        // wrong address, or with no caller at all.
                        let target = match calls.pop() {
                            Some(ret) if rng.percent(85) => ret,
                            _ => far,
                        };
                        next_pc = target;
                        branch(pc, BranchKind::Return, true, target, None)
                    }
                    _ => {
                        next_pc = far;
                        branch(pc, BranchKind::Jump, true, far, None)
                    }
                }
            } else {
                if rng.percent(fp_burst_percent) {
                    fp_burst = 8 + rng.below(24);
                }
                let op = if rng.percent(15) {
                    OpClass::IntMul
                } else {
                    OpClass::IntAlu
                };
                let a = rng.int_reg();
                let b = match rng.below(3) {
                    0 => None,
                    1 => Some(a),
                    _ => Some(rng.int_reg()),
                };
                TraceInstruction::alu(pc, op)
                    .with_dest(rng.int_reg())
                    .with_srcs(Some(a), b)
            }
        };
        trace.push(instr);
        pc = next_pc;
    }
    trace
}

// ---------------------------------------------------------------------------
// Configuration space.
// ---------------------------------------------------------------------------

/// The Table II core, then configurations that stress the reorder-buffer ring
/// (sizes that are not a multiple of the 64-slot bitset words), single-wide
/// issue and commit, and single-entry issue queues and LSQ.
fn core_configs() -> Vec<(&'static str, CpuConfig)> {
    let paper = CpuConfig::ispass2010();
    vec![
        ("table-ii", paper),
        (
            "rob-8",
            CpuConfig {
                rob_entries: 8,
                ..paper
            },
        ),
        (
            "rob-200",
            CpuConfig {
                rob_entries: 200,
                ..paper
            },
        ),
        (
            "1-wide",
            CpuConfig {
                issue_width: 1,
                commit_width: 1,
                ..paper
            },
        ),
        (
            "1-entry-queues",
            CpuConfig {
                int_iq_entries: 1,
                fp_iq_entries: 1,
                lsq_entries: 1,
                ..paper
            },
        ),
    ]
}

/// What a hierarchy adds to the paper's, on top of its scheme, voltage and L2
/// protection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// The paper's hierarchy as it is.
    Plain,
    /// 16-entry 10T victim caches on both L1s, as in Figs. 8–12.
    Victim10T,
    /// 16-entry 6T victim caches on both L1s (half usable at low voltage).
    Victim6T,
    /// Main memory [`FAR_MEMORY_LATENCY`] cycles away.
    FarMemory,
}

const VARIANTS: [Variant; 4] = [
    Variant::Plain,
    Variant::Victim10T,
    Variant::Victim6T,
    Variant::FarMemory,
];

/// A memory latency far beyond the paper's 255 cycles: `HierarchyConfig`
/// accepts any `u32`, and the loop must stay exact for all of them.
const FAR_MEMORY_LATENCY: u32 = 3_001;

/// Fault maps shared by every hierarchy: one L1 pair and one L2 map.
struct Maps {
    l1i: FaultMap,
    l1d: FaultMap,
    l2: FaultMap,
}

impl Maps {
    /// The maps, generated once per test binary.
    fn shared() -> &'static Self {
        static MAPS: OnceLock<Maps> = OnceLock::new();
        MAPS.get_or_init(Self::new)
    }

    fn new() -> Self {
        let l1 = CacheGeometry::ispass2010_l1();
        Self {
            l1i: FaultMap::generate(&l1, 0.001, 0xC0DE),
            l1d: FaultMap::generate(&l1, 0.001, 0xDA7A),
            l2: FaultMap::generate(&CacheGeometry::ispass2010_l2(), 0.001, 0x12),
        }
    }

    /// The hierarchy of `scheme` at `voltage`, with a perfect L2 or one
    /// protected by the same scheme (faulty below Vcc-min), changed as
    /// `variant` says, or `None` if the scheme cannot repair the maps.
    fn hierarchy(
        &self,
        scheme: DisablingScheme,
        voltage: VoltageMode,
        faulty_l2: bool,
        variant: Variant,
    ) -> Option<CacheHierarchy> {
        let mut config = HierarchyConfig::ispass2010(scheme, voltage);
        if faulty_l2 {
            config = config.with_l2_scheme(scheme);
        }
        match variant {
            Variant::Plain => {}
            Variant::Victim10T => {
                config = config.with_victim_caches(VictimCacheConfig::ispass2010_10t());
            }
            Variant::Victim6T => {
                config = config.with_victim_caches(VictimCacheConfig::ispass2010_6t());
            }
            Variant::FarMemory => config.memory_latency = FAR_MEMORY_LATENCY,
        }
        CacheHierarchy::with_all_fault_maps(
            config,
            Some(&self.l1i),
            Some(&self.l1d),
            Some(&self.l2),
        )
        .ok()
    }
}

/// Slice sizes the chunked runs take their trace in: one instruction at a
/// time, a size that splits fetch groups, and one larger than every trace
/// here.
const CHUNK_SIZES: [usize; 3] = [1, 7, 4096];

/// Runs `trace` on `pipeline`, fed in slices of `size` instructions.
fn run_chunked(
    pipeline: &mut Pipeline,
    trace: &[TraceInstruction],
    cap: Option<u64>,
    size: usize,
) -> SimResult {
    pipeline.begin(cap);
    for chunk in trace.chunks(size) {
        pipeline.feed(chunk);
    }
    pipeline.finish()
}

/// Runs `trace` on both loops over clones of one hierarchy. Returns the
/// rebuilt loop's results, each with how it was fed (the whole trace through
/// `run`, then slices of each of [`CHUNK_SIZES`]), and the reference's.
fn both(
    config: CpuConfig,
    hierarchy: &CacheHierarchy,
    trace: &[TraceInstruction],
    cap: Option<u64>,
) -> (Vec<(String, SimResult)>, SimResult) {
    let pipeline = || Pipeline::new(config, hierarchy.clone()).expect("a valid configuration");
    let mut runs = vec![("whole".to_string(), pipeline().run(&mut trace.iter().copied(), cap))];
    for size in CHUNK_SIZES {
        let result = run_chunked(&mut pipeline(), trace, cap, size);
        runs.push((format!("chunks of {size}"), result));
    }
    let mut reference = RefPipeline::new(config, hierarchy.clone());
    (runs, reference.run(&mut trace.iter().copied(), cap))
}

// ---------------------------------------------------------------------------
// Deterministic sweeps.
// ---------------------------------------------------------------------------

#[test]
fn every_scheme_voltage_and_l2_matches_the_reference() {
    let maps = Maps::shared();
    // Four segments with different mixes, so one trace exercises them all.
    let trace: Vec<_> = (0..4).flat_map(|k| random_trace(0x5EED + k, 800)).collect();
    // The reference steps every cycle, and a far memory makes each miss
    // thousands of them: that variant runs four shorter segments.
    let far_trace: Vec<_> = (0..4).flat_map(|k| random_trace(0xFA2 + k, 100)).collect();
    let mut compared = 0;
    for &scheme in &DisablingScheme::ALL {
        for voltage in [VoltageMode::High, VoltageMode::Low] {
            for faulty_l2 in [false, true] {
                for variant in VARIANTS {
                    let Some(hierarchy) = maps.hierarchy(scheme, voltage, faulty_l2, variant)
                    else {
                        continue; // unrepairable under these maps: nothing to compare
                    };
                    let (trace, cap) = if variant == Variant::FarMemory {
                        (&far_trace, 234)
                    } else {
                        (&trace, 1_234)
                    };
                    for cap in [None, Some(cap)] {
                        let (runs, want) = both(CpuConfig::ispass2010(), &hierarchy, trace, cap);
                        for (how, got) in runs {
                            assert_eq!(
                                got, want,
                                "{scheme:?} at {voltage:?}, faulty L2 {faulty_l2}, {variant:?}, \
                                 cap {cap:?}, {how}"
                            );
                        }
                        compared += 1;
                    }
                }
            }
        }
    }
    assert!(
        compared >= 32 * VARIANTS.len(),
        "only {compared} hierarchies were repairable"
    );

    // The trace reaches every part of the machine the comparison is about.
    let hierarchy = CacheHierarchy::new(HierarchyConfig::ispass2010_baseline_high_voltage());
    let (_, r) = both(CpuConfig::ispass2010(), &hierarchy, &trace, None);
    assert!(r.loads > 0 && r.stores > 0, "{r:?}");
    assert!(r.branch_mispredictions > 0, "{r:?}");
    assert!(r.hierarchy.l1i.misses > 0 && r.hierarchy.memory_accesses > 0, "{r:?}");

    // The victim caches serve hits, whose latency differs from both an L1
    // and an L2 hit.
    for variant in [Variant::Victim10T, Variant::Victim6T] {
        let hierarchy = maps
            .hierarchy(DisablingScheme::BlockDisabling, VoltageMode::Low, false, variant)
            .expect("block disabling repairs the maps");
        let (_, r) = both(CpuConfig::ispass2010(), &hierarchy, &trace, None);
        assert!(
            r.hierarchy.l1d_victim.hits > 0 && r.hierarchy.l1i_victim.hits > 0,
            "{variant:?}: {r:?}"
        );
    }
}

#[test]
fn non_default_core_configs_match_the_reference() {
    let maps = Maps::shared();
    let hierarchy = maps
        .hierarchy(DisablingScheme::BlockDisabling, VoltageMode::Low, true, Variant::Plain)
        .expect("block disabling repairs the maps");
    for seed in 0..3 {
        let trace = random_trace(0xC0F1_6000 + seed, 1_500);
        for (label, config) in core_configs() {
            for cap in [None, Some(777)] {
                let (runs, want) = both(config, &hierarchy, &trace, cap);
                for (how, got) in runs {
                    assert_eq!(got, want, "{label}, trace seed {seed}, cap {cap:?}, {how}");
                }
            }
        }
    }
}

#[test]
fn consecutive_runs_with_reset_stats_match_the_reference() {
    // The governor's pattern: one pipeline runs consecutive segments, with
    // statistics reset but cache and predictor state carried between them.
    let maps = Maps::shared();
    let hierarchy = maps
        .hierarchy(DisablingScheme::WordDisabling, VoltageMode::Low, false, Variant::Plain)
        .expect("word disabling repairs the maps");
    for (label, config) in core_configs() {
        let pipeline = || Pipeline::new(config, hierarchy.clone()).expect("a valid configuration");
        let mut whole = pipeline();
        let mut chunked = CHUNK_SIZES.map(|size| (size, pipeline()));
        let mut reference = RefPipeline::new(config, hierarchy.clone());
        for (segment, seed) in [0xA11u64, 0xB22].into_iter().enumerate() {
            let trace = random_trace(seed, 1_200);
            let cap = (segment == 1).then_some(900);
            let want = reference.run(&mut trace.iter().copied(), cap);
            reference.reset_stats();
            let got = whole.run(&mut trace.iter().copied(), cap);
            assert_eq!(got, want, "{label}, segment {segment}");
            whole.reset_stats();
            for (size, pipeline) in &mut chunked {
                let got = run_chunked(pipeline, &trace, cap, *size);
                assert_eq!(got, want, "{label}, segment {segment}, chunks of {size}");
                pipeline.reset_stats();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Property test: random traces over random schemes, voltages and cores.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random traces, cores, schemes, voltages, L2 protection, hierarchy
    /// variants and caps: the event-driven loop and the per-cycle reference
    /// never diverge.
    #[test]
    fn event_driven_loop_is_equivalent_under_random_traces(
        seed in any::<u64>(),
        len in 1usize..1_200,
        core in 0usize..5,
        hierarchy_pick in (0usize..5, any::<bool>(), any::<bool>(), 0usize..4),
        cap in 0u64..1_400,
    ) {
        let (scheme_index, low_voltage, faulty_l2, variant_index) = hierarchy_pick;
        let scheme = DisablingScheme::ALL[scheme_index];
        let voltage = if low_voltage { VoltageMode::Low } else { VoltageMode::High };
        let variant = VARIANTS[variant_index];
        let maps = Maps::shared();
        let Some(hierarchy) = maps.hierarchy(scheme, voltage, faulty_l2, variant) else {
            return Ok(());
        };
        let (label, config) = core_configs()[core];
        let trace = random_trace(seed, len);
        // Caps below, at and above the trace length; 0 means no cap.
        let cap = (cap > 0).then_some(cap);
        let (runs, want) = both(config, &hierarchy, &trace, cap);
        for (how, got) in runs {
            prop_assert_eq!(
                got,
                want,
                "{label} {scheme:?} {voltage:?} faulty L2 {faulty_l2} {variant:?} cap {cap:?} {how}"
            );
        }
    }

    /// Random configurations that `CpuConfig::validate` accepts, including
    /// single-entry buffers, single units and zero front-end depth: both
    /// cores drain random traces and commit every instruction up to the cap,
    /// so the out-of-order loop's deadlock guard never fires.
    #[test]
    fn no_valid_config_deadlocks_on_random_traces(
        seed in any::<u64>(),
        len in 1usize..1_500,
        widths in (1u32..7, 1u32..7, 1u32..8, 1u32..7, 0u32..14),
        buffers in (1usize..160, 1usize..48, 1usize..24, 1usize..70),
        units in (1u32..5, 1u32..5, 1u32..3, 1u32..3, 1u32..4),
        cap in 0u64..1_600,
    ) {
        let (fetch_width, decode_width, issue_width, commit_width, front_end_depth) = widths;
        let (rob_entries, int_iq_entries, fp_iq_entries, lsq_entries) = buffers;
        let (int_alus, int_muls, fp_alus, fp_muls, mem_ports) = units;
        let config = CpuConfig {
            fetch_width,
            decode_width,
            issue_width,
            commit_width,
            rob_entries,
            int_iq_entries,
            fp_iq_entries,
            lsq_entries,
            int_alus,
            int_muls,
            fp_alus,
            fp_muls,
            mem_ports,
            front_end_depth,
            ..CpuConfig::ispass2010()
        };
        prop_assert_eq!(config.validate(), Ok(()));
        let trace = random_trace(seed, len);
        let cap = (cap > 0).then_some(cap);
        let expected = cap.map_or(len as u64, |cap| cap.min(len as u64));
        let hierarchy = CacheHierarchy::new(HierarchyConfig::ispass2010_baseline_high_voltage());
        let cores: [Box<dyn Cpu>; 2] = [
            Box::new(Pipeline::new(config, hierarchy.clone()).expect("validated")),
            Box::new(InOrderCore::new(config, hierarchy).expect("validated")),
        ];
        for mut core in cores {
            let result = core.run(&mut trace.iter().copied(), cap);
            prop_assert_eq!(result.instructions, expected, "{:?}", config);
        }
    }
}
