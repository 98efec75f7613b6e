//! Synthetic trace generation from a benchmark profile.
//!
//! [`TraceGenerator`]'s `next` draws each instruction in one inlined pass. It
//! copies the generator's [`SmallRng`] state into a local, so that the state
//! stays in registers for the whole instruction, and writes it back once.
//! Every Bernoulli decision compares a draw's top 53 bits with an integer
//! threshold from [`gen_bool_threshold`], computed once per generator (per
//! phase for the locality probabilities).
//!
//! The streams are the ones the float decisions of `gen_bool` and `gen::<f64>`
//! gave, bit for bit, because each decision is unchanged on every draw:
//!
//! - A threshold decision is `gen_bool`'s on the same draw; the argument is in
//!   [`gen_bool_threshold`]'s doc.
//! - The op class is still the first cumulative mix sum `acc` with `r < acc`,
//!   for the uniform `r` of the draw's top 53 bits. The sums are built in
//!   `f64` in the same order, and each test is the threshold test against
//!   `ceil(acc * 2^53)`. A sum just above 1, which validation allows, is taken
//!   as 1: no `r` reaches either.
//! - A static branch was random when its PC hash byte `b` had
//!   `b as f64 / 255.0 < branch_randomness`. The division is monotone in `b`,
//!   so the random bytes are a prefix `0..cutoff` of `0..=255`, and the cutoff
//!   is counted once.
//! - Everything else keeps its arithmetic: the draws' order, the `ln` of the
//!   hot and irregular addresses, and the `%` of every `gen_range`.

use rand::rngs::SmallRng;
use rand::{gen_bool_threshold, Rng, SeedableRng};

use vccmin_cpu::{BranchInfo, BranchKind, OpClass, Reg, TraceInstruction};

use crate::phase::{PhaseSchedule, WorkloadPhase};
use crate::profile::BenchmarkProfile;

/// Base address of the synthetic code region.
const CODE_BASE: u64 = 0x0040_0000;
/// Base address of the hot data region (stack / hot globals).
const HOT_BASE: u64 = 0x1000_0000;
/// Base address of the main data working set (heap / arrays).
const DATA_BASE: u64 = 0x2000_0000;

/// Integer registers handed out as destinations (leave a few registers never
/// written so "no dependence" sources exist).
const INT_DEST_REGS: std::ops::Range<u8> = 1..28;
/// Floating-point registers handed out as destinations.
const FP_DEST_REGS: std::ops::Range<u8> = 33..60;

/// An infinite, seeded generator of [`TraceInstruction`]s imitating one benchmark.
///
/// The generator maintains a program counter walking a code region of the profile's
/// footprint (with biased and random conditional branches, mostly looping backward),
/// a streaming pointer and a hot region for data accesses, and a short history of
/// recently written registers used to create dependence chains of the configured
/// density.
///
/// The iterator never terminates; callers bound the trace length themselves (the
/// pipeline's `max_instructions`, or [`Iterator::take`]).
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: BenchmarkProfile,
    thresholds: Thresholds,
    rng: SmallRng,
    pc: u64,
    stream_ptr: u64,
    recent_int: [Reg; 4],
    recent_fp: [Reg; 4],
    next_int_dest: u8,
    next_fp_dest: u8,
    instructions_generated: u64,
    phases: Option<PhaseSchedule>,
    /// The phase of the next instruction.
    phase: WorkloadPhase,
    /// The schedule segment the next instruction belongs to.
    segment: usize,
    /// Instructions left in that segment, the next one included: a countdown
    /// updated once per instruction, so no instruction divides by the
    /// schedule's period. `u64::MAX` without a schedule.
    phase_left: u64,
}

/// During a memory-bound phase the hot-region reuse probability is multiplied
/// by this factor (most accesses leave the cache-resident region).
const MEMORY_PHASE_HOT_SCALE: f64 = 0.25;
/// During a memory-bound phase the streaming probability of non-hot accesses is
/// raised at least to this value (large-array sweeps dominate).
const MEMORY_PHASE_STREAMING_FLOOR: f64 = 0.75;

/// Every decision threshold of one generator: a draw `x = next_u64() >> 11`
/// decides `true` when `x < t`, exactly as `gen_bool(p)` would for the `t`
/// that [`gen_bool_threshold`] gives for `p`.
#[derive(Debug, Clone)]
struct Thresholds {
    /// The cumulative mix sums, in the order load, store, branch, integer
    /// multiply, FP ALU, FP multiply; the rest are integer ALU ops.
    op: [u64; 6],
    /// A source register names a recently written value.
    dependence: u64,
    /// Locality in compute-bound phases: the profile verbatim.
    compute: Locality,
    /// Locality in memory-bound phases.
    memory: Locality,
    /// A static branch whose PC hash byte is below this is random.
    random_branch_bytes: u64,
    /// A random branch is taken (probability 0.5).
    random_taken: u64,
    /// A biased branch is taken (0.9).
    biased_taken: u64,
    /// A branch target is a loop back-edge (0.75).
    back_edge: u64,
    /// Any other target lands in hot code (0.85).
    hot_call: u64,
}

/// The thresholds of a data access going to the hot region, and of a non-hot
/// access streaming.
#[derive(Debug, Clone, Copy)]
struct Locality {
    hot: u64,
    streaming: u64,
}

impl Thresholds {
    fn new(p: &BenchmarkProfile) -> Self {
        let mut acc = 0.0;
        let op = [
            p.load_fraction,
            p.store_fraction,
            p.branch_fraction,
            p.int_mul_fraction,
            p.fp_alu_fraction,
            p.fp_mul_fraction,
        ]
        .map(|fraction| {
            acc += fraction;
            gen_bool_threshold(f64::min(acc, 1.0))
        });
        let locality = |hot, streaming| Locality {
            hot: gen_bool_threshold(hot),
            streaming: gen_bool_threshold(streaming),
        };
        Self {
            op,
            dependence: gen_bool_threshold(p.dependence_density),
            compute: locality(p.hot_access_probability, p.streaming_probability),
            memory: locality(
                p.hot_access_probability * MEMORY_PHASE_HOT_SCALE,
                p.streaming_probability.max(MEMORY_PHASE_STREAMING_FLOOR),
            ),
            random_branch_bytes: (0..=255u64)
                .filter(|&b| (b as f64 / 255.0) < p.branch_randomness)
                .count() as u64,
            random_taken: gen_bool_threshold(0.5),
            biased_taken: gen_bool_threshold(0.9),
            back_edge: gen_bool_threshold(0.75),
            hot_call: gen_bool_threshold(0.85),
        }
    }
}

/// One Bernoulli draw against a [`Thresholds`] entry.
#[inline(always)]
fn bernoulli(rng: &mut SmallRng, threshold: u64) -> bool {
    rng.next_u64() >> 11 < threshold
}

impl TraceGenerator {
    /// Creates a generator for `profile` seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile does not validate (see [`BenchmarkProfile::validate`]).
    #[must_use]
    pub fn new(profile: &BenchmarkProfile, seed: u64) -> Self {
        if let Err(msg) = profile.validate() {
            // simlint::allow(panic-path, "documented `# Panics` constructor; the 26 shipped profiles are validated by tests")
            panic!("invalid benchmark profile {}: {msg}", profile.name);
        }
        Self {
            profile: profile.clone(),
            thresholds: Thresholds::new(profile),
            rng: SmallRng::seed_from_u64(seed),
            pc: CODE_BASE,
            stream_ptr: DATA_BASE,
            recent_int: [1, 2, 3, 4],
            recent_fp: [33, 34, 35, 36],
            next_int_dest: INT_DEST_REGS.start,
            next_fp_dest: FP_DEST_REGS.start,
            instructions_generated: 0,
            phases: None,
            phase: WorkloadPhase::ComputeBound,
            segment: 0,
            phase_left: u64::MAX,
        }
    }

    /// Creates a *phase-annotated* generator: the instruction stream walks the
    /// given cyclic [`PhaseSchedule`], and during
    /// [`WorkloadPhase::MemoryBound`] segments the profile's memory locality is
    /// modulated (less hot-region reuse, more streaming) so memory-bound
    /// stretches genuinely behave memory bound. Compute-bound segments apply
    /// the profile verbatim, so an all-compute schedule reproduces
    /// [`TraceGenerator::new`]'s stream exactly.
    ///
    /// # Panics
    ///
    /// Panics if the profile does not validate.
    #[must_use]
    pub fn with_phases(profile: &BenchmarkProfile, seed: u64, phases: PhaseSchedule) -> Self {
        let first = phases.segments()[0];
        Self {
            phases: Some(phases),
            phase: first.phase,
            phase_left: first.instructions,
            ..Self::new(profile, seed)
        }
    }

    /// The profile this generator imitates.
    #[must_use]
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    /// The phase the *next* generated instruction will belong to. Un-phased
    /// generators report [`WorkloadPhase::ComputeBound`] (the profile applies
    /// verbatim). This is the signal a reactive voltage-mode governor samples
    /// between execution quanta.
    #[must_use]
    pub fn current_phase(&self) -> WorkloadPhase {
        self.phase
    }

    /// The phase schedule, if this generator is phase annotated.
    #[must_use]
    pub fn phases(&self) -> Option<&PhaseSchedule> {
        self.phases.as_ref()
    }

    /// Number of instructions generated so far.
    #[must_use]
    pub fn instructions_generated(&self) -> u64 {
        self.instructions_generated
    }

    /// Moves the phase countdown to the next segment of the schedule, which
    /// repeats after its last.
    #[cold]
    fn next_segment(&mut self) {
        let Some(schedule) = &self.phases else {
            self.phase_left = u64::MAX;
            return;
        };
        let segments = schedule.segments();
        self.segment = (self.segment + 1) % segments.len();
        self.phase = segments[self.segment].phase;
        self.phase_left = segments[self.segment].instructions;
    }

    /// A chain of comparisons, not a branch-free count of the thresholds
    /// the draw reaches: a mispredicted class then resolves one comparison
    /// after its draw, not after six serial ones and a table load.
    #[inline(always)]
    fn pick_op(&self, rng: &mut SmallRng) -> OpClass {
        let x = rng.next_u64() >> 11;
        let t = &self.thresholds.op;
        if x < t[0] {
            OpClass::Load
        } else if x < t[1] {
            OpClass::Store
        } else if x < t[2] {
            OpClass::Branch
        } else if x < t[3] {
            OpClass::IntMul
        } else if x < t[4] {
            OpClass::FpAlu
        } else if x < t[5] {
            OpClass::FpMul
        } else {
            OpClass::IntAlu
        }
    }

    #[inline(always)]
    fn data_address(&mut self, rng: &mut SmallRng) -> u64 {
        let locality = match self.current_phase() {
            WorkloadPhase::ComputeBound => self.thresholds.compute,
            WorkloadPhase::MemoryBound => self.thresholds.memory,
        };
        let p = &self.profile;
        if bernoulli(rng, locality.hot) {
            // Hot region: reuse is strongly skewed towards the start of the region
            // (stack frames, hot globals, recently allocated objects), modeled with a
            // truncated exponential over the region. The head of the region is reused
            // at very short distances and stays cache resident; the tail provides the
            // capacity sensitivity that the disabling schemes expose.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let depth = (-u.ln() / 3.0).min(1.0);
            let hot_words = p.hot_data_bytes / 8;
            let word = ((depth * hot_words as f64) as u64).min(hot_words - 1);
            HOT_BASE + word * 8
        } else if bernoulli(rng, locality.streaming) {
            // Streaming: march through the working set one block at a time.
            self.stream_ptr += 64;
            if self.stream_ptr >= DATA_BASE + p.data_working_set_bytes {
                self.stream_ptr = DATA_BASE;
            }
            self.stream_ptr
        } else {
            // Irregular: skewed over the full working set (real heaps are touched with
            // a strong recency/frequency bias, not uniformly). A truncated exponential
            // keeps most irregular accesses within a cacheable fraction of the set
            // while its tail still sweeps the whole footprint.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let depth = (-u.ln() / 2.0).min(1.0);
            let ws_words = p.data_working_set_bytes / 8;
            let word = ((depth * ws_words as f64) as u64).min(ws_words - 1);
            DATA_BASE + word * 8
        }
    }

    fn alloc_dest(&mut self, fp: bool) -> Reg {
        if fp {
            let reg = self.next_fp_dest;
            self.next_fp_dest += 1;
            if self.next_fp_dest >= FP_DEST_REGS.end {
                self.next_fp_dest = FP_DEST_REGS.start;
            }
            self.recent_fp.rotate_right(1);
            self.recent_fp[0] = reg;
            reg
        } else {
            let reg = self.next_int_dest;
            self.next_int_dest += 1;
            if self.next_int_dest >= INT_DEST_REGS.end {
                self.next_int_dest = INT_DEST_REGS.start;
            }
            self.recent_int.rotate_right(1);
            self.recent_int[0] = reg;
            reg
        }
    }

    #[inline(always)]
    fn pick_src(&self, rng: &mut SmallRng, fp: bool) -> Option<Reg> {
        if bernoulli(rng, self.thresholds.dependence) {
            // Depend on a recently produced value.
            let idx = rng.gen_range(0..4);
            Some(if fp {
                self.recent_fp[idx]
            } else {
                self.recent_int[idx]
            })
        } else {
            // Registers 30/62 are never allocated as destinations, so naming them
            // creates no dependence.
            Some(if fp { 62 } else { 30 })
        }
    }

    #[inline(always)]
    fn branch_info(&self, rng: &mut SmallRng, pc: u64) -> (BranchInfo, u64) {
        let t = &self.thresholds;
        // A static branch (identified by its PC) is either strongly biased or
        // essentially random, per the profile's randomness fraction.
        let hash = pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        let is_random = hash & 0xff < t.random_branch_bytes;
        // A biased branch is taken ~90% of the time (loop back-edges).
        let taken = bernoulli(
            rng,
            if is_random {
                t.random_taken
            } else {
                t.biased_taken
            },
        );
        let code_end = CODE_BASE + self.profile.code_bytes;
        let target = if bernoulli(rng, t.back_edge) {
            // Loop back-edge: jump backwards by a bounded distance.
            let back = rng.gen_range(16..2048).min(pc - CODE_BASE + 4);
            pc - back + 4
        } else if bernoulli(rng, t.hot_call) {
            // Call into hot code: most dynamic control transfers land in a small set
            // of hot functions (the 90/10 rule), here the first 8 KB of the region.
            let hot_code = self.profile.code_bytes.min(8 * 1024);
            CODE_BASE + rng.gen_range(0..hot_code / 4) * 4
        } else {
            // Cold cross-function jump anywhere in the footprint.
            CODE_BASE + rng.gen_range(0..self.profile.code_bytes / 4) * 4
        };
        let target = target.clamp(CODE_BASE, code_end - 4);
        let next_pc = if taken { target } else { pc + 4 };
        (
            BranchInfo {
                kind: BranchKind::Conditional,
                taken,
                target,
            },
            next_pc,
        )
    }
}

impl Iterator for TraceGenerator {
    type Item = TraceInstruction;

    fn next(&mut self) -> Option<Self::Item> {
        // The helpers take this local copy of the generator state, so it can
        // stay in registers for the whole instruction.
        let mut rng = self.rng.clone();
        let pc = self.pc;
        let code_end = CODE_BASE + self.profile.code_bytes;
        let op = self.pick_op(&mut rng);
        let instr = match op {
            OpClass::Load => {
                let addr = self.data_address(&mut rng);
                let addr_src = self.pick_src(&mut rng, false);
                let dest = self.alloc_dest(false);
                self.pc = pc + 4;
                TraceInstruction {
                    pc,
                    op,
                    dest: Some(dest),
                    srcs: [addr_src, None],
                    mem_addr: Some(addr),
                    branch: None,
                }
            }
            OpClass::Store => {
                let addr = self.data_address(&mut rng);
                let value_src = self.pick_src(&mut rng, false);
                self.pc = pc + 4;
                TraceInstruction {
                    pc,
                    op,
                    dest: None,
                    srcs: [value_src, None],
                    mem_addr: Some(addr),
                    branch: None,
                }
            }
            OpClass::Branch => {
                let src = self.pick_src(&mut rng, false);
                let (info, next_pc) = self.branch_info(&mut rng, pc);
                self.pc = next_pc;
                TraceInstruction {
                    pc,
                    op,
                    dest: None,
                    srcs: [src, None],
                    mem_addr: None,
                    branch: Some(info),
                }
            }
            OpClass::IntAlu | OpClass::IntMul => {
                let a = self.pick_src(&mut rng, false);
                let b = self.pick_src(&mut rng, false);
                let dest = self.alloc_dest(false);
                self.pc = pc + 4;
                TraceInstruction {
                    pc,
                    op,
                    dest: Some(dest),
                    srcs: [a, b],
                    mem_addr: None,
                    branch: None,
                }
            }
            OpClass::FpAlu | OpClass::FpMul => {
                let a = self.pick_src(&mut rng, true);
                let b = self.pick_src(&mut rng, true);
                let dest = self.alloc_dest(true);
                self.pc = pc + 4;
                TraceInstruction {
                    pc,
                    op,
                    dest: Some(dest),
                    srcs: [a, b],
                    mem_addr: None,
                    branch: None,
                }
            }
        };
        self.rng = rng;
        // Wrap the program counter at the end of the code region (the outermost loop).
        if self.pc >= code_end {
            self.pc = CODE_BASE;
        }
        self.instructions_generated += 1;
        self.phase_left -= 1;
        if self.phase_left == 0 {
            self.next_segment();
        }
        Some(instr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::Benchmark;
    use std::collections::HashSet;

    fn generate(bench: Benchmark, n: usize, seed: u64) -> Vec<TraceInstruction> {
        TraceGenerator::new(&bench.profile(), seed)
            .take(n)
            .collect()
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(Benchmark::Gzip, 5_000, 7);
        let b = generate(Benchmark::Gzip, 5_000, 7);
        let c = generate(Benchmark::Gzip, 5_000, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn instruction_mix_matches_the_profile() {
        let profile = Benchmark::Crafty.profile();
        let n = 200_000;
        let trace = generate(Benchmark::Crafty, n, 1);
        let loads = trace.iter().filter(|i| i.op == OpClass::Load).count() as f64 / n as f64;
        let stores = trace.iter().filter(|i| i.op == OpClass::Store).count() as f64 / n as f64;
        let branches = trace.iter().filter(|i| i.op == OpClass::Branch).count() as f64 / n as f64;
        assert!(
            (loads - profile.load_fraction).abs() < 0.01,
            "loads {loads}"
        );
        assert!(
            (stores - profile.store_fraction).abs() < 0.01,
            "stores {stores}"
        );
        assert!(
            (branches - profile.branch_fraction).abs() < 0.01,
            "branches {branches}"
        );
    }

    #[test]
    fn fp_benchmarks_contain_fp_operations_and_int_ones_do_not() {
        let fp_trace = generate(Benchmark::Swim, 20_000, 2);
        let int_trace = generate(Benchmark::Gcc, 20_000, 2);
        assert!(fp_trace.iter().any(|i| i.op.is_fp()));
        assert!(int_trace.iter().all(|i| !i.op.is_fp()));
    }

    #[test]
    fn program_counters_stay_within_the_code_footprint() {
        for bench in [Benchmark::Crafty, Benchmark::Swim, Benchmark::Mcf] {
            let profile = bench.profile();
            let trace = generate(bench, 50_000, 3);
            for i in &trace {
                assert!(i.pc >= CODE_BASE && i.pc < CODE_BASE + profile.code_bytes);
            }
        }
    }

    #[test]
    fn code_footprint_scales_with_the_profile() {
        let small = generate(Benchmark::Swim, 100_000, 4);
        let large = generate(Benchmark::Gcc, 100_000, 4);
        let blocks = |t: &[TraceInstruction]| -> usize {
            t.iter().map(|i| i.pc & !63).collect::<HashSet<_>>().len()
        };
        assert!(
            blocks(&large) > blocks(&small) * 3,
            "gcc should touch far more instruction blocks than swim ({} vs {})",
            blocks(&large),
            blocks(&small)
        );
    }

    #[test]
    fn data_addresses_stay_within_the_working_set() {
        for bench in [Benchmark::Mcf, Benchmark::Gzip] {
            let profile = bench.profile();
            let trace = generate(bench, 50_000, 5);
            for i in trace.iter().filter(|i| i.is_mem()) {
                let addr = i.mem_addr.unwrap();
                let in_hot = (HOT_BASE..HOT_BASE + profile.hot_data_bytes).contains(&addr);
                let in_ws =
                    (DATA_BASE..DATA_BASE + profile.data_working_set_bytes + 64).contains(&addr);
                assert!(in_hot || in_ws, "address {addr:#x} outside both regions");
            }
        }
    }

    #[test]
    fn memory_bound_benchmarks_touch_far_more_data_blocks() {
        let blocks = |bench: Benchmark| -> usize {
            generate(bench, 100_000, 6)
                .iter()
                .filter_map(|i| i.mem_addr)
                .map(|a| a & !63)
                .collect::<HashSet<_>>()
                .len()
        };
        let mcf = blocks(Benchmark::Mcf);
        let sixtrack = blocks(Benchmark::Sixtrack);
        assert!(
            mcf > sixtrack * 5,
            "mcf should touch many more distinct blocks ({mcf} vs {sixtrack})"
        );
    }

    #[test]
    fn branch_targets_are_consistent_with_the_next_pc() {
        let trace = generate(Benchmark::Vpr, 20_000, 9);
        for pair in trace.windows(2) {
            if let Some(branch) = &pair[0].branch {
                let expected = if branch.taken {
                    branch.target
                } else {
                    pair[0].pc + 4
                };
                // The next PC may have wrapped at the end of the code region.
                let profile = Benchmark::Vpr.profile();
                let wrapped = if expected >= CODE_BASE + profile.code_bytes {
                    CODE_BASE
                } else {
                    expected
                };
                assert_eq!(pair[1].pc, wrapped);
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid benchmark profile")]
    fn invalid_profiles_are_rejected_at_construction() {
        let mut p = Benchmark::Gzip.profile();
        p.load_fraction = 2.0;
        let _ = TraceGenerator::new(&p, 0);
    }

    #[test]
    fn generated_count_is_tracked() {
        let mut g = TraceGenerator::new(&Benchmark::Eon.profile(), 0);
        let _ = (&mut g).take(123).count();
        assert_eq!(g.instructions_generated(), 123);
    }

    #[test]
    fn all_compute_phase_schedule_reproduces_the_unphased_stream() {
        use crate::phase::{PhaseSchedule, WorkloadPhase};
        let profile = Benchmark::Crafty.profile();
        let plain: Vec<_> = TraceGenerator::new(&profile, 11).take(20_000).collect();
        let phased: Vec<_> = TraceGenerator::with_phases(
            &profile,
            11,
            PhaseSchedule::pinned(WorkloadPhase::ComputeBound),
        )
        .take(20_000)
        .collect();
        assert_eq!(
            plain, phased,
            "compute phases must apply the profile verbatim"
        );
    }

    #[test]
    fn current_phase_follows_the_schedule() {
        use crate::phase::{PhaseSchedule, WorkloadPhase};
        let profile = Benchmark::Gzip.profile();
        let schedule = PhaseSchedule::alternating(1_000, 500);
        let mut g = TraceGenerator::with_phases(&profile, 3, schedule);
        assert_eq!(g.current_phase(), WorkloadPhase::ComputeBound);
        let _ = (&mut g).take(1_000).count();
        assert_eq!(g.current_phase(), WorkloadPhase::MemoryBound);
        let _ = (&mut g).take(500).count();
        assert_eq!(g.current_phase(), WorkloadPhase::ComputeBound);
        assert!(g.phases().is_some());
        assert!(TraceGenerator::new(&profile, 3).phases().is_none());
    }

    #[test]
    fn the_phase_countdown_agrees_with_the_schedule_at_every_index() {
        use crate::phase::{PhaseSchedule, PhaseSegment, WorkloadPhase};
        let segment = |phase, instructions| PhaseSegment {
            phase,
            instructions,
        };
        let schedule = PhaseSchedule::new(vec![
            segment(WorkloadPhase::ComputeBound, 3),
            segment(WorkloadPhase::MemoryBound, 1),
            segment(WorkloadPhase::MemoryBound, 2),
            segment(WorkloadPhase::ComputeBound, 5),
        ]);
        let mut g = TraceGenerator::with_phases(&Benchmark::Mcf.profile(), 9, schedule.clone());
        for index in 0..100 {
            assert_eq!(
                g.current_phase(),
                schedule.phase_at(index),
                "instruction {index}"
            );
            g.next();
        }
    }

    #[test]
    fn memory_bound_phases_abandon_the_hot_region() {
        use crate::phase::{PhaseSchedule, WorkloadPhase};
        let profile = Benchmark::Crafty.profile();
        let n = 50_000;
        let hot_fraction = |phase: WorkloadPhase| -> f64 {
            let accesses: Vec<u64> =
                TraceGenerator::with_phases(&profile, 5, PhaseSchedule::pinned(phase))
                    .take(n)
                    .filter_map(|i| i.mem_addr)
                    .collect();
            let hot = accesses
                .iter()
                .filter(|&&a| (HOT_BASE..HOT_BASE + profile.hot_data_bytes).contains(&a))
                .count();
            hot as f64 / accesses.len() as f64
        };
        let compute = hot_fraction(WorkloadPhase::ComputeBound);
        let memory = hot_fraction(WorkloadPhase::MemoryBound);
        assert!(
            (compute - profile.hot_access_probability).abs() < 0.02,
            "compute phases keep the profile's hot-access rate ({compute})"
        );
        assert!(
            (memory - profile.hot_access_probability * MEMORY_PHASE_HOT_SCALE).abs() < 0.02,
            "memory phases must mostly leave the hot region ({memory} vs {compute})"
        );
    }
}
