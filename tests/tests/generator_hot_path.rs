//! Differential tests of the synthetic trace generator against a frozen port
//! of the float-decision generator it replaced.
//!
//! `TraceGenerator` now draws each instruction in one inlined pass: the
//! `SmallRng` state stays in a local, every Bernoulli decision and each step
//! of the op pick compares a draw's top 53 bits with a threshold from
//! `rand::gen_bool_threshold`, and a static branch is random when its PC
//! hash byte is below a counted cutoff.
//! The claim is that every stream is bit-identical to the old one. The port
//! below is the old generator line for line, with two substitutions: its
//! `gen_bool` and `gen::<f64>` calls go to the frozen float versions here
//! (the shim's `gen_bool` now decides through the threshold, so it cannot
//! serve as the reference), and the `profile` and `phases` accessors, which
//! do not touch the stream, are left out, as is a lint annotation that does
//! not apply to tests. `gen_range` is the shim's, which this rewrite did not
//! touch.
//!
//! Random draws almost never land on a threshold, so the boundary tests
//! build profiles whose probability puts a known draw exactly on its
//! threshold (where a `<=` in place of `<` would flip it) and half a unit
//! above it (where a threshold without `ceil` would). The branch test puts
//! the random-branch cutoff on every hash byte in turn.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use vccmin_core::cpu::{BranchInfo, BranchKind, OpClass, Reg, TraceInstruction};
use vccmin_core::workloads::{
    Benchmark, BenchmarkProfile, PhaseSchedule, Suite, TraceGenerator, WorkloadPhase,
};

// ---------------------------------------------------------------------------
// Frozen port of the float-decision generator.
// ---------------------------------------------------------------------------

/// Port of `rand`'s `next_f64`: the top 53 bits of a draw, scaled to [0, 1).
fn frozen_next_f64(rng: &mut SmallRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Port of `rand`'s `gen_bool`: a 53-bit uniform in [0, 1) compared with `p`.
fn frozen_gen_bool(rng: &mut SmallRng, p: f64) -> bool {
    assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} not in [0, 1]");
    frozen_next_f64(rng) < p
}

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
struct FrozenGenerator {
    profile: BenchmarkProfile,
    rng: SmallRng,
    pc: u64,
    stream_ptr: u64,
    recent_int: [Reg; 4],
    recent_fp: [Reg; 4],
    next_int_dest: u8,
    next_fp_dest: u8,
    instructions_generated: u64,
    phases: Option<PhaseSchedule>,
}

/// During a memory-bound phase the hot-region reuse probability is multiplied
/// by this factor (most accesses leave the cache-resident region).
const MEMORY_PHASE_HOT_SCALE: f64 = 0.25;
/// During a memory-bound phase the streaming probability of non-hot accesses is
/// raised at least to this value (large-array sweeps dominate).
const MEMORY_PHASE_STREAMING_FLOOR: f64 = 0.75;

impl FrozenGenerator {
    /// Creates a generator for `profile` seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile does not validate (see [`BenchmarkProfile::validate`]).
    #[must_use]
    fn new(profile: &BenchmarkProfile, seed: u64) -> Self {
        if let Err(msg) = profile.validate() {
            panic!("invalid benchmark profile {}: {msg}", profile.name);
        }
        Self {
            profile: profile.clone(),
            rng: SmallRng::seed_from_u64(seed),
            pc: CODE_BASE,
            stream_ptr: DATA_BASE,
            recent_int: [1, 2, 3, 4],
            recent_fp: [33, 34, 35, 36],
            next_int_dest: INT_DEST_REGS.start,
            next_fp_dest: FP_DEST_REGS.start,
            instructions_generated: 0,
            phases: None,
        }
    }

    /// Creates a *phase-annotated* generator: the instruction stream walks the
    /// given cyclic [`PhaseSchedule`], and during
    /// [`WorkloadPhase::MemoryBound`] segments the profile's memory locality is
    /// modulated (less hot-region reuse, more streaming) so memory-bound
    /// stretches genuinely behave memory bound. Compute-bound segments apply
    /// the profile verbatim, so an all-compute schedule reproduces
    /// [`FrozenGenerator::new`]'s stream exactly.
    ///
    /// # Panics
    ///
    /// Panics if the profile does not validate.
    #[must_use]
    fn with_phases(profile: &BenchmarkProfile, seed: u64, phases: PhaseSchedule) -> Self {
        let mut generator = Self::new(profile, seed);
        generator.phases = Some(phases);
        generator
    }

    /// The phase the *next* generated instruction will belong to. Un-phased
    /// generators report [`WorkloadPhase::ComputeBound`] (the profile applies
    /// verbatim). This is the signal a reactive voltage-mode governor samples
    /// between execution quanta.
    #[must_use]
    fn current_phase(&self) -> WorkloadPhase {
        match &self.phases {
            Some(schedule) => schedule.phase_at(self.instructions_generated),
            None => WorkloadPhase::ComputeBound,
        }
    }

    /// Number of instructions generated so far.
    #[must_use]
    fn instructions_generated(&self) -> u64 {
        self.instructions_generated
    }

    fn pick_op(&mut self) -> OpClass {
        let p = &self.profile;
        let r: f64 = frozen_next_f64(&mut self.rng);
        let mut acc = p.load_fraction;
        if r < acc {
            return OpClass::Load;
        }
        acc += p.store_fraction;
        if r < acc {
            return OpClass::Store;
        }
        acc += p.branch_fraction;
        if r < acc {
            return OpClass::Branch;
        }
        acc += p.int_mul_fraction;
        if r < acc {
            return OpClass::IntMul;
        }
        acc += p.fp_alu_fraction;
        if r < acc {
            return OpClass::FpAlu;
        }
        acc += p.fp_mul_fraction;
        if r < acc {
            return OpClass::FpMul;
        }
        OpClass::IntAlu
    }

    /// The hot-region and streaming probabilities in effect for the next
    /// access, after phase modulation.
    fn locality_probabilities(&self) -> (f64, f64) {
        let p = &self.profile;
        match self.current_phase() {
            WorkloadPhase::ComputeBound => (p.hot_access_probability, p.streaming_probability),
            WorkloadPhase::MemoryBound => (
                p.hot_access_probability * MEMORY_PHASE_HOT_SCALE,
                p.streaming_probability.max(MEMORY_PHASE_STREAMING_FLOOR),
            ),
        }
    }

    fn data_address(&mut self) -> u64 {
        let (hot_probability, streaming_probability) = self.locality_probabilities();
        let p = &self.profile;
        if frozen_gen_bool(&mut self.rng, hot_probability) {
            // Hot region: reuse is strongly skewed towards the start of the region
            // (stack frames, hot globals, recently allocated objects), modeled with a
            // truncated exponential over the region. The head of the region is reused
            // at very short distances and stays cache resident; the tail provides the
            // capacity sensitivity that the disabling schemes expose.
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            let depth = (-u.ln() / 3.0).min(1.0);
            let hot_words = p.hot_data_bytes / 8;
            let word = ((depth * hot_words as f64) as u64).min(hot_words - 1);
            HOT_BASE + word * 8
        } else if frozen_gen_bool(&mut self.rng, streaming_probability) {
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
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
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

    fn pick_src(&mut self, fp: bool) -> Option<Reg> {
        if frozen_gen_bool(&mut self.rng, self.profile.dependence_density) {
            // Depend on a recently produced value.
            let idx = self.rng.gen_range(0..4);
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

    fn branch_info(&mut self, pc: u64) -> (BranchInfo, u64) {
        // A static branch (identified by its PC) is either strongly biased or
        // essentially random, per the profile's randomness fraction.
        let hash = pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        let is_random = (hash & 0xff) as f64 / 255.0 < self.profile.branch_randomness;
        let taken = if is_random {
            frozen_gen_bool(&mut self.rng, 0.5)
        } else {
            // Strongly biased: taken ~90% of the time (loop back-edges).
            frozen_gen_bool(&mut self.rng, 0.9)
        };
        let code_end = CODE_BASE + self.profile.code_bytes;
        let target = if frozen_gen_bool(&mut self.rng, 0.75) {
            // Loop back-edge: jump backwards by a bounded distance.
            let back = self.rng.gen_range(16..2048).min(pc - CODE_BASE + 4);
            pc - back + 4
        } else if frozen_gen_bool(&mut self.rng, 0.85) {
            // Call into hot code: most dynamic control transfers land in a small set
            // of hot functions (the 90/10 rule), here the first 8 KB of the region.
            let hot_code = self.profile.code_bytes.min(8 * 1024);
            CODE_BASE + self.rng.gen_range(0..hot_code / 4) * 4
        } else {
            // Cold cross-function jump anywhere in the footprint.
            CODE_BASE + self.rng.gen_range(0..self.profile.code_bytes / 4) * 4
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

impl Iterator for FrozenGenerator {
    type Item = TraceInstruction;

    fn next(&mut self) -> Option<Self::Item> {
        let pc = self.pc;
        let code_end = CODE_BASE + self.profile.code_bytes;
        let op = self.pick_op();
        let instr = match op {
            OpClass::Load => {
                let addr = self.data_address();
                let addr_src = self.pick_src(false);
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
                let addr = self.data_address();
                let value_src = self.pick_src(false);
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
                let src = self.pick_src(false);
                let (info, next_pc) = self.branch_info(pc);
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
                let a = self.pick_src(false);
                let b = self.pick_src(false);
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
                let a = self.pick_src(true);
                let b = self.pick_src(true);
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
        // Wrap the program counter at the end of the code region (the outermost loop).
        if self.pc >= code_end {
            self.pc = CODE_BASE;
        }
        self.instructions_generated += 1;
        Some(instr)
    }
}

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

/// `2^53`, the number of distinct 53-bit draws.
const UNIFORMS: f64 = (1u64 << 53) as f64;

/// The seeds of every sweep: the benchmark's default seed 1, the trace pins'
/// seed 2010, the benchmark's held-out seed 20100, and one large enough to
/// set the top bit.
const SEEDS: [u64; 4] = [1, 2010, 20100, 0xF00D_5EED_0BAD_CAFE];

/// No schedule, the governor's square wave (shortened so a stream crosses
/// several phase boundaries), and each phase pinned.
fn schedules() -> [(&'static str, Option<PhaseSchedule>); 4] {
    [
        ("unphased", None),
        ("alternating", Some(PhaseSchedule::alternating(900, 600))),
        (
            "pinned compute",
            Some(PhaseSchedule::pinned(WorkloadPhase::ComputeBound)),
        ),
        (
            "pinned memory",
            Some(PhaseSchedule::pinned(WorkloadPhase::MemoryBound)),
        ),
    ]
}

/// Runs the generator and its frozen port in lock step for `n` instructions
/// and returns the first difference, if any: an instruction, the phase
/// reported before it, or the instruction count.
fn first_difference(
    profile: &BenchmarkProfile,
    seed: u64,
    schedule: Option<&PhaseSchedule>,
    n: u64,
) -> Option<String> {
    let (mut new, mut old) = match schedule {
        Some(s) => (
            TraceGenerator::with_phases(profile, seed, s.clone()),
            FrozenGenerator::with_phases(profile, seed, s.clone()),
        ),
        None => (
            TraceGenerator::new(profile, seed),
            FrozenGenerator::new(profile, seed),
        ),
    };
    for i in 0..n {
        let (phase, frozen_phase) = (new.current_phase(), old.current_phase());
        if phase != frozen_phase {
            return Some(format!(
                "phase before instruction {i}: {phase:?} vs {frozen_phase:?}"
            ));
        }
        let (a, b) = (new.next(), old.next());
        if a != b {
            return Some(format!("instruction {i}: {a:?} vs frozen {b:?}"));
        }
    }
    let (count, frozen_count) = (new.instructions_generated(), old.instructions_generated());
    (count != frozen_count).then(|| format!("count {count} vs frozen {frozen_count}"))
}

fn assert_lock_step(
    label: &str,
    profile: &BenchmarkProfile,
    seed: u64,
    schedule: Option<&PhaseSchedule>,
    n: u64,
) {
    if let Some(difference) = first_difference(profile, seed, schedule, n) {
        panic!("{label}, seed {seed}: {difference}\nprofile {profile:?}");
    }
}

/// The top 53 bits of draw number `draw` (from 0) of a generator seeded
/// with `seed`.
fn draw(seed: u64, draw: usize) -> u64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..=draw).map(|_| rng.next_u64() >> 11).last().unwrap()
}

/// The first `count` seeds whose draw number `index` lies in `range`.
fn seeds_with_draw_in(index: usize, range: std::ops::Range<u64>, count: usize) -> Vec<u64> {
    (0u64..)
        .filter(|&seed| range.contains(&draw(seed, index)))
        .take(count)
        .collect()
}

/// The two probabilities that put draw `x` on its threshold: at `x * 2^-53`
/// the threshold is exactly `x`, so the draw is the first to decide `false`;
/// half a unit higher the threshold is `x + 1` only through the `ceil`, and
/// the draw decides `true`. Exact for `x < 2^52`.
fn boundary_probabilities(x: u64) -> [f64; 2] {
    assert!(x < 1 << 52, "x + 0.5 must be exact");
    [x as f64 / UNIFORMS, (x as f64 + 0.5) / UNIFORMS]
}

/// The frozen generator's first instruction, to check a boundary test's
/// premise: that the crafted draw decides as the test says.
fn frozen_first(profile: &BenchmarkProfile, seed: u64, phase: WorkloadPhase) -> TraceInstruction {
    FrozenGenerator::with_phases(profile, seed, PhaseSchedule::pinned(phase))
        .next()
        .unwrap()
}

/// An integer profile with no loads, stores, branches or multiplies: every
/// instruction is a plain integer ALU op drawing two sources.
fn all_alu(name: &'static str) -> BenchmarkProfile {
    BenchmarkProfile {
        name,
        suite: Suite::Int,
        load_fraction: 0.0,
        store_fraction: 0.0,
        branch_fraction: 0.0,
        int_mul_fraction: 0.0,
        fp_alu_fraction: 0.0,
        fp_mul_fraction: 0.0,
        hot_data_bytes: 4 * 1024,
        data_working_set_bytes: 64 * 1024,
        hot_access_probability: 0.6,
        streaming_probability: 0.3,
        code_bytes: 16 * 1024,
        branch_randomness: 0.1,
        dependence_density: 0.4,
    }
}

/// The six mix fractions of a profile in the order they are summed.
fn mix_mut(p: &mut BenchmarkProfile) -> [&mut f64; 6] {
    [
        &mut p.load_fraction,
        &mut p.store_fraction,
        &mut p.branch_fraction,
        &mut p.int_mul_fraction,
        &mut p.fp_alu_fraction,
        &mut p.fp_mul_fraction,
    ]
}

// ---------------------------------------------------------------------------
// The shipped profiles.
// ---------------------------------------------------------------------------

#[test]
fn every_profile_matches_the_frozen_generator_at_every_seed_and_schedule() {
    for bench in Benchmark::all() {
        let profile = bench.profile();
        for seed in SEEDS {
            for (label, schedule) in schedules() {
                let label = format!("{bench} {label}");
                assert_lock_step(&label, &profile, seed, schedule.as_ref(), 10_000);
            }
        }
    }
}

#[test]
fn the_benchmark_workloads_match_over_a_whole_campaign_trace() {
    // The four synthetic workloads of the in-order benchmark, as far as one
    // of its cells reads a trace.
    for bench in [
        Benchmark::Crafty,
        Benchmark::Mcf,
        Benchmark::Swim,
        Benchmark::Gzip,
    ] {
        assert_lock_step(bench.name(), &bench.profile(), 1, None, 300_000);
    }
}

// ---------------------------------------------------------------------------
// Draws on their thresholds.
// ---------------------------------------------------------------------------

#[test]
fn op_classes_split_exactly_where_the_float_sums_do() {
    // The op class is decided by draw 0. Each class in turn takes the whole
    // mix fraction that puts draw 0 on (or half a unit above) its
    // cumulative threshold; every class before it has fraction 0, so the
    // draw also reaches their thresholds of 0.
    let order = [
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
        OpClass::IntMul,
        OpClass::FpAlu,
        OpClass::FpMul,
    ];
    for seed in seeds_with_draw_in(0, 1..1 << 52, 4) {
        for (above, p) in [false, true]
            .into_iter()
            .zip(boundary_probabilities(draw(seed, 0)))
        {
            for (class, op) in order.into_iter().enumerate() {
                let mut profile = all_alu("op boundary");
                *mix_mut(&mut profile)[class] = p;
                let first = frozen_first(&profile, seed, WorkloadPhase::ComputeBound);
                assert_eq!(first.op == op, above, "premise: {op:?} at {p}");
                assert_lock_step("op boundary", &profile, seed, None, 200);
            }
        }
    }
}

#[test]
fn dependence_decisions_split_exactly_where_gen_bool_does() {
    // In an all-ALU profile, draw 1 decides whether the first source depends.
    for seed in seeds_with_draw_in(1, 1..1 << 52, 4) {
        for (above, p) in [false, true]
            .into_iter()
            .zip(boundary_probabilities(draw(seed, 1)))
        {
            let mut profile = all_alu("dependence boundary");
            profile.dependence_density = p;
            let first = frozen_first(&profile, seed, WorkloadPhase::ComputeBound);
            assert_eq!(first.srcs[0] != Some(30), above, "premise at {p}");
            assert_lock_step("dependence boundary", &profile, seed, None, 200);
        }
    }
}

#[test]
fn locality_decisions_split_exactly_where_gen_bool_does_in_both_phases() {
    let pinned = |phase| Some(PhaseSchedule::pinned(phase));
    // In an all-load profile, draw 1 decides whether the first access is
    // hot. A memory-bound phase scales the hot probability by 1/4, so
    // four times the boundary puts the draw on the scaled threshold.
    let is_hot = |i: &TraceInstruction| i.mem_addr.unwrap() < DATA_BASE;
    for seed in seeds_with_draw_in(1, 1..1 << 50, 4) {
        for (above, p) in [false, true]
            .into_iter()
            .zip(boundary_probabilities(draw(seed, 1)))
        {
            let mut profile = all_alu("hot boundary");
            profile.load_fraction = 1.0;
            profile.hot_access_probability = p;
            let first = frozen_first(&profile, seed, WorkloadPhase::ComputeBound);
            assert_eq!(is_hot(&first), above, "premise at {p}");
            assert_lock_step("hot boundary", &profile, seed, None, 200);
            let compute = pinned(WorkloadPhase::ComputeBound);
            assert_lock_step(
                "hot boundary, compute",
                &profile,
                seed,
                compute.as_ref(),
                200,
            );
            profile.hot_access_probability = 4.0 * p;
            let first = frozen_first(&profile, seed, WorkloadPhase::MemoryBound);
            assert_eq!(is_hot(&first), above, "premise at 4 * {p}, memory bound");
            let memory = pinned(WorkloadPhase::MemoryBound);
            assert_lock_step("hot boundary, memory", &profile, seed, memory.as_ref(), 200);
        }
    }
    // With no hot accesses, draw 2 decides whether the first access
    // streams. A memory-bound phase raises the probability to at least
    // 0.75, where only the on-threshold case is exact.
    for seed in seeds_with_draw_in(2, 1..1 << 52, 4) {
        for (above, p) in [false, true]
            .into_iter()
            .zip(boundary_probabilities(draw(seed, 2)))
        {
            let mut profile = all_alu("streaming boundary");
            profile.load_fraction = 1.0;
            profile.hot_access_probability = 0.0;
            profile.streaming_probability = p;
            let first = frozen_first(&profile, seed, WorkloadPhase::ComputeBound);
            assert_eq!(
                first.mem_addr == Some(DATA_BASE + 64),
                above,
                "premise at {p}"
            );
            assert_lock_step("streaming boundary", &profile, seed, None, 200);
        }
    }
    let floor = (0.75 * UNIFORMS) as u64;
    for seed in seeds_with_draw_in(2, floor..1 << 53, 4) {
        let mut profile = all_alu("streaming boundary, memory");
        profile.load_fraction = 1.0;
        profile.hot_access_probability = 0.0;
        profile.streaming_probability = draw(seed, 2) as f64 / UNIFORMS;
        let first = frozen_first(&profile, seed, WorkloadPhase::MemoryBound);
        assert_ne!(first.mem_addr, Some(DATA_BASE + 64), "premise: irregular");
        let memory = pinned(WorkloadPhase::MemoryBound);
        assert_lock_step(
            "streaming boundary, memory",
            &profile,
            seed,
            memory.as_ref(),
            200,
        );
    }
}

#[test]
fn the_random_branch_cutoff_sits_on_every_hash_byte() {
    // A branch-only profile visits hundreds of static branches. Setting the
    // randomness to `b / 255` makes byte `b` the first biased one; the next
    // float up makes it random.
    for byte in 0..=255u32 {
        let on = f64::from(byte) / 255.0;
        for randomness in [on, f64::from_bits(on.to_bits() + 1).min(1.0)] {
            let mut profile = all_alu("branch cutoff");
            profile.branch_fraction = 1.0;
            profile.branch_randomness = randomness;
            assert_lock_step("branch cutoff", &profile, u64::from(byte), None, 300);
        }
    }
}

// ---------------------------------------------------------------------------
// Random valid profiles.
// ---------------------------------------------------------------------------

/// A probability that is 0, 1 or uniform in [0, 1), each about a third of
/// the time.
fn probability(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..3u32) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.gen_range(0.0..1.0),
    }
}

/// A mix whose running sum ends exactly on `target` (when the fractions
/// allow it; the nudges settle within a few ulps).
fn mix_summing_to(rng: &mut SmallRng, target: f64) -> [f64; 6] {
    let mut mix = [0.0; 6];
    let mut weights = [0.0; 6];
    for w in &mut weights {
        *w = if rng.gen_range(0..4u32) == 0 {
            0.0
        } else {
            rng.gen_range(0.0..1.0)
        };
    }
    let total: f64 = weights.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    for (m, w) in mix.iter_mut().zip(weights) {
        *m = target * w / total;
    }
    let head: f64 = mix[..5].iter().fold(0.0, |acc, &m| acc + m);
    mix[5] = (target - head).max(0.0);
    for _ in 0..8 {
        let sum = head + mix[5];
        if sum == target {
            break;
        }
        let bits = mix[5].to_bits();
        mix[5] = f64::from_bits(if sum < target {
            bits + 1
        } else {
            bits.saturating_sub(1)
        });
    }
    mix
}

/// A random profile that validates, built from `seed`. It mixes the edge
/// cases in: mixes summing to exactly 1 and to 1 plus or minus an ulp,
/// probabilities of 0 and 1, hot regions of one word, working sets equal to
/// the hot region, and code footprints on both sides of the 8 KB hot-code
/// window.
fn random_profile(seed: u64) -> BenchmarkProfile {
    let mut rng = SmallRng::seed_from_u64(seed);
    let target = match rng.gen_range(0..5u32) {
        0 => 1.0,
        1 => 1.0 + f64::EPSILON,
        2 => 1.0 - f64::EPSILON / 2.0,
        3 => 0.0,
        _ => rng.gen_range(0.0..1.0),
    };
    let mix = mix_summing_to(&mut rng, target);
    let hot_data_bytes = match rng.gen_range(0..3u32) {
        0 => 8,
        1 => rng.gen_range(8..16u64),
        _ => rng.gen_range(16..64 * 1024u64),
    };
    let data_working_set_bytes = if rng.gen_range(0..4u32) == 0 {
        hot_data_bytes
    } else {
        hot_data_bytes + rng.gen_range(0..4 * 1024 * 1024u64)
    };
    let code_bytes = match rng.gen_range(0..3u32) {
        0 => rng.gen_range(256..8 * 1024u64),
        1 => 8 * 1024,
        _ => rng.gen_range(8 * 1024 + 1..256 * 1024u64),
    };
    let profile = BenchmarkProfile {
        name: "random",
        suite: if mix[4] + mix[5] > 0.0 {
            Suite::Fp
        } else {
            Suite::Int
        },
        load_fraction: mix[0],
        store_fraction: mix[1],
        branch_fraction: mix[2],
        int_mul_fraction: mix[3],
        fp_alu_fraction: mix[4],
        fp_mul_fraction: mix[5],
        hot_data_bytes,
        data_working_set_bytes,
        hot_access_probability: probability(&mut rng),
        streaming_probability: probability(&mut rng),
        code_bytes,
        branch_randomness: probability(&mut rng),
        dependence_density: probability(&mut rng),
    };
    assert_eq!(profile.validate(), Ok(()), "{profile:?}");
    profile
}

#[test]
fn random_mixes_hit_their_edge_sums() {
    // The sweep below relies on the edge mixes being what they claim.
    let mut seen = [false; 3];
    for seed in 0..200 {
        let p = random_profile(seed);
        let sum = [
            p.store_fraction,
            p.branch_fraction,
            p.int_mul_fraction,
            p.fp_alu_fraction,
            p.fp_mul_fraction,
        ]
        .iter()
        .fold(p.load_fraction, |acc, &f| acc + f);
        for (i, edge) in [1.0, 1.0 + f64::EPSILON, 1.0 - f64::EPSILON / 2.0]
            .iter()
            .enumerate()
        {
            seen[i] |= sum == *edge;
        }
    }
    assert_eq!(seen, [true; 3], "sums of exactly 1, 1 + ulp and 1 - ulp");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_valid_profiles_match_the_frozen_generator(
        profile in any::<u64>().prop_map(random_profile),
        seed in any::<u64>(),
        schedule in 0..4usize,
    ) {
        let (label, schedule) = schedules()[schedule].clone();
        let difference = first_difference(&profile, seed, schedule.as_ref(), 5_000);
        prop_assert!(difference.is_none(), "{label}: {}", difference.unwrap_or_default());
    }
}
