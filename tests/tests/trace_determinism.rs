//! Deterministic-seed regression tests for every trace source.
//!
//! Every golden figure in this workspace is downstream of the
//! [`TraceGenerator`] byte streams: if a change to `vccmin-workloads` shifts a
//! single instruction of any benchmark's trace, *every* simulated figure moves
//! at once and the golden diffs become unreadable. These tests pin an FNV-1a
//! hash of the first 4096 instructions of all 26 profiles (at the fixed seed
//! below) so a workload change fails *here first*, with a per-benchmark
//! message, before it fails everywhere else.
//!
//! The same hash is pinned for the four real RISC-V kernels, through the same
//! [`Workload`] adapter the campaigns use: a change to the interpreter, the
//! assembler, the kernel programs, or the retired-instruction translation
//! shifts these hashes and fails here before it smears the `riscv_schemes`
//! golden.
//!
//! If a change to the generator is intentional, re-derive the constants by
//! running this test and copying the `actual` values from the failure output
//! (the test prints every drifted benchmark) — and say so loudly in the commit
//! message, because every golden CSV under `tests/golden/` must be regenerated
//! with it.

use vccmin_core::cpu::{BranchKind, OpClass, TraceInstruction};
use vccmin_core::{Benchmark, RvKernel, TraceGenerator, Workload};

const SEED: u64 = 2010;
const INSTRUCTIONS: usize = 4096;

/// 64-bit FNV-1a over a canonical byte encoding of an instruction stream.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_instruction(&mut self, i: &TraceInstruction) {
        self.write_u64(i.pc);
        self.write(&[op_byte(i.op)]);
        self.write(&[i.dest.map_or(0xff, |r| r)]);
        self.write(&[
            i.srcs[0].map_or(0xff, |r| r),
            i.srcs[1].map_or(0xff, |r| r),
        ]);
        self.write_u64(i.mem_addr.map_or(u64::MAX, |a| a));
        match &i.branch {
            None => self.write(&[0]),
            Some(b) => {
                self.write(&[1, branch_byte(b.kind), u8::from(b.taken)]);
                self.write_u64(b.target);
            }
        }
    }
}

fn op_byte(op: OpClass) -> u8 {
    match op {
        OpClass::IntAlu => 0,
        OpClass::IntMul => 1,
        OpClass::FpAlu => 2,
        OpClass::FpMul => 3,
        OpClass::Load => 4,
        OpClass::Store => 5,
        OpClass::Branch => 6,
    }
}

fn branch_byte(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Jump => 1,
        BranchKind::Call => 2,
        BranchKind::Return => 3,
    }
}

fn trace_hash(benchmark: Benchmark, seed: u64, instructions: usize) -> u64 {
    let mut hash = Fnv1a::new();
    for instruction in TraceGenerator::new(&benchmark.profile(), seed).take(instructions) {
        hash.write_instruction(&instruction);
    }
    hash.0
}

/// The pinned hashes: `(benchmark, fnv1a64 of the first 4096 instructions at
/// seed 2010)`, in `Benchmark::all()` order.
const GOLDEN_HASHES: [(Benchmark, u64); 26] = [
    (Benchmark::Ammp, 0x50c78c30c4cb700b),
    (Benchmark::Applu, 0x36b2bd07114f0bc5),
    (Benchmark::Apsi, 0x10a7c549fdbd0bdf),
    (Benchmark::Art, 0x2abd259d9671bbc9),
    (Benchmark::Equake, 0xbd00869e9cdd75ab),
    (Benchmark::Facerec, 0x5e16dc0d9240e758),
    (Benchmark::Fma3d, 0xd65f6919bb1b2827),
    (Benchmark::Galgel, 0xd9e0eaef58b2228b),
    (Benchmark::Lucas, 0x6f21bc51aaff6404),
    (Benchmark::Mesa, 0x6ff83c6a3c7aaa6c),
    (Benchmark::Mgrid, 0x0c54e1de2409f0fe),
    (Benchmark::Sixtrack, 0x679fd77b57489fdb),
    (Benchmark::Swim, 0x020c5d4a5fde676e),
    (Benchmark::Wupwise, 0x1bff21dd6a3761ff),
    (Benchmark::Bzip, 0xe94516e954b6f181),
    (Benchmark::Crafty, 0xc837f0d60f9db480),
    (Benchmark::Eon, 0x50ab8d209a14ffa1),
    (Benchmark::Gap, 0x5a0eb211b68e4602),
    (Benchmark::Gcc, 0x5d9cf70358a14981),
    (Benchmark::Gzip, 0x9f90958b3ee3d7d0),
    (Benchmark::Mcf, 0xc188e907f4378e6e),
    (Benchmark::Parser, 0x65e6c9bc520ecf84),
    (Benchmark::Perlbmk, 0x10a4072046f20253),
    (Benchmark::Twolf, 0x32dfb3b7baf2706c),
    (Benchmark::Vortex, 0xe39b4f55fdbb85f5),
    (Benchmark::Vpr, 0x0e90db4ff4353a0c),
];

#[test]
fn every_benchmark_trace_is_pinned_to_its_golden_hash() {
    assert_eq!(GOLDEN_HASHES.map(|(b, _)| b), Benchmark::all());
    let mut drifted = Vec::new();
    for (benchmark, expected) in GOLDEN_HASHES {
        let actual = trace_hash(benchmark, SEED, INSTRUCTIONS);
        if actual != expected {
            drifted.push(format!(
                "    (Benchmark::{benchmark:?}, {actual:#018x}), // was {expected:#018x}"
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "trace streams drifted for {} benchmark(s); if intentional, update \
         GOLDEN_HASHES with the lines below AND regenerate every golden CSV:\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

fn kernel_hash(kernel: RvKernel, seed: u64, instructions: usize) -> u64 {
    let mut hash = Fnv1a::new();
    // Through the campaign-facing Workload adapter, so the hash covers the
    // interpreter, the kernel program, and the translation layer at once.
    for instruction in Workload::from(kernel).source(seed).take(instructions) {
        hash.write_instruction(&instruction);
    }
    hash.0
}

/// The pinned RISC-V hashes: `(kernel, fnv1a64 of the first 4096 retired
/// instructions at seed 2010)`, in `RvKernel::ALL` order. The 4096-instruction
/// prefix of every kernel is its seeded fill loop, whose *values* depend on
/// the seed but whose control flow, registers, and addresses do not — so these
/// hashes pin the program encoding and the translation, while the
/// campaign-level goldens pin the seed-dependent tail.
const RISCV_GOLDEN_HASHES: [(RvKernel, u64); 4] = [
    (RvKernel::Matmul, 0x934fefdc746ecf35),
    (RvKernel::Quicksort, 0xe95bfa57192ef865),
    (RvKernel::HashJoin, 0x12b959072d4af9c7),
    (RvKernel::Compress, 0x77ee116ad3815a0f),
];

#[test]
fn every_riscv_kernel_trace_is_pinned_to_its_golden_hash() {
    assert_eq!(RISCV_GOLDEN_HASHES.map(|(k, _)| k), RvKernel::ALL);
    let mut drifted = Vec::new();
    for (kernel, expected) in RISCV_GOLDEN_HASHES {
        let actual = kernel_hash(kernel, SEED, INSTRUCTIONS);
        if actual != expected {
            drifted.push(format!(
                "    (RvKernel::{kernel:?}, {actual:#018x}), // was {expected:#018x}"
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "RISC-V trace streams drifted for {} kernel(s); if intentional, update \
         RISCV_GOLDEN_HASHES with the lines below AND regenerate \
         tests/golden/riscv_schemes.csv:\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

/// Instructions covered by the long RISC-V pins. At seed 2010 on the `Large`
/// working set each kernel returns from its fill routine at instruction
/// 27,660 (matmul), 73,739 (qsort), 65,542 (hashjoin) and 397,325
/// (compress), so this prefix reaches every kernel's data-dependent body.
const LONG_INSTRUCTIONS: usize = 450_000;

/// The long RISC-V pins: `(kernel, seed, fnv1a64 of the first 450,000
/// retired instructions)`, each kernel at seeds 2010 and 20100.
const RISCV_LONG_HASHES: [(RvKernel, u64, u64); 8] = [
    (RvKernel::Matmul, 2010, 0xbc080063dbc1865e),
    (RvKernel::Matmul, 20100, 0x9f53dfe67634dc44),
    (RvKernel::Quicksort, 2010, 0xce3cba182a4bb878),
    (RvKernel::Quicksort, 20100, 0x6268d1514305514d),
    (RvKernel::HashJoin, 2010, 0xa05b7416ee268241),
    (RvKernel::HashJoin, 20100, 0xcd62e76afaf52f12),
    (RvKernel::Compress, 2010, 0xd167998a423333a2),
    (RvKernel::Compress, 20100, 0xda28011f278f6fd3),
];

#[test]
fn every_riscv_kernel_body_is_pinned_past_its_fill_loop() {
    let mut drifted = Vec::new();
    for (kernel, seed, expected) in RISCV_LONG_HASHES {
        let actual = kernel_hash(kernel, seed, LONG_INSTRUCTIONS);
        if actual != expected {
            drifted.push(format!(
                "    (RvKernel::{kernel:?}, {seed}, {actual:#018x}), // was {expected:#018x}"
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "RISC-V kernel bodies drifted for {} (kernel, seed) pair(s); if \
         intentional, update RISCV_LONG_HASHES with the lines below AND \
         regenerate tests/golden/riscv_schemes.csv:\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

#[test]
fn riscv_hashes_distinguish_the_kernels_and_repeat_exactly() {
    let mut seen = std::collections::HashSet::new();
    for kernel in RvKernel::ALL {
        let h = kernel_hash(kernel, SEED, 2048);
        assert_eq!(
            h,
            kernel_hash(kernel, SEED, 2048),
            "{kernel}: two identical runs must hash identically"
        );
        assert!(seen.insert(h), "{kernel}: shares a trace hash with another kernel");
    }
}

#[test]
fn trace_hashes_depend_on_the_seed() {
    // A cheap guard that the hash actually sees the stream: a different seed
    // must produce a different hash for every benchmark.
    for benchmark in Benchmark::all() {
        assert_ne!(
            trace_hash(benchmark, SEED, 512),
            trace_hash(benchmark, SEED + 1, 512),
            "{}: seed must change the stream",
            benchmark.name()
        );
    }
}

#[test]
fn hashes_distinguish_the_benchmarks() {
    let mut hashes = std::collections::HashSet::new();
    for (_, h) in GOLDEN_HASHES {
        assert!(hashes.insert(h), "two benchmarks share a trace hash");
    }
}
