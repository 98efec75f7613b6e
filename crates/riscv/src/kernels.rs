//! The shipped RV32IM kernels: real programs with data-dependent phase
//! structure, built with the in-crate [`Assembler`].
//!
//! Every kernel follows the same harness shape: initialize the stack pointer
//! and a 32-bit seed register, then loop forever over `fill` (regenerate the
//! input data from a linear-congruential generator seeded by the current
//! seed) and `body` (the actual kernel, returning a checksum in `a0`). After
//! each iteration the harness stores the checksum at [`CHECK_ADDR`] and the
//! iteration count at [`ITER_ADDR`], then perturbs the seed so no two
//! iterations process identical data. The looping form never halts — it is
//! an endless trace source; the `once` form replaces the back-edge with
//! `ebreak` so differential tests can run a single iteration to completion
//! and inspect the architectural state.
//!
//! Kernels are parameterized by [`WorkingSet`]: `Small` keeps the data
//! within the 32 KiB L1 data cache of the ISPASS-2010 configuration, `Large`
//! (the default used by the experiment drivers) straddles it, so cache
//! disabling schemes see realistic miss behavior.
//!
//! Determinism: the data is a pure function of the seed, the programs take
//! no input besides the seed, and the interpreter is exact — two runs of the
//! same kernel image retire bit-identical instruction streams.

use crate::asm::reg::{
    A0, A1, A2, A3, A4, A5, RA, S0, S1, S10, S11, S2, S3, S4, S5, S6, S7, S8, S9, SP, T0, T1, T2,
    T3, T4, T5, T6, ZERO,
};
use crate::asm::{Assembler, Program};
use crate::cpu::Cpu;
use crate::mem::SparseMemory;

/// Load address of the first kernel instruction.
pub const CODE_BASE: u32 = 0x0001_0000;
/// The harness stores the per-iteration checksum here.
pub const CHECK_ADDR: u32 = 0x000f_0000;
/// The harness stores the completed-iteration count here.
pub const ITER_ADDR: u32 = 0x000f_0004;
/// The compress kernel additionally stores its output length here.
pub const CMP_OUT_LEN_ADDR: u32 = 0x000f_0008;
/// Base of the kernel data region.
pub const DATA_BASE: u32 = 0x0010_0000;
/// Initial stack pointer (the stack grows down, far above the data).
pub const STACK_TOP: u32 = 0x0800_0000;

/// LCG multiplier (the classic glibc `rand` constant).
const LCG_MUL: u32 = 1_103_515_245;
/// LCG increment.
const LCG_ADD: u32 = 12_345;
/// Per-iteration seed perturbation (the 32-bit golden ratio).
const SEED_STEP: u32 = 0x9e37_79b9;
/// Fibonacci-hash multiplier used by the hash-join and compress kernels.
const HASH_MUL: u32 = 0x9e37_79b1;
/// Modulus for the matmul checksum's div/rem fold.
const CK_PRIME: u32 = 1_000_003;

/// Working-set size class relative to the 32 KiB L1 data cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WorkingSet {
    /// Data fits comfortably inside the L1 (≈ 6–16 KiB).
    Small,
    /// Data straddles the L1 (≈ 48–108 KiB) — the default for experiments.
    #[default]
    Large,
}

/// The four shipped kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RvKernel {
    /// Blocked dense 32-bit matrix multiply.
    Matmul,
    /// Recursive quicksort over a seeded array.
    Quicksort,
    /// Open-addressing hash-join build + probe.
    HashJoin,
    /// LZ-style byte compression with a trigram hash table.
    Compress,
}

impl RvKernel {
    /// Every kernel, in canonical order.
    pub const ALL: [Self; 4] = [
        Self::Matmul,
        Self::Quicksort,
        Self::HashJoin,
        Self::Compress,
    ];

    /// Short CLI name (the part after the `riscv:` prefix).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Matmul => "matmul",
            Self::Quicksort => "qsort",
            Self::HashJoin => "hashjoin",
            Self::Compress => "compress",
        }
    }

    /// Parses a [`Self::name`] string.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// One-line description for workload listings.
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            Self::Matmul => "blocked 48×48 integer matmul, 108 KiB working set, mul/div heavy",
            Self::Quicksort => "recursive quicksort of 12288 seeded words, call/return heavy",
            Self::HashJoin => "open-addressing hash join, 64 KiB table, pointer-chasing probes",
            Self::Compress => "LZ-style byte compressor with trigram hash table, 48 KiB input",
        }
    }

    /// Builds the endless (looping) kernel image at the default `Large`
    /// working set — the form the trace source runs.
    #[must_use]
    pub fn image(self, seed: u64) -> KernelImage {
        self.image_with(seed, WorkingSet::Large, true)
    }

    /// Builds a kernel image with explicit working-set size and loop form.
    /// `looping = false` produces the single-iteration variant that halts at
    /// `ebreak` after storing its checksum.
    #[must_use]
    pub fn image_with(self, seed: u64, ws: WorkingSet, looping: bool) -> KernelImage {
        let program = build_program(self, fold_seed(seed), ws, looping);
        let mut mem = SparseMemory::new();
        program.load_into(&mut mem);
        KernelImage {
            entry: program.base,
            mem,
        }
    }
}

impl std::fmt::Display for RvKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A loaded kernel: program image in memory plus its entry point.
#[derive(Debug, Clone)]
pub struct KernelImage {
    /// Initial pc.
    pub entry: u32,
    /// Memory with the program loaded (data is generated by the program
    /// itself, so nothing else is pre-seeded).
    pub mem: SparseMemory,
}

impl KernelImage {
    /// A CPU positioned at the kernel entry point.
    #[must_use]
    pub fn into_cpu(self) -> Cpu {
        Cpu::new(self.entry, self.mem)
    }
}

/// Folds a 64-bit experiment seed into the kernel's 32-bit seed register.
#[must_use]
pub fn fold_seed(seed: u64) -> u32 {
    (seed ^ (seed >> 32)) as u32
}

/// One LCG step (mirrored by the reference models in the tests).
#[cfg(test)]
fn lcg(state: u32) -> u32 {
    state.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD)
}

fn build_program(kernel: RvKernel, seed32: u32, ws: WorkingSet, looping: bool) -> Program {
    let mut a = Assembler::new(CODE_BASE);
    // Shared harness: fill + body per iteration, publish checksum/count,
    // perturb the seed (kept live in s11 across the whole run; s10 counts).
    a.li(SP, STACK_TOP);
    a.li(S11, seed32);
    a.li(S10, 0);
    a.label("outer");
    a.call("fill");
    a.call("body");
    a.li(T0, CHECK_ADDR);
    a.sw(A0, 0, T0);
    a.addi(S10, S10, 1);
    a.sw(S10, 4, T0);
    a.li(T1, SEED_STEP);
    a.add(S11, S11, T1);
    if looping {
        a.j("outer");
    } else {
        a.ebreak();
    }
    match kernel {
        RvKernel::Matmul => emit_matmul(&mut a, ws),
        RvKernel::Quicksort => emit_quicksort(&mut a, ws),
        RvKernel::HashJoin => emit_hashjoin(&mut a, ws),
        RvKernel::Compress => emit_compress(&mut a, ws),
    }
    // simlint::allow(panic-path, "static in-crate programs; assembly is pinned by unit tests")
    a.finish().expect("kernel program assembles")
}

fn emit_fill_words(a: &mut Assembler, nwords: u32) {
    a.label("fill");
    a.li(T0, DATA_BASE);
    a.li(T1, nwords);
    a.mv(T2, S11);
    a.li(T3, LCG_MUL);
    a.li(T4, LCG_ADD);
    a.label("fill_loop");
    a.mul(T2, T2, T3);
    a.add(T2, T2, T4);
    a.sw(T2, 0, T0);
    a.addi(T0, T0, 4);
    a.addi(T1, T1, -1);
    a.bne(T1, ZERO, "fill_loop");
    a.ret();
}

// ---- matmul -----------------------------------------------------------------

fn matmul_dims(ws: WorkingSet) -> (u32, u32) {
    match ws {
        WorkingSet::Small => (32, 16), // 3 × 4 KiB matrices = 12 KiB
        WorkingSet::Large => (48, 16), // 3 × 9 KiB·4 = 108 KiB total
    }
}

fn emit_matmul(a: &mut Assembler, ws: WorkingSet) {
    let (n, bs) = matmul_dims(ws);
    let n4 = (n * 4) as i32;
    let b_base = DATA_BASE + n * n * 4;
    let c_base = DATA_BASE + 2 * n * n * 4;
    emit_fill_words(a, 2 * n * n); // A then B, contiguous

    // C[i][j] = Σk A[i][k]·B[k][j], j blocked by `bs`; checksum folds every
    // produced element and runs a divu/remu pass per row block.
    a.label("body");
    a.mv(S5, S11); // checksum
    a.li(S9, CK_PRIME);
    a.li(S0, 0); // jj
    a.label("mm_jj");
    a.li(S1, 0); // i
    a.label("mm_i");
    a.li(T0, n); // cptr = C + (i·n + jj)·4
    a.mul(T1, S1, T0);
    a.add(T1, T1, S0);
    a.slli(T1, T1, 2);
    a.li(T2, c_base);
    a.add(S3, T1, T2);
    a.mv(S2, S0); // j = jj
    a.label("mm_j");
    a.li(T0, n4 as u32); // aptr = A + i·n·4
    a.mul(S6, S1, T0);
    a.li(T2, DATA_BASE);
    a.add(S6, S6, T2);
    a.slli(S7, S2, 2); // bptr = B + j·4
    a.li(T2, b_base);
    a.add(S7, S7, T2);
    a.li(S4, 0); // acc
    a.li(S8, n); // k
    a.label("mm_k");
    a.lw(T0, 0, S6);
    a.lw(T1, 0, S7);
    a.mul(T0, T0, T1);
    a.add(S4, S4, T0);
    a.addi(S6, S6, 4);
    a.addi(S7, S7, n4); // column stride
    a.addi(S8, S8, -1);
    a.bne(S8, ZERO, "mm_k");
    a.sw(S4, 0, S3);
    a.addi(S3, S3, 4);
    a.slli(T0, S5, 5); // ck = ck·31 + acc
    a.sub(S5, T0, S5);
    a.add(S5, S5, S4);
    a.addi(S2, S2, 1);
    a.addi(T0, S0, bs as i32);
    a.blt(S2, T0, "mm_j");
    a.remu(T0, S5, S9); // per-row-block div/rem fold
    a.xor(S5, S5, T0);
    a.divu(T1, S5, S9);
    a.add(S5, S5, T1);
    a.addi(S1, S1, 1);
    a.li(T0, n);
    a.blt(S1, T0, "mm_i");
    a.addi(S0, S0, bs as i32);
    a.li(T0, n);
    a.blt(S0, T0, "mm_jj");
    a.mv(A0, S5);
    a.ret();
}

// ---- quicksort --------------------------------------------------------------

fn quicksort_words(ws: WorkingSet) -> u32 {
    match ws {
        WorkingSet::Small => 4096,  // 16 KiB
        WorkingSet::Large => 12288, // 48 KiB
    }
}

fn emit_quicksort(a: &mut Assembler, ws: WorkingSet) {
    let nw = quicksort_words(ws);
    emit_fill_words(a, nw);

    a.label("body");
    a.addi(SP, SP, -16);
    a.sw(RA, 0, SP);
    a.li(A0, DATA_BASE);
    a.li(A1, DATA_BASE + (nw - 1) * 4);
    a.call("qsort");
    a.li(T0, DATA_BASE); // checksum the sorted array
    a.li(T1, nw);
    a.li(A0, 0);
    a.label("qs_sum");
    a.lw(T2, 0, T0);
    a.slli(T3, A0, 5);
    a.sub(A0, T3, A0);
    a.add(A0, A0, T2);
    a.addi(T0, T0, 4);
    a.addi(T1, T1, -1);
    a.bne(T1, ZERO, "qs_sum");
    a.lw(RA, 0, SP);
    a.addi(SP, SP, 16);
    a.ret();

    // qsort(a0 = &first, a1 = &last), signed order, Lomuto partition with
    // the last element as pivot; recurses on both halves.
    a.label("qsort");
    a.bltu(A0, A1, "qs_go");
    a.ret();
    a.label("qs_go");
    a.addi(SP, SP, -16);
    a.sw(RA, 0, SP);
    a.sw(A0, 4, SP);
    a.sw(A1, 8, SP);
    a.lw(T0, 0, A1); // pivot
    a.mv(T1, A0); // store cursor
    a.mv(T2, A0); // scan cursor
    a.label("qs_part");
    a.bgeu(T2, A1, "qs_pdone");
    a.lw(T3, 0, T2);
    a.bge(T3, T0, "qs_skip");
    a.lw(T4, 0, T1); // swap *store, *scan
    a.sw(T3, 0, T1);
    a.sw(T4, 0, T2);
    a.addi(T1, T1, 4);
    a.label("qs_skip");
    a.addi(T2, T2, 4);
    a.j("qs_part");
    a.label("qs_pdone");
    a.lw(T3, 0, T1); // swap pivot into place
    a.lw(T4, 0, A1);
    a.sw(T4, 0, T1);
    a.sw(T3, 0, A1);
    a.sw(T1, 12, SP);
    a.addi(A1, T1, -4); // left half (a0 still = lo)
    a.call("qsort");
    a.lw(T1, 12, SP);
    a.addi(A0, T1, 4); // right half
    a.lw(A1, 8, SP);
    a.call("qsort");
    a.lw(RA, 0, SP);
    a.addi(SP, SP, 16);
    a.ret();
}

// ---- hash join --------------------------------------------------------------

/// (log2 slots, build keys, probes).
fn hashjoin_dims(ws: WorkingSet) -> (u32, u32, u32) {
    match ws {
        WorkingSet::Small => (11, 1024, 4096), // 2048 slots · 8 B = 16 KiB
        WorkingSet::Large => (13, 4096, 8192), // 8192 slots · 8 B = 64 KiB
    }
}

fn emit_hashjoin(a: &mut Assembler, ws: WorkingSet) {
    let (log2_slots, nkeys, nprobes) = hashjoin_dims(ws);
    let slots = 1u32 << log2_slots;
    let shift = (32 - log2_slots) as i32;

    // "fill" clears the table so each iteration builds from scratch.
    a.label("fill");
    a.li(T0, DATA_BASE);
    a.li(T1, slots * 2);
    a.label("fill_loop");
    a.sw(ZERO, 0, T0);
    a.addi(T0, T0, 4);
    a.addi(T1, T1, -1);
    a.bne(T1, ZERO, "fill_loop");
    a.ret();

    // Build: insert `nkeys` odd LCG keys (slot = [key, value]; key 0 = empty)
    // with linear probing, then probe `nprobes` times alternating between
    // present keys (LCG replay) and absent keys (even, never inserted).
    a.label("body");
    a.li(S8, DATA_BASE); // table base
    a.li(S9, slots - 1); // probe mask
    a.li(S7, HASH_MUL);
    a.mv(S2, S11); // build LCG
    a.li(S3, 0); // i
    a.li(S4, nkeys);
    a.label("hb_build");
    a.li(T6, LCG_MUL);
    a.mul(S2, S2, T6);
    a.li(T6, LCG_ADD);
    a.add(S2, S2, T6);
    a.ori(T0, S2, 1); // key (odd, never 0)
    a.mul(T2, T0, S7);
    a.srli(T2, T2, shift);
    a.label("hb_ins_scan");
    a.slli(T3, T2, 3);
    a.add(T3, T3, S8);
    a.lw(T5, 0, T3);
    a.beq(T5, ZERO, "hb_insert");
    a.beq(T5, T0, "hb_next"); // duplicate key: keep first
    a.addi(T2, T2, 1);
    a.and(T2, T2, S9);
    a.j("hb_ins_scan");
    a.label("hb_insert");
    a.sw(T0, 0, T3);
    a.sw(S3, 4, T3);
    a.label("hb_next");
    a.addi(S3, S3, 1);
    a.blt(S3, S4, "hb_build");

    a.mv(S2, S11); // replay build LCG → present keys
    a.li(T0, 0x5dee_ce66);
    a.xor(S5, S11, T0); // independent LCG → absent (even) keys
    a.li(S3, 0);
    a.li(S4, nprobes);
    a.li(A0, 0); // checksum
    a.li(S6, 0); // match count
    a.label("hb_probe");
    a.andi(T6, S3, 1);
    a.bne(T6, ZERO, "hb_abs");
    a.li(T6, LCG_MUL);
    a.mul(S2, S2, T6);
    a.li(T6, LCG_ADD);
    a.add(S2, S2, T6);
    a.ori(T0, S2, 1);
    a.j("hb_hash");
    a.label("hb_abs");
    a.li(T6, LCG_MUL);
    a.mul(S5, S5, T6);
    a.li(T6, LCG_ADD);
    a.add(S5, S5, T6);
    a.andi(T0, S5, -2); // even key: guaranteed miss
    a.label("hb_hash");
    a.mul(T2, T0, S7);
    a.srli(T2, T2, shift);
    a.label("hb_scan");
    a.slli(T3, T2, 3);
    a.add(T3, T3, S8);
    a.lw(T5, 0, T3);
    a.beq(T5, ZERO, "hb_miss");
    a.beq(T5, T0, "hb_hit");
    a.addi(T2, T2, 1);
    a.and(T2, T2, S9);
    a.j("hb_scan");
    a.label("hb_hit");
    a.lw(T4, 4, T3);
    a.slli(T6, A0, 5); // ck = ck·31 + value
    a.sub(A0, T6, A0);
    a.add(A0, A0, T4);
    a.addi(S6, S6, 1);
    a.label("hb_miss");
    a.addi(S3, S3, 1);
    a.blt(S3, S4, "hb_probe");
    a.slli(T6, A0, 5); // fold the match count in
    a.sub(A0, T6, A0);
    a.add(A0, A0, S6);
    a.ret();
}

// ---- compress ---------------------------------------------------------------

fn compress_len(ws: WorkingSet) -> u32 {
    match ws {
        WorkingSet::Small => 16_384,
        WorkingSet::Large => 49_152, // 48 KiB
    }
}

/// Output buffer (worst case = input size, all literals).
const CMP_OUT_BASE: u32 = DATA_BASE + 0x1_0000;
/// 1024-entry trigram hash table of `position + 1` words (0 = empty).
const CMP_HT_BASE: u32 = DATA_BASE + 0x2_0000;
const CMP_HT_ENTRIES: u32 = 1024;

fn emit_compress(a: &mut Assembler, ws: WorkingSet) {
    let n = compress_len(ws);
    let ht_shift = 32 - 10; // 10-bit trigram hash

    // "fill": n input bytes over a 16-symbol alphabet (compressible), then
    // clear the trigram table.
    a.label("fill");
    a.li(T0, DATA_BASE);
    a.li(T1, n);
    a.mv(T2, S11);
    a.li(T3, LCG_MUL);
    a.li(T4, LCG_ADD);
    a.label("fill_loop");
    a.mul(T2, T2, T3);
    a.add(T2, T2, T4);
    a.srli(T5, T2, 16);
    a.andi(T5, T5, 15);
    a.sb(T5, 0, T0);
    a.addi(T0, T0, 1);
    a.addi(T1, T1, -1);
    a.bne(T1, ZERO, "fill_loop");
    a.li(T0, CMP_HT_BASE);
    a.li(T1, CMP_HT_ENTRIES);
    a.label("fill_ht");
    a.sw(ZERO, 0, T0);
    a.addi(T0, T0, 4);
    a.addi(T1, T1, -1);
    a.bne(T1, ZERO, "fill_ht");
    a.ret();

    // LZ77 with a trigram hash table: a match token is
    // `[0x80 | (len-3), dist_lo, dist_hi]` (len 3–66, dist 1–65535); a
    // literal is the symbol byte itself (always < 0x80 here).
    a.label("body");
    a.li(S2, DATA_BASE); // src
    a.li(S1, n);
    a.li(S3, CMP_OUT_BASE); // out cursor
    a.mv(S6, S3); // out base
    a.li(S4, CMP_HT_BASE);
    a.li(S7, HASH_MUL);
    a.li(S0, 0); // i
    a.label("cm_loop");
    a.addi(T0, S0, 3);
    a.blt(S1, T0, "cm_tail"); // fewer than 3 bytes left
    a.add(T1, S2, S0); // trigram at i, little-endian
    a.lbu(T2, 0, T1);
    a.lbu(T3, 1, T1);
    a.lbu(T4, 2, T1);
    a.slli(T3, T3, 8);
    a.or(T2, T2, T3);
    a.slli(T4, T4, 16);
    a.or(T2, T2, T4);
    a.mul(T3, T2, S7);
    a.srli(T3, T3, ht_shift);
    a.slli(T3, T3, 2);
    a.add(T3, T3, S4);
    a.lw(T4, 0, T3); // candidate position + 1 (0 = none)
    a.addi(T5, S0, 1);
    a.sw(T5, 0, T3); // table now points at i
    a.beq(T4, ZERO, "cm_lit");
    a.addi(T4, T4, -1); // cand
    a.sub(T5, S1, S0); // maxlen = min(66, n - i)
    a.li(T6, 66);
    a.blt(T5, T6, "cm_maxok");
    a.mv(T5, T6);
    a.label("cm_maxok");
    a.li(T6, 0); // len
    a.add(A2, S2, T4); // &src[cand]
    a.add(A3, S2, S0); // &src[i]
    a.label("cm_ext");
    a.bge(T6, T5, "cm_extdone");
    a.add(A4, A2, T6);
    a.lbu(A4, 0, A4);
    a.add(A5, A3, T6);
    a.lbu(A5, 0, A5);
    a.bne(A4, A5, "cm_extdone");
    a.addi(T6, T6, 1);
    a.j("cm_ext");
    a.label("cm_extdone");
    a.li(A4, 3);
    a.blt(T6, A4, "cm_lit"); // too short: literal
    a.sub(A5, S0, T4); // dist (1..=65535 — input ≤ 48 KiB)
    a.addi(A4, T6, -3);
    a.ori(A4, A4, 0x80);
    a.sb(A4, 0, S3);
    a.sb(A5, 1, S3);
    a.srli(A5, A5, 8);
    a.sb(A5, 2, S3);
    a.addi(S3, S3, 3);
    a.add(S0, S0, T6);
    a.j("cm_loop");
    a.label("cm_lit");
    a.add(T1, S2, S0);
    a.lbu(T2, 0, T1);
    a.sb(T2, 0, S3);
    a.addi(S3, S3, 1);
    a.addi(S0, S0, 1);
    a.j("cm_loop");
    a.label("cm_tail"); // last 0–2 bytes as literals
    a.bge(S0, S1, "cm_cksum");
    a.add(T1, S2, S0);
    a.lbu(T2, 0, T1);
    a.sb(T2, 0, S3);
    a.addi(S3, S3, 1);
    a.addi(S0, S0, 1);
    a.j("cm_tail");
    a.label("cm_cksum");
    a.sub(A0, S3, S6); // output length
    a.li(T0, CMP_OUT_LEN_ADDR);
    a.sw(A0, 0, T0);
    a.mv(T0, S6); // fold every output byte
    a.label("cm_ck");
    a.bgeu(T0, S3, "cm_done");
    a.lbu(T1, 0, T0);
    a.slli(T2, A0, 5);
    a.sub(A0, T2, A0);
    a.add(A0, A0, T1);
    a.addi(T0, T0, 1);
    a.j("cm_ck");
    a.label("cm_done");
    a.ret();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::Trap;

    /// Steps until `ebreak`, with a generous cap against runaways.
    fn run_once(kernel: RvKernel, seed: u64, ws: WorkingSet) -> Cpu {
        let mut cpu = kernel.image_with(seed, ws, false).into_cpu();
        for _ in 0..40_000_000u64 {
            match cpu.step() {
                Ok(_) => continue,
                Err(Trap::Halt { .. }) => return cpu,
                Err(trap) => panic!("{kernel} trapped: {trap:?}"),
            }
        }
        panic!("{kernel} did not halt");
    }

    fn lcg_stream(seed32: u32) -> impl FnMut() -> u32 {
        let mut state = seed32;
        move || {
            state = lcg(state);
            state
        }
    }

    /// The shared `ck = ck·31 + v` fold.
    fn fold(ck: u32, v: u32) -> u32 {
        (ck << 5).wrapping_sub(ck).wrapping_add(v)
    }

    #[test]
    fn all_kernel_variants_assemble_and_fit_the_code_region() {
        for kernel in RvKernel::ALL {
            for ws in [WorkingSet::Small, WorkingSet::Large] {
                for looping in [false, true] {
                    let program = build_program(kernel, 1, ws, looping);
                    assert!(program.base + program.len_bytes() < CHECK_ADDR);
                }
            }
        }
    }

    fn matmul_reference(seed32: u32) -> u32 {
        let (n, bs) = matmul_dims(WorkingSet::Small);
        let (n, bs) = (n as usize, bs as usize);
        let mut next = lcg_stream(seed32);
        let a: Vec<u32> = (0..n * n).map(|_| next()).collect();
        let b: Vec<u32> = (0..n * n).map(|_| next()).collect();
        let mut ck = seed32;
        let mut jj = 0;
        while jj < n {
            for i in 0..n {
                for j in jj..jj + bs {
                    let mut acc = 0u32;
                    for k in 0..n {
                        acc = acc.wrapping_add(a[i * n + k].wrapping_mul(b[k * n + j]));
                    }
                    ck = fold(ck, acc);
                }
                ck ^= ck % CK_PRIME;
                ck = ck.wrapping_add(ck / CK_PRIME);
            }
            jj += bs;
        }
        ck
    }

    #[test]
    fn matmul_matches_the_reference_model() {
        let seed = 0x1234_5678_9abc_def0;
        let cpu = run_once(RvKernel::Matmul, seed, WorkingSet::Small);
        assert_eq!(cpu.mem().load_u32(ITER_ADDR), 1);
        assert_eq!(
            cpu.mem().load_u32(CHECK_ADDR),
            matmul_reference(fold_seed(seed))
        );
    }

    #[test]
    fn quicksort_sorts_exactly_the_seeded_array() {
        let seed = 42;
        let nw = quicksort_words(WorkingSet::Small) as usize;
        let cpu = run_once(RvKernel::Quicksort, seed, WorkingSet::Small);
        let sorted: Vec<i32> = (0..nw)
            .map(|i| cpu.mem().load_u32(DATA_BASE + 4 * i as u32) as i32)
            .collect();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "array not sorted");
        // Same multiset as the seeded input.
        let mut next = lcg_stream(fold_seed(seed));
        let mut expect: Vec<i32> = (0..nw).map(|_| next() as i32).collect();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
        // And the checksum is the 31-fold of the sorted values.
        let ck = expect.iter().fold(0u32, |ck, &v| fold(ck, v as u32));
        assert_eq!(cpu.mem().load_u32(CHECK_ADDR), ck);
    }

    fn hashjoin_reference(seed32: u32) -> u32 {
        let (log2_slots, nkeys, nprobes) = hashjoin_dims(WorkingSet::Small);
        let slots = 1usize << log2_slots;
        let mask = slots - 1;
        let shift = 32 - log2_slots;
        let hash = |key: u32| (key.wrapping_mul(HASH_MUL) >> shift) as usize;
        let mut table = vec![(0u32, 0u32); slots];
        let mut next = lcg_stream(seed32);
        for value in 0..nkeys {
            let key = next() | 1;
            let mut h = hash(key);
            loop {
                if table[h].0 == 0 {
                    table[h] = (key, value);
                    break;
                }
                if table[h].0 == key {
                    break; // keep first
                }
                h = (h + 1) & mask;
            }
        }
        let mut present = lcg_stream(seed32);
        let mut absent = lcg_stream(seed32 ^ 0x5dee_ce66);
        let mut ck = 0u32;
        let mut matches = 0u32;
        for i in 0..nprobes {
            let key = if i % 2 == 0 {
                present() | 1
            } else {
                absent() & !1
            };
            let mut h = hash(key);
            loop {
                if table[h].0 == 0 {
                    break;
                }
                if table[h].0 == key {
                    ck = fold(ck, table[h].1);
                    matches += 1;
                    break;
                }
                h = (h + 1) & mask;
            }
        }
        fold(ck, matches)
    }

    #[test]
    fn hashjoin_matches_the_reference_model() {
        let seed = 0xfeed_beef_0042;
        let cpu = run_once(RvKernel::HashJoin, seed, WorkingSet::Small);
        assert_eq!(
            cpu.mem().load_u32(CHECK_ADDR),
            hashjoin_reference(fold_seed(seed))
        );
    }

    fn decompress(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < data.len() {
            let b = data[i];
            if b < 0x80 {
                out.push(b);
                i += 1;
            } else {
                let len = (b & 0x7f) as usize + 3;
                let dist = data[i + 1] as usize | ((data[i + 2] as usize) << 8);
                i += 3;
                let start = out.len() - dist;
                for k in 0..len {
                    let v = out[start + k];
                    out.push(v);
                }
            }
        }
        out
    }

    #[test]
    fn compressed_output_decompresses_to_the_input() {
        let seed = 7;
        let n = compress_len(WorkingSet::Small) as usize;
        let cpu = run_once(RvKernel::Compress, seed, WorkingSet::Small);
        let out_len = cpu.mem().load_u32(CMP_OUT_LEN_ADDR) as usize;
        assert!(out_len > 0 && out_len < n, "16-symbol data must compress");
        let out: Vec<u8> = (0..out_len)
            .map(|i| cpu.mem().load_u8(CMP_OUT_BASE + i as u32))
            .collect();
        let mut state = fold_seed(seed);
        let input: Vec<u8> = (0..n)
            .map(|_| {
                state = lcg(state);
                ((state >> 16) & 0xf) as u8
            })
            .collect();
        assert_eq!(decompress(&out), input);
    }

    #[test]
    fn kernels_are_deterministic() {
        for kernel in RvKernel::ALL {
            let mut a = kernel.image(99).into_cpu();
            let mut b = kernel.image(99).into_cpu();
            for _ in 0..20_000 {
                assert_eq!(a.step().ok(), b.step().ok());
            }
            assert_eq!(a, b, "{kernel} diverged");
        }
    }

    #[test]
    fn checksums_depend_on_the_seed() {
        let x = run_once(RvKernel::Matmul, 1, WorkingSet::Small);
        let y = run_once(RvKernel::Matmul, 2, WorkingSet::Small);
        assert_ne!(
            x.mem().load_u32(CHECK_ADDR),
            y.mem().load_u32(CHECK_ADDR),
            "checksum must be data-dependent"
        );
    }

    #[test]
    fn looping_variant_reaches_a_second_iteration() {
        let mut cpu = RvKernel::HashJoin
            .image_with(3, WorkingSet::Small, true)
            .into_cpu();
        for _ in 0..20_000_000u64 {
            cpu.step().expect("looping kernel never traps");
            if cpu.mem().load_u32(ITER_ADDR) >= 2 {
                return;
            }
        }
        panic!("second iteration never completed");
    }

    #[test]
    fn names_round_trip_through_parse() {
        for kernel in RvKernel::ALL {
            assert_eq!(RvKernel::parse(kernel.name()), Some(kernel));
        }
        assert_eq!(RvKernel::parse("nope"), None);
    }
}
