//! Differential tests of the RV32IM interpreter and trace source against a
//! frozen, line-for-line port of the code they replaced.
//!
//! The interpreter now decodes each text word once: a fetch reads the word's
//! slot in its page's decoded table, which also holds the word's trace
//! template, and pages are found through a flat two-level page table. The
//! port below is the interpreter as it was before: a `BTreeMap` page lookup
//! per fetch and per data access, a full `Instr::decode` per step, and a
//! per-record `translate` and phase count. Both run in lock step, and every
//! step must agree on the `Retired` record or `Trap`, all 32 registers, the
//! `TraceInstruction` and `memory_bound()`; the memory must agree at the end.
//!
//! The inputs are the four shipped kernels past their fill loops, and two
//! kinds of random program with random registers: random words, and random
//! legal instructions that store into their own text. A random program is
//! two segments that each end at the last word of a page, in two adjacent
//! pages, so that execution moves between two decoded tables whose filled
//! slots coincide and reach the last slot.

use std::collections::BTreeMap;

use proptest::prelude::*;

use vccmin_core::cpu::{BranchInfo, BranchKind, OpClass, TraceInstruction, TraceSource};
use vccmin_core::riscv::inst::{AluOp, BranchOp, Instr, LoadOp, MulOp, StoreOp};
use vccmin_core::riscv::{
    Cpu, ExecBranch, Retired, RvKernel, RvTraceSource, SparseMemory, Trap, WorkingSet,
};

// ---------------------------------------------------------------------------
// Reference implementation: a line-for-line port of the interpreter, its
// `BTreeMap` memory, `translate` and the phase count.
// ---------------------------------------------------------------------------

const PAGE_SIZE: u32 = 4096;
const PHASE_EPOCH: u64 = 1024;
const MEMORY_BOUND_PCT: u64 = 20;
const REG_RA: u8 = 1;

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct RefMemory {
    pages: BTreeMap<u32, Box<[u8; PAGE_SIZE as usize]>>,
}

impl RefMemory {
    fn page_base(addr: u32) -> u32 {
        addr & !(PAGE_SIZE - 1)
    }

    fn page_offset(addr: u32) -> usize {
        (addr & (PAGE_SIZE - 1)) as usize
    }

    fn load_u8(&self, addr: u32) -> u8 {
        self.pages
            .get(&Self::page_base(addr))
            .map_or(0, |page| page[Self::page_offset(addr)])
    }

    fn load_u16(&self, addr: u32) -> u16 {
        match self.pages.get(&Self::page_base(addr)) {
            None => 0,
            Some(page) => {
                let o = Self::page_offset(addr);
                u16::from_le_bytes([page[o], page[o + 1]])
            }
        }
    }

    fn load_u32(&self, addr: u32) -> u32 {
        match self.pages.get(&Self::page_base(addr)) {
            None => 0,
            Some(page) => {
                let o = Self::page_offset(addr);
                u32::from_le_bytes([page[o], page[o + 1], page[o + 2], page[o + 3]])
            }
        }
    }

    fn page_mut(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE as usize] {
        self.pages
            .entry(Self::page_base(addr))
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]))
    }

    fn store_u8(&mut self, addr: u32, value: u8) {
        self.page_mut(addr)[Self::page_offset(addr)] = value;
    }

    fn store_u16(&mut self, addr: u32, value: u16) {
        let o = Self::page_offset(addr);
        self.page_mut(addr)[o..o + 2].copy_from_slice(&value.to_le_bytes());
    }

    fn store_u32(&mut self, addr: u32, value: u32) {
        let o = Self::page_offset(addr);
        self.page_mut(addr)[o..o + 4].copy_from_slice(&value.to_le_bytes());
    }
}

struct RefCpu {
    regs: [u32; 32],
    pc: u32,
    mem: RefMemory,
    retired: u64,
}

impl RefCpu {
    fn reg(&self, idx: u8) -> u32 {
        self.regs[(idx & 0x1f) as usize]
    }

    fn set_reg(&mut self, idx: u8, value: u32) {
        let idx = (idx & 0x1f) as usize;
        if idx != 0 {
            self.regs[idx] = value;
        }
    }

    fn step(&mut self) -> Result<Retired, Trap> {
        let pc = self.pc;
        if pc & 0x3 != 0 {
            return Err(Trap::MisalignedFetch { pc });
        }
        let word = self.mem.load_u32(pc);
        let instr = Instr::decode(word).ok_or(Trap::IllegalInstruction { pc, word })?;
        let next = pc.wrapping_add(4);
        let mut mem_addr = None;
        let mut branch = None;
        let mut new_pc = next;

        match instr {
            Instr::Lui { rd, imm } => self.set_reg(rd, imm),
            Instr::Auipc { rd, imm } => self.set_reg(rd, pc.wrapping_add(imm)),
            Instr::Jal { rd, offset } => {
                let target = pc.wrapping_add(offset as u32);
                self.set_reg(rd, next);
                branch = Some(ExecBranch {
                    taken: true,
                    target,
                });
                new_pc = target;
            }
            Instr::Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as u32) & !1;
                self.set_reg(rd, next);
                branch = Some(ExecBranch {
                    taken: true,
                    target,
                });
                new_pc = target;
            }
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let taken = match op {
                    BranchOp::Beq => a == b,
                    BranchOp::Bne => a != b,
                    BranchOp::Blt => (a as i32) < (b as i32),
                    BranchOp::Bge => (a as i32) >= (b as i32),
                    BranchOp::Bltu => a < b,
                    BranchOp::Bgeu => a >= b,
                };
                let target = if taken {
                    pc.wrapping_add(offset as u32)
                } else {
                    next
                };
                branch = Some(ExecBranch { taken, target });
                new_pc = target;
            }
            Instr::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let value = match op {
                    LoadOp::Lb => self.mem.load_u8(addr) as i8 as i32 as u32,
                    LoadOp::Lbu => u32::from(self.mem.load_u8(addr)),
                    LoadOp::Lh => {
                        if addr & 1 != 0 {
                            return Err(Trap::MisalignedLoad { pc, addr });
                        }
                        self.mem.load_u16(addr) as i16 as i32 as u32
                    }
                    LoadOp::Lhu => {
                        if addr & 1 != 0 {
                            return Err(Trap::MisalignedLoad { pc, addr });
                        }
                        u32::from(self.mem.load_u16(addr))
                    }
                    LoadOp::Lw => {
                        if addr & 3 != 0 {
                            return Err(Trap::MisalignedLoad { pc, addr });
                        }
                        self.mem.load_u32(addr)
                    }
                };
                self.set_reg(rd, value);
                mem_addr = Some(addr);
            }
            Instr::Store {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let value = self.reg(rs2);
                match op {
                    StoreOp::Sb => self.mem.store_u8(addr, value as u8),
                    StoreOp::Sh => {
                        if addr & 1 != 0 {
                            return Err(Trap::MisalignedStore { pc, addr });
                        }
                        self.mem.store_u16(addr, value as u16);
                    }
                    StoreOp::Sw => {
                        if addr & 3 != 0 {
                            return Err(Trap::MisalignedStore { pc, addr });
                        }
                        self.mem.store_u32(addr, value);
                    }
                }
                mem_addr = Some(addr);
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let value = alu(op, self.reg(rs1), imm as u32);
                self.set_reg(rd, value);
            }
            Instr::Alu { op, rd, rs1, rs2 } => {
                let value = alu(op, self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, value);
            }
            Instr::MulDiv { op, rd, rs1, rs2 } => {
                let value = muldiv(op, self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, value);
            }
            Instr::Ebreak => return Err(Trap::Halt { pc }),
        }

        self.pc = new_pc;
        self.retired += 1;
        Ok(Retired {
            pc,
            instr,
            mem_addr,
            branch,
        })
    }
}

fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a << (b & 0x1f),
        AluOp::Slt => u32::from((a as i32) < (b as i32)),
        AluOp::Sltu => u32::from(a < b),
        AluOp::Xor => a ^ b,
        AluOp::Srl => a >> (b & 0x1f),
        AluOp::Sra => ((a as i32) >> (b & 0x1f)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
    }
}

fn muldiv(op: MulOp, a: u32, b: u32) -> u32 {
    match op {
        MulOp::Mul => a.wrapping_mul(b),
        MulOp::Mulh => ((i64::from(a as i32) * i64::from(b as i32)) >> 32) as u32,
        MulOp::Mulhsu => ((i64::from(a as i32) * i64::from(b)) >> 32) as u32,
        MulOp::Mulhu => ((u64::from(a) * u64::from(b)) >> 32) as u32,
        MulOp::Div => {
            let (a, b) = (a as i32, b as i32);
            if b == 0 {
                u32::MAX
            } else if a == i32::MIN && b == -1 {
                i32::MIN as u32
            } else {
                (a / b) as u32
            }
        }
        MulOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        MulOp::Rem => {
            let (a, b) = (a as i32, b as i32);
            if b == 0 {
                a as u32
            } else if a == i32::MIN && b == -1 {
                0
            } else {
                (a % b) as u32
            }
        }
        MulOp::Remu => a.checked_rem(b).unwrap_or(a),
    }
}

/// The phase count of the trace source: `memory_bound` after each record.
#[derive(Default)]
struct RefPhase {
    epoch_total: u64,
    epoch_mem: u64,
    memory_bound: bool,
}

impl RefPhase {
    fn account_phase(&mut self, is_mem: bool) {
        self.epoch_total += 1;
        if is_mem {
            self.epoch_mem += 1;
        }
        if self.epoch_total == PHASE_EPOCH {
            self.memory_bound = self.epoch_mem * 100 >= self.epoch_total * MEMORY_BOUND_PCT;
            self.epoch_total = 0;
            self.epoch_mem = 0;
        }
    }
}

fn reg(r: u8) -> Option<u8> {
    (r != 0).then_some(r)
}

fn translate(retired: &Retired) -> TraceInstruction {
    let (op, dest, srcs) = classify(retired.instr);
    let branch = retired.branch.map(|b| BranchInfo {
        kind: branch_kind(retired.instr),
        taken: b.taken,
        target: u64::from(b.target),
    });
    TraceInstruction {
        pc: u64::from(retired.pc),
        op,
        dest,
        srcs,
        mem_addr: retired.mem_addr.map(u64::from),
        branch,
    }
}

fn classify(instr: Instr) -> (OpClass, Option<u8>, [Option<u8>; 2]) {
    match instr {
        Instr::Lui { rd, .. } => (OpClass::IntAlu, reg(rd), [None, None]),
        Instr::Auipc { rd, .. } => (OpClass::IntAlu, reg(rd), [None, None]),
        Instr::Jal { rd, .. } => (OpClass::Branch, reg(rd), [None, None]),
        Instr::Jalr { rd, rs1, .. } => (OpClass::Branch, reg(rd), [reg(rs1), None]),
        Instr::Branch { rs1, rs2, .. } => (OpClass::Branch, None, [reg(rs1), reg(rs2)]),
        Instr::Load { rd, rs1, .. } => (OpClass::Load, reg(rd), [reg(rs1), None]),
        Instr::Store { rs1, rs2, .. } => (OpClass::Store, None, [reg(rs1), reg(rs2)]),
        Instr::AluImm { rd, rs1, .. } => (OpClass::IntAlu, reg(rd), [reg(rs1), None]),
        Instr::Alu { rd, rs1, rs2, .. } => (OpClass::IntAlu, reg(rd), [reg(rs1), reg(rs2)]),
        Instr::MulDiv { op, rd, rs1, rs2 } => {
            let class = match op {
                MulOp::Mul | MulOp::Mulh | MulOp::Mulhsu | MulOp::Mulhu => OpClass::IntMul,
                MulOp::Div | MulOp::Divu | MulOp::Rem | MulOp::Remu => OpClass::FpMul,
            };
            (class, reg(rd), [reg(rs1), reg(rs2)])
        }
        Instr::Ebreak => (OpClass::IntAlu, None, [None, None]),
    }
}

fn branch_kind(instr: Instr) -> BranchKind {
    match instr {
        Instr::Branch { .. } => BranchKind::Conditional,
        Instr::Jal { rd, .. } => {
            if rd == REG_RA {
                BranchKind::Call
            } else {
                BranchKind::Jump
            }
        }
        Instr::Jalr { rd, rs1, .. } => {
            if rd == 0 && rs1 == REG_RA {
                BranchKind::Return
            } else if rd == REG_RA {
                BranchKind::Call
            } else {
                BranchKind::Jump
            }
        }
        _ => BranchKind::Jump,
    }
}

// ---------------------------------------------------------------------------
// The lock-step comparison.
// ---------------------------------------------------------------------------

/// One program in both implementations: the reference, a [`Cpu`] stepped
/// directly, and an [`RvTraceSource`] over a second copy of the same state.
struct Lockstep {
    reference: RefCpu,
    phase: RefPhase,
    cpu: Cpu,
    source: RvTraceSource,
}

impl Lockstep {
    /// Starts all three from `mem` at `pc` with registers `regs`. The
    /// reference copies `pages` (the mapped page bases of `mem`).
    fn new(mem: SparseMemory, pages: &[u32], pc: u32, regs: &[u32; 32]) -> Self {
        let mut ref_mem = RefMemory::default();
        for &base in pages {
            for offset in 0..PAGE_SIZE {
                ref_mem.store_u8(base + offset, mem.load_u8(base + offset));
            }
        }
        assert!(
            to_sparse(&ref_mem) == mem,
            "the reference copies every mapped page"
        );
        let mut cpu = Cpu::new(pc, mem);
        for (r, &value) in regs.iter().enumerate() {
            cpu.set_reg(r as u8, value);
        }
        let mut ref_regs = *regs;
        ref_regs[0] = 0;
        Self {
            reference: RefCpu {
                regs: ref_regs,
                pc,
                mem: ref_mem,
                retired: 0,
            },
            phase: RefPhase::default(),
            // The kernel is only a label here.
            source: RvTraceSource::from_cpu(RvKernel::Matmul, cpu.clone()),
            cpu,
        }
    }

    /// Runs up to `steps` instructions or to the first trap, comparing every
    /// observable after each step; returns the first divergence.
    fn run(&mut self, steps: u64) -> Result<(), String> {
        for step in 0..steps {
            let want = self.reference.step();
            let got = self.cpu.step();
            if got != want {
                return Err(format!(
                    "step {step}: Cpu::step {got:?}, reference {want:?}"
                ));
            }
            for r in 0..32u8 {
                if self.cpu.reg(r) != self.reference.reg(r) {
                    return Err(format!(
                        "step {step}: x{r} is {:#x}, reference {:#x}",
                        self.cpu.reg(r),
                        self.reference.reg(r)
                    ));
                }
            }
            let want_record = want.as_ref().ok().map(translate);
            if let Some(record) = &want_record {
                self.phase
                    .account_phase(matches!(record.op, OpClass::Load | OpClass::Store));
            }
            let got_record = self.source.next_instruction();
            if got_record != want_record {
                return Err(format!(
                    "step {step}: trace record {got_record:?}, reference {want_record:?}"
                ));
            }
            if self.source.memory_bound() != self.phase.memory_bound {
                return Err(format!("step {step}: memory_bound() diverged"));
            }
            if let Err(trap) = want {
                if self.source.trap() != Some(trap) {
                    return Err(format!("step {step}: source kept {:?}", self.source.trap()));
                }
                break;
            }
        }
        if self.cpu.retired() != self.reference.retired || self.cpu.pc() != self.reference.pc {
            return Err("retired count or pc diverged".to_owned());
        }
        if self.cpu.mem() != &to_sparse(&self.reference.mem) {
            return Err("memory diverged at the end of the run".to_owned());
        }
        Ok(())
    }
}

/// The reference's pages in a fresh memory, to compare memories through
/// `SparseMemory`'s own equality (same mapped pages, same bytes).
fn to_sparse(reference: &RefMemory) -> SparseMemory {
    let mut mem = SparseMemory::new();
    for (&base, page) in &reference.pages {
        for (offset, &byte) in page.iter().enumerate() {
            mem.store_u8(base + offset as u32, byte);
        }
    }
    mem
}

// ---------------------------------------------------------------------------
// The shipped kernels, past every fill loop.
// ---------------------------------------------------------------------------

/// Past the longest fill routine (compress returns from it after 397,325
/// instructions on the `Large` working set).
const KERNEL_STEPS: u64 = 450_000;
const KERNEL_SEEDS: [u64; 3] = [1, 2010, 20100];

fn check_kernel(kernel: RvKernel) {
    for ws in [WorkingSet::Small, WorkingSet::Large] {
        for seed in KERNEL_SEEDS {
            let image = kernel.image_with(seed, ws, true);
            // A kernel image maps only its text, from the entry point up.
            let pages: Vec<u32> = (0..image.mem.mapped_pages() as u32)
                .map(|k| image.entry + k * PAGE_SIZE)
                .collect();
            let mut lockstep = Lockstep::new(image.mem, &pages, image.entry, &[0; 32]);
            if let Err(divergence) = lockstep.run(KERNEL_STEPS) {
                panic!("{kernel} {ws:?} seed {seed}: {divergence}");
            }
            assert_eq!(lockstep.cpu.retired(), KERNEL_STEPS, "{kernel} never traps");
        }
    }
}

#[test]
fn matmul_matches_the_frozen_interpreter() {
    check_kernel(RvKernel::Matmul);
}

#[test]
fn quicksort_matches_the_frozen_interpreter() {
    check_kernel(RvKernel::Quicksort);
}

#[test]
fn hashjoin_matches_the_frozen_interpreter() {
    check_kernel(RvKernel::HashJoin);
}

#[test]
fn compress_matches_the_frozen_interpreter() {
    check_kernel(RvKernel::Compress);
}

// ---------------------------------------------------------------------------
// Random programs.
// ---------------------------------------------------------------------------

/// The first of the two pages a random program occupies.
const TEXT_PAGE: u32 = 0x0004_0000;
/// Steps each random program runs, unless it traps first.
const PROGRAM_STEPS: u64 = 2_000;

const ALU_OPS: [AluOp; 10] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Sll,
    AluOp::Slt,
    AluOp::Sltu,
    AluOp::Xor,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::Or,
    AluOp::And,
];
const MUL_OPS: [MulOp; 8] = [
    MulOp::Mul,
    MulOp::Mulh,
    MulOp::Mulhsu,
    MulOp::Mulhu,
    MulOp::Div,
    MulOp::Divu,
    MulOp::Rem,
    MulOp::Remu,
];
const BRANCH_OPS: [BranchOp; 6] = [
    BranchOp::Beq,
    BranchOp::Bne,
    BranchOp::Blt,
    BranchOp::Bge,
    BranchOp::Bltu,
    BranchOp::Bgeu,
];
const LOAD_OPS: [LoadOp; 5] = [LoadOp::Lb, LoadOp::Lh, LoadOp::Lw, LoadOp::Lbu, LoadOp::Lhu];
const STORE_OPS: [StoreOp; 3] = [StoreOp::Sb, StoreOp::Sh, StoreOp::Sw];

/// Registers that [`program_regs`] points into the program's text.
const TEXT_POINTERS: std::ops::Range<u8> = 5..9;
/// Registers that [`program_regs`] loads with legal instruction words, for
/// stores to write into the text.
const WORD_REGS: std::ops::Range<u8> = 9..12;

/// The address of word `k` of a `len`-word program: the first `len / 2`
/// words end at the last word of [`TEXT_PAGE`], the rest at the last word
/// of the next page. Execution starts at word 0.
fn word_addr(k: usize, len: usize) -> u32 {
    let half = len / 2;
    let (page_end, index, words) = if k < half {
        (TEXT_PAGE + PAGE_SIZE, k, half)
    } else {
        (TEXT_PAGE + 2 * PAGE_SIZE, k - half, len - half)
    };
    page_end - 4 * (words - index) as u32
}

/// A legal instruction at word `at` of a `len`-word program, drawn from
/// `bits`. Branches land inside the segment and `jal` anywhere in the
/// program, so programs loop and cross between the pages; loads and stores
/// mostly go through a register that points into the text, at a word offset,
/// so they rewrite the program as it runs.
fn legal_instr(bits: u64, at: usize, len: usize) -> Instr {
    let field = |shift: u32, n: u64| ((bits >> shift) % n) as usize;
    let rd = field(8, 32) as u8;
    let rs1 = field(13, 32) as u8;
    let rs2 = field(18, 32) as u8;
    let imm = ((bits >> 23) as i32) << 20 >> 20;
    let offset_to = |k: usize| word_addr(k, len).wrapping_sub(word_addr(at, len)) as i32;
    let segment = if at < len / 2 {
        0..len / 2
    } else {
        len / 2..len
    };
    let near = offset_to(segment.start + field(35, segment.len() as u64));
    let far = offset_to(field(35, len as u64));
    let base = if bits >> 61 == 0b111 {
        rs1
    } else {
        TEXT_POINTERS.start + field(41, 4) as u8
    };
    let word_offset = (field(43, 9) as i32 - 4) * 4;
    match bits % 33 {
        0 => Instr::Lui {
            rd,
            imm: (bits >> 32) as u32 & 0xffff_f000,
        },
        1 => Instr::Auipc {
            rd,
            imm: (bits >> 32) as u32 & 0xffff_f000,
        },
        2 | 3 => Instr::Jal { rd, offset: far },
        4 | 5 => Instr::Jalr {
            rd,
            rs1: base,
            offset: word_offset,
        },
        6..=10 => Instr::Branch {
            op: BRANCH_OPS[field(47, 6)],
            rs1,
            rs2,
            offset: near,
        },
        11..=14 => Instr::Load {
            op: LOAD_OPS[field(47, 5)],
            rd,
            rs1: base,
            offset: word_offset,
        },
        15..=20 => Instr::Store {
            op: STORE_OPS[field(47, 3)],
            rs1: base,
            rs2: if bits & (1 << 50) == 0 {
                WORD_REGS.start + field(51, 3) as u8
            } else {
                rs2
            },
            offset: word_offset,
        },
        21..=24 => match ALU_OPS[field(47, 10)] {
            op @ (AluOp::Sll | AluOp::Srl | AluOp::Sra) => Instr::AluImm {
                op,
                rd,
                rs1,
                imm: field(23, 32) as i32,
            },
            AluOp::Sub => Instr::AluImm {
                op: AluOp::Add,
                rd,
                rs1,
                imm,
            },
            op => Instr::AluImm { op, rd, rs1, imm },
        },
        25..=28 => Instr::Alu {
            op: ALU_OPS[field(47, 10)],
            rd,
            rs1,
            rs2,
        },
        29..=31 => Instr::MulDiv {
            op: MUL_OPS[field(47, 8)],
            rd,
            rs1,
            rs2,
        },
        _ => Instr::Ebreak,
    }
}

/// Random registers, with [`TEXT_POINTERS`] aimed at words of the program
/// and [`WORD_REGS`] holding encodings of legal instructions.
fn program_regs(random: &[u32], words: &[u64]) -> [u32; 32] {
    let mut regs = [0; 32];
    regs.copy_from_slice(random);
    for (k, r) in TEXT_POINTERS.enumerate() {
        regs[usize::from(r)] = word_addr(random[k] as usize % words.len(), words.len());
    }
    for (k, r) in WORD_REGS.enumerate() {
        let bits = words[k % words.len()].rotate_left(17);
        regs[usize::from(r)] = legal_instr(bits, k % words.len(), words.len()).encode();
    }
    regs
}

/// Loads `words` at their [`word_addr`]esses and runs them in lock step.
fn run_program(words: &[u32], regs: &[u32; 32]) -> Result<(), String> {
    let mut mem = SparseMemory::new();
    for (k, &word) in words.iter().enumerate() {
        mem.store_u32(word_addr(k, words.len()), word);
    }
    let mut pages: Vec<u32> = (0..words.len())
        .map(|k| word_addr(k, words.len()) & !(PAGE_SIZE - 1))
        .collect();
    pages.dedup();
    Lockstep::new(mem, &pages, word_addr(0, words.len()), regs).run(PROGRAM_STEPS)
}

/// `bits` with its low seven bits set to the `pick`-th implemented major
/// opcode, or left as they are when `pick` is past the last one. Drawn with
/// `pick` in `0..12`, five words in six carry a real opcode, so accepted
/// words are common.
fn word_from(bits: u32, pick: usize) -> u32 {
    const OPCODES: [u32; 10] = [
        0b011_0111, 0b001_0111, 0b110_1111, 0b110_0111, 0b110_0011, 0b000_0011, 0b010_0011,
        0b001_0011, 0b011_0011, 0b111_0011,
    ];
    match OPCODES.get(pick) {
        Some(opcode) => (bits & !0x7f) | opcode,
        None => bits,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100_000))]

    #[test]
    fn every_word_decodes_or_is_rejected_and_accepted_words_round_trip(
        bits in any::<u32>(),
        pick in 0usize..12,
    ) {
        let word = word_from(bits, pick);
        if let Some(instr) = Instr::decode(word) {
            prop_assert_eq!(Instr::decode(instr.encode()), Some(instr), "word {:#010x}", word);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    #[test]
    fn programs_of_random_words_match_the_frozen_interpreter(
        words in prop::collection::vec((any::<u32>(), 0usize..12), 1..64),
        random in prop::collection::vec(any::<u32>(), 32..33),
    ) {
        let words: Vec<u32> = words.iter().map(|&(bits, pick)| word_from(bits, pick)).collect();
        let mut regs = [0; 32];
        regs.copy_from_slice(&random);
        let outcome = run_program(&words, &regs);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    #[test]
    fn self_modifying_programs_match_the_frozen_interpreter(
        bits in prop::collection::vec(any::<u64>(), 2..48),
        random in prop::collection::vec(any::<u32>(), 32..33),
    ) {
        let words: Vec<u32> = bits
            .iter()
            .enumerate()
            .map(|(at, &b)| legal_instr(b, at, bits.len()).encode())
            .collect();
        let outcome = run_program(&words, &program_regs(&random, &bits));
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}
