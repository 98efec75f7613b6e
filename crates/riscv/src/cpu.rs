//! The RV32IM user-mode interpreter: fetch, decode, execute, one instruction
//! per [`Cpu::step`].
//!
//! Each text word is decoded once, not once per execution: the fetch reads
//! the word's slot in its page's decoded table ([`SparseMemory`] keeps one
//! per page fetched from), and only the first fetch of a word since its page
//! was last written runs [`Instr::decode`]. The slot also holds the word's
//! trace template, so the trace adapter fills only the dynamic fields of a
//! record. Both are pure functions of the word, and every write to a page
//! drops its table, so a step is the same whether its slot was filled or
//! not: a word that a store turned illegal traps at the same pc with the
//! same word.
//!
//! The machine model is deliberately minimal — 32 integer registers, a pc,
//! and a [`SparseMemory`] — because the *timing* model lives entirely in
//! `vccmin-cpu`'s pipeline; this crate only has to produce an architecturally
//! correct instruction stream. Every step returns a [`Retired`] record
//! carrying exactly what the trace adapter needs: the decoded instruction,
//! the effective address of any memory access, and the resolved outcome of
//! any control transfer.
//!
//! Determinism: execution is a pure function of (program image, initial
//! registers). There is no host randomness, no time source and no
//! address-space layout dependence, so two runs of the same kernel retire
//! bit-identical streams — the property the trace-hash regression pins.

use crate::inst::{AluOp, BranchOp, Instr, LoadOp, MulOp, StoreOp};
use crate::mem::SparseMemory;
use crate::trace::Template;

/// Why execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// `ebreak` retired — the kernels' clean halt.
    Halt {
        /// pc of the `ebreak`.
        pc: u32,
    },
    /// The fetched word is outside the implemented RV32IM subset.
    IllegalInstruction {
        /// pc of the offending word.
        pc: u32,
        /// The word that failed to decode.
        word: u32,
    },
    /// pc was not 4-byte aligned at fetch (or a taken branch/jump produced
    /// such a pc).
    MisalignedFetch {
        /// The misaligned pc.
        pc: u32,
    },
    /// A halfword/word load from an unaligned effective address.
    MisalignedLoad {
        /// pc of the load.
        pc: u32,
        /// The unaligned effective address.
        addr: u32,
    },
    /// A halfword/word store to an unaligned effective address.
    MisalignedStore {
        /// pc of the store.
        pc: u32,
        /// The unaligned effective address.
        addr: u32,
    },
}

/// Resolved outcome of a control-transfer instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecBranch {
    /// Whether the transfer redirected the pc (always true for jumps).
    pub taken: bool,
    /// The destination pc (next sequential pc for a not-taken branch).
    pub target: u32,
}

/// One retired instruction, as observed by the trace adapter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// pc the instruction was fetched from.
    pub pc: u32,
    /// The decoded instruction.
    pub instr: Instr,
    /// Effective address, for loads and stores.
    pub mem_addr: Option<u32>,
    /// Control-flow outcome, for branches and jumps.
    pub branch: Option<ExecBranch>,
}

/// A text word decoded once: the instruction and the static fields of its
/// trace record, held in its page's decoded table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decoded {
    pub(crate) instr: Instr,
    pub(crate) template: Template,
}

impl Decoded {
    /// Decodes `word`, or `None` if it is not a legal instruction.
    pub(crate) fn new(word: u32) -> Option<Self> {
        let instr = Instr::decode(word)?;
        Some(Self {
            instr,
            template: Template::of(instr),
        })
    }
}

/// The architectural state: 32 integer registers, pc, memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cpu {
    regs: [u32; 32],
    pc: u32,
    mem: SparseMemory,
    retired: u64,
}

impl Cpu {
    /// A CPU with all registers zero, executing from `pc` over `mem`.
    #[must_use]
    pub fn new(pc: u32, mem: SparseMemory) -> Self {
        Self {
            regs: [0; 32],
            pc,
            mem,
            retired: 0,
        }
    }

    /// Current pc.
    #[must_use]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Reads register `x<idx>`; `x0` is always zero.
    #[must_use]
    pub fn reg(&self, idx: u8) -> u32 {
        self.regs[(idx & 0x1f) as usize]
    }

    /// Writes register `x<idx>`; writes to `x0` are discarded.
    pub fn set_reg(&mut self, idx: u8, value: u32) {
        let idx = (idx & 0x1f) as usize;
        if idx != 0 {
            self.regs[idx] = value;
        }
    }

    /// Number of instructions retired so far.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// The memory image (e.g. for checking kernel results).
    #[must_use]
    pub fn mem(&self) -> &SparseMemory {
        &self.mem
    }

    /// Mutable memory access (for loading programs and seeding data). A
    /// write through it drops its page's decoded instructions exactly like
    /// a store the interpreter executes.
    pub fn mem_mut(&mut self) -> &mut SparseMemory {
        &mut self.mem
    }

    /// Executes one instruction. On success the pc has advanced and the
    /// retired record describes what happened; on a trap the architectural
    /// state is left at the faulting instruction.
    pub fn step(&mut self) -> Result<Retired, Trap> {
        self.step_traced().map(|(retired, _)| retired)
    }

    /// [`Self::step`], also returning the retired instruction's trace
    /// template from its decoded slot.
    #[inline]
    pub(crate) fn step_traced(&mut self) -> Result<(Retired, Template), Trap> {
        let pc = self.pc;
        if pc & 0x3 != 0 {
            return Err(Trap::MisalignedFetch { pc });
        }
        let Some(Decoded { instr, template }) = self.mem.fetch(pc) else {
            let word = self.mem.load_u32(pc);
            return Err(Trap::IllegalInstruction { pc, word });
        };
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
                // Per spec: target = (rs1 + offset) with bit 0 cleared.
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
        let retired = Retired {
            pc,
            instr,
            mem_addr,
            branch,
        };
        Ok((retired, template))
    }
}

#[inline]
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

/// M-extension semantics, including the spec-mandated results for division
/// by zero (quotient all-ones, remainder = dividend) and signed overflow
/// (`i32::MIN / -1` → quotient `i32::MIN`, remainder 0).
#[inline]
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, BranchOp, Instr, LoadOp, MulOp, StoreOp};

    const BASE: u32 = 0x1000;

    /// Loads `program` at `BASE` and returns a CPU ready to run it.
    fn cpu_with(program: &[Instr]) -> Cpu {
        let mut mem = SparseMemory::new();
        for (i, instr) in program.iter().enumerate() {
            mem.store_u32(BASE + 4 * i as u32, instr.encode());
        }
        Cpu::new(BASE, mem)
    }

    /// Runs a single instruction with x1=`a`, x2=`b`, returning x3.
    fn run_binop(instr: Instr, a: u32, b: u32) -> u32 {
        let mut cpu = cpu_with(&[instr]);
        cpu.set_reg(1, a);
        cpu.set_reg(2, b);
        cpu.step().expect("binop must retire");
        cpu.reg(3)
    }

    fn alu_rrr(op: AluOp) -> Instr {
        Instr::Alu {
            op,
            rd: 3,
            rs1: 1,
            rs2: 2,
        }
    }

    fn mul_rrr(op: MulOp) -> Instr {
        Instr::MulDiv {
            op,
            rd: 3,
            rs1: 1,
            rs2: 2,
        }
    }

    #[test]
    fn alu_register_semantics() {
        assert_eq!(run_binop(alu_rrr(AluOp::Add), 7, 8), 15);
        assert_eq!(run_binop(alu_rrr(AluOp::Add), u32::MAX, 1), 0); // wraps
        assert_eq!(run_binop(alu_rrr(AluOp::Sub), 5, 7), (-2i32) as u32);
        assert_eq!(run_binop(alu_rrr(AluOp::Sll), 1, 31), 0x8000_0000);
        assert_eq!(run_binop(alu_rrr(AluOp::Sll), 1, 32), 1); // shamt masked to 5 bits
        assert_eq!(run_binop(alu_rrr(AluOp::Slt), (-1i32) as u32, 0), 1);
        assert_eq!(run_binop(alu_rrr(AluOp::Sltu), (-1i32) as u32, 0), 0);
        assert_eq!(run_binop(alu_rrr(AluOp::Xor), 0b1100, 0b1010), 0b0110);
        assert_eq!(run_binop(alu_rrr(AluOp::Srl), 0x8000_0000, 1), 0x4000_0000);
        assert_eq!(run_binop(alu_rrr(AluOp::Sra), 0x8000_0000, 1), 0xc000_0000);
        assert_eq!(run_binop(alu_rrr(AluOp::Or), 0b1100, 0b1010), 0b1110);
        assert_eq!(run_binop(alu_rrr(AluOp::And), 0b1100, 0b1010), 0b1000);
    }

    #[test]
    fn alu_immediate_semantics() {
        let addi = |imm| Instr::AluImm {
            op: AluOp::Add,
            rd: 3,
            rs1: 1,
            imm,
        };
        assert_eq!(run_binop(addi(-2048), 2048, 0), 0);
        assert_eq!(run_binop(addi(2047), 1, 0), 2048);
        let srai = Instr::AluImm {
            op: AluOp::Sra,
            rd: 3,
            rs1: 1,
            imm: 4,
        };
        assert_eq!(run_binop(srai, 0x8000_0000, 0), 0xf800_0000);
        let slti = Instr::AluImm {
            op: AluOp::Slt,
            rd: 3,
            rs1: 1,
            imm: -1,
        };
        assert_eq!(run_binop(slti, (-2i32) as u32, 0), 1);
        let sltiu = Instr::AluImm {
            op: AluOp::Sltu,
            rd: 3,
            rs1: 1,
            imm: -1, // compares against 0xffff_ffff unsigned
        };
        assert_eq!(run_binop(sltiu, 5, 0), 1);
    }

    #[test]
    fn multiply_semantics() {
        assert_eq!(run_binop(mul_rrr(MulOp::Mul), 7, 6), 42);
        assert_eq!(
            run_binop(mul_rrr(MulOp::Mul), 0x8000_0000, 2),
            0 // low 32 bits only
        );
        // (-1) * (-1): high word is 0 signed.
        assert_eq!(run_binop(mul_rrr(MulOp::Mulh), u32::MAX, u32::MAX), 0);
        // 0xffff_ffff * 0xffff_ffff unsigned = 0xffff_fffe_0000_0001.
        assert_eq!(
            run_binop(mul_rrr(MulOp::Mulhu), u32::MAX, u32::MAX),
            0xffff_fffe
        );
        // (-1 signed) * (0xffff_ffff unsigned) = -0xffff_ffff; high word -1.
        assert_eq!(
            run_binop(mul_rrr(MulOp::Mulhsu), u32::MAX, u32::MAX),
            u32::MAX
        );
        assert_eq!(run_binop(mul_rrr(MulOp::Mulh), 0x8000_0000, 0x8000_0000), 0x4000_0000);
    }

    #[test]
    fn divide_by_zero_follows_the_spec() {
        assert_eq!(run_binop(mul_rrr(MulOp::Div), 17, 0), u32::MAX);
        assert_eq!(run_binop(mul_rrr(MulOp::Divu), 17, 0), u32::MAX);
        assert_eq!(run_binop(mul_rrr(MulOp::Rem), 17, 0), 17);
        assert_eq!(run_binop(mul_rrr(MulOp::Remu), 17, 0), 17);
        assert_eq!(
            run_binop(mul_rrr(MulOp::Rem), (-17i32) as u32, 0),
            (-17i32) as u32
        );
    }

    #[test]
    fn signed_division_overflow_follows_the_spec() {
        let min = i32::MIN as u32;
        let neg1 = (-1i32) as u32;
        assert_eq!(run_binop(mul_rrr(MulOp::Div), min, neg1), min);
        assert_eq!(run_binop(mul_rrr(MulOp::Rem), min, neg1), 0);
        // Unsigned interpretation of the same bits is ordinary division.
        assert_eq!(run_binop(mul_rrr(MulOp::Divu), min, neg1), 0);
        assert_eq!(run_binop(mul_rrr(MulOp::Remu), min, neg1), min);
    }

    #[test]
    fn signed_division_rounds_toward_zero() {
        assert_eq!(run_binop(mul_rrr(MulOp::Div), (-7i32) as u32, 2), (-3i32) as u32);
        assert_eq!(run_binop(mul_rrr(MulOp::Rem), (-7i32) as u32, 2), (-1i32) as u32);
        assert_eq!(run_binop(mul_rrr(MulOp::Div), 7, (-2i32) as u32), (-3i32) as u32);
        assert_eq!(run_binop(mul_rrr(MulOp::Rem), 7, (-2i32) as u32), 1);
    }

    #[test]
    fn lui_and_auipc() {
        let mut cpu = cpu_with(&[
            Instr::Lui { rd: 1, imm: 0xabcd_e000 },
            Instr::Auipc { rd: 2, imm: 0x0000_1000 },
        ]);
        cpu.step().expect("lui");
        cpu.step().expect("auipc");
        assert_eq!(cpu.reg(1), 0xabcd_e000);
        assert_eq!(cpu.reg(2), BASE + 4 + 0x1000);
    }

    #[test]
    fn loads_extend_correctly() {
        let mut cpu = cpu_with(&[
            Instr::Load { op: LoadOp::Lb, rd: 3, rs1: 1, offset: 0 },
            Instr::Load { op: LoadOp::Lbu, rd: 4, rs1: 1, offset: 0 },
            Instr::Load { op: LoadOp::Lh, rd: 5, rs1: 1, offset: 0 },
            Instr::Load { op: LoadOp::Lhu, rd: 6, rs1: 1, offset: 0 },
            Instr::Load { op: LoadOp::Lw, rd: 7, rs1: 1, offset: 0 },
        ]);
        cpu.mem_mut().store_u32(0x2000, 0xffff_ff80);
        cpu.set_reg(1, 0x2000);
        for _ in 0..5 {
            cpu.step().expect("load");
        }
        assert_eq!(cpu.reg(3), 0xffff_ff80); // lb sign-extends 0x80
        assert_eq!(cpu.reg(4), 0x0000_0080); // lbu zero-extends
        assert_eq!(cpu.reg(5), 0xffff_ff80); // lh sign-extends 0xff80
        assert_eq!(cpu.reg(6), 0x0000_ff80); // lhu zero-extends
        assert_eq!(cpu.reg(7), 0xffff_ff80);
    }

    #[test]
    fn stores_write_the_right_width() {
        let mut cpu = cpu_with(&[
            Instr::Store { op: StoreOp::Sw, rs1: 1, rs2: 2, offset: 0 },
            Instr::Store { op: StoreOp::Sb, rs1: 1, rs2: 3, offset: 0 },
            Instr::Store { op: StoreOp::Sh, rs1: 1, rs2: 3, offset: 4 },
        ]);
        cpu.set_reg(1, 0x3000);
        cpu.set_reg(2, 0x1122_3344);
        cpu.set_reg(3, 0xaabb_ccdd);
        let r = cpu.step().expect("sw");
        assert_eq!(r.mem_addr, Some(0x3000));
        cpu.step().expect("sb");
        cpu.step().expect("sh");
        assert_eq!(cpu.mem().load_u32(0x3000), 0x1122_33dd); // sb overwrote low byte
        assert_eq!(cpu.mem().load_u16(0x3004), 0xccdd);
    }

    #[test]
    fn conditional_branches_resolve_both_ways() {
        for (op, a, b, expect_taken) in [
            (BranchOp::Beq, 5u32, 5u32, true),
            (BranchOp::Beq, 5, 6, false),
            (BranchOp::Bne, 5, 6, true),
            (BranchOp::Blt, (-1i32) as u32, 0, true),
            (BranchOp::Bltu, (-1i32) as u32, 0, false),
            (BranchOp::Bge, 0, (-1i32) as u32, true),
            (BranchOp::Bgeu, 0, (-1i32) as u32, false),
        ] {
            let mut cpu = cpu_with(&[Instr::Branch { op, rs1: 1, rs2: 2, offset: 16 }]);
            cpu.set_reg(1, a);
            cpu.set_reg(2, b);
            let r = cpu.step().expect("branch");
            let br = r.branch.expect("branch outcome");
            assert_eq!(br.taken, expect_taken, "{op:?} {a} {b}");
            let expect_pc = if expect_taken { BASE + 16 } else { BASE + 4 };
            assert_eq!(br.target, expect_pc);
            assert_eq!(cpu.pc(), expect_pc);
        }
    }

    #[test]
    fn jal_links_and_jumps() {
        let mut cpu = cpu_with(&[Instr::Jal { rd: 1, offset: 64 }]);
        let r = cpu.step().expect("jal");
        assert_eq!(cpu.reg(1), BASE + 4);
        assert_eq!(cpu.pc(), BASE + 64);
        assert_eq!(r.branch, Some(ExecBranch { taken: true, target: BASE + 64 }));
    }

    #[test]
    fn jalr_clears_bit_zero_and_links() {
        let mut cpu = cpu_with(&[Instr::Jalr { rd: 1, rs1: 2, offset: 1 }]);
        cpu.set_reg(2, 0x5000);
        cpu.step().expect("jalr");
        assert_eq!(cpu.pc(), 0x5000); // 0x5001 with bit 0 cleared
        assert_eq!(cpu.reg(1), BASE + 4);
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let mut cpu = cpu_with(&[Instr::AluImm { op: AluOp::Add, rd: 0, rs1: 0, imm: 99 }]);
        cpu.step().expect("addi x0");
        assert_eq!(cpu.reg(0), 0);
    }

    #[test]
    fn traps_preserve_state() {
        let mut cpu = cpu_with(&[Instr::Ebreak]);
        assert_eq!(cpu.step(), Err(Trap::Halt { pc: BASE }));
        assert_eq!(cpu.pc(), BASE); // pc not advanced past the ebreak
        assert_eq!(cpu.retired(), 0);

        let mut cpu = Cpu::new(0x4000, SparseMemory::new());
        assert_eq!(
            cpu.step(),
            Err(Trap::IllegalInstruction { pc: 0x4000, word: 0 })
        );

        let mut cpu = cpu_with(&[Instr::Load { op: LoadOp::Lw, rd: 3, rs1: 1, offset: 2 }]);
        cpu.set_reg(1, 0x2000);
        assert_eq!(
            cpu.step(),
            Err(Trap::MisalignedLoad { pc: BASE, addr: 0x2002 })
        );

        let mut cpu = cpu_with(&[Instr::Store { op: StoreOp::Sh, rs1: 1, rs2: 2, offset: 1 }]);
        cpu.set_reg(1, 0x2000);
        assert_eq!(
            cpu.step(),
            Err(Trap::MisalignedStore { pc: BASE, addr: 0x2001 })
        );

        let mut cpu = Cpu::new(0x4002, SparseMemory::new());
        assert_eq!(cpu.step(), Err(Trap::MisalignedFetch { pc: 0x4002 }));
    }

    #[test]
    fn retired_counts_instructions() {
        let mut cpu = cpu_with(&[
            Instr::AluImm { op: AluOp::Add, rd: 1, rs1: 0, imm: 1 },
            Instr::AluImm { op: AluOp::Add, rd: 1, rs1: 1, imm: 1 },
        ]);
        cpu.step().expect("first");
        cpu.step().expect("second");
        assert_eq!(cpu.retired(), 2);
        assert_eq!(cpu.reg(1), 2);
    }
}
