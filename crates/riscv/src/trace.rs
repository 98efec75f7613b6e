//! The adapter that turns executed RV32IM instructions into pipeline trace
//! records — the crate's reason to exist.
//!
//! [`RvTraceSource`] owns a [`Cpu`] running a looping kernel image and
//! implements `Iterator<Item = TraceInstruction>`, which gives it
//! `vccmin_cpu::TraceSource` through the blanket impl — exactly like the
//! synthetic `TraceGenerator`. Each retired instruction is translated
//! faithfully: real pc, real dest/src registers (honest dependence chains),
//! the real effective address for loads/stores, and the actually-executed
//! control-flow outcome for branches.
//!
//! The static half of a record (`OpClass`, registers, `BranchKind`) is the
//! word's trace template, computed once when the word is decoded and kept in
//! its decoded slot (see [`crate::cpu`]); a step fills in only the pc, the
//! effective address and the branch outcome.
//!
//! # `OpClass` translation
//!
//! The ISPASS-2010 pipeline model is configured for SPEC CPU2000 and has no
//! integer-divide functional unit, so the integer-only RV32IM stream maps
//! its long-latency operations onto the existing clusters:
//!
//! | RV32IM instruction                  | `OpClass` | rationale |
//! |-------------------------------------|-----------|-----------|
//! | `lb/lh/lw/lbu/lhu`                  | `Load`    | direct |
//! | `sb/sh/sw`                          | `Store`   | direct |
//! | `beq/bne/blt/bge/bltu/bgeu/jal/jalr`| `Branch`  | direct |
//! | `mul/mulh/mulhsu/mulhu`             | `IntMul`  | pipelined 7-cycle multiplier |
//! | `div/divu/rem/remu`                 | `FpMul`   | the model's scarce long-latency unit (one FP-mul port) stands in for a divider |
//! | everything else (`lui/auipc`, ALU)  | `IntAlu`  | single-cycle |
//!
//! # `BranchKind` translation
//!
//! Conditional branches are `Conditional` with the executed taken/target.
//! `jal` linking into `ra` (x1) is a `Call`; `jalr x0, 0(ra)` is a `Return`
//! (so the pipeline's return-address stack sees real call/return pairing);
//! `jalr` linking into `ra` is an indirect `Call`; all other `jal`/`jalr`
//! forms are computed `Jump`s.

use vccmin_cpu::{BranchInfo, BranchKind, OpClass, TraceInstruction};

use crate::cpu::{Cpu, Retired, Trap};
use crate::inst::Instr;
use crate::kernels::{RvKernel, WorkingSet};

/// Retired-instruction window over which the phase signal is recomputed.
pub const PHASE_EPOCH: u64 = 1024;
/// A window whose memory-operation share reaches this percentage is
/// classified as memory-bound. Calibrated between the kernels' streaming
/// fill loops (1 store per 6 instructions ≈ 17 %) and their cache-straddling
/// compute loops (≥ 2 memory ops per 8 instructions = 25 %).
pub const MEMORY_BOUND_PCT: u64 = 20;

/// ABI link register (`ra`).
const REG_RA: u8 = 1;

/// A `TraceSource` producing the instruction stream of a running kernel.
///
/// Each record is the template from the retired word's decoded slot plus
/// the step's pc, address and branch outcome. The stream and
/// [`Self::memory_bound`] are exactly those of applying [`translate`] to
/// every [`Cpu::step`]: the template is what `translate` derives from the
/// instruction, decoding is a pure function of the word, and every store to
/// a page drops that page's decoded slots.
#[derive(Debug, Clone)]
pub struct RvTraceSource {
    cpu: Cpu,
    kernel: RvKernel,
    /// Set when the kernel trapped; the stream ends and the trap is kept
    /// for diagnostics (looping kernels never trap — this would be a bug).
    trap: Option<Trap>,
    /// Retired instructions in the current phase window.
    epoch_total: u64,
    /// Memory operations in the current phase window.
    epoch_mem: u64,
    /// Phase classification of the most recently completed window.
    memory_bound: bool,
}

impl RvTraceSource {
    /// A trace source over `kernel` at the default (`Large`) working set.
    /// The 64-bit `seed` parameterizes the kernel's data, exactly like a
    /// synthetic profile's trace seed.
    #[must_use]
    pub fn new(kernel: RvKernel, seed: u64) -> Self {
        Self::with_working_set(kernel, seed, WorkingSet::default())
    }

    /// A trace source with an explicit working-set size class.
    #[must_use]
    pub fn with_working_set(kernel: RvKernel, seed: u64, ws: WorkingSet) -> Self {
        Self::from_cpu(kernel, kernel.image_with(seed, ws, true).into_cpu())
    }

    /// A trace source that runs `cpu` from its current state: a kernel
    /// image whose registers or memory were changed by hand, or any program
    /// loaded with the [`Assembler`](crate::asm::Assembler). `kernel` is
    /// only what [`Self::kernel`] reports.
    #[must_use]
    pub fn from_cpu(kernel: RvKernel, cpu: Cpu) -> Self {
        Self {
            cpu,
            kernel,
            trap: None,
            epoch_total: 0,
            epoch_mem: 0,
            memory_bound: false,
        }
    }

    /// The kernel this source executes.
    #[must_use]
    pub fn kernel(&self) -> RvKernel {
        self.kernel
    }

    /// Total instructions retired by the underlying interpreter.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.cpu.retired()
    }

    /// The trap that ended the stream, if any (always `None` for the
    /// shipped looping kernels).
    #[must_use]
    pub fn trap(&self) -> Option<Trap> {
        self.trap
    }

    /// Whether the most recent [`PHASE_EPOCH`]-instruction window was
    /// memory-bound — the honest, data-dependent analogue of the synthetic
    /// generator's scripted phase schedule, consumed by the governor.
    #[must_use]
    pub fn memory_bound(&self) -> bool {
        self.memory_bound
    }

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

impl Iterator for RvTraceSource {
    type Item = TraceInstruction;

    fn next(&mut self) -> Option<TraceInstruction> {
        if self.trap.is_some() {
            return None;
        }
        match self.cpu.step_traced() {
            Ok((retired, template)) => {
                self.account_phase(matches!(template.op, OpClass::Load | OpClass::Store));
                Some(template.fill(&retired))
            }
            Err(trap) => {
                self.trap = Some(trap);
                None
            }
        }
    }
}

/// x0 reads as the hardwired zero constant, so it creates no dependence.
fn reg(r: u8) -> Option<u8> {
    (r != 0).then_some(r)
}

/// Translates one retired instruction into the pipeline's trace record.
#[must_use]
pub fn translate(retired: &Retired) -> TraceInstruction {
    Template::of(retired.instr).fill(retired)
}

/// The static fields of an instruction's trace record: a pure function of
/// the instruction, computed once per decoded word and kept in its slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Template {
    op: OpClass,
    dest: Option<u8>,
    srcs: [Option<u8>; 2],
    /// Used only if the instruction transfers control.
    kind: BranchKind,
}

impl Template {
    pub(crate) fn of(instr: Instr) -> Self {
        let (op, dest, srcs) = classify(instr);
        Self {
            op,
            dest,
            srcs,
            kind: branch_kind(instr),
        }
    }

    /// The trace record of `retired`, an execution of this template's
    /// instruction: the template plus the pc, address and branch outcome.
    #[inline]
    fn fill(self, retired: &Retired) -> TraceInstruction {
        TraceInstruction {
            pc: u64::from(retired.pc),
            op: self.op,
            dest: self.dest,
            srcs: self.srcs,
            mem_addr: retired.mem_addr.map(u64::from),
            branch: retired.branch.map(|b| BranchInfo {
                kind: self.kind,
                taken: b.taken,
                target: u64::from(b.target),
            }),
        }
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
            use crate::inst::MulOp;
            let class = match op {
                MulOp::Mul | MulOp::Mulh | MulOp::Mulhsu | MulOp::Mulhu => OpClass::IntMul,
                // No integer divider in the ISPASS-2010 model: the scarce
                // long-latency FP-mul unit stands in (see module docs).
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
        // Only control-transfer instructions carry branch outcomes.
        _ => BranchKind::Jump,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vccmin_cpu::TraceSource;

    #[test]
    fn two_sources_produce_identical_streams() {
        for kernel in RvKernel::ALL {
            let mut a = RvTraceSource::new(kernel, 2010);
            let mut b = RvTraceSource::new(kernel, 2010);
            for i in 0..10_000 {
                assert_eq!(
                    a.next_instruction(),
                    b.next_instruction(),
                    "{kernel} diverged at instruction {i}"
                );
            }
        }
    }

    #[test]
    fn streams_depend_on_the_seed() {
        // The fill-loop prefix is data-independent (same pcs and registers
        // for any seed); read far enough to reach the data-dependent sort.
        let take = 60_000;
        let a: Vec<_> = RvTraceSource::with_working_set(RvKernel::Quicksort, 1, WorkingSet::Small)
            .take(take)
            .collect();
        let b: Vec<_> = RvTraceSource::with_working_set(RvKernel::Quicksort, 2, WorkingSet::Small)
            .take(take)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn looping_kernels_never_run_dry() {
        for kernel in RvKernel::ALL {
            let mut src = RvTraceSource::with_working_set(kernel, 7, WorkingSet::Small);
            for _ in 0..50_000 {
                assert!(src.next_instruction().is_some(), "{kernel} ran dry");
            }
            assert_eq!(src.trap(), None);
            assert_eq!(src.retired(), 50_000);
        }
    }

    #[test]
    fn every_op_class_appears_in_the_matmul_stream() {
        let mut seen = std::collections::BTreeSet::new();
        let src = RvTraceSource::new(RvKernel::Matmul, 3);
        for instr in src.take(200_000) {
            seen.insert(format!("{:?}", instr.op));
        }
        for class in ["IntAlu", "IntMul", "FpMul", "Load", "Store", "Branch"] {
            assert!(seen.contains(class), "missing {class}");
        }
    }

    #[test]
    fn calls_and_returns_pair_up_in_quicksort() {
        let src = RvTraceSource::new(RvKernel::Quicksort, 5);
        let mut calls = 0u64;
        let mut returns = 0u64;
        for instr in src.take(400_000) {
            match instr.branch.map(|b| b.kind) {
                Some(BranchKind::Call) => calls += 1,
                Some(BranchKind::Return) => returns += 1,
                _ => {}
            }
        }
        assert!(calls > 100, "quicksort must make calls (saw {calls})");
        // Every ret pops a prior call; allow the in-flight recursion delta.
        assert!(returns > 0 && returns <= calls);
    }

    #[test]
    fn memory_addresses_and_registers_are_real() {
        let src = RvTraceSource::new(RvKernel::HashJoin, 11);
        let mut saw_data_access = false;
        for instr in src.take(100_000) {
            if let Some(addr) = instr.mem_addr {
                assert!(matches!(instr.op, OpClass::Load | OpClass::Store));
                if (0x0010_0000..0x0800_0000).contains(&addr) {
                    saw_data_access = true;
                }
                if instr.op == OpClass::Store {
                    // Stores carry base + value registers, no dest.
                    assert!(instr.dest.is_none());
                }
            }
        }
        assert!(saw_data_access, "no access to the data region seen");
    }

    #[test]
    fn phase_signal_toggles_between_fill_and_compute() {
        // Matmul alternates a store-heavy fill with a load/mul compute loop;
        // the epoch classifier must see both phases.
        let mut src = RvTraceSource::new(RvKernel::Matmul, 13);
        let mut seen = [false, false];
        for _ in 0..2_000_000 {
            if src.next_instruction().is_none() {
                break;
            }
            seen[usize::from(src.memory_bound())] = true;
            if seen[0] && seen[1] {
                return;
            }
        }
        panic!("phase signal never toggled: {seen:?}");
    }
}
