//! Trace instruction format consumed by the pipeline model.

/// An architectural register identifier.
///
/// Registers `0..32` are integer registers, `32..64` floating-point registers.
/// Register 31 (the Alpha zero register) is *not* special-cased here; workload
/// generators simply avoid using it as a dependence-carrying destination.
pub type Reg = u8;

/// Number of architectural registers tracked by the rename logic.
pub const NUM_REGS: usize = 64;

/// Operation class of a trace instruction, used for functional-unit selection and
/// execution latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer ALU operation (add, logical, shift, compare).
    IntAlu,
    /// Integer multiply / divide.
    IntMul,
    /// Floating-point add / compare / convert.
    FpAlu,
    /// Floating-point multiply / divide / sqrt.
    FpMul,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Control-flow instruction (conditional branch, jump, call, return).
    Branch,
}

impl OpClass {
    /// Every operation class.
    pub const ALL: [Self; 7] = [
        Self::IntAlu,
        Self::IntMul,
        Self::FpAlu,
        Self::FpMul,
        Self::Load,
        Self::Store,
        Self::Branch,
    ];

    /// Whether the operation executes in the floating-point cluster.
    #[must_use]
    pub fn is_fp(self) -> bool {
        matches!(self, Self::FpAlu | Self::FpMul)
    }

    /// Whether the operation accesses data memory.
    #[must_use]
    pub fn is_mem(self) -> bool {
        matches!(self, Self::Load | Self::Store)
    }
}

/// The kind of control-flow transfer a branch performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional branch (predicted by the gshare predictor).
    Conditional,
    /// Unconditional direct jump (always taken; no prediction needed).
    Jump,
    /// Function call (pushes the return address onto the RAS).
    Call,
    /// Function return (predicted by the RAS).
    Return,
}

/// Control-flow information attached to a branch instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// Kind of branch.
    pub kind: BranchKind,
    /// Whether the branch is actually taken in the trace.
    pub taken: bool,
    /// Target address when taken.
    pub target: u64,
}

/// One instruction of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceInstruction {
    /// Program counter of the instruction.
    pub pc: u64,
    /// Operation class.
    pub op: OpClass,
    /// Destination register, if the instruction produces a value.
    pub dest: Option<Reg>,
    /// Source registers (up to two).
    pub srcs: [Option<Reg>; 2],
    /// Effective address for loads and stores.
    pub mem_addr: Option<u64>,
    /// Branch information for control-flow instructions.
    pub branch: Option<BranchInfo>,
}

impl TraceInstruction {
    /// A register-to-register ALU-class instruction with no operands, useful for
    /// tests and micro-benchmarks.
    #[must_use]
    pub fn alu(pc: u64, op: OpClass) -> Self {
        Self {
            pc,
            op,
            dest: None,
            srcs: [None, None],
            mem_addr: None,
            branch: None,
        }
    }

    /// A load from `addr` into `dest`.
    #[must_use]
    pub fn load(pc: u64, addr: u64, dest: Reg) -> Self {
        Self {
            pc,
            op: OpClass::Load,
            dest: Some(dest),
            srcs: [None, None],
            mem_addr: Some(addr),
            branch: None,
        }
    }

    /// A store of `src` to `addr`.
    #[must_use]
    pub fn store(pc: u64, addr: u64, src: Reg) -> Self {
        Self {
            pc,
            op: OpClass::Store,
            dest: None,
            srcs: [Some(src), None],
            mem_addr: Some(addr),
            branch: None,
        }
    }

    /// A conditional branch at `pc` that is `taken` towards `target`.
    #[must_use]
    pub fn conditional_branch(pc: u64, taken: bool, target: u64) -> Self {
        Self {
            pc,
            op: OpClass::Branch,
            dest: None,
            srcs: [None, None],
            mem_addr: None,
            branch: Some(BranchInfo {
                kind: BranchKind::Conditional,
                taken,
                target,
            }),
        }
    }

    /// Builder-style: sets the destination register.
    #[must_use]
    pub fn with_dest(mut self, dest: Reg) -> Self {
        self.dest = Some(dest);
        self
    }

    /// Builder-style: sets the source registers.
    #[must_use]
    pub fn with_srcs(mut self, a: Option<Reg>, b: Option<Reg>) -> Self {
        self.srcs = [a, b];
        self
    }

    /// Whether the instruction is a memory operation.
    #[must_use]
    pub fn is_mem(&self) -> bool {
        self.op.is_mem()
    }

    /// Whether the instruction is a control-flow instruction.
    #[must_use]
    pub fn is_branch(&self) -> bool {
        self.op == OpClass::Branch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_populate_the_right_fields() {
        let l = TraceInstruction::load(0x100, 0x2000, 5);
        assert_eq!(l.op, OpClass::Load);
        assert_eq!(l.mem_addr, Some(0x2000));
        assert_eq!(l.dest, Some(5));
        assert!(l.is_mem());
        assert!(!l.is_branch());

        let s = TraceInstruction::store(0x104, 0x2000, 5);
        assert_eq!(s.op, OpClass::Store);
        assert_eq!(s.srcs[0], Some(5));
        assert!(s.is_mem());

        let b = TraceInstruction::conditional_branch(0x108, true, 0x200);
        assert!(b.is_branch());
        assert_eq!(b.branch.unwrap().kind, BranchKind::Conditional);
        assert!(b.branch.unwrap().taken);

        let a = TraceInstruction::alu(0x10c, OpClass::IntAlu)
            .with_dest(3)
            .with_srcs(Some(1), Some(2));
        assert_eq!(a.dest, Some(3));
        assert_eq!(a.srcs, [Some(1), Some(2)]);
    }

    #[test]
    fn op_class_properties() {
        assert!(OpClass::FpMul.is_fp());
        assert!(OpClass::FpAlu.is_fp());
        assert!(!OpClass::IntAlu.is_fp());
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::Branch.is_mem());
    }
}
