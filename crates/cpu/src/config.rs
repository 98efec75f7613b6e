//! Processor configuration (Table II of the paper).

use std::fmt;

use crate::instruction::OpClass;

/// Why a [`CpuConfig`] cannot run a trace: a core built from it could stall
/// forever on some instruction. [`CpuConfig::validate`] reports the first
/// problem, and both cores refuse such a configuration when they are built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuConfigError {
    /// A pipeline width (fetch, decode, issue or commit) is zero.
    ZeroWidth(&'static str),
    /// A buffer (reorder buffer, an issue queue or the load/store queue) has
    /// no entries.
    NoEntries(&'static str),
    /// No functional unit executes this operation class.
    NoUnit(OpClass),
    /// The gshare history length is outside `1..=24` bits.
    HistoryBits(u32),
}

impl fmt::Display for CpuConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroWidth(stage) => write!(f, "the {stage} width is zero"),
            Self::NoEntries(buffer) => write!(f, "the {buffer} has no entries"),
            Self::NoUnit(op) => write!(f, "no functional unit executes {op:?} ops"),
            Self::HistoryBits(bits) => {
                write!(f, "gshare history must be 1 to 24 bits, got {bits}")
            }
        }
    }
}

impl std::error::Error for CpuConfigError {}

/// Structural parameters of the out-of-order core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// Instructions fetched per cycle (4 in the paper).
    pub fetch_width: u32,
    /// Instructions decoded/dispatched per cycle (4).
    pub decode_width: u32,
    /// Instructions issued to functional units per cycle (6).
    pub issue_width: u32,
    /// Instructions committed per cycle (4).
    pub commit_width: u32,
    /// Reorder-buffer entries (128).
    pub rob_entries: usize,
    /// Integer issue-queue entries (40).
    pub int_iq_entries: usize,
    /// Floating-point issue-queue entries (20).
    pub fp_iq_entries: usize,
    /// Load/store-queue entries.
    pub lsq_entries: usize,
    /// Integer ALUs (4).
    pub int_alus: u32,
    /// Integer multiplier/dividers (4).
    pub int_muls: u32,
    /// Floating-point ALUs (1).
    pub fp_alus: u32,
    /// Floating-point multiplier/dividers (1).
    pub fp_muls: u32,
    /// Data-cache ports (loads/stores issued per cycle).
    pub mem_ports: u32,
    /// Cycles from fetch to dispatch (front-end depth); together with execution this
    /// yields the ~15-stage pipeline of the paper and sets the branch-misprediction
    /// refill penalty.
    pub front_end_depth: u32,
    /// Return-address-stack entries (16).
    pub ras_entries: usize,
    /// log2 of gshare pattern-history-table entries (15 bits of history → 32K
    /// two-bit counters ≈ 8 KB).
    pub gshare_history_bits: u32,
}

impl CpuConfig {
    /// The configuration of Table II of the paper (Alpha-21264-like core).
    #[must_use]
    pub fn ispass2010() -> Self {
        Self {
            fetch_width: 4,
            decode_width: 4,
            issue_width: 6,
            commit_width: 4,
            rob_entries: 128,
            int_iq_entries: 40,
            fp_iq_entries: 20,
            lsq_entries: 64,
            int_alus: 4,
            int_muls: 4,
            fp_alus: 1,
            fp_muls: 1,
            mem_ports: 2,
            front_end_depth: 10,
            ras_entries: 16,
            gshare_history_bits: 15,
        }
    }

    /// Execution latency of an operation class, excluding any memory latency.
    #[must_use]
    pub fn exec_latency(&self, op: OpClass) -> u32 {
        match op {
            OpClass::IntAlu | OpClass::Branch | OpClass::Store => 1,
            OpClass::Load => 1,
            OpClass::IntMul => 7,
            OpClass::FpAlu => 4,
            OpClass::FpMul => 4,
        }
    }

    /// Number of functional units able to execute the operation class.
    #[must_use]
    pub fn units_for(&self, op: OpClass) -> u32 {
        match op {
            OpClass::IntAlu | OpClass::Branch => self.int_alus,
            OpClass::IntMul => self.int_muls,
            OpClass::FpAlu => self.fp_alus,
            OpClass::FpMul => self.fp_muls,
            OpClass::Load | OpClass::Store => self.mem_ports,
        }
    }

    /// Checks that a core built from this configuration can run any trace:
    /// every width is non-zero, every buffer has an entry, every operation
    /// class has a functional unit and the gshare history length is one the
    /// predictor supports.
    ///
    /// # Errors
    ///
    /// The first of these that fails, as a [`CpuConfigError`].
    pub fn validate(&self) -> Result<(), CpuConfigError> {
        let widths = [
            ("fetch", self.fetch_width),
            ("decode", self.decode_width),
            ("issue", self.issue_width),
            ("commit", self.commit_width),
        ];
        if let Some((stage, _)) = widths.into_iter().find(|&(_, width)| width == 0) {
            return Err(CpuConfigError::ZeroWidth(stage));
        }
        let buffers = [
            ("reorder buffer", self.rob_entries),
            ("integer issue queue", self.int_iq_entries),
            ("floating-point issue queue", self.fp_iq_entries),
            ("load/store queue", self.lsq_entries),
        ];
        if let Some((buffer, _)) = buffers.into_iter().find(|&(_, entries)| entries == 0) {
            return Err(CpuConfigError::NoEntries(buffer));
        }
        if let Some(op) = OpClass::ALL.into_iter().find(|&op| self.units_for(op) == 0) {
            return Err(CpuConfigError::NoUnit(op));
        }
        if !(1..=24).contains(&self.gshare_history_bits) {
            return Err(CpuConfigError::HistoryBits(self.gshare_history_bits));
        }
        Ok(())
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self::ispass2010()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_matches_table_two() {
        let c = CpuConfig::ispass2010();
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.decode_width, 4);
        assert_eq!(c.issue_width, 6);
        assert_eq!(c.commit_width, 4);
        assert_eq!(c.rob_entries, 128);
        assert_eq!(c.int_iq_entries, 40);
        assert_eq!(c.fp_iq_entries, 20);
        assert_eq!(c.int_alus, 4);
        assert_eq!(c.fp_alus, 1);
        assert_eq!(c.ras_entries, 16);
        assert_eq!(c.gshare_history_bits, 15);
    }

    #[test]
    fn latencies_and_units_are_sensible() {
        let c = CpuConfig::ispass2010();
        assert_eq!(c.exec_latency(OpClass::IntAlu), 1);
        assert!(c.exec_latency(OpClass::IntMul) > c.exec_latency(OpClass::IntAlu));
        assert_eq!(c.units_for(OpClass::IntAlu), 4);
        assert_eq!(c.units_for(OpClass::FpMul), 1);
        assert_eq!(c.units_for(OpClass::Load), c.mem_ports);
    }

    #[test]
    fn validate_accepts_the_paper_and_names_the_first_problem() {
        let paper = CpuConfig::ispass2010();
        assert_eq!(paper.validate(), Ok(()));
        let cases = [
            (CpuConfig { issue_width: 0, ..paper }, CpuConfigError::ZeroWidth("issue")),
            (CpuConfig { rob_entries: 0, ..paper }, CpuConfigError::NoEntries("reorder buffer")),
            (CpuConfig { lsq_entries: 0, ..paper }, CpuConfigError::NoEntries("load/store queue")),
            (CpuConfig { fp_muls: 0, ..paper }, CpuConfigError::NoUnit(OpClass::FpMul)),
            (CpuConfig { mem_ports: 0, ..paper }, CpuConfigError::NoUnit(OpClass::Load)),
            (CpuConfig { gshare_history_bits: 0, ..paper }, CpuConfigError::HistoryBits(0)),
        ];
        for (config, error) in cases {
            assert_eq!(config.validate(), Err(error));
        }
        assert_eq!(
            CpuConfigError::NoUnit(OpClass::FpMul).to_string(),
            "no functional unit executes FpMul ops"
        );
    }

    #[test]
    fn default_is_the_paper_configuration() {
        assert_eq!(CpuConfig::default(), CpuConfig::ispass2010());
    }
}
