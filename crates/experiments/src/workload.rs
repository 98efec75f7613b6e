//! The campaign workload axis: synthetic SPEC CPU2000 profiles *or* real
//! RISC-V kernels, behind one type.
//!
//! Every experiment in this crate is parameterized by a list of
//! [`Workload`]s. A `Synthetic` workload drives the statistical
//! [`TraceGenerator`] exactly as before (trace seeds fork off the same
//! per-name label, so all pinned goldens are unchanged); a `Riscv` workload
//! executes a real kernel on the RV32IM interpreter and feeds its retired
//! instruction stream into the identical pipeline interface. On the CLI the
//! two spell as `gzip` and `riscv:matmul`.

use vccmin_cpu::TraceInstruction;
use vccmin_riscv::{RvKernel, RvTraceSource};
use vccmin_workloads::{Benchmark, PhaseSchedule, Suite, TraceGenerator, WorkloadPhase};

/// Name prefix selecting a RISC-V kernel workload.
pub const RISCV_PREFIX: &str = "riscv:";

/// One workload a campaign can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Workload {
    /// A synthetic SPEC CPU2000 profile driving the statistical generator.
    Synthetic(Benchmark),
    /// A real kernel executed on the RV32IM interpreter.
    Riscv(RvKernel),
}

impl From<Benchmark> for Workload {
    fn from(benchmark: Benchmark) -> Self {
        Self::Synthetic(benchmark)
    }
}

impl From<RvKernel> for Workload {
    fn from(kernel: RvKernel) -> Self {
        Self::Riscv(kernel)
    }
}

impl Workload {
    /// Canonical name: the bare benchmark name (`gzip`) or the prefixed
    /// kernel name (`riscv:matmul`). Synthetic names are byte-identical to
    /// [`Benchmark::name`], so seed forking (and therefore every pinned
    /// golden) is unchanged by the introduction of this type.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Synthetic(b) => b.name(),
            Self::Riscv(RvKernel::Matmul) => "riscv:matmul",
            Self::Riscv(RvKernel::Quicksort) => "riscv:qsort",
            Self::Riscv(RvKernel::HashJoin) => "riscv:hashjoin",
            Self::Riscv(RvKernel::Compress) => "riscv:compress",
        }
    }

    /// Parses a workload name as printed by [`Self::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        if let Some(kernel) = name.strip_prefix(RISCV_PREFIX) {
            return RvKernel::parse(kernel).map(Self::Riscv);
        }
        Benchmark::all()
            .into_iter()
            .find(|b| b.name() == name)
            .map(Self::Synthetic)
    }

    /// One-line description for `--list-workloads`.
    #[must_use]
    pub fn description(self) -> String {
        match self {
            Self::Synthetic(b) => {
                let p = b.profile();
                let suite = match p.suite {
                    Suite::Int => "SPECint",
                    Suite::Fp => "SPECfp",
                };
                format!(
                    "synthetic {suite} profile, {:.0}% loads / {:.0}% stores, {} KiB working set",
                    p.load_fraction * 100.0,
                    p.store_fraction * 100.0,
                    p.data_working_set_bytes / 1024,
                )
            }
            Self::Riscv(k) => format!("RV32IM kernel: {}", k.description()),
        }
    }

    /// All 26 synthetic benchmarks, in canonical order.
    #[must_use]
    pub fn all_synthetic() -> Vec<Self> {
        Benchmark::all().into_iter().map(Self::Synthetic).collect()
    }

    /// All RISC-V kernels, in canonical order.
    #[must_use]
    pub fn all_riscv() -> Vec<Self> {
        RvKernel::ALL.into_iter().map(Self::Riscv).collect()
    }

    /// Every available workload: synthetic benchmarks then RISC-V kernels.
    #[must_use]
    pub fn all() -> Vec<Self> {
        let mut out = Self::all_synthetic();
        out.extend(Self::all_riscv());
        out
    }

    /// A trace source for this workload with the given trace seed.
    #[must_use]
    pub fn source(self, seed: u64) -> WorkloadSource {
        self.source_with_phases(seed, None)
    }

    /// A trace source with an optional scripted phase schedule. The schedule
    /// only applies to synthetic workloads — a RISC-V kernel's phase behavior
    /// is an emergent property of its actual memory accesses, which is the
    /// point of running it; its [`WorkloadSource::current_phase`] reports the
    /// observed (not scripted) phase.
    #[must_use]
    pub fn source_with_phases(self, seed: u64, phases: Option<&PhaseSchedule>) -> WorkloadSource {
        match self {
            Self::Synthetic(b) => {
                let profile = b.profile();
                let generator = match phases {
                    Some(schedule) => TraceGenerator::with_phases(&profile, seed, schedule.clone()),
                    None => TraceGenerator::new(&profile, seed),
                };
                WorkloadSource::Synthetic(generator)
            }
            Self::Riscv(k) => WorkloadSource::Riscv(RvTraceSource::new(k, seed)),
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A running trace source for either workload kind. Implements
/// `Iterator<Item = TraceInstruction>`, and therefore `TraceSource`, so the
/// pipeline consumes both identically.
#[derive(Debug, Clone)]
pub enum WorkloadSource {
    /// The statistical generator.
    Synthetic(TraceGenerator),
    /// The RV32IM interpreter adapter.
    Riscv(RvTraceSource),
}

impl WorkloadSource {
    /// The workload phase at the current stream position: the scripted
    /// schedule position for a synthetic source, the observed
    /// memory-boundedness of the last epoch for a RISC-V source.
    #[must_use]
    pub fn current_phase(&self) -> WorkloadPhase {
        match self {
            Self::Synthetic(g) => g.current_phase(),
            Self::Riscv(r) => {
                if r.memory_bound() {
                    WorkloadPhase::MemoryBound
                } else {
                    WorkloadPhase::ComputeBound
                }
            }
        }
    }
}

impl Iterator for WorkloadSource {
    type Item = TraceInstruction;

    fn next(&mut self) -> Option<TraceInstruction> {
        match self {
            Self::Synthetic(g) => g.next(),
            Self::Riscv(r) => r.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for workload in Workload::all() {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("riscv:nope"), None);
        assert_eq!(Workload::parse("not-a-benchmark"), None);
    }

    #[test]
    fn synthetic_names_match_the_underlying_benchmark() {
        // Trace seeds fork off the workload name; synthetic names must stay
        // byte-identical to Benchmark::name() or every golden shifts.
        for b in Benchmark::all() {
            assert_eq!(Workload::from(b).name(), b.name());
        }
    }

    #[test]
    fn all_lists_synthetic_then_riscv() {
        let all = Workload::all();
        assert_eq!(all.len(), 26 + 4);
        assert!(all[..26].iter().all(|w| matches!(w, Workload::Synthetic(_))));
        assert!(all[26..].iter().all(|w| matches!(w, Workload::Riscv(_))));
    }

    #[test]
    fn sources_of_both_kinds_produce_instructions() {
        for workload in [Workload::parse("gzip").unwrap(), Workload::parse("riscv:matmul").unwrap()]
        {
            let mut source = workload.source(2010);
            assert!(source.next().is_some(), "{workload} produced nothing");
        }
    }

    #[test]
    fn descriptions_are_nonempty_and_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for workload in Workload::all() {
            let d = workload.description();
            assert!(!d.is_empty());
            seen.insert(format!("{workload}: {d}"));
        }
        assert_eq!(seen.len(), 30);
    }
}
