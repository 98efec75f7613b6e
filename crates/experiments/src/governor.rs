//! Runtime voltage-mode governor: phase-aware execution below Vcc-min.
//!
//! The paper evaluates whole workloads pinned to a single voltage mode. A real
//! system *operates* below Vcc-min: a governor switches the core between the
//! nominal operating point and the below-Vcc-min point at runtime, riding
//! workload phases — and pays for every switch. This module simulates exactly
//! that:
//!
//! * a [`GovernorPolicy`] decides, segment by segment, which [`VoltageMode`]
//!   the core runs in next (a fixed schedule, a fixed alternation interval, or
//!   a reactive policy driven by the workload-phase signal of
//!   [`crate::workload::WorkloadSource::current_phase`] — scripted for
//!   synthetic traces, observed from real memory behavior for RISC-V kernels);
//! * every mode transition drains the core
//!   ([`Cpu::drain_cycles`]) and reconfigures the active cache-repair
//!   scheme
//!   ([`RepairScheme::reconfiguration_cycles`](vccmin_cache::RepairScheme::reconfiguration_cycles)),
//!   and is charged both; re-entering a mode also restarts with cold caches,
//!   which the simulation captures for free
//!   ([`GovernedRun::with_fixed_transition_cost`] re-prices a run at a fixed
//!   cost per transition);
//! * the result ([`GovernedRun`]) carries one [`SimResult`] per executed
//!   segment plus the per-mode transition overhead, and composes the measured
//!   cycle counts with the [`VoltageScalingModel`] power curves into
//!   normalized time / energy / EDP metrics through the *same* closed-form
//!   helpers (`vccmin_analysis::governor`) the analytical cross-validation
//!   uses.
//!
//! A policy pinned to one mode executes as a single segment through the same
//! [`Cpu::run`] call as the single-mode campaigns, so the governor is a
//! strict generalization of the paper's studies — a property the workspace
//! tests pin down bit for bit. Cores are constructed through the shared
//! [`CoreModel::build`] factory, so the governor rides every CPU backend the
//! single-mode campaigns do.

use vccmin_analysis::governor::{
    energy_delay_product, normalized_energy, normalized_time, ModeCycles,
};
use vccmin_analysis::voltage::VoltageScalingModel;
use vccmin_cache::{CacheHierarchy, DisablingScheme, FaultMap, VoltageMode};
use vccmin_cpu::{CoreModel, Cpu, SimResult};
use vccmin_workloads::{PhaseSchedule, WorkloadPhase};

use crate::config::SchemeConfig;
use crate::workload::Workload;

/// A runtime policy deciding which voltage mode each execution segment runs in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GovernorPolicy {
    /// A fixed `(mode, instructions)` schedule, cycled until the run completes.
    Static(Vec<(VoltageMode, u64)>),
    /// Alternate nominal and low-voltage segments of the given lengths
    /// (instructions), starting nominal.
    Interval {
        /// Instructions per nominal-voltage segment.
        nominal: u64,
        /// Instructions per below-Vcc-min segment.
        low: u64,
    },
    /// Sample the workload-phase signal every `quantum` instructions and run
    /// memory-bound phases below Vcc-min: the core mostly waits on memory
    /// there, so the frequency and cache-capacity loss is cheap while the
    /// cubic power reduction applies in full.
    Reactive {
        /// Instructions between phase samples (the governor's decision epoch).
        quantum: u64,
    },
}

impl GovernorPolicy {
    /// A schedule pinned to a single mode for the whole run: the degenerate
    /// governor that reproduces the paper's single-mode studies.
    #[must_use]
    pub fn pinned(mode: VoltageMode) -> Self {
        Self::Static(vec![(mode, u64::MAX)])
    }

    /// Whether the policy can ever select [`VoltageMode::Low`] (and therefore
    /// needs fault maps for a fault-dependent repair scheme).
    #[must_use]
    pub fn uses_low_voltage(&self) -> bool {
        match self {
            Self::Static(segments) => segments.iter().any(|(m, _)| *m == VoltageMode::Low),
            Self::Interval { .. } | Self::Reactive { .. } => true,
        }
    }

    /// The mode and length (instructions) of segment `index`, given the
    /// workload phase observed at the segment boundary. Lengths are clamped to
    /// at least one instruction so a degenerate schedule cannot stall the run.
    ///
    /// # Panics
    ///
    /// Panics if a static schedule has no segments.
    #[must_use]
    pub fn segment(&self, index: usize, phase: WorkloadPhase) -> (VoltageMode, u64) {
        let (mode, length) = match self {
            Self::Static(segments) => {
                assert!(!segments.is_empty(), "a static schedule needs segments");
                segments[index % segments.len()]
            }
            Self::Interval { nominal, low } => {
                if index.is_multiple_of(2) {
                    (VoltageMode::High, *nominal)
                } else {
                    (VoltageMode::Low, *low)
                }
            }
            Self::Reactive { quantum } => {
                let mode = match phase {
                    WorkloadPhase::MemoryBound => VoltageMode::Low,
                    WorkloadPhase::ComputeBound => VoltageMode::High,
                };
                (mode, *quantum)
            }
        };
        (mode, length.max(1))
    }
}

/// Everything needed to execute one governed run.
#[derive(Debug, Clone, Copy)]
pub struct GovernedRunSpec<'a> {
    /// Workload to execute.
    pub workload: Workload,
    /// CPU backend executing every segment (constructed through the shared
    /// [`CoreModel::build`] factory; its drain bound prices every
    /// transition).
    pub core: CoreModel,
    /// Cache configuration governing both voltage modes.
    pub scheme: SchemeConfig,
    /// Repair scheme protecting the unified L2 ([`DisablingScheme::Baseline`]
    /// is the paper's perfect L2). A fault-dependent L2 scheme is repaired
    /// from [`GovernedRunSpec::l2_map`] below Vcc-min and charged its own
    /// reconfiguration cycles on every mode transition.
    pub l2_scheme: DisablingScheme,
    /// The mode-selection policy.
    pub policy: &'a GovernorPolicy,
    /// Fault-map pair (instruction, data) used whenever the core is below
    /// Vcc-min; required there for fault-dependent schemes.
    pub maps: Option<&'a (FaultMap, FaultMap)>,
    /// L2 fault map, required below Vcc-min when
    /// [`GovernedRunSpec::l2_scheme`] is fault dependent.
    pub l2_map: Option<&'a FaultMap>,
    /// Trace seed (the same stream is replayed whatever the policy).
    pub trace_seed: u64,
    /// Instructions to execute across all segments.
    pub instructions: u64,
    /// Optional workload-phase schedule (reactive policies need one to see
    /// anything other than compute-bound execution).
    pub phases: Option<&'a PhaseSchedule>,
}

/// One executed segment of a governed run.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernedSegment {
    /// Voltage mode the segment ran in.
    pub mode: VoltageMode,
    /// Workload phase observed at the segment's start.
    pub phase: WorkloadPhase,
    /// Simulation result of this segment alone: statistics counters are reset
    /// between consecutive same-mode segments (and the core is rebuilt on a
    /// mode change), so per-segment counters are safe to sum.
    pub sim: SimResult,
}

/// The outcome of a governed execution.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernedRun {
    /// The cache configuration that was governed.
    pub scheme: SchemeConfig,
    /// Executed segments, in order.
    pub segments: Vec<GovernedSegment>,
    /// Number of mode transitions taken.
    pub transitions: u64,
    /// Transition overhead charged while exiting the nominal mode.
    pub transition_cycles_nominal: u64,
    /// Transition overhead charged while exiting the low-voltage mode.
    pub transition_cycles_low: u64,
}

/// Normalized time/energy metrics of a governed run under a scaling model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorMetrics {
    /// Normalized wall-clock time (one unit = one nominal cycle).
    pub time: f64,
    /// Normalized dynamic energy (one unit = one nominal cycle at nominal
    /// power).
    pub energy: f64,
    /// Energy-delay product.
    pub edp: f64,
    /// Fraction of all cycles spent below Vcc-min.
    pub low_residency: f64,
}

impl GovernedRun {
    /// Instructions committed across all segments.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.segments.iter().map(|s| s.sim.instructions).sum()
    }

    /// Total cycles including transition overhead.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.execution_cycles() + self.transition_cycles()
    }

    /// Cycles spent executing segments (no transition overhead).
    #[must_use]
    pub fn execution_cycles(&self) -> u64 {
        self.segments.iter().map(|s| s.sim.cycles).sum()
    }

    /// Total transition overhead in cycles.
    #[must_use]
    pub fn transition_cycles(&self) -> u64 {
        self.transition_cycles_nominal + self.transition_cycles_low
    }

    /// Per-mode cycle totals (transition overhead charged to the mode that was
    /// exited), the input of the closed-form time/energy model.
    #[must_use]
    pub fn mode_cycles(&self) -> ModeCycles {
        let mut nominal = self.transition_cycles_nominal as f64;
        let mut low = self.transition_cycles_low as f64;
        for segment in &self.segments {
            match segment.mode {
                VoltageMode::High => nominal += segment.sim.cycles as f64,
                VoltageMode::Low => low += segment.sim.cycles as f64,
            }
        }
        ModeCycles { nominal, low }
    }

    /// Fraction of committed instructions executed below Vcc-min.
    #[must_use]
    pub fn low_instruction_residency(&self) -> f64 {
        let total = self.instructions();
        if total == 0 {
            return 0.0;
        }
        let low: u64 = self
            .segments
            .iter()
            .filter(|s| s.mode == VoltageMode::Low)
            .map(|s| s.sim.instructions)
            .sum();
        low as f64 / total as f64
    }

    /// Composes the measured per-mode cycles with the scaling model's
    /// frequency and power curves into normalized time, energy and EDP.
    #[must_use]
    pub fn metrics(&self, model: &VoltageScalingModel) -> GovernorMetrics {
        let cycles = self.mode_cycles();
        GovernorMetrics {
            time: normalized_time(model, &cycles),
            energy: normalized_energy(model, &cycles),
            edp: energy_delay_product(model, &cycles),
            low_residency: cycles.low_residency(),
        }
    }

    /// Re-prices the transition overhead at `cycles_per_transition` per
    /// transition without re-simulating (the segment results are unaffected
    /// by bookkeeping). Each transition is charged to the mode it exits, and
    /// the exits alternate starting from the first segment's mode.
    #[must_use]
    pub fn with_fixed_transition_cost(&self, cycles_per_transition: u64) -> Self {
        let from_first = self.transitions.div_ceil(2) * cycles_per_transition;
        let from_second = self.transitions / 2 * cycles_per_transition;
        let (transition_cycles_nominal, transition_cycles_low) =
            match self.segments.first().map(|s| s.mode) {
                Some(VoltageMode::Low) => (from_second, from_first),
                _ => (from_first, from_second),
            };
        Self {
            transition_cycles_nominal,
            transition_cycles_low,
            ..self.clone()
        }
    }
}

/// Builds the hierarchy for one segment, or `None` when a scheme cannot repair
/// its fault map below Vcc-min (whole-cache failure on the L1s or the L2), or
/// a required map is missing.
fn build_hierarchy(spec: &GovernedRunSpec<'_>, mode: VoltageMode) -> Option<CacheHierarchy> {
    let cfg = spec
        .scheme
        .hierarchy_config(mode)
        .with_l2_scheme(spec.l2_scheme);
    let (map_i, map_d) = match spec.maps {
        Some((i, d)) => (Some(i), Some(d)),
        None => (None, None),
    };
    // `with_all_fault_maps` ignores the maps at high voltage and for
    // fault-independent schemes, so one call covers every mode.
    CacheHierarchy::with_all_fault_maps(cfg, map_i, map_d, spec.l2_map).ok()
}

/// Executes one governed run, or `None` when a below-Vcc-min segment is
/// unreachable because the repair scheme cannot repair the fault-map pair
/// (whole-cache failure), mirroring the single-mode campaigns' accounting.
///
/// The core and cache state survive across consecutive same-mode segments;
/// a mode transition tears them down (the caches restart cold in the new mode,
/// which is precisely the reconfiguration the transition cost models).
#[must_use]
pub fn run_governed(spec: &GovernedRunSpec<'_>) -> Option<GovernedRun> {
    let mut trace = spec.workload.source_with_phases(spec.trace_seed, spec.phases);

    let mut segments = Vec::new();
    let mut transitions = 0u64;
    let mut transition_cycles_nominal = 0u64;
    let mut transition_cycles_low = 0u64;
    let mut remaining = spec.instructions;
    let mut index = 0usize;
    let mut phase = trace.current_phase();
    let (mut mode, mut length) = spec.policy.segment(index, phase);
    let mut cpu: Option<Box<dyn Cpu>> = None;

    while remaining > 0 {
        if cpu.is_none() {
            // The same factory path the single-mode campaigns use
            // (`CoreModel::build`), so both executors construct identical
            // backends.
            cpu = Some(spec.core.build(build_hierarchy(spec, mode)?));
        }
        // simlint::allow(panic-path, "Some(..) was assigned in the is_none branch directly above")
        let pipe = cpu.as_mut().expect("core was just built");
        let sim = pipe.run(&mut trace, Some(length.min(remaining)));
        remaining -= sim.instructions.min(remaining);
        segments.push(GovernedSegment { mode, phase, sim });
        if remaining == 0 {
            break;
        }
        index += 1;
        phase = trace.current_phase();
        let (next_mode, next_length) = spec.policy.segment(index, phase);
        if next_mode == mode {
            // Same mode, same pipeline: clear the counters so the next
            // segment's SimResult is per-segment, not cumulative.
            pipe.reset_stats();
        } else {
            transitions += 1;
            // Drain the core of the mode being exited, then reconfigure the
            // repair scheme's per-set state: both L1s carry it, and so does
            // a repair-protected L2 (a perfect L2 keeps no repair state and
            // reconfigures for free).
            let cfg = spec.scheme.hierarchy_config(mode);
            let cost = pipe.drain_cycles()
                + 2 * spec
                    .scheme
                    .scheme()
                    .repair()
                    .reconfiguration_cycles(&cfg.l1.geometry)
                + spec
                    .l2_scheme
                    .repair()
                    .reconfiguration_cycles(&cfg.l2_geometry);
            match mode {
                VoltageMode::High => transition_cycles_nominal += cost,
                VoltageMode::Low => transition_cycles_low += cost,
            }
            cpu = None;
            mode = next_mode;
        }
        length = next_length;
    }

    Some(GovernedRun {
        scheme: spec.scheme,
        segments,
        transitions,
        transition_cycles_nominal,
        transition_cycles_low,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vccmin_fault::SeedSequence;

    fn maps(pfail: f64, seed: u64) -> (FaultMap, FaultMap) {
        let geom = vccmin_cache::CacheGeometry::ispass2010_l1();
        let mut seeds = SeedSequence::new(seed).fork("governor-test");
        (
            FaultMap::generate(&geom, pfail, seeds.next_seed()),
            FaultMap::generate(&geom, pfail, seeds.next_seed()),
        )
    }

    fn spec<'a>(
        policy: &'a GovernorPolicy,
        maps: Option<&'a (FaultMap, FaultMap)>,
        phases: Option<&'a PhaseSchedule>,
    ) -> GovernedRunSpec<'a> {
        GovernedRunSpec {
            workload: vccmin_workloads::Benchmark::Gzip.into(),
            core: CoreModel::OutOfOrder,
            scheme: SchemeConfig::BlockDisabling,
            l2_scheme: DisablingScheme::Baseline,
            policy,
            maps,
            l2_map: None,
            trace_seed: 42,
            instructions: 8_000,
            phases,
        }
    }

    #[test]
    fn pinned_nominal_run_is_one_segment_with_no_overhead() {
        let policy = GovernorPolicy::pinned(VoltageMode::High);
        assert!(!policy.uses_low_voltage());
        let run = run_governed(&spec(&policy, None, None)).unwrap();
        assert_eq!(run.segments.len(), 1);
        assert_eq!(run.transitions, 0);
        assert_eq!(run.transition_cycles(), 0);
        assert_eq!(run.instructions(), 8_000);
        assert_eq!(run.low_instruction_residency(), 0.0);
        let m = run.metrics(&VoltageScalingModel::paper_illustration());
        assert_eq!(m.low_residency, 0.0);
        assert!((m.time - run.total_cycles() as f64).abs() < 1e-9);
        assert!((m.energy - m.time).abs() < 1e-9, "nominal power is 1.0");
    }

    #[test]
    fn interval_policy_alternates_and_pays_per_transition() {
        let policy = GovernorPolicy::Interval {
            nominal: 2_000,
            low: 2_000,
        };
        assert!(policy.uses_low_voltage());
        let pair = maps(0.001, 7);
        let run = run_governed(&spec(&policy, Some(&pair), None))
            .unwrap()
            .with_fixed_transition_cost(123);
        assert_eq!(run.segments.len(), 4);
        assert_eq!(run.transitions, 3);
        assert_eq!(run.transition_cycles(), 3 * 123);
        let modes: Vec<VoltageMode> = run.segments.iter().map(|s| s.mode).collect();
        assert_eq!(
            modes,
            [
                VoltageMode::High,
                VoltageMode::Low,
                VoltageMode::High,
                VoltageMode::Low
            ]
        );
        assert!((run.low_instruction_residency() - 0.5).abs() < 1e-9);
        // Overhead is charged to the exited mode: H->L, L->H, H->L.
        assert_eq!(run.transition_cycles_nominal, 2 * 123);
        assert_eq!(run.transition_cycles_low, 123);
    }

    #[test]
    fn modeled_cost_combines_drain_and_reconfiguration() {
        let policy = GovernorPolicy::Interval {
            nominal: 4_000,
            low: 4_000,
        };
        let pair = maps(0.001, 9);
        let run = run_governed(&spec(&policy, Some(&pair), None)).unwrap();
        assert_eq!(run.transitions, 1);
        // Exiting nominal mode: front end (10) + ROB (32) + L2 (20) + memory at
        // high voltage (255) + block-disabling reconfiguration of both L1s
        // (64 sets each).
        assert_eq!(run.transition_cycles_nominal, 10 + 32 + 20 + 255 + 2 * 64);
        assert_eq!(run.transition_cycles_low, 0);
    }

    #[test]
    fn modeled_cost_charges_l2_reconfiguration_when_the_l2_is_protected() {
        let policy = GovernorPolicy::Interval {
            nominal: 4_000,
            low: 4_000,
        };
        let pair = maps(0.001, 9);
        let l2_map = FaultMap::generate(&vccmin_cache::CacheGeometry::ispass2010_l2(), 0.001, 13);
        let run = run_governed(&GovernedRunSpec {
            l2_scheme: DisablingScheme::BlockDisabling,
            l2_map: Some(&l2_map),
            ..spec(&policy, Some(&pair), None)
        })
        .unwrap();
        assert_eq!(run.transitions, 1);
        // The perfect-L2 cost of `modeled_cost_combines_drain_and_reconfiguration`
        // plus one reconfiguration step per L2 set (4096 sets, block-disabling).
        assert_eq!(run.transition_cycles_nominal, 10 + 32 + 20 + 255 + 2 * 64 + 4096);
        // A fault-dependent L2 scheme without a map cannot enter low voltage.
        let no_l2_map = GovernedRunSpec {
            l2_scheme: DisablingScheme::BlockDisabling,
            l2_map: None,
            ..spec(&policy, Some(&pair), None)
        };
        assert!(run_governed(&no_l2_map).is_none());
    }

    #[test]
    fn reactive_policy_follows_the_phase_signal() {
        let policy = GovernorPolicy::Reactive { quantum: 1_000 };
        let phases = PhaseSchedule::alternating(2_000, 2_000);
        let pair = maps(0.001, 11);
        let run = run_governed(&spec(&policy, Some(&pair), Some(&phases))).unwrap();
        // 8k instructions in 1k quanta over a 2k/2k phase wave: HHLLHHLL.
        let modes: Vec<VoltageMode> = run.segments.iter().map(|s| s.mode).collect();
        assert_eq!(run.transitions, 3);
        assert_eq!(modes.len(), 8);
        for (i, chunk) in modes.chunks(2).enumerate() {
            let expected = if i % 2 == 0 {
                VoltageMode::High
            } else {
                VoltageMode::Low
            };
            assert_eq!(chunk, [expected, expected], "quantum pair {i}");
        }
        // Every low segment saw a memory-bound phase at its boundary.
        for s in &run.segments {
            match s.mode {
                VoltageMode::Low => assert_eq!(s.phase, WorkloadPhase::MemoryBound),
                VoltageMode::High => assert_eq!(s.phase, WorkloadPhase::ComputeBound),
            }
        }
    }

    #[test]
    fn same_mode_segments_report_per_segment_not_cumulative_statistics() {
        // Two same-mode segments share one pipeline; the second segment's
        // counters must not include the first's.
        let policy = GovernorPolicy::Static(vec![(VoltageMode::High, 4_000)]);
        let run = run_governed(&GovernedRunSpec {
            instructions: 8_000,
            ..spec(&policy, None, None)
        })
        .unwrap();
        assert_eq!(run.segments.len(), 2);
        assert_eq!(run.transitions, 0, "same mode: no transition was taken");
        let (a, b) = (&run.segments[0].sim, &run.segments[1].sim);
        assert!(a.hierarchy.l1d.accesses > 0 && b.hierarchy.l1d.accesses > 0);
        assert!(
            b.hierarchy.l1d.accesses < a.hierarchy.l1d.accesses * 3 / 2,
            "cumulative stats would roughly double: {} vs {}",
            b.hierarchy.l1d.accesses,
            a.hierarchy.l1d.accesses
        );
        assert!(
            b.conditional_branches < a.conditional_branches * 3 / 2,
            "branch counters must be per segment too"
        );
        // The cache stayed warm across the boundary: the second segment does
        // not pay the cold-start miss burst again.
        assert!(b.hierarchy.l1d.miss_rate() <= a.hierarchy.l1d.miss_rate());
    }

    #[test]
    fn unrepairable_maps_surface_as_whole_cache_failures() {
        let policy = GovernorPolicy::pinned(VoltageMode::Low);
        let pair = maps(0.25, 1);
        let spec = GovernedRunSpec {
            scheme: SchemeConfig::WordDisabling,
            ..spec(&policy, Some(&pair), None)
        };
        assert!(run_governed(&spec).is_none());
        // A fault-dependent scheme without maps cannot enter low voltage at all.
        let no_maps = GovernedRunSpec { maps: None, ..spec };
        assert!(run_governed(&no_maps).is_none());
    }

    #[test]
    fn repricing_transition_costs_preserves_the_simulation() {
        let policy = GovernorPolicy::Interval {
            nominal: 1_000,
            low: 1_000,
        };
        let pair = maps(0.001, 3);
        let run = run_governed(&spec(&policy, Some(&pair), None))
            .unwrap()
            .with_fixed_transition_cost(100);
        let cheap = run.with_fixed_transition_cost(10);
        let pricey = run.with_fixed_transition_cost(10_000);
        assert_eq!(cheap.segments, run.segments);
        assert_eq!(cheap.transition_cycles(), run.transitions * 10);
        assert_eq!(pricey.transition_cycles(), run.transitions * 10_000);
        assert!(pricey.total_cycles() > cheap.total_cycles());
        // Eight alternating segments from nominal: four exits from nominal,
        // three from low voltage.
        assert_eq!(run.transitions, 7);
        assert_eq!(
            (cheap.transition_cycles_nominal, cheap.transition_cycles_low),
            (40, 30)
        );
        // A schedule starting below Vcc-min exits low voltage first.
        let low_first =
            GovernorPolicy::Static(vec![(VoltageMode::Low, 2_000), (VoltageMode::High, 2_000)]);
        let run = run_governed(&spec(&low_first, Some(&pair), None))
            .unwrap()
            .with_fixed_transition_cost(10);
        assert_eq!(run.transitions, 3);
        assert_eq!(
            (run.transition_cycles_nominal, run.transition_cycles_low),
            (10, 20)
        );
    }

    #[test]
    fn static_schedules_cycle_and_clamp_lengths() {
        let policy = GovernorPolicy::Static(vec![
            (VoltageMode::High, 3_000),
            (VoltageMode::Low, 0), // clamped to 1 instruction
        ]);
        let pair = maps(0.001, 5);
        let run = run_governed(&spec(&policy, Some(&pair), None)).unwrap();
        assert_eq!(run.instructions(), 8_000);
        assert!(run
            .segments
            .iter()
            .filter(|s| s.mode == VoltageMode::Low)
            .all(|s| s.sim.instructions == 1));
    }

    #[test]
    #[should_panic(expected = "needs segments")]
    fn empty_static_schedules_are_rejected() {
        let _ = GovernorPolicy::Static(Vec::new()).segment(0, WorkloadPhase::ComputeBound);
    }
}
