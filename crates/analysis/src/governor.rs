//! Closed-form model of a runtime voltage-mode governor.
//!
//! A governor executes a workload as an alternating sequence of *nominal*
//! (at/above Vcc-min) and *low-voltage* (below Vcc-min) intervals, paying a
//! fixed cycle cost per mode transition (pipeline drain plus cache-repair
//! reconfiguration). This module predicts, in closed form, the cycle count,
//! wall-clock time, energy and energy-delay product of such an execution from
//! a handful of inputs:
//!
//! * the per-mode IPC of the workload (measured once per mode, e.g. from the
//!   single-mode campaigns of Figs. 8–12),
//! * the instruction split between the modes and the number of transitions,
//! * the per-transition cycle cost, and
//! * a [`VoltageScalingModel`] giving each mode's normalized frequency and
//!   dynamic power (Fig. 1b).
//!
//! The simulated governor in `vccmin-experiments` computes time and energy
//! through *these same functions* from its measured per-mode cycle counts, so
//! the model and the simulation can cross-validate each other: the closed form
//! predicts the simulated totals from single-mode IPCs up to the cache-warmup
//! error the analytical model deliberately ignores.
//!
//! All quantities are normalized: frequency 1.0 and dynamic power 1.0 are the
//! nominal operating point, and one time unit is one nominal-frequency cycle.

use crate::voltage::VoltageScalingModel;

/// Cycles spent in each voltage mode (transition overhead included in the mode
/// that pays it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeCycles {
    /// Cycles executed at the nominal operating point.
    pub nominal: f64,
    /// Cycles executed below Vcc-min.
    pub low: f64,
}

impl ModeCycles {
    /// Total cycle count across both modes.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.nominal + self.low
    }

    /// Fraction of all cycles spent below Vcc-min (0 when no cycles at all).
    #[must_use]
    pub fn low_residency(&self) -> f64 {
        if self.total() <= 0.0 {
            0.0
        } else {
            self.low / self.total()
        }
    }
}

/// The normalized frequency of the below-Vcc-min mode under `model`: the
/// low-voltage floor of Fig. 1b.
#[must_use]
pub fn low_mode_frequency(model: &VoltageScalingModel) -> f64 {
    model.low_voltage_frequency
}

/// Normalized wall-clock time of an execution with the given per-mode cycle
/// counts: cycles at each mode are stretched by that mode's clock period
/// (`1 / frequency`). One time unit is one nominal cycle.
#[must_use]
pub fn normalized_time(model: &VoltageScalingModel, cycles: &ModeCycles) -> f64 {
    let low = model.point_at(low_mode_frequency(model));
    cycles.nominal + cycles.low / low.frequency
}

/// Normalized dynamic energy of an execution: each mode's time multiplied by
/// that mode's `V^2 * F` power from the scaling model. One energy unit is one
/// nominal cycle at nominal power.
#[must_use]
pub fn normalized_energy(model: &VoltageScalingModel, cycles: &ModeCycles) -> f64 {
    let nominal = model.point_at(1.0);
    let low = model.point_at(low_mode_frequency(model));
    cycles.nominal * nominal.power + (cycles.low / low.frequency) * low.power
}

/// Normalized energy-delay product: [`normalized_energy`] times
/// [`normalized_time`].
#[must_use]
pub fn energy_delay_product(model: &VoltageScalingModel, cycles: &ModeCycles) -> f64 {
    normalized_energy(model, cycles) * normalized_time(model, cycles)
}

/// Expected per-mode cycle counts of a governed execution, from single-mode
/// IPCs: `n / ipc` cycles per mode, plus `transitions * transition_cost`
/// cycles of overhead charged to the modes *proportionally to their
/// instruction share* (an all-one-mode schedule — zero transitions — is
/// unaffected either way, and for the alternating schedules the governor
/// studies the shares are equal, matching the half-and-half each mode
/// actually pays on exit).
///
/// This deliberately ignores the cache-warmup cost of re-entering a mode with
/// cold repair state, which is why the simulation can only be expected to match
/// it to within a warmup-sized error.
#[must_use]
pub fn expected_cycles(
    nominal_instructions: f64,
    low_instructions: f64,
    ipc_nominal: f64,
    ipc_low: f64,
    transitions: f64,
    transition_cost_cycles: f64,
) -> ModeCycles {
    let overhead = transitions.max(0.0) * transition_cost_cycles.max(0.0);
    let nominal_exec = if ipc_nominal > 0.0 {
        nominal_instructions / ipc_nominal
    } else {
        0.0
    };
    let low_exec = if ipc_low > 0.0 {
        low_instructions / ipc_low
    } else {
        0.0
    };
    // Charge the overhead to the modes proportionally to their instruction
    // share: an all-one-mode schedule (zero transitions) is unaffected either
    // way.
    let total_instructions = nominal_instructions + low_instructions;
    let low_share = if total_instructions > 0.0 {
        low_instructions / total_instructions
    } else {
        0.0
    };
    ModeCycles {
        nominal: nominal_exec + overhead * (1.0 - low_share),
        low: low_exec + overhead * low_share,
    }
}

/// Fraction of all cycles lost to transition overhead: `T * C / (base + T * C)`.
#[must_use]
pub fn overhead_fraction(base_cycles: f64, transitions: f64, transition_cost_cycles: f64) -> f64 {
    let overhead = transitions.max(0.0) * transition_cost_cycles.max(0.0);
    if base_cycles + overhead <= 0.0 {
        0.0
    } else {
        overhead / (base_cycles + overhead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> VoltageScalingModel {
        VoltageScalingModel::paper_illustration()
    }

    #[test]
    fn all_nominal_execution_is_the_identity() {
        let cycles = ModeCycles {
            nominal: 1000.0,
            low: 0.0,
        };
        assert_eq!(normalized_time(&model(), &cycles), 1000.0);
        assert_eq!(normalized_energy(&model(), &cycles), 1000.0);
        assert_eq!(cycles.low_residency(), 0.0);
    }

    #[test]
    fn low_mode_trades_time_for_energy() {
        let m = model();
        let nominal = ModeCycles {
            nominal: 1000.0,
            low: 0.0,
        };
        let low = ModeCycles {
            nominal: 0.0,
            low: 1000.0,
        };
        // Same cycle count takes longer at the slower clock...
        assert!(normalized_time(&m, &low) > normalized_time(&m, &nominal));
        // ...but costs far less energy: the cubic power reduction (0.125 at the
        // floor) beats the 2x time stretch.
        assert!(normalized_energy(&m, &low) < 0.5 * normalized_energy(&m, &nominal));
        assert_eq!(low.low_residency(), 1.0);
    }

    #[test]
    fn energy_and_time_are_linear_in_cycles() {
        let m = model();
        let a = ModeCycles {
            nominal: 300.0,
            low: 700.0,
        };
        let b = ModeCycles {
            nominal: 600.0,
            low: 1400.0,
        };
        assert!((normalized_time(&m, &b) - 2.0 * normalized_time(&m, &a)).abs() < 1e-9);
        assert!((normalized_energy(&m, &b) - 2.0 * normalized_energy(&m, &a)).abs() < 1e-9);
        let edp_ratio = energy_delay_product(&m, &b) / energy_delay_product(&m, &a);
        assert!((edp_ratio - 4.0).abs() < 1e-9, "EDP is quadratic in scale");
    }

    #[test]
    fn expected_cycles_recover_single_mode_runs() {
        let cycles = expected_cycles(10_000.0, 0.0, 2.0, 1.5, 0.0, 500.0);
        assert_eq!(cycles.nominal, 5_000.0);
        assert_eq!(cycles.low, 0.0);
        let cycles = expected_cycles(0.0, 9_000.0, 2.0, 1.5, 0.0, 500.0);
        assert_eq!(cycles.nominal, 0.0);
        assert_eq!(cycles.low, 6_000.0);
    }

    #[test]
    fn transition_overhead_adds_up_and_respects_the_split() {
        let base = expected_cycles(5_000.0, 5_000.0, 2.0, 1.0, 0.0, 0.0);
        let governed = expected_cycles(5_000.0, 5_000.0, 2.0, 1.0, 8.0, 250.0);
        assert!((governed.total() - base.total() - 8.0 * 250.0).abs() < 1e-9);
        // Equal instruction split: overhead charged half and half.
        assert!((governed.nominal - base.nominal - 1_000.0).abs() < 1e-9);
        assert!((governed.low - base.low - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_fraction_is_bounded_and_monotone_in_cost() {
        assert_eq!(overhead_fraction(0.0, 0.0, 0.0), 0.0);
        let mut last = 0.0;
        for cost in [0.0, 10.0, 100.0, 1_000.0, 100_000.0] {
            let f = overhead_fraction(10_000.0, 4.0, cost);
            assert!((0.0..1.0).contains(&f));
            assert!(f >= last);
            last = f;
        }
    }

    #[test]
    fn degenerate_ipcs_do_not_poison_the_model() {
        let cycles = expected_cycles(1_000.0, 1_000.0, 0.0, 0.0, 2.0, 100.0);
        assert!(cycles.total().is_finite());
        assert_eq!(cycles.total(), 200.0, "only the overhead remains");
        let empty = ModeCycles {
            nominal: 0.0,
            low: 0.0,
        };
        assert_eq!(empty.low_residency(), 0.0);
        assert_eq!(normalized_time(&model(), &empty), 0.0);
    }
}
