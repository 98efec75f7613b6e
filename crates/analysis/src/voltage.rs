//! Illustrative voltage / frequency / power / performance scaling model of Fig. 1.
//!
//! Fig. 1 of the paper is an illustration: frequency is assumed to scale linearly
//! with supply voltage, dynamic power scales as `C * V^2 * F` (cubic in voltage when
//! frequency tracks voltage), and performance is assumed proportional to frequency.
//! Operation below Vcc-min extends the cubic-power region at the price of a
//! *sub-linear* performance degradation caused by shrinking usable cache capacity.
//!
//! This module reproduces those curves so the example binaries and benches can emit
//! the same qualitative picture (Figs. 1a and 1b).

/// A point on the voltage-scaling curves of Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Normalized frequency (x-axis), in `[0, 1]`.
    pub frequency: f64,
    /// Normalized supply voltage, in `[0, 1]`.
    pub voltage: f64,
    /// Normalized dynamic power (`V^2 * F`), in `[0, 1]`.
    pub power: f64,
    /// Normalized performance, in `[0, 1]`.
    pub performance: f64,
}

/// The three operating regions of Fig. 1b.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatingRegion {
    /// Above Vcc-min, voltage scales with frequency: cubic power reduction.
    Cubic,
    /// Below the low-voltage floor, voltage is pinned at its minimum: linear power
    /// reduction with frequency.
    Linear,
    /// Between Vcc-min and the voltage floor, enabled by fault-tolerant caches:
    /// cubic power reduction with sub-linear performance loss.
    LowVoltage,
}

/// Model of classic dynamic voltage scaling (Fig. 1a) and of scaling extended below
/// Vcc-min (Fig. 1b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageScalingModel {
    /// Normalized frequency at which voltage reaches Vcc-min.
    pub vccmin_frequency: f64,
    /// Normalized Vcc-min voltage.
    pub vccmin_voltage: f64,
    /// Normalized frequency at which voltage reaches the absolute floor in the
    /// below-Vcc-min regime (Fig. 1b only).
    pub low_voltage_frequency: f64,
    /// Normalized voltage floor in the below-Vcc-min regime.
    pub low_voltage_floor: f64,
    /// Performance penalty factor at the low-voltage floor due to reduced cache
    /// capacity (e.g. 0.08 for an 8% IPC loss); interpolated across the low-voltage
    /// region.
    pub low_voltage_perf_penalty: f64,
}

/// Maps an arbitrary `f64` onto the normalized frequency axis `[0, 1]`:
/// values beyond the curve boundaries clamp to the nearest endpoint and NaN
/// (which would otherwise leak through `f64::clamp` and poison every derived
/// quantity) is treated as the lowest operating point. Every public curve
/// query goes through this, so none of them can panic or return NaN.
fn normalized_frequency(f: f64) -> f64 {
    if f.is_nan() {
        0.0
    } else {
        f.clamp(0.0, 1.0)
    }
}

impl VoltageScalingModel {
    /// A representative model matching the proportions of Fig. 1: Vcc-min at 70% of
    /// nominal voltage / frequency, a low-voltage floor at 50%, and an 8% IPC penalty
    /// at the floor (the paper's average block-disabling penalty).
    #[must_use]
    pub fn paper_illustration() -> Self {
        Self {
            vccmin_frequency: 0.7,
            vccmin_voltage: 0.7,
            low_voltage_frequency: 0.5,
            low_voltage_floor: 0.5,
            low_voltage_perf_penalty: 0.083,
        }
    }

    /// The operating points of the paper's *simulated* machine (Table III):
    /// nominal 3 GHz at full voltage, below Vcc-min 600 MHz (normalized
    /// frequency 0.2) at half voltage. Unlike
    /// [`VoltageScalingModel::paper_illustration`], whose proportions follow
    /// the Fig. 1 sketch, this model is consistent with the cycle-level
    /// simulator's per-mode memory latencies (51 = 255 x 0.2 cycles), so
    /// wall-clock and energy accounting composed from simulated cycle counts
    /// line up with the machine the cycles were measured on.
    #[must_use]
    pub fn ispass2010_operating_points() -> Self {
        Self {
            vccmin_frequency: 0.7,
            vccmin_voltage: 0.7,
            low_voltage_frequency: 0.2,
            low_voltage_floor: 0.5,
            low_voltage_perf_penalty: 0.083,
        }
    }

    /// Normalized voltage for a normalized frequency under *classic* DVS (Fig. 1a):
    /// voltage tracks frequency down to Vcc-min and is pinned there below it.
    #[must_use]
    pub fn classic_voltage(&self, frequency: f64) -> f64 {
        let f = normalized_frequency(frequency);
        if f >= self.vccmin_frequency {
            f
        } else {
            self.vccmin_voltage
        }
    }

    /// Normalized voltage for a normalized frequency when operation below Vcc-min is
    /// allowed (Fig. 1b): voltage keeps tracking frequency until the low-voltage
    /// floor.
    #[must_use]
    pub fn below_vccmin_voltage(&self, frequency: f64) -> f64 {
        let f = normalized_frequency(frequency);
        if f >= self.low_voltage_frequency {
            f.max(self.low_voltage_floor)
        } else {
            self.low_voltage_floor
        }
    }

    /// Operating region for a normalized frequency in the below-Vcc-min regime.
    #[must_use]
    pub fn region(&self, frequency: f64) -> OperatingRegion {
        let f = normalized_frequency(frequency);
        if f >= self.vccmin_frequency {
            OperatingRegion::Cubic
        } else if f >= self.low_voltage_frequency {
            OperatingRegion::LowVoltage
        } else {
            OperatingRegion::Linear
        }
    }

    /// Fig. 1a curve: classic DVS, performance proportional to frequency.
    #[must_use]
    pub fn classic_curve(&self, steps: usize) -> Vec<ScalingPoint> {
        assert!(steps >= 2, "a curve needs at least two points");
        (0..steps)
            .map(|i| {
                let f = i as f64 / (steps - 1) as f64;
                let v = self.classic_voltage(f);
                ScalingPoint {
                    frequency: f,
                    voltage: v,
                    power: v * v * f,
                    performance: f,
                }
            })
            .collect()
    }

    /// The below-Vcc-min operating point at a normalized frequency: voltage from
    /// [`VoltageScalingModel::below_vccmin_voltage`], dynamic power `V^2 * F`,
    /// and performance with the capacity-induced penalty of the active region.
    /// This is the per-mode building block of the governor energy model
    /// (`governor::normalized_time` / `governor::normalized_energy`).
    #[must_use]
    pub fn point_at(&self, frequency: f64) -> ScalingPoint {
        let f = normalized_frequency(frequency);
        let v = self.below_vccmin_voltage(f);
        let perf = match self.region(f) {
            OperatingRegion::Cubic => f,
            OperatingRegion::LowVoltage => {
                // Penalty ramps from 0 at Vcc-min to `low_voltage_perf_penalty`
                // at the floor.
                let span = self.vccmin_frequency - self.low_voltage_frequency;
                let depth = if span > 0.0 {
                    (self.vccmin_frequency - f) / span
                } else {
                    1.0
                };
                f * (1.0 - self.low_voltage_perf_penalty * depth)
            }
            OperatingRegion::Linear => f * (1.0 - self.low_voltage_perf_penalty),
        };
        ScalingPoint {
            frequency: f,
            voltage: v,
            power: v * v * f,
            performance: perf,
        }
    }

    /// Fig. 1b curve: DVS extended below Vcc-min. In the low-voltage region the
    /// performance degrades sub-linearly — frequency loss plus a capacity-induced
    /// penalty that grows as voltage keeps dropping.
    #[must_use]
    pub fn below_vccmin_curve(&self, steps: usize) -> Vec<ScalingPoint> {
        assert!(steps >= 2, "a curve needs at least two points");
        (0..steps)
            .map(|i| self.point_at(i as f64 / (steps - 1) as f64))
            .collect()
    }
}

impl Default for VoltageScalingModel {
    fn default() -> Self {
        Self::paper_illustration()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_voltage_pins_at_vccmin() {
        let m = VoltageScalingModel::paper_illustration();
        assert_eq!(m.classic_voltage(1.0), 1.0);
        assert_eq!(m.classic_voltage(0.8), 0.8);
        assert_eq!(m.classic_voltage(0.5), m.vccmin_voltage);
        assert_eq!(m.classic_voltage(0.0), m.vccmin_voltage);
    }

    #[test]
    fn below_vccmin_voltage_extends_scaling() {
        let m = VoltageScalingModel::paper_illustration();
        assert_eq!(m.below_vccmin_voltage(0.6), 0.6);
        assert!(m.below_vccmin_voltage(0.6) < m.classic_voltage(0.6));
        assert_eq!(m.below_vccmin_voltage(0.3), m.low_voltage_floor);
    }

    #[test]
    fn regions_partition_the_frequency_axis() {
        let m = VoltageScalingModel::paper_illustration();
        assert_eq!(m.region(0.9), OperatingRegion::Cubic);
        assert_eq!(m.region(0.6), OperatingRegion::LowVoltage);
        assert_eq!(m.region(0.2), OperatingRegion::Linear);
    }

    #[test]
    fn below_vccmin_power_is_lower_in_low_voltage_region() {
        let m = VoltageScalingModel::paper_illustration();
        let classic = m.classic_curve(101);
        let below = m.below_vccmin_curve(101);
        for (c, b) in classic.iter().zip(&below) {
            assert!(b.power <= c.power + 1e-12);
            if m.region(c.frequency) == OperatingRegion::LowVoltage {
                assert!(b.power < c.power, "power should be lower at f={}", c.frequency);
            }
        }
    }

    #[test]
    fn performance_degradation_is_sublinear_but_present() {
        let m = VoltageScalingModel::paper_illustration();
        let below = m.below_vccmin_curve(101);
        for p in &below {
            match m.region(p.frequency) {
                OperatingRegion::Cubic => assert!((p.performance - p.frequency).abs() < 1e-12),
                _ => assert!(p.performance <= p.frequency),
            }
            assert!(p.performance >= p.frequency * (1.0 - m.low_voltage_perf_penalty) - 1e-12);
        }
    }

    #[test]
    fn point_at_agrees_with_the_curve_samples() {
        let m = VoltageScalingModel::paper_illustration();
        let curve = m.below_vccmin_curve(41);
        for p in &curve {
            assert_eq!(*p, m.point_at(p.frequency));
        }
        // The nominal point is the (1, 1, 1, 1) corner.
        let nominal = m.point_at(1.0);
        assert_eq!(nominal.power, 1.0);
        assert_eq!(nominal.performance, 1.0);
        // The low-voltage floor keeps the cubic power reduction.
        let floor = m.point_at(m.low_voltage_frequency);
        assert!((floor.power - 0.125).abs() < 1e-12);
        assert!(floor.performance < floor.frequency);
    }

    #[test]
    fn simulated_machine_operating_points_match_table_three_clocks() {
        let m = VoltageScalingModel::ispass2010_operating_points();
        // 600 MHz / 3 GHz, at half the nominal voltage.
        let low = m.point_at(m.low_voltage_frequency);
        assert_eq!(low.frequency, 0.2);
        assert_eq!(low.voltage, 0.5);
        assert!((low.power - 0.05).abs() < 1e-12, "V^2 F = 0.25 * 0.2");
        assert!(low.performance < low.frequency);
        assert_eq!(m.point_at(1.0).power, 1.0);
    }

    #[test]
    fn queries_clamp_beyond_curve_boundaries() {
        let m = VoltageScalingModel::paper_illustration();
        // Beyond the top of the curve everything behaves like the nominal point.
        assert_eq!(m.point_at(1.7), m.point_at(1.0));
        assert_eq!(m.region(42.0), OperatingRegion::Cubic);
        assert_eq!(m.classic_voltage(2.0), 1.0);
        assert_eq!(m.below_vccmin_voltage(f64::INFINITY), 1.0);
        // Below the bottom everything behaves like a full stop.
        assert_eq!(m.point_at(-3.0), m.point_at(0.0));
        assert_eq!(m.region(-1.0), OperatingRegion::Linear);
        assert_eq!(m.classic_voltage(f64::NEG_INFINITY), m.vccmin_voltage);
        assert_eq!(m.below_vccmin_voltage(-0.5), m.low_voltage_floor);
    }

    #[test]
    fn nan_frequency_is_treated_as_the_lowest_operating_point_not_propagated() {
        let m = VoltageScalingModel::paper_illustration();
        assert_eq!(m.point_at(f64::NAN), m.point_at(0.0));
        assert_eq!(m.region(f64::NAN), OperatingRegion::Linear);
        assert_eq!(m.classic_voltage(f64::NAN), m.vccmin_voltage);
        assert_eq!(m.below_vccmin_voltage(f64::NAN), m.low_voltage_floor);
        let p = m.point_at(f64::NAN);
        assert!(p.frequency == 0.0 && p.power == 0.0 && p.performance == 0.0);
        assert!(p.voltage.is_finite());
    }

    #[test]
    fn exact_boundary_frequencies_belong_to_the_upper_region() {
        let m = VoltageScalingModel::paper_illustration();
        assert_eq!(m.region(m.vccmin_frequency), OperatingRegion::Cubic);
        assert_eq!(m.region(m.low_voltage_frequency), OperatingRegion::LowVoltage);
        assert_eq!(m.classic_voltage(m.vccmin_frequency), m.vccmin_voltage);
        assert_eq!(
            m.below_vccmin_voltage(m.low_voltage_frequency),
            m.low_voltage_floor
        );
        assert_eq!(m.point_at(1.0).voltage, 1.0);
        assert_eq!(m.point_at(0.0).power, 0.0);
    }

    #[test]
    fn degenerate_zero_width_low_voltage_region_does_not_divide_by_zero() {
        // A model whose Vcc-min and floor coincide has an empty LowVoltage span;
        // the penalty interpolation must not produce NaN.
        let m = VoltageScalingModel {
            vccmin_frequency: 0.5,
            vccmin_voltage: 0.5,
            low_voltage_frequency: 0.5,
            low_voltage_floor: 0.5,
            low_voltage_perf_penalty: 0.1,
        };
        for f in [0.0, 0.25, 0.5, 0.75, 1.0, -1.0, 2.0, f64::NAN] {
            let p = m.point_at(f);
            assert!(p.performance.is_finite() && p.voltage.is_finite() && p.power.is_finite());
        }
        // The boundary belongs to the Cubic region; just below it the Linear
        // region's full penalty applies (the empty LowVoltage span never ramps).
        assert_eq!(m.point_at(0.5).performance, 0.5);
        assert!((m.point_at(0.4).performance - 0.4 * (1.0 - 0.1)).abs() < 1e-12);
    }

    #[test]
    fn curves_are_monotone_in_frequency() {
        let m = VoltageScalingModel::paper_illustration();
        for curve in [m.classic_curve(50), m.below_vccmin_curve(50)] {
            for pair in curve.windows(2) {
                assert!(pair[1].performance >= pair[0].performance - 1e-12);
                assert!(pair[1].power >= pair[0].power - 1e-12);
            }
        }
    }
}
