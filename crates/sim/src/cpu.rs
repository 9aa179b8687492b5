//! A calibrated cost model of the evaluation MCU (ATMega128RFA1).
//!
//! The paper reports absolute times measured on a 16 MHz 8-bit AVR: 39.7 µs
//! per VM instruction, 11.1 µs per operand-stack push, 77.79 µs per routed
//! event, and the millisecond-scale network operations of Table 4. Running
//! the same algorithms on a multi-GHz host produces numbers three orders of
//! magnitude smaller, so the reproduction separates *what work is done*
//! (counted in abstract AVR cycles by each component) from *what it costs*
//! (this module converts cycles to virtual time and energy).
//!
//! Calibration sources:
//!
//! * clock: 16 MHz (62.5 ns per cycle) — ATMega128RFA1 datasheet, §35.
//! * active current: 4.1 mA at 3.3 V with the radio off — datasheet "active
//!   supply current" figure at 16 MHz.
//! * per-operation cycle counts: chosen so the reproduction's VM lands on
//!   the paper's §6.2 micro-measurements; see `upnp-vm::cost` for the
//!   opcode-level table and the calibration tests.

use crate::energy::PowerState;
use crate::time::SimDuration;

/// A cost expressed in abstract MCU cycles.
///
/// Components accumulate `CpuCost`s; the [`AvrCostModel`] converts them into
/// virtual time and energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuCost {
    /// Number of MCU clock cycles.
    pub cycles: u64,
}

impl CpuCost {
    /// The zero cost.
    pub const ZERO: CpuCost = CpuCost { cycles: 0 };

    /// Creates a cost of `cycles` clock cycles.
    pub const fn cycles(cycles: u64) -> Self {
        CpuCost { cycles }
    }

    /// Adds two costs, saturating.
    pub const fn plus(self, rhs: CpuCost) -> CpuCost {
        CpuCost {
            cycles: self.cycles.saturating_add(rhs.cycles),
        }
    }

    /// Scales the cost by a count, saturating.
    pub const fn times(self, n: u64) -> CpuCost {
        CpuCost {
            cycles: self.cycles.saturating_mul(n),
        }
    }
}

impl std::ops::Add for CpuCost {
    type Output = CpuCost;

    fn add(self, rhs: CpuCost) -> CpuCost {
        self.plus(rhs)
    }
}

impl std::ops::AddAssign for CpuCost {
    fn add_assign(&mut self, rhs: CpuCost) {
        *self = self.plus(rhs);
    }
}

impl std::iter::Sum for CpuCost {
    fn sum<I: Iterator<Item = CpuCost>>(iter: I) -> CpuCost {
        iter.fold(CpuCost::ZERO, CpuCost::plus)
    }
}

/// The ATMega128RFA1 cost model: clock frequency and supply draw.
#[derive(Debug, Clone, Copy)]
pub struct AvrCostModel {
    /// MCU clock frequency in hertz.
    pub clock_hz: u64,
    /// Supply voltage in volts.
    pub supply_v: f64,
    /// Active-mode current draw in amps (radio off).
    pub active_a: f64,
}

impl Default for AvrCostModel {
    fn default() -> Self {
        Self::atmega128rfa1()
    }
}

impl AvrCostModel {
    /// The evaluation platform of the paper: 16 MHz AVR at 3.3 V drawing
    /// 4.1 mA in active mode.
    pub const fn atmega128rfa1() -> Self {
        AvrCostModel {
            clock_hz: 16_000_000,
            supply_v: 3.3,
            active_a: 4.1e-3,
        }
    }

    /// Converts a cycle cost to virtual time.
    pub fn duration(&self, cost: CpuCost) -> SimDuration {
        // Split the multiply to avoid overflow: at 16 MHz one cycle is
        // 62.5 ns, i.e. 62 ns + 1/2 ns.
        let ns = (cost.cycles as u128 * 1_000_000_000u128 / self.clock_hz as u128) as u64;
        SimDuration::from_nanos(ns)
    }

    /// Converts a cycle cost to the energy spent executing it, in joules.
    pub fn energy_j(&self, cost: CpuCost) -> f64 {
        self.energy_over(self.duration(cost))
    }

    /// The energy spent executing for `duration` (say, one already
    /// computed by [`AvrCostModel::duration`]), in joules.
    pub fn energy_over(&self, duration: SimDuration) -> f64 {
        self.supply_v * self.active_a * duration.as_secs_f64()
    }

    /// Returns the number of whole cycles that fit in `dt`.
    pub fn cycles_in(&self, dt: SimDuration) -> CpuCost {
        CpuCost::cycles((dt.as_nanos() as u128 * self.clock_hz as u128 / 1_000_000_000u128) as u64)
    }

    /// The MCU's active power state, for use with a
    /// [`PowerTracker`](crate::energy::PowerTracker).
    pub fn active_state(&self) -> PowerState {
        PowerState::from_draw("mcu-active", self.supply_v, self.active_a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cycle_is_62_5ns() {
        let m = AvrCostModel::atmega128rfa1();
        // Two cycles are exactly 125 ns; one cycle truncates to 62 ns.
        assert_eq!(m.duration(CpuCost::cycles(2)).as_nanos(), 125);
        assert_eq!(m.duration(CpuCost::cycles(16)).as_nanos(), 1_000);
    }

    #[test]
    fn duration_roundtrips_through_cycles_in() {
        let m = AvrCostModel::atmega128rfa1();
        let c = CpuCost::cycles(1_234_560);
        assert_eq!(m.cycles_in(m.duration(c)), c);
    }

    #[test]
    fn paper_instruction_time_maps_to_expected_cycles() {
        // §6.2: 39.7 µs per instruction at 16 MHz is 635.2 cycles.
        let m = AvrCostModel::atmega128rfa1();
        let c = m.cycles_in(SimDuration::from_nanos(39_700));
        assert_eq!(c.cycles, 635);
    }

    #[test]
    fn energy_matches_v_times_i_times_t() {
        let m = AvrCostModel::atmega128rfa1();
        // 16 M cycles = 1 s at 3.3 V × 4.1 mA = 13.53 mJ.
        let e = m.energy_j(CpuCost::cycles(16_000_000));
        assert!((e - 0.01353).abs() < 1e-9);
    }

    #[test]
    fn cost_arithmetic() {
        let a = CpuCost::cycles(100) + CpuCost::cycles(50);
        assert_eq!(a.cycles, 150);
        assert_eq!(a.times(3).cycles, 450);
        let total: CpuCost = (1..=4).map(CpuCost::cycles).sum();
        assert_eq!(total.cycles, 10);
        let mut acc = CpuCost::ZERO;
        acc += CpuCost::cycles(7);
        assert_eq!(acc.cycles, 7);
    }

    #[test]
    fn no_overflow_on_large_costs() {
        let m = AvrCostModel::atmega128rfa1();
        // A year of cycles at 16 MHz.
        let c = CpuCost::cycles(16_000_000u64 * 31_536_000);
        let d = m.duration(c);
        assert!((d.as_secs_f64() - 31_536_000.0).abs() < 1.0);
    }

    #[test]
    fn active_state_watts() {
        let s = AvrCostModel::atmega128rfa1().active_state();
        assert!((s.watts - 0.01353).abs() < 1e-9);
    }
}
