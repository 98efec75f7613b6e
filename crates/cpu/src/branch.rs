//! Branch prediction structures: gshare, return-address stack, and line predictor.
//!
//! Table II of the paper lists an 8 KB gshare predictor with 15 bits of global
//! history, a 16-entry return-address stack and a 6.5 KB line predictor. In a
//! trace-driven model the line predictor's job (predicting the next fetch block) is
//! subsumed by the branch-target information carried in the trace, so only its
//! misprediction effect on conditional branches and returns is modeled.

use crate::instruction::{BranchInfo, BranchKind};

/// A direction/target predictor for trace-driven simulation.
pub trait BranchPredictor {
    /// Predicts the branch at `pc` and updates internal state with the actual
    /// outcome. Returns `true` when the prediction was correct.
    fn predict_and_update(&mut self, pc: u64, info: &BranchInfo) -> bool;
}

/// Gshare conditional-branch predictor with a table of 2-bit saturating counters.
#[derive(Debug, Clone)]
pub struct GsharePredictor {
    history: u64,
    history_bits: u32,
    /// The 2-bit counters, four to a byte: counter `i` is bits
    /// `2 * (i % 4)..2 * (i % 4) + 2` of byte `i / 4`, so the table takes the
    /// storage of the modeled one (8 KB at 15 bits of history).
    counters: Vec<u8>,
}

/// Four weakly-taken (2) counters in one byte.
const WEAKLY_TAKEN_X4: u8 = 0b1010_1010;

impl GsharePredictor {
    /// Creates a predictor with `history_bits` bits of global history and
    /// `2^history_bits` two-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is 0 or greater than 24.
    #[must_use]
    pub fn new(history_bits: u32) -> Self {
        assert!(
            (1..=24).contains(&history_bits),
            "history_bits must be in 1..=24, got {history_bits}"
        );
        Self {
            history: 0,
            history_bits,
            counters: vec![WEAKLY_TAKEN_X4; (1usize << history_bits).div_ceil(4)],
        }
    }

    /// The paper's 15-bit-history (8 KB) gshare predictor.
    #[must_use]
    pub fn ispass2010() -> Self {
        Self::new(15)
    }

    fn index(&self, pc: u64) -> usize {
        let mask = (1u64 << self.history_bits) - 1;
        (((pc >> 2) ^ self.history) & mask) as usize
    }

    /// Predicts the direction of the conditional branch at `pc` and updates the
    /// counters and history with the actual direction. Returns `true` when the
    /// predicted direction matches `taken`.
    pub fn predict_and_update_direction(&mut self, pc: u64, taken: bool) -> bool {
        let idx = self.index(pc);
        let byte = &mut self.counters[idx / 4];
        let shift = (idx % 4) * 2;
        let counter = (*byte >> shift) & 3;
        let predicted_taken = counter >= 2;
        // Update the 2-bit saturating counter.
        let counter = if taken {
            (counter + 1).min(3)
        } else {
            counter.saturating_sub(1)
        };
        *byte = (*byte & !(3 << shift)) | (counter << shift);
        // Update the global history.
        self.history = ((self.history << 1) | u64::from(taken)) & ((1 << self.history_bits) - 1);
        predicted_taken == taken
    }
}

/// A 16-entry return-address stack.
#[derive(Debug, Clone)]
pub struct ReturnAddressStack {
    stack: Vec<u64>,
    capacity: usize,
}

impl ReturnAddressStack {
    /// Creates a RAS with the given capacity.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            stack: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Pushes a return address (on a call). The oldest entry is dropped on overflow.
    pub fn push(&mut self, return_addr: u64) {
        if self.capacity == 0 {
            return;
        }
        if self.stack.len() == self.capacity {
            self.stack.remove(0);
        }
        self.stack.push(return_addr);
    }

    /// Pops the predicted return address (on a return).
    pub fn pop(&mut self) -> Option<u64> {
        self.stack.pop()
    }

    /// Current number of entries.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.stack.len()
    }
}

/// The combined front-end predictor: gshare for conditional branches, RAS for
/// returns, and always-correct prediction for direct jumps/calls (their targets are
/// static and captured by the BTB/line predictor in a real machine).
#[derive(Debug, Clone)]
pub struct FrontEndPredictor {
    gshare: GsharePredictor,
    ras: ReturnAddressStack,
    /// Conditional branches seen / mispredicted (for statistics).
    pub conditional_branches: u64,
    /// Conditional branches mispredicted.
    pub mispredictions: u64,
}

impl FrontEndPredictor {
    /// Creates the paper's front-end predictor (15-bit gshare, 16-entry RAS).
    #[must_use]
    pub fn new(history_bits: u32, ras_entries: usize) -> Self {
        Self {
            gshare: GsharePredictor::new(history_bits),
            ras: ReturnAddressStack::new(ras_entries),
            conditional_branches: 0,
            mispredictions: 0,
        }
    }
}

impl BranchPredictor for FrontEndPredictor {
    fn predict_and_update(&mut self, pc: u64, info: &BranchInfo) -> bool {
        match info.kind {
            BranchKind::Conditional => {
                self.conditional_branches += 1;
                let correct = self.gshare.predict_and_update_direction(pc, info.taken);
                if !correct {
                    self.mispredictions += 1;
                }
                correct
            }
            BranchKind::Jump => true,
            BranchKind::Call => {
                // The return address is the instruction after the call.
                self.ras.push(pc.wrapping_add(4));
                true
            }
            BranchKind::Return => {
                let predicted = self.ras.pop();
                let correct = predicted == Some(info.target);
                if !correct {
                    self.mispredictions += 1;
                }
                correct
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gshare_learns_an_always_taken_branch() {
        let mut p = GsharePredictor::new(10);
        let mut correct = 0;
        for _ in 0..100 {
            if p.predict_and_update_direction(0x1000, true) {
                correct += 1;
            }
        }
        assert!(correct >= 98, "always-taken branch should be learned, got {correct}/100");
    }

    #[test]
    fn gshare_learns_an_alternating_pattern_through_history() {
        let mut p = GsharePredictor::new(10);
        let mut correct_tail = 0;
        for i in 0..400u32 {
            let taken = i % 2 == 0;
            let ok = p.predict_and_update_direction(0x2000, taken);
            if i >= 200 && ok {
                correct_tail += 1;
            }
        }
        assert!(
            correct_tail >= 190,
            "history should capture the alternation, got {correct_tail}/200"
        );
    }

    #[test]
    fn gshare_struggles_with_random_directions() {
        // A deterministic pseudo-random pattern: accuracy should be near 50%.
        let mut p = GsharePredictor::new(12);
        let mut state = 0x12345678u64;
        let mut correct = 0u32;
        let n = 2000;
        for _ in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let taken = (state >> 33) & 1 == 1;
            if p.predict_and_update_direction(0x3000, taken) {
                correct += 1;
            }
        }
        let acc = f64::from(correct) / f64::from(n);
        assert!((0.35..0.65).contains(&acc), "accuracy on random branches: {acc}");
    }

    #[test]
    #[should_panic(expected = "history_bits")]
    fn gshare_rejects_zero_history_bits() {
        let _ = GsharePredictor::new(0);
    }

    #[test]
    fn ras_predicts_well_nested_returns() {
        let mut ras = ReturnAddressStack::new(16);
        ras.push(0x100);
        ras.push(0x200);
        assert_eq!(ras.depth(), 2);
        assert_eq!(ras.pop(), Some(0x200));
        assert_eq!(ras.pop(), Some(0x100));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(0x100);
        ras.push(0x200);
        ras.push(0x300);
        assert_eq!(ras.depth(), 2);
        assert_eq!(ras.pop(), Some(0x300));
        assert_eq!(ras.pop(), Some(0x200));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn front_end_predictor_handles_calls_and_returns() {
        let mut p = FrontEndPredictor::new(15, 16);
        let call = BranchInfo {
            kind: BranchKind::Call,
            taken: true,
            target: 0x8000,
        };
        assert!(p.predict_and_update(0x1000, &call));
        let ret = BranchInfo {
            kind: BranchKind::Return,
            taken: true,
            target: 0x1004,
        };
        assert!(p.predict_and_update(0x8000, &ret));
        // A second return with an empty RAS mispredicts.
        assert!(!p.predict_and_update(0x8004, &ret));
        assert_eq!(p.mispredictions, 1);
    }

    #[test]
    fn jumps_are_always_predicted_correctly() {
        let mut p = FrontEndPredictor::new(15, 16);
        let jump = BranchInfo {
            kind: BranchKind::Jump,
            taken: true,
            target: 0x9000,
        };
        for _ in 0..10 {
            assert!(p.predict_and_update(0x4000, &jump));
        }
        assert_eq!(p.mispredictions, 0);
    }
}
