//! Deterministic seed derivation for experiment reproducibility.
//!
//! Every stochastic component of the reproduction (fault maps, synthetic workload
//! traces) is seeded explicitly. Experiments need many statistically independent
//! seeds derived from one master seed — e.g. the paper evaluates every block-disable
//! configuration over 50 fault-map *pairs* (instruction cache + data cache). The
//! [`SeedSequence`] type provides a small SplitMix64 generator for that purpose; it
//! is deliberately separate from the `rand` crate so that derived seeds remain
//! stable across `rand` version upgrades.

/// SplitMix64's state increment (the golden-ratio Weyl constant).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A deterministic sequence of 64-bit seeds derived from a master seed (SplitMix64).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeedSequence {
    state: u64,
}

impl SeedSequence {
    /// Creates a sequence from a master seed.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        Self { state: master_seed }
    }

    /// Returns the next seed in the sequence.
    pub fn next_seed(&mut self) -> u64 {
        // SplitMix64 step (public-domain constants from Vigna's reference code).
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Advances the sequence past `n` seeds in O(1): exactly as if
    /// [`SeedSequence::next_seed`] had been called `n` times. The state is a
    /// Weyl sequence, so `n` steps add `n` times the increment, modulo 2^64.
    pub fn discard(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GAMMA));
    }

    /// Returns a vector of `n` derived seeds.
    #[must_use]
    pub fn take_seeds(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_seed()).collect()
    }

    /// Derives a named sub-sequence: useful to give each component (fault maps,
    /// workloads, …) its own independent stream from one master seed.
    #[must_use]
    pub fn fork(&mut self, label: &str) -> Self {
        let mut h = self.next_seed();
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
        Self::new(h)
    }
}

impl Iterator for SeedSequence {
    type Item = u64;

    fn next(&mut self) -> Option<Self::Item> {
        Some(self.next_seed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn sequence_is_deterministic() {
        let a: Vec<u64> = SeedSequence::new(7).take_seeds(10);
        let b: Vec<u64> = SeedSequence::new(7).take_seeds(10);
        assert_eq!(a, b);
    }

    #[test]
    fn different_master_seeds_give_different_sequences() {
        let a: Vec<u64> = SeedSequence::new(1).take_seeds(5);
        let b: Vec<u64> = SeedSequence::new(2).take_seeds(5);
        assert_ne!(a, b);
    }

    #[test]
    fn seeds_are_unique_over_long_runs() {
        let seeds: HashSet<u64> = SeedSequence::new(42).take_seeds(10_000).into_iter().collect();
        assert_eq!(seeds.len(), 10_000);
    }

    #[test]
    fn forked_sequences_are_independent_of_label() {
        let mut master_a = SeedSequence::new(99);
        let mut master_b = SeedSequence::new(99);
        let fork_a = master_a.fork("fault-maps").take_seeds(4);
        let fork_b = master_b.fork("workloads").take_seeds(4);
        assert_ne!(fork_a, fork_b);
        // Forking consumes exactly one seed from the parent, so parents stay in sync.
        assert_eq!(master_a.next_seed(), master_b.next_seed());
    }

    #[test]
    fn discard_equals_drawing_the_seeds() {
        for n in [0u64, 1, 2, 7, 1000, 65_537] {
            let mut fast = SeedSequence::new(42);
            let mut slow = fast;
            fast.discard(n);
            for _ in 0..n {
                let _ = slow.next_seed();
            }
            assert_eq!(fast, slow, "n={n}");
            assert_eq!(fast.take_seeds(3), slow.take_seeds(3), "n={n}");
        }
    }

    #[test]
    fn iterator_interface_yields_seeds() {
        let seeds: Vec<u64> = SeedSequence::new(5).take(3).collect();
        assert_eq!(seeds.len(), 3);
        assert_eq!(seeds, SeedSequence::new(5).take_seeds(3));
    }
}
