//! Deterministic randomness for simulations.
//!
//! Every source of randomness in a simulation flows from one master seed so
//! that runs are exactly reproducible. [`SimRng`] is a self-contained
//! SplitMix64 generator (the same construction `hope-core`'s program
//! generator uses) and adds [`fork`](SimRng::fork) to derive independent,
//! stable sub-streams (one per network link, one per process, …) without
//! the sub-streams perturbing each other's draw sequences. Being
//! dependency-free keeps the whole workspace buildable with no registry
//! access.

/// A seeded random-number generator for simulation components.
///
/// SplitMix64: tiny, fast, and statistically strong enough for simulation
/// workloads (it is the generator used to seed xoshiro/xoroshiro family
/// generators). Every draw advances a 64-bit counter state by a Weyl
/// constant and mixes it, so streams never short-cycle.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
    seed: u64,
}

impl SimRng {
    /// Create a generator from a master seed.
    pub fn new(seed: u64) -> Self {
        SimRng { state: seed, seed }
    }

    /// The seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent sub-stream keyed by `stream`. Deterministic:
    /// the same `(seed, stream)` always yields the same sequence, and
    /// drawing from a fork does not affect the parent.
    pub fn fork(&self, stream: u64) -> SimRng {
        // SplitMix-style mix of seed and stream id.
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD129_0D3B_3F6C_4B7B));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SimRng::new(z ^ (z >> 31))
    }

    /// A uniformly random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits → the unit interval, the standard recipe.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        let span = hi - lo;
        // Debiased multiply-shift (Lemire): uniform without modulo bias.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(span as u128);
        let mut l = m as u64;
        if l < span {
            let t = span.wrapping_neg() % span;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(span as u128);
                l = m as u64;
            }
        }
        lo + (m >> 64) as u64
    }

    /// A uniform index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        self.range_u64(0, n as u64) as usize
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(8);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn forks_are_stable_and_independent() {
        let parent = SimRng::new(42);
        let mut f1 = parent.fork(1);
        let mut f1_again = parent.fork(1);
        let mut f2 = parent.fork(2);
        let s1: Vec<u64> = (0..8).map(|_| f1.next_u64()).collect();
        let s1b: Vec<u64> = (0..8).map(|_| f1_again.next_u64()).collect();
        let s2: Vec<u64> = (0..8).map(|_| f2.next_u64()).collect();
        assert_eq!(s1, s1b);
        assert_ne!(s1, s2);
    }

    #[test]
    fn range_and_index_respect_bounds() {
        let mut r = SimRng::new(1);
        for _ in 0..100 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let i = r.index(5);
            assert!(i < 5);
        }
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut r = SimRng::new(9);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(r.chance(2.0)); // clamped
        assert!(!r.chance(-1.0)); // clamped
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SimRng::new(1).range_u64(5, 5);
    }
}
