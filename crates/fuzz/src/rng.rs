//! Deterministic xorshift64* generator.
//!
//! The fuzzer must reproduce byte-for-byte from a seed (CI reruns a failing
//! seed locally), so no ambient entropy source is used anywhere — this
//! generator is the subsystem's only randomness.

/// xorshift64* (Vigna 2016): 64-bit state, period 2^64 − 1, passes
/// BigCrush when the high bits are used — far more than a fuzzer needs,
/// and 4 lines of dependency-free code.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seed the generator. A zero seed is remapped (xorshift state must be
    /// nonzero) — deterministically, so seed 0 is still a valid run.
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform value in `lo..hi` (`lo < hi`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A random byte that is never zero (useful as an XOR mask: the
    /// mutation always changes the target byte).
    pub fn nonzero_byte(&mut self) -> u8 {
        loop {
            let b = (self.next_u64() >> 32) as u8;
            if b != 0 {
                return b;
            }
        }
    }

    /// Pick one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Rng::new(0);
        let vals: Vec<u64> = (0..10).map(|_| r.next_u64()).collect();
        assert!(vals.iter().any(|&v| v != 0));
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
            let x = r.range(5, 9);
            assert!((5..9).contains(&x));
        }
    }

    #[test]
    fn nonzero_byte_is_nonzero() {
        let mut r = Rng::new(3);
        for _ in 0..1000 {
            assert_ne!(r.nonzero_byte(), 0);
        }
    }
}
