//! The benchmark's own PRNG: every input is a function of `--seed` and
//! nothing else, so two commits see the same requests.

/// SplitMix64 (Steele, Lea & Flood): one `u64` of state, full period,
/// good enough to shuffle working sets and pick batches.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(label, index)`, so a workload's pass
    /// `k` is the same whether or not passes `0..k` were generated.
    pub fn stream(seed: u64, label: &str, index: u64) -> Self {
        let mut h = qsdnn::engine::Fnv64::new();
        h.write_u64(seed);
        h.write_str(label);
        h.write_u64(index);
        let mut rng = Rng(h.finish());
        rng.next_u64(); // decorrelate from the raw hash
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁵⁰ for the
    /// ranges used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_shuffle_is_a_permutation() {
        let (mut a, mut b) = (Rng::stream(7, "x", 1), Rng::stream(7, "x", 1));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(
            Rng::stream(7, "x", 1).next_u64(),
            Rng::stream(7, "x", 2).next_u64()
        );
        let mut v: Vec<usize> = (0..44).collect();
        a.shuffle(&mut v);
        assert_ne!(v, (0..44).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..44).collect::<Vec<_>>());
    }
}
