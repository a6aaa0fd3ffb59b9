//! Seeded input generation: RNG, zipfian sampler, key permutations and
//! record bodies. Everything a workload feeds the database is drawn here,
//! before the clock starts, from the run's `--seed`; the timed loops touch
//! no RNG and build no bodies.

/// xoshiro256** seeded through splitmix64: small, fast, and owned by the
/// benchmark so its streams cannot change under a dependency.
pub struct Rng([u64; 4]);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    /// An independent stream for one purpose (`lane`) of one run.
    pub fn fork(seed: u64, lane: u64) -> Rng {
        Rng::new(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `0..n` (`n > 0`); the multiply-shift bias is below 2^-32
    /// for every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `pct` percent.
    pub fn percent(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipfian ranks in `0..n` with skew `theta` (Gray et al., "Quickly
/// Generating Billion-Record Synthetic Databases" — the YCSB generator).
/// Rank 0 is the most popular; callers map ranks to keys through a seeded
/// permutation so popularity is not correlated with key order.
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n >= 2, "zipfian needs at least two items");
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// A seeded permutation of `0..n`.
pub fn permutation(rng: &mut Rng, n: usize) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut p);
    p
}

/// Fills `out` with text-like filler: 64 printable symbols, so bodies are
/// neither all-zero (trivially compressible) nor pure noise.
pub fn fill_text(rng: &mut Rng, out: &mut [u8]) {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 .";
    for chunk in out.chunks_mut(10) {
        let mut bits = rng.next_u64();
        for b in chunk {
            *b = ALPHABET[(bits & 63) as usize];
            bits >>= 6;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_ne!(
            Rng::fork(7, 1).next_u64(),
            Rng::fork(7, 2).next_u64(),
            "lanes of one seed are independent"
        );
    }

    #[test]
    fn zipf_is_skewed_bounded_and_deterministic() {
        let z = Zipf::new(512, 0.99);
        let sample = |seed| {
            let mut r = Rng::new(seed);
            (0..20_000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = sample(1);
        assert_eq!(a, sample(1));
        assert_ne!(a, sample(2));
        assert!(a.iter().all(|r| *r < 512));
        let top = a.iter().filter(|r| **r == 0).count();
        let mid = a.iter().filter(|r| **r == 255).count();
        // zeta(512, 0.99) ≈ 6.9, so rank 0 draws ≈ 14% and rank 255 ≈ 0.06%.
        assert!(top > 2000 && top < 3800, "rank 0 drew {top}");
        assert!(mid < 60, "rank 255 drew {mid}");
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut p = permutation(&mut Rng::new(3), 1000);
        assert_ne!(p, (0..1000).collect::<Vec<u32>>());
        p.sort_unstable();
        assert_eq!(p, (0..1000).collect::<Vec<u32>>());
    }
}
