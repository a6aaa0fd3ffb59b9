//! Log-bucketed latency histogram over nanosecond samples.
//!
//! Values below `2^SUB_BITS` get one bucket each; above, every octave is
//! split into `2^SUB_BITS` equal buckets, so a bucket is never wider than
//! 1/128 (0.78%) of its lower bound. Percentiles interpolate linearly
//! inside the bucket that holds the target rank, so two runs that differ by
//! a handful of samples report different values instead of the same bucket
//! edge.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    (((shift + 1) as u64 * SUB) + ((v >> shift) - SUB)) as usize
}

/// `[lo, hi)` covered by bucket `b`.
fn bounds_of(b: usize) -> (u64, u64) {
    let b = b as u64;
    if b < SUB {
        return (b, b + 1);
    }
    let shift = (b / SUB - 1) as u32;
    let lo = (SUB + b % SUB) << shift;
    (lo, lo.saturating_add(1 << shift))
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.sum += u128::from(ns);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn mean_ns(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The `q`-quantile (`0 < q <= 1`) in nanoseconds; `None` when empty.
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        // Rank of the wanted sample among `total`, 1-based and fractional.
        let target = (q * self.total as f64).clamp(1.0, self.total as f64);
        let mut before = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (before + c) as f64 >= target {
                let (lo, hi) = bounds_of(b);
                let inside = (target - before as f64) / c as f64;
                return Some(lo as f64 + (hi - lo) as f64 * inside);
            }
            before += c;
        }
        unreachable!("target rank is at most the total count")
    }

    /// The `q`-quantile in microseconds, or 0 when no sample was recorded.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q).map_or(0.0, |ns| ns / 1e3)
    }
}

/// Median of `values`, 0 when there are none.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut expected_lo = 0u64;
        for b in 0..BUCKETS - SUB as usize {
            let (lo, hi) = bounds_of(b);
            assert_eq!(lo, expected_lo, "bucket {b}");
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(hi - 1), b);
            expected_lo = hi;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_match_a_sorted_vector_within_one_percent() {
        let mut rng = Rng::new(11);
        // Three decades of latencies with a heavy tail, like a hit/miss mix.
        let mut samples: Vec<u64> = (0..50_000)
            .map(|_| {
                let base = 800 + rng.below(600);
                if rng.percent(8) {
                    base * (20 + rng.below(200))
                } else {
                    base
                }
            })
            .collect();
        let mut h = Hist::new();
        for s in &samples {
            h.record(*s);
        }
        samples.sort_unstable();
        assert_eq!(h.count(), samples.len() as u64);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let idx = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
            let oracle = samples[idx] as f64;
            let got = h.quantile_ns(q).unwrap();
            assert!(
                (got - oracle).abs() <= oracle * 0.01 + 1.0,
                "q={q}: histogram {got} vs oracle {oracle}"
            );
        }
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((h.mean_ns() - mean).abs() < 1e-6 * mean);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut both) = (Hist::new(), Hist::new(), Hist::new());
        for v in 1..2000u64 {
            if v % 2 == 0 { &mut a } else { &mut b }.record(v * 37);
            both.record(v * 37);
        }
        a.merge(&b);
        assert_eq!(a.quantile_ns(0.5), both.quantile_ns(0.5));
        assert_eq!(a.count(), both.count());
        assert!(Hist::new().quantile_ns(0.5).is_none());
        assert_eq!(median(Vec::new()), 0.0);
        assert_eq!(median(vec![3.0, 1.0]), 2.0);
        assert_eq!(median(vec![3.0, 9.0, 1.0]), 3.0);
    }
}
