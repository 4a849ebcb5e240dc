//! Seeded randomness and the summary statistics the benchmark reports.
//!
//! The generator lives here, not in a repository crate, so the inputs a
//! seed produces cannot change from outside the benchmark.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`tag`) of one run (`seed`).
    pub fn stream(seed: u64, tag: u64) -> Rng {
        let mut base = Rng(seed);
        Rng(base.next_u64() ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so the spreads printed here match the acceptance rule.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    match data.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let ld = data.len() as i64;
    let m = ld + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (data[j as usize - 1] * (4.0 - delta) + data[j as usize] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let data = sorted(values);
    if data.is_empty() {
        return 0.0;
    }
    let rank = ((q * data.len() as f64).ceil() as usize).clamp(1, data.len());
    data[rank - 1]
}

/// The `q`-quantile of a server latency histogram in milliseconds,
/// interpolated linearly inside the bucket that holds the rank. The
/// server records whole microseconds into log-linear buckets; reading
/// the bucket bound alone would repeat the same grid value run after
/// run, so the position of the rank inside its bucket is kept.
pub fn histogram_quantile_ms(snapshot: &denali_metrics::HistogramSnapshot, q: f64) -> f64 {
    let count = snapshot.count();
    if count == 0 {
        return 0.0;
    }
    let rank = (q * count as f64).clamp(0.0, count as f64);
    let mut seen = 0u64;
    for (index, c) in snapshot.nonzero() {
        if (seen + c) as f64 >= rank {
            let (lower, upper) = denali_metrics::bucket_bounds(index);
            let within = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
            let us = lower as f64 + within * (upper + 1 - lower) as f64;
            return us / 1e3;
        }
        seen += c;
    }
    snapshot.max as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(1, 7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::stream(1, 7).next_u64(), Rng::stream(2, 7).next_u64());
        assert_ne!(Rng::stream(1, 7).next_u64(), Rng::stream(1, 8).next_u64());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
    }
}
