//! Summary statistics.

/// Summary of a sample of f64 values.
///
/// # Examples
///
/// ```
/// use mssp_stats::Summary;
/// let s = Summary::of(&[1.0, 2.0, 4.0]);
/// assert!((s.mean - 7.0 / 3.0).abs() < 1e-12);
/// assert!((s.geomean - 2.0).abs() < 1e-12);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Geometric mean (0 if any value is non-positive).
    pub geomean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes the summary of `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "cannot summarize an empty sample");
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        let geomean = if values.iter().all(|&v| v > 0.0) {
            (values.iter().map(|v| v.ln()).sum::<f64>() / n as f64).exp()
        } else {
            0.0
        };
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            n,
            mean,
            geomean,
            stddev: var.sqrt(),
            min,
            max,
        }
    }
}

/// Geometric mean convenience helper (0 if empty or any non-positive).
///
/// # Examples
///
/// ```
/// use mssp_stats::geomean;
/// assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        0.0
    } else {
        (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
    }
}

/// A fixed-bin histogram over `[lo, hi)` with overflow/underflow counts.
///
/// # Examples
///
/// ```
/// use mssp_stats::Histogram;
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// for v in [1.0, 2.5, 7.0, 11.0] {
///     h.add(v);
/// }
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.iter_bins().map(|(_, _, n)| n).sum::<u64>(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(bins > 0 && hi > lo);
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds a sample.
    pub fn add(&mut self, v: f64) {
        if v < self.lo {
            self.underflow += 1;
        } else if v >= self.hi {
            self.overflow += 1;
        } else {
            let n = self.bins.len();
            let idx = ((v - self.lo) / (self.hi - self.lo) * n as f64) as usize;
            self.bins[idx.min(n - 1)] += 1;
        }
    }

    /// Samples at or above range.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Per-bin counts with their `[lo, hi)` bounds.
    pub fn iter_bins(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins.iter().enumerate().map(move |(i, &c)| {
            let lo = self.lo + width * i as f64;
            (lo, lo + width, c)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_single_value() {
        let s = Summary::of(&[3.0]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.min, 3.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn geomean_of_nonpositive_is_zero() {
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(Summary::of(&[1.0, -2.0]).geomean, 0.0);
    }

    #[test]
    fn stddev_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.stddev - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_rejects_empty() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn histogram_bins_partition_range() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        for i in 0..100 {
            h.add(i as f64);
        }
        for (_, _, c) in h.iter_bins() {
            assert_eq!(c, 10);
        }
        assert_eq!(h.underflow, 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn histogram_boundary_values() {
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.add(0.0); // first bin
        h.add(5.0); // second bin
        h.add(10.0); // overflow (half-open)
        h.add(-0.1); // underflow
        let bins: Vec<u64> = h.iter_bins().map(|(_, _, c)| c).collect();
        assert_eq!(bins, vec![1, 1]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow, 1);
    }
}

/// The `q`-th percentile (0–100, nearest-rank method) of a sample.
///
/// # Panics
///
/// Panics if `values` is empty or `q > 100`.
///
/// # Examples
///
/// ```
/// use mssp_stats::percentile;
/// let v = [1.0, 2.0, 3.0, 4.0, 5.0];
/// assert_eq!(percentile(&v, 50), 3.0);
/// assert_eq!(percentile(&v, 100), 5.0);
/// ```
#[must_use]
pub fn percentile(values: &[f64], q: u8) -> f64 {
    assert!(!values.is_empty(), "empty sample");
    assert!(q <= 100, "percentile out of range");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    if q == 0 {
        return sorted[0];
    }
    let rank = ((q as f64 / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1)]
}

#[cfg(test)]
mod percentile_tests {
    use super::percentile;

    #[test]
    fn nearest_rank_behaviour() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 25), 10.0);
        assert_eq!(percentile(&v, 26), 20.0);
        assert_eq!(percentile(&v, 75), 30.0);
        assert_eq!(percentile(&v, 0), 10.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty() {
        let _ = percentile(&[], 50);
    }
}
