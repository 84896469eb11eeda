//! Order statistics over the samples one run collects.

use mssp::stats::percentile;

/// The median of `samples` (nearest rank, as `mssp::stats::percentile`).
///
/// # Panics
///
/// Panics on an empty slice: a bug in the caller, never a measurement
/// outcome.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50)
}

/// The decile of `samples` on the good side: the 90th percentile of a
/// higher-is-better metric, the 10th of a lower-is-better one.
///
/// This, not the median, is the value reported for every timing. The
/// reference host is shared, and what it adds to a timing is one-sided:
/// a neighbour can only slow a cycle down. Over eight runs in a noisy
/// quarter of an hour the medians of the five throughputs ranged by
/// 10-20 % and their good deciles by 1-8 %; in a bad one medians moved by
/// 25-90 %. With 15 to 60 cycles the good decile is the second to sixth
/// best cycle, so one lucky cycle does not set it. The median, both
/// quartiles and the bad-side tail stay in the record.
///
/// # Panics
///
/// As [`median`].
#[must_use]
pub fn good_decile(samples: &[f64], higher_is_better: bool) -> f64 {
    percentile(samples, if higher_is_better { 90 } else { 10 })
}

/// The highest whole percentile that still has at least ten of `n`
/// samples beyond it, or `None` when fewer than twenty samples leave no
/// percentile above the median with that support.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n < 20 {
        return None;
    }
    Some((100 * (n - 10) / n) as u32)
}

/// What is recorded for one timed metric beside its reported value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value, see [`good_decile`].
    pub good_decile: f64,
    /// Median of the samples.
    pub median: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
    /// `(percentile, value)` of the worst-side tail, see
    /// [`tail_percentile`]. For a higher-is-better metric the tail is
    /// taken from the low end.
    pub tail: Option<(u32, f64)>,
    /// Sample count.
    pub n: usize,
}

/// Summarises `samples`; `higher_is_better` picks the good and bad ends.
#[must_use]
pub fn summarize(samples: &[f64], higher_is_better: bool) -> Summary {
    let tail = tail_percentile(samples.len()).map(|p| {
        let from_bad_end = if higher_is_better { 100 - p } else { p };
        (p, percentile(samples, from_bad_end as u8))
    });
    Summary {
        good_decile: good_decile(samples, higher_is_better),
        median: median(samples),
        p25: percentile(samples, 25),
        p75: percentile(samples, 75),
        tail,
        n: samples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_the_middle_order_statistic() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0, 5.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn good_decile_skips_the_luckiest_cycles() {
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(good_decile(&samples, true), 18.0);
        assert_eq!(good_decile(&samples, false), 2.0);
        let fifteen: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(good_decile(&fifteen, true), 14.0);
        assert_eq!(good_decile(&fifteen, false), 2.0);
        assert_eq!(good_decile(&[3.0], true), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(21), Some(52));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn tail_is_taken_from_the_bad_side() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let lower = summarize(&samples, false);
        let higher = summarize(&samples, true);
        assert_eq!(lower.n, 100);
        assert_eq!(lower.tail, Some((90, 90.0)));
        assert_eq!(higher.tail, Some((90, 10.0)));
        assert_eq!((lower.good_decile, higher.good_decile), (10.0, 90.0));
        assert_eq!((lower.p25, lower.median, lower.p75), (25.0, 50.0, 75.0));
    }
}
