//! The aggregator: medians, quartiles and percentiles over a run's samples.

/// Sort a copy of `values` ascending (samples are finite by construction).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median of `values` (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// the spreads `--compare` prints are the ones the acceptance driver sees.
/// With fewer than two samples both quartiles are the sample itself.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Nearest-rank percentile (`p` in `0..=100`) of unsorted integer samples,
/// selecting in place.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_u32(samples: &mut [u32], p: f64) -> u32 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(idx).1
}

/// Median, extremes and count of one metric over a run's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median over the repetitions.
    pub median: f64,
    /// Smallest repetition.
    pub min: f64,
    /// Largest repetition.
    pub max: f64,
    /// Number of repetitions.
    pub n: usize,
}

impl Summary {
    /// Summarize `values`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Summary {
        let v = sorted(values);
        Summary {
            median: median(&v),
            min: v[0],
            max: v[v.len() - 1],
            n: v.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile_u32(&mut v, 99.0), 99);
        assert_eq!(percentile_u32(&mut v, 50.0), 50);
        assert_eq!(percentile_u32(&mut v, 100.0), 100);
        assert_eq!(percentile_u32(&mut v, 0.0), 1);
        assert_eq!(percentile_u32(&mut [7], 99.0), 7);
    }

    #[test]
    fn summary_reports_median_extremes_and_count() {
        let s = Summary::of(&[3.0, 9.0, 1.0, 5.0, 7.0]);
        assert_eq!(
            s,
            Summary {
                median: 5.0,
                min: 1.0,
                max: 9.0,
                n: 5
            }
        );
    }
}
