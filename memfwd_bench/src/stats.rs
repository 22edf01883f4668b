//! Order statistics for timings: median and quartiles, and the tail
//! percentile rule.

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// The interquartile range as a share of the median (0 for a zero
    /// median, which no reported metric has).
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile (0 < p < 100) of sorted data, interpolated at rank
/// `p/100 * (n + 1)`: the "exclusive" method of Python's
/// `statistics.quantiles`, including its linear extrapolation at the ends
/// for very small samples, so quartiles here match the ones a reader gets
/// from Python on the same values.
fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let h = p / 100.0 * (n as f64 + 1.0);
            let j = (h.floor() as usize).clamp(1, n - 1);
            let frac = h - j as f64;
            v[j - 1] + frac * (v[j] - v[j - 1])
        }
    }
}

/// The `p`-th percentile of `values` (see [`percentile_sorted`]).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(values), p)
}

/// Median and quartiles, or `None` for no samples.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    Some(Summary {
        median,
        q1: percentile_sorted(&v, 25.0),
        q3: percentile_sorted(&v, 75.0),
        n,
    })
}

/// Percentiles a tail may be reported at, from least to most extreme.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of the ladder that leaves at least ten samples
/// beyond it among `n`, or `None` below 20 samples. A tail reported above
/// that rests on fewer than ten observations and moves with every outlier.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_exclusive_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).expect("samples");
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).expect("samples");
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: extrapolated ends
        let s = summarize(&[2.0, 1.0]).expect("samples");
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = summarize(&[7.0]).expect("one sample");
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 1));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn relative_iqr_is_a_share_of_the_median() {
        let s = summarize(&[90.0, 100.0, 100.0, 110.0]).expect("samples");
        assert_eq!(s.median, 100.0);
        assert!((s.rel_iqr() - (s.q3 - s.q1) / 100.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
    }
}
