//! Order statistics and the two pieces of ladder arithmetic (line through
//! two budgets, residual share).

/// `values` sorted ascending (timings are never NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count.
///
/// # Panics
///
/// Panics on an empty slice: every caller samples at least once.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method), so spreads computed here match the ones the acceptance check
/// computes. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Mean of the two fastest of a run's operation times (of one, that one):
/// the benchmark's statistic for "how long an operation takes". The box
/// this runs on is disturbed upward, for seconds or for a whole run
/// (README "Sizing"), and an operation's quiet time shows in nearly every
/// run, so the low end of a run's times stays with the program while its
/// median moves with the neighbours' load. Two rather than the single
/// fastest because the box also has a rare fast mode that one operation
/// can fall into. With five operations this is their lower quartile as
/// Python's `statistics.quantiles` gives it.
pub fn two_fastest(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "no operation was timed");
    let fastest = &v[..v.len().min(2)];
    fastest.iter().sum::<f64>() / fastest.len() as f64
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let q = quartiles(values)?;
    Some((q[2] - q[0]) / median(values))
}

/// Five-number summary plus the sample count, for `out/*.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Summarises `values`; with a single sample the quartiles collapse onto it.
pub fn summary(values: &[f64]) -> Summary {
    let v = sorted(values);
    let med = median(&v);
    let q = quartiles(&v).unwrap_or([med; 3]);
    Summary {
        n: v.len(),
        min: v[0],
        q1: q[0],
        median: med,
        q3: q[2],
        max: v[v.len() - 1],
    }
}

/// Slope and intercept of the line through two `(budget, time)` points:
/// the per-iteration cost and the fixed per-solve cost of a solver timed
/// at two iteration budgets.
pub fn line_through(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    let slope = (b.1 - a.1) / (b.0 - a.0);
    (slope, a.1 - slope * a.0)
}

/// Share of `measured` that `explained` (count × cost of the rung below)
/// does not account for. Negative when the rung below, timed alone, costs
/// more than it does inside the rung above.
pub fn residual_share(measured: f64, explained: f64) -> f64 {
    1.0 - explained / measured
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn two_fastest_of_few_and_many_operations() {
        assert_eq!(two_fastest(&[18.5]), 18.5);
        assert_eq!(two_fastest(&[4.9, 4.1, 6.0]), 4.5);
        let five = [5.0, 4.0, 4.5, 7.0, 6.0];
        assert_eq!(two_fastest(&five), 4.25);
        assert_eq!(Some(two_fastest(&five)), quartiles(&five).map(|q| q[0]));
        let thirteen: Vec<f64> = (1..=13).rev().map(f64::from).collect();
        assert_eq!(two_fastest(&thirteen), 1.5);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), Some(1.0));
        assert_eq!(spread(&[5.0]), None);
    }

    #[test]
    fn summary_collapses_on_one_sample() {
        let s = summary(&[2.5]);
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (1, 2.5, 2.5, 2.5, 2.5, 2.5)
        );
    }

    #[test]
    fn line_recovers_slope_and_intercept() {
        // time = 3 + 2 * budget
        let (slope, intercept) = line_through((5.0, 13.0), (15.0, 33.0));
        assert_eq!((slope, intercept), (2.0, 3.0));
    }

    #[test]
    fn residual_share_arithmetic() {
        assert_eq!(residual_share(10.0, 9.0), 1.0 - 0.9);
        assert!(residual_share(10.0, 12.0) < 0.0);
        assert_eq!(residual_share(4.0, 4.0), 0.0);
    }
}
