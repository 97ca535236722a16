//! Order statistics shared by the run report, the trace summary and
//! `compare`.

/// `(q1, median, q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match a Python computation over the same
/// numbers. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    match n {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (d[0], d[0], d[0]),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// The median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The nearest-rank `p`-quantile (`0 < p ≤ 1`) of ascending `sorted`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.5), 50.0);
        assert_eq!(nearest_rank(&xs, 0.99), 99.0);
        assert_eq!(nearest_rank(&xs[..1], 0.99), 1.0);
    }
}
