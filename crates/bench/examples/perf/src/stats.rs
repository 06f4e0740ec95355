//! Order statistics over timing samples, and span self time.

/// Sorted copy of `xs` (total order, so a stray NaN cannot panic the sort).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count. `0.0` for
/// an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(xs, n=4)` (the default, "exclusive"), so the
/// numbers a run prints agree with the spread rule in README.md. With
/// fewer than two samples both quartiles are the lone value (or `0.0`);
/// like Python's, the method extrapolates past the ends of tiny samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// sample at or below it. `0.0` for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `part / whole`, or `0.0` when nothing was attempted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Self time of each span: its duration minus the part of it that its
/// direct children cover. `spans[i] = (start, end, parent)`; a child lies
/// inside its parent and children of one parent do not overlap (spans are
/// recorded on one thread with a stack), so the children's durations are
/// simply subtracted.
pub fn self_times(spans: &[(f64, f64, Option<usize>)]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(|&(s, e, _)| e - s).collect();
    for &(s, e, parent) in spans {
        if let Some(p) = parent {
            out[p] -= e - s;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates beyond the sample.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn nearest_rank_p99_leaves_one_percent_above() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&xs, 50.0), 500.0);
        assert_eq!(percentile(&[2.0, 9.0, 4.0], 99.0), 9.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0, 10] ⊃ a [1, 4] ⊃ b [2, 3]; root ⊃ c [5, 9]
        let spans =
            [(0.0, 10.0, None), (1.0, 4.0, Some(0)), (2.0, 3.0, Some(1)), (5.0, 9.0, Some(0))];
        let st = self_times(&spans);
        assert_eq!(st, vec![3.0, 2.0, 1.0, 4.0]);
        // Self times of a well-nested tree sum to the root's duration.
        assert_eq!(st.iter().sum::<f64>(), 10.0);
    }
}
