//! Sample statistics used by every metric: medians, the tail percentile
//! rule and paired ratios.

/// Median of `xs` (mean of the two middle values for even counts);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    })
}

/// Smallest of `xs`; `None` when empty. On a shared host the noise of a
/// timing is one-sided (a busy neighbour only slows a call down), so the
/// fastest of many calls is the steadiest estimate of the call's cost.
pub fn fastest(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::min)
}

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const TAIL_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) by nearest rank, but only when at least
/// [`TAIL_BEYOND`] samples lie strictly beyond its rank; `None` otherwise.
/// For `q = 0.99` this needs at least 1000 samples.
pub fn tail_quantile(xs: &[f64], q: f64) -> Option<f64> {
    let n = xs.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Median over pairs of `f(a[i], b[i])` — the ratio or difference of two
/// samples taken in the same round, so that drift of the machine between
/// rounds cancels. Pairs beyond the shorter slice are ignored.
pub fn paired_median(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) -> Option<f64> {
    let vals: Vec<f64> = a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect();
    median(&vals)
}

/// Percentage by which `x` exceeds the base `base`.
pub fn pct_over(x: f64, base: f64) -> f64 {
    100.0 * (x / base - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), Some(1.5));
        assert_eq!(fastest(&[7.0]), Some(7.0));
        assert_eq!(fastest(&[]), None);
    }

    #[test]
    fn tail_quantile_needs_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 leaves exactly ten samples beyond it.
        assert_eq!(tail_quantile(&xs, 0.99), Some(990.0));
        assert_eq!(tail_quantile(&xs[..999], 0.99), None);
        assert_eq!(tail_quantile(&xs[..100], 0.9), Some(90.0));
        assert_eq!(tail_quantile(&xs[..100], 0.95), None);
        assert_eq!(tail_quantile(&xs, 0.5), Some(500.0));
        assert_eq!(tail_quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_quantile_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail_quantile(&xs, 0.99), Some(990.0));
    }

    #[test]
    fn paired_median_pairs_by_index() {
        let a = [2.0, 10.0, 3.0];
        let b = [1.0, 4.0, 3.0];
        // Ratios 2.0, 2.5, 1.0 -> median 2.0; an unpaired median-ratio
        // would give 3/3 = 1.0.
        assert_eq!(paired_median(&a, &b, |x, y| x / y), Some(2.0));
        assert_eq!(paired_median(&a, &b, |x, y| x - y), Some(1.0));
        assert_eq!(paired_median(&a[..2], &b, |x, y| x / y), Some(2.25));
        assert_eq!(paired_median(&[], &b, |x, y| x / y), None);
    }

    #[test]
    fn pct_over_base() {
        assert!((pct_over(1.02, 1.0) - 2.0).abs() < 1e-9);
        assert!((pct_over(0.5, 1.0) + 50.0).abs() < 1e-9);
    }
}
