//! The benchmark's own arithmetic: medians, tail percentiles, ratios.
//!
//! Every rule here is pinned by the unit tests at the bottom, so a number
//! the benchmark prints can be traced back to a tested definition.

/// The median of `samples` (mean of the middle pair for even counts);
/// `None` for an empty slice. A median is always reported, whatever the
/// sample count: the count is printed next to it.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 { s[n / 2] } else { (s[n / 2 - 1] + s[n / 2]) / 2.0 })
}

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported.
pub const TAIL_BEYOND: usize = 10;

/// The nearest-rank `q` percentile (`0 < q < 1`) of `samples`, or `None`
/// unless at least [`TAIL_BEYOND`] samples lie beyond it. The nearest rank
/// is `ceil(q * n)`; the samples beyond it are the `n - rank` larger ones.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n == 0 || rank > n || n - rank < TAIL_BEYOND {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank - 1])
}

/// The highest of p99, p95, p90 and p50 that [`tail`] can report, with its
/// label; `None` when even the median has fewer than [`TAIL_BEYOND`]
/// samples beyond it.
pub fn highest_tail(samples: &[f64]) -> Option<(&'static str, f64)> {
    [("p99", 0.99), ("p95", 0.95), ("p90", 0.90), ("p50", 0.50)]
        .into_iter()
        .find_map(|(label, q)| tail(samples, q).map(|v| (label, v)))
}

/// `part / whole`, or `None` when the base is zero. Every ratio the
/// benchmark prints goes through here, with its base printed beside it.
pub fn ratio(part: f64, whole: f64) -> Option<f64> {
    (whole != 0.0).then(|| part / whole)
}

/// Failed operations over attempted ones: `failed / attempted`.
pub fn failed_ratio(failed: u64, attempted: u64) -> Option<f64> {
    ratio(failed as f64, attempted as f64)
}

/// A cache's hit ratio over its lookups: `hits / (hits + misses)`.
pub fn hit_ratio(hits: u64, misses: u64) -> Option<f64> {
    ratio(hits as f64, (hits + misses) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples: rank 990, 10 beyond — reported.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.99), Some(990.0));
        // p99 of 999 samples: rank 990, only 9 beyond — withheld.
        assert_eq!(tail(&xs[..999], 0.99), None);
        // p90 of 100: rank 90, exactly 10 beyond.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.90), Some(90.0));
        assert_eq!(tail(&xs[..99], 0.90), None);
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn highest_tail_falls_back_to_lower_percentiles() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(highest_tail(&xs), Some(("p99", 990.0)));
        assert_eq!(highest_tail(&xs[..500]), Some(("p95", 475.0)));
        assert_eq!(highest_tail(&xs[..100]), Some(("p90", 90.0)));
        assert_eq!(highest_tail(&xs[..20]), Some(("p50", 10.0)));
        assert_eq!(highest_tail(&xs[..19]), None);
    }

    #[test]
    fn ratios_name_their_base_and_refuse_an_empty_one() {
        assert_eq!(failed_ratio(0, 40), Some(0.0));
        assert_eq!(failed_ratio(3, 12), Some(0.25));
        assert_eq!(failed_ratio(0, 0), None);
        assert_eq!(hit_ratio(3, 1), Some(0.75));
        assert_eq!(hit_ratio(0, 0), None);
        assert_eq!(ratio(1.0, 0.0), None);
    }
}
