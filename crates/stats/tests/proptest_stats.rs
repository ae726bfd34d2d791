//! Property tests on statistical invariants.

use coevo_stats::fisher::fisher_exact_rx2_enumerate;
use coevo_stats::{
    chi_square_independence, fisher_exact_2x2, fisher_exact_rx2, kendall_tau_b, kruskal_wallis,
    mann_whitney_u, quantile, rank_with_ties, shapiro_wilk, shapiro_wilk_checked, ShapiroError,
};
use proptest::prelude::*;

/// Exact small-sample enumeration of the Mann–Whitney U distribution: the U
/// statistic of the first group under every possible assignment of the
/// pooled sample into groups of size `n1` and `n − n1`.
fn enumerate_u(pooled: &[f64], n1: usize) -> Vec<f64> {
    let n = pooled.len();
    assert!(n <= 12, "enumeration is exponential; keep the sample small");
    let mut us = Vec::new();
    for mask in 0u32..(1 << n) {
        if mask.count_ones() as usize != n1 {
            continue;
        }
        let mut a = Vec::with_capacity(n1);
        let mut b = Vec::with_capacity(n - n1);
        for (i, &v) in pooled.iter().enumerate() {
            if mask & (1 << i) != 0 {
                a.push(v);
            } else {
                b.push(v);
            }
        }
        // U₁ = R₁ − n₁(n₁+1)/2 over the midranks of the pooled sample.
        let arranged: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let ranks = rank_with_ties(&arranged);
        let r1: f64 = ranks[..n1].iter().sum();
        us.push(r1 - (n1 * (n1 + 1)) as f64 / 2.0);
    }
    us
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ranks_are_permutation_equivariant(mut xs in prop::collection::vec(-100.0f64..100.0, 2..40)) {
        let ranks = rank_with_ties(&xs);
        // Reversing the data reverses the ranks.
        xs.reverse();
        let mut rev_ranks = rank_with_ties(&xs);
        rev_ranks.reverse();
        prop_assert_eq!(ranks, rev_ranks);
    }

    #[test]
    fn ranks_sum_to_triangular(xs in prop::collection::vec(-10.0f64..10.0, 1..50)) {
        let n = xs.len();
        let sum: f64 = rank_with_ties(&xs).iter().sum();
        prop_assert!((sum - (n * (n + 1)) as f64 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn kendall_is_bounded_and_symmetric(
        pairs in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 2..40)
    ) {
        let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Some(t) = kendall_tau_b(&x, &y) {
            prop_assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&t));
            prop_assert_eq!(Some(t), kendall_tau_b(&y, &x));
        }
    }

    #[test]
    fn kendall_invariant_under_monotone_transform(
        pairs in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 3..30)
    ) {
        let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let x2: Vec<f64> = x.iter().map(|v| v.exp()).collect(); // strictly monotone
        match (kendall_tau_b(&x, &y), kendall_tau_b(&x2, &y)) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9),
            (None, None) => {}
            other => prop_assert!(false, "definedness mismatch {other:?}"),
        }
    }

    #[test]
    fn kruskal_invariant_under_monotone_transform(
        a in prop::collection::vec(0.0f64..10.0, 3..20),
        b in prop::collection::vec(0.0f64..10.0, 3..20),
        c in prop::collection::vec(0.0f64..10.0, 3..20),
    ) {
        let r1 = kruskal_wallis(&[&a, &b, &c]);
        let ta: Vec<f64> = a.iter().map(|v| v * v + 1.0).collect(); // monotone on [0,10]
        let tb: Vec<f64> = b.iter().map(|v| v * v + 1.0).collect();
        let tc: Vec<f64> = c.iter().map(|v| v * v + 1.0).collect();
        let r2 = kruskal_wallis(&[&ta, &tb, &tc]);
        match (r1, r2) {
            (Some(r1), Some(r2)) => {
                prop_assert!((r1.h - r2.h).abs() < 1e-9, "{} vs {}", r1.h, r2.h);
            }
            (None, None) => {}
            other => prop_assert!(false, "definedness mismatch {other:?}"),
        }
    }

    #[test]
    fn kruskal_group_order_irrelevant(
        a in prop::collection::vec(0.0f64..10.0, 3..15),
        b in prop::collection::vec(0.0f64..10.0, 3..15),
    ) {
        let r1 = kruskal_wallis(&[&a, &b]);
        let r2 = kruskal_wallis(&[&b, &a]);
        prop_assert_eq!(r1, r2);
    }

    #[test]
    fn fisher_2x2_transpose_invariance(a in 0u64..25, b in 0u64..25, c in 0u64..25, d in 0u64..25) {
        prop_assume!(a + b + c + d > 0);
        let p1 = fisher_exact_2x2(a, b, c, d);
        let p2 = fisher_exact_2x2(a, c, b, d); // transpose
        if let (Some(p1), Some(p2)) = (p1, p2) {
            prop_assert!((p1 - p2).abs() < 1e-9, "{p1} vs {p2}");
        }
    }

    #[test]
    fn fisher_p_in_unit_interval(a in 0u64..30, b in 0u64..30, c in 0u64..30, d in 0u64..30) {
        prop_assume!(a + b + c + d > 0);
        let p = fisher_exact_2x2(a, b, c, d).unwrap();
        prop_assert!(p > 0.0 && p <= 1.0 + 1e-12);
    }

    #[test]
    fn fisher_rx2_network_matches_enumeration(
        cells in prop::collection::vec((0u64..41, 0u64..41), 2..7),
        cap in 0u64..41,
    ) {
        // Cells folded under a per-case cap, so tables of every size from
        // near-empty to 40 per cell turn up, and small ones enumerate.
        let rows: Vec<(u64, u64)> =
            cells.iter().map(|&(a, b)| (a % (cap + 1), b % (cap + 1))).collect();
        let non_empty = rows.iter().filter(|&&(a, b)| a + b > 0).count();
        let col1: u64 = rows.iter().map(|r| r.0).sum();
        let col2: u64 = rows.iter().map(|r| r.1).sum();
        let degenerate = non_empty < 2 || col1 == 0 || col2 == 0;
        let net = fisher_exact_rx2(&rows, u64::MAX);
        prop_assert_eq!(net.is_none(), degenerate);
        if let (Some(net), Some(reference)) = (net, fisher_exact_rx2_enumerate(&rows, 200_000)) {
            prop_assert!(
                (net - reference).abs() <= 1e-9 * reference,
                "network {net} vs enumeration {reference}"
            );
        }
    }

    #[test]
    fn chi2_row_swap_invariance(
        r1 in prop::collection::vec(1u64..40, 3),
        r2 in prop::collection::vec(1u64..40, 3),
        r3 in prop::collection::vec(1u64..40, 3),
    ) {
        let t1 = chi_square_independence(&[r1.clone(), r2.clone(), r3.clone()]).unwrap();
        let t2 = chi_square_independence(&[r3, r1, r2]).unwrap();
        prop_assert!((t1.statistic - t2.statistic).abs() < 1e-9);
        prop_assert_eq!(t1.df, t2.df);
    }

    #[test]
    fn shapiro_scale_location_invariance(
        xs in prop::collection::vec(-5.0f64..5.0, 10..60),
        shift in -100.0f64..100.0,
        scale in 0.1f64..50.0,
    ) {
        let transformed: Vec<f64> = xs.iter().map(|v| v * scale + shift).collect();
        match (shapiro_wilk(&xs), shapiro_wilk(&transformed)) {
            (Some(a), Some(b)) => {
                prop_assert!((a.w - b.w).abs() < 1e-6, "{} vs {}", a.w, b.w);
            }
            (None, None) => {}
            other => prop_assert!(false, "definedness mismatch {other:?}"),
        }
    }

    #[test]
    fn quantile_within_range(xs in prop::collection::vec(-100.0f64..100.0, 1..50), q in 0.0f64..=1.0) {
        let v = quantile(&xs, q).unwrap();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
    }

    #[test]
    fn mann_whitney_all_tied_agrees_with_exact_enumeration(
        v in -100.0f64..100.0,
        n1 in 1usize..6,
        n2 in 1usize..6,
    ) {
        // Exact enumeration over every group assignment of an all-tied pooled
        // sample: U is the same constant (n₁n₂/2) for all C(n, n₁)
        // arrangements, so the permutation distribution is degenerate and no
        // p-value is defined. The implementation must agree by declining
        // rather than fabricating a p from zero variance.
        let pooled = vec![v; n1 + n2];
        let us = enumerate_u(&pooled, n1);
        let expected = (n1 * n2) as f64 / 2.0;
        prop_assert!(us.iter().all(|&u| (u - expected).abs() < 1e-9));
        prop_assert_eq!(mann_whitney_u(&pooled[..n1], &pooled[n1..]), None);
    }

    #[test]
    fn mann_whitney_u_statistic_matches_exact_enumeration_identity(
        a in prop::collection::vec(0.0f64..4.0, 2..5),
        b in prop::collection::vec(0.0f64..4.0, 2..5),
    ) {
        // The identity arrangement (first n₁ observations → group one) must
        // produce exactly the U the implementation reports, and every
        // enumerated U must respect 0 ≤ U ≤ n₁n₂.
        let pooled: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let us = enumerate_u(&pooled, a.len());
        if let Some(r) = mann_whitney_u(&a, &b) {
            prop_assert!(us.iter().any(|&u| (u - r.u).abs() < 1e-9));
            let max_u = (a.len() * b.len()) as f64;
            prop_assert!(us.iter().all(|&u| (-1e-9..=max_u + 1e-9).contains(&u)));
        }
    }

    #[test]
    fn kruskal_all_tied_is_undefined(
        v in -100.0f64..100.0,
        na in 1usize..5,
        nb in 1usize..5,
        nc in 0usize..5,
    ) {
        // With every observation identical, each group's rank sum is forced
        // to nᵢ(n+1)/2 under every arrangement, the uncorrected H is 0, and
        // the tie correction divides by zero — the exact permutation
        // distribution is degenerate, so the implementation must return None.
        prop_assume!(na + nb + nc >= 3);
        let a = vec![v; na];
        let b = vec![v; nb];
        let c = vec![v; nc];
        prop_assert_eq!(kruskal_wallis(&[&a, &b, &c]), None);
    }

    #[test]
    fn shapiro_never_panics_on_nan(
        mut xs in prop::collection::vec(-10.0f64..10.0, 3..30),
        idx in 0usize..30,
    ) {
        // A NaN anywhere in the sample is a typed error, not a panic in the
        // sort comparator.
        let slot = idx % xs.len();
        xs[slot] = f64::NAN;
        prop_assert_eq!(shapiro_wilk_checked(&xs), Err(ShapiroError::NotFinite));
        prop_assert_eq!(shapiro_wilk(&xs), None);
    }

    #[test]
    fn shapiro_small_samples_are_typed_errors(xs in prop::collection::vec(-10.0f64..10.0, 0..3)) {
        prop_assert_eq!(shapiro_wilk_checked(&xs), Err(ShapiroError::TooFew { n: xs.len() }));
    }
}
