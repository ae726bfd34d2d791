//! Probability distributions, built on the regularized incomplete gamma
//! function: normal CDF/quantile and chi-square CDF/survival.

/// Natural log of the gamma function (Lanczos approximation, g = 7, n = 9),
/// accurate to ~15 significant digits for positive arguments.
pub fn ln_gamma(x: f64) -> f64 {
    // Published Lanczos coefficients, kept verbatim (beyond f64 precision).
    #[allow(clippy::excessive_precision)]
    const G: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_59,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = G[0];
    let t = x + 7.5;
    for (i, &g) in G.iter().enumerate().skip(1) {
        a += g / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma function P(a, x) = γ(a,x)/Γ(a).
/// Series expansion for x < a + 1, continued fraction otherwise.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_p requires a > 0");
    if x <= 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma function Q(a, x) = 1 − P(a, x).
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_q requires a > 0");
    if x <= 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

fn gamma_q_cf(a: f64, x: f64) -> f64 {
    // Modified Lentz's method for the continued fraction.
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-16 {
            break;
        }
    }
    h * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Error function, via the incomplete gamma identity erf(x) = P(1/2, x²).
pub fn erf(x: f64) -> f64 {
    if x >= 0.0 {
        gamma_p(0.5, x * x)
    } else {
        -gamma_p(0.5, x * x)
    }
}

/// Complementary error function.
pub fn erfc(x: f64) -> f64 {
    if x >= 0.0 {
        gamma_q(0.5, x * x)
    } else {
        1.0 + gamma_p(0.5, x * x)
    }
}

/// Standard normal cumulative distribution function Φ(z).
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

/// Standard normal survival function 1 − Φ(z), computed without cancellation
/// for large z.
pub fn normal_sf(z: f64) -> f64 {
    0.5 * erfc(z / std::f64::consts::SQRT_2)
}

/// Standard normal quantile Φ⁻¹(p) for p ∈ (0, 1), by Newton's method on
/// the CDF inside a bisection bracket: a step that would leave the bracket
/// bisects instead, so every p converges, with no tabulated coefficients to
/// get wrong. A handful of CDF evaluations, where plain bisection to the
/// same precision takes about 53.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "normal_quantile requires p in (0,1), got {p}");
    let (mut lo, mut hi) = (-42.0f64, 42.0f64);
    let mut x = 0.0f64;
    for _ in 0..200 {
        let err = normal_cdf(x) - p;
        if err < 0.0 {
            lo = x;
        } else {
            hi = x;
        }
        let pdf = (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
        let newton = x - err / pdf;
        let next = if newton > lo && newton < hi { newton } else { 0.5 * (lo + hi) };
        if (next - x).abs() <= 1e-15 * (1.0 + x.abs()) || hi - lo < 1e-14 {
            return next;
        }
        x = next;
    }
    x
}

/// Chi-square CDF with `df` degrees of freedom.
pub fn chi2_cdf(x: f64, df: f64) -> f64 {
    assert!(df > 0.0);
    if x <= 0.0 {
        return 0.0;
    }
    gamma_p(df / 2.0, x / 2.0)
}

/// Chi-square survival function (upper tail) — the p-value of a chi-square
/// statistic.
pub fn chi2_sf(x: f64, df: f64) -> f64 {
    assert!(df > 0.0);
    if x <= 0.0 {
        return 1.0;
    }
    gamma_q(df / 2.0, x / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn ln_gamma_known_values() {
        close(ln_gamma(1.0), 0.0, 1e-12);
        close(ln_gamma(2.0), 0.0, 1e-12);
        close(ln_gamma(5.0), 24f64.ln(), 1e-10); // Γ(5) = 4! = 24
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
        close(ln_gamma(10.5), 1_133_278.388_948_441f64.ln(), 1e-6);
    }

    #[test]
    fn erf_known_values() {
        close(erf(0.0), 0.0, 1e-15);
        close(erf(1.0), 0.842_700_792_949_714_9, 1e-10);
        close(erf(2.0), 0.995_322_265_018_952_7, 1e-10);
        close(erf(-1.0), -0.842_700_792_949_714_9, 1e-10);
        close(erfc(1.0), 0.157_299_207_050_285_1, 1e-10);
    }

    #[test]
    fn normal_cdf_known_values() {
        close(normal_cdf(0.0), 0.5, 1e-15);
        close(normal_cdf(1.959_963_985), 0.975, 1e-7);
        close(normal_cdf(-1.0), 0.158_655_253_931_457_05, 1e-9);
        close(normal_cdf(2.575_829_304), 0.995, 1e-7);
        // Deep-tail survival stays positive and tiny.
        assert!(normal_sf(8.0) > 0.0);
        assert!(normal_sf(8.0) < 1e-14);
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        for p in [0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999] {
            close(normal_cdf(normal_quantile(p)), p, 1e-10);
        }
        close(normal_quantile(0.975), 1.959_963_985, 1e-6);
        close(normal_quantile(0.5), 0.0, 1e-10);
    }

    #[test]
    fn chi2_df2_is_exponential() {
        // With df = 2, CDF(x) = 1 − exp(−x/2) exactly.
        for x in [0.5, 1.0, 3.0, 5.991, 10.0] {
            close(chi2_cdf(x, 2.0), 1.0 - (-x / 2.0_f64).exp(), 1e-12);
        }
    }

    #[test]
    fn chi2_critical_values() {
        // Standard 95th percentiles.
        close(chi2_cdf(3.841_458_8, 1.0), 0.95, 1e-7);
        close(chi2_cdf(5.991_464_5, 2.0), 0.95, 1e-7);
        close(chi2_cdf(11.070_497_7, 5.0), 0.95, 1e-7);
        close(chi2_sf(3.841_458_8, 1.0), 0.05, 1e-7);
    }

    #[test]
    fn gamma_p_q_sum_to_one() {
        for a in [0.5, 1.0, 2.5, 10.0, 97.5] {
            for x in [0.1, 1.0, 5.0, 50.0, 200.0] {
                close(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-12);
            }
        }
    }

    #[test]
    fn gamma_p_monotone_in_x() {
        let mut prev = 0.0;
        for i in 1..100 {
            let v = gamma_p(3.0, i as f64 * 0.2);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn edge_cases() {
        assert_eq!(gamma_p(1.0, 0.0), 0.0);
        assert_eq!(gamma_q(1.0, 0.0), 1.0);
        assert_eq!(chi2_cdf(0.0, 3.0), 0.0);
        assert_eq!(chi2_sf(-1.0, 3.0), 1.0);
    }
}
