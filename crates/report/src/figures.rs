//! Assembling every figure of the paper into one report.

use crate::barchart::{bar_chart, grouped_bar_chart};
use crate::scatter::duration_sync_scatter;
use crate::table::{pct, TextTable};
use coevo_core::study::StudyResults;

/// Figure 4: the synchronicity histogram.
pub fn render_fig4(results: &StudyResults) -> String {
    let items: Vec<(String, u64)> =
        results.fig4.labels.iter().cloned().zip(results.fig4.counts.iter().copied()).collect();
    format!(
        "Figure 4 — breakdown of projects per 10%-synchronicity range\n{}",
        bar_chart(&items, 50)
    )
}

/// Figure 5: the duration × synchronicity scatter.
pub fn render_fig5(results: &StudyResults) -> String {
    format!(
        "Figure 5 — duration vs 10%-synchronicity per taxon\n{}",
        duration_sync_scatter(&results.fig5, 78, 20)
    )
}

/// Figure 6: the advance table.
pub fn render_fig6(results: &StudyResults) -> String {
    let mut t = TextTable::new(["Range", "Source", "%", "Cum%", "Time", "%", "Cum%"]);
    for r in &results.fig6.rows {
        t.row([
            r.range.clone(),
            r.source_count.to_string(),
            pct(r.source_pct),
            pct(r.source_cum_pct),
            r.time_count.to_string(),
            pct(r.time_pct),
            pct(r.time_cum_pct),
        ]);
    }
    t.row([
        "(blank)".to_string(),
        results.fig6.blank.to_string(),
        pct(results.fig6.blank as f64 / results.fig6.total.max(1) as f64),
        String::new(),
        results.fig6.blank.to_string(),
        pct(results.fig6.blank as f64 / results.fig6.total.max(1) as f64),
        String::new(),
    ]);
    t.row([
        "Grand Total".to_string(),
        results.fig6.total.to_string(),
        "100%".to_string(),
        String::new(),
        results.fig6.total.to_string(),
        "100%".to_string(),
        String::new(),
    ]);
    format!("Figure 6 — life percentage of schema advance over source and time\n{}", t.render())
}

/// Figure 7: always-in-advance per taxon.
pub fn render_fig7(results: &StudyResults) -> String {
    let mut t = TextTable::new(["Taxon", "Projects", "Time", "Source", "Both"]);
    for r in &results.fig7.rows {
        t.row([
            r.taxon.name().to_string(),
            r.projects.to_string(),
            r.always_over_time.to_string(),
            r.always_over_source.to_string(),
            r.always_over_both.to_string(),
        ]);
    }
    t.row([
        "TOTAL".to_string(),
        results.fig7.total_projects.to_string(),
        results.fig7.total_time.to_string(),
        results.fig7.total_source.to_string(),
        results.fig7.total_both.to_string(),
    ]);
    format!("Figure 7 — projects whose schema is always in advance, per taxon\n{}", t.render())
}

/// Figure 8: the attainment grid.
pub fn render_fig8(results: &StudyResults) -> String {
    let groups: Vec<(String, Vec<(String, u64)>)> = results
        .fig8
        .alphas
        .iter()
        .zip(&results.fig8.counts)
        .map(|(alpha, counts)| {
            (
                format!("attainment of {:.0}% of schema activity", alpha * 100.0),
                results.fig8.range_labels.iter().cloned().zip(counts.iter().copied()).collect(),
            )
        })
        .collect();
    format!(
        "Figure 8 — projects attaining α of schema activity per lifetime range\n{}",
        grouped_bar_chart(&groups, 40)
    )
}

/// Section 7: the statistical analysis summary.
pub fn render_section7(results: &StudyResults) -> String {
    let s7 = &results.section7;
    let mut out = String::from("Section 7 — statistical analysis\n");
    for e in &s7.normality {
        if e.w.is_nan() {
            out.push_str(&format!("  Shapiro-Wilk {:<22} n/a (n > 5000)\n", e.attribute));
        } else {
            out.push_str(&format!(
                "  Shapiro-Wilk {:<22} W={:.3}  p={:.3e}\n",
                e.attribute, e.w, e.p_value
            ));
        }
    }
    if let Some(k) = &s7.sync_by_taxon {
        out.push_str(&format!(
            "  Kruskal-Wallis taxon → 10%-sync: H={:.2} df={} p={:.4}\n",
            k.h, k.df, k.p_value
        ));
        for (t, m) in &k.medians {
            out.push_str(&format!("    median {:<22} {:.2}\n", t.name(), m));
        }
    }
    if let Some(k) = &s7.attainment75_by_taxon {
        out.push_str(&format!(
            "  Kruskal-Wallis taxon → 75%-attainment: H={:.2} df={} p={:.4}\n",
            k.h, k.df, k.p_value
        ));
        for (t, m) in &k.medians {
            out.push_str(&format!("    median {:<22} {:.2}\n", t.name(), m));
        }
    }
    if !s7.sync_posthoc.is_empty() {
        out.push_str("  post-hoc pairwise Mann-Whitney on 10%-sync (Bonferroni):\n");
        for c in &s7.sync_posthoc {
            out.push_str(&format!(
                "    {} vs {}: p={:.4}{}\n",
                c.a.name(),
                c.b.name(),
                c.adjusted_p,
                if c.adjusted_p < 0.05 { " *" } else { "" }
            ));
        }
    }
    for lt in &s7.lag_tests {
        out.push_str(&format!(
            "  lag[{:<6}] chi2={:.2} p={:.4}  fisher p={}\n",
            lt.flag,
            lt.chi2_statistic,
            lt.chi2_p,
            lt.fisher_p.map(|p| format!("{p:.4}")).unwrap_or_else(|| "n/a".into()),
        ));
    }
    if let Some(tau) = s7.kendall_sync_5_10 {
        out.push_str(&format!("  Kendall tau (5%-sync, 10%-sync) = {tau:.2}\n"));
    }
    if let Some(tau) = s7.kendall_advance_time_source {
        out.push_str(&format!("  Kendall tau (adv-time, adv-source) = {tau:.2}\n"));
    }
    if !s7.correlation_matrix.is_empty() {
        out.push_str("  measure correlation matrix (Kendall tau):\n");
        for (a, b, tau) in &s7.correlation_matrix {
            out.push_str(&format!("    {a} ~ {b}: {tau:+.2}\n"));
        }
    }
    out
}

/// Render every figure and the statistics block into one report.
pub fn render_all_figures(results: &StudyResults) -> String {
    [
        render_fig4(results),
        render_fig5(results),
        render_fig6(results),
        render_fig7(results),
        render_fig8(results),
        render_section7(results),
    ]
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use coevo_core::progress::ProjectData;
    use coevo_core::Study;
    use coevo_heartbeat::{Heartbeat, YearMonth};

    fn results() -> StudyResults {
        let start = YearMonth::new(2015, 1).unwrap();
        let mut projects = Vec::new();
        for i in 0..8u64 {
            projects.push(ProjectData::new(
                &format!("p/{i}"),
                Heartbeat::new(start, vec![2 + i % 3; (6 + i) as usize]),
                Heartbeat::new(start, {
                    let mut v = vec![0u64; (6 + i) as usize];
                    let last = v.len() - 1;
                    v[0] = 10;
                    v[(3 + i as usize).min(last)] = i;
                    v
                }),
                10,
            ));
        }
        Study::new(projects).run()
    }

    #[test]
    fn all_figures_render() {
        let r = results();
        let all = render_all_figures(&r);
        for needle in ["Figure 4", "Figure 5", "Figure 6", "Figure 7", "Figure 8", "Section 7"]
        {
            assert!(all.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn section7_marks_untestable_normality_rows() {
        let mut r = results();
        r.section7.normality.push(coevo_core::study::NormalityEntry {
            attribute: "duration".into(),
            w: f64::NAN,
            p_value: f64::NAN,
        });
        let s = render_section7(&r);
        assert!(s.contains("  Shapiro-Wilk duration               n/a (n > 5000)\n"), "{s}");
    }

    #[test]
    fn fig6_has_grand_total() {
        let r = results();
        let s = render_fig6(&r);
        assert!(s.contains("Grand Total"));
        assert!(s.contains("(blank)"));
        assert!(s.contains("0.9-1.0"));
    }

    #[test]
    fn fig7_lists_all_taxa() {
        let r = results();
        let s = render_fig7(&r);
        for t in coevo_taxa::Taxon::ALL {
            assert!(s.contains(t.name()), "missing {t}");
        }
        assert!(s.contains("TOTAL"));
    }

    #[test]
    fn fig8_groups_by_alpha() {
        let r = results();
        let s = render_fig8(&r);
        for a in ["50%", "75%", "80%", "100%"] {
            assert!(s.contains(&format!("attainment of {a}")), "missing {a}");
        }
    }
}
