//! Change localization: *where* in the schema does evolution concentrate?
//!
//! Qiu et al. (cited as \[24\] in the paper) report that schema change is
//! local in space: "60%–90% of changes refer to 20% of the tables and nearly
//! 40% of schema tables did not change". This module derives the same
//! statistics from a [`SchemaHistory`]: per-table activity over the
//! post-birth deltas, the share of activity carried by the busiest 20% of
//! tables, the fraction of never-changed tables, and a Gini concentration
//! coefficient.

use crate::changes::TableFate;
use crate::history::SchemaHistory;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Localization statistics for one schema history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChangeLocalization {
    /// Post-birth activity per table (lowercased name), descending.
    pub per_table: Vec<(String, u64)>,
    /// Number of tables that ever existed in the history.
    pub tables_seen: usize,
    /// Fraction of tables with zero post-birth activity.
    pub untouched_fraction: f64,
    /// Share of total post-birth activity carried by the busiest 20% of
    /// tables (rounded up). 0 when there is no post-birth activity.
    pub top20_share: f64,
    /// Gini coefficient of the per-table activity distribution (0 = evenly
    /// spread, → 1 = concentrated in one table). 0 when there is no
    /// activity.
    pub gini: f64,
}

/// Compute localization statistics over the post-birth deltas of a history.
pub fn change_localization(history: &SchemaHistory) -> ChangeLocalization {
    // Universe: every table key appearing in any version.
    let mut universe: BTreeMap<String, u64> = BTreeMap::new();
    for v in history.versions() {
        for t in &v.schema.tables {
            universe.entry(t.key().to_string()).or_insert(0);
        }
    }
    // Post-birth activity attribution (delta 0 is the creation).
    for vd in history.deltas().iter().skip(1) {
        for td in &vd.delta.tables {
            let key = td.table.to_ascii_lowercase();
            let amount = match td.fate {
                TableFate::Created | TableFate::Dropped => td.attribute_count as u64,
                TableFate::Survived => td.changes.len() as u64,
            };
            *universe.entry(key).or_insert(0) += amount;
        }
    }

    let tables_seen = universe.len();
    let mut per_table: Vec<(String, u64)> = universe.into_iter().collect();
    per_table.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    let total: u64 = per_table.iter().map(|(_, a)| a).sum();
    let untouched = per_table.iter().filter(|(_, a)| *a == 0).count();
    let untouched_fraction =
        if tables_seen == 0 { 0.0 } else { untouched as f64 / tables_seen as f64 };

    let top_n = (tables_seen as f64 * 0.2).ceil() as usize;
    let top20: u64 = per_table.iter().take(top_n).map(|(_, a)| a).sum();
    let top20_share = if total == 0 { 0.0 } else { top20 as f64 / total as f64 };

    ChangeLocalization {
        gini: gini_coefficient(&per_table.iter().map(|(_, a)| *a).collect::<Vec<_>>()),
        per_table,
        tables_seen,
        untouched_fraction,
        top20_share,
    }
}

/// Gini coefficient of a non-negative sample; 0 for empty/all-zero input.
pub fn gini_coefficient(values: &[u64]) -> f64 {
    let n = values.len();
    let total: u64 = values.iter().sum();
    if n == 0 || total == 0 {
        return 0.0;
    }
    let mut sorted: Vec<u64> = values.to_vec();
    sorted.sort_unstable();
    // G = (2·Σ i·x_(i) / (n·Σx)) − (n+1)/n, with 1-based i over ascending x.
    let weighted: f64 =
        sorted.iter().enumerate().map(|(i, &x)| (i as f64 + 1.0) * x as f64).sum();
    (2.0 * weighted) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::SchemaHistory;
    use crate::schema_diff::MatchPolicy;
    use coevo_ddl::Dialect;
    use coevo_heartbeat::DateTime;

    fn dt(s: &str) -> DateTime {
        DateTime::parse(s).unwrap()
    }

    fn history(texts: &[(&str, &str)]) -> SchemaHistory {
        SchemaHistory::from_ddl_texts(
            texts.iter().map(|(d, sql)| (dt(d), *sql)),
            Dialect::Generic,
            MatchPolicy::ByName,
        )
        .unwrap()
        .unwrap()
    }

    #[test]
    fn concentrated_change() {
        // Three tables; all post-birth change hits table `hot`.
        let h = history(&[
            (
                "2020-01-01 00:00:00 +0000",
                "CREATE TABLE hot (a INT); CREATE TABLE cold1 (b INT); CREATE TABLE cold2 (c INT);",
            ),
            (
                "2020-02-01 00:00:00 +0000",
                "CREATE TABLE hot (a INT, x INT); CREATE TABLE cold1 (b INT); CREATE TABLE cold2 (c INT);",
            ),
            (
                "2020-03-01 00:00:00 +0000",
                "CREATE TABLE hot (a INT, x INT, y INT, z INT); CREATE TABLE cold1 (b INT); CREATE TABLE cold2 (c INT);",
            ),
        ]);
        let loc = change_localization(&h);
        assert_eq!(loc.tables_seen, 3);
        assert_eq!(loc.per_table[0], ("hot".to_string(), 3));
        // 2 of 3 tables never changed.
        assert!((loc.untouched_fraction - 2.0 / 3.0).abs() < 1e-12);
        // ceil(0.6) = 1 table = all activity.
        assert!((loc.top20_share - 1.0).abs() < 1e-12);
        assert!(loc.gini > 0.5);
    }

    #[test]
    fn even_change_low_gini() {
        let h = history(&[
            ("2020-01-01 00:00:00 +0000", "CREATE TABLE a (x INT); CREATE TABLE b (y INT);"),
            (
                "2020-02-01 00:00:00 +0000",
                "CREATE TABLE a (x INT, x2 INT); CREATE TABLE b (y INT, y2 INT);",
            ),
        ]);
        let loc = change_localization(&h);
        assert_eq!(loc.untouched_fraction, 0.0);
        assert!(loc.gini < 0.01, "gini {}", loc.gini);
    }

    #[test]
    fn dropped_tables_attributed() {
        let h = history(&[
            (
                "2020-01-01 00:00:00 +0000",
                "CREATE TABLE a (x INT); CREATE TABLE b (y INT, z INT);",
            ),
            ("2020-02-01 00:00:00 +0000", "CREATE TABLE a (x INT);"),
        ]);
        let loc = change_localization(&h);
        let b = loc.per_table.iter().find(|(n, _)| n == "b").unwrap();
        assert_eq!(b.1, 2); // two attributes died with the table
    }

    #[test]
    fn frozen_history_all_untouched() {
        let h = history(&[("2020-01-01 00:00:00 +0000", "CREATE TABLE a (x INT);")]);
        let loc = change_localization(&h);
        assert_eq!(loc.untouched_fraction, 1.0);
        assert_eq!(loc.top20_share, 0.0);
        assert_eq!(loc.gini, 0.0);
    }

    #[test]
    fn gini_known_values() {
        assert_eq!(gini_coefficient(&[]), 0.0);
        assert_eq!(gini_coefficient(&[0, 0]), 0.0);
        assert!((gini_coefficient(&[5, 5, 5, 5])).abs() < 1e-12);
        // All mass in one of n: G = (n−1)/n.
        let g = gini_coefficient(&[0, 0, 0, 12]);
        assert!((g - 0.75).abs() < 1e-12, "{g}");
        // Hand-computed: [1,3]: G = 2·(1·1+2·3)/(2·4) − 3/2 = 14/8 − 1.5 = 0.25.
        assert!((gini_coefficient(&[1, 3]) - 0.25).abs() < 1e-12);
    }
}
