//! Schema size over time: the growth view of a history.
//!
//! Related work \[10\] (the Oscar study) observes that schema size grows
//! linearly at a markedly lower rate than the application. This module
//! produces the monthly schema-size series (attributes and tables,
//! forward-filled between versions) that a regression (see
//! `coevo_stats::regression`) turns into growth rates.

use crate::history::SchemaHistory;
use coevo_heartbeat::YearMonth;
use serde::{Deserialize, Serialize};

/// Schema size at the end of one month.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SizePoint {
    /// The month.
    pub month: YearMonth,
    /// The attributes.
    pub attributes: usize,
    /// The referenced tables.
    pub tables: usize,
}

/// The monthly schema-size series: one point per month from the first
/// version's month through the last version's month, carrying forward the
/// size of the latest version at each point.
pub fn schema_size_series(history: &SchemaHistory) -> Vec<SizePoint> {
    let versions = history.versions();
    let first = YearMonth::of(versions.first().expect("non-empty").date.date);
    let last = YearMonth::of(versions.last().expect("non-empty").date.date);
    let months = (last.months_since(&first) + 1) as usize;

    let mut out = Vec::with_capacity(months);
    let mut vi = 0usize;
    for m in 0..months {
        let month = first.plus(m as i64);
        // Advance to the latest version whose month is ≤ this month.
        while vi + 1 < versions.len() && YearMonth::of(versions[vi + 1].date.date) <= month {
            vi += 1;
        }
        let schema = &versions[vi].schema;
        out.push(SizePoint {
            month,
            attributes: schema.attribute_count(),
            tables: schema.tables.len(),
        });
    }
    out
}

/// Net growth over the whole history: (attribute delta, table delta) from
/// the first version to the last.
pub fn net_growth(history: &SchemaHistory) -> (i64, i64) {
    let first = history.initial_schema();
    let last = history.final_schema();
    (
        last.attribute_count() as i64 - first.attribute_count() as i64,
        last.tables.len() as i64 - first.tables.len() as i64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema_diff::MatchPolicy;
    use coevo_ddl::Dialect;
    use coevo_heartbeat::DateTime;

    fn history(texts: &[(&str, &str)]) -> SchemaHistory {
        SchemaHistory::from_ddl_texts(
            texts.iter().map(|(d, sql)| (DateTime::parse(d).unwrap(), *sql)),
            Dialect::Generic,
            MatchPolicy::ByName,
        )
        .unwrap()
        .unwrap()
    }

    #[test]
    fn forward_fill_between_versions() {
        let h = history(&[
            ("2020-01-15 00:00:00 +0000", "CREATE TABLE a (x INT);"),
            (
                "2020-04-15 00:00:00 +0000",
                "CREATE TABLE a (x INT, y INT); CREATE TABLE b (z INT);",
            ),
        ]);
        let s = schema_size_series(&h);
        assert_eq!(s.len(), 4); // Jan..Apr
        assert_eq!((s[0].attributes, s[0].tables), (1, 1));
        assert_eq!((s[1].attributes, s[1].tables), (1, 1)); // Feb: carried forward
        assert_eq!((s[2].attributes, s[2].tables), (1, 1));
        assert_eq!((s[3].attributes, s[3].tables), (3, 2));
    }

    #[test]
    fn single_version() {
        let h = history(&[("2020-06-01 00:00:00 +0000", "CREATE TABLE a (x INT, y INT);")]);
        let s = schema_size_series(&h);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].attributes, 2);
    }

    #[test]
    fn shrinkage_is_negative_growth() {
        let h = history(&[
            (
                "2020-01-01 00:00:00 +0000",
                "CREATE TABLE a (x INT, y INT); CREATE TABLE b (z INT);",
            ),
            ("2020-02-01 00:00:00 +0000", "CREATE TABLE a (x INT);"),
        ]);
        assert_eq!(net_growth(&h), (-2, -1));
    }

    #[test]
    fn size_series_feeds_regression() {
        // Steady growth: 1 attribute per month.
        let mut texts = Vec::new();
        let mut cols = String::from("c0 INT");
        for m in 0..6 {
            texts.push((
                format!("2020-{:02}-10 00:00:00 +0000", m + 1),
                format!("CREATE TABLE t ({cols});"),
            ));
            cols.push_str(&format!(", c{} INT", m + 1));
        }
        let h = SchemaHistory::from_ddl_texts(
            texts.iter().map(|(d, s)| (DateTime::parse(d).unwrap(), s.as_str())),
            Dialect::Generic,
            MatchPolicy::ByName,
        )
        .unwrap()
        .unwrap();
        let series = schema_size_series(&h);
        let xs: Vec<f64> = (0..series.len()).map(|i| i as f64).collect();
        let ys: Vec<f64> = series.iter().map(|p| p.attributes as f64).collect();
        let fit = coevo_stats::linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope - 1.0).abs() < 1e-9, "slope {}", fit.slope);
        assert!(fit.r_squared > 0.999);
    }
}
