//! Cross-crate agreement for the compatibility engine:
//!
//! - **classifier ↔ query checker**: on generator-planted histories with
//!   known ground truth, every step where [`coevo_query::breaking_queries`]
//!   finds a genuinely broken stored query must be classified BREAKING —
//!   the rule table may be *more* conservative than the query checker
//!   (NarrowType breaks nothing a `SELECT` can witness), never less;
//! - **evidence ↔ identifier folding**: the impact scanner behind
//!   [`coevo_compat::gather_evidence`] must case-fold identifiers exactly
//!   like `coevo_ddl::Ident::key()` does, so mixed-case DDL still matches
//!   lower- or upper-case source references.

use coevo_compat::{classify_history, verdict_for_step, CompatLevel};
use coevo_corpus::plant_compat_project;
use coevo_diff::{diff_constraints, diff_schemas, MatchPolicy, SchemaHistory};
use coevo_query::breaking_queries;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The query checker never out-breaks the classifier: a step with a
    /// broken stored query always classifies BREAKING, and every step the
    /// generator planted a query-breaking change into is caught by both.
    #[test]
    fn breaking_queries_agree_with_the_classifier_on_planted_histories(
        seed in 0u64..10_000,
        steps in 4usize..12,
    ) {
        let planted = plant_compat_project(seed, steps);
        let history = SchemaHistory::from_ddl_texts(
            planted.ddl_versions.iter().map(|(d, s)| (*d, s.as_str())),
            planted.dialect,
            MatchPolicy::ByName,
        )
        .expect("planted DDL parses")
        .expect("planted history is nonempty");
        let classes = classify_history(&history);
        let versions = history.versions();

        // Every planted stored query, exactly as an application would
        // embed it.
        let texts: Vec<String> = planted
            .sources
            .iter()
            .flat_map(|(_, text)| coevo_query::extract_sql_strings(text))
            .map(|e| e.sql)
            .collect();
        let queries: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();

        for i in 1..versions.len() {
            let old = versions[i - 1].schema.as_ref();
            let new = versions[i].schema.as_ref();
            let broken = breaking_queries(old, new, &queries);
            if !broken.is_empty() {
                prop_assert!(
                    classes[i].level.is_breaking(),
                    "step {i}: queries {:?} broke but the classifier said {}",
                    broken.iter().map(|b| b.sql.as_str()).collect::<Vec<_>>(),
                    classes[i].level
                );
            }
            let step = planted.steps.iter().find(|s| s.index == i).expect("step labeled");
            if step.kind.breaks_query() {
                prop_assert!(
                    !broken.is_empty(),
                    "step {i} ({:?} on {}) plants a query break the checker missed",
                    step.kind,
                    step.victim
                );
                prop_assert!(classes[i].level.is_breaking());
            }
            // Steps safe for readers never break a read query.
            if classes[i].level.is_backward_compatible() {
                prop_assert!(
                    broken.is_empty(),
                    "step {i} is {} yet broke {:?}",
                    classes[i].level,
                    broken.iter().map(|b| b.sql.as_str()).collect::<Vec<_>>()
                );
            }
        }
    }
}

/// Regression for the identifier case-fold audit: `coevo_ddl::Ident::key()`
/// folds ASCII case, and the impact scanner must agree — a mixed-case DDL
/// column is matched by lower- and upper-case source references alike, in
/// both the raw scanner and the compat evidence layer.
#[test]
fn impact_scanner_case_folds_like_ident_key() {
    use coevo_ddl::{parse_schema, Dialect};
    use coevo_impact::{ImpactAnalyzer, ScanConfig};

    let old = parse_schema(
        "CREATE TABLE Invoices (Id INT, Total_Price INT, Created_Stamp INT);",
        Dialect::Generic,
    )
    .unwrap();
    let new =
        parse_schema("CREATE TABLE Invoices (Id INT, Created_Stamp INT);", Dialect::Generic)
            .unwrap();
    let delta = diff_schemas(&old, &new);
    let constraints = diff_constraints(&old, &new);

    // Three case spellings of the ejected column; all must hit.
    let sources: Vec<(&str, &str)> = vec![
        ("a.js", "const x = row.total_price;"),
        ("b.js", "const y = row.TOTAL_PRICE;"),
        ("c.js", "const z = row.Total_Price;"),
    ];
    let analyzer = ImpactAnalyzer::new(&old, &ScanConfig::default());
    let report = analyzer.impact_of(&delta, &sources);
    let hit_files: Vec<&str> = report.files.iter().map(|f| f.path.as_str()).collect();
    for file in ["a.js", "b.js", "c.js"] {
        assert!(hit_files.contains(&file), "{file} missing from {hit_files:?}");
    }
    assert!(report.total_breaking() >= 3, "all three spellings are breaking references");

    // The same holds one layer up, through the compat evidence gatherer.
    let verdict = verdict_for_step(&old, &new, &delta, &constraints, Some(&sources));
    assert_eq!(verdict.level(), CompatLevel::Breaking);
    let evidence = verdict.evidence.expect("sources were provided");
    assert_eq!(evidence.files, 3, "every case spelling counts as a referencing file");
    assert!(!verdict.false_alarm, "corroborated by source references");
}
