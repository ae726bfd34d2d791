//! The extension analyses beyond the paper's figures:
//!
//! - **change localization** (related work [24]: "change is local — 60–90% of
//!   changes refer to 20% of the tables"), measured over the corpus;
//! - **schema growth rates** (related work [10]: linear growth), with OLS
//!   fits per taxon;
//! - **impact analysis** (the paper's implications: find the code a schema
//!   change puts at risk), demonstrated on a worked micro-example;
//! - **query validation** (the paper's motivation: "an update in the
//!   structure might lead a query to be syntactically invalid"), checking
//!   embedded SQL against two schema versions.
//!
//! ```sh
//! cargo run --release --example extensions
//! ```

use coevo_corpus::{generate_corpus, CorpusSpec};
use coevo_ddl::{parse_schema, Dialect};
use coevo_diff::{
    change_localization, diff_schemas, schema_size_series, MatchPolicy, SchemaHistory,
};
use coevo_impact::{ImpactAnalyzer, ScanConfig};
use coevo_stats::{linear_fit, median};
use coevo_taxa::Taxon;
use std::collections::BTreeMap;

fn main() {
    let corpus = generate_corpus(&CorpusSpec::paper());

    // ---- localization ----------------------------------------------------
    let mut top20_by_taxon: BTreeMap<Taxon, Vec<f64>> = BTreeMap::new();
    let mut untouched_by_taxon: BTreeMap<Taxon, Vec<f64>> = BTreeMap::new();
    let mut slopes_by_taxon: BTreeMap<Taxon, Vec<f64>> = BTreeMap::new();

    for p in &corpus {
        let history = SchemaHistory::from_ddl_texts(
            p.raw.ddl_versions.iter().map(|(d, s)| (*d, s.as_str())),
            p.raw.dialect,
            MatchPolicy::ByName,
        )
        .unwrap()
        .unwrap();

        let loc = change_localization(&history);
        // Localization is only meaningful with post-birth change.
        if history.total_activity() > history.deltas()[0].breakdown.total() {
            top20_by_taxon.entry(p.raw.taxon).or_default().push(loc.top20_share);
            untouched_by_taxon.entry(p.raw.taxon).or_default().push(loc.untouched_fraction);
        }

        let series = schema_size_series(&history);
        if series.len() >= 3 {
            let xs: Vec<f64> = (0..series.len()).map(|i| i as f64).collect();
            let ys: Vec<f64> = series.iter().map(|pt| pt.attributes as f64).collect();
            if let Some(fit) = linear_fit(&xs, &ys) {
                slopes_by_taxon.entry(p.raw.taxon).or_default().push(fit.slope);
            }
        }
    }

    println!("change localization per taxon (median over projects with change):");
    println!("  {:<24} {:>16} {:>18}", "taxon", "top-20% share", "untouched tables");
    for taxon in Taxon::ALL {
        let top = top20_by_taxon.get(&taxon).and_then(|v| median(v));
        let unt = untouched_by_taxon.get(&taxon).and_then(|v| median(v));
        println!(
            "  {:<24} {:>15}% {:>17}%",
            taxon.name(),
            top.map(|v| format!("{:.0}", v * 100.0)).unwrap_or_else(|| "—".into()),
            unt.map(|v| format!("{:.0}", v * 100.0)).unwrap_or_else(|| "—".into()),
        );
    }

    println!("\nschema growth (median OLS slope, attributes/month):");
    for taxon in Taxon::ALL {
        let slope = slopes_by_taxon.get(&taxon).and_then(|v| median(v));
        println!(
            "  {:<24} {}",
            taxon.name(),
            slope.map(|v| format!("{v:+.3}")).unwrap_or_else(|| "—".into())
        );
    }

    // ---- impact analysis ---------------------------------------------------
    println!("\nimpact analysis — worked example:");
    let old = parse_schema(
        "CREATE TABLE invoices (id INT, total_price DECIMAL(10,2), currency CHAR(3));
         CREATE TABLE customers (id INT, full_name TEXT);",
        Dialect::Generic,
    )
    .unwrap();
    let new = parse_schema(
        "CREATE TABLE invoices (id INT, grand_total DECIMAL(12,2), currency CHAR(3));
         CREATE TABLE customers (id INT, full_name TEXT, vat_number TEXT);",
        Dialect::Generic,
    )
    .unwrap();
    let delta = diff_schemas(&old, &new);
    let sources = [
        (
            "src/billing.py",
            "q = 'SELECT total_price, currency FROM invoices'\nprint(row.total_price)",
        ),
        ("src/crm.py", "SELECT full_name FROM customers"),
        ("src/util.py", "def helper(): pass"),
    ];
    let analyzer = ImpactAnalyzer::new(&old, &ScanConfig::default());
    let report = analyzer.impact_of(&delta, &sources);
    let app_source = r#"
        q1 = "SELECT total_price, currency FROM invoices WHERE id = %s"
        q2 = "SELECT full_name FROM customers ORDER BY full_name"
        q3 = "UPDATE invoices SET total_price = %s WHERE id = %s"
    "#;
    println!(
        "  delta activity {} → {} file(s) at risk, {} breaking reference(s)",
        delta.total_activity(),
        report.files.len(),
        report.total_breaking()
    );
    for f in &report.files {
        for h in &f.hits {
            println!(
                "    {}: {}{} at lines {:?}",
                f.path,
                h.identifier,
                if h.breaking { " [BREAKING]" } else { " (new)" },
                h.lines
            );
        }
    }

    // ---- query validation ---------------------------------------------------
    println!("\nembedded-query validation (syntactic impact):");
    let embedded = coevo_query::extract_sql_strings(app_source);
    println!("  {} embedded queries found in app source", embedded.len());
    let sqls: Vec<&str> = embedded.iter().map(|e| e.sql.as_str()).collect();
    let broken = coevo_query::breaking_queries(&old, &new, &sqls);
    for b in &broken {
        println!("  BROKEN: {}", b.sql.trim());
        for issue in &b.issues {
            println!("    {:?}: {} (in {})", issue.kind, issue.name, issue.context);
        }
    }
    assert_eq!(broken.len(), 2, "total_price queries must break");
}
