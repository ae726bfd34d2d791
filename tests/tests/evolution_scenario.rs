//! A realistic eight-version schema evolution scenario, hand-computed end to
//! end: every transition's Total Activity, the heartbeat, attainment, and
//! the breaking queries — the whole pipeline on one coherent story.

use coevo_ddl::Dialect;
use coevo_diff::{change_localization, MatchPolicy, SchemaHistory};
use coevo_heartbeat::DateTime;
use coevo_query::{breaking_queries, IssueKind};

fn dt(s: &str) -> DateTime {
    DateTime::parse(&format!("{s} 12:00:00 +0000")).unwrap()
}

/// The shop schema's life, one entry per DDL commit. Later versions are
/// written the way maintainers actually write them: base CREATEs plus
/// trailing ALTER statements.
fn versions() -> Vec<(DateTime, String)> {
    vec![
        // v1 (2018-01): birth — 2 tables, 6 attributes.            [+6]
        (
            dt("2018-01-10"),
            "CREATE TABLE customers (id INT PRIMARY KEY, email VARCHAR(120), created DATE);
             CREATE TABLE orders (id INT PRIMARY KEY, customer_id INT, total DECIMAL(8,2));"
                .to_string(),
        ),
        // v2 (2018-02): order status injected.                      [+1]
        (
            dt("2018-02-05"),
            "CREATE TABLE customers (id INT PRIMARY KEY, email VARCHAR(120), created DATE);
             CREATE TABLE orders (id INT PRIMARY KEY, customer_id INT, total DECIMAL(8,2));
             ALTER TABLE orders ADD COLUMN status VARCHAR(20);"
                .to_string(),
        ),
        // v3 (2018-02, later): items table born with 4 attributes.  [+4]
        (
            dt("2018-02-20"),
            "CREATE TABLE customers (id INT PRIMARY KEY, email VARCHAR(120), created DATE);
             CREATE TABLE orders (id INT PRIMARY KEY, customer_id INT, total DECIMAL(8,2), status VARCHAR(20));
             CREATE TABLE items (id INT PRIMARY KEY, order_id INT, sku VARCHAR(40), qty INT);"
                .to_string(),
        ),
        // v4 (2018-05): total widened (type change), email widened. [+2]
        (
            dt("2018-05-11"),
            "CREATE TABLE customers (id INT PRIMARY KEY, email VARCHAR(255), created DATE);
             CREATE TABLE orders (id INT PRIMARY KEY, customer_id INT, total DECIMAL(12,2), status VARCHAR(20));
             CREATE TABLE items (id INT PRIMARY KEY, order_id INT, sku VARCHAR(40), qty INT);"
                .to_string(),
        ),
        // v5 (2018-08): formatting-only commit.                     [+0]
        (
            dt("2018-08-01"),
            "CREATE TABLE customers (
                 id INT PRIMARY KEY,
                 email VARCHAR(255),
                 created DATE
             );
             CREATE TABLE orders (id INT PRIMARY KEY, customer_id INT, total DECIMAL(12,2), status VARCHAR(20));
             CREATE TABLE items (id INT PRIMARY KEY, order_id INT, sku VARCHAR(40), qty INT);"
                .to_string(),
        ),
        // v6 (2019-01): `created` ejected; composite key on items.  [+3]
        //   - eject customers.created                                 (1)
        //   - items PK id → (id, order_id): order_id gains key        (1)
        //   - customers.email NOT NULL (no activity) + qty BIGINT     (1)
        (
            dt("2019-01-15"),
            "CREATE TABLE customers (id INT PRIMARY KEY, email VARCHAR(255) NOT NULL);
             CREATE TABLE orders (id INT PRIMARY KEY, customer_id INT, total DECIMAL(12,2), status VARCHAR(20));
             CREATE TABLE items (id INT, order_id INT, sku VARCHAR(40), qty BIGINT, PRIMARY KEY (id, order_id));"
                .to_string(),
        ),
        // v7 (2019-06): items dropped (4 attrs die), audit born (3). [+7]
        (
            dt("2019-06-20"),
            "CREATE TABLE customers (id INT PRIMARY KEY, email VARCHAR(255) NOT NULL);
             CREATE TABLE orders (id INT PRIMARY KEY, customer_id INT, total DECIMAL(12,2), status VARCHAR(20));
             CREATE TABLE audit (id INT PRIMARY KEY, event VARCHAR(60), at TIMESTAMP);"
                .to_string(),
        ),
        // v8 (2019-12): orders.status renamed → state (eject+inject). [+2]
        (
            dt("2019-12-02"),
            "CREATE TABLE customers (id INT PRIMARY KEY, email VARCHAR(255) NOT NULL);
             CREATE TABLE orders (id INT PRIMARY KEY, customer_id INT, total DECIMAL(12,2), state VARCHAR(20));
             CREATE TABLE audit (id INT PRIMARY KEY, event VARCHAR(60), at TIMESTAMP);"
                .to_string(),
        ),
    ]
}

fn history() -> SchemaHistory {
    SchemaHistory::from_ddl_texts(
        versions().iter().map(|(d, s)| (*d, s.as_str())),
        Dialect::Generic,
        MatchPolicy::ByName,
    )
    .unwrap()
    .unwrap()
}

#[test]
fn per_transition_activity_is_exact() {
    let h = history();
    let totals: Vec<u64> = h.deltas().iter().map(|d| d.breakdown.total()).collect();
    assert_eq!(totals, vec![6, 1, 4, 2, 0, 3, 7, 2]);
    assert_eq!(h.total_activity(), 25);
    assert_eq!(h.commits(), 8);
    assert_eq!(h.active_commits(), 7); // v5 is inactive
}

#[test]
fn category_breakdown_is_exact() {
    let h = history();
    let total = h.total_breakdown();
    // Births: v1 (6) + v3 items (4) + v7 audit (3) = 13.
    assert_eq!(total.attrs_born_with_table, 13);
    // Injections: v2 status (1) + v8 state (1) = 2.
    assert_eq!(total.attrs_injected, 2);
    // Deaths with table: v7 items (4).
    assert_eq!(total.attrs_deleted_with_table, 4);
    // Ejections: v6 created (1) + v8 status (1) = 2.
    assert_eq!(total.attrs_ejected, 2);
    // Type changes: v4 total+email (2) + v6 qty (1) = 3.
    assert_eq!(total.attrs_type_changed, 3);
    // Key changes: v6 items.order_id joins the PK (1).
    assert_eq!(total.attrs_key_changed, 1);
}

#[test]
fn heartbeat_and_attainment() {
    let h = history();
    let hb = h.heartbeat();
    // Jan 2018 .. Dec 2019 = 24 months.
    assert_eq!(hb.months(), 24);
    assert_eq!(hb.at(coevo_heartbeat::YearMonth::new(2018, 1).unwrap()), 6);
    assert_eq!(hb.at(coevo_heartbeat::YearMonth::new(2018, 2).unwrap()), 5); // v2 + v3
    assert_eq!(hb.at(coevo_heartbeat::YearMonth::new(2019, 6).unwrap()), 7);
    assert_eq!(hb.total(), 25);

    // Cumulative fractional: 6/25 = 24% at birth, 11/25 = 44% by Feb,
    // 13/25 = 52% by May → the 50%-attainment lands in 2018-05 (index 4 of
    // 24 months, duration 23).
    let cum = hb.cumulative_fraction();
    assert!((cum[0] - 0.24).abs() < 1e-12);
    assert!((cum[1] - 0.44).abs() < 1e-12);
    let att50 = coevo_core::attainment::attainment_fraction(&cum, 0.50).unwrap();
    assert!((att50 - 4.0 / 23.0).abs() < 1e-12, "{att50}");
    // 100% only at the last month.
    let att100 = coevo_core::attainment::attainment_fraction(&cum, 1.0).unwrap();
    assert!((att100 - 1.0).abs() < 1e-12);
}

#[test]
fn localization_of_the_scenario() {
    let h = history();
    let loc = change_localization(&h);
    // Tables ever seen: customers, orders, items, audit.
    assert_eq!(loc.tables_seen, 4);
    // Post-birth activity: orders 1+1(v4 total)+2(v8) = 4, customers 1(v4
    // email)+1(v6 created) = 2, items 4(born v3)+2(v6 qty+key)+4(died v7)
    // = 10, audit 3 (born v7).
    let get = |n: &str| loc.per_table.iter().find(|(t, _)| t == n).unwrap().1;
    assert_eq!(get("items"), 10);
    assert_eq!(get("orders"), 4);
    assert_eq!(get("customers"), 2);
    assert_eq!(get("audit"), 3);
    assert_eq!(loc.untouched_fraction, 0.0);
    // Top 20% of 4 tables = 1 table (items) = 10/19 of activity.
    assert!((loc.top20_share - 10.0 / 19.0).abs() < 1e-12);
}

#[test]
fn queries_break_where_the_story_says() {
    let v = versions();
    let first = coevo_ddl::parse_schema(&v[0].1, Dialect::Generic).unwrap();
    let last = coevo_ddl::parse_schema(&v.last().unwrap().1, Dialect::Generic).unwrap();
    let queries = [
        "SELECT email FROM customers",                    // survives
        "SELECT created FROM customers",                  // ejected in v6
        "SELECT total FROM orders WHERE customer_id = ?", // survives
        "UPDATE orders SET total = ? WHERE id = ?",       // survives
    ];
    let broken = breaking_queries(&first, &last, &queries);
    assert_eq!(broken.len(), 1);
    assert!(broken[0].sql.contains("created"));
    assert_eq!(broken[0].issues[0].kind, IssueKind::UnknownColumn);

    // Queries against v3's items table break later (table dropped in v7).
    let v3 = coevo_ddl::parse_schema(&v[2].1, Dialect::Generic).unwrap();
    let broken = breaking_queries(&v3, &last, &["SELECT sku, qty FROM items"]);
    assert_eq!(broken.len(), 1);
    assert_eq!(broken[0].issues[0].kind, IssueKind::UnknownTable);
}

#[test]
fn growth_across_the_scenario() {
    let h = history();
    let (dattrs, dtables) = coevo_diff::net_growth(&h);
    // 6 attributes → 9 attributes (customers 2, orders 4, audit 3).
    assert_eq!(dattrs, 3);
    assert_eq!(dtables, 1);
    let series = coevo_diff::schema_size_series(&h);
    assert_eq!(series.len(), 24);
    assert_eq!(series[0].attributes, 6);
    // After v3 (Feb 2018): 3 + 4 + 4 = 11 attributes.
    assert_eq!(series[1].attributes, 11);
    assert_eq!(series.last().unwrap().attributes, 9);
}
