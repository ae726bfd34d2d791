//! An ALTER-heavy MySQL history: maintainers of hand-kept schema files often
//! append `ALTER TABLE` statements instead of rewriting the CREATEs. The
//! pipeline must measure these histories identically to rewritten ones.

use coevo_ddl::{parse_schema, Dialect};
use coevo_diff::{MatchPolicy, SchemaHistory};
use coevo_heartbeat::DateTime;

fn dt(s: &str) -> DateTime {
    DateTime::parse(&format!("{s} 09:00:00 +0000")).unwrap()
}

const V1: &str = "
CREATE TABLE `users` (
  `id` int(11) NOT NULL AUTO_INCREMENT,
  `login` varchar(60) NOT NULL,
  `pass` varchar(64) NOT NULL,
  PRIMARY KEY (`id`)
) ENGINE=InnoDB;
";

/// v2 appends ALTERs: inject two columns, widen one.
const V2: &str = "
CREATE TABLE `users` (
  `id` int(11) NOT NULL AUTO_INCREMENT,
  `login` varchar(60) NOT NULL,
  `pass` varchar(64) NOT NULL,
  PRIMARY KEY (`id`)
) ENGINE=InnoDB;

ALTER TABLE `users` ADD COLUMN `email` varchar(100) NOT NULL AFTER `login`;
ALTER TABLE `users` ADD COLUMN `created_at` datetime DEFAULT NULL;
ALTER TABLE `users` MODIFY COLUMN `pass` varchar(255) NOT NULL;
";

/// v3: CHANGE renames login → username (eject + inject under the paper's
/// name-based matching), plus a new sessions table via plain CREATE.
const V3: &str = "
CREATE TABLE `users` (
  `id` int(11) NOT NULL AUTO_INCREMENT,
  `login` varchar(60) NOT NULL,
  `pass` varchar(64) NOT NULL,
  PRIMARY KEY (`id`)
) ENGINE=InnoDB;

ALTER TABLE `users` ADD COLUMN `email` varchar(100) NOT NULL AFTER `login`;
ALTER TABLE `users` ADD COLUMN `created_at` datetime DEFAULT NULL;
ALTER TABLE `users` MODIFY COLUMN `pass` varchar(255) NOT NULL;
ALTER TABLE `users` CHANGE `login` `username` varchar(60) NOT NULL;

CREATE TABLE `sessions` (
  `sid` varchar(64) NOT NULL,
  `user_id` int(11) NOT NULL,
  `expires` datetime NOT NULL,
  PRIMARY KEY (`sid`),
  CONSTRAINT `fk_sess_user` FOREIGN KEY (`user_id`) REFERENCES `users` (`id`) ON DELETE CASCADE
) ENGINE=InnoDB;
";

/// v4: RENAME TABLE + DROP/ADD churn expressed as statements.
const V4: &str = "
CREATE TABLE `users` (
  `id` int(11) NOT NULL AUTO_INCREMENT,
  `username` varchar(60) NOT NULL,
  `email` varchar(100) NOT NULL,
  `pass` varchar(255) NOT NULL,
  `created_at` datetime DEFAULT NULL,
  PRIMARY KEY (`id`)
) ENGINE=InnoDB;

CREATE TABLE `sessions` (
  `sid` varchar(64) NOT NULL,
  `user_id` int(11) NOT NULL,
  `expires` datetime NOT NULL,
  PRIMARY KEY (`sid`)
) ENGINE=InnoDB;

RENAME TABLE `sessions` TO `user_sessions`;
ALTER TABLE `user_sessions` DROP COLUMN `expires`;
ALTER TABLE `user_sessions` ADD COLUMN `expires_at` timestamp NULL DEFAULT NULL;
";

#[test]
fn alter_statements_produce_correct_final_schemas() {
    let v2 = parse_schema(V2, Dialect::MySql).unwrap();
    let users = v2.table("users").unwrap();
    assert_eq!(users.columns.len(), 5);
    // AFTER positioning is accepted (order not modeled, presence is).
    assert!(users.column("email").is_some());
    assert_eq!(
        users.column("pass").unwrap().sql_type,
        coevo_ddl::SqlType::with_params("VARCHAR", &["255"])
    );

    let v3 = parse_schema(V3, Dialect::MySql).unwrap();
    assert!(v3.table("users").unwrap().column("username").is_some());
    assert!(v3.table("users").unwrap().column("login").is_none());
    assert_eq!(v3.table("sessions").unwrap().foreign_keys().count(), 1);

    let v4 = parse_schema(V4, Dialect::MySql).unwrap();
    assert!(v4.table("sessions").is_none());
    let sess = v4.table("user_sessions").unwrap();
    assert!(sess.column("expires").is_none());
    assert!(sess.column("expires_at").is_some());
}

#[test]
fn history_activity_is_hand_computable() {
    let h = SchemaHistory::from_ddl_texts(
        [
            (dt("2016-03-01"), V1),
            (dt("2016-06-15"), V2),
            (dt("2016-11-02"), V3),
            (dt("2017-04-20"), V4),
        ],
        Dialect::MySql,
        MatchPolicy::ByName,
    )
    .unwrap()
    .unwrap();

    let totals: Vec<u64> = h.deltas().iter().map(|d| d.breakdown.total()).collect();
    // v1: 3 births.
    // v2: +email +created_at (2 injections) + pass type change = 3.
    // v3: login→username (eject+inject = 2) + sessions born (3 attrs) = 5.
    // v4: sessions → user_sessions is a table rename = drop(3) + create(3)
    //     under name-based matching, and within the renamed table expires →
    //     expires_at rides along inside the attribute count: final
    //     user_sessions has 3 attrs (sid, user_id, expires_at) → 3 born;
    //     sessions had 3 attrs → 3 died. Total 6.
    assert_eq!(totals, vec![3, 3, 5, 6]);
    assert_eq!(h.total_activity(), 17);

    let b = h.total_breakdown();
    assert_eq!(b.attrs_born_with_table, 3 + 3 + 3);
    assert_eq!(b.attrs_deleted_with_table, 3);
    assert_eq!(b.attrs_injected, 2 + 1);
    assert_eq!(b.attrs_ejected, 1);
    assert_eq!(b.attrs_type_changed, 1);
    assert_eq!(b.attrs_key_changed, 0);

    // Heartbeat: Mar 2016 .. Apr 2017 = 14 months.
    let hb = h.heartbeat();
    assert_eq!(hb.months(), 14);
    assert_eq!(hb.activity()[0], 3);
    assert_eq!(hb.activity()[3], 3); // June
    assert_eq!(hb.activity()[8], 5); // November
    assert_eq!(hb.activity()[13], 6); // April 2017
}

#[test]
fn constraint_churn_is_informational() {
    let v3 = parse_schema(V3, Dialect::MySql).unwrap();
    let v4 = parse_schema(V4, Dialect::MySql).unwrap();
    // The FK disappeared along with the renamed table; surviving tables
    // (users) kept their constraints → constraint delta over survivors is
    // empty, and activity is untouched by the FK's disappearance.
    let cd = coevo_diff::diff_constraints(&v3, &v4);
    assert!(cd.is_empty(), "{cd:?}");
}
