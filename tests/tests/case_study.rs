//! The paper's §3.3 case study (`mapbox/osm-comments-parser`), measured
//! through the engine's per-project pipeline and checked against the
//! published narrative.

use coevo_core::synchronicity::theta_synchronicity;
use coevo_core::ProjectData;
use coevo_corpus::case_study_project;
use coevo_engine::{StudyConfig, StudyRunner};

fn case_study_data() -> ProjectData {
    StudyRunner::new(StudyConfig::default()).run_project(&case_study_project()).unwrap().0
}

#[test]
fn schema_activity_profile_matches_paper() {
    let data = case_study_data();
    // 22-month project, 20-month schema update period.
    let jp = data.joint_progress();
    assert_eq!(jp.months(), 22);
    assert_eq!(data.schema.months(), 20);
    // Birth carries 48% of total schema activity.
    assert_eq!(data.birth_activity, 12);
    assert_eq!(data.schema.total(), 25);
    assert!((jp.schema[0] - 0.48).abs() < 1e-9);
    // 9 active schema commits (bursts of activity), 13 versions.
    let active_months = data.schema.active_months();
    assert_eq!(active_months, 6); // m0, m12, m13, m14, m16, m19
}

#[test]
fn attainment_matches_paper_narrative() {
    let data = case_study_data();
    let m = data.measures(&coevo_taxa::TaxonomyConfig::default());
    // "50% of the schema changes at 55% of its life" (we measure 12/21).
    let a50 = m.attainment.at_50.unwrap();
    assert!((a50 - 0.55).abs() < 0.05, "50% attainment at {a50}");
    // "80% of the schema changes at 68% of its life" (we measure 14/21).
    let a80 = m.attainment.at_80.unwrap();
    assert!((a80 - 0.68).abs() < 0.05, "80% attainment at {a80}");
}

#[test]
fn synchronicity_in_paper_ballpark() {
    let data = case_study_data();
    let jp = data.joint_progress();
    let sync = theta_synchronicity(&jp.project, &jp.schema, 0.10);
    // Paper: close for 43% of the time.
    assert!((0.30..=0.60).contains(&sync), "sync10 = {sync}");
}
