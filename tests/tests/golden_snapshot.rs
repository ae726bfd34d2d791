//! Golden file for the serve snapshot wire format: the serialized
//! `ProjectState::snapshot()` of a small fixed project. The daemon persists
//! these bytes and restores them on a warm restart, so any drift must be a
//! deliberate format change to the golden file (and a bump of the snapshot
//! store's format word).
//!
//! To update after an intentional format change:
//! `UPDATE_GOLDEN=1 cargo test -p coevo-integration --test golden_snapshot`

use coevo_ddl::Dialect;
use coevo_engine::{ProjectEvent, ProjectSnapshot, ProjectState};
use coevo_heartbeat::DateTime;
use coevo_taxa::TaxonomyConfig;
use std::path::PathBuf;

fn commit(date: &str, files: u64) -> ProjectEvent {
    ProjectEvent::Commit { date: DateTime::parse(date).unwrap(), files_updated: files }
}

fn version(date: &str, ddl: &str) -> ProjectEvent {
    ProjectEvent::DdlVersion { date: DateTime::parse(date).unwrap(), ddl: ddl.to_string() }
}

/// Three months of history. The February version arrives last, so it lands
/// between two folded versions and forces its April successor to be
/// re-diffed; the second April version repeats the first byte for byte on
/// the same date (an inactive commit sharing its predecessor's schema).
fn fixed_project() -> ProjectState {
    const APRIL: &str = "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(80), \
                         email VARCHAR(80)); CREATE TABLE orders (id INT, user_id INT);";
    let mut state = ProjectState::new("golden/snapshot", Dialect::Generic);
    for ev in [
        commit("2020-01-05 09:00:00 +0000", 3),
        version(
            "2020-01-10 09:00:00 +0000",
            "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(40));",
        ),
        commit("2020-02-07 09:00:00 +0000", 2),
        version("2020-04-10 09:00:00 +0000", APRIL),
        version("2020-04-10 09:00:00 +0000", APRIL),
        commit("2020-04-12 09:00:00 +0000", 5),
        version(
            "2020-02-20 09:00:00 +0000",
            "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(80), email VARCHAR(80));",
        ),
    ] {
        state.ingest(ev).expect("fixed events ingest");
    }
    state
}

#[test]
fn snapshot_wire_format_matches_golden() {
    let mut state = fixed_project();
    assert_eq!(state.rediffs(), 1, "the late version must re-diff its successor");
    let rendered = serde_json::to_string_pretty(&state.snapshot()).expect("serialize") + "\n";

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join("snapshot.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(rendered, expected, "snapshot bytes differ from {}", path.display());

    // The golden bytes restore to the live state's measures.
    let snap: ProjectSnapshot = serde_json::from_str(&expected).expect("golden parses");
    let mut restored = ProjectState::from_snapshot(snap).expect("consistent snapshot");
    let cfg = TaxonomyConfig::default();
    assert_eq!(restored.measures(&cfg), state.measures(&cfg));
    assert!(restored.measures(&cfg).is_some());
}
