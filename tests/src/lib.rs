//! Integration-test crate: the tests live in `tests/tests/*.rs` and span the
//! whole workspace, from SQL text and git-log text down to the study's
//! figures.

use coevo_core::ProjectData;
use coevo_corpus::{GeneratedProject, ProjectArtifacts};
use coevo_ddl::Dialect;
use coevo_engine::{EngineError, StudyConfig, StudyRunner};
use coevo_heartbeat::DateTime;

/// Run one unlabeled project's raw texts — a git log dump and its dated DDL
/// versions — through `StudyRunner::run_project` under the default
/// configuration, keeping its study inputs.
pub fn measure_texts(
    name: &str,
    git_log: &str,
    ddl_versions: &[(DateTime, String)],
    dialect: Dialect,
) -> Result<ProjectData, EngineError> {
    let project = ProjectArtifacts {
        name: name.to_string(),
        taxon: None,
        dialect,
        ddl_versions: ddl_versions.to_vec(),
        git_log: git_log.to_string(),
    };
    StudyRunner::new(StudyConfig::default()).run_project(&project).map(|(data, _)| data)
}

/// Run one generated project through the engine's per-project pipeline
/// (`StudyRunner::run_project` under the default configuration) and keep
/// its study inputs, labeled with the generator's taxon.
pub fn measure_generated(p: &GeneratedProject) -> ProjectData {
    StudyRunner::new(StudyConfig::default())
        .run_project(&ProjectArtifacts::from_generated(p))
        .expect("pipeline")
        .0
}
