//! Shared helpers for the benchmark suite: building the study corpus once
//! and re-deriving the measure set.

#![warn(missing_docs)]

use coevo_core::{ProjectData, Study, StudyResults};
use coevo_corpus::{generate_corpus, CorpusSpec, ProjectArtifacts};
use coevo_engine::{Source, StudyConfig, StudyRunner};

/// Generate the full calibrated 195-project corpus and run its pipeline
/// on the execution engine.
pub fn study_projects() -> Vec<ProjectData> {
    StudyRunner::new(StudyConfig::default()).run(Source::paper()).expect("engine").projects
}

/// A smaller corpus (one project per taxon scaled by `per_taxon`) for
/// micro-benches where the full population would dominate the timing.
pub fn small_projects(per_taxon: usize) -> Vec<ProjectData> {
    let mut spec = CorpusSpec::paper();
    for t in &mut spec.taxa {
        t.count = per_taxon;
    }
    let runner = StudyRunner::new(StudyConfig::default());
    generate_corpus(&spec)
        .iter()
        .map(|p| runner.run_project(&ProjectArtifacts::from_generated(p)).expect("pipeline").0)
        .collect()
}

/// Run the complete study over a project set.
pub fn run_study(projects: Vec<ProjectData>) -> StudyResults {
    Study::new(projects).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_full_population() {
        let projects = small_projects(1);
        assert_eq!(projects.len(), 6);
        let results = run_study(projects);
        assert_eq!(results.measures.len(), 6);
    }
}
