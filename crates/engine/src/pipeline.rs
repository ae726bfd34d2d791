//! The per-project measurement pipeline: parse → diff → heartbeat →
//! measure, with per-stage [`Metrics`] spans and [`EngineError`] failures
//! that keep the underlying parser error.
//!
//! This is the only code that turns a project's raw texts into
//! [`ProjectData`]. The engine's workers run it for every project of a
//! study, and [`crate::StudyRunner::run_project`] runs it for one; generated,
//! sharded and on-disk projects all reach it as [`ProjectArtifacts`].

use crate::allocs;
use crate::error::{EngineError, EngineErrorKind, Stage};
use crate::metrics::Metrics;
use coevo_core::{ProjectData, ProjectMeasures};
use coevo_corpus::ProjectArtifacts;
use coevo_ddl::ParseCache;
use coevo_diff::{MatchPolicy, SchemaHistory, SchemaVersion};
use coevo_taxa::TaxonomyConfig;
use coevo_vcs::{monthly::project_heartbeat, parse_log};
use std::time::Instant;

/// Run parse → diff → heartbeat → measure on one project's raw artifacts,
/// recording per-stage spans into `metrics`.
pub(crate) fn process(
    project: &ProjectArtifacts,
    cfg: &TaxonomyConfig,
    policy: MatchPolicy,
    metrics: &Metrics,
) -> Result<(ProjectData, ProjectMeasures), EngineError> {
    let fail = |stage: Stage, kind: EngineErrorKind| EngineError {
        project: project.name.clone(),
        stage,
        kind,
    };

    // Parse: the git log, then every DDL version through a per-project
    // content-addressed cache — byte-identical versions (inactive commits)
    // parse once and share one `Arc<Schema>`.
    let a = allocs::snapshot();
    let t = Instant::now();
    let repo = parse_log(&project.git_log)
        .map_err(|e| fail(Stage::Parse, EngineErrorKind::GitLog(e)))?;
    let mut cache = ParseCache::new();
    let mut versions = Vec::with_capacity(project.ddl_versions.len());
    for (date, text) in &project.ddl_versions {
        let schema = cache
            .parse(text, project.dialect)
            .map_err(|e| fail(Stage::Parse, EngineErrorKind::Ddl(e)))?;
        versions.push(SchemaVersion { date: *date, schema });
    }
    metrics.record(Stage::Parse, t.elapsed(), 1 + project.ddl_versions.len() as u64);
    metrics.record_cache(Stage::Parse, cache.hits(), cache.misses());
    metrics.record_allocs(Stage::Parse, allocs::snapshot().since(a));

    // Diff: consecutive versions into the delta sequence.
    let a = allocs::snapshot();
    let t = Instant::now();
    let history = SchemaHistory::from_schemas(versions, policy)
        .ok_or_else(|| fail(Stage::Diff, EngineErrorKind::Empty("schema history")))?;
    metrics.record(Stage::Diff, t.elapsed(), history.deltas().len() as u64);
    let dstats = history.diff_stats();
    metrics.record_cache(Stage::Diff, dstats.elided(), dstats.tables_diffed);
    metrics.record_allocs(Stage::Diff, allocs::snapshot().since(a));

    // Heartbeat: the two monthly activity series.
    let a = allocs::snapshot();
    let t = Instant::now();
    let project_hb = project_heartbeat(&repo)
        .ok_or_else(|| fail(Stage::Heartbeat, EngineErrorKind::Empty("repository")))?;
    let schema_hb = history.heartbeat();
    let birth_activity = history.deltas().first().map(|d| d.breakdown.total()).unwrap_or(0);
    metrics.record(Stage::Heartbeat, t.elapsed(), 2);
    metrics.record_allocs(Stage::Heartbeat, allocs::snapshot().since(a));

    let mut data = ProjectData::new(&project.name, project_hb, schema_hb, birth_activity);
    if let Some(taxon) = project.taxon {
        data = data.with_taxon(taxon);
    }

    // Measure: the per-project study measures.
    let a = allocs::snapshot();
    let t = Instant::now();
    let measures = data.measures(cfg);
    metrics.record(Stage::Measure, t.elapsed(), 1);
    metrics.record_allocs(Stage::Measure, allocs::snapshot().since(a));

    Ok((data, measures))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StudyConfig, StudyRunner};
    use coevo_corpus::{generate_corpus, CorpusSpec, GeneratedProject};
    use coevo_ddl::Dialect;
    use coevo_heartbeat::DateTime;
    use coevo_taxa::Taxon;

    const GOOD_LOG: &str =
        "commit abc\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    m\n\nM\tf\n";

    fn dt(s: &str) -> DateTime {
        DateTime::parse(s).unwrap()
    }

    fn artifacts(git_log: &str, ddl_versions: &[(DateTime, String)]) -> ProjectArtifacts {
        ProjectArtifacts {
            name: "x/y".into(),
            taxon: None,
            dialect: Dialect::Generic,
            ddl_versions: ddl_versions.to_vec(),
            git_log: git_log.into(),
        }
    }

    /// One project through the engine's single-project entry point.
    fn run_project(
        git_log: &str,
        ddl_versions: &[(DateTime, String)],
    ) -> Result<(ProjectData, ProjectMeasures), EngineError> {
        StudyRunner::new(StudyConfig::default()).run_project(&artifacts(git_log, ddl_versions))
    }

    /// A generated project through `run_project`; the artifacts carry the
    /// generator's taxon label.
    fn project_of(p: &GeneratedProject) -> Result<ProjectData, EngineError> {
        StudyRunner::new(StudyConfig::default())
            .run_project(&ProjectArtifacts::from_generated(p))
            .map(|(data, _)| data)
    }

    fn small_corpus() -> Vec<GeneratedProject> {
        let mut spec = CorpusSpec::paper();
        for t in &mut spec.taxa {
            t.count = 2;
        }
        generate_corpus(&spec)
    }

    #[test]
    fn pipeline_runs_on_generated_projects() -> Result<(), EngineError> {
        for p in small_corpus() {
            let data = project_of(&p)?;
            assert_eq!(data.taxon, Some(p.raw.taxon));
            assert!(data.project.total() > 0);
            assert!(data.schema.total() > 0, "{}", p.raw.name);
            assert!(data.birth_activity > 0);
        }
        Ok(())
    }

    #[test]
    fn schema_heartbeat_reflects_scheduled_activity() {
        for p in small_corpus() {
            let data = project_of(&p).unwrap();
            // Birth activity equals the initial schema's attribute count.
            let initial = coevo_ddl::parse_schema(&p.raw.ddl_versions[0].1, p.raw.dialect)
                .unwrap()
                .attribute_count() as u64;
            assert_eq!(data.birth_activity, initial, "{}", p.raw.name);
            // Frozen projects have no post-birth activity.
            if p.raw.taxon == Taxon::Frozen {
                assert_eq!(data.schema.total(), initial);
            }
        }
    }

    #[test]
    fn project_axis_spans_schema_axis() {
        for p in small_corpus() {
            let data = project_of(&p).unwrap();
            assert!(data.project.start() <= data.schema.start(), "{}", p.raw.name);
        }
    }

    #[test]
    fn classifier_recovers_generated_taxa_mostly() {
        // The rule-based classifier should agree with the generator's labels
        // for a clear majority — they encode the same archetypes.
        let mut spec = CorpusSpec::paper();
        for t in &mut spec.taxa {
            t.count = 8;
        }
        let corpus = generate_corpus(&spec);
        let cfg = TaxonomyConfig::default();
        let mut agree = 0;
        let mut total = 0;
        for p in &corpus {
            let data = project_of(p).unwrap();
            let mut unlabeled = data.clone();
            unlabeled.taxon = None;
            if unlabeled.effective_taxon(&cfg) == p.raw.taxon {
                agree += 1;
            }
            total += 1;
        }
        assert!(agree * 3 >= total * 2, "classifier agreement too low: {agree}/{total}");
    }

    #[test]
    fn missing_artifacts_error() {
        let err = run_project("", &[]).unwrap_err();
        assert!(matches!(err.kind, EngineErrorKind::Empty(_)));
    }

    #[test]
    fn inactive_versions_hit_the_parse_and_diff_caches() {
        let same = "CREATE TABLE t (a INT);".to_string();
        let project = artifacts(
            GOOD_LOG,
            &[
                (dt("2020-01-01 00:00:00 +0000"), same.clone()),
                (dt("2020-02-01 00:00:00 +0000"), same.clone()),
                (dt("2020-03-01 00:00:00 +0000"), same),
                (dt("2020-04-01 00:00:00 +0000"), "CREATE TABLE t (a INT, b INT);".into()),
            ],
        );
        let metrics = Metrics::new();
        process(&project, &TaxonomyConfig::default(), MatchPolicy::ByName, &metrics)
            .expect("pipeline");
        let snap = metrics.snapshot(1);
        let parse = snap.stage(Stage::Parse).unwrap();
        // Item accounting is unchanged: 1 git log + 4 versions.
        assert_eq!(parse.items, 5);
        // But only 2 distinct texts parsed; 2 lookups were cache hits.
        assert_eq!((parse.cache_hits, parse.cache_misses), (2, 2));
        let diff = snap.stage(Stage::Diff).unwrap();
        // Versions 2 and 3 short-circuit whole-version; version 4 diffs
        // table `t` for real. (The creation delta has no survivors.)
        assert_eq!((diff.cache_hits, diff.cache_misses), (2, 1));
    }

    #[test]
    fn corrupt_ddl_fails_at_parse_with_position() {
        let versions = vec![
            (dt("2020-01-01 00:00:00 +0000"), "CREATE TABLE t (a INT);".to_string()),
            (dt("2020-02-01 00:00:00 +0000"), "CREATE TABLE t (a INT".to_string()),
        ];
        let err = run_project(GOOD_LOG, &versions).unwrap_err();
        assert_eq!(err.stage, Stage::Parse);
        let EngineErrorKind::Ddl(parse) = &err.kind else {
            panic!("expected Ddl kind, got {:?}", err.kind)
        };
        assert!(parse.line >= 1);
        assert_eq!(err.project, "x/y");
    }

    #[test]
    fn truncated_git_log_fails_at_parse() {
        let versions =
            vec![(dt("2020-01-01 00:00:00 +0000"), "CREATE TABLE t (a INT);".to_string())];
        let err = run_project("commit abcdef\nAuthor: A <a@b.c>\n", &versions).unwrap_err();
        assert_eq!(err.stage, Stage::Parse);
        assert!(matches!(err.kind, EngineErrorKind::GitLog(_)));
    }

    #[test]
    fn empty_inputs_fail_with_empty_kind() {
        let err = run_project(GOOD_LOG, &[]).unwrap_err();
        assert_eq!(err.stage, Stage::Diff);
        assert_eq!(err.kind, EngineErrorKind::Empty("schema history"));

        let merge_only = "commit abc\nMerge: 1 2\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    Merge\n\n";
        let versions =
            vec![(dt("2020-01-01 00:00:00 +0000"), "CREATE TABLE t (a INT);".to_string())];
        let err = run_project(merge_only, &versions).unwrap_err();
        assert_eq!(err.stage, Stage::Heartbeat);
        assert_eq!(err.kind, EngineErrorKind::Empty("repository"));
    }
}
