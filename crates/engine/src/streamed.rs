//! Shard-batched streamed execution: the whole corpus→results data path at
//! O(shard) peak memory instead of O(corpus).
//!
//! [`StudyRunner::run_streamed`] is the engine's one batch loop (see
//! [`StudyRunner::run`]) with each admission batch capped — one shard at a
//! time for [`Source::Sharded`], [`DEFAULT_BATCH`]-sized (or
//! [`crate::StudyConfig::max_resident_projects`]-sized) chunks for the other
//! sources. Within a batch nothing differs from `run`: the same worker
//! pool, the same per-stage metrics, the same result-store spill. Between
//! batches only two things survive:
//!
//! - the per-project **measures** (small — a handful of curves and scalars
//!   per project); the heavyweight [`coevo_core::ProjectData`] (parsed
//!   histories, heartbeats) is dropped as soon as its batch's results are
//!   collected, which is the whole O(shard) claim;
//! - the structured **failures**.
//!
//! Batches run in global corpus order and results are collected in input
//! order within each batch, so the concatenated measure sequence is the
//! exact sequence the eager path produces — corpus aggregation over it is
//! byte-identical, which the differential tests and the `coevo check`
//! corpus oracle pin (including under seeded mid-shard failure injection).

use crate::error::{EngineError, ProjectFailure};
use crate::metrics::MetricsSnapshot;
use crate::runner::{Source, StudyRunner, DEFAULT_BATCH};
use coevo_core::StudyResults;

/// Everything one streamed run produces. Unlike [`crate::EngineReport`]
/// there is no `projects` vector: retaining every project's parsed data is
/// exactly what streaming exists to avoid. Survivor count is
/// `results.measures.len()`.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedReport {
    /// The full study results computed from the surviving projects'
    /// measures, byte-identical to the eager path's.
    pub results: StudyResults,
    /// Projects demoted to structured failures, sorted by name.
    pub failures: Vec<ProjectFailure>,
    /// Per-stage observability counters (plus peak-memory readings).
    pub metrics: MetricsSnapshot,
}

impl StudyRunner {
    /// Run the full study over `source` with bounded peak memory: projects
    /// are admitted to the worker pool in batches (one shard at a time for
    /// [`Source::Sharded`]), their parsed data dropped once measured, and
    /// the corpus aggregation computed over the per-project measures.
    ///
    /// The output is pinned byte-identical to [`StudyRunner::run`] on the
    /// same source: same `results`, same `failures`. Error behavior matches
    /// too — only an unusable source (or store) is a hard error under
    /// [`crate::FailurePolicy::CollectAndContinue`], while
    /// [`crate::FailurePolicy::FailFast`] aborts on the first project
    /// failure.
    pub fn run_streamed(&self, source: Source) -> Result<StreamedReport, EngineError> {
        let out = self.run_batches(source, self.batch_cap(), false)?;
        Ok(StreamedReport {
            results: out.results,
            failures: out.failures,
            metrics: out.metrics,
        })
    }

    /// The per-batch project cap for non-sharded sources (and the sub-shard
    /// cap for sharded ones).
    fn batch_cap(&self) -> usize {
        match self.config().max_resident_projects {
            0 => DEFAULT_BATCH,
            n => n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{EngineErrorKind, FailurePolicy, Stage};
    use crate::runner::StudyConfig;
    use coevo_corpus::{generate_sharded, CorpusSpec, ProjectArtifacts};
    use std::path::PathBuf;

    fn small_spec(per_taxon: usize) -> CorpusSpec {
        CorpusSpec::paper().with_per_taxon(per_taxon)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("coevo_streamed_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn streamed_spec_equals_eager_run() {
        let spec = small_spec(2);
        let runner = StudyRunner::new(StudyConfig::default()).with_max_resident(5);
        let eager = runner.run(Source::Spec(spec.clone())).expect("eager");
        let streamed = runner.run_streamed(Source::Spec(spec)).expect("streamed");
        assert_eq!(streamed.results, eager.results);
        assert_eq!(streamed.failures, eager.failures);
    }

    #[test]
    fn streamed_sharded_equals_eager_sharded_and_generated() {
        let dir = tmpdir("shardeq");
        let spec = small_spec(2); // 12 projects
        generate_sharded(&dir, &spec, 5).unwrap();
        let runner = StudyRunner::new(StudyConfig::default()).with_workers(2);

        let generated = runner.run(Source::Spec(spec)).expect("generated");
        let eager = runner.run(Source::Sharded(dir.clone())).expect("eager sharded");
        let streamed =
            runner.run_streamed(Source::Sharded(dir.clone())).expect("streamed sharded");

        assert_eq!(eager.results, generated.results);
        assert_eq!(streamed.results, eager.results);
        assert!(streamed.failures.is_empty());
        // Sub-shard admission (cap 2 < shard 5) changes nothing.
        let capped = runner
            .with_max_resident(2)
            .run_streamed(Source::Sharded(dir.clone()))
            .expect("capped streamed");
        assert_eq!(capped.results, eager.results);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_in_memory_and_on_disk_equal_eager() {
        let spec = small_spec(1);
        let projects: Vec<ProjectArtifacts> = coevo_corpus::generate_corpus(&spec)
            .iter()
            .map(ProjectArtifacts::from_generated)
            .collect();
        let runner = StudyRunner::new(StudyConfig::default()).with_max_resident(2);

        let eager = runner.run(Source::InMemory(projects.clone())).expect("eager");
        let streamed =
            runner.run_streamed(Source::InMemory(projects.clone())).expect("streamed");
        assert_eq!(streamed.results, eager.results);

        // On-disk: save in the loader layout, then compare both paths.
        let dir = tmpdir("ondisk");
        for (i, p) in coevo_corpus::generate_corpus(&spec).iter().enumerate() {
            coevo_corpus::loader::save_project(&dir.join(format!("p{i}")), p).unwrap();
        }
        let eager = runner.run(Source::OnDisk(dir.clone())).expect("eager on-disk");
        let streamed =
            runner.run_streamed(Source::OnDisk(dir.clone())).expect("streamed on-disk");
        assert_eq!(streamed.results, eager.results);
        assert_eq!(streamed.failures, eager.failures);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_fails_that_project_in_both_paths() {
        let dir = tmpdir("corrupt");
        let spec = small_spec(1); // 6 projects
        let manifest = generate_sharded(&dir, &spec, 3).unwrap();
        // Break record 1 of shard 0 (byte right after its length prefix is
        // somewhere past the first record; easiest reliable corruption: the
        // first byte of the first record's payload).
        let path = dir.join(&manifest.shards[0].file);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8 + 4 + 4] = b'!';
        std::fs::write(&path, &bytes).unwrap();

        let runner = StudyRunner::new(StudyConfig::default());
        let eager = runner.run(Source::Sharded(dir.clone())).expect("eager");
        let streamed = runner.run_streamed(Source::Sharded(dir.clone())).expect("streamed");
        assert_eq!(eager.failures.len(), 1);
        assert!(eager.failures[0].project.contains("[record 0]"), "{:?}", eager.failures);
        assert_eq!(streamed.failures, eager.failures);
        assert_eq!(streamed.results, eager.results);
        assert_eq!(streamed.results.measures.len(), 5);

        // FailFast surfaces the load failure as a hard error.
        let err = runner
            .clone()
            .with_failure_policy(FailurePolicy::FailFast)
            .run_streamed(Source::Sharded(dir.clone()))
            .unwrap_err();
        assert_eq!(err.stage, Stage::Load);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_sharded_corpus_is_a_hard_error() {
        let runner = StudyRunner::new(StudyConfig::default());
        let err = runner
            .run_streamed(Source::Sharded(PathBuf::from("/nonexistent_coevo_shards")))
            .unwrap_err();
        assert_eq!(err.stage, Stage::Load);
        assert!(matches!(err.kind, EngineErrorKind::Load(_)));
        // Same for the eager path over the same source.
        let err2 = runner
            .run(Source::Sharded(PathBuf::from("/nonexistent_coevo_shards")))
            .unwrap_err();
        assert_eq!(err2.kind, err.kind);
    }

    #[test]
    fn empty_sources_yield_empty_studies() {
        let runner = StudyRunner::new(StudyConfig::default());
        let streamed = runner.run_streamed(Source::InMemory(Vec::new())).expect("empty");
        assert_eq!(streamed.results.measures.len(), 0);
        assert!(streamed.failures.is_empty());
    }

    #[test]
    fn store_spill_serves_streamed_reruns() {
        let store_dir = tmpdir("store");
        let corpus_dir = tmpdir("storecorpus");
        let spec = small_spec(1);
        generate_sharded(&corpus_dir, &spec, 2).unwrap();
        let runner = StudyRunner::new(StudyConfig::default()).with_store(&store_dir);

        let cold = runner.run_streamed(Source::Sharded(corpus_dir.clone())).expect("cold");
        let s = cold.metrics.store.expect("store metrics");
        assert_eq!((s.hits, s.misses, s.published), (0, 6, 6));

        let warm = runner.run_streamed(Source::Sharded(corpus_dir.clone())).expect("warm");
        let s = warm.metrics.store.expect("store metrics");
        assert_eq!((s.hits, s.misses, s.published), (6, 0, 0));
        assert_eq!(warm.results, cold.results);
        let _ = std::fs::remove_dir_all(&store_dir);
        let _ = std::fs::remove_dir_all(&corpus_dir);
    }
}
