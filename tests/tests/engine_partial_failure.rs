//! Fault tolerance of the execution engine: corrupt artifacts in an on-disk
//! corpus demote their projects to structured failures while the study
//! completes on the survivors.

use coevo_corpus::loader::save_project;
use coevo_corpus::{generate_corpus, CorpusSpec};
use coevo_engine::{EngineErrorKind, FailurePolicy, Source, Stage, StudyConfig, StudyRunner};
use std::error::Error;
use std::fs;
use std::path::PathBuf;

/// Write a one-project-per-taxon corpus to disk and corrupt two projects:
/// one gets a truncated DDL version, the other a truncated git log. Returns
/// the corpus dir and the two victims' names (DDL victim, log victim).
fn corrupted_corpus(tag: &str) -> (PathBuf, String, String) {
    let dir =
        std::env::temp_dir().join(format!("coevo_engine_fail_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();

    let mut spec = CorpusSpec::paper();
    for t in &mut spec.taxa {
        t.count = 1;
    }
    let corpus = generate_corpus(&spec);
    assert_eq!(corpus.len(), 6);
    for p in &corpus {
        save_project(&dir.join(p.raw.name.replace('/', "__")), p).unwrap();
    }

    let ddl_victim = &corpus[1];
    let ddl_dir = dir.join(ddl_victim.raw.name.replace('/', "__"));
    fs::write(ddl_dir.join("versions/0001.sql"), "CREATE TABLE t (a INT").unwrap();

    let log_victim = &corpus[4];
    let log_dir = dir.join(log_victim.raw.name.replace('/', "__"));
    fs::write(log_dir.join("git.log"), "commit abcdef\nAuthor: A <a@b.c>\n").unwrap();

    (dir, ddl_victim.raw.name.clone(), log_victim.raw.name.clone())
}

#[test]
fn corrupt_projects_are_demoted_to_failures() {
    let (dir, ddl_name, log_name) = corrupted_corpus("collect");

    let report = StudyRunner::new(StudyConfig::default())
        .with_failure_policy(FailurePolicy::CollectAndContinue)
        .run(Source::OnDisk(dir.clone()))
        .expect("study completes despite corrupt projects");

    // Exactly the two victims failed, both at the parse stage, with the
    // structured cause preserved through `Error::source()`.
    assert_eq!(report.failures.len(), 2, "{:?}", report.failures);
    let ddl_failure =
        report.failures.iter().find(|f| f.project == ddl_name).expect("DDL victim reported");
    assert_eq!(ddl_failure.stage, Stage::Parse);
    assert!(matches!(ddl_failure.error.kind, EngineErrorKind::Ddl(_)));
    assert!(ddl_failure.error.source().is_some());

    let log_failure =
        report.failures.iter().find(|f| f.project == log_name).expect("log victim reported");
    assert_eq!(log_failure.stage, Stage::Parse);
    assert!(matches!(log_failure.error.kind, EngineErrorKind::GitLog(_)));
    assert!(log_failure.error.source().is_some());

    // The survivors carried the study: four projects, figures included.
    assert_eq!(report.projects.len(), 4);
    assert!(report.projects.iter().all(|p| p.name != ddl_name && p.name != log_name));
    assert_eq!(report.results.measures.len(), 4);
    assert_eq!(report.results.fig4.counts.iter().sum::<u64>(), 4);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fail_fast_aborts_on_first_corrupt_project() {
    let (dir, ddl_name, log_name) = corrupted_corpus("failfast");

    let err = StudyRunner::new(StudyConfig::default())
        .with_failure_policy(FailurePolicy::FailFast)
        .run(Source::OnDisk(dir.clone()))
        .expect_err("fail-fast surfaces the corruption");
    assert_eq!(err.stage, Stage::Parse);

    // An on-disk corpus runs in manifest-name order, so the first failing
    // project is whichever victim sorts first. Every worker count, eager or
    // streamed, must return exactly that project's error.
    let ddl_first = ddl_name < log_name;
    let first = if ddl_first { &ddl_name } else { &log_name };
    for workers in [1, 2, 4] {
        let runner = StudyRunner::new(StudyConfig::default())
            .with_workers(workers)
            .with_failure_policy(FailurePolicy::FailFast);
        let eager = runner.run(Source::OnDisk(dir.clone())).expect_err("eager fail-fast");
        let streamed =
            runner.run_streamed(Source::OnDisk(dir.clone())).expect_err("streamed fail-fast");
        for err in [eager, streamed] {
            assert_eq!(&err.project, first, "workers {workers}: {err}");
            assert_eq!(err.stage, Stage::Parse);
            if ddl_first {
                assert!(matches!(err.kind, EngineErrorKind::Ddl(_)), "{:?}", err.kind);
            } else {
                assert!(matches!(err.kind, EngineErrorKind::GitLog(_)), "{:?}", err.kind);
            }
        }
    }

    let _ = fs::remove_dir_all(&dir);
}

/// Two directories declaring one project name: the first (in directory
/// order) runs, the second is a load failure that names it, and the study
/// counts the project once.
#[test]
fn duplicate_project_names_are_load_failures() {
    let dir =
        std::env::temp_dir().join(format!("coevo_engine_fail_dup_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let corpus = generate_corpus(&CorpusSpec::paper().with_per_taxon(1));
    for p in &corpus {
        save_project(&dir.join(p.raw.name.replace('/', "__")), p).unwrap();
    }
    let original = corpus[0].raw.name.replace('/', "__");
    save_project(&dir.join("zz-copy"), &corpus[0]).unwrap();

    let report = StudyRunner::new(StudyConfig::default())
        .run(Source::OnDisk(dir.clone()))
        .expect("study completes");
    assert_eq!(report.projects.len(), corpus.len());
    assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
    let failure = &report.failures[0];
    assert_eq!((failure.project.as_str(), failure.stage), ("zz-copy", Stage::Load));
    assert_eq!(
        failure.cause(),
        format!("duplicate project name {:?} (first read from {original})", corpus[0].raw.name)
    );

    let err = StudyRunner::new(StudyConfig::default())
        .with_failure_policy(FailurePolicy::FailFast)
        .run(Source::OnDisk(dir.clone()))
        .unwrap_err();
    assert_eq!((err.project.as_str(), err.stage), ("zz-copy", Stage::Load));
    let _ = fs::remove_dir_all(&dir);
}
