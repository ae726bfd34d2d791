//! The on-disk path end to end: projects saved in the loader layout, read
//! back with `read_project`, and measured by the engine, must match the
//! same projects measured straight from memory.

use coevo_corpus::loader::{read_project, save_project};
use coevo_corpus::{generate_corpus, CorpusSpec};
use coevo_engine::{Source, StudyConfig, StudyRunner};
use coevo_integration::measure_generated;
use std::fs;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("coevo_on_disk_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn save_read_measure_round_trip() {
    let mut spec = CorpusSpec::paper();
    for t in &mut spec.taxa {
        t.count = 1;
    }
    let corpus = generate_corpus(&spec);
    let dir = tmpdir("rt");
    let runner = StudyRunner::new(StudyConfig::default());
    for (i, p) in corpus.iter().enumerate() {
        let pdir = dir.join(format!("p{i}"));
        save_project(&pdir, p).unwrap();
        let (loaded, _) = runner.run_project(&read_project(&pdir).unwrap()).unwrap();
        let direct = measure_generated(p);
        assert_eq!(loaded.name, direct.name);
        assert_eq!(loaded.project, direct.project);
        assert_eq!(loaded.schema, direct.schema);
        assert_eq!(loaded.birth_activity, direct.birth_activity);
        assert_eq!(loaded.taxon, direct.taxon);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn on_disk_study_round_trip() {
    let mut spec = CorpusSpec::paper();
    for t in &mut spec.taxa {
        t.count = 1;
    }
    let corpus = generate_corpus(&spec);
    let dir = tmpdir("corpus");
    for p in &corpus {
        save_project(&dir.join(p.raw.name.replace('/', "__")), p).unwrap();
    }
    // A stray non-project directory is skipped.
    fs::create_dir_all(dir.join("not_a_project")).unwrap();
    let report =
        StudyRunner::new(StudyConfig::default()).run(Source::OnDisk(dir.clone())).unwrap();
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let loaded = report.projects;
    assert_eq!(loaded.len(), corpus.len());
    let mut names: Vec<String> = loaded.iter().map(|d| d.name.clone()).collect();
    let mut expect: Vec<String> = corpus.iter().map(|p| p.raw.name.clone()).collect();
    names.sort();
    expect.sort();
    assert_eq!(names, expect);
    let _ = fs::remove_dir_all(&dir);
}
