//! Golden files for CLI output: `coevo measure` on a fixed-seed generated
//! project saved in the on-disk layout, and `coevo case-study`. Both print
//! figures an operator reads and diffs, so their exact bytes are part of the
//! CLI contract and any drift must be a deliberate change to the golden file.
//!
//! To update after an intentional output change:
//! `UPDATE_GOLDEN=1 cargo test -p coevo-integration --test golden_cli`

use coevo_cli::{run, Command};
use coevo_corpus::loader::save_project;
use coevo_corpus::{generate_corpus, CorpusSpec};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join(name)
}

fn assert_matches_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    if rendered != expected {
        for (i, (got, want)) in rendered.lines().zip(expected.lines()).enumerate() {
            assert_eq!(got, want, "first divergence at {}:{}", path.display(), i + 1);
        }
        assert_eq!(
            rendered.lines().count(),
            expected.lines().count(),
            "line count differs from {}",
            path.display()
        );
        panic!("rendered output differs from {} in trailing whitespace", path.display());
    }
}

fn run_cli(cmd: Command) -> String {
    let mut out = Vec::new();
    let code = run(cmd, &mut out);
    let text = String::from_utf8(out).expect("utf-8 CLI output");
    assert_eq!(code, 0, "command failed:\n{text}");
    text
}

#[test]
fn measure_output_matches_golden() {
    // The first ACTIVE project of the seed-11 two-per-taxon corpus: a long
    // history with post-birth schema change, so every section prints.
    let mut spec = CorpusSpec::paper().with_per_taxon(2);
    spec.seed = 11;
    let corpus = generate_corpus(&spec);
    let project = corpus
        .iter()
        .find(|p| p.raw.taxon == coevo_taxa::Taxon::Active)
        .expect("an ACTIVE project");
    let dir = std::env::temp_dir().join(format!("coevo_golden_measure_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    save_project(&dir, project).expect("save project");
    let text = run_cli(Command::Measure { dir: dir.clone() });
    let _ = std::fs::remove_dir_all(&dir);
    assert_matches_golden("measure.txt", &text);
}

#[test]
fn case_study_output_matches_golden() {
    assert_matches_golden("case_study.txt", &run_cli(Command::CaseStudy));
}
