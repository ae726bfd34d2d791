//! The real-data path: persisting and loading project histories on disk.
//!
//! Layout of a project directory:
//!
//! ```text
//! <dir>/
//!   manifest.json      # name, dialect, ordered version file names + dates
//!   git.log            # `git log --name-status --no-merges --date=iso` dump
//!   versions/
//!     0001.sql
//!     0002.sql
//!     ...
//! ```
//!
//! A user with a real clone produces `git.log` with the study's exact git
//! command and dumps each historical version of the DDL file (e.g. via
//! `git show <sha>:<path>`); the pipeline then runs unmodified on real data.

use crate::artifacts::ProjectArtifacts;
use crate::generator::GeneratedProject;
use coevo_ddl::Dialect;
use coevo_heartbeat::DateTime;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;

/// The manifest of a stored project history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// The name, as written in the source.
    pub name: String,
    /// Dialect name (`mysql` / `postgres` / `generic`).
    pub dialect: String,
    /// Optional taxon label (slug), as assigned by a human or the
    /// classifier.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub taxon: Option<String>,
    /// Ordered versions: file name (under `versions/`) and ISO commit date.
    pub versions: Vec<ManifestVersion>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
/// One DDL version entry of a manifest.
pub struct ManifestVersion {
    /// The file.
    pub file: String,
    /// The commit timestamp.
    pub date: String,
}

/// Loader/saver errors.
#[derive(Debug)]
pub enum LoaderError {
    /// Filesystem error on `file`, a path relative to the project directory.
    Io {
        /// The file that could not be read or written.
        file: String,
        /// The underlying error.
        error: io::Error,
    },
    /// Manifest (de)serialization error.
    Json(serde_json::Error),
    /// A version date that does not parse.
    BadDate(String),
    /// An unrecognized dialect name.
    BadDialect(String),
}

impl std::fmt::Display for LoaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { file, error } => write!(f, "{file}: {error}"),
            Self::Json(e) => write!(f, "manifest: {e}"),
            Self::BadDate(s) => write!(f, "bad date {s:?}"),
            Self::BadDialect(s) => write!(f, "unknown dialect {s:?}"),
        }
    }
}

impl std::error::Error for LoaderError {}

impl From<serde_json::Error> for LoaderError {
    fn from(e: serde_json::Error) -> Self {
        Self::Json(e)
    }
}

/// Tag an I/O error with the project-relative file it concerns.
fn io_at(file: &str) -> impl FnOnce(io::Error) -> LoaderError + '_ {
    move |error| LoaderError::Io { file: file.to_string(), error }
}

/// Save a generated project to disk in the loader's layout.
pub fn save_project(dir: &Path, project: &GeneratedProject) -> Result<(), LoaderError> {
    fs::create_dir_all(dir.join("versions")).map_err(io_at("versions"))?;
    let mut versions = Vec::new();
    for (i, (date, text)) in project.raw.ddl_versions.iter().enumerate() {
        let file = format!("{:04}.sql", i + 1);
        fs::write(dir.join("versions").join(&file), text)
            .map_err(io_at(&format!("versions/{file}")))?;
        versions.push(ManifestVersion { file, date: date.to_string() });
    }
    let manifest = Manifest {
        name: project.raw.name.clone(),
        dialect: project.raw.dialect.name().to_string(),
        taxon: Some(project.raw.taxon.slug().to_string()),
        versions,
    };
    fs::write(dir.join("manifest.json"), serde_json::to_string_pretty(&manifest)?)
        .map_err(io_at("manifest.json"))?;
    fs::write(dir.join("git.log"), &project.git_log).map_err(io_at("git.log"))?;
    Ok(())
}

/// Read only a project directory's `manifest.json` — no version texts.
pub fn read_manifest(dir: &Path) -> Result<Manifest, LoaderError> {
    let text = fs::read_to_string(dir.join("manifest.json")).map_err(io_at("manifest.json"))?;
    Ok(serde_json::from_str(&text)?)
}

/// Read a project directory's raw artifacts: the manifest, the git log and
/// every DDL version text, in manifest order. Nothing is parsed or measured
/// here; `StudyRunner::run_project` in `coevo-engine` turns the artifacts
/// into study inputs, exactly as it does for generated projects. An
/// unrecognized taxon slug is dropped, leaving the project to the
/// classifier.
pub fn read_project(dir: &Path) -> Result<ProjectArtifacts, LoaderError> {
    let manifest = read_manifest(dir)?;
    let dialect = Dialect::from_name(&manifest.dialect)
        .ok_or_else(|| LoaderError::BadDialect(manifest.dialect.clone()))?;
    let git_log = fs::read_to_string(dir.join("git.log")).map_err(io_at("git.log"))?;
    let mut ddl_versions = Vec::with_capacity(manifest.versions.len());
    for v in &manifest.versions {
        let date =
            DateTime::parse(&v.date).map_err(|_| LoaderError::BadDate(v.date.clone()))?;
        let file = format!("versions/{}", v.file);
        let text = fs::read_to_string(dir.join(&file)).map_err(io_at(&file))?;
        ddl_versions.push((date, text));
    }
    let taxon = manifest.taxon.as_deref().and_then(coevo_taxa::Taxon::parse);
    Ok(ProjectArtifacts { name: manifest.name, taxon, dialect, ddl_versions, git_log })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_corpus, CorpusSpec};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("coevo_loader_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_round_trip() {
        // Reading a saved project yields exactly the in-memory artifacts, so
        // the measurement pipeline sees the same input either way.
        let mut spec = CorpusSpec::paper();
        for t in &mut spec.taxa {
            t.count = 1;
        }
        let corpus = generate_corpus(&spec);
        let dir = tmpdir("rt");
        for (i, p) in corpus.iter().enumerate() {
            let pdir = dir.join(format!("p{i}"));
            save_project(&pdir, p).unwrap();
            let loaded = read_project(&pdir).unwrap();
            assert_eq!(loaded, ProjectArtifacts::from_generated(p), "{}", p.raw.name);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_errors() {
        let dir = tmpdir("missing");
        assert!(matches!(read_project(&dir), Err(LoaderError::Io { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_version_file_errors() {
        // A manifest that references a version file that was never written
        // (e.g. the save was killed mid-way) is a typed Io error, not a
        // panic.
        let spec = CorpusSpec::paper().with_per_taxon(1);
        let p = &generate_corpus(&spec)[0];
        let dir = tmpdir("trunc");
        save_project(&dir, p).unwrap();
        fs::remove_file(dir.join("versions/0001.sql")).unwrap();
        assert!(matches!(read_project(&dir), Err(LoaderError::Io { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_errors() {
        let dir = tmpdir("badjson");
        fs::write(dir.join("manifest.json"), "{not json").unwrap();
        assert!(matches!(read_project(&dir), Err(LoaderError::Json(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_dialect_errors() {
        let dir = tmpdir("baddialect");
        fs::write(
            dir.join("manifest.json"),
            r#"{"name":"x","dialect":"oracle","versions":[]}"#,
        )
        .unwrap();
        fs::write(dir.join("git.log"), "").unwrap();
        assert!(matches!(read_project(&dir), Err(LoaderError::BadDialect(_))));
        let _ = fs::remove_dir_all(&dir);
    }
}
