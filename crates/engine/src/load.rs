//! The load stage: the engine's one loader, a resumable cursor over a
//! [`Source`] that yields projects in global corpus order, one admission
//! batch at a time.
//!
//! On-disk projects are read with `coevo_corpus::loader::read_project`, the
//! one reader of the directory layout. Per-project load problems (an
//! unreadable manifest, a corrupt shard record, a project name that another
//! directory already claimed) become [`ProjectFailure`]s inside the batch
//! that found them; only an unusable source is a hard error, raised by
//! [`Batches::plan`].

use crate::error::{EngineError, EngineErrorKind, ProjectFailure, Stage};
use crate::runner::Source;
use coevo_corpus::loader::{read_manifest, read_project};
use coevo_corpus::{CorpusSpec, ProjectArtifacts};
use std::path::{Path, PathBuf};

/// One admission batch: the projects to run plus any load failures found
/// while materializing them.
pub(crate) struct Batch {
    pub projects: Vec<ProjectArtifacts>,
    pub failures: Vec<ProjectFailure>,
}

/// The batch planner: a resumable cursor over a source, yielding projects
/// in global corpus order without ever materializing more than one batch
/// (plus, for sharded sources, the shard it is sliced from).
pub(crate) enum Batches {
    /// Generate `cap` projects at a time via `generate_nth`.
    Generated { spec: CorpusSpec, next: usize, total: usize, cap: usize },
    /// Read one shard at a time (shards visited by global `start` offset);
    /// a shard larger than `cap` is admitted in `cap`-sized slices.
    Sharded {
        stream: coevo_corpus::CorpusStream,
        entries: Vec<coevo_corpus::ShardEntry>,
        next_entry: usize,
        /// Unadmitted remainder of the currently open shard (global order).
        pending: Vec<ProjectArtifacts>,
        cap: usize,
    },
    /// Load `cap` project directories at a time, in manifest-name order
    /// (established by a cheap manifest-only pre-pass that also rejects
    /// repeated names).
    OnDisk { dirs: Vec<PathBuf>, next: usize, pre_failures: Vec<ProjectFailure>, cap: usize },
    /// Slice the given vector `cap` projects at a time.
    InMemory { projects: std::vec::IntoIter<ProjectArtifacts>, cap: usize },
}

impl Batches {
    /// Plan batches of at most `cap` projects over `source`. An unusable
    /// source (missing directory, bad corpus manifest) is a hard error.
    pub fn plan(source: Source, cap: usize) -> Result<Self, EngineError> {
        let cap = cap.max(1);
        match source {
            Source::GeneratedCorpus(seed) => {
                let mut spec = CorpusSpec::paper();
                spec.seed = seed;
                Ok(Self::generated(spec, cap))
            }
            Source::Spec(spec) => Ok(Self::generated(spec, cap)),
            Source::Sharded(dir) => {
                let stream = open_corpus_stream(&dir)?;
                let mut entries = stream.manifest().shards.clone();
                entries.sort_by_key(|e| e.start);
                Ok(Self::Sharded { stream, entries, next_entry: 0, pending: Vec::new(), cap })
            }
            Source::OnDisk(dir) => {
                let (dirs, pre_failures) = plan_on_disk(&dir)?;
                Ok(Self::OnDisk { dirs, next: 0, pre_failures, cap })
            }
            Source::InMemory(projects) => {
                Ok(Self::InMemory { projects: projects.into_iter(), cap })
            }
        }
    }

    fn generated(spec: CorpusSpec, cap: usize) -> Self {
        let total = spec.taxa.iter().map(|t| t.count).sum();
        Self::Generated { spec, next: 0, total, cap }
    }

    /// The next batch, or `None` when the source is exhausted.
    pub fn next_batch(&mut self) -> Option<Batch> {
        match self {
            Self::Generated { spec, next, total, cap } => {
                if next == total {
                    return None;
                }
                let end = *next + (*cap).min(*total - *next);
                let projects = (*next..end)
                    .map(|i| {
                        ProjectArtifacts::from(
                            coevo_corpus::generate_nth(spec, i).expect("index < total"),
                        )
                    })
                    .collect();
                *next = end;
                Some(Batch { projects, failures: Vec::new() })
            }
            Self::Sharded { stream, entries, next_entry, pending, cap } => {
                let mut failures = Vec::new();
                while pending.is_empty() {
                    if *next_entry == entries.len() {
                        if failures.is_empty() {
                            return None;
                        }
                        // A trailing shard produced only failures.
                        return Some(Batch { projects: Vec::new(), failures });
                    }
                    let entry = &entries[*next_entry];
                    *next_entry += 1;
                    let (projects, fails) = read_shard_lenient(stream, entry);
                    failures.extend(fails);
                    *pending = projects;
                }
                // Admit at most `cap` of the open shard; keep the rest
                // (still O(shard)) for the next call.
                let take = (*cap).min(pending.len());
                let rest = pending.split_off(take);
                let projects = std::mem::replace(pending, rest);
                Some(Batch { projects, failures })
            }
            Self::OnDisk { dirs, next, pre_failures, cap } => {
                let mut failures = std::mem::take(pre_failures);
                let mut projects = Vec::new();
                while projects.len() < *cap && *next < dirs.len() {
                    let pdir = &dirs[*next];
                    *next += 1;
                    match read_project(pdir) {
                        Ok(project) => projects.push(project),
                        Err(e) => failures.push(load_failure(pdir, e.to_string())),
                    }
                }
                if projects.is_empty() && failures.is_empty() {
                    return None;
                }
                Some(Batch { projects, failures })
            }
            Self::InMemory { projects, cap } => {
                let batch: Vec<_> = projects.take(*cap).collect();
                if batch.is_empty() {
                    return None;
                }
                Some(Batch { projects: batch, failures: Vec::new() })
            }
        }
    }
}

/// A project directory's name, used to label a project whose manifest
/// could not supply one.
fn dir_name(dir: &Path) -> String {
    dir.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| dir.display().to_string())
}

/// A load failure labeled with the project directory's name.
fn load_failure(dir: &Path, cause: String) -> ProjectFailure {
    ProjectFailure::from(EngineError {
        project: dir_name(dir),
        stage: Stage::Load,
        kind: EngineErrorKind::Load(cause),
    })
}

/// The on-disk pre-pass: find every project directory (any subdirectory
/// containing a `manifest.json`) and order them by *manifest* name from a
/// manifest-only read that holds no version texts. Directories whose
/// manifest cannot be read become load failures here, and so does every
/// directory after the first (in directory order) that declares an
/// already-seen project name: the study keys results by name, so running
/// both would count one project twice.
#[allow(clippy::type_complexity)]
fn plan_on_disk(dir: &Path) -> Result<(Vec<PathBuf>, Vec<ProjectFailure>), EngineError> {
    let entries = std::fs::read_dir(dir).map_err(|e| EngineError {
        project: dir.display().to_string(),
        stage: Stage::Load,
        kind: EngineErrorKind::Load(format!("unreadable corpus directory: {e}")),
    })?;
    let mut project_dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.join("manifest.json").exists())
        .collect();
    project_dirs.sort();

    let mut named: Vec<(String, PathBuf)> = Vec::new();
    let mut failures = Vec::new();
    for pdir in project_dirs {
        match read_manifest(&pdir) {
            Ok(m) => named.push((m.name, pdir)),
            Err(e) => failures.push(load_failure(&pdir, e.to_string())),
        }
    }
    // Stable sort by manifest name: equal names keep directory order, so
    // the first directory of a repeated name is the one that runs.
    named.sort_by(|a, b| a.0.cmp(&b.0));
    let mut dirs = Vec::with_capacity(named.len());
    let mut first = 0;
    for (i, (name, pdir)) in named.iter().enumerate() {
        if i > 0 && *name == named[first].0 {
            let cause = format!(
                "duplicate project name {name:?} (first read from {})",
                dir_name(&named[first].1)
            );
            failures.push(load_failure(pdir, cause));
        } else {
            first = i;
            dirs.push(pdir.clone());
        }
    }
    Ok((dirs, failures))
}

/// Open a sharded corpus, mapping an unusable corpus (missing manifest,
/// format-version mismatch, unreadable `corpus.json`) to a hard load error.
fn open_corpus_stream(dir: &Path) -> Result<coevo_corpus::CorpusStream, EngineError> {
    coevo_corpus::CorpusStream::open(dir).map_err(|e| EngineError {
        project: dir.display().to_string(),
        stage: Stage::Load,
        kind: EngineErrorKind::Load(e.to_string()),
    })
}

/// Read one shard with record-level leniency: a shard that cannot be opened
/// (bad magic, count mismatch, unreadable file) becomes one failure named
/// after the shard file; a corrupt record becomes a failure named
/// `<file>[record N]` while the remaining records still load.
fn read_shard_lenient(
    stream: &coevo_corpus::CorpusStream,
    entry: &coevo_corpus::ShardEntry,
) -> (Vec<ProjectArtifacts>, Vec<ProjectFailure>) {
    let shard_failure = |kind: String| {
        ProjectFailure::from(EngineError {
            project: entry.file.clone(),
            stage: Stage::Load,
            kind: EngineErrorKind::Load(kind),
        })
    };
    let reader = match stream.shard_reader(entry) {
        Ok(r) => r,
        Err(e) => return (Vec::new(), vec![shard_failure(e.to_string())]),
    };
    let mut projects = Vec::with_capacity(entry.projects);
    let mut failures = Vec::new();
    for record in reader {
        match record {
            Ok(p) => projects.push(p),
            Err(coevo_corpus::ShardError::Record { file, index, detail }) => {
                failures.push(ProjectFailure::from(EngineError {
                    project: format!("{file}[record {index}]"),
                    stage: Stage::Load,
                    kind: EngineErrorKind::Load(detail),
                }));
            }
            Err(e) => failures.push(shard_failure(e.to_string())),
        }
    }
    (projects, failures)
}
