//! The batch workloads: paper-195 and shards-2k.

use crate::layers::{self, BatchTrace, Traced};
use crate::report::Report;
use crate::stats::median;
use crate::study::{self, Input};
use crate::trace::Tracer;
use coevo_corpus::CorpusSpec;
use coevo_engine::{Source, StudyConfig, StudyRunner};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Instant;

/// Set-ups per shards-2k run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Paper corpora per paper-195 run, studied in rotation. One corpus's
/// study time varies by ~25 % with its seed; several even that out.
pub const PAPER_CORPORA: u64 = 4;
/// Timed studies per run at the least, however long they take.
pub const MIN_STUDIES: usize = 3;
/// Projects in the shards-2k corpus.
pub const SHARD_PROJECTS: usize = 2000;
/// Projects per shard file, and the streamed run's resident bound.
pub const SHARD_SIZE: usize = 250;

/// A study's outcome reduced to what the checks compare: a hash of its
/// full `StudyResults` (every float formatted exactly) and its failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    results: u64,
    failures: usize,
}

fn digest(results: &coevo_core::StudyResults, failures: usize) -> Digest {
    let mut h = DefaultHasher::new();
    format!("{results:?}").hash(&mut h);
    Digest { results: h.finish(), failures }
}

/// The paper spec under `seed`.
pub fn paper_spec(seed: u64) -> CorpusSpec {
    CorpusSpec { seed, ..CorpusSpec::paper() }
}

/// The corpus seeds of a paper-195 run: `seed` itself, then seeds derived
/// from it.
pub fn paper_seeds(seed: u64) -> Vec<u64> {
    (0..PAPER_CORPORA).map(|j| seed ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect()
}

fn shard_spec(seed: u64) -> CorpusSpec {
    CorpusSpec { seed, ..CorpusSpec::paper().with_total(SHARD_PROJECTS) }
}

fn runner(workers: usize) -> StudyRunner {
    StudyRunner::new(StudyConfig::default()).with_workers(workers)
}

/// One eager study over `source` at `workers` (0 = default).
pub fn eager(source: Source, workers: usize) -> Result<Digest, String> {
    let r = runner(workers).run(source).map_err(|e| e.to_string())?;
    Ok(digest(&r.results, r.failures.len()))
}

fn streamed(dir: &Path, workers: usize) -> Result<Digest, String> {
    let r = runner(workers)
        .with_max_resident(SHARD_SIZE)
        .run_streamed(Source::Sharded(dir.to_path_buf()))
        .map_err(|e| e.to_string())?;
    Ok(digest(&r.results, r.failures.len()))
}

/// Run `study` back to back for `seconds` (and at least `min` times).
/// Returns each study's wall time and outcome.
pub fn timed<T>(
    seconds: f64,
    min: usize,
    mut study: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, Vec<T>), String> {
    let start = Instant::now();
    let (mut times, mut outs) = (Vec::new(), Vec::new());
    while times.len() < min || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let out = study()?;
        times.push(t.elapsed().as_secs_f64());
        outs.push(out);
    }
    Ok((times, outs))
}

/// This process's peak resident set, MiB.
fn own_peak_rss_mb() -> Option<f64> {
    crate::client::peak_rss_mb_of("/proc/self/status")
}

/// The end-to-end lines and metrics shared by both batch workloads, after
/// every check of the run is recorded.
fn end_to_end(r: &mut Report, setups: &[f64], studies: &[f64], rss: Option<f64>) {
    let study = median(studies);
    r.line("setup_s", median(setups), "s", setups.len(), "median set-up");
    r.line("study_s", study, "s", studies.len(), "median per study");
    r.line("peak_rss_mb", rss, "MiB", 1, "VmHWM of the benchmark process");
    r.failed_line();
    r.metric("setup_s", median(setups), "s");
    r.metric("peak_rss_mb", rss, "MiB");
    r.metric("op_p50_ms", study.map(|s| s * 1e3), "ms");
}

/// paper-195: `StudyRunner::run(Source::GeneratedCorpus(s))` at the
/// default worker count, repeated with `s` in rotation over
/// [`paper_seeds`]; each result must equal its corpus's 1-worker reference,
/// computed in set-up (one set-up per corpus).
pub fn paper(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut r = Report::default();
    let seeds = paper_seeds(seed);
    let mut setups = Vec::new();
    let mut refs = Vec::new();
    for &s in &seeds {
        let t = Instant::now();
        refs.push(eager(Source::GeneratedCorpus(s), 1)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut next = 0;
    let (times, outs) = timed(seconds, seeds.len(), || {
        let k = next % seeds.len();
        next += 1;
        Ok((k, eager(Source::GeneratedCorpus(seeds[k]), 0)?))
    })?;
    let rss = own_peak_rss_mb();
    for d in &refs {
        r.check(d.failures == 0);
    }
    for (k, d) in &outs {
        r.check(*d == refs[*k]);
    }
    end_to_end(&mut r, &setups, &times, rss);
    Ok(r)
}

/// shards-2k: set-up writes a 2000-project corpus with `generate_sharded`;
/// each timed study is `run_streamed(Source::Sharded)` with at most 250
/// projects resident, and must equal the eager `run` on the same shards.
pub fn shards(seed: u64, seconds: f64, work: &Path) -> Result<Report, String> {
    let mut r = Report::default();
    let mut setups = Vec::new();
    let mut dir = work.to_path_buf();
    for k in 0..SETUPS {
        if k > 0 {
            let _ = std::fs::remove_dir_all(&dir);
        }
        dir = work.join(format!("shards-{k}"));
        let t = Instant::now();
        coevo_corpus::generate_sharded(&dir, &shard_spec(seed), SHARD_SIZE)
            .map_err(|e| e.to_string())?;
        setups.push(t.elapsed().as_secs_f64());
    }
    let (times, outs) = timed(seconds, MIN_STUDIES, || streamed(&dir, 0))?;
    let rss = own_peak_rss_mb();
    let reference = eager(Source::Sharded(dir.clone()), 0)?;
    for d in &outs {
        r.check(*d == reference && d.failures == 0);
    }
    end_to_end(&mut r, &setups, &times, rss);
    Ok(r)
}

/// Median wall time of `n` runs of `study`, s, and their outcomes.
fn median_of(
    n: usize,
    mut study: impl FnMut() -> Result<Digest, String>,
) -> Result<(f64, Vec<Digest>), String> {
    let (times, outs) = timed(0.0, n, &mut study)?;
    Ok((median(&times).expect("n > 0"), outs))
}

/// The traced run over a batch input: untraced 1-worker and default-worker
/// studies (for `engine.speedup` and the overhead base), then the traced
/// study, whose results must equal the engine's.
pub fn traced(
    r: &mut Report,
    tr: &mut Tracer,
    repeats: usize,
    mut untraced: impl FnMut(usize) -> Result<Digest, String>,
    input: Input,
) -> Result<BatchTrace, String> {
    let (study_1w_s, one) = median_of(repeats, || untraced(1))?;
    let (study_nw_s, many) = median_of(repeats, || untraced(0))?;
    let reference = one[0];
    for d in one.iter().chain(&many) {
        r.check(*d == reference && d.failures == 0);
    }
    let t = Instant::now();
    let (results, counts) = study::run(tr, input)?;
    let traced_s = t.elapsed().as_secs_f64();
    r.check(digest(&results, 0) == reference);
    let probe = study::probe_stats(tr, &results.measures);
    Ok(BatchTrace { study_1w_s, study_nw_s, traced_s, counts, probe })
}

/// The per-layer run of paper-195.
pub fn paper_traced(seed: u64) -> Result<Report, String> {
    let mut r = Report::default();
    let mut tr = Tracer::new();
    let spec = paper_spec(seed);
    let batch = traced(
        &mut r,
        &mut tr,
        3,
        |w| eager(Source::GeneratedCorpus(seed), w),
        Input::Generate(&spec),
    )?;
    layers::add(&mut r, &Traced { tracer: &tr, batch, serve: None });
    Ok(r)
}

/// The per-layer run of shards-2k. The generator runs only in set-up, so
/// `corpus.generate` is not traced here.
pub fn shards_traced(seed: u64, work: &Path) -> Result<Report, String> {
    let mut r = Report::default();
    let mut tr = Tracer::new();
    let dir = work.join("shards");
    coevo_corpus::generate_sharded(&dir, &shard_spec(seed), SHARD_SIZE)
        .map_err(|e| e.to_string())?;
    let batch = traced(&mut r, &mut tr, 1, |w| streamed(&dir, w), Input::Shards(&dir))?;
    layers::add(&mut r, &Traced { tracer: &tr, batch, serve: None });
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_seeds_start_at_the_run_seed_and_are_distinct() {
        let seeds = paper_seeds(0x5EED2019);
        assert_eq!(seeds[0], 0x5EED2019);
        assert_eq!(seeds.len() as u64, PAPER_CORPORA);
        let distinct: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(distinct.len(), seeds.len());
        assert_eq!(seeds, paper_seeds(0x5EED2019));
    }
}
