//! The traced study: the engine's per-project pipeline and the
//! corpus-level study, rebuilt from each layer's public functions on one
//! thread, with a span around every call.
//!
//! Its outputs are checked against the engine's, so the per-layer times it
//! reports belong to the same work the untraced study does.

use crate::trace::{SpanId, Tracer};
use coevo_core::study::{fig4, fig5, fig6, fig7, fig8, section7};
use coevo_core::{ProjectData, ProjectMeasures, StatsCache, StudyResults};
use coevo_corpus::{CorpusSpec, CorpusStream, ProjectArtifacts};
use coevo_ddl::ParseCache;
use coevo_diff::{MatchPolicy, SchemaHistory, SchemaVersion};
use coevo_stats::{fisher_exact_rx2, kendall_tau_b};
use coevo_taxa::{Taxon, TaxonomyConfig};

/// Work counts gathered at the layer boundaries.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// `ParseCache` lookups answered from the cache.
    pub parse_hits: u64,
    /// `ParseCache` lookups that parsed.
    pub parse_misses: u64,
    /// Version- and table-level diffs the incremental differ skipped.
    pub diff_elided: u64,
    /// Tables that went through the attribute-level diff.
    pub diff_tables: u64,
}

/// Where the traced study's projects come from.
pub enum Input<'a> {
    /// Generate them with `generate_nth` (spans `corpus.generate`).
    Generate(&'a CorpusSpec),
    /// Read them from a sharded corpus (spans `corpus.shard_read`, one per
    /// shard, checksums included).
    Shards(&'a std::path::Path),
    /// Take them as given.
    Given(&'a [ProjectArtifacts]),
}

/// Run the whole study under `bench.study`: load each project, measure it
/// under a `bench.project` span, then compute the figures and Section 7.
pub fn run(tr: &mut Tracer, input: Input) -> Result<(StudyResults, Counts), String> {
    let root = tr.open("bench.study", None, 0);
    let mut counts = Counts::default();
    let mut measures = Vec::new();
    let mut one = |tr: &mut Tracer, id: u64, p: &ProjectArtifacts, span: SpanId| {
        let m = measure_project(tr, span, id, p, &mut counts);
        tr.close(span);
        measures.push(m?);
        Ok::<(), String>(())
    };
    match input {
        Input::Generate(spec) => {
            for i in 0..coevo_corpus::spec::total_count(&spec.taxa) {
                let id = i as u64;
                let span = tr.open("bench.project", Some(root), id);
                let g = tr.time("corpus.generate", Some(span), id, || {
                    coevo_corpus::generate_nth(spec, i).map(ProjectArtifacts::from)
                });
                one(tr, id, &g.ok_or("generator ran out of projects")?, span)?;
            }
        }
        Input::Shards(dir) => {
            let stream = tr
                .time("corpus.shard_read", Some(root), 0, || CorpusStream::open(dir))
                .map_err(|e| e.to_string())?;
            let mut entries = stream.manifest().shards.clone();
            entries.sort_by_key(|e| e.start);
            let mut id = 0;
            for (si, entry) in entries.iter().enumerate() {
                let projects = tr
                    .time("corpus.shard_read", Some(root), si as u64, || {
                        stream.shard_reader(entry)?.collect::<Result<Vec<_>, _>>()
                    })
                    .map_err(|e| e.to_string())?;
                for p in &projects {
                    let span = tr.open("bench.project", Some(root), id);
                    one(tr, id, p, span)?;
                    id += 1;
                }
            }
        }
        Input::Given(projects) => {
            for (i, p) in projects.iter().enumerate() {
                let span = tr.open("bench.project", Some(root), i as u64);
                one(tr, i as u64, p, span)?;
            }
        }
    }
    let results = study(tr, root, measures);
    tr.close(root);
    Ok((results, counts))
}

/// Measure one project through vcs → ddl → diff → heartbeat → core, each
/// call inside its own span under `parent`.
pub fn measure_project(
    tr: &mut Tracer,
    parent: SpanId,
    id: u64,
    p: &ProjectArtifacts,
    counts: &mut Counts,
) -> Result<ProjectMeasures, String> {
    let fail = |what: &str| format!("{}: {what}", p.name);
    let repo = tr
        .time("vcs.parse_log", Some(parent), id, || coevo_vcs::parse_log(&p.git_log))
        .map_err(|e| fail(&e.to_string()))?;

    let mut cache = ParseCache::new();
    let versions = tr
        .time("ddl.parse", Some(parent), id, || {
            p.ddl_versions
                .iter()
                .map(|(date, text)| {
                    cache
                        .parse(text, p.dialect)
                        .map(|schema| SchemaVersion { date: *date, schema })
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| fail(&e.to_string()))?;
    counts.parse_hits += cache.hits();
    counts.parse_misses += cache.misses();

    let history = tr
        .time("diff.history", Some(parent), id, || {
            SchemaHistory::from_schemas(versions, MatchPolicy::ByName)
        })
        .ok_or_else(|| fail("empty schema history"))?;
    let stats = history.diff_stats();
    counts.diff_elided += stats.elided();
    counts.diff_tables += stats.tables_diffed;

    let (project_hb, schema_hb, birth) = tr.time("heartbeat.build", Some(parent), id, || {
        let birth = history.deltas().first().map(|d| d.breakdown.total()).unwrap_or(0);
        (coevo_vcs::monthly::project_heartbeat(&repo), history.heartbeat(), birth)
    });
    let project_hb = project_hb.ok_or_else(|| fail("empty repository"))?;

    Ok(tr.time("core.measure", Some(parent), id, || {
        let mut data = ProjectData::new(&p.name, project_hb, schema_hb, birth);
        if let Some(taxon) = p.taxon {
            data = data.with_taxon(taxon);
        }
        data.measures(&TaxonomyConfig::default())
    }))
}

/// Figures 4–8 and Section 7 over the collected measures.
pub fn study(tr: &mut Tracer, parent: SpanId, measures: Vec<ProjectMeasures>) -> StudyResults {
    let (fig4, fig5, fig6, fig7, fig8) = tr.time("core.figures", Some(parent), 0, || {
        (fig4(&measures), fig5(&measures), fig6(&measures), fig7(&measures), fig8(&measures))
    });
    let section7 = tr.time("stats.section7", Some(parent), 0, || section7(&measures));
    StudyResults { measures, fig4, fig5, fig6, fig7, fig8, section7 }
}

/// Section 7's three taxon × always-lag contingency tables (time, source,
/// both), as `(always, not always)` rows in taxon order.
pub fn lag_tables(measures: &[ProjectMeasures]) -> [Vec<(u64, u64)>; 3] {
    let table = |pick: fn(&ProjectMeasures) -> bool| {
        Taxon::ALL
            .into_iter()
            .map(|t| {
                let of_taxon = measures.iter().filter(|m| m.taxon == t);
                let yes = of_taxon.clone().filter(|m| pick(m)).count() as u64;
                (yes, of_taxon.count() as u64 - yes)
            })
            .collect()
    };
    [
        table(|m| m.advance.always_over_time),
        table(|m| m.advance.always_over_source),
        table(|m| m.advance.always_over_both),
    ]
}

/// The statistics sub-layers timed on their own, after the study.
#[derive(Debug, Clone, Copy)]
pub struct StatsProbe {
    /// Tables `fisher_exact_rx2(rows, 2_000_000)` answered exactly.
    pub fisher_exact: u64,
    /// Tables probed.
    pub fisher_tables: u64,
}

/// Time `StatsCache::fisher_rx2` on the lag tables (one fresh cache), the exact
/// enumeration's reach on them, and the Kendall τ calls Section 7 makes.
pub fn probe_stats(tr: &mut Tracer, measures: &[ProjectMeasures]) -> StatsProbe {
    let tables = lag_tables(measures);
    // One cache for the three tables, as `section7` keeps one: equal
    // tables cost one test.
    tr.time("stats.fisher", None, 0, || {
        let mut cache = StatsCache::default();
        for rows in &tables {
            std::hint::black_box(cache.fisher_rx2(rows));
        }
    });
    let fisher_exact = tr.time("stats.fisher_exact_probe", None, 0, || {
        tables.iter().filter(|rows| fisher_exact_rx2(rows, 2_000_000).is_some()).count()
    });
    tr.time("stats.kendall", None, 0, || {
        for (xs, ys) in kendall_pairs(measures) {
            std::hint::black_box(kendall_tau_b(&xs, &ys));
        }
    });
    StatsProbe { fisher_exact: fisher_exact as u64, fisher_tables: tables.len() as u64 }
}

/// The pair-complete series Section 7 correlates with Kendall's τ-b:
/// sync 5% × sync 10%, advance over time × over source, and every pair of
/// the study's measure columns.
fn kendall_pairs(measures: &[ProjectMeasures]) -> Vec<(Vec<f64>, Vec<f64>)> {
    let mut pairs = vec![
        (
            measures.iter().map(|m| m.sync_05).collect(),
            measures.iter().map(|m| m.sync_10).collect(),
        ),
        measures
            .iter()
            .filter_map(|m| Some((m.advance.over_time?, m.advance.over_source?)))
            .unzip(),
    ];
    let columns: [Vec<f64>; 5] = [
        measures.iter().map(|m| m.sync_10).collect(),
        measures.iter().map(|m| m.advance.over_source.unwrap_or(f64::NAN)).collect(),
        measures.iter().map(|m| m.advance.over_time.unwrap_or(f64::NAN)).collect(),
        measures.iter().map(|m| m.attainment.at_75.unwrap_or(f64::NAN)).collect(),
        measures.iter().map(|m| m.duration_months() as f64).collect(),
    ];
    for i in 0..columns.len() {
        for j in (i + 1)..columns.len() {
            pairs.push(
                columns[i]
                    .iter()
                    .zip(&columns[j])
                    .filter(|(a, b)| a.is_finite() && b.is_finite())
                    .map(|(a, b)| (*a, *b))
                    .unzip(),
            );
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use coevo_corpus::CorpusSpec;
    use coevo_engine::{Source, StudyConfig, StudyRunner};

    #[test]
    fn traced_study_reproduces_the_engine_study() {
        let spec = CorpusSpec::paper().with_per_taxon(2);
        let engine = StudyRunner::new(StudyConfig::default())
            .with_workers(1)
            .run(Source::Spec(spec.clone()))
            .expect("engine run");
        let mut tr = Tracer::new();
        let (results, counts) = run(&mut tr, Input::Generate(&spec)).expect("traced study");
        assert_eq!(results, engine.results);
        assert!(counts.parse_misses > 0);

        let given: Vec<ProjectArtifacts> = coevo_corpus::generate_corpus(&spec)
            .into_iter()
            .map(ProjectArtifacts::from)
            .collect();
        let (again, _) = run(&mut Tracer::new(), Input::Given(&given)).expect("traced study");
        assert_eq!(again, engine.results);

        let probe = probe_stats(&mut tr, &results.measures);
        assert_eq!(probe.fisher_tables, 3);
        for name in [
            "corpus.generate",
            "vcs.parse_log",
            "ddl.parse",
            "diff.history",
            "stats.section7",
            "stats.kendall",
        ] {
            assert!(tr.spans().iter().any(|s| s.name == name), "{name}");
        }
    }

    #[test]
    fn traced_study_reads_shards_in_global_order() {
        let dir = std::env::temp_dir().join(format!("perfbench-shards-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = CorpusSpec::paper().with_total(30);
        spec.seed = 5;
        coevo_corpus::generate_sharded(&dir, &spec, 8).expect("shards");
        let engine = StudyRunner::new(StudyConfig::default())
            .run(Source::Sharded(dir.clone()))
            .expect("engine run");
        let mut tr = Tracer::new();
        let (results, _) = run(&mut tr, Input::Shards(&dir)).expect("traced study");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(results, engine.results);
        assert_eq!(tr.spans().iter().filter(|s| s.name == "corpus.shard_read").count(), 1 + 4);
    }
}
