//! Ablation benches for the design choices DESIGN.md §7 calls out. Each
//! prints the *measured effect* of the knob (the scientific payload) and
//! times the variant.

use coevo_bench::{small_projects, study_projects};
use coevo_core::synchronicity::theta_synchronicity;
use coevo_ddl::{parse_schema, Dialect};
use coevo_diff::{diff_schemas_with, MatchPolicy};
use coevo_heartbeat::cumulative_fraction;
use coevo_stats::kruskal_wallis_with;
use coevo_taxa::Taxon;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Ablation 1 — diff matching policy: name-only vs rename detection.
fn ablation_diff_matching(c: &mut Criterion) {
    let old = parse_schema(
        "CREATE TABLE t (user_name VARCHAR(40), age INT, note TEXT, score INT);",
        Dialect::Generic,
    )
    .unwrap();
    let new = parse_schema(
        "CREATE TABLE t (username VARCHAR(40), age INT, remark TEXT, score BIGINT);",
        Dialect::Generic,
    )
    .unwrap();
    let by_name = diff_schemas_with(&old, &new, MatchPolicy::ByName);
    let rename = diff_schemas_with(&old, &new, MatchPolicy::rename_detection());
    println!(
        "\n[ablation_diff_matching] structural changes: by-name={}  rename-aware={} (activity {} vs {})",
        by_name.tables.iter().map(|t| t.changes.len()).sum::<usize>(),
        rename.tables.iter().map(|t| t.changes.len()).sum::<usize>(),
        by_name.total_activity(),
        rename.total_activity(),
    );
    c.bench_function("ablation_diff_matching/by_name", |b| {
        b.iter(|| {
            black_box(diff_schemas_with(black_box(&old), black_box(&new), MatchPolicy::ByName))
        })
    });
    c.bench_function("ablation_diff_matching/rename_detection", |b| {
        b.iter(|| {
            black_box(diff_schemas_with(
                black_box(&old),
                black_box(&new),
                MatchPolicy::rename_detection(),
            ))
        })
    });
}

/// Ablation 2 — θ sensitivity: synchronicity at 1%, 5%, 10%, 20%.
fn ablation_theta_sweep(c: &mut Criterion) {
    let projects = study_projects();
    let joint: Vec<_> = projects.iter().map(|p| p.joint_progress()).collect();
    print!("\n[ablation_theta_sweep] mean synchronicity:");
    for theta in [0.01, 0.05, 0.10, 0.20] {
        let mean: f64 = joint
            .iter()
            .map(|jp| theta_synchronicity(&jp.project, &jp.schema, theta))
            .sum::<f64>()
            / joint.len() as f64;
        print!("  θ={theta:.2} → {mean:.3}");
    }
    println!();
    c.bench_function("ablation_theta_sweep/4_thetas_195_projects", |b| {
        b.iter(|| {
            for theta in [0.01, 0.05, 0.10, 0.20] {
                for jp in &joint {
                    black_box(theta_synchronicity(&jp.project, &jp.schema, theta));
                }
            }
        })
    });
}

/// Ablation 3 — Kruskal–Wallis tie correction on the heavily-tied
/// synchronicity data.
fn ablation_tie_correction(c: &mut Criterion) {
    let projects = study_projects();
    let cfg = coevo_taxa::TaxonomyConfig::default();
    let measures: Vec<_> = projects.iter().map(|p| p.measures(&cfg)).collect();
    let groups: Vec<Vec<f64>> = Taxon::ALL
        .into_iter()
        .map(|t| measures.iter().filter(|m| m.taxon == t).map(|m| m.sync_10).collect())
        .collect();
    let refs: Vec<&[f64]> = groups.iter().map(|g| g.as_slice()).collect();
    let with = kruskal_wallis_with(&refs, true).unwrap();
    let without = kruskal_wallis_with(&refs, false).unwrap();
    println!(
        "\n[ablation_tie_correction] H corrected={:.4} (p={:.4})  uncorrected={:.4} (p={:.4})",
        with.h, with.p_value, without.h, without.p_value
    );
    c.bench_function("ablation_tie_correction/corrected", |b| {
        b.iter(|| black_box(kruskal_wallis_with(black_box(&refs), true)))
    });
    c.bench_function("ablation_tie_correction/uncorrected", |b| {
        b.iter(|| black_box(kruskal_wallis_with(black_box(&refs), false)))
    });
}

/// Ablation 4 — time quantization: calendar months vs N-day windows, at
/// genuine day resolution (re-deriving events from raw corpus artifacts:
/// commit dates for source activity, per-version diff dates for schema
/// activity).
fn ablation_time_quantization(c: &mut Criterion) {
    use coevo_heartbeat::windowed_pair;

    let mut spec = coevo_corpus::CorpusSpec::paper();
    for t in &mut spec.taxa {
        t.count = 6;
    }
    let corpus = coevo_corpus::generate_corpus(&spec);

    // Day-level event streams per project.
    type Events = Vec<(coevo_heartbeat::Date, u64)>;
    let day_events: Vec<(Events, Events)> = corpus
        .iter()
        .map(|p| {
            let repo = coevo_vcs::parse_log(&p.git_log).unwrap();
            let project: Events = repo
                .non_merge_commits()
                .map(|cmt| (cmt.date.date, cmt.files_updated()))
                .collect();
            let history = coevo_diff::SchemaHistory::from_ddl_texts(
                p.raw.ddl_versions.iter().map(|(d, s)| (*d, s.as_str())),
                p.raw.dialect,
                MatchPolicy::ByName,
            )
            .unwrap()
            .unwrap();
            let schema: Events = history
                .deltas()
                .iter()
                .map(|vd| (vd.date.date, vd.breakdown.total()))
                .collect();
            (project, schema)
        })
        .collect();

    let windowed_sync = |window_days: i64| -> f64 {
        let mut total = 0.0;
        for (project, schema) in &day_events {
            let (_, ps, ss) =
                windowed_pair(project.iter().copied(), schema.iter().copied(), window_days)
                    .expect("non-empty streams");
            total +=
                theta_synchronicity(&cumulative_fraction(&ps), &cumulative_fraction(&ss), 0.10);
        }
        total / day_events.len() as f64
    };

    let monthly = {
        let projects = small_projects(6);
        projects
            .iter()
            .map(|p| {
                let jp = p.joint_progress();
                theta_synchronicity(&jp.project, &jp.schema, 0.10)
            })
            .sum::<f64>()
            / projects.len() as f64
    };
    println!(
        "\n[ablation_time_quantization] mean sync10: calendar-month={monthly:.3}  7-day={:.3}  30-day={:.3}  90-day={:.3}",
        windowed_sync(7),
        windowed_sync(30),
        windowed_sync(90),
    );
    c.bench_function("ablation_time_quantization/30_day_windows", |b| {
        b.iter(|| black_box(windowed_sync(30)))
    });
}

criterion_group!(
    ablations,
    ablation_diff_matching,
    ablation_theta_sweep,
    ablation_tie_correction,
    ablation_time_quantization,
);
criterion_main!(ablations);
