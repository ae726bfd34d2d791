//! Throughput of the compatibility classifier: classify every evolution
//! step of a corpus of planted histories, asserted against the PR's floor
//! (≥1 000 diffs/s on optimized builds) in test mode *and* bench mode.
//!
//! Bench mode (`cargo bench -- --bench`) runs a larger corpus and writes
//! the measured numbers to `BENCH_8.json` at the repo root (the `BENCH_5`…
//! `BENCH_7` convention) so future PRs can diff against them.

use coevo_compat::classify_step;
use coevo_corpus::plant_compat_project;
use coevo_ddl::Schema;
use coevo_diff::{diff_constraints, ConstraintDelta, MatchPolicy, SchemaDelta, SchemaHistory};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 0x5EED_2019;
/// Test-mode scale: enough steps to dominate fixed costs, fast in CI.
const TEST_PROJECTS: usize = 40;
/// Bench-mode scale.
const BENCH_PROJECTS: usize = 400;
const STEPS_PER_PROJECT: usize = 12;

/// One pre-diffed evolution step, so the timed region is classification
/// alone — not parsing or diffing.
struct PreparedStep {
    new: Arc<Schema>,
    delta: SchemaDelta,
    constraints: ConstraintDelta,
}

fn prepare_steps(projects: usize) -> Vec<PreparedStep> {
    let mut steps = Vec::new();
    for i in 0..projects {
        let planted = plant_compat_project(SEED.wrapping_add(i as u64), STEPS_PER_PROJECT);
        let history = SchemaHistory::from_ddl_texts(
            planted.ddl_versions.iter().map(|(d, s)| (*d, s.as_str())),
            planted.dialect,
            MatchPolicy::ByName,
        )
        .expect("planted DDL parses")
        .expect("planted history is nonempty");
        let versions = history.versions();
        let deltas = history.deltas();
        for v in 1..versions.len() {
            steps.push(PreparedStep {
                new: Arc::clone(&versions[v].schema),
                delta: deltas[v].delta.clone(),
                constraints: diff_constraints(
                    versions[v - 1].schema.as_ref(),
                    versions[v].schema.as_ref(),
                ),
            });
        }
    }
    steps
}

fn write_bench_json(steps: usize, elapsed: f64, breaking: usize) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_8.json");
    let json = format!(
        "{{\n  \"compat_classify/steps\": {steps},\n  \"compat_classify/diffs_per_sec\": {:.0},\n  \"compat_classify/breaking_steps\": {breaking}\n}}\n",
        steps as f64 / elapsed,
    );
    std::fs::write(path, json).expect("write BENCH_8.json");
    println!("[compat_classify] wrote {path}");
}

fn compat_classify_bench(c: &mut Criterion) {
    let bench_mode = std::env::args().any(|a| a == "--bench");
    let projects = if bench_mode { BENCH_PROJECTS } else { TEST_PROJECTS };
    let steps = prepare_steps(projects);
    assert_eq!(steps.len(), projects * STEPS_PER_PROJECT);

    let t = Instant::now();
    let mut breaking = 0usize;
    for s in &steps {
        let class = classify_step(black_box(&s.new), &s.delta, &s.constraints);
        if class.level.is_breaking() {
            breaking += 1;
        }
    }
    let elapsed = t.elapsed().as_secs_f64();
    let rate = steps.len() as f64 / elapsed;
    println!(
        "[compat_classify] {} steps in {elapsed:.3}s ({rate:.0} diffs/s), {breaking} BREAKING",
        steps.len(),
    );
    assert!(breaking > 0, "planted corpora always contain breaking steps");
    // Throughput floor: deliberately conservative (CI machines vary), and
    // only meaningful on optimized builds.
    if !cfg!(debug_assertions) {
        assert!(
            rate >= 1_000.0,
            "classifier throughput {rate:.0} diffs/s below the 1k/s floor"
        );
    }

    if bench_mode {
        write_bench_json(steps.len(), elapsed, breaking);
    }

    let mut group = c.benchmark_group("compat_classify");
    group.sample_size(10);
    group.bench_function("planted_steps", |b| {
        b.iter(|| {
            let mut breaking = 0usize;
            for s in &steps {
                let class = classify_step(black_box(&s.new), &s.delta, &s.constraints);
                if class.level.is_breaking() {
                    breaking += 1;
                }
            }
            black_box(breaking)
        })
    });
    group.finish();
}

criterion_group!(compat, compat_classify_bench);
criterion_main!(compat);
