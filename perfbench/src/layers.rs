//! The per-layer metrics of a traced run, in the order `BENCHMARK.json`
//! lists them. A layer a workload does not run reports 0 (no busy time, no
//! requests), with a note saying so.

use crate::report::Report;
use crate::stats::{hit_ratio, ratio};
use crate::study::{Counts, StatsProbe};
use crate::trace::Tracer;

/// Serve-layer figures of the serve-mixed traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeLayers {
    /// p50 `ServeState::handle_line` time per command, µs
    /// (ingest, project, compat, taxa).
    pub handle_us: [Option<f64>; 4],
    /// p50 `summary` handling time, ms.
    pub summary_ms: Option<f64>,
    /// TCP `project` round-trip p50 minus the in-process `project` p50, ms.
    pub wire_overhead_ms: Option<f64>,
    /// The highest reportable tail of (send − due), ms, with its label.
    pub gen_late_ms: Option<(&'static str, f64)>,
    /// p50 `SnapshotStore::save`, ms.
    pub snapshot_save_ms: Option<f64>,
}

/// What the traced study and its untraced baselines measured.
#[derive(Debug, Clone, Copy)]
pub struct BatchTrace {
    /// Median untraced study time at 1 worker, s.
    pub study_1w_s: f64,
    /// Median untraced study time at the default worker count, s.
    pub study_nw_s: f64,
    /// Wall time of the traced study, s.
    pub traced_s: f64,
    /// Layer-boundary counts of the traced study.
    pub counts: Counts,
    /// The statistics probe.
    pub probe: StatsProbe,
}

/// Everything a traced run measured.
pub struct Traced<'a> {
    /// The spans.
    pub tracer: &'a Tracer,
    /// The batch layers.
    pub batch: BatchTrace,
    /// Serve figures, on serve-mixed only.
    pub serve: Option<ServeLayers>,
}

const NOT_RUN: &str = "layer not run on this workload";

/// Span-name prefixes of whole layers: not the sub-layer probes, and not
/// the traced study's own `bench.*` bookkeeping spans.
const LAYER_SPANS: [&str; 9] = [
    "corpus.",
    "vcs.",
    "ddl.",
    "diff.",
    "heartbeat.",
    "core.",
    "stats.section7",
    "serve.",
    "store.",
];

/// Add every per-layer metric to `report`.
pub fn add(report: &mut Report, t: &Traced) {
    report.spans = t.tracer.to_json_lines();
    let busy = |name: &str| t.tracer.busy_ms(name);
    let spans = |name: &str| t.tracer.spans().iter().filter(|s| s.name == name).count();
    for (metric, span) in [
        ("corpus.generate_ms", "corpus.generate"),
        ("corpus.shard_read_ms", "corpus.shard_read"),
        ("vcs.parse_log_ms", "vcs.parse_log"),
        ("ddl.parse_ms", "ddl.parse"),
    ] {
        let n = spans(span);
        report.line(
            metric,
            Some(busy(span)),
            "ms",
            n,
            if n == 0 { NOT_RUN } else { "busy time" },
        );
        report.metric(metric, Some(busy(span)), "ms");
    }
    let (b, c) = (t.batch, t.batch.counts);
    let hits = hit_ratio(c.parse_hits, c.parse_misses);
    let base = format!("{} hits / {} lookups", c.parse_hits, c.parse_hits + c.parse_misses);
    report.line("ddl.parse_cache_hit_ratio", hits, "ratio", 1, &base);
    report.metric("ddl.parse_cache_hit_ratio", hits, "ratio");

    report.line(
        "diff.history_ms",
        Some(busy("diff.history")),
        "ms",
        spans("diff.history"),
        "busy time",
    );
    report.metric("diff.history_ms", Some(busy("diff.history")), "ms");
    let elided = ratio(c.diff_elided as f64, (c.diff_elided + c.diff_tables) as f64);
    let base =
        format!("{} elided / {} table lookups", c.diff_elided, c.diff_elided + c.diff_tables);
    report.line("diff.elided_ratio", elided, "ratio", 1, &base);
    report.metric("diff.elided_ratio", elided, "ratio");

    for (metric, span) in [
        ("heartbeat.build_ms", "heartbeat.build"),
        ("core.measure_ms", "core.measure"),
        ("core.figures_ms", "core.figures"),
        ("stats.section7_ms", "stats.section7"),
        ("stats.fisher_ms", "stats.fisher"),
    ] {
        report.line(metric, Some(busy(span)), "ms", spans(span), "busy time");
        report.metric(metric, Some(busy(span)), "ms");
    }
    let p = b.probe;
    let exact = ratio(p.fisher_exact as f64, p.fisher_tables as f64);
    let base = format!("{} exact / {} lag tables", p.fisher_exact, p.fisher_tables);
    report.line("stats.fisher_exact_ratio", exact, "ratio", p.fisher_tables as usize, &base);
    report.metric("stats.fisher_exact_ratio", exact, "ratio");
    report.line(
        "stats.kendall_ms",
        Some(busy("stats.kendall")),
        "ms",
        spans("stats.kendall"),
        "busy time",
    );
    report.metric("stats.kendall_ms", Some(busy("stats.kendall")), "ms");

    let speedup = ratio(b.study_1w_s, b.study_nw_s);
    let base =
        format!("{:.4} s at 1 worker / {:.4} s at default workers", b.study_1w_s, b.study_nw_s);
    report.line("engine.speedup", speedup, "x", 1, &base);
    report.metric("engine.speedup", speedup, "x");

    let s = t.serve.unwrap_or_default();
    let served = |v: Option<f64>| if t.serve.is_some() { v } else { Some(0.0) };
    let note =
        |what: &str| if t.serve.is_some() { what.to_string() } else { NOT_RUN.to_string() };
    for (i, metric) in [
        "serve.handle_ingest_us",
        "serve.handle_project_us",
        "serve.handle_compat_us",
        "serve.handle_taxa_us",
    ]
    .into_iter()
    .enumerate()
    {
        report.line(
            metric,
            served(s.handle_us[i]),
            "us",
            1,
            &note("p50 in-process handle_line"),
        );
        report.metric(metric, served(s.handle_us[i]), "us");
    }
    report.line(
        "serve.handle_summary_ms",
        served(s.summary_ms),
        "ms",
        1,
        &note("p50 in-process handle_line"),
    );
    report.metric("serve.handle_summary_ms", served(s.summary_ms), "ms");
    report.line(
        "serve.wire_overhead_ms",
        served(s.wire_overhead_ms),
        "ms",
        1,
        &note("TCP project round-trip p50 - in-process project p50"),
    );
    report.metric("serve.wire_overhead_ms", served(s.wire_overhead_ms), "ms");
    let late = served(s.gen_late_ms.map(|(_, v)| v));
    let label = s.gen_late_ms.map_or("p99", |(l, _)| l);
    report.line("serve.gen_late_ms", late, "ms", 1, &note(&format!("{label} of send - due")));
    report.metric("serve.gen_late_ms", late, "ms");
    report.line(
        "store.snapshot_save_ms",
        served(s.snapshot_save_ms),
        "ms",
        1,
        &note("p50 SnapshotStore::save"),
    );
    report.metric("store.snapshot_save_ms", served(s.snapshot_save_ms), "ms");

    // The layer with the most busy time. `stats.fisher` and `stats.kendall`
    // re-time parts of Section 7's own work, so they are not layers here.
    let largest = t
        .tracer
        .self_ns_by_name()
        .into_iter()
        .filter(|(name, _)| LAYER_SPANS.iter().any(|p| name.starts_with(p)))
        .max_by_key(|&(_, ns)| ns);
    if let Some((name, ns)) = largest {
        report.line("largest_layer_ms", Some(ns as f64 / 1e6), "ms", 1, name);
    }

    let overhead = ratio(b.traced_s, b.study_1w_s);
    let base = format!(
        "traced study {:.4} s / untraced 1-worker study {:.4} s",
        b.traced_s, b.study_1w_s
    );
    report.line("trace.overhead_ratio", overhead, "ratio", 1, &base);
    report.metric("trace.overhead_ratio", overhead, "ratio");
}
