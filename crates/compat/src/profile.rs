//! History- and corpus-level aggregation: per-project compatibility
//! profiles, per-taxon roll-ups, and the FROZEN-vs-ACTIVE breaking-rate
//! contrast (Fisher r×2 through the study's memoized [`StatsCache`]).

use crate::level::CompatLevel;
use crate::rules::{classify_step, StepClassification};
use coevo_core::StatsCache;
use coevo_diff::{diff_constraints, SchemaHistory};
use coevo_taxa::Taxon;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Classify every step of a history, in version order. Step 0 is the
/// project's birth (every table `Created` against the empty schema) and is
/// included here so callers can render the full timeline; the *profile*
/// aggregation excludes it — birth is not evolution.
pub fn classify_history(history: &SchemaHistory) -> Vec<StepClassification> {
    let versions = history.versions();
    let deltas = history.deltas();
    debug_assert_eq!(versions.len(), deltas.len());
    let mut out = Vec::with_capacity(deltas.len());
    for (i, vd) in deltas.iter().enumerate() {
        let old = if i == 0 {
            coevo_ddl::Schema::empty_ref()
        } else {
            versions[i - 1].schema.as_ref()
        };
        let new = versions[i].schema.as_ref();
        let constraints = diff_constraints(old, new);
        out.push(classify_step(new, &vd.delta, &constraints));
    }
    out
}

/// Per-level step counts over a history's *evolution* steps (birth
/// excluded). All counters count steps, not individual rule hits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompatProfile {
    /// Evolution steps classified (history length minus the birth step).
    pub steps: usize,
    /// Steps that changed nothing (level NONE).
    pub none: usize,
    /// Steps compatible in both directions.
    pub full: usize,
    /// Deploy-safe-only steps.
    pub backward: usize,
    /// Rollback-safe-only steps.
    pub forward: usize,
    /// Steps safe in neither direction.
    pub breaking: usize,
}

impl CompatProfile {
    /// Record one classified step.
    pub fn record(&mut self, level: CompatLevel) {
        self.steps += 1;
        match level {
            CompatLevel::None => self.none += 1,
            CompatLevel::Full => self.full += 1,
            CompatLevel::Backward => self.backward += 1,
            CompatLevel::Forward => self.forward += 1,
            CompatLevel::Breaking => self.breaking += 1,
        }
    }

    /// Steps that logically changed the schema (everything but NONE).
    pub fn changed(&self) -> usize {
        self.steps - self.none
    }

    /// Breaking steps over changed steps; `0.0` for change-free histories.
    pub fn breaking_rate(&self) -> f64 {
        let changed = self.changed();
        if changed == 0 {
            0.0
        } else {
            self.breaking as f64 / changed as f64
        }
    }

    /// Fold another profile into this one (used for taxon roll-ups).
    pub fn merge(&mut self, other: &CompatProfile) {
        self.steps += other.steps;
        self.none += other.none;
        self.full += other.full;
        self.backward += other.backward;
        self.forward += other.forward;
        self.breaking += other.breaking;
    }
}

/// Profile a history: classify every step, then aggregate the evolution
/// steps (index ≥ 1 — the birth step is creation, not evolution).
pub fn profile_history(history: &SchemaHistory) -> CompatProfile {
    let mut profile = CompatProfile::default();
    for c in classify_history(history).iter().skip(1) {
        profile.record(c.level);
    }
    profile
}

/// The FROZEN-vs-ACTIVE contrast: do quieter taxa break *differently*, not
/// just less often? Rows are (breaking steps, non-breaking changed steps)
/// per group; the p-value is the study's memoized Fisher r×2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrozenActiveContrast {
    /// (breaking, non-breaking changed) steps over the frozen-side taxa.
    pub frozen: (u64, u64),
    /// (breaking, non-breaking changed) steps over the active-side taxa.
    pub active: (u64, u64),
    /// Fisher r×2 p-value; `None` when a margin is empty.
    pub fisher_p: Option<f64>,
}

/// The frozen side of the paper's taxonomy: little to no post-birth change.
pub fn is_frozen_side(taxon: Taxon) -> bool {
    matches!(taxon, Taxon::Frozen | Taxon::AlmostFrozen | Taxon::FocusedShotAndFrozen)
}

/// Contrast breaking rates between the frozen-side and active-side taxa.
pub fn frozen_active_contrast(
    per_taxon: &BTreeMap<Taxon, CompatProfile>,
    cache: &mut StatsCache,
) -> FrozenActiveContrast {
    let mut frozen = (0u64, 0u64);
    let mut active = (0u64, 0u64);
    for (taxon, profile) in per_taxon {
        let side = if is_frozen_side(*taxon) { &mut frozen } else { &mut active };
        side.0 += profile.breaking as u64;
        side.1 += (profile.changed() - profile.breaking) as u64;
    }
    let fisher_p = if frozen.0 + frozen.1 == 0 || active.0 + active.1 == 0 {
        None
    } else {
        cache.fisher_rx2(&[frozen, active])
    };
    FrozenActiveContrast { frozen, active, fisher_p }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coevo_ddl::Dialect;
    use coevo_diff::MatchPolicy;

    fn history(texts: &[&str]) -> SchemaHistory {
        let dated: Vec<(coevo_heartbeat::DateTime, &str)> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let stamp = format!("2020-{:02}-15 10:00:00 +0000", i + 1);
                (coevo_heartbeat::DateTime::parse(&stamp).unwrap(), *t)
            })
            .collect();
        SchemaHistory::from_ddl_texts(dated, Dialect::Generic, MatchPolicy::ByName)
            .expect("parse history")
            .expect("non-empty history")
    }

    #[test]
    fn birth_is_classified_but_not_profiled() {
        let h = history(&[
            "CREATE TABLE t (a INT);",
            "CREATE TABLE t (a INT, b INT);",
            "CREATE TABLE t (a INT);",
        ]);
        let steps = classify_history(&h);
        assert_eq!(steps.len(), 3);
        assert_eq!(steps[0].level, CompatLevel::Backward); // creation
        assert_eq!(steps[1].level, CompatLevel::Backward); // optional add
        assert_eq!(steps[2].level, CompatLevel::Breaking); // eject

        let p = profile_history(&h);
        assert_eq!(p.steps, 2);
        assert_eq!(p.backward, 1);
        assert_eq!(p.breaking, 1);
        assert_eq!(p.changed(), 2);
        assert!((p.breaking_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unchanged_versions_count_as_none() {
        let h = history(&["CREATE TABLE t (a INT);", "CREATE TABLE t (a INT);"]);
        let p = profile_history(&h);
        assert_eq!(p.steps, 1);
        assert_eq!(p.none, 1);
        assert_eq!(p.breaking_rate(), 0.0);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a =
            CompatProfile { steps: 3, none: 1, backward: 1, breaking: 1, ..Default::default() };
        let b = CompatProfile { steps: 2, full: 1, forward: 1, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.steps, 5);
        assert_eq!(a.full, 1);
        assert_eq!(a.forward, 1);
        assert_eq!(a.changed(), 4);
    }

    #[test]
    fn contrast_splits_taxa_and_runs_fisher() {
        let mut per_taxon = BTreeMap::new();
        per_taxon.insert(
            Taxon::Frozen,
            CompatProfile { steps: 10, breaking: 1, backward: 9, ..Default::default() },
        );
        per_taxon.insert(
            Taxon::Active,
            CompatProfile { steps: 10, breaking: 8, backward: 2, ..Default::default() },
        );
        let mut cache = StatsCache::default();
        let c = frozen_active_contrast(&per_taxon, &mut cache);
        assert_eq!(c.frozen, (1, 9));
        assert_eq!(c.active, (8, 2));
        let p = c.fisher_p.expect("fisher runs on non-degenerate table");
        assert!(p > 0.0 && p < 0.05, "p = {p}");
        // Memoized: a second call answers from cache with the same value.
        let again = frozen_active_contrast(&per_taxon, &mut cache);
        assert_eq!(again.fisher_p, c.fisher_p);
    }

    #[test]
    fn contrast_with_one_empty_side_has_no_p_value() {
        let mut per_taxon = BTreeMap::new();
        per_taxon.insert(
            Taxon::Frozen,
            CompatProfile { steps: 5, backward: 5, ..Default::default() },
        );
        let mut cache = StatsCache::default();
        let c = frozen_active_contrast(&per_taxon, &mut cache);
        assert_eq!(c.active, (0, 0));
        assert!(c.fisher_p.is_none());
    }

    #[test]
    fn frozen_side_membership() {
        assert!(is_frozen_side(Taxon::Frozen));
        assert!(is_frozen_side(Taxon::AlmostFrozen));
        assert!(is_frozen_side(Taxon::FocusedShotAndFrozen));
        assert!(!is_frozen_side(Taxon::Moderate));
        assert!(!is_frozen_side(Taxon::FocusedShotAndLow));
        assert!(!is_frozen_side(Taxon::Active));
    }
}
