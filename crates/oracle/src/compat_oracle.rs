//! The compat oracle family: ground-truth validation of the compatibility
//! classifier on generator-planted breaking/benign change mixes.
//!
//! [`coevo_corpus::plant_compat_project`] evolves schema models one labeled
//! operation per version, so every step's class is known *by construction*
//! and the classifier under test is never consulted to define truth. Four
//! checks run per planted project:
//!
//! - **compat-ground-truth** — zero missed breaking steps: every planted
//!   breaking step classifies BREAKING, every benign step does not;
//! - **compat-evidence** — every step with a genuinely broken stored query
//!   (the planted `SELECT victim FROM table`) both classifies BREAKING and
//!   surfaces the query in its evidence; no broken query ever appears on a
//!   step classified safe in some direction;
//! - **compat-stability** — classification is deterministic (two runs agree
//!   exactly) and permutation-stable (reversing table order in every DDL
//!   version changes no step level);
//! - **compat-semantics** — the lattice holds on real data: a step is
//!   backward/forward compatible iff *all* its rule hits are; FULL steps
//!   are compatible in both directions; NONE iff nothing changed.
//!
//! False alarms — BREAKING calls with no query or reference evidence — are
//! *counted and reported*, never failed: the rules are conservative by
//! design (a `NarrowType` breaks nothing a `SELECT` can witness).

use coevo_compat::{classify_history, verdict_for_step, CompatLevel, StepClassification};
use coevo_corpus::{plant_compat_project, PlantedProject};
use coevo_ddl::print_schema;
use coevo_diff::{diff_constraints, MatchPolicy, SchemaHistory};

/// Aggregate evidence counters of one compat sweep, for the report line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompatStats {
    /// Evolution steps classified (births excluded).
    pub steps: usize,
    /// Steps classified BREAKING.
    pub breaking_steps: usize,
    /// BREAKING steps with no corroborating query/reference evidence.
    pub false_alarms: usize,
}

impl CompatStats {
    /// False alarms over BREAKING steps; `0.0` when none were breaking.
    pub fn false_alarm_rate(&self) -> f64 {
        if self.breaking_steps == 0 {
            0.0
        } else {
            self.false_alarms as f64 / self.breaking_steps as f64
        }
    }

    fn merge(&mut self, other: CompatStats) {
        self.steps += other.steps;
        self.breaking_steps += other.breaking_steps;
        self.false_alarms += other.false_alarms;
    }
}

/// The number of distinct checks this family contributes to the oracle
/// count of a check report.
pub const COMPAT_CHECKS: usize = 4;

fn history_of(p: &PlantedProject) -> Result<SchemaHistory, String> {
    SchemaHistory::from_ddl_texts(
        p.ddl_versions.iter().map(|(d, s)| (*d, s.as_str())),
        p.dialect,
        MatchPolicy::ByName,
    )
    .map_err(|e| format!("planted DDL failed to parse: {e}"))?
    .ok_or_else(|| "planted project produced an empty history".to_string())
}

/// Run the four compat checks on one planted project. Returns the
/// violations found (check name, detail) and the evidence counters.
pub fn check_planted(p: &PlantedProject) -> (Vec<(&'static str, String)>, CompatStats) {
    let mut violations: Vec<(&'static str, String)> = Vec::new();
    let mut stats = CompatStats::default();
    let history = match history_of(p) {
        Ok(h) => h,
        Err(e) => return (vec![("compat-ground-truth", e)], stats),
    };
    let classes = classify_history(&history);
    let versions = history.versions();
    let deltas = history.deltas();
    let sources: Vec<(&str, &str)> =
        p.sources.iter().map(|(path, text)| (path.as_str(), text.as_str())).collect();

    // Ground truth + evidence, step by step.
    for step in &p.steps {
        let i = step.index;
        let class = &classes[i];
        let classified_breaking = class.level.is_breaking();
        if step.breaking && !classified_breaking {
            violations.push((
                "compat-ground-truth",
                format!(
                    "step {i} ({:?} on {}) is breaking by construction but classified {}",
                    step.kind, step.victim, class.level
                ),
            ));
        }
        if !step.breaking && classified_breaking {
            violations.push((
                "compat-ground-truth",
                format!(
                    "step {i} ({:?} on {}) is benign by construction but classified BREAKING",
                    step.kind, step.victim
                ),
            ));
        }

        let old = versions[i - 1].schema.as_ref();
        let new = versions[i].schema.as_ref();
        let constraints = diff_constraints(old, new);
        let verdict =
            verdict_for_step(old, new, &deltas[i].delta, &constraints, Some(&sources));
        let evidence = verdict.evidence.as_ref().expect("sources were provided");
        stats.steps += 1;
        if verdict.level().is_breaking() {
            stats.breaking_steps += 1;
            if verdict.false_alarm {
                stats.false_alarms += 1;
            }
        }
        if step.kind.breaks_query() && evidence.broken_queries.is_empty() {
            violations.push((
                "compat-evidence",
                format!("step {i} removes {} but no planted stored query broke", step.victim),
            ));
        }
        if !evidence.broken_queries.is_empty() && !verdict.level().is_breaking() {
            violations.push((
                "compat-evidence",
                format!(
                    "step {i} breaks stored queries {:?} yet classified {}",
                    evidence.broken_queries,
                    verdict.level()
                ),
            ));
        }
    }

    // Determinism: a second pass is byte-identical.
    let again = classify_history(&history);
    if again != classes {
        violations.push((
            "compat-stability",
            "two classifications of the same history disagree".to_string(),
        ));
    }

    // Permutation stability: reverse the table order of every version; the
    // diff is name-matched, so no step level may move.
    match permuted_levels(p) {
        Ok(permuted) => {
            let original: Vec<CompatLevel> = classes.iter().map(|c| c.level).collect();
            if permuted != original {
                violations.push((
                    "compat-stability",
                    format!(
                        "table-order permutation moved step levels: {original:?} vs {permuted:?}"
                    ),
                ));
            }
        }
        Err(e) => violations.push(("compat-stability", e)),
    }

    // Lattice semantics on real classifications.
    for (i, class) in classes.iter().enumerate() {
        violations.extend(semantics_violations(i, class));
        let empty = deltas[i].delta.is_empty()
            && (i == 0
                || diff_constraints(
                    versions[i - 1].schema.as_ref(),
                    versions[i].schema.as_ref(),
                )
                .is_empty());
        if (class.level == CompatLevel::None) != empty {
            violations.push((
                "compat-semantics",
                format!(
                    "step {i}: level {} vs emptiness {empty} (NONE must mean exactly no change)",
                    class.level
                ),
            ));
        }
    }

    (violations, stats)
}

fn permuted_levels(p: &PlantedProject) -> Result<Vec<CompatLevel>, String> {
    let reversed: Vec<(coevo_heartbeat::DateTime, String)> = p
        .ddl_versions
        .iter()
        .map(|(d, sql)| {
            let mut schema = coevo_ddl::parse_schema(sql, p.dialect)
                .map_err(|e| format!("planted DDL failed to parse: {e}"))?;
            schema.tables.reverse();
            Ok((*d, print_schema(&schema, p.dialect)))
        })
        .collect::<Result<_, String>>()?;
    let history = SchemaHistory::from_ddl_texts(
        reversed.iter().map(|(d, s)| (*d, s.as_str())),
        p.dialect,
        MatchPolicy::ByName,
    )
    .map_err(|e| format!("permuted DDL failed to parse: {e}"))?
    .ok_or_else(|| "permuted history empty".to_string())?;
    Ok(classify_history(&history).iter().map(|c| c.level).collect())
}

fn semantics_violations(i: usize, class: &StepClassification) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    let all_backward = class.hits.iter().all(|h| h.level.is_backward_compatible());
    let all_forward = class.hits.iter().all(|h| h.level.is_forward_compatible());
    if !class.hits.is_empty() {
        if class.level.is_backward_compatible() != all_backward {
            out.push((
                "compat-semantics",
                format!("step {i}: step backward-compatibility disagrees with its hits"),
            ));
        }
        if class.level.is_forward_compatible() != all_forward {
            out.push((
                "compat-semantics",
                format!("step {i}: step forward-compatibility disagrees with its hits"),
            ));
        }
    }
    if class.level == CompatLevel::Full
        && !(class.level.is_backward_compatible() && class.level.is_forward_compatible())
    {
        out.push((
            "compat-semantics",
            format!("step {i}: FULL must imply BACKWARD and FORWARD"),
        ));
    }
    let folded = class.hits.iter().fold(CompatLevel::None, |acc, h| acc.combine(h.level));
    if folded != class.level {
        out.push((
            "compat-semantics",
            format!("step {i}: level {} is not the fold of its hits ({folded})", class.level),
        ));
    }
    out
}

/// Run the whole family over `projects` planted projects derived from
/// `seed`, each `steps_per_project` steps long. Deterministic in `seed`.
pub fn compat_sweep(
    seed: u64,
    projects: usize,
    steps_per_project: usize,
) -> (Vec<(String, &'static str, String)>, CompatStats) {
    let mut violations = Vec::new();
    let mut stats = CompatStats::default();
    for i in 0..projects {
        let planted = plant_compat_project(seed.wrapping_add(i as u64), steps_per_project);
        let (vs, s) = check_planted(&planted);
        stats.merge(s);
        violations.extend(
            vs.into_iter().map(|(check, detail)| (planted.name.clone(), check, detail)),
        );
    }
    (violations, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_projects_pass_the_family() {
        let (violations, stats) = compat_sweep(42, 4, 10);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(stats.steps, 40);
        assert!(stats.breaking_steps > 0, "plants must include breaking steps");
        // NarrowType / AddRequired steps are breaking without query
        // evidence, so a healthy run reports a nonzero false-alarm rate.
        let rate = stats.false_alarm_rate();
        assert!((0.0..=1.0).contains(&rate));
    }

    #[test]
    fn a_missed_breaking_step_is_caught() {
        // Sabotage ground truth: relabel a breaking step as benign; the
        // ground-truth check must fire in the opposite direction.
        let mut p = plant_compat_project(7, 8);
        let idx = p.steps.iter().position(|s| s.breaking).expect("has breaking step");
        p.steps[idx].breaking = false;
        let (violations, _) = check_planted(&p);
        assert!(
            violations.iter().any(|(c, d)| *c == "compat-ground-truth" && d.contains("benign")),
            "{violations:?}"
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = compat_sweep(123, 3, 9);
        let b = compat_sweep(123, 3, 9);
        assert_eq!(a, b);
    }
}
