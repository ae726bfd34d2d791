//! What one run prints: human-readable metric lines, then one JSON line.

use std::fmt::Write as _;

/// One printed metric: its name, value (if reportable), unit and the
/// number of samples behind it.
#[derive(Debug, Clone)]
pub struct Line {
    /// The metric name.
    pub name: String,
    /// Its value, `None` when it cannot be reported.
    pub value: Option<f64>,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
    /// Why a value is missing, or what it is made of.
    pub note: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (studies, requests, checks).
    pub attempted: u64,
    /// Operations that failed or gave a wrong answer.
    pub failed: u64,
    /// Lines for the human summary.
    pub lines: Vec<Line>,
    /// `(name, value, unit)` of every metric in the JSON line.
    pub metrics: Vec<(&'static str, Option<f64>, &'static str)>,
    /// The traced run's spans as JSON lines (empty with tracing off).
    pub spans: String,
}

impl Report {
    /// Record one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Add a human line.
    pub fn line(
        &mut self,
        name: &str,
        value: Option<f64>,
        unit: &'static str,
        n: usize,
        note: &str,
    ) {
        self.lines.push(Line {
            name: name.to_string(),
            value,
            unit,
            n,
            note: note.to_string(),
        });
    }

    /// Add the `failed_ratio` line over the checks recorded so far.
    pub fn failed_line(&mut self) {
        let value = crate::stats::failed_ratio(self.failed, self.attempted);
        let note = format!("{} failed / {} attempted", self.failed, self.attempted);
        self.line("failed_ratio", value, "ratio", self.attempted as usize, &note);
    }

    /// Add a JSON metric.
    pub fn metric(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// The human summary.
    pub fn render(&self, header: &str) -> String {
        let mut out = format!("{header}\n");
        for l in &self.lines {
            let value = l.value.map_or("n/a".to_string(), |v| format!("{v:.4}"));
            let _ = writeln!(
                out,
                "  {:<28} {:>14} {:<6} n={:<6} {}",
                l.name, value, l.unit, l.n, l.note
            );
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`. A
    /// metric that could not be measured is written as 0 and makes the run
    /// incorrect.
    pub fn json(&self) -> String {
        // A run that attempted nothing is itself one failed operation.
        let (attempted, failed) =
            if self.attempted == 0 { (1, 1) } else { (self.attempted, self.failed) };
        let missing = self.metrics.iter().any(|(_, v, _)| !v.is_some_and(f64::is_finite));
        let correct = failed == 0 && !missing;
        let mut out = format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = value.filter(|v| v.is_finite()).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.check(true);
        r.check(false);
        r.metric("setup_s", Some(0.5), "s");
        r.metric("op_p50_ms", Some(44.0), "ms");
        assert_eq!(
            r.json(),
            "{\"correct\":false,\"attempted\":2,\"failed\":1,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"},\"op_p50_ms\":{\"value\":44.0,\"unit\":\"ms\"}}}"
        );
    }

    #[test]
    fn a_missing_metric_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check(true);
        r.metric("setup_s", None, "s");
        assert!(r.json().starts_with("{\"correct\":false"));
        assert!(r.json().contains("\"value\":0.0"));
    }
}
