//! The serve-mixed request plan, built from the paper corpus and the seed.
//!
//! Every project-month of the corpus becomes one `ingest` batch. The last
//! batches in date order are held back for the open-loop phase; set-up
//! sends everything before them, one `ingest` per project. Connection A
//! replays the held-back batches in date order; connection B sends seeded
//! reads. The closed-loop phase draws reads from the same seeded mix.

use crate::client::{Kind, Req};
use coevo_corpus::ProjectArtifacts;
use coevo_ddl::{parse_schema, print_schema, Column, Schema, SqlType};
use coevo_engine::{artifacts_to_events, ProjectEvent};
use coevo_serve::{Request, WireEvent};
use std::time::Duration;

/// Requests per second on each open-loop connection. The parent commit
/// answers a request in ~44 ms whatever it is, so one connection cannot
/// exceed ~22/s; this rate leaves room for the slower summaries.
pub const RATE_PER_CONN: f64 = 10.0;

/// The share of the run spent in the open-loop phase; the closed-loop read
/// phase takes the rest.
pub const OPEN_SHARE: f64 = 2.0 / 3.0;

/// SplitMix64: a tiny seeded generator for request choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The seeded request plan of one serve-mixed run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// One `ingest` per project: its history before the held-back batches.
    pub setup: Vec<String>,
    /// Connection A: the held-back project-months, in date order.
    pub conn_a: Vec<Req>,
    /// Connection B: seeded reads.
    pub conn_b: Vec<Req>,
    /// Length of the open-loop phase.
    pub open_len: Duration,
    /// Length of the closed-loop read phase.
    pub closed_len: Duration,
    seed: u64,
    projects: Vec<String>,
    /// Per compat target: the head plus one column, the head minus one.
    compat: Vec<[String; 2]>,
}

impl Plan {
    /// Build the plan for a run of `seconds` over `corpus`.
    pub fn build(corpus: &[ProjectArtifacts], seed: u64, seconds: f64) -> Result<Self, String> {
        let open_len = Duration::from_secs_f64(seconds * OPEN_SHARE);
        let closed_len = Duration::from_secs_f64(seconds) - open_len;
        let slots = (open_len.as_secs_f64() * RATE_PER_CONN).floor() as usize;

        // Every (month, project) batch, in date order (ties by name).
        let mut batches: Vec<(coevo_heartbeat::YearMonth, usize, Vec<ProjectEvent>)> =
            Vec::new();
        for (pi, p) in corpus.iter().enumerate() {
            let mut events = artifacts_to_events(p).map_err(|e| e.to_string())?;
            events.sort_by_key(|e| e.date());
            for ev in events {
                match batches.last_mut() {
                    Some((m, q, evs)) if *q == pi && *m == ev.month() => evs.push(ev),
                    _ => batches.push((ev.month(), pi, vec![ev])),
                }
            }
        }
        batches.sort_by(|a, b| (a.0, &corpus[a.1].name).cmp(&(b.0, &corpus[b.1].name)));
        let held = slots.min(batches.len());
        let tail = batches.split_off(batches.len() - held);

        let mut prefix: Vec<Vec<ProjectEvent>> = vec![Vec::new(); corpus.len()];
        for (_, pi, evs) in batches {
            prefix[pi].extend(evs);
        }
        let mut complete = vec![true; corpus.len()];
        for (_, pi, _) in &tail {
            complete[*pi] = false;
        }
        let setup =
            corpus.iter().zip(&prefix).map(|(p, evs)| ingest_line(p, evs, true)).collect();
        let period = 1.0 / RATE_PER_CONN;
        let conn_a = tail
            .iter()
            .enumerate()
            .map(|(i, (_, pi, evs))| Req {
                due: Duration::from_secs_f64(i as f64 * period),
                kind: Kind::Ingest,
                line: ingest_line(&corpus[*pi], evs, false),
            })
            .collect();

        // Compat targets: projects whose whole history is ingested in
        // set-up, so their head stays fixed during the run.
        let mut compat = Vec::new();
        for (p, done) in corpus.iter().zip(&complete) {
            if let (true, Some(c)) = (*done, candidates(p)) {
                compat.push(c.map(|ddl| compat_line(&p.name, &ddl)));
            }
        }
        if compat.is_empty() {
            return Err("no project is complete before the run".into());
        }
        let mut plan = Self {
            setup,
            conn_a,
            conn_b: Vec::new(),
            open_len,
            closed_len,
            seed,
            projects: corpus.iter().map(|p| p.name.clone()).collect(),
            compat,
        };
        let mut rng = Rng::new(seed ^ 0xB0B0_B0B0);
        let mut compat_turn = 0;
        plan.conn_b = (0..slots)
            .map(|i| {
                let u = rng.unit();
                let (kind, line) = if u < 0.70 {
                    plan.project_read(&mut rng)
                } else if u < 0.85 {
                    compat_turn += 1;
                    plan.compat_read(&mut rng, compat_turn)
                } else if u < 0.95 {
                    (Kind::Taxa, r#"{"cmd":"taxa"}"#.to_string())
                } else {
                    (Kind::Summary, r#"{"cmd":"summary"}"#.to_string())
                };
                Req { due: Duration::from_secs_f64((i as f64 + 0.5) * period), kind, line }
            })
            .collect();
        Ok(plan)
    }

    fn project_read(&self, rng: &mut Rng) -> (Kind, String) {
        let name = &self.projects[rng.below(self.projects.len())];
        let req = Request { project: Some(name.clone()), ..Request::bare("project") };
        (Kind::Project, serde_json::to_string(&req).expect("request serializes"))
    }

    fn compat_read(&self, rng: &mut Rng, turn: usize) -> (Kind, String) {
        let target = &self.compat[rng.below(self.compat.len())];
        (Kind::Compat, target[turn % 2].clone())
    }

    /// The `i`-th closed-loop read on connection `conn`: `project`,
    /// `compat` and `taxa` in the open-loop proportions (no summaries).
    pub fn closed_read(&self, conn: u64, i: u64) -> (Kind, String) {
        let mut rng =
            Rng::new(self.seed ^ (conn << 40) ^ i.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let u = rng.unit() * 0.95;
        if u < 0.70 {
            self.project_read(&mut rng)
        } else if u < 0.85 {
            self.compat_read(&mut rng, i as usize)
        } else {
            (Kind::Taxa, r#"{"cmd":"taxa"}"#.to_string())
        }
    }
}

fn ingest_line(p: &ProjectArtifacts, events: &[ProjectEvent], first: bool) -> String {
    let req = Request {
        project: Some(p.name.clone()),
        dialect: Some(p.dialect.name().to_string()),
        taxon: p.taxon.filter(|_| first).map(|t| t.slug().to_string()),
        events: Some(events.iter().map(WireEvent::encode).collect()),
        ..Request::bare("ingest")
    };
    serde_json::to_string(&req).expect("request serializes")
}

fn compat_line(project: &str, ddl: &str) -> String {
    let req = Request {
        project: Some(project.to_string()),
        ddl: Some(ddl.to_string()),
        ..Request::bare("compat")
    };
    serde_json::to_string(&req).expect("request serializes")
}

/// The project's head schema plus one column, and minus one column; both
/// re-parse in the project's dialect.
fn candidates(p: &ProjectArtifacts) -> Option<[String; 2]> {
    let head = parse_schema(&p.ddl_versions.last()?.1, p.dialect).ok()?;
    // `head` with table `i` edited, printed; `None` unless it re-parses.
    let edited = |i: usize, edit: &dyn Fn(&mut coevo_ddl::Table)| {
        let mut tables = head.tables.clone();
        tables[i].unseal();
        edit(&mut tables[i]);
        let text = print_schema(&Schema::from_tables(tables), p.dialect);
        parse_schema(&text, p.dialect).is_ok().then_some(text)
    };
    let probe = || Column::new("perfbench_probe", SqlType::simple("INT"));
    let plus = (!head.tables.is_empty()).then(|| edited(0, &|t| t.columns.push(probe())))??;
    // Drop the last column of the first table that has two or more and
    // still parses without it.
    let minus = (0..head.tables.len())
        .filter(|&i| head.tables[i].columns.len() >= 2)
        .find_map(|i| {
            edited(i, &|t| {
                t.columns.pop();
            })
        })?;
    Some([plus, minus])
}

#[cfg(test)]
mod tests {
    use super::*;
    use coevo_corpus::CorpusSpec;

    fn corpus() -> Vec<ProjectArtifacts> {
        let spec = CorpusSpec::paper().with_per_taxon(4);
        coevo_corpus::generate_corpus(&spec).into_iter().map(ProjectArtifacts::from).collect()
    }

    #[test]
    fn the_plan_is_a_function_of_the_seed() {
        let c = corpus();
        let a = Plan::build(&c, 7, 3.0).expect("plan");
        let b = Plan::build(&c, 7, 3.0).expect("plan");
        let lines = |p: &Plan| p.conn_b.iter().map(|r| r.line.clone()).collect::<Vec<_>>();
        assert_eq!(lines(&a), lines(&b));
        assert_eq!(a.closed_read(1, 5), b.closed_read(1, 5));
        let other = Plan::build(&c, 8, 3.0).expect("plan");
        assert_ne!(lines(&a), lines(&other));
        assert_eq!(a.conn_a.len(), 20);
        assert_eq!(a.conn_b.len(), 20);
        assert_eq!(a.setup.len(), c.len());
    }

    #[test]
    fn setup_plus_replay_ingests_every_event_once() {
        let c = corpus();
        let plan = Plan::build(&c, 3, 6.0).expect("plan");
        let count = |line: &str| {
            serde_json::from_str::<Request>(line)
                .expect("request")
                .events
                .map_or(0, |e| e.len())
        };
        let sent: usize = plan
            .setup
            .iter()
            .chain(plan.conn_a.iter().map(|r| &r.line))
            .map(|l| count(l))
            .sum();
        let total: usize =
            c.iter().map(|p| artifacts_to_events(p).expect("events").len()).sum();
        assert_eq!(sent, total);
    }

    #[test]
    fn every_request_of_the_plan_is_answered_ok_in_process() {
        let c = corpus();
        let plan = Plan::build(&c, 11, 4.5).expect("plan");
        let mut state = coevo_serve::ServeState::open(Default::default(), None).expect("state");
        let closed = (0..40).map(|i| plan.closed_read(i % 2, i).1);
        for line in &plan.setup {
            assert!(state.handle_line(line).ok, "{line}");
        }
        let mut b = plan.conn_b.iter().map(|r| r.line.clone());
        for line in plan.conn_a.iter().map(|r| r.line.clone()) {
            assert!(state.handle_line(&line).ok, "{line}");
            if let Some(read) = b.next() {
                assert!(state.handle_line(&read).ok, "{read}");
            }
        }
        for line in b.chain(closed) {
            assert!(state.handle_line(&line).ok, "{line}");
        }
    }
}
