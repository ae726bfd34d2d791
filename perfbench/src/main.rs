//! `perfbench`: the end-to-end and per-layer benchmark of the study engine
//! and the serve daemon. See `perfbench/README.md` for the workloads, the
//! metrics and how to run it; `perfbench/run.py` builds and drives it.
//!
//! ```text
//! perfbench --workload <paper-195|shards-2k|serve-mixed> --seed N
//!           --seconds S --trace <0|1> [--coevo PATH] [--trace-out FILE]
//! ```
//!
//! The last line of standard output is the JSON result; the lines before
//! it name every metric with its unit and sample count.

mod batch;
mod client;
mod layers;
mod mixed;
mod report;
mod served;
mod stats;
mod study;
mod trace;

use std::path::{Path, PathBuf};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["paper-195", "shards-2k", "serve-mixed"];

/// Working space for shard files and daemon stores, inside the directory
/// the benchmark runs from; removed when the run ends.
const WORK_DIR: &str = ".bench_work";

/// This run's directory under [`WORK_DIR`], removed on drop (a panic
/// included).
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> std::io::Result<Self> {
        let dir = Path::new(WORK_DIR).join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    coevo: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut coevo, mut trace_out) = (None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                seconds = Some(s).filter(|s| *s > 0.0 && s.is_finite());
                seconds.ok_or_else(|| bad("a positive number of seconds"))?;
            }
            "--trace" => trace = Some(value == "1").filter(|_| value == "0" || value == "1"),
            "--coevo" => coevo = Some(PathBuf::from(value)),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.filter(|w| WORKLOADS.contains(&w.as_str()));
    Ok(Args {
        workload: workload.ok_or(format!("--workload must be one of {WORKLOADS:?}"))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace must be 0 or 1")?,
        coevo,
        trace_out,
    })
}

fn run(args: &Args, work: &Path) -> Result<report::Report, String> {
    let coevo = || args.coevo.as_deref().ok_or("serve-mixed needs --coevo PATH".to_string());
    match (args.workload.as_str(), args.trace) {
        ("paper-195", false) => batch::paper(args.seed, args.seconds),
        ("paper-195", true) => batch::paper_traced(args.seed),
        ("shards-2k", false) => batch::shards(args.seed, args.seconds, work),
        ("shards-2k", true) => batch::shards_traced(args.seed, work),
        ("serve-mixed", false) => served::run(args.seed, args.seconds, coevo()?, work),
        (_, _) => served::traced(args.seed, args.seconds, coevo()?, work),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = match WorkDir::create(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create {WORK_DIR}: {e}");
            std::process::exit(1);
        }
    };
    let outcome = run(&args, &work.0);
    drop(work);
    match outcome {
        Ok(report) => {
            let header = format!(
                "workload {} seed {} seconds {} trace {}",
                args.workload, args.seed, args.seconds, args.trace as u8
            );
            if let Some(path) = &args.trace_out {
                if let Err(e) = std::fs::write(path, &report.spans) {
                    eprintln!("perfbench: cannot write {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
            print!("{}", report.render(&header));
            println!("{}", report.json());
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
