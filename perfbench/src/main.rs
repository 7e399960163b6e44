//! The EAAO benchmark: four fixed-work workloads over the attack
//! pipeline, each checked against pinned output digests.
//!
//! ```text
//! eaao-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! eaao-perfbench pin
//! ```
//!
//! Workloads: `repro-paper`, `attack-grid`, `mega-region`,
//! `serve-swarm`. `--seconds` sizes the work (passes, campaigns, cycles
//! or submissions) through fixed per-second quotas, so a faster program
//! does the same work in less time. `--trace 0` prints the end-to-end
//! metrics, measured with tracing off; `--trace 1` is a separate run
//! that prints the per-layer metrics and writes the span table to
//! `.bench_out/<workload>-seed<N>-layers.json`. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! `pin` recomputes every workload's output digests for every seed
//! class and rewrites `pins.json` beside this crate's manifest.

mod digest;
mod grid;
mod layers;
mod mega;
mod report;
mod repro;
mod stats;
mod swarm;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use serde::Value;

use crate::report::{Outcome, END_TO_END};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["repro-paper", "attack-grid", "mega-region", "serve-swarm"];

/// Where runs keep their scratch files and per-layer reports.
const OUT_DIR: &str = ".bench_out";

/// Parsed command line of a measuring run.
#[derive(Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed argument.
    pub seed: u64,
    /// Measured seconds the work is sized for.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn die(message: &str) -> ! {
    eprintln!("eaao-perfbench: {message}");
    std::process::exit(2);
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .unwrap_or_else(|| die(&format!("{flag} needs a value")));
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| die(&format!("{flag}: not a number")))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => die(&format!(
                "unknown workload {value:?} (known: {})",
                WORKLOADS.join(" ")
            )),
            "--seed" => seed = Some(number()),
            "--seconds" => seconds = Some(number().max(1)),
            "--trace" => trace = Some(number() != 0),
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| die("--workload is required")),
        seed: seed.unwrap_or_else(|| die("--seed is required")),
        seconds: seconds.unwrap_or_else(|| die("--seconds is required")),
        trace: trace.unwrap_or(false),
    }
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("pin") {
        return pin();
    }
    let args = parse_args(argv);
    let scratch = PathBuf::from(OUT_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch)
        .unwrap_or_else(|e| die(&format!("cannot create {OUT_DIR}: {e}")));

    let mut outcome = Outcome::default();
    let ran = catch_unwind(AssertUnwindSafe(|| match args.workload.as_str() {
        "repro-paper" => repro::run(&args, &mut outcome),
        "attack-grid" => grid::run(&args, &mut outcome, &scratch),
        "mega-region" => mega::run(&args, &mut outcome),
        "serve-swarm" => swarm::run(&args, &mut outcome, &scratch),
        _ => unreachable!("workload names are validated"),
    }));
    if ran.is_err() {
        eprintln!("eaao-perfbench: {} panicked", args.workload);
        outcome.tally(1, 1);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let attempted = outcome.attempted.max(1);
    outcome.attempted = attempted;
    let ok_share = 1.0 - outcome.failed as f64 / attempted as f64;
    outcome.set(
        "ok_share",
        ok_share,
        format!("{} of {attempted} operations failed", outcome.failed),
    );
    outcome.set(
        "peak_rss_mb",
        report::peak_rss_mb(),
        "VmHWM of the benchmark process",
    );
    let correct = ran.is_ok() && outcome.failed == 0;

    let provenance = report::provenance(args.seed);
    for (key, value) in &provenance {
        println!(
            "provenance {key} = {}",
            serde_json::to_string(value).expect("serializes")
        );
    }
    if args.trace {
        write_layers(&args, &outcome, provenance);
        report::print(&outcome, &report::per_layer_catalogue(), correct);
    } else {
        let catalogue: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_owned(), unit))
            .collect();
        report::print(&outcome, &catalogue, correct);
    }
}

/// Writes the traced run's per-layer report: provenance, every metric
/// and the span table.
fn write_layers(args: &Args, outcome: &Outcome, provenance: Vec<(String, Value)>) {
    let metrics = outcome
        .values
        .iter()
        .map(|(name, value)| (name.clone(), Value::F64(*value)))
        .collect();
    let body = Value::Object(vec![
        ("workload".to_owned(), Value::String(args.workload.clone())),
        ("provenance".to_owned(), Value::Object(provenance)),
        ("metrics".to_owned(), Value::Object(metrics)),
        (
            "spans".to_owned(),
            outcome.spans.clone().unwrap_or(Value::Null),
        ),
    ]);
    let path = Path::new(OUT_DIR).join(format!("{}-seed{}-layers.json", args.workload, args.seed));
    let text = serde_json::to_string_pretty(&body).expect("report serializes");
    if let Err(error) = std::fs::write(&path, text) {
        eprintln!("eaao-perfbench: cannot write {}: {error}", path.display());
    }
}

/// Recomputes every pinned digest and rewrites `pins.json`.
fn pin() {
    let scratch = PathBuf::from(OUT_DIR).join(format!("pin-{}", std::process::id()));
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        let mut classes = Vec::new();
        for class in 0..digest::SEED_CLASSES {
            let (_, seed) = digest::input_seed(class);
            let dir = scratch.join(format!("{workload}-{class}"));
            let digests: BTreeMap<String, String> = match workload {
                "repro-paper" => repro::pin(seed),
                "attack-grid" => grid::pin(seed, &dir),
                "mega-region" => mega::pin(seed),
                _ => swarm::pin(seed, &dir),
            };
            eprintln!("pinned {workload} seed class {class}");
            let entries = digests
                .into_iter()
                .map(|(k, v)| (k, Value::String(v)))
                .collect();
            classes.push((class.to_string(), Value::Object(entries)));
        }
        workloads.push((workload.to_owned(), Value::Object(classes)));
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/pins.json");
    let text = serde_json::to_string_pretty(&Value::Object(workloads)).expect("pins serialize");
    std::fs::write(path, text + "\n").unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
    eprintln!("wrote {path}");
}
