//! What a run reports: the metric catalogue, the human-readable lines,
//! the per-layer report file and the closing JSON line.

use std::collections::BTreeMap;

use serde::Value;

use crate::stats::Summary;

/// End-to-end metrics every workload reports, with their units. Each
/// workload gives the work-specific ones its own meaning (see the
/// workload modules): `throughput_per_s` counts experiments, runs,
/// placed instances or campaigns.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_per_s", "ops/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
];

/// The `repro` experiments, in paper order; `core.experiment_ms.<name>`
/// exists for each.
pub const EXPERIMENTS: [&str; 18] = [
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11a",
    "fig11b",
    "fig12",
    "sec4.2",
    "sec4.3",
    "sec4.5",
    "strategy1",
    "gen2",
    "sec6",
    "opt",
    "factors",
];

/// Per-layer metrics of the traced run, with their units. A workload
/// that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("orchestrator.launch_ms_p50", "ms"),
    ("orchestrator.launch_ms_p99", "ms"),
    ("orchestrator.launch_busy_s", "s"),
    ("orchestrator.grid_ms_p50", "ms"),
    ("orchestrator.grid_ratio_10m_10k", "ratio"),
    ("orchestrator.advance_busy_s", "s"),
    ("orchestrator.build_ms", "ms"),
    ("orchestrator.branch_us", "us"),
    ("orchestrator.launches", "count"),
    ("orchestrator.instances_created", "count"),
    ("orchestrator.instances_reused", "count"),
    ("orchestrator.reuse_share", "share"),
    ("orchestrator.rss_bytes_per_placed_instance", "B/instance"),
    ("cloudsim.hosts_materialized_share", "share"),
    ("cloudsim.datacenter_generate_ms", "ms"),
    ("simcore.events_processed", "count"),
    ("tsc.fingerprint_us_per_reading", "us"),
    ("core.ctest_count", "count"),
    ("core.ctest_busy_s", "s"),
    ("core.lockcheck_count", "count"),
    ("core.lockcheck_busy_s", "s"),
    ("core.strategy_optimized_self_s", "s"),
    ("core.probe_fleet_busy_s", "s"),
    ("core.verify_hierarchical_busy_s", "s"),
    ("campaign.run_ms_p50", "ms"),
    ("campaign.run_ms_p95", "ms"),
    ("campaign.worker_busy_share", "share"),
    ("campaign.straggler_ms", "ms"),
    ("campaign.worlds_built", "count"),
    ("campaign.world_cache_hit_share", "share"),
    ("campaign.sink_record_us", "us"),
    ("serve.accepted_ms_p50", "ms"),
    ("serve.first_record_ms_p50", "ms"),
    ("serve.record_gap_us_p50", "us"),
    ("serve.done_lag_us_p50", "us"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.bytes_streamed", "bytes"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.trace_events", "count"),
];

/// Every per-layer metric name and unit, the per-experiment ones included.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_owned(), unit))
        .chain(
            EXPERIMENTS
                .iter()
                .map(|name| (format!("core.experiment_ms.{name}"), "ms")),
        )
        .collect()
}

/// A workload's result: operation counts and every metric it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (experiments, runs, cycles, submissions,
    /// digest checks).
    pub attempted: u64,
    /// Operations that failed: failed records, refused or errored
    /// submissions, caught panics and digest mismatches.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// How each metric was sampled, for the human-readable lines.
    pub notes: BTreeMap<String, String>,
    /// The traced run's span table, when there was one.
    pub spans: Option<Value>,
}

impl Outcome {
    /// Records a metric and how it was sampled.
    pub fn set(&mut self, name: &str, value: f64, note: impl Into<String>) {
        self.values.insert(name.to_owned(), value);
        self.notes.insert(name.to_owned(), note.into());
    }

    /// Records the latency pair from a timing summary, ms.
    pub fn set_latency(&mut self, samples_ms: &[f64], what: &str) {
        let summary = Summary::of(samples_ms).unwrap_or(Summary {
            n: 0,
            p50: 0.0,
            tail_pct: 50.0,
            tail: 0.0,
        });
        self.set(
            "latency_ms_p50",
            summary.p50,
            format!("p50 of {} {what}", summary.n),
        );
        self.set(
            "latency_ms_tail",
            summary.tail,
            format!("{} of {} {what}", summary.tail_label(), summary.n),
        );
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn tally(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }
}

/// Machine and build facts every report carries.
pub fn provenance(seed: u64) -> Vec<(String, Value)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    vec![
        ("nproc".to_owned(), Value::U64(nproc as u64)),
        ("cpu".to_owned(), Value::String(cpu)),
        (
            "rustc".to_owned(),
            Value::String(env!("PERFBENCH_RUSTC").to_owned()),
        ),
        ("commit".to_owned(), Value::String(commit())),
        ("seed".to_owned(), Value::U64(seed)),
    ]
}

/// The checked-out commit, read from the repository's `.git` when there
/// is one (a plain source export has none and reports `unknown`).
fn commit() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let read = |path: &str| std::fs::read_to_string(format!("{git}/{path}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(reference)
        .map(|id| id.trim().to_owned())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Prints the metric lines and the closing JSON object to stdout.
///
/// `catalogue` names every metric the run must report; one the workload
/// did not measure is reported as 0.
pub fn print(outcome: &Outcome, catalogue: &[(String, &str)], correct: bool) {
    let mut metrics = Vec::new();
    for (name, unit) in catalogue {
        let value = outcome.values.get(name).copied().unwrap_or(0.0);
        let note = outcome
            .notes
            .get(name)
            .map_or("not exercised", String::as_str);
        println!("metric {name} = {value} {unit} ({note})");
        metrics.push((
            name.clone(),
            Value::Object(vec![
                ("value".to_owned(), Value::F64(value)),
                ("unit".to_owned(), Value::String((*unit).to_owned())),
            ]),
        ));
    }
    let line = Value::Object(vec![
        ("correct".to_owned(), Value::Bool(correct)),
        ("attempted".to_owned(), Value::U64(outcome.attempted)),
        ("failed".to_owned(), Value::U64(outcome.failed)),
        ("metrics".to_owned(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("result serializes")
    );
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// Current resident set of this process, bytes.
pub fn rss_bytes() -> f64 {
    proc_status_kb("VmRSS:") * 1024.0
}

fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with(field))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0.0)
}
