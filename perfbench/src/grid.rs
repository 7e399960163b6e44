//! `attack-grid`: `attack-naive,attack-optimized` × 3 regions × 3
//! platforms × 2 verifiers × 4 seeds (144 cells) through
//! `Campaign::run` at `jobs = 2`, a collector installed on every run by
//! the campaign itself.
//!
//! * set-up: a one-seed quick-scale campaign of the same grid, nine
//!   times (median);
//! * `wall_s`: median campaign wall time; `throughput_per_s`: cells per
//!   second of that median; latency: every cell's `wall_ms`;
//! * check: `results.jsonl` with `wall_ms` zeroed against its pin, which
//!   `eaao-perfbench pin` records at `jobs = 1`.

use std::collections::{BTreeMap, BTreeSet};
use std::io::BufRead;
use std::path::Path;
use std::time::Instant;

use eaao_campaign::engine::Campaign;
use eaao_campaign::runner::RunRecord;
use eaao_campaign::spec::{CampaignSpec, KNOWN_PLATFORMS, KNOWN_REGIONS, KNOWN_VERIFIERS};
use eaao_obs::{Event, MetricsSnapshot};
use eaao_orchestrator::config::RegionConfig;
use eaao_orchestrator::world::World;

use crate::digest::{fnv1a, hex, zero_wall_ms};
use crate::layers::{set_program_layers, SpanTable};
use crate::report::Outcome;
use crate::stats::{median, nearest_rank};
use crate::Args;

/// Worker threads the measured campaigns run with.
const JOBS: usize = 2;

/// Campaign repetitions per measured second.
const CAMPAIGNS_PER_SECOND: f64 = 0.5;

/// Set-up repetitions (the median is reported).
const SETUP_CAMPAIGNS: usize = 9;

/// The campaign of one input seed.
pub fn spec(seed: u64, seeds: u32, quick: bool) -> CampaignSpec {
    let all = |names: &[&str]| names.iter().map(|n| (*n).to_owned()).collect();
    CampaignSpec {
        name: "attack-grid".to_owned(),
        experiments: all(&["attack-naive", "attack-optimized"]),
        regions: all(&KNOWN_REGIONS),
        platforms: all(&KNOWN_PLATFORMS),
        verifiers: all(&KNOWN_VERIFIERS),
        seeds,
        seed,
        quick,
        ..CampaignSpec::default()
    }
}

/// One finished campaign: its wall time, records and results digest.
struct Finished {
    wall_s: f64,
    records: Vec<RunRecord>,
    digest: String,
}

/// Runs `spec` into `dir` and reads its results back.
fn campaign(spec: &CampaignSpec, dir: &Path, jobs: usize, trace: Option<&Path>) -> Finished {
    let started = Instant::now();
    let report = Campaign::new(spec.clone(), dir)
        .jobs(jobs)
        .trace(trace.map(Path::to_path_buf))
        .run()
        .expect("campaign runs");
    let wall_s = started.elapsed().as_secs_f64();
    assert!(report.complete, "campaign finished every cell");
    let text = std::fs::read_to_string(dir.join("results.jsonl")).expect("results.jsonl");
    let normalised: String = text.lines().map(|line| zero_wall_ms(line) + "\n").collect();
    let records = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("record parses"))
        .collect();
    Finished {
        wall_s,
        records,
        digest: hex(fnv1a(normalised.as_bytes())),
    }
}

/// The pinned digest of one seed class, from a `jobs = 1` campaign.
pub fn pin(seed: u64, scratch: &Path) -> BTreeMap<String, String> {
    let finished = campaign(&spec(seed, 4, false), scratch, 1, None);
    BTreeMap::from([("results.jsonl".to_owned(), finished.digest)])
}

/// Tallies a campaign's cells, counting every cell failed when the
/// results digest does not match its pin.
fn check(out: &mut Outcome, class: u64, finished: &Finished) {
    let failed_records = finished.records.iter().filter(|r| !r.is_ok()).count() as u64;
    let computed = BTreeMap::from([("results.jsonl".to_owned(), finished.digest.clone())]);
    let cells = finished.records.len() as u64;
    if crate::digest::mismatches("attack-grid", class, &computed) > 0 {
        out.tally(cells, cells);
    } else {
        out.tally(cells, failed_records);
    }
}

/// Runs the workload.
pub fn run(args: &Args, out: &mut Outcome, scratch: &Path) {
    let (class, seed) = crate::digest::input_seed(args.seed);
    let warm_spec = spec(seed, 1, true);
    let setup: Vec<f64> = (0..SETUP_CAMPAIGNS)
        .map(|i| campaign(&warm_spec, &scratch.join(format!("warm-{i}")), JOBS, None).wall_s)
        .collect();
    out.set(
        "setup_s",
        median(&setup),
        format!("median of {SETUP_CAMPAIGNS} quick campaigns"),
    );

    let measured = spec(seed, 4, false);
    if args.trace {
        return traced(out, class, &measured, scratch);
    }
    let repetitions = ((args.seconds as f64 * CAMPAIGNS_PER_SECOND).round() as usize).max(1);
    let mut walls = Vec::new();
    let mut cell_ms = Vec::new();
    let mut cells = 0;
    for i in 0..repetitions {
        let finished = campaign(&measured, &scratch.join(format!("grid-{i}")), JOBS, None);
        check(out, class, &finished);
        walls.push(finished.wall_s);
        cells = finished.records.len();
        cell_ms.extend(finished.records.iter().map(|r| r.wall_ms));
    }
    let wall = median(&walls);
    out.set(
        "wall_s",
        wall,
        format!("median of {repetitions} campaigns of {cells} cells"),
    );
    out.set(
        "throughput_per_s",
        cells as f64 / wall,
        "runs/s of the median campaign",
    );
    out.set_latency(&cell_ms, "cell runs");
}

/// The traced run: one campaign streaming its trace events to a file,
/// which is folded into a span table line by line.
fn traced(out: &mut Outcome, class: u64, spec: &CampaignSpec, scratch: &Path) {
    let trace_path = scratch.join("trace.jsonl");
    let finished = campaign(spec, &scratch.join("grid-traced"), JOBS, Some(&trace_path));
    check(out, class, &finished);

    let mut table = SpanTable::default();
    let mut streams: BTreeMap<String, u64> = BTreeMap::new();
    let file = std::fs::File::open(&trace_path).expect("trace file");
    for line in std::io::BufReader::new(file).lines() {
        let line = line.expect("trace line");
        let event: Event = serde_json::from_str(&line).expect("trace event parses");
        let next = streams.len() as u64;
        let stream = *streams
            .entry(event.run.clone().unwrap_or_default())
            .or_insert(next);
        table.add(stream, &event);
    }
    std::fs::remove_file(&trace_path).ok();

    let mut merged = MetricsSnapshot::default();
    for record in &finished.records {
        merged.merge(&record.metrics);
    }
    let counter = |name: &str| merged.counters.get(name).copied().unwrap_or(0);
    set_program_layers(out, |name| table.get(name), counter);
    out.spans = Some(table.to_value());

    let mut cell_ms: Vec<f64> = finished.records.iter().map(|r| r.wall_ms).collect();
    cell_ms.sort_by(f64::total_cmp);
    let busy_ms: f64 = cell_ms.iter().sum();
    let wall_ms = finished.wall_s * 1e3;
    out.set(
        "campaign.run_ms_p50",
        nearest_rank(&cell_ms, 50.0),
        "record wall_ms",
    );
    out.set(
        "campaign.run_ms_p95",
        nearest_rank(&cell_ms, 95.0),
        "record wall_ms",
    );
    out.set(
        "campaign.worker_busy_share",
        busy_ms / (JOBS as f64 * wall_ms),
        "sum of wall_ms / (jobs x campaign wall)",
    );
    out.set(
        "campaign.straggler_ms",
        wall_ms - busy_ms / JOBS as f64,
        "campaign wall - sum of wall_ms / jobs",
    );
    let grid = spec.expand().expect("valid spec");
    let worlds: BTreeSet<String> = grid.iter().map(|run| run.world_key()).collect();
    out.set(
        "campaign.worlds_built",
        worlds.len() as f64,
        "distinct world keys",
    );
    out.set(
        "campaign.world_cache_hit_share",
        1.0 - worlds.len() as f64 / grid.len() as f64,
        "cells served by a cached world's branch",
    );
    // The campaign builds its worlds under a detached collector, so the
    // orchestrator build and branch costs are timed here, outside the
    // campaign, on the three paper regions.
    let mut build_ms = Vec::new();
    let mut branch_us = Vec::new();
    for config in RegionConfig::paper_regions() {
        let started = Instant::now();
        let world: World = World::new(config, spec.seed);
        build_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        drop(world.branch());
        branch_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    out.set(
        "orchestrator.build_ms",
        median(&build_ms),
        "median World::new of the 3 regions",
    );
    out.set(
        "orchestrator.branch_us",
        median(&branch_us),
        "median World::branch of the 3 regions",
    );
}
