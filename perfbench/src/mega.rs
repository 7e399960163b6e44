//! `mega-region`: a long-lived 10M-host us-east1 world put through a
//! fixed number of cycles. A cycle is the scale bench's launch / idle /
//! relaunch grid (8 services over 4 accounts) with one `probe_fleet` and
//! Gen 1 fingerprint grouping of the wave-1 fleet after the first wave.
//! A run makes three such episodes, each on a freshly built world: the
//! cycles leave their dead instances resident, so memory, not time,
//! bounds the cycles one world can take.
//!
//! * set-up: each episode's world build and the scale bench's `warm`
//!   pass (median of the three);
//! * the first fifth of each episode's cycles is warm-up, discarded while
//!   shards materialise; `wall_s` is the median episode's measured
//!   cycles, `throughput_per_s` instances placed per second over all
//!   measured cycles, latency the per-cycle time;
//! * check: hosts placed per launch and the fingerprint-group count of
//!   every cycle against their pins.

use std::collections::BTreeMap;
use std::time::Instant;

use eaao_cloudsim::ids::ServiceId;
use eaao_cloudsim::service::ServiceSpec;
use eaao_core::fingerprint::{group_by_fingerprint, Gen1Fingerprinter};
use eaao_core::probe::probe_fleet;
use eaao_orchestrator::config::RegionConfig;
use eaao_orchestrator::world::World;
use eaao_simcore::time::SimDuration;

use crate::digest::{fnv1a, hex};
use crate::layers::{set_program_layers, LayerInstrument};
use crate::report::{rss_bytes, Outcome};
use crate::stats::median;
use crate::Args;

/// Hosts in the region.
const HOSTS: usize = 10_000_000;

/// Hosts in the small region the grid's flatness is compared against.
const SMALL_HOSTS: usize = 10_000;

/// Cycles per measured second, and the most a run makes: every cycle
/// leaves its dead instances resident, so memory grows with cycles.
const CYCLES_PER_SECOND: usize = 5;
const MAX_CYCLES: usize = 60;

/// Episodes per run, each on its own world.
const EPISODES: usize = 3;

/// Simulated time between two wave-1 probes.
const PROBE_GAP: SimDuration = SimDuration::from_millis(1);

/// Cycles a run of `seconds` makes.
pub fn cycles(seconds: u64) -> usize {
    (seconds as usize * CYCLES_PER_SECOND).clamp(1, MAX_CYCLES)
}

/// Builds the region and runs the untimed warm-up of the scale bench: a
/// lazy world's first writes unshare its copy-on-write genesis lanes.
fn build(hosts: usize, seed: u64) -> (World, f64) {
    let started = Instant::now();
    let world: World = World::new(RegionConfig::us_east1().with_hosts(hosts), seed);
    let build_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut world = world;
    let account = world.create_account();
    let svc = world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
    world.launch(svc, 400).expect("fits");
    world.advance(SimDuration::from_mins(1));
    world.launch(svc, 400).expect("fits");
    world.kill_all(svc);
    world.advance(SimDuration::from_mins(30));
    (world, build_ms)
}

/// What one cycle did.
struct Cycle {
    /// Whole cycle, ms.
    total_ms: f64,
    /// Launch and advance calls only (the scale bench's grid), ms.
    grid_ms: f64,
    /// Eq. 4.1 fingerprint derivations, and their total time, µs.
    fingerprints: usize,
    fingerprint_us: f64,
    placed: usize,
    digest: String,
}

/// `World::advance`, under a benchmark span.
fn advance(world: &mut World, mins: i64) {
    let _span = eaao_obs::span("bench.world.advance");
    world.advance(SimDuration::from_mins(mins));
}

/// One cycle; `probe` adds the wave-1 fingerprinting.
fn cycle(world: &mut World, probe: bool) -> Cycle {
    let started = Instant::now();
    let mut side_ms = 0.0;
    let mut hosts: Vec<u32> = Vec::new();
    let mut placed = 0;
    let mut services: Vec<ServiceId> = Vec::new();
    for _ in 0..4 {
        let account = world.create_account();
        for _ in 0..2 {
            services.push(
                world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000)),
            );
        }
    }
    let mut launch = |world: &mut World, svc: ServiceId, count: usize, wave1: &mut Vec<_>| {
        let launch = world.launch(svc, count).expect("fits");
        placed += launch.instances().len();
        hosts.extend(
            launch
                .instances()
                .iter()
                .map(|&id| world.host_of(id).as_raw()),
        );
        hosts.push(u32::MAX);
        wave1.extend_from_slice(launch.instances());
    };
    let mut wave1 = Vec::new();
    for &svc in &services {
        launch(world, svc, 400, &mut wave1);
        advance(world, 1);
    }
    let (mut groups, mut fingerprints, mut fingerprint_us) = (0, 0, 0.0);
    if probe {
        let side = Instant::now();
        let readings = probe_fleet(world, &wave1, PROBE_GAP);
        let fingerprinter = Gen1Fingerprinter::default();
        let derive = Instant::now();
        let (grouped, _) = group_by_fingerprint(&readings, |r| fingerprinter.fingerprint(r));
        fingerprint_us = derive.elapsed().as_secs_f64() * 1e6;
        fingerprints = readings.len();
        groups = grouped.len();
        side_ms = side.elapsed().as_secs_f64() * 1e3;
    }
    for &svc in &services {
        world.disconnect_all(svc);
    }
    advance(world, 20);
    let mut unused = Vec::new();
    for round in 0..3 {
        for &svc in &services {
            launch(world, svc, 200 + 100 * round, &mut unused);
            advance(world, 2);
        }
    }
    for &svc in &services {
        world.kill_all(svc);
    }
    advance(world, 30);
    let total_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut bytes: Vec<u8> = hosts.iter().flat_map(|h| h.to_le_bytes()).collect();
    bytes.extend_from_slice(&(groups as u64).to_le_bytes());
    Cycle {
        total_ms,
        grid_ms: total_ms - side_ms,
        fingerprints,
        fingerprint_us,
        placed,
        digest: hex(fnv1a(&bytes)),
    }
}

fn cycle_name(i: usize) -> String {
    format!("cycle-{i:03}")
}

/// The pinned per-cycle digests of one seed class, for the most cycles
/// a run makes.
pub fn pin(seed: u64) -> BTreeMap<String, String> {
    let (mut world, _) = build(HOSTS, seed);
    (0..MAX_CYCLES)
        .map(|i| (cycle_name(i), cycle(&mut world, true).digest))
        .collect()
}

/// Runs the workload.
pub fn run(args: &Args, out: &mut Outcome) {
    let (class, seed) = crate::digest::input_seed(args.seed);
    let instrument = LayerInstrument::new();
    let traced = |f: &mut dyn FnMut()| {
        if args.trace {
            eaao_obs::with_instrument(instrument.clone(), f);
        } else {
            f();
        }
    };
    let n = cycles(args.seconds);
    let warmup = n / 5;
    let (mut setup_s, mut build_ms, mut episode_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut measured: Vec<Cycle> = Vec::new();
    for episode in 0..EPISODES {
        let mut world = None;
        traced(&mut || {
            let started = Instant::now();
            let (built, ms) = build(HOSTS, seed);
            setup_s.push(started.elapsed().as_secs_f64());
            build_ms.push(ms);
            world = Some(built);
        });
        let mut world = world.expect("built");
        if args.trace && episode == 0 {
            // Branching the freshly set-up world: the copy-on-write
            // snapshot `WorldCache` hands every attack cell.
            let branch_us: Vec<f64> = (0..5)
                .map(|_| {
                    let started = Instant::now();
                    drop(world.branch());
                    started.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            out.set(
                "orchestrator.branch_us",
                median(&branch_us),
                "median of 5 World::branch after set-up",
            );
        }
        let rss_before = rss_bytes();
        let mut done = Vec::with_capacity(n);
        traced(&mut || done.extend((0..n).map(|_| cycle(&mut world, true))));

        let computed: BTreeMap<String, String> = done
            .iter()
            .enumerate()
            .map(|(i, c)| (cycle_name(i), c.digest.clone()))
            .collect();
        let bad = crate::digest::mismatches("mega-region", class, &computed);
        out.tally(n as u64, bad as u64);
        // The first episode: later ones reuse the memory the allocator
        // kept from the dropped worlds, so their RSS barely grows.
        if args.trace && episode == 0 {
            let dc = world.data_center();
            out.set(
                "cloudsim.hosts_materialized_share",
                dc.materialized_hosts() as f64 / dc.len() as f64,
                "after an episode's last cycle",
            );
            let placed: usize = done.iter().map(|c| c.placed).sum();
            out.set(
                "orchestrator.rss_bytes_per_placed_instance",
                (rss_bytes() - rss_before) / placed as f64,
                "RSS growth over the first episode / instances placed",
            );
        }
        drop(world);
        episode_s.push(done[warmup..].iter().map(|c| c.total_ms).sum::<f64>() / 1e3);
        measured.extend(done.drain(warmup..));
    }
    out.set(
        "setup_s",
        median(&setup_s),
        format!("median of {EPISODES} builds + warm-ups"),
    );
    let note = format!("{EPISODES} episodes of {n} cycles after {warmup} warm-up");
    out.set(
        "wall_s",
        median(&episode_s),
        format!("median episode, {note}"),
    );
    let placed: usize = measured.iter().map(|c| c.placed).sum();
    let cycle_ms: Vec<f64> = measured.iter().map(|c| c.total_ms).collect();
    out.set(
        "throughput_per_s",
        placed as f64 * 1e3 / cycle_ms.iter().sum::<f64>(),
        format!("instances placed/s, {note}"),
    );
    out.set_latency(&cycle_ms, "measured cycles");
    if !args.trace {
        return;
    }

    let grid_ms: Vec<f64> = measured.iter().map(|c| c.grid_ms).collect();
    let grid_p50 = median(&grid_ms);
    out.set(
        "orchestrator.grid_ms_p50",
        grid_p50,
        "launch + advance part of measured cycles",
    );
    let fingerprints: usize = measured.iter().map(|c| c.fingerprints).sum();
    let fingerprint_us: f64 = measured.iter().map(|c| c.fingerprint_us).sum();
    out.set(
        "tsc.fingerprint_us_per_reading",
        fingerprint_us / fingerprints as f64,
        "Gen1Fingerprinter::fingerprint + grouping per reading",
    );
    set_program_layers(
        out,
        |name| instrument.span(name),
        |name| instrument.counter(name),
    );
    out.set(
        "orchestrator.build_ms",
        median(&build_ms),
        format!("median of {EPISODES} World::new"),
    );
    out.set(
        "orchestrator.advance_busy_s",
        instrument.span("bench.world.advance").busy_s(),
        "World::advance calls in the cycles",
    );
    out.spans = Some(instrument.spans_value());

    let (mut small, _) = build(SMALL_HOSTS, seed);
    let small_ms: Vec<f64> = (0..n).map(|_| cycle(&mut small, false).grid_ms).collect();
    out.set(
        "orchestrator.grid_ratio_10m_10k",
        grid_p50 / median(&small_ms[warmup..]),
        format!("grid p50 at 10M / at 10k hosts ({} cycles)", n - warmup),
    );
}
