//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! Each ablation runs a reduced experiment under a swept parameter and
//! reports the *quality* consequence through Criterion's throughput label
//! (the timing itself is secondary). The sweeps:
//!
//! * demand window — what happens to helper exploration when the
//!   orchestrator's 30-minute memory shrinks,
//! * popularity exponent — how host-scoring concentration drives the gap
//!   between host coverage and victim-instance coverage,
//! * CTest threshold `m` — verification cost vs group width,
//! * frequency source — reported vs measured TSC frequency for the Gen 1
//!   fingerprint (the paper's §4.2 decision).

#![allow(missing_docs, reason = "criterion_main! expands to an undocumented fn")]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use eaao_cloudsim::service::ServiceSpec;
use eaao_core::experiment::fig09::Fig09Config;
use eaao_core::experiment::sec42::GuestSampler;
use eaao_core::fingerprint::Gen1Fingerprinter;
use eaao_core::metrics::PairConfusion;
use eaao_core::probe::probe_fleet;
use eaao_core::verify::{ctest, CTestConfig};
use eaao_orchestrator::config::RegionConfig;
use eaao_orchestrator::world::World;
use eaao_simcore::time::{SimDuration, SimTime};
use eaao_tsc::boot::TscSample;
use eaao_tsc::measure::measure_frequency;

/// Observation 5 hinges on the ~30-minute demand window; shrink it and the
/// 10-minute priming strategy stops finding helper hosts.
fn bench_ablation_demand_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_demand_window");
    for &minutes in &[5i64, 30] {
        group.bench_with_input(
            BenchmarkId::from_parameter(minutes),
            &minutes,
            |b, &minutes| {
                let mut config = Fig09Config::quick();
                let mut seed = 0;
                b.iter(|| {
                    seed += 1;
                    let mut region = eaao_core::experiment::fig04::region_config(&config.region);
                    region.placement.demand_window = SimDuration::from_mins(minutes);
                    // Run the Figure 9 workload manually under the modified
                    // region (the driver resolves presets itself, so inline).
                    let mut world = World::new(region, seed);
                    let account = world.create_account();
                    let service = world
                        .deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
                    let mut hosts = std::collections::HashSet::new();
                    for _ in 0..4 {
                        let launch = world.launch(service, config.instances).expect("fits");
                        for &i in launch.instances() {
                            hosts.insert(world.host_of(i));
                        }
                        world.disconnect_all(service);
                        world.advance(SimDuration::from_mins(10));
                    }
                    config.launches = 4;
                    black_box(hosts.len())
                });
            },
        );
    }
    group.finish();
}

/// The popularity concentration drives how much of the victim's fleet an
/// attacker covers per host occupied.
fn bench_ablation_popularity(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_popularity");
    for &expo in &[0.0f64, 1.25] {
        group.bench_with_input(BenchmarkId::from_parameter(expo), &expo, |b, &expo| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                let mut region = RegionConfig::us_west1();
                region.popularity_exponent = expo;
                let mut world = World::new(region, seed);
                let attacker = world.create_account();
                let victim = world.create_account();
                let vic_svc = world.deploy_service(victim, ServiceSpec::default());
                let vic = world
                    .launch(vic_svc, 50)
                    .expect("fits")
                    .instances()
                    .to_vec();
                let report = eaao_core::strategy::OptimizedLaunch {
                    services: 2,
                    launches_per_service: 3,
                    instances_per_launch: 300,
                    ..Default::default()
                }
                .run(&mut world, attacker)
                .expect("fits");
                let cov =
                    eaao_core::coverage::measure_coverage(&world, &report.live_instances, &vic);
                black_box(cov.victim_instance_coverage())
            });
        });
    }
    group.finish();
}

/// Higher CTest thresholds allow wider unambiguous groups but demand more
/// co-located pressure; sweep `m`.
fn bench_ablation_ctest_m(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_ctest_m");
    for &m in &[2u32, 3, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, &m| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                let mut world = World::new(RegionConfig::us_west1().with_hosts(30), seed);
                let account = world.create_account();
                let service =
                    world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
                let launch = world.launch(service, 60).expect("fits");
                let config = CTestConfig {
                    threshold_m: m,
                    ..CTestConfig::default()
                };
                let ids = launch.instances();
                let group_size = config.max_unambiguous_group().min(ids.len());
                black_box(ctest(&mut world, &ids[..group_size], &config).expect("alive"))
            });
        });
    }
    group.finish();
}

/// §4.2: fingerprint with the reported frequency (the paper's choice) vs
/// the measured frequency (breaks on problematic hosts).
fn bench_ablation_freq_source(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_freq_source");
    group.bench_function("reported", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let (readings, truth) = launch_and_truth(seed);
            let fp = Gen1Fingerprinter::default();
            let predicted: Vec<String> = readings
                .iter()
                .enumerate()
                .map(|(i, r)| match fp.fingerprint(r) {
                    Some(f) => f.to_string(),
                    None => format!("none-{i}"),
                })
                .collect();
            black_box(PairConfusion::from_assignments(&predicted, &truth).fmi())
        });
    });
    group.bench_function("measured", |b| {
        let mut seed = 1_000;
        b.iter(|| {
            seed += 1;
            black_box(measured_frequency_fmi(seed))
        });
    });
    group.finish();
}

fn launch_and_truth(seed: u64) -> (Vec<eaao_core::probe::ProbeReading>, Vec<u32>) {
    let mut world = World::new(RegionConfig::us_west1(), seed);
    let account = world.create_account();
    let service = world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
    let launch = world.launch(service, 150).expect("fits");
    let ids = launch.instances().to_vec();
    let readings = probe_fleet(&mut world, &ids, SimDuration::from_millis(10));
    let truth = readings
        .iter()
        .map(|r| world.host_of(r.instance).as_raw())
        .collect();
    (readings, truth)
}

/// Fingerprints derived with each instance's *measured* frequency: the
/// per-host scatter on problematic hosts splits co-located instances.
fn measured_frequency_fmi(seed: u64) -> f64 {
    let mut world = World::new(RegionConfig::us_west1(), seed);
    let account = world.create_account();
    let service = world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
    let launch = world.launch(service, 150).expect("fits");
    let ids = launch.instances().to_vec();
    let mut predicted = Vec::with_capacity(ids.len());
    let mut truth = Vec::with_capacity(ids.len());
    for &id in &ids {
        let mut sampler = GuestSampler::new(&mut world, id);
        let measurement = measure_frequency(&mut sampler, SimDuration::from_millis(100), 10);
        let f = measurement.mean_frequency();
        let sample: TscSample = world
            .with_guest(id, |sandbox, now| {
                use eaao_cloudsim::sandbox::GuestEnv;
                sandbox.sample(now)
            })
            .expect("alive");
        let boot: SimTime = sample.derive_rounded_boot_time(f, SimDuration::from_secs(1));
        predicted.push(boot.as_nanos());
        truth.push(world.host_of(id).as_raw());
    }
    PairConfusion::from_assignments(&predicted, &truth).fmi()
}

criterion_group! {
    name = ablations;
    config = Criterion::default().sample_size(10);
    targets =
        bench_ablation_demand_window,
        bench_ablation_popularity,
        bench_ablation_ctest_m,
        bench_ablation_freq_source,
}
criterion_main!(ablations);
