//! Criterion benches for the §4.2/§4.3/§4.5 measurements: the
//! measured-frequency procedure, the verification-cost comparison (the
//! paper's central efficiency claim), and the Gen 2 fingerprint sweep.

#![allow(missing_docs, reason = "criterion_main! expands to an undocumented fn")]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use eaao_cloudsim::service::ServiceSpec;
use eaao_core::experiment::{sec42, sec43, sec45};
use eaao_core::fingerprint::{group_by_fingerprint, Gen1Fingerprinter};
use eaao_core::probe::probe_fleet;
use eaao_core::verify::{pairwise_verify, HierarchicalVerifier, PairwiseChannel};
use eaao_orchestrator::config::RegionConfig;
use eaao_orchestrator::world::World;
use eaao_simcore::time::SimDuration;

fn bench_sec42_frequency_measurement(c: &mut Criterion) {
    let config = sec42::Sec42Config::quick();
    c.bench_function("sec42_frequency_measurement", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(config.run(seed))
        });
    });
}

fn bench_sec43_cost_comparison(c: &mut Criterion) {
    let config = sec43::Sec43Config::quick();
    c.bench_function("sec43_cost_comparison", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(config.run(seed))
        });
    });
}

fn bench_sec45_gen2_accuracy(c: &mut Criterion) {
    let mut config = sec45::Sec45Config::quick();
    config.instances = 300; // keep the bench loop snappy
    c.bench_function("sec45_gen2_accuracy", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(config.run(seed))
        });
    });
}

/// Table-style comparison: hierarchical vs pairwise verification at
/// growing fleet sizes — the O(hosts) vs O(N²) crossover the paper's
/// Section 4.3 argues.
fn bench_verification_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("verification_scaling");
    for &n in &[40usize, 80, 160] {
        group.bench_with_input(BenchmarkId::new("hierarchical", n), &n, |b, &n| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                let mut world = World::new(RegionConfig::us_west1(), seed);
                let account = world.create_account();
                let service =
                    world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
                let launch = world.launch(service, n).expect("fits");
                let ids = launch.instances().to_vec();
                let readings = probe_fleet(&mut world, &ids, SimDuration::from_millis(10));
                let fp = Gen1Fingerprinter::default();
                let (groups, _) = group_by_fingerprint(&readings, |r| fp.fingerprint(r));
                let groups: Vec<Vec<_>> = groups
                    .into_iter()
                    .map(|(_, m)| m.iter().map(|&i| readings[i].instance).collect())
                    .collect();
                black_box(
                    HierarchicalVerifier::new()
                        .verify(&mut world, &groups)
                        .expect("alive"),
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("pairwise", n), &n, |b, &n| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                let mut world = World::new(RegionConfig::us_west1(), seed);
                let account = world.create_account();
                let service =
                    world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
                let launch = world.launch(service, n).expect("fits");
                let ids = launch.instances().to_vec();
                black_box(
                    pairwise_verify(&mut world, &ids, PairwiseChannel::RngUnit).expect("alive"),
                )
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = verification;
    config = Criterion::default().sample_size(10);
    targets =
        bench_sec42_frequency_measurement,
        bench_sec43_cost_comparison,
        bench_sec45_gen2_accuracy,
        bench_verification_scaling,
}
criterion_main!(verification);
