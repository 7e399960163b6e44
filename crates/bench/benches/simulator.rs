//! Microbenches of the simulation substrate itself: world construction,
//! launches, probing, and the covert-channel primitive. These bound the
//! cost of scaling experiments up (e.g. a 2000-host us-central1 world or
//! an 800-instance launch) and catch regressions in the hot paths.

#![allow(missing_docs, reason = "criterion_main! expands to an undocumented fn")]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use eaao_cloudsim::service::ServiceSpec;
use eaao_core::probe::probe_fleet;
use eaao_core::verify::{ctest, CTestConfig};
use eaao_orchestrator::config::RegionConfig;
use eaao_orchestrator::world::World;
use eaao_simcore::time::SimDuration;

fn bench_world_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("world_construction");
    for (label, region) in [
        ("us-west1/205", RegionConfig::us_west1()),
        ("us-east1/520", RegionConfig::us_east1()),
        ("us-central1/2000", RegionConfig::us_central1()),
    ] {
        group.bench_function(label, |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(World::new(region.clone(), seed))
            });
        });
    }
    group.finish();
}

fn bench_launch(c: &mut Criterion) {
    let mut group = c.benchmark_group("launch");
    for &n in &[100usize, 800] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                let mut world = World::new(RegionConfig::us_east1(), seed);
                let account = world.create_account();
                let service =
                    world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
                black_box(world.launch(service, n).expect("fits"))
            });
        });
    }
    group.finish();
}

fn bench_probe_fleet(c: &mut Criterion) {
    c.bench_function("probe_fleet_800", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let mut world = World::new(RegionConfig::us_east1(), seed);
            let account = world.create_account();
            let service =
                world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
            let launch = world.launch(service, 800).expect("fits");
            let ids = launch.instances().to_vec();
            black_box(probe_fleet(&mut world, &ids, SimDuration::from_millis(10)))
        });
    });
}

fn bench_ctest_primitive(c: &mut Criterion) {
    c.bench_function("ctest_pair", |b| {
        let mut world = World::new(RegionConfig::us_west1().with_hosts(30), 1);
        let account = world.create_account();
        let service =
            world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
        let launch = world.launch(service, 40).expect("fits");
        let pair = [launch.instances()[0], launch.instances()[1]];
        let config = CTestConfig::default();
        b.iter(|| black_box(ctest(&mut world, &pair, &config).expect("alive")));
    });
}

criterion_group! {
    name = simulator;
    config = Criterion::default().sample_size(10);
    targets =
        bench_world_construction,
        bench_launch,
        bench_probe_fleet,
        bench_ctest_primitive,
}
criterion_main!(simulator);
