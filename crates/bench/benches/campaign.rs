//! Campaign-executor benchmarks: scheduler overhead and scaling.
//!
//! Two views, so later PRs can tell a scheduler regression from an
//! experiment slowdown:
//!
//! * `executor_overhead` — the pool on trivial synthetic tasks, isolating
//!   pure work-stealing/slotting cost per task.
//! * `campaign_throughput` — a quick-scale experiment grid end to end
//!   (spec expansion → execution → records) at 1, 2, and 8 workers.

#![allow(missing_docs, reason = "criterion_main! expands to an undocumented fn")]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use eaao_campaign::pool::Executor;
use eaao_campaign::runner::execute;
use eaao_campaign::spec::CampaignSpec;

fn bench_executor_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor_overhead");
    for &jobs in &[1usize, 2, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |b, &jobs| {
            let executor = Executor::new(jobs);
            b.iter(|| {
                let tasks: Vec<u64> = (0..256).collect();
                black_box(executor.run(tasks, |_, x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            });
        });
    }
    group.finish();
}

fn bench_campaign_throughput(c: &mut Criterion) {
    // A small grid of real (quick-scale) experiment cells. fig6 is the
    // cheapest full experiment; 8 seeds give the pool something to steal.
    let spec = CampaignSpec {
        experiments: vec!["fig6".to_owned()],
        regions: vec!["us-west1".to_owned()],
        seeds: 8,
        quick: true,
        ..CampaignSpec::default()
    };
    let grid = spec.expand().expect("valid spec");
    let seed = spec.seed;
    let mut group = c.benchmark_group("campaign_throughput");
    group.sample_size(10);
    for &jobs in &[1usize, 2, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |b, &jobs| {
            let executor = Executor::new(jobs);
            b.iter(|| {
                let records =
                    executor.run(grid.clone(), move |_, run| execute(&run, black_box(seed)));
                assert!(records.iter().all(|r| r.is_ok()));
                black_box(records)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_executor_overhead, bench_campaign_throughput);
criterion_main!(benches);
