//! Reverse-engineering the orchestrator, the way Section 5.1 does:
//! Experiments 1–4 (Figures 6–9) against one region, printing the
//! observations as they fall out.
//!
//! ```text
//! cargo run --release --example placement_study
//! ```

use eaao::core::experiment::{fig06, fig07, fig08, fig09};
use eaao::prelude::*;

fn main() {
    let seed = 11;

    // Experiment 1a: how do 800 instances spread over hosts?
    println!("== Experiment 1: instance distribution ==");
    let mut world = World::new(RegionConfig::us_east1(), seed);
    let account = world.create_account();
    let service = world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
    let launch = world.launch(service, 800).expect("fits");
    let mut per_host = std::collections::HashMap::new();
    for &id in launch.instances() {
        *per_host.entry(world.host_of(id)).or_insert(0usize) += 1;
    }
    let min = per_host
        .values()
        .min()
        .expect("800 instances occupy some host");
    let max = per_host
        .values()
        .max()
        .expect("800 instances occupy some host");
    println!(
        "800 instances -> {} hosts, {}..{} instances per host (Observation 1)",
        per_host.len(),
        min,
        max
    );

    // Experiment 1b: idle termination (Figure 6).
    println!("\n== Experiment 1: idle termination (Figure 6) ==");
    let result = fig06::Fig06Config::default().run(seed);
    for minutes in [0.0, 2.0, 6.0, 10.0, 12.0, 14.0] {
        println!(
            "  t+{minutes:>4.0} min: {:>4.0} idle instances alive",
            result.survivors_at(minutes)
        );
    }

    // Experiment 2: base hosts across cold launches (Figure 7).
    println!("\n== Experiment 2: launches 45 min apart (Figure 7) ==");
    let result = fig07::Fig07Config::default().run(seed);
    println!("  per-launch hosts:  {:?}", result.per_launch.ys());
    println!("  cumulative hosts:  {:?}", result.cumulative.ys());
    println!("  -> a stable per-account set of base hosts (Observation 3)");

    // Experiment 3: accounts get different base hosts (Figure 8).
    println!("\n== Experiment 3: three accounts (Figure 8) ==");
    let result = fig08::Fig08Config::default().run(seed);
    println!("  cumulative hosts:  {:?}", result.cumulative.ys());
    let (new_step, same_step) = result.step_contrast();
    println!(
        "  cumulative growth: {new_step:.0} when the account changes, {same_step:.0} otherwise \
         (Observation 4)"
    );

    // Experiment 4: short launch intervals engage the load balancer
    // (Figure 9).
    println!("\n== Experiment 4: launches 10 min apart (Figure 9) ==");
    let result = fig09::Fig09Config::default().run(seed);
    println!("  per-launch hosts:  {:?}", result.per_launch.ys());
    println!("  cumulative hosts:  {:?}", result.cumulative.ys());
    println!(
        "  -> {} extra (helper) hosts beyond the base set (Observation 5)",
        result.extra_hosts()
    );
}
