//! Figure 11 — victim instance coverage under the optimized strategy
//! (Section 5.2, Strategy 2), plus the Gen 2 variant and the attack-cost
//! numbers.
//!
//! For every (data center, victim account) combination, the victim deploys
//! a service and keeps N instances connected; the attacker primes six
//! services with six 800-instance launch rounds at 10-minute intervals and
//! the victim instance coverage is measured. Figure 11a varies the victim
//! instance count {20, 50, 100, 200}; Figure 11b varies the victim size
//! {Pico, Small, Medium, Large}.

use eaao_cloudsim::service::{ContainerSize, Generation, ServiceSpec};
use eaao_orchestrator::world::World;
use eaao_simcore::stats::Summary;
use serde::{Deserialize, Serialize};

use crate::coverage::measure_coverage;
use crate::experiment::fig04::region_config;
use crate::strategy::OptimizedLaunch;

/// One experimental cell: a region, a victim account index, and a victim
/// configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig11Cell {
    /// Region name.
    pub region: String,
    /// Victim account index (the paper's Account 2 ↦ 0, Account 3 ↦ 1).
    pub victim: usize,
    /// Victim instances.
    pub victim_count: usize,
    /// Victim container size label.
    pub victim_size: String,
    /// Mean / std of victim instance coverage across repeats.
    pub coverage: Summary,
    /// Mean attacker host coverage of the data center.
    pub attacker_host_coverage: f64,
    /// Mean attack cost in USD.
    pub attack_cost_usd: f64,
    /// Mean number of hosts the attacker occupied at once.
    pub attacker_hosts: f64,
    /// Fraction of repeats achieving co-location with ≥ 1 victim instance.
    pub at_least_one_rate: f64,
}

/// Configuration for the Figure 11 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig11Config {
    /// Regions to evaluate.
    pub regions: Vec<String>,
    /// Victim accounts per region.
    pub victims: usize,
    /// Repeats per cell.
    pub repeats: usize,
    /// Victim instance counts to sweep (Figure 11a).
    pub victim_counts: Vec<usize>,
    /// Victim sizes to sweep (Figure 11b).
    pub victim_sizes: Vec<ContainerSize>,
    /// The attacker's strategy parameters.
    pub attacker: OptimizedLaunch,
    /// Execution environment for both parties (Gen 2 reproduces the
    /// paper's transferability result).
    pub generation: Generation,
}

impl Default for Fig11Config {
    fn default() -> Self {
        Fig11Config {
            regions: vec![
                "us-east1".to_owned(),
                "us-central1".to_owned(),
                "us-west1".to_owned(),
            ],
            victims: 2,
            repeats: 3,
            victim_counts: vec![20, 50, 100, 200],
            victim_sizes: ContainerSize::TABLE1.to_vec(),
            attacker: OptimizedLaunch::default(),
            generation: Generation::Gen1,
        }
    }
}

impl Fig11Config {
    /// A scaled-down configuration for tests and benches.
    pub fn quick() -> Self {
        Fig11Config {
            regions: vec!["us-west1".to_owned()],
            victims: 1,
            repeats: 1,
            victim_counts: vec![50],
            victim_sizes: vec![ContainerSize::Small],
            attacker: OptimizedLaunch {
                services: 3,
                launches_per_service: 4,
                instances_per_launch: 300,
                ..OptimizedLaunch::default()
            },
            ..Fig11Config::default()
        }
    }

    /// Runs Figure 11a: sweep the victim instance count at the default
    /// size.
    pub fn run_11a(&self, seed: u64) -> Fig11Result {
        let cells = self.sweep(seed, |&count| (count, ContainerSize::Small));
        Fig11Result {
            variant: "11a".to_owned(),
            cells,
        }
    }

    /// Runs Figure 11b: sweep the victim size at 100 instances.
    pub fn run_11b(&self, seed: u64) -> Fig11Result {
        let sizes = self.victim_sizes.clone();
        let cells = self.sweep_over(seed, &sizes, |&size| (100, size));
        Fig11Result {
            variant: "11b".to_owned(),
            cells,
        }
    }

    fn sweep(
        &self,
        seed: u64,
        to_victim: impl Fn(&usize) -> (usize, ContainerSize),
    ) -> Vec<Fig11Cell> {
        let counts = self.victim_counts.clone();
        self.sweep_over(seed, &counts, to_victim)
    }

    fn sweep_over<T>(
        &self,
        seed: u64,
        variants: &[T],
        to_victim: impl Fn(&T) -> (usize, ContainerSize),
    ) -> Vec<Fig11Cell> {
        let mut cells = Vec::new();
        for region in &self.regions {
            for victim in 0..self.victims {
                for variant in variants {
                    let (victim_count, victim_size) = to_victim(variant);
                    cells.push(self.run_cell(region, victim, victim_count, victim_size, seed));
                }
            }
        }
        cells
    }

    // tidy:allow(panic-reachability) -- the only non-literal index is `victim.min(1)` into a 2-element array, always in bounds.
    fn run_cell(
        &self,
        region: &str,
        victim: usize,
        victim_count: usize,
        victim_size: ContainerSize,
        seed: u64,
    ) -> Fig11Cell {
        let mut coverages = Vec::new();
        let mut host_coverages = Vec::new();
        let mut costs = Vec::new();
        let mut attacker_hosts = Vec::new();
        let mut at_least_one = 0usize;
        for repeat in 0..self.repeats {
            let run_seed = seed
                .wrapping_mul(1_000_003)
                .wrapping_add((victim as u64) << 32)
                .wrapping_add(repeat as u64)
                .wrapping_add(region.len() as u64 * 7_919);
            let mut world = World::new(region_config(region), run_seed);

            // The paper's account layout: Account 1 attacks, Accounts 2–3
            // are victims. Create all three so the victim index selects a
            // distinct account (and thus a distinct scheduling cell draw).
            let attacker_account = world.create_account();
            let victim_accounts = [world.create_account(), world.create_account()];
            let victim_account = victim_accounts[victim.min(1)];

            // The victim is a live web service: its instances stay
            // connected throughout.
            let victim_service = world.deploy_service(
                victim_account,
                ServiceSpec::default()
                    .with_size(victim_size)
                    .with_generation(self.generation)
                    .with_max_instances(victim_count.max(100)),
            );
            let victim_launch = world
                .launch(victim_service, victim_count)
                .expect("victim fits");
            let victim_instances = victim_launch.instances().to_vec();

            let mut attacker = self.attacker;
            attacker.hold = self.attacker.hold;
            let report =
                attack_with_generation(&mut world, attacker_account, &attacker, self.generation);

            let coverage = measure_coverage(&world, &report.live_instances, &victim_instances);
            coverages.push(coverage.victim_instance_coverage());
            host_coverages.push(coverage.attacker_host_coverage());
            costs.push(report.cost.as_usd());
            attacker_hosts.push(report.hosts_occupied as f64);
            if coverage.at_least_one() {
                at_least_one += 1;
            }
        }
        Fig11Cell {
            region: region.to_owned(),
            victim,
            victim_count,
            victim_size: victim_size.label().to_owned(),
            coverage: Summary::of(&coverages),
            attacker_host_coverage: Summary::of(&host_coverages).mean(),
            attack_cost_usd: Summary::of(&costs).mean(),
            attacker_hosts: Summary::of(&attacker_hosts).mean(),
            at_least_one_rate: at_least_one as f64 / self.repeats.max(1) as f64,
        }
    }
}

/// Runs the optimized strategy with the configured execution environment.
fn attack_with_generation(
    world: &mut World,
    account: eaao_cloudsim::ids::AccountId,
    attacker: &OptimizedLaunch,
    generation: Generation,
) -> crate::strategy::StrategyReport {
    match generation {
        Generation::Gen1 => attacker.run(world, account).expect("attacker fits"),
        Generation::Gen2 => {
            // Same strategy, Gen 2 services: clone the launcher loop with a
            // Gen 2 spec by deploying through a shim service spec. The
            // OptimizedLaunch strategy always uses Gen 1 specs, so for
            // Gen 2 we inline the equivalent loop.
            run_gen2_strategy(world, account, attacker)
        }
    }
}

/// The optimized strategy with Gen 2 service specs.
fn run_gen2_strategy(
    world: &mut World,
    account: eaao_cloudsim::ids::AccountId,
    config: &OptimizedLaunch,
) -> crate::strategy::StrategyReport {
    use std::collections::BTreeSet;
    let wall_start = world.now();
    let cost_start = world.billed_for(account);
    let spec = ServiceSpec::default()
        .with_generation(Generation::Gen2)
        .with_max_instances(1_000);
    let services: Vec<_> = (0..config.services)
        .map(|_| world.deploy_service(account, spec))
        .collect();
    let mut live = Vec::new();
    let mut launches = 0;
    for k in 0..config.launches_per_service {
        let last = k + 1 == config.launches_per_service;
        for &service in &services {
            let launch = world
                .launch(service, config.instances_per_launch)
                .expect("attacker fits");
            launches += 1;
            if last {
                live.extend_from_slice(launch.instances());
            }
        }
        world.advance(config.hold);
        if !last {
            for &service in &services {
                world.kill_all(service);
            }
            let rest = config.interval - config.hold;
            if !rest.is_negative() {
                world.advance(rest);
            }
        }
    }
    live.retain(|&id| world.instance(id).is_alive());
    let hosts: BTreeSet<_> = live.iter().map(|&i| world.host_of(i)).collect();
    crate::strategy::StrategyReport {
        services,
        hosts_occupied: hosts.len(),
        live_instances: live,
        launches,
        cost: world.billed_for(account) - cost_start,
        wall: world.now() - wall_start,
    }
}

/// The Figure 11 result: one cell per (region, victim, variant).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig11Result {
    /// `"11a"` or `"11b"`.
    pub variant: String,
    /// The measured cells.
    pub cells: Vec<Fig11Cell>,
}

impl Fig11Result {
    /// Mean coverage across all cells.
    pub fn mean_coverage(&self) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        // tidy:allow(float-determinism) -- reduces the cells Vec in slice order, which is fixed; reporting statistic, not world state
        self.cells.iter().map(|c| c.coverage.mean()).sum::<f64>() / self.cells.len() as f64
    }

    /// Fraction of all runs that co-located with at least one victim
    /// instance (the paper: 100%).
    pub fn at_least_one_rate(&self) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        // tidy:allow(float-determinism) -- reduces the cells Vec in slice order, which is fixed; reporting statistic, not world state
        self.cells.iter().map(|c| c.at_least_one_rate).sum::<f64>() / self.cells.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_cell_achieves_high_coverage_in_west1() {
        let result = Fig11Config::quick().run_11a(71);
        assert_eq!(result.cells.len(), 1);
        let cell = &result.cells[0];
        assert!(
            cell.coverage.mean() > 0.8,
            "coverage {} in us-west1",
            cell.coverage.mean()
        );
        assert_eq!(result.at_least_one_rate(), 1.0);
        assert!(cell.attack_cost_usd > 0.0);
    }

    #[test]
    fn gen2_strategy_also_co_locates() {
        let mut config = Fig11Config::quick();
        config.generation = Generation::Gen2;
        let result = config.run_11a(72);
        assert!(
            result.mean_coverage() > 0.6,
            "gen2 coverage {}",
            result.mean_coverage()
        );
    }

    #[test]
    fn fig11b_sweeps_sizes() {
        let mut config = Fig11Config::quick();
        config.victim_sizes = vec![ContainerSize::Pico, ContainerSize::Large];
        let result = config.run_11b(73);
        assert_eq!(result.cells.len(), 2);
        assert_eq!(result.cells[0].victim_count, 100);
        assert_eq!(result.cells[0].victim_size, "Pico");
        assert_eq!(result.cells[1].victim_size, "Large");
        // Size does not materially change coverage (the paper's finding).
        let diff = (result.cells[0].coverage.mean() - result.cells[1].coverage.mean()).abs();
        assert!(diff < 0.3, "size sensitivity {diff}");
    }
}
