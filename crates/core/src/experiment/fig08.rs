//! Figure 8 — base hosts across accounts (Experiment 3, Observation 4).
//!
//! Six launches of 800 instances, with launches 1–2 owned by Account 1,
//! 3–4 by Account 2, and 5–6 by Account 3. The cumulative apparent-host
//! count forms a step pattern: it jumps when a *new account* launches and
//! barely moves when the same account launches again — different accounts
//! use different base hosts.

use std::collections::BTreeSet;

use eaao_cloudsim::ids::AccountId;
use eaao_cloudsim::service::ServiceSpec;
use eaao_orchestrator::world::World;
use eaao_simcore::series::Series;
use eaao_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::experiment::apparent_hosts;
use crate::experiment::fig04::region_config;
use crate::fingerprint::{Gen1Fingerprint, Gen1Fingerprinter};

/// Configuration for the Figure 8 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig08Config {
    /// Region to measure.
    pub region: String,
    /// Accounts to alternate between.
    pub accounts: usize,
    /// Consecutive launches per account.
    pub launches_per_account: usize,
    /// Instances per launch.
    pub instances: usize,
    /// Gap between launches (cold each time).
    pub interval: SimDuration,
}

impl Default for Fig08Config {
    fn default() -> Self {
        Fig08Config {
            region: "us-east1".to_owned(),
            accounts: 3,
            launches_per_account: 2,
            instances: 800,
            interval: SimDuration::from_mins(45),
        }
    }
}

impl Fig08Config {
    /// A scaled-down configuration for tests and benches.
    pub fn quick() -> Self {
        Fig08Config {
            instances: 200,
            ..Fig08Config::default()
        }
    }

    /// Runs the experiment. Account ids are re-drawn from `seed`, so
    /// repeated runs sample different cell assignments.
    ///
    /// # Panics
    ///
    /// Panics if a launch fails.
    pub fn run(&self, seed: u64) -> Fig08Result {
        let mut world = World::new(region_config(&self.region), seed);
        let accounts: Vec<AccountId> = (0..self.accounts).map(|_| world.create_account()).collect();
        let spec = ServiceSpec::default().with_max_instances(1_000);
        let fingerprinter = Gen1Fingerprinter::default();

        let mut per_launch = Series::new("apparent hosts");
        let mut cumulative = Series::new("cumulative apparent hosts");
        let mut owners = Vec::new();
        let mut seen: BTreeSet<Gen1Fingerprint> = BTreeSet::new();
        let mut launch_id = 0;
        for &account in &accounts {
            let service = world.deploy_service(account, spec);
            for _ in 0..self.launches_per_account {
                launch_id += 1;
                let launch = world.launch(service, self.instances).expect("within caps");
                let hosts = apparent_hosts(&mut world, launch.instances(), &fingerprinter);
                per_launch.push(launch_id as f64, hosts.len() as f64);
                seen.extend(hosts);
                cumulative.push(launch_id as f64, seen.len() as f64);
                owners.push(account);
                world.disconnect_all(service);
                world.advance(self.interval);
            }
        }
        Fig08Result {
            region: self.region.clone(),
            owners,
            per_launch,
            cumulative,
        }
    }
}

/// The Figure 8 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig08Result {
    /// Region measured.
    pub region: String,
    /// The account that issued each launch.
    pub owners: Vec<AccountId>,
    /// Apparent hosts per launch.
    pub per_launch: Series,
    /// Cumulative apparent hosts.
    pub cumulative: Series,
}

impl Fig08Result {
    /// Cumulative growth contributed by each launch (first launch counts
    /// from zero).
    pub fn steps(&self) -> Vec<f64> {
        let ys = self.cumulative.ys();
        let mut steps = Vec::with_capacity(ys.len());
        let mut prev = 0.0;
        for &y in &ys {
            steps.push(y - prev);
            prev = y;
        }
        steps
    }

    /// Mean cumulative growth on launches where the *account changed* vs
    /// launches repeating the previous account.
    ///
    /// # Panics
    ///
    /// Panics if `owners` is shorter than the cumulative series — the two
    /// are parallel per-launch vectors, and a hand-built result that
    /// violates that has no meaningful contrast to report.
    pub fn step_contrast(&self) -> (f64, f64) {
        let steps = self.steps();
        let mut new_acct = Vec::new();
        let mut same_acct = Vec::new();
        for (i, &step) in steps.iter().enumerate() {
            if i == 0 || self.owners[i] != self.owners[i - 1] {
                new_acct.push(step);
            } else {
                same_acct.push(step);
            }
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                // tidy:allow(float-determinism) -- reduces a Vec in slice order, which is fixed, so the mean is reproducible; reporting statistic, not world state
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        (mean(&new_acct), mean(&same_acct))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accounts_create_steps() {
        // Average over a few seeds: individual seeds can land two accounts
        // in the same scheduling cell (the paper's own bimodality).
        let mut contrasts = Vec::new();
        for seed in 41..44 {
            let result = Fig08Config::quick().run(seed);
            assert_eq!(result.owners.len(), 6);
            contrasts.push(result.step_contrast());
        }
        let new_mean: f64 = contrasts.iter().map(|c| c.0).sum::<f64>() / contrasts.len() as f64;
        let same_mean: f64 = contrasts.iter().map(|c| c.1).sum::<f64>() / contrasts.len() as f64;
        assert!(
            new_mean > 5.0 * same_mean.max(1.0),
            "step pattern absent: new {new_mean:.1} vs same {same_mean:.1}"
        );
    }

    #[test]
    fn steps_sum_to_cumulative_total() {
        let result = Fig08Config::quick().run(45);
        let total: f64 = result.steps().iter().sum();
        assert_eq!(total, *result.cumulative.ys().last().unwrap());
    }
}
