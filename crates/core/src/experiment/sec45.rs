//! Section 4.5 — Gen 2 fingerprint accuracy.
//!
//! In the Gen 2 environment, TSC offsetting hides the host boot time, but
//! the guest kernel's `tsc_khz` exposes the refined host frequency. The
//! resulting fingerprint is coarse — the paper measures FMI ≈ 0.66,
//! precision ≈ 0.48, and on average 2.0 hosts per fingerprint — but it can
//! never produce a false negative, because refinement happens once per
//! host boot.

use std::collections::BTreeMap;

use eaao_cloudsim::service::{Generation, ServiceSpec};
use eaao_orchestrator::world::World;
use eaao_simcore::stats::Summary;
use serde::{Deserialize, Serialize};

use crate::experiment::fig04::region_config;
use crate::experiment::PROBE_GAP;
use crate::fingerprint::Gen2Fingerprint;
use crate::metrics::PairConfusion;
use crate::probe::probe_fleet;

/// Configuration for the Section 4.5 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sec45Config {
    /// Regions to measure (averaged).
    pub regions: Vec<String>,
    /// Concurrent Gen 2 instances per run.
    pub instances: usize,
    /// Repetitions per region.
    pub repeats: usize,
}

impl Default for Sec45Config {
    fn default() -> Self {
        Sec45Config {
            regions: vec![
                "us-east1".to_owned(),
                "us-central1".to_owned(),
                "us-west1".to_owned(),
            ],
            instances: 800,
            repeats: 5,
        }
    }
}

impl Sec45Config {
    /// A scaled-down configuration for tests and benches.
    pub fn quick() -> Self {
        Sec45Config {
            regions: vec!["us-east1".to_owned()],
            instances: 800,
            repeats: 1,
        }
    }

    /// Runs the experiment.
    ///
    /// # Panics
    ///
    /// Panics if a launch fails.
    pub fn run(&self, seed: u64) -> Sec45Result {
        let mut fmis = Vec::new();
        let mut precisions = Vec::new();
        let mut recalls = Vec::new();
        let mut hosts_per_fp = Vec::new();
        let mut false_negatives_total = 0u64;
        for (r, region) in self.regions.iter().enumerate() {
            for repeat in 0..self.repeats {
                let run_seed = seed
                    .wrapping_add(r as u64 * 7_919)
                    .wrapping_add(repeat as u64);
                let mut world = World::new(region_config(region), run_seed);
                let account = world.create_account();
                let service = world.deploy_service(
                    account,
                    ServiceSpec::default()
                        .with_generation(Generation::Gen2)
                        .with_max_instances(1_000),
                );
                let launch = world.launch(service, self.instances).expect("within caps");
                let instances = launch.instances().to_vec();
                let readings = probe_fleet(&mut world, &instances, PROBE_GAP);

                let predicted: Vec<u64> = readings
                    .iter()
                    .map(|r| {
                        Gen2Fingerprint::from_reading(r)
                            .expect("gen2 exposes tsc_khz")
                            .refined()
                            .as_khz()
                    })
                    .collect();
                let truth: Vec<u32> = readings
                    .iter()
                    .map(|r| world.host_of(r.instance).as_raw())
                    .collect();
                let confusion = PairConfusion::from_assignments(&predicted, &truth);
                fmis.push(confusion.fmi());
                precisions.push(confusion.precision());
                recalls.push(confusion.recall());
                false_negatives_total += confusion.false_negatives;

                // Distinct hosts per fingerprint value.
                let mut hosts_by_fp: BTreeMap<u64, std::collections::BTreeSet<u32>> =
                    BTreeMap::new();
                for (fp, host) in predicted.iter().zip(&truth) {
                    hosts_by_fp.entry(*fp).or_default().insert(*host);
                }
                // tidy:allow(float-determinism) -- reduces BTreeMap::values() in key order, which is fixed; reporting statistic, not world state
                let mean_hosts = hosts_by_fp.values().map(|h| h.len() as f64).sum::<f64>()
                    / hosts_by_fp.len().max(1) as f64;
                hosts_per_fp.push(mean_hosts);
            }
        }
        Sec45Result {
            fmi: Summary::of(&fmis),
            precision: Summary::of(&precisions),
            recall: Summary::of(&recalls),
            hosts_per_fingerprint: Summary::of(&hosts_per_fp),
            false_negatives_total,
        }
    }
}

/// The Section 4.5 result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sec45Result {
    /// FMI across runs (paper: ≈ 0.66).
    pub fmi: Summary,
    /// Precision across runs (paper: ≈ 0.48).
    pub precision: Summary,
    /// Recall across runs (paper: 1.0 — no false negatives possible).
    pub recall: Summary,
    /// Hosts sharing one fingerprint, on average (paper: ≈ 2.0).
    pub hosts_per_fingerprint: Summary,
    /// Total false-negative pairs across all runs (must be zero).
    pub false_negatives_total: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen2_fingerprints_have_no_false_negatives() {
        let result = Sec45Config::quick().run(111);
        assert_eq!(result.false_negatives_total, 0);
        assert_eq!(result.recall.mean(), 1.0);
    }

    #[test]
    fn gen2_fingerprints_are_coarse() {
        let result = Sec45Config::quick().run(112);
        // Well below the near-perfect Gen 1 values.
        assert!(
            result.precision.mean() < 0.9,
            "precision {}",
            result.precision.mean()
        );
        assert!(result.fmi.mean() < 0.95, "fmi {}", result.fmi.mean());
        // Multiple hosts collide per fingerprint.
        assert!(
            result.hosts_per_fingerprint.mean() > 1.2,
            "hosts/fp {}",
            result.hosts_per_fingerprint.mean()
        );
    }
}
