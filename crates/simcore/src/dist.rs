//! Probability distributions used by the simulation.
//!
//! The noise and heterogeneity models of the reproduction (TSC frequency
//! error, syscall-clock jitter, host popularity, uptime spread) need a small
//! set of continuous and discrete distributions. They are implemented here on
//! top of [`SimRng`] so every draw stays deterministic under a fixed seed.

use serde::{Deserialize, Serialize};

use crate::rng::SimRng;

/// A continuous distribution that can be sampled from a [`SimRng`].
pub trait Sample {
    /// Draws one value.
    fn sample(&self, rng: &mut SimRng) -> f64;
}

/// Normal (Gaussian) distribution, sampled via Box–Muller.
///
/// # Examples
///
/// ```
/// use eaao_simcore::dist::{Normal, Sample};
/// use eaao_simcore::rng::SimRng;
///
/// let jitter = Normal::new(0.0, 2.5e-9);
/// let mut rng = SimRng::seed_from(1);
/// let x = jitter.sample(&mut rng);
/// assert!(x.abs() < 1e-7); // within 40 sigma, trivially
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is non-finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            mean.is_finite() && std_dev.is_finite(),
            "non-finite parameter"
        );
        assert!(std_dev >= 0.0, "negative standard deviation");
        Normal { mean, std_dev }
    }

    /// The mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }
}

impl Sample for Normal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Box–Muller; discard the second variate for simplicity.
        let u1 = loop {
            let u = rng.unit_f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = rng.unit_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.mean + self.std_dev * z
    }
}

/// Log-normal distribution: `exp(N(mu, sigma))`.
///
/// Parameterized by the underlying normal, so `median = exp(mu)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogNormal {
    inner: Normal,
}

impl LogNormal {
    /// Creates a log-normal from the underlying normal parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        LogNormal {
            inner: Normal::new(mu, sigma),
        }
    }

    /// Creates a log-normal with a given median (`exp(mu)`) and shape sigma.
    ///
    /// # Panics
    ///
    /// Panics if `median` is not positive or `sigma` is negative.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive");
        LogNormal::new(median.ln(), sigma)
    }

    /// The distribution median.
    pub fn median(&self) -> f64 {
        self.inner.mean().exp()
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.inner.sample(rng).exp()
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive and finite.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda.is_finite() && lambda > 0.0, "rate must be positive");
        Exponential { lambda }
    }

    /// Creates an exponential distribution with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn from_mean(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        Exponential::new(1.0 / mean)
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        1.0 / self.lambda
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = loop {
            let u = rng.unit_f64();
            if u > 0.0 {
                break u;
            }
        };
        -u.ln() / self.lambda
    }
}

/// Zipf-like power-law weights over `n` ranked items.
///
/// Used to model host "popularity": how strongly the orchestrator's scoring
/// concentrates load onto a subset of hosts. Rank `k` (0-based) receives
/// weight `1 / (k + 1)^s`. The weights are precomputed and sampled by
/// cumulative inversion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Zipf {
    cumulative: Vec<f64>,
    exponent: f64,
}

impl Zipf {
    /// Creates Zipf weights over `n` items with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "need at least one item");
        assert!(s.is_finite() && s >= 0.0, "exponent must be non-negative");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += Zipf::weight_of(k, s);
            cumulative.push(total);
        }
        Zipf {
            cumulative,
            exponent: s,
        }
    }

    /// The (unnormalized) weight of rank `k` under exponent `s`, as a pure
    /// closed form — `1 / (k + 1)^s`.
    ///
    /// This is the formula [`Zipf::weight`] evaluates; it is exposed
    /// standalone so lazily materialized populations can compute a single
    /// rank's weight bit-identically without building the O(n) cumulative
    /// table.
    pub fn weight_of(k: usize, s: f64) -> f64 {
        1.0 / ((k + 1) as f64).powf(s)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the distribution is over zero items (never true by
    /// construction, provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// The exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// The (unnormalized) weight of rank `k`.
    pub fn weight(&self, k: usize) -> f64 {
        Zipf::weight_of(k, self.exponent)
    }

    /// Draws a rank in `[0, n)` proportionally to the weights.
    pub fn sample_index(&self, rng: &mut SimRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty by construction");
        let target = rng.unit_f64() * total;
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&target).expect("weights are finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

/// Samples `k` distinct indices from `weights`, with probability
/// proportional to weight, without replacement (Efraimidis–Spirakis
/// exponential-key method).
///
/// Zero-weight items are never selected. If fewer than `k` items have
/// positive weight, all of them are returned.
///
/// # Panics
///
/// Panics if any weight is negative or non-finite.
///
/// # Examples
///
/// ```
/// use eaao_simcore::dist::weighted_sample_indices;
/// use eaao_simcore::rng::SimRng;
///
/// let mut rng = SimRng::seed_from(1);
/// let picks = weighted_sample_indices(&[1.0, 100.0, 1.0], 2, &mut rng);
/// assert_eq!(picks.len(), 2);
/// assert!(picks.contains(&1)); // the heavy item is all but certain
/// ```
pub fn weighted_sample_indices(weights: &[f64], k: usize, rng: &mut SimRng) -> Vec<usize> {
    let mut keyed: Vec<(f64, usize)> = weights
        .iter()
        .enumerate()
        .filter_map(|(i, &w)| {
            assert!(w.is_finite() && w >= 0.0, "weights must be non-negative");
            // tidy:allow(float-determinism) -- exact-zero sentinel: 0.0 is representable exactly and marks an excluded weight, never the result of accumulation
            if w == 0.0 {
                return None;
            }
            // key = -ln(u)/w; smallest keys win.
            let u = loop {
                let u = rng.unit_f64();
                if u > 0.0 {
                    break u;
                }
            };
            Some((-u.ln() / w, i))
        })
        .collect();
    let take = k.min(keyed.len());
    if take == 0 {
        return Vec::new();
    }
    if take < keyed.len() {
        keyed.select_nth_unstable_by(take - 1, |a, b| a.0.partial_cmp(&b.0).expect("finite keys"));
        keyed.truncate(take);
    }
    keyed.into_iter().map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    fn draws<D: Sample>(d: &D, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SimRng::seed_from(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn normal_moments() {
        let xs = draws(&Normal::new(5.0, 2.0), 50_000, 11);
        let s = Summary::of(&xs);
        assert!((s.mean() - 5.0).abs() < 0.05, "mean {}", s.mean());
        assert!((s.std_dev() - 2.0).abs() < 0.05, "std {}", s.std_dev());
    }

    #[test]
    fn normal_zero_std_is_constant() {
        let xs = draws(&Normal::new(3.0, 0.0), 10, 12);
        assert!(xs.iter().all(|&x| x == 3.0));
    }

    #[test]
    #[should_panic(expected = "negative standard deviation")]
    fn normal_rejects_negative_std() {
        Normal::new(0.0, -1.0);
    }

    #[test]
    fn lognormal_median() {
        let d = LogNormal::from_median(4_000.0, 1.0);
        assert!((d.median() - 4_000.0).abs() < 1e-9);
        let mut xs = draws(&d, 50_001, 13);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((median / 4_000.0 - 1.0).abs() < 0.05, "median {median}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::from_mean(7.0);
        assert!((d.mean() - 7.0).abs() < 1e-12);
        let xs = draws(&d, 50_000, 14);
        let s = Summary::of(&xs);
        assert!((s.mean() - 7.0).abs() < 0.15, "mean {}", s.mean());
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(100, 1.0);
        assert_eq!(z.len(), 100);
        assert!(!z.is_empty());
        assert!(z.weight(0) > z.weight(50));
        let mut rng = SimRng::seed_from(15);
        let mut counts = vec![0usize; 100];
        for _ in 0..100_000 {
            counts[z.sample_index(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = SimRng::seed_from(16);
        let mut counts = vec![0usize; 10];
        for _ in 0..100_000 {
            counts[z.sample_index(&mut rng)] += 1;
        }
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / min < 1.15, "uniformity violated: {counts:?}");
    }

    #[test]
    #[should_panic(expected = "need at least one item")]
    fn zipf_rejects_empty() {
        Zipf::new(0, 1.0);
    }

    #[test]
    fn weighted_sample_returns_distinct_indices() {
        let mut rng = SimRng::seed_from(20);
        let weights = vec![1.0; 50];
        let picks = weighted_sample_indices(&weights, 10, &mut rng);
        assert_eq!(picks.len(), 10);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "duplicates in {picks:?}");
        assert!(picks.iter().all(|&i| i < 50));
    }

    #[test]
    fn weighted_sample_prefers_heavy_items() {
        let mut rng = SimRng::seed_from(21);
        let mut weights = vec![1.0; 100];
        weights[7] = 500.0;
        let mut hits = 0;
        for _ in 0..200 {
            if weighted_sample_indices(&weights, 5, &mut rng).contains(&7) {
                hits += 1;
            }
        }
        assert!(hits > 190, "heavy item picked only {hits}/200 times");
    }

    #[test]
    fn weighted_sample_skips_zero_weights() {
        let mut rng = SimRng::seed_from(22);
        let weights = [0.0, 1.0, 0.0, 1.0];
        for _ in 0..50 {
            let picks = weighted_sample_indices(&weights, 4, &mut rng);
            assert_eq!(picks.len(), 2);
            assert!(picks.iter().all(|&i| i == 1 || i == 3));
        }
    }

    #[test]
    fn weighted_sample_handles_oversized_k() {
        let mut rng = SimRng::seed_from(23);
        let picks = weighted_sample_indices(&[1.0, 2.0], 10, &mut rng);
        assert_eq!(picks.len(), 2);
    }

    #[test]
    fn weighted_sample_of_empty_is_empty() {
        let mut rng = SimRng::seed_from(24);
        assert!(weighted_sample_indices(&[], 3, &mut rng).is_empty());
        assert!(weighted_sample_indices(&[1.0], 0, &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "weights must be non-negative")]
    fn weighted_sample_rejects_negative() {
        let mut rng = SimRng::seed_from(25);
        weighted_sample_indices(&[-1.0], 1, &mut rng);
    }
}
