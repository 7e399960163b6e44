//! Boot-time derivation from TSC readings (Eq. 4.1) and the drift law
//! (Eq. 4.2).
//!
//! The Gen 1 fingerprint derives a host's boot time as
//!
//! ```text
//! T_boot = T_w − tsc / f          (Eq. 4.1)
//! ```
//!
//! where `tsc` is a raw counter read, `T_w` the paired wall-clock time, and
//! `f` the frequency used for conversion. When `f` is the *reported*
//! frequency `f_r = f* + ε`, the derived boot time drifts linearly in the
//! measurement time:
//!
//! ```text
//! ΔT_boot = ΔT_w · ε / f_r        (Eq. 4.2)
//! ```
//!
//! so fingerprints eventually cross a rounding boundary and "expire".

use eaao_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::freq::TscFrequency;

/// A paired measurement: a raw TSC read and the wall-clock time at which it
/// was taken (as observed through the sandboxed syscall clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TscSample {
    /// The raw counter value (`rdtsc`).
    pub tsc: u64,
    /// The paired wall-clock reading `T_w`.
    pub wall: SimTime,
}

impl TscSample {
    /// Creates a sample.
    pub fn new(tsc: u64, wall: SimTime) -> Self {
        TscSample { tsc, wall }
    }

    /// Derives the host boot time using frequency `f` (Eq. 4.1).
    ///
    /// # Examples
    ///
    /// ```
    /// use eaao_simcore::time::SimTime;
    /// use eaao_tsc::boot::TscSample;
    /// use eaao_tsc::freq::TscFrequency;
    ///
    /// // 20 G ticks at 2 GHz = 10 s of uptime; measured at t = 110 s.
    /// let sample = TscSample::new(20_000_000_000, SimTime::from_secs(110));
    /// let boot = sample.derive_boot_time(TscFrequency::from_ghz(2.0));
    /// assert_eq!(boot, SimTime::from_secs(100));
    /// ```
    pub fn derive_boot_time(self, f: TscFrequency) -> SimTime {
        let uptime_s = self.tsc as f64 / f.as_hz();
        self.wall - SimDuration::from_secs_f64(uptime_s)
    }

    /// Derives the boot time and rounds it to `precision` (the paper's
    /// `p_boot`).
    ///
    /// # Panics
    ///
    /// Panics if `precision` is not positive.
    pub fn derive_rounded_boot_time(self, f: TscFrequency, precision: SimDuration) -> SimTime {
        self.derive_boot_time(f).round_to(precision)
    }
}

/// The drift rate of the derived boot time, in seconds of drift per second
/// of elapsed wall time: `ε / f_r` with the paper's convention
/// `f_r = f* + ε`, i.e. `ε = f_r − f*` (Eq. 4.2).
///
/// Positive when the reported frequency overestimates the actual one (the
/// derived boot time then moves later over time).
pub fn drift_rate(actual: TscFrequency, reported: TscFrequency) -> f64 {
    reported.error_versus(actual) / reported.as_hz()
}

/// Predicted change in the derived boot time after `elapsed` wall time
/// (Eq. 4.2).
pub fn predicted_drift(
    actual: TscFrequency,
    reported: TscFrequency,
    elapsed: SimDuration,
) -> SimDuration {
    SimDuration::from_secs_f64(drift_rate(actual, reported) * elapsed.as_secs_f64())
}

/// Time until a boot-time fingerprint derived at `derived` crosses the next
/// rounding boundary, given a drift `rate` (s/s) and rounding `precision`.
///
/// Returns `None` when the rate is (numerically) zero — the fingerprint
/// never expires.
///
/// # Panics
///
/// Panics if `precision` is not positive.
pub fn time_to_expiration(
    derived: SimTime,
    rate: f64,
    precision: SimDuration,
) -> Option<SimDuration> {
    assert!(precision.as_nanos() > 0, "precision must be positive");
    // tidy:allow(float-determinism) -- exact-zero and non-finite input guard before dividing; 0.0 is representable exactly and means no drift
    if rate == 0.0 || !rate.is_finite() {
        return None;
    }
    let p = precision.as_nanos() as f64;
    let rounded = derived.round_to(precision);
    // Signed distance (ns) from the derived value to the boundary it will
    // cross while drifting in the direction of `rate`.
    let offset_ns = (derived.as_nanos() - rounded.as_nanos()) as f64;
    let distance_ns = if rate > 0.0 {
        p / 2.0 - offset_ns
    } else {
        p / 2.0 + offset_ns
    };
    let seconds = (distance_ns / 1e9) / rate.abs();
    Some(SimDuration::from_secs_f64(seconds.max(0.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq41_exact_with_true_frequency() {
        let f = TscFrequency::from_ghz(2.2);
        let boot = SimTime::from_secs(1_000);
        let now = SimTime::from_secs(5_000);
        let tsc = f.ticks_over(4_000.0).round() as u64;
        let sample = TscSample::new(tsc, now);
        let derived = sample.derive_boot_time(f);
        assert!((derived - boot).abs().as_secs_f64() < 1e-6);
    }

    #[test]
    fn rounded_derivation_collapses_noise() {
        let f = TscFrequency::from_ghz(2.0);
        let p = SimDuration::from_secs(1);
        let a = TscSample::new(20_000_000_000, SimTime::from_secs_f64(110.2));
        let b = TscSample::new(20_000_000_000, SimTime::from_secs_f64(110.4));
        assert_eq!(
            a.derive_rounded_boot_time(f, p),
            b.derive_rounded_boot_time(f, p)
        );
    }

    #[test]
    fn drift_matches_eq42() {
        // Actual 5 kHz above reported → ε = f_r − f* = −5 kHz at 2 GHz,
        // rate −2.5e-6 s/s: the derived boot time moves earlier over time.
        let reported = TscFrequency::from_ghz(2.0);
        let actual = reported.offset_by_hz(5_000.0);
        let rate = drift_rate(actual, reported);
        assert!((rate + 2.5e-6).abs() < 1e-12);
        let drift = predicted_drift(actual, reported, SimDuration::from_days(1));
        assert!((drift.as_secs_f64() + 0.216).abs() < 1e-3);
    }

    #[test]
    fn empirical_drift_equals_predicted() {
        // Derive boot times at two instants and compare with Eq. 4.2.
        let reported = TscFrequency::from_ghz(2.0);
        let actual = reported.offset_by_hz(-8_000.0);
        let boot = SimTime::ZERO;
        let measure = |at: SimTime| {
            let tsc = actual
                .ticks_over(at.duration_since(boot).as_secs_f64())
                .round() as u64;
            TscSample::new(tsc, at).derive_boot_time(reported)
        };
        let t1 = SimTime::from_hours(1);
        let t2 = SimTime::from_secs(86_400); // +23 h
        let observed = measure(t2) - measure(t1);
        let predicted = predicted_drift(actual, reported, t2 - t1);
        assert!(
            (observed.as_secs_f64() - predicted.as_secs_f64()).abs() < 1e-3,
            "observed {observed}, predicted {predicted}"
        );
    }

    #[test]
    fn expiration_scales_inversely_with_rate() {
        let derived = SimTime::from_secs(100); // exactly on a bucket center
        let p = SimDuration::from_secs(1);
        let slow = time_to_expiration(derived, 1e-6, p).unwrap();
        let fast = time_to_expiration(derived, 2e-6, p).unwrap();
        assert!((slow.as_secs_f64() / fast.as_secs_f64() - 2.0).abs() < 1e-9);
        // Centered value with rate 1e-6 takes 0.5 s / 1e-6 = 5.79 days.
        assert!((slow.as_days_f64() - 5.787).abs() < 0.01);
    }

    #[test]
    fn expiration_accounts_for_phase() {
        let p = SimDuration::from_secs(1);
        // 0.4 s past the bucket center, drifting up: only 0.1 s to go.
        let derived = SimTime::from_secs_f64(100.4);
        let t = time_to_expiration(derived, 1e-6, p).unwrap();
        assert!((t.as_secs_f64() - 0.1e6).abs() < 1.0);
        // Same phase, drifting down: 0.9 s to go.
        let t = time_to_expiration(derived, -1e-6, p).unwrap();
        assert!((t.as_secs_f64() - 0.9e6).abs() < 1.0);
    }

    #[test]
    fn zero_rate_never_expires() {
        assert!(time_to_expiration(SimTime::ZERO, 0.0, SimDuration::from_secs(1)).is_none());
        assert!(time_to_expiration(SimTime::ZERO, f64::NAN, SimDuration::from_secs(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "precision must be positive")]
    fn expiration_rejects_bad_precision() {
        time_to_expiration(SimTime::ZERO, 1e-6, SimDuration::ZERO);
    }
}
