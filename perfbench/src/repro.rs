//! `repro-paper`: the 18 experiments `repro all` runs at paper scale,
//! called serially in-process through their `*Config::run` drivers
//! (closed loop, one caller, no collector installed).
//!
//! * set-up: the same 18 drivers at their `quick()` scale, nine times
//!   (median), which pays code paging and allocator warm-up;
//! * `wall_s`: the sum of each experiment's median over the passes;
//!   `throughput_per_s`: experiments per second over all passes;
//!   latency: per full pass (the experiments differ too much in size
//!   for one distribution; each one's time is a per-layer metric);
//! * check: each experiment's serialized result against its pin.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use eaao_cloudsim::service::Generation;
use eaao_core::experiment::{
    fig04, fig05, fig06, fig07, fig08, fig09, fig10, fig11, fig12, opt52, other_factors, sec42,
    sec43, sec45, sec52, sec6,
};
use eaao_simcore::time::SimDuration;
use serde::Serialize;

use crate::digest::{fnv1a, hex};
use crate::layers::LayerInstrument;
use crate::report::{Outcome, EXPERIMENTS};
use crate::stats::median;
use crate::Args;

/// Full passes over the suite per measured second.
const PASSES_PER_SECOND: f64 = 0.5;

/// Quick-scale set-up passes (the median is reported).
const SETUP_PASSES: usize = 9;

fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("experiment result serializes")
}

/// Picks the paper-scale or quick configuration of a driver.
fn pick<C>(quick: bool, small: fn() -> C) -> C
where
    C: Default,
{
    if quick {
        small()
    } else {
        C::default()
    }
}

/// Runs one experiment exactly as `repro` does and returns its
/// serialized result(s).
pub fn run_experiment(name: &str, seed: u64, quick: bool) -> String {
    match name {
        "fig4" => json(&pick(quick, fig04::Fig04Config::quick).run(seed)),
        "fig5" => {
            let regions: &[&str] = if quick {
                &["us-west1"]
            } else {
                &["us-east1", "us-central1", "us-west1"]
            };
            let results: Vec<_> = regions
                .iter()
                .enumerate()
                .map(|(i, region)| {
                    let mut config = pick(quick, fig05::Fig05Config::quick);
                    config.region = (*region).to_owned();
                    config.run(seed.wrapping_add(i as u64 * 97))
                })
                .collect();
            json(&results)
        }
        "fig6" => json(&pick(quick, fig06::Fig06Config::quick).run(seed)),
        "fig7" => json(&pick(quick, fig07::Fig07Config::quick).run(seed)),
        "fig8" => json(&pick(quick, fig08::Fig08Config::quick).run(seed)),
        "fig9" => {
            let config = pick(quick, fig09::Fig09Config::quick);
            let result = config.run(seed);
            let mut fast = config.clone();
            fast.interval = SimDuration::from_mins(2);
            json(&(result, fast.run(seed.wrapping_add(1))))
        }
        "fig10" => json(&pick(quick, fig10::Fig10Config::quick).run(seed)),
        "fig11a" | "fig11b" | "gen2" => {
            let mut config = pick(quick, fig11::Fig11Config::quick);
            if name == "gen2" {
                config.generation = Generation::Gen2;
                if !quick {
                    config.victim_counts = vec![100];
                }
            } else {
                config.generation = Generation::Gen1;
            }
            if name == "fig11b" {
                json(&config.run_11b(seed))
            } else {
                json(&config.run_11a(seed))
            }
        }
        "fig12" => json(&pick(quick, fig12::Fig12Config::quick).run(seed)),
        "sec4.2" => json(&pick(quick, sec42::Sec42Config::quick).run(seed)),
        "sec4.3" => json(&pick(quick, sec43::Sec43Config::quick).run(seed)),
        "sec4.5" => json(&pick(quick, sec45::Sec45Config::quick).run(seed)),
        "strategy1" => json(&pick(quick, sec52::Sec52Config::quick).run(seed)),
        "sec6" => json(&pick(quick, sec6::Sec6Config::quick).run(seed)),
        "opt" => json(&pick(quick, opt52::Opt52Config::quick).run(seed)),
        "factors" => json(&pick(quick, other_factors::OtherFactorsConfig::quick).run(seed)),
        other => panic!("unknown experiment {other:?}"),
    }
}

/// One timed experiment: wall ms and result digest (`None` when the
/// driver panicked).
fn timed(name: &str, seed: u64, quick: bool) -> (f64, Option<String>) {
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| run_experiment(name, seed, quick)));
    let ms = started.elapsed().as_secs_f64() * 1e3;
    (ms, result.ok().map(|text| hex(fnv1a(text.as_bytes()))))
}

/// One pass over the suite, in paper order.
fn pass(seed: u64, quick: bool) -> Vec<(f64, Option<String>)> {
    EXPERIMENTS
        .iter()
        .map(|name| timed(name, seed, quick))
        .collect()
}

/// The pinned digests of one seed class: one per experiment.
pub fn pin(seed: u64) -> BTreeMap<String, String> {
    EXPERIMENTS
        .iter()
        .zip(pass(seed, false))
        .map(|(name, (_, digest))| ((*name).to_owned(), digest.expect("experiment runs")))
        .collect()
}

/// Checks a pass against the pins, tallying one operation per experiment.
fn check(out: &mut Outcome, class: u64, results: &[(f64, Option<String>)]) {
    let pins = crate::digest::pinned("repro-paper", class);
    for (name, (_, digest)) in EXPERIMENTS.iter().zip(results) {
        let ok = digest.is_some() && digest.as_ref() == pins.get(*name);
        if !ok {
            eprintln!(
                "perfbench: repro-paper {name}: digest {digest:?} != pinned {:?}",
                pins.get(*name)
            );
        }
        out.tally(1, u64::from(!ok));
    }
}

fn total_s(results: &[(f64, Option<String>)]) -> f64 {
    results.iter().map(|(ms, _)| ms).sum::<f64>() / 1e3
}

/// Runs the workload.
pub fn run(args: &Args, out: &mut Outcome) {
    let (class, seed) = crate::digest::input_seed(args.seed);
    let setup: Vec<f64> = (0..SETUP_PASSES)
        .map(|_| total_s(&pass(seed, true)))
        .collect();
    out.set(
        "setup_s",
        median(&setup),
        format!("median of {SETUP_PASSES} quick-scale passes"),
    );

    if args.trace {
        return traced(out, class, seed);
    }
    let passes = ((args.seconds as f64 * PASSES_PER_SECOND).round() as usize).max(1);
    let mut per_experiment = vec![Vec::new(); EXPERIMENTS.len()];
    let mut pass_ms = Vec::new();
    for i in 0..passes {
        let results = pass(seed, false);
        check(out, class, &results);
        pass_ms.push(total_s(&results) * 1e3);
        eprintln!("repro-paper pass {i}: {:.1} ms", pass_ms[i]);
        for (samples, (ms, _)) in per_experiment.iter_mut().zip(&results) {
            samples.push(*ms);
        }
    }
    let wall_ms: f64 = per_experiment.iter().map(|samples| median(samples)).sum();
    out.set(
        "wall_s",
        wall_ms / 1e3,
        format!("sum of per-experiment medians over {passes} full passes"),
    );
    out.set(
        "throughput_per_s",
        (EXPERIMENTS.len() * passes) as f64 * 1e3 / pass_ms.iter().sum::<f64>(),
        format!("experiments/s over {passes} passes"),
    );
    out.set_latency(&pass_ms, "full passes");
}

/// The traced run: a pass under the benchmark's span aggregator (the
/// per-layer numbers), and each experiment run untraced and then under
/// the program's raw-event `Collector` (what `repro --trace` pays). The
/// pairs run back to back so machine drift stays out of the overhead.
fn traced(out: &mut Outcome, class: u64, seed: u64) {
    let instrument = LayerInstrument::new();
    let layered = eaao_obs::with_instrument(instrument.clone(), || pass(seed, false));
    check(out, class, &layered);
    crate::layers::set_program_layers(
        out,
        |name| instrument.span(name),
        |name| instrument.counter(name),
    );
    out.spans = Some(instrument.spans_value());

    let collector = eaao_obs::Collector::with_events();
    let (mut untraced, mut collected, mut events) = (Vec::new(), Vec::new(), 0);
    for name in EXPERIMENTS {
        untraced.push(timed(name, seed, false));
        collected.push(eaao_obs::with_instrument(collector.clone(), || {
            timed(name, seed, false)
        }));
        events += collector.drain_events().len();
    }
    check(out, class, &untraced);
    check(out, class, &collected);
    for (name, (ms, _)) in EXPERIMENTS.iter().zip(&untraced) {
        out.set(&format!("core.experiment_ms.{name}"), *ms, "untraced run");
    }
    let base = total_s(&untraced);
    out.set(
        "obs.trace_overhead_pct",
        (total_s(&collected) - base) / base * 100.0,
        "raw-event Collector vs untraced, paired per experiment",
    );
    out.set(
        "obs.trace_events",
        events as f64,
        "events the Collector buffered",
    );
}
