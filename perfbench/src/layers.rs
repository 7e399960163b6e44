//! The traced run's span aggregation.
//!
//! [`LayerInstrument`] is an [`Instrument`] that keeps, per span name,
//! the count, total time, self time (duration minus the time its direct
//! children cover) and every duration for percentiles. It never buffers
//! the raw event stream. [`SpanTable`] is the same aggregation fed from a
//! campaign trace file, whose events arrive run by run.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use eaao_obs::{Event, EventKind, Instrument, MetricsRegistry};
use parking_lot::Mutex;
use serde::Value;

use crate::report::Outcome;
use crate::stats::nearest_rank;

/// Aggregate of every span of one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanStats {
    /// Spans closed.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
    /// Every duration, ns, for percentiles.
    pub durations_ns: Vec<u64>,
}

impl SpanStats {
    /// Nearest-rank percentile of the durations, ms (0 with no spans).
    pub fn ms_at(&self, pct: f64) -> f64 {
        if self.durations_ns.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<f64> = self
            .durations_ns
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        sorted.sort_by(f64::total_cmp);
        nearest_rank(&sorted, pct)
    }

    /// Total duration, seconds.
    pub fn busy_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Total self time, seconds.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }
}

/// Per-name span aggregates with self-time bookkeeping.
///
/// Span ids are unique only within one event stream (one instrument
/// scope on one thread, or one campaign run), so every call names the
/// stream its event belongs to.
#[derive(Debug, Default)]
pub struct SpanTable {
    by_name: BTreeMap<String, SpanStats>,
    /// Time already covered by closed children of a still-open span.
    child_ns: HashMap<(u64, u64), u64>,
}

impl SpanTable {
    /// Folds one event of `stream` in; only `span_end` events count.
    pub fn add(&mut self, stream: u64, event: &Event) {
        if event.kind != EventKind::SpanEnd {
            return;
        }
        let (Some(id), Some(dur)) = (event.span, event.dur_ns) else {
            return;
        };
        let children = self.child_ns.remove(&(stream, id)).unwrap_or(0);
        if let Some(parent) = event.parent {
            *self.child_ns.entry((stream, parent)).or_default() += dur;
        }
        let stats = self.by_name.entry(event.name.clone()).or_default();
        stats.count += 1;
        stats.total_ns += dur;
        stats.self_ns += dur.saturating_sub(children);
        stats.durations_ns.push(dur);
    }

    /// The aggregate for `name` (empty when no such span closed).
    pub fn get(&self, name: &str) -> SpanStats {
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// The per-name table as JSON, for the per-layer report file.
    pub fn to_value(&self) -> Value {
        Value::Object(
            self.by_name
                .iter()
                .map(|(name, s)| {
                    let row = Value::Object(vec![
                        ("count".to_owned(), Value::U64(s.count)),
                        ("busy_s".to_owned(), Value::F64(s.busy_s())),
                        ("self_s".to_owned(), Value::F64(s.self_s())),
                        ("p50_ms".to_owned(), Value::F64(s.ms_at(50.0))),
                        ("p99_ms".to_owned(), Value::F64(s.ms_at(99.0))),
                    ]);
                    (name.clone(), row)
                })
                .collect(),
        )
    }
}

static NEXT_STREAM: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static STREAM: Cell<u64> = const { Cell::new(0) };
}

/// This thread's stream id: span ids restart in every thread's scope.
fn thread_stream() -> u64 {
    STREAM.with(|stream| {
        if stream.get() == 0 {
            stream.set(NEXT_STREAM.fetch_add(1, Ordering::Relaxed));
        }
        stream.get()
    })
}

/// The benchmark's [`Instrument`]: spans go to a [`SpanTable`], metrics
/// to a registry read back after the run.
pub struct LayerInstrument {
    clock: Instant,
    metrics: MetricsRegistry,
    table: Mutex<SpanTable>,
}

impl std::fmt::Debug for LayerInstrument {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayerInstrument").finish_non_exhaustive()
    }
}

impl LayerInstrument {
    /// A fresh instrument.
    pub fn new() -> Arc<LayerInstrument> {
        Arc::new(LayerInstrument {
            clock: Instant::now(),
            metrics: MetricsRegistry::new(),
            table: Mutex::new(SpanTable::default()),
        })
    }

    /// The aggregate for span `name`.
    pub fn span(&self, name: &str) -> SpanStats {
        self.table.lock().get(name)
    }

    /// The value of counter `name` (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter(name).get()
    }

    /// The span table as JSON.
    pub fn spans_value(&self) -> Value {
        self.table.lock().to_value()
    }
}

impl Instrument for LayerInstrument {
    fn wants_events(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        if event.kind == EventKind::SpanEnd {
            self.table.lock().add(thread_stream(), &event);
        }
    }

    fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.clock.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Sets every layer metric the program's own spans and counters give,
/// from a span lookup and a counter lookup.
pub fn set_program_layers(
    out: &mut Outcome,
    span: impl Fn(&str) -> SpanStats,
    counter: impl Fn(&str) -> u64,
) {
    let launch = span("world.launch");
    if launch.count > 0 {
        out.set(
            "orchestrator.launch_ms_p50",
            launch.ms_at(50.0),
            "world.launch spans",
        );
        out.set(
            "orchestrator.launch_ms_p99",
            launch.ms_at(99.0),
            "world.launch spans",
        );
        out.set(
            "orchestrator.launch_busy_s",
            launch.busy_s(),
            "world.launch spans",
        );
    }
    let build = span("world.build");
    if build.count > 0 {
        out.set(
            "orchestrator.build_ms",
            build.ms_at(50.0),
            "p50 of world.build spans",
        );
    }
    let generate = span("cloudsim.datacenter.generate");
    if generate.count > 0 {
        out.set(
            "cloudsim.datacenter_generate_ms",
            generate.ms_at(50.0),
            "p50 of cloudsim.datacenter.generate spans",
        );
    }
    let created = counter("orchestrator.instances_created");
    let reused = counter("orchestrator.instances_reused");
    let counted = "orchestrator counters";
    out.set(
        "orchestrator.launches",
        counter("orchestrator.launches") as f64,
        counted,
    );
    out.set("orchestrator.instances_created", created as f64, counted);
    out.set("orchestrator.instances_reused", reused as f64, counted);
    if created + reused > 0 {
        out.set(
            "orchestrator.reuse_share",
            reused as f64 / (created + reused) as f64,
            "reused / placed instances",
        );
    }
    out.set(
        "simcore.events_processed",
        counter("world.events_processed") as f64,
        "world.events_processed counter",
    );
    for (metric, name) in [
        ("core.ctest", "world.ctest"),
        ("core.lockcheck", "world.lockcheck"),
    ] {
        let stats = span(name);
        let note = format!("{name} spans");
        out.set(&format!("{metric}_count"), stats.count as f64, note.clone());
        out.set(&format!("{metric}_busy_s"), stats.busy_s(), note);
    }
    out.set(
        "core.strategy_optimized_self_s",
        span("strategy.optimized").self_s(),
        "strategy.optimized minus its child spans",
    );
    for (metric, name) in [
        ("core.probe_fleet_busy_s", "probe.fleet"),
        ("core.verify_hierarchical_busy_s", "verify.hierarchical"),
    ] {
        out.set(metric, span(name).busy_s(), format!("{name} spans"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end(name: &str, id: u64, parent: Option<u64>, dur: u64) -> Event {
        let mut event = Event::new(EventKind::SpanEnd, name, 0);
        event.span = Some(id);
        event.parent = parent;
        event.dur_ns = Some(dur);
        event
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // outer(100) > [mid(40) > leaf(25)], [leaf(20)]
        let mut table = SpanTable::default();
        table.add(1, &end("leaf", 3, Some(2), 25));
        table.add(1, &end("mid", 2, Some(1), 40));
        table.add(1, &end("leaf", 4, Some(1), 20));
        table.add(1, &end("outer", 1, None, 100));
        let outer = table.get("outer");
        assert_eq!((outer.total_ns, outer.self_ns), (100, 40));
        let mid = table.get("mid");
        assert_eq!((mid.total_ns, mid.self_ns), (40, 15));
        let leaf = table.get("leaf");
        assert_eq!((leaf.count, leaf.total_ns, leaf.self_ns), (2, 45, 45));
        assert!(table.child_ns.is_empty(), "closed spans leave no state");
    }

    #[test]
    fn streams_with_colliding_span_ids_stay_apart() {
        let mut table = SpanTable::default();
        table.add(1, &end("child", 2, Some(1), 30));
        table.add(2, &end("child", 2, Some(1), 5));
        table.add(2, &end("root", 1, None, 10));
        table.add(1, &end("root", 1, None, 50));
        let root = table.get("root");
        assert_eq!((root.total_ns, root.self_ns), (60, 25));
    }

    #[test]
    fn the_instrument_aggregates_live_spans() {
        let instrument = LayerInstrument::new();
        eaao_obs::with_instrument(instrument.clone(), || {
            let _outer = eaao_obs::span("outer");
            drop(eaao_obs::span("inner"));
            eaao_obs::count("things", 2);
        });
        assert_eq!(instrument.span("outer").count, 1);
        assert_eq!(instrument.span("inner").count, 1);
        let outer = instrument.span("outer");
        assert!(outer.self_ns <= outer.total_ns);
        assert_eq!(instrument.counter("things"), 2);
        assert_eq!(instrument.span("absent"), SpanStats::default());
    }
}
