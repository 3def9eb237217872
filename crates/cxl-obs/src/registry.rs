//! The metrics registry: named counters, maxima, gauges, histograms.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use cxl_stats::Histogram;
use serde::Value;

use crate::shard::{self, Shard};

/// Determinism class of a metric.
///
/// [`Class::Sim`] values are functions of simulated time and simulated
/// state: across runs of the same cells — at any worker count — the
/// aggregated value is bit-identical, because every mutation (counter
/// add, bucket increment, max) is commutative. [`Class::Wall`] values
/// depend on the wall clock or thread scheduling and are excluded from
/// determinism comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Deterministic in simulated time; safe to diff across `--jobs`.
    Sim,
    /// Wall-clock or scheduling dependent.
    Wall,
}

/// Current value of one metric (see [`Registry::metrics`]).
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Monotonically increasing count.
    Counter(u64),
    /// High-water mark.
    Max(u64),
    /// Last-written value.
    Gauge(f64),
    /// Distribution of `u64` samples.
    Histogram(Histogram),
}

impl MetricValue {
    fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Max(_) => "max",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }

    /// Folds a same-shaped `other` into `self`: counters add, maxima
    /// and histograms merge, gauges take the newer value.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ (an instrumentation bug).
    fn fold(&mut self, name: &str, other: MetricValue) {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
            (MetricValue::Max(a), MetricValue::Max(b)) => *a = (*a).max(b),
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = b,
            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(&b),
            (a, b) => panic!(
                "metric {name:?} is a {}, not a {}",
                a.type_name(),
                b.type_name()
            ),
        }
    }
}

#[derive(Debug, Clone)]
struct Metric {
    class: Class,
    value: MetricValue,
}

type Metrics = BTreeMap<String, Metric>;

/// A thread-safe collection of named metrics.
///
/// Names are free-form `/`-separated paths (`tier/promotions`,
/// `kv/access_ns/cxl`). The first write fixes a name's shape and
/// [`Class`]; a later write of a different shape panics (instrumentation
/// bug), while class is required to match only in debug builds.
///
/// Instrumented code records through handles ([`crate::Counter`], …),
/// which land in per-thread shards; every read merges the calling
/// thread's pending shards for this registry first. The named write
/// methods below go straight to the map and are meant for tests and
/// bulk loads.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<Metrics>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Metrics> {
        self.metrics.lock().expect("metrics registry poisoned")
    }

    /// Locks for reading, after merging this thread's pending records.
    fn read(&self) -> MutexGuard<'_, Metrics> {
        shard::flush_into(self);
        self.lock()
    }

    /// Writes `value` into `name`: the first write stores it (which
    /// equals folding it into a zero of its shape), later ones fold.
    fn write(m: &mut Metrics, class: Class, name: &str, value: MetricValue) {
        match m.get_mut(name) {
            Some(entry) => {
                debug_assert!(
                    entry.class == class,
                    "metric {name:?} re-registered with a different determinism class"
                );
                entry.value.fold(name, value);
            }
            None => {
                m.insert(name.to_string(), Metric { class, value });
            }
        }
    }

    /// Merges a thread's shard (one lock for every slot it wrote).
    ///
    /// Runs from `Drop` paths (scope guards, thread exit), so it takes
    /// a poisoned lock rather than panicking: `write` checks the shape
    /// before it mutates, so a panic never leaves the map half-updated.
    pub(crate) fn absorb(&self, shard: &mut Shard) {
        let mut m = self
            .metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (name, class, value) in shard.drain() {
            Self::write(&mut m, class, name, value);
        }
    }

    /// Adds `n` to the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a non-counter metric.
    pub fn counter_add(&self, class: Class, name: &str, n: u64) {
        Self::write(&mut self.lock(), class, name, MetricValue::Counter(n));
    }

    /// Raises the high-water mark `name` to at least `v`.
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a non-max metric.
    pub fn counter_max(&self, class: Class, name: &str, v: u64) {
        Self::write(&mut self.lock(), class, name, MetricValue::Max(v));
    }

    /// Sets the gauge `name` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a non-gauge metric.
    pub fn gauge_set(&self, class: Class, name: &str, v: f64) {
        Self::write(&mut self.lock(), class, name, MetricValue::Gauge(v));
    }

    /// Records one sample into the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a non-histogram metric.
    pub fn record(&self, class: Class, name: &str, value: u64) {
        let mut one = Histogram::new();
        one.record(value);
        Self::write(&mut self.lock(), class, name, MetricValue::Histogram(one));
    }

    /// Merges `samples` into the histogram `name` (worker-side
    /// aggregation: bucket counts add, so merge order cannot matter).
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a non-histogram metric.
    pub fn record_histogram(&self, class: Class, name: &str, samples: &Histogram) {
        Self::write(
            &mut self.lock(),
            class,
            name,
            MetricValue::Histogram(samples.clone()),
        );
    }

    /// Value of the counter `name` (`None` when absent or another shape).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.read().get(name) {
            Some(Metric {
                value: MetricValue::Counter(c),
                ..
            }) => Some(*c),
            _ => None,
        }
    }

    /// Value of the high-water mark `name`.
    pub fn max(&self, name: &str) -> Option<u64> {
        match self.read().get(name) {
            Some(Metric {
                value: MetricValue::Max(m),
                ..
            }) => Some(*m),
            _ => None,
        }
    }

    /// Value of the gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.read().get(name) {
            Some(Metric {
                value: MetricValue::Gauge(g),
                ..
            }) => Some(*g),
            _ => None,
        }
    }

    /// Clone of the histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        match self.read().get(name) {
            Some(Metric {
                value: MetricValue::Histogram(h),
                ..
            }) => Some(h.clone()),
            _ => None,
        }
    }

    /// Snapshot of every metric as `(name, class, value)`, sorted by name.
    pub fn metrics(&self) -> Vec<(String, Class, MetricValue)> {
        self.read()
            .iter()
            .map(|(k, m)| (k.clone(), m.class, m.value.clone()))
            .collect()
    }

    /// Non-destructive point-in-time copy of the registry.
    ///
    /// The registry keeps accumulating afterwards — a snapshot never
    /// drains or resets anything, so a controller can sample mid-run
    /// without perturbing the final [`Registry::export_json`] payload.
    /// Pair two snapshots with [`Snapshot::counter_delta`] /
    /// [`Snapshot::histogram_count_delta`] to read per-interval rates.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            metrics: self
                .read()
                .iter()
                .map(|(k, m)| (k.clone(), m.value.clone()))
                .collect(),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True when no metric has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every metric (cold-start for measurements and tests),
    /// including this thread's records not yet merged.
    pub fn reset(&self) {
        self.read().clear();
    }

    fn section(&self, class: Class) -> Value {
        let m = self.read();
        Value::Object(
            m.iter()
                .filter(|(_, metric)| metric.class == class)
                .map(|(name, metric)| (name.clone(), metric_value_json(&metric.value)))
                .collect(),
        )
    }

    /// Full JSON export: `{"schema": "cxl-obs/v1", "sim": {…}, "wall": {…}}`.
    ///
    /// Metric names are sorted, numbers print with shortest-round-trip
    /// formatting, and the `sim` section is a pure function of the
    /// simulated work — two runs of the same cells produce byte-equal
    /// `sim` sections at any worker count.
    pub fn export_json(&self) -> String {
        let v = Value::Object(vec![
            ("schema".to_string(), Value::Str("cxl-obs/v1".to_string())),
            ("sim".to_string(), self.section(Class::Sim)),
            ("wall".to_string(), self.section(Class::Wall)),
        ]);
        serde_json::to_string_pretty(&v).expect("metrics serialize")
    }

    /// JSON export of the deterministic ([`Class::Sim`]) section only —
    /// the byte-comparable payload for `--jobs` cross-checks.
    pub fn export_sim_json(&self) -> String {
        serde_json::to_string_pretty(&self.section(Class::Sim)).expect("metrics serialize")
    }
}

/// Immutable point-in-time copy of a [`Registry`] (see
/// [`Registry::snapshot`]).
///
/// Accessors mirror the registry's (`counter`, `max`, `gauge`,
/// `histogram`); the `*_delta` methods subtract an **earlier** snapshot
/// to turn cumulative metrics into per-interval values — the read path
/// a periodic controller needs, since draining the registry mid-run
/// would corrupt the end-of-run export.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    metrics: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// An empty snapshot (what sampling an inactive registry yields).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Value of the counter `name` at snapshot time.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Value of the high-water mark `name` at snapshot time.
    pub fn max(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Max(m)) => Some(*m),
            _ => None,
        }
    }

    /// Value of the gauge `name` at snapshot time.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Clone of the histogram `name` at snapshot time.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h.clone()),
            _ => None,
        }
    }

    /// Sample count of the histogram `name` at snapshot time.
    pub fn histogram_count(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h.count()),
            _ => None,
        }
    }

    /// Counter growth since `earlier`: `self[name] - earlier[name]`.
    ///
    /// A metric absent from either side reads as 0, so the first
    /// interval after a counter appears reports its full value.
    /// Saturates at 0 (counters are monotonic; a negative delta means
    /// the snapshots were passed in the wrong order).
    pub fn counter_delta(&self, earlier: &Snapshot, name: &str) -> u64 {
        self.counter(name)
            .unwrap_or(0)
            .saturating_sub(earlier.counter(name).unwrap_or(0))
    }

    /// Histogram sample-count growth since `earlier` (same absent-as-0
    /// and saturation rules as [`Snapshot::counter_delta`]).
    pub fn histogram_count_delta(&self, earlier: &Snapshot, name: &str) -> u64 {
        self.histogram_count(name)
            .unwrap_or(0)
            .saturating_sub(earlier.histogram_count(name).unwrap_or(0))
    }

    /// Number of metrics captured.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when the snapshot captured no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }
}

fn metric_value_json(v: &MetricValue) -> Value {
    use serde::Serialize as _;
    match v {
        MetricValue::Counter(c) => Value::Object(vec![
            ("type".into(), Value::Str("counter".into())),
            ("value".into(), c.to_value()),
        ]),
        MetricValue::Max(m) => Value::Object(vec![
            ("type".into(), Value::Str("max".into())),
            ("value".into(), m.to_value()),
        ]),
        MetricValue::Gauge(g) => Value::Object(vec![
            ("type".into(), Value::Str("gauge".into())),
            ("value".into(), Value::F64(*g)),
        ]),
        MetricValue::Histogram(h) => {
            let (p50, p95, p99, p999) = h.tail();
            Value::Object(vec![
                ("type".into(), Value::Str("histogram".into())),
                ("count".into(), h.count().to_value()),
                ("min".into(), h.min().to_value()),
                ("max".into(), h.max().to_value()),
                ("mean".into(), Value::F64(h.mean())),
                ("p50".into(), p50.to_value()),
                ("p95".into(), p95.to_value()),
                ("p99".into(), p99.to_value()),
                ("p999".into(), p999.to_value()),
            ])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        r.counter_add(Class::Sim, "a", 1);
        r.counter_add(Class::Sim, "a", 41);
        assert_eq!(r.counter("a"), Some(42));
        assert_eq!(r.counter("missing"), None);
    }

    #[test]
    fn max_keeps_high_water_mark() {
        let r = Registry::new();
        r.counter_max(Class::Sim, "hwm", 10);
        r.counter_max(Class::Sim, "hwm", 3);
        r.counter_max(Class::Sim, "hwm", 17);
        assert_eq!(r.max("hwm"), Some(17));
    }

    #[test]
    fn gauges_take_last_write() {
        let r = Registry::new();
        r.gauge_set(Class::Sim, "g", 0.25);
        r.gauge_set(Class::Sim, "g", 0.75);
        assert_eq!(r.gauge("g"), Some(0.75));
    }

    #[test]
    fn histograms_record_and_merge() {
        let r = Registry::new();
        r.record(Class::Sim, "h", 100);
        r.record(Class::Sim, "h", 300);
        let mut extra = Histogram::new();
        extra.record(200);
        r.record_histogram(Class::Sim, "h", &extra);
        let h = r.histogram("h").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 300);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn shape_mismatch_panics() {
        let r = Registry::new();
        r.record(Class::Sim, "x", 1);
        r.counter_add(Class::Sim, "x", 1);
    }

    #[test]
    fn export_is_sorted_and_parses() {
        let r = Registry::new();
        r.counter_add(Class::Sim, "z/last", 1);
        r.counter_add(Class::Sim, "a/first", 2);
        r.record(Class::Wall, "wall/hist", 5);
        let full = r.export_json();
        let v = serde_json::parse_value(&full).expect("export parses");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("cxl-obs/v1"));
        let sim = v.get("sim").expect("sim section");
        assert!(sim.get("a/first").is_some());
        assert!(sim.get("wall/hist").is_none());
        assert!(v.get("wall").and_then(|w| w.get("wall/hist")).is_some());
        // Sorted: "a/first" appears before "z/last".
        assert!(full.find("a/first").unwrap() < full.find("z/last").unwrap());
    }

    #[test]
    fn sim_export_excludes_wall_metrics() {
        let r = Registry::new();
        r.counter_add(Class::Sim, "det", 1);
        r.counter_add(Class::Wall, "sched", 1);
        let sim = r.export_sim_json();
        assert!(sim.contains("det"));
        assert!(!sim.contains("sched"));
    }

    #[test]
    fn reset_clears_everything() {
        let r = Registry::new();
        r.counter_add(Class::Sim, "a", 1);
        assert!(!r.is_empty());
        r.reset();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn export_after_snapshot_is_unchanged() {
        let r = Registry::new();
        r.counter_add(Class::Sim, "c", 3);
        r.counter_max(Class::Sim, "m", 9);
        r.gauge_set(Class::Sim, "g", 0.5);
        r.record(Class::Wall, "h", 120);
        let before = r.export_json();
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(
            r.export_json(),
            before,
            "snapshot() must not drain or mutate the registry"
        );
        // The registry keeps accumulating after the snapshot, which
        // stays frozen at its capture point.
        r.counter_add(Class::Sim, "c", 1);
        assert_eq!(snap.counter("c"), Some(3));
        assert_eq!(r.counter("c"), Some(4));
    }

    #[test]
    fn snapshot_reads_every_shape() {
        let r = Registry::new();
        r.counter_add(Class::Sim, "c", 3);
        r.counter_max(Class::Sim, "m", 9);
        r.gauge_set(Class::Sim, "g", 0.5);
        r.record(Class::Sim, "h", 120);
        r.record(Class::Sim, "h", 360);
        let snap = r.snapshot();
        assert_eq!(snap.counter("c"), Some(3));
        assert_eq!(snap.max("m"), Some(9));
        assert_eq!(snap.gauge("g"), Some(0.5));
        assert_eq!(snap.histogram_count("h"), Some(2));
        assert_eq!(snap.histogram("h").unwrap().max(), 360);
        // Shape-mismatched reads yield None, like the registry's.
        assert_eq!(snap.counter("g"), None);
        assert_eq!(snap.gauge("missing"), None);
    }

    #[test]
    fn counter_deltas_between_snapshots() {
        let r = Registry::new();
        r.counter_add(Class::Sim, "ops", 10);
        let t0 = r.snapshot();
        r.counter_add(Class::Sim, "ops", 7);
        r.record(Class::Sim, "lat", 100);
        let t1 = r.snapshot();
        assert_eq!(t1.counter_delta(&t0, "ops"), 7);
        // Metric absent at t0: full value counts as the first interval.
        assert_eq!(t1.histogram_count_delta(&t0, "lat"), 1);
        // Absent everywhere reads as zero, and reversed-order deltas
        // saturate instead of wrapping.
        assert_eq!(t1.counter_delta(&t0, "nope"), 0);
        assert_eq!(t0.counter_delta(&t1, "ops"), 0);
    }

    #[test]
    fn empty_snapshot_reads_zeroes() {
        let snap = Snapshot::empty();
        assert!(snap.is_empty());
        assert_eq!(snap.counter("x"), None);
        assert_eq!(snap.counter_delta(&Snapshot::empty(), "x"), 0);
    }

    #[test]
    fn snapshot_lists_all_metrics() {
        let r = Registry::new();
        r.counter_add(Class::Sim, "one", 1);
        r.gauge_set(Class::Wall, "two", 2.0);
        let all = r.metrics();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, "one");
        assert_eq!(all[0].1, Class::Sim);
    }
}
