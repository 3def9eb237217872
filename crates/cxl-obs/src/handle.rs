//! Metric handles: a name, shape and [`Class`] fixed once at
//! declaration, then recorded through with no lookup.
//!
//! Every name is interned the first time a handle for it is used: the
//! process-wide table assigns it a dense slot index, which is what the
//! per-thread shards (see `shard.rs`) are indexed by. The table also
//! remembers each name's shape, so declaring one name with two shapes
//! panics, as writing it with two shapes did before handles.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};

use cxl_stats::Histogram;

use crate::registry::Class;
use crate::shard;
use crate::span::Span;

/// Shape of a metric, fixed by the handle type that declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    Counter,
    Max,
    Gauge,
    Histogram,
}

impl Shape {
    pub(crate) fn name(self) -> &'static str {
        match self {
            Shape::Counter => "counter",
            Shape::Max => "max",
            Shape::Gauge => "gauge",
            Shape::Histogram => "histogram",
        }
    }
}

/// What every handle carries: the metric's identity plus its slot.
#[derive(Debug)]
pub(crate) struct Key {
    pub(crate) name: &'static str,
    pub(crate) class: Class,
    pub(crate) shape: Shape,
    /// Interned slot index plus one; 0 until the first use resolves it.
    /// `Relaxed` suffices: the index is the only data it publishes, and
    /// a racing first use interns the same name to the same index.
    slot: AtomicU32,
}

impl Key {
    const fn new(name: &'static str, class: Class, shape: Shape) -> Self {
        Key {
            name,
            class,
            shape,
            slot: AtomicU32::new(0),
        }
    }

    fn interned(name: &str, class: Class, shape: Shape) -> Self {
        let (name, slot) = intern(name, class, shape, || Box::leak(Box::from(name)));
        Key {
            name,
            class,
            shape,
            slot: AtomicU32::new(slot + 1),
        }
    }

    /// The shard slot this metric records into.
    #[inline]
    pub(crate) fn slot(&self) -> usize {
        match self.slot.load(Ordering::Relaxed) {
            0 => self.resolve(),
            s => s as usize - 1,
        }
    }

    #[cold]
    fn resolve(&self) -> usize {
        let (_, slot) = intern(self.name, self.class, self.shape, || self.name);
        self.slot.store(slot + 1, Ordering::Relaxed);
        slot as usize
    }
}

impl Clone for Key {
    fn clone(&self) -> Self {
        Key {
            slot: AtomicU32::new(self.slot.load(Ordering::Relaxed)),
            ..*self
        }
    }
}

struct Interned {
    slot: u32,
    class: Class,
    shape: Shape,
}

/// Interns `name`, returning its `'static` spelling and slot index.
/// `owned` supplies the `'static` spelling for a name seen first.
fn intern(
    name: &str,
    class: Class,
    shape: Shape,
    owned: impl FnOnce() -> &'static str,
) -> (&'static str, u32) {
    static TABLE: OnceLock<Mutex<HashMap<&'static str, Interned>>> = OnceLock::new();
    // A shape-clash panic below leaves the table unchanged, so a
    // poisoned lock is still consistent.
    let mut table = TABLE
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some((&spelling, e)) = table.get_key_value(name) {
        assert!(
            e.shape == shape,
            "metric {name:?} is a {}, not a {}",
            e.shape.name(),
            shape.name()
        );
        debug_assert!(
            e.class == class,
            "metric {name:?} re-registered with a different determinism class"
        );
        return (spelling, e.slot);
    }
    let slot = u32::try_from(table.len()).expect("metric name table overflow");
    let spelling = owned();
    table.insert(spelling, Interned { slot, class, shape });
    (spelling, slot)
}

macro_rules! constructors {
    ($shape:expr) => {
        /// Declares a deterministic ([`Class::Sim`]) metric; usable in a
        /// `static`.
        pub const fn new(name: &'static str) -> Self {
            Self(Key::new(name, Class::Sim, $shape))
        }

        /// Declares a scheduling-dependent ([`Class::Wall`]) metric.
        pub const fn wall(name: &'static str) -> Self {
            Self(Key::new(name, Class::Wall, $shape))
        }

        /// Declares a deterministic metric whose name is built at run
        /// time (one member of a label family such as
        /// `serve/{tenant}/served`). Build it once, when the owning
        /// value is constructed; each distinct name is kept for the
        /// life of the process.
        pub fn interned(name: &str) -> Self {
            Self(Key::interned(name, Class::Sim, $shape))
        }

        /// The metric's name.
        pub fn name(&self) -> &'static str {
            self.0.name
        }
    };
}

/// A monotonically increasing `u64` counter.
///
/// ```
/// static PROMOTIONS: cxl_obs::Counter = cxl_obs::Counter::new("tier/promotions");
/// PROMOTIONS.add(1);
/// ```
#[derive(Debug, Clone)]
pub struct Counter(Key);

impl Counter {
    constructors!(Shape::Counter);

    /// Adds `n` on the current target (a no-op when nothing is
    /// [`crate::active`]). Adding 0 still makes the counter appear in
    /// the export.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::active() {
            shard::add(&self.0, n);
        }
    }
}

/// A high-water mark.
#[derive(Debug, Clone)]
pub struct Max(Key);

impl Max {
    constructors!(Shape::Max);

    /// Raises the mark to at least `v` on the current target.
    #[inline]
    pub fn raise(&self, v: u64) {
        if crate::active() {
            shard::raise(&self.0, v);
        }
    }
}

/// A distribution of `u64` samples.
#[derive(Debug, Clone)]
pub struct Hist(Key);

impl Hist {
    constructors!(Shape::Histogram);

    /// Records one sample on the current target.
    #[inline]
    pub fn record(&self, value: u64) {
        if crate::active() {
            shard::record(&self.0, value);
        }
    }

    /// Merges a locally built histogram in one step (bucket counts add,
    /// so this equals recording each of its samples). An empty
    /// `samples` still makes the metric appear in the export.
    pub fn record_histogram(&self, samples: &Histogram) {
        shard::merge(&self.0, samples);
    }

    /// Starts a wall-clock span whose elapsed nanoseconds are recorded
    /// here when the returned guard drops. Inert (no clock read) when
    /// nothing is [`crate::active`].
    pub fn span(&'static self) -> Span {
        Span::start(self)
    }
}

/// A last-written `f64`.
///
/// Gauges are cold and last-write-wins, so unlike the other shapes they
/// are not sharded: [`Gauge::set`] writes straight through to the
/// current target registry. A deterministic gauge is only meaningful
/// from a single logical stream; parallel writers make the final value
/// scheduling-dependent, in which case declare it with
/// [`Gauge::wall`].
#[derive(Debug, Clone)]
pub struct Gauge(Key);

impl Gauge {
    constructors!(Shape::Gauge);

    /// Sets the gauge on the current target.
    pub fn set(&self, v: f64) {
        // Interned like every shape, so a shape clash panics here too.
        self.0.slot();
        shard::with_target(|r| r.gauge_set(self.0.class, self.0.name, v));
    }
}
