#![warn(missing_docs)]

//! Simulation-wide observability for the CXL reproduction.
//!
//! The paper's conclusions hang on per-tier traffic shape — where pages
//! land, how often they migrate, where each experiment spends its
//! latency budget. End-of-run aggregates hide placement bugs (a
//! demotion landing on remote-socket CXL at 485 ns while a local node
//! at 250 ns has room is invisible until a figure looks wrong), so this
//! crate gives every layer a shared metrics spine to record into and
//! every test a registry to assert against.
//!
//! # Model
//!
//! A [`Registry`] holds named metrics of four shapes:
//!
//! * **counter** — monotonically increasing `u64` (`tier/promotions`),
//! * **max** — high-water mark (`sim/heap_depth_max`),
//! * **gauge** — last-written `f64` (`tier/dram_bw_util`),
//! * **histogram** — [`cxl_stats::Histogram`] of `u64` samples
//!   (`kv/access_ns/cxl`).
//!
//! Every metric carries a [`Class`]:
//!
//! * [`Class::Sim`] — derived from simulated time or simulated state.
//!   Counter adds and histogram-bucket increments are commutative, so
//!   aggregate values are **bit-identical across worker counts** when
//!   the same cells run; CI diffs the `sim` export section between
//!   `--jobs 1` and `--jobs 8`.
//! * [`Class::Wall`] — wall clock or scheduling dependent (cell
//!   runtimes, solve-cache hit/miss splits, worker occupancy).
//!   Excluded from determinism comparisons.
//!
//! # Handles, shards and the no-op mode
//!
//! Instrumented crates declare each metric once as a handle —
//! [`Counter`], [`Max`], [`Hist`] or [`Gauge`] — which fixes its name,
//! shape and [`Class`]: a `static` for a fixed name, or
//! [`Counter::interned`] (etc.) when the owning value is built, for
//! label families such as `serve/{tenant}/served`. Recording goes
//! through the handle and lands on the current target:
//!
//! 1. the innermost thread-scoped registry installed with [`scope`], if
//!    any — always recording (tests use this for isolation; the
//!    experiment runner propagates the caller's scope into its
//!    workers), else
//! 2. the process [`global`] registry, only if [`enable`]d.
//!
//! A record does not touch the registry. It is a plain add into the
//! calling thread's shard for that target, a dense per-thread array
//! indexed by the handle's interned slot: no lock, no allocation, no
//! map lookup. Shards are merged into their registry
//!
//! * when the [`ScopeGuard`] that installed the target drops,
//! * on [`flush`] (the experiment runner calls it as each worker
//!   exits),
//! * before any read of the registry from the same thread
//!   ([`Registry::export_json`], [`Registry::snapshot`],
//!   [`Registry::counter`], …), and
//! * from the thread-local destructor, as a fallback.
//!
//! A read on one thread sees another thread's records only once that
//! thread has passed one of these points.
//!
//! Counter adds, maxima and histogram bucket increments commute, so
//! the merged values — and so the export — do not depend on how
//! records were split across threads or when shards were merged. A
//! metric appears in the export once it has been written, even if the
//! value written was 0 or the histogram merged was empty. Gauges are
//! cold and last-write-wins, so [`Gauge::set`] writes straight through.
//!
//! With no scope installed and the global registry disabled (the
//! default), every recording call is a thread-local read plus one
//! relaxed atomic load — the hot layers stay instrumented at ~zero
//! cost until a `--metrics` run or a test turns collection on.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//!
//! static PROMOTIONS: cxl_obs::Counter = cxl_obs::Counter::new("tier/promotions");
//! static ACCESS_MMEM: cxl_obs::Hist = cxl_obs::Hist::new("kv/access_ns/mmem");
//!
//! let reg = Arc::new(cxl_obs::Registry::new());
//! {
//!     let _guard = cxl_obs::scope(reg.clone());
//!     PROMOTIONS.add(3);
//!     ACCESS_MMEM.record(97);
//! }
//! assert_eq!(reg.counter("tier/promotions"), Some(3));
//! let json = reg.export_json();
//! assert!(json.contains("tier/promotions"));
//! ```

mod handle;
mod registry;
mod shard;
mod span;

pub use handle::{Counter, Gauge, Hist, Max};
pub use registry::{Class, MetricValue, Registry, Snapshot};
pub use span::Span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-wide registry (disabled until [`enable`] is called).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Turns on recording into the [`global`] registry.
pub fn enable() {
    GLOBAL_ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording into the [`global`] registry back off.
pub fn disable() {
    GLOBAL_ENABLED.store(false, Ordering::Relaxed);
}

/// True when the [`global`] registry is recording.
#[inline]
pub fn enabled() -> bool {
    GLOBAL_ENABLED.load(Ordering::Relaxed)
}

/// True when a recording call on this thread would reach any registry.
#[inline]
pub fn active() -> bool {
    shard::active()
}

/// The innermost thread-scoped registry, if one is installed.
pub fn current() -> Option<Arc<Registry>> {
    shard::current()
}

/// Guard returned by [`scope`]; uninstalls the registry on drop and
/// merges what this thread recorded into it.
pub struct ScopeGuard {
    _private: (),
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        shard::pop();
    }
}

/// Installs `registry` as this thread's recording target until the
/// returned guard drops. Scopes nest; the innermost wins.
pub fn scope(registry: Arc<Registry>) -> ScopeGuard {
    shard::push(registry);
    ScopeGuard { _private: () }
}

/// Merges every record this thread has not yet merged into its
/// registries. Call before a thread that recorded into the [`global`]
/// registry hands off to a reader on another thread.
pub fn flush() {
    shard::flush_all();
}

/// Non-destructive snapshot of the registry a recording call would
/// reach (innermost scope, else the enabled global). Returns
/// [`Snapshot::empty`] when nothing is [`active`], so periodic samplers
/// can run unconditionally.
pub fn snapshot() -> Snapshot {
    match current() {
        Some(reg) => reg.snapshot(),
        None if enabled() => global().snapshot(),
        None => Snapshot::empty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global-state tests share this lock so enable()/disable() from one
    // test cannot race another's assertions.
    static GLOBAL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_global_records_nothing() {
        static C: Counter = Counter::new("test/disabled_counter");
        let _l = GLOBAL_LOCK.lock().unwrap();
        disable();
        C.add(5);
        assert_eq!(global().counter("test/disabled_counter"), None);
    }

    #[test]
    fn enabled_global_records() {
        static C: Counter = Counter::new("test/enabled_counter");
        let _l = GLOBAL_LOCK.lock().unwrap();
        enable();
        C.add(2);
        C.add(3);
        disable();
        assert_eq!(global().counter("test/enabled_counter"), Some(5));
    }

    #[test]
    fn scoped_registry_shadows_global() {
        static C: Counter = Counter::new("test/scoped");
        static H: Hist = Hist::new("test/scoped_hist");
        let reg = Arc::new(Registry::new());
        {
            let _g = scope(reg.clone());
            assert!(active());
            C.add(7);
            H.record(42);
        }
        assert_eq!(reg.counter("test/scoped"), Some(7));
        assert_eq!(reg.histogram("test/scoped_hist").unwrap().count(), 1);
        // Nothing leaked to the global registry.
        assert_eq!(global().counter("test/scoped"), None);
    }

    #[test]
    fn scopes_nest_innermost_wins() {
        static C: Counter = Counter::new("test/nested");
        let outer = Arc::new(Registry::new());
        let inner = Arc::new(Registry::new());
        let _a = scope(outer.clone());
        {
            let _b = scope(inner.clone());
            C.add(1);
        }
        C.add(10);
        assert_eq!(inner.counter("test/nested"), Some(1));
        assert_eq!(outer.counter("test/nested"), Some(10));
    }

    #[test]
    fn span_records_into_wall_histogram() {
        static SPAN: Hist = Hist::wall("test/span_ns");
        let reg = Arc::new(Registry::new());
        {
            let _g = scope(reg.clone());
            let _s = SPAN.span();
        }
        let h = reg.histogram("test/span_ns").expect("span recorded");
        assert_eq!(h.count(), 1);
        // Wall metrics stay out of the deterministic export.
        assert!(!reg.export_sim_json().contains("test/span_ns"));
        assert!(reg.export_json().contains("test/span_ns"));
    }

    #[test]
    fn free_snapshot_follows_dispatch() {
        static C: Counter = Counter::new("test/free_snapshot");
        let _l = GLOBAL_LOCK.lock().unwrap();
        disable();
        assert!(snapshot().is_empty(), "inactive → empty snapshot");
        let reg = Arc::new(Registry::new());
        let _g = scope(reg.clone());
        C.add(4);
        let snap = snapshot();
        assert_eq!(snap.counter("test/free_snapshot"), Some(4));
        // Sampling did not perturb the live registry.
        assert_eq!(reg.counter("test/free_snapshot"), Some(4));
    }

    #[test]
    fn span_without_active_registry_is_noop() {
        static SPAN: Hist = Hist::wall("test/noop_span");
        let _l = GLOBAL_LOCK.lock().unwrap();
        disable();
        let s = SPAN.span();
        drop(s);
        assert!(global().histogram("test/noop_span").is_none());
    }

    #[test]
    fn reads_inside_a_live_scope_see_pending_records() {
        static C: Counter = Counter::new("test/live_read");
        static M: Max = Max::new("test/live_max");
        let reg = Arc::new(Registry::new());
        let _g = scope(reg.clone());
        C.add(2);
        M.raise(9);
        assert_eq!(reg.counter("test/live_read"), Some(2));
        C.add(3);
        M.raise(4);
        assert_eq!(reg.counter("test/live_read"), Some(5));
        assert_eq!(reg.max("test/live_max"), Some(9));
    }

    #[test]
    fn gauges_write_through_to_the_target() {
        static G: Gauge = Gauge::new("test/gauge");
        let reg = Arc::new(Registry::new());
        let _g = scope(reg.clone());
        G.set(0.25);
        G.set(0.75);
        assert_eq!(reg.gauge("test/gauge"), Some(0.75));
    }

    #[test]
    fn interned_handles_share_a_slot_with_static_ones() {
        static C: Counter = Counter::new("test/family/a");
        let dynamic = Counter::interned(&format!("test/family/{}", "a"));
        assert_eq!(dynamic.name(), C.name());
        let reg = Arc::new(Registry::new());
        {
            let _g = scope(reg.clone());
            C.add(1);
            dynamic.add(2);
        }
        assert_eq!(reg.counter("test/family/a"), Some(3));
    }

    #[test]
    #[should_panic(expected = "is a counter, not a histogram")]
    fn one_name_with_two_shapes_panics() {
        static C: Counter = Counter::new("test/two_shapes");
        static H: Hist = Hist::new("test/two_shapes");
        let reg = Arc::new(Registry::new());
        let _g = scope(reg);
        C.add(1);
        H.record(1);
    }
}
