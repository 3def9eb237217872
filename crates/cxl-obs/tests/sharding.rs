//! Per-thread shards must not change what a registry exports: the same
//! samples give the same bytes however they were split across threads
//! and whenever the shards were merged.

use std::sync::{mpsc, Arc, Mutex};

use cxl_obs::{Counter, Hist, Max, Registry};
use cxl_stats::Histogram;

static OPS: Counter = Counter::new("shard/ops");
static BYTES: Counter = Counter::new("shard/bytes");
static DEPTH: Max = Max::new("shard/depth_max");
static LATENCY: Hist = Hist::new("shard/latency_ns");
static WALL: Hist = Hist::wall("shard/wall_ns");

/// Tests that enable the global registry hold this.
static GLOBAL: Mutex<()> = Mutex::new(());

const SAMPLES: u64 = 40_000;

/// Records sample `i` through every sharded shape.
fn record(i: u64) {
    OPS.add(1);
    BYTES.add(i % 7);
    DEPTH.raise((i * 7919) % 5_003);
    LATENCY.record((i * 37) % 10_007 + 1);
    WALL.record(i);
}

/// Records the fixed sample multiset from `threads` threads, each
/// taking every `threads`-th sample. `Some(reg)` installs `reg` on every
/// thread; otherwise the threads record into the enabled global
/// registry and merge through the thread-local destructor on join.
fn record_split(threads: u64, reg: Option<&Arc<Registry>>) {
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let reg = reg.cloned();
            std::thread::spawn(move || {
                let _scope = reg.map(cxl_obs::scope);
                (t..SAMPLES).step_by(threads as usize).for_each(record);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("recording thread");
    }
}

#[test]
fn scoped_export_is_independent_of_thread_count() {
    let export = |threads| {
        let reg = Arc::new(Registry::new());
        record_split(threads, Some(&reg));
        reg.export_sim_json()
    };
    let one = export(1);
    assert!(one.contains("shard/latency_ns"), "{one}");
    assert_eq!(one, export(8));
    assert_eq!(one, export(3));
}

#[test]
fn global_export_is_independent_of_thread_count() {
    let _g = GLOBAL.lock().unwrap();
    let export = |threads| {
        cxl_obs::global().reset();
        cxl_obs::enable();
        record_split(threads, None);
        cxl_obs::disable();
        cxl_obs::global().export_sim_json()
    };
    let one = export(1);
    assert!(one.contains("shard/depth_max"), "{one}");
    let eight = export(8);
    // The same samples recorded on the reading thread itself, merged by
    // the read rather than by a thread exit.
    cxl_obs::global().reset();
    cxl_obs::enable();
    (0..SAMPLES).for_each(record);
    cxl_obs::disable();
    let local = cxl_obs::global().export_sim_json();
    cxl_obs::global().reset();
    assert_eq!(one, eight);
    assert_eq!(one, local);
}

#[test]
fn shards_match_named_writes_byte_for_byte() {
    let sharded = Arc::new(Registry::new());
    record_split(4, Some(&sharded));
    let named = Registry::new();
    let class = cxl_obs::Class::Sim;
    let mut latency = Histogram::new();
    for i in 0..SAMPLES {
        named.counter_add(class, "shard/ops", 1);
        named.counter_add(class, "shard/bytes", i % 7);
        named.counter_max(class, "shard/depth_max", (i * 7919) % 5_003);
        latency.record((i * 37) % 10_007 + 1);
    }
    named.record_histogram(class, "shard/latency_ns", &latency);
    assert_eq!(sharded.export_sim_json(), named.export_sim_json());
}

#[test]
fn zero_and_empty_first_writes_still_export() {
    static ZERO: Counter = Counter::new("shard/zero");
    static FLOOR: Max = Max::new("shard/zero_max");
    static EMPTY: Hist = Hist::new("shard/empty_hist");
    let reg = Arc::new(Registry::new());
    {
        let _g = cxl_obs::scope(reg.clone());
        ZERO.add(0);
        FLOOR.raise(0);
        EMPTY.record_histogram(&Histogram::new());
    }
    assert_eq!(reg.counter("shard/zero"), Some(0));
    assert_eq!(reg.max("shard/zero_max"), Some(0));
    assert_eq!(
        reg.histogram("shard/empty_hist").map(|h| h.count()),
        Some(0)
    );
    let sim = reg.export_sim_json();
    for name in ["shard/zero", "shard/zero_max", "shard/empty_hist"] {
        assert!(sim.contains(name), "{name} missing:\n{sim}");
    }
}

#[test]
fn scope_guard_drop_merges_the_shard() {
    static C: Counter = Counter::new("shard/guarded");
    let reg = Arc::new(Registry::new());
    let (merged_tx, merged_rx) = mpsc::channel();
    let (checked_tx, checked_rx) = mpsc::channel::<()>();
    let worker = {
        let reg = reg.clone();
        std::thread::spawn(move || {
            {
                let _g = cxl_obs::scope(reg);
                C.add(5);
            }
            merged_tx.send(()).unwrap();
            // Stay alive, so the thread-local destructor cannot be what
            // merged the shard.
            checked_rx.recv().unwrap();
        })
    };
    merged_rx.recv().unwrap();
    assert_eq!(reg.counter("shard/guarded"), Some(5));
    checked_tx.send(()).unwrap();
    worker.join().unwrap();
}

#[test]
fn flush_hands_global_records_to_other_threads() {
    static C: Counter = Counter::new("shard/flushed");
    let _g = GLOBAL.lock().unwrap();
    cxl_obs::enable();
    let (flushed_tx, flushed_rx) = mpsc::channel();
    let (checked_tx, checked_rx) = mpsc::channel::<()>();
    let worker = std::thread::spawn(move || {
        C.add(3);
        cxl_obs::flush();
        flushed_tx.send(()).unwrap();
        checked_rx.recv().unwrap();
    });
    flushed_rx.recv().unwrap();
    cxl_obs::disable();
    assert_eq!(cxl_obs::global().counter("shard/flushed"), Some(3));
    checked_tx.send(()).unwrap();
    worker.join().unwrap();
}
