//! The engine speed program's trajectory benches (ROADMAP item 1).
//!
//! Three slices, exported per-PR into `BENCH_*.json` (see
//! EXPERIMENTS.md "Benchmarking"): engine churn with heavy
//! cancellation on both the arena engine and the pre-arena legacy copy
//! (their ratio is the headline speedup), the solver knob-probe loop,
//! and a reduced Fig. 5 KV cell as the end-to-end macro slice.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use cxl_bench::speed;

fn bench_speed(c: &mut Criterion) {
    let mut g = c.benchmark_group("speed");
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(2));

    // Engine churn: 4 waves of 50k timers, 95% cancelled before
    // firing — the backlog peaks at 50k pending events, the regime the
    // legacy side-map design pays for in cache misses.
    g.bench_function("engine_churn_arena", |b| {
        b.iter(|| black_box(speed::churn_arena(4, 50_000)))
    });
    g.bench_function("engine_churn_legacy", |b| {
        b.iter(|| black_box(speed::churn_legacy(4, 50_000)))
    });

    // Solver knob probes: 64 single-flow perturbations per iteration
    // (mean_ns / 64 is ns per solve).
    g.bench_function("solver_probes", |b| {
        b.iter(|| black_box(speed::solver_probe_slice(64)))
    });

    // YCSB op generation with a live obs registry: block-drawn vs
    // per-op. Their ratio is the fig5-slice generator amortization.
    g.bench_function("ycsb_gen_batched", |b| {
        b.iter(|| black_box(speed::ycsb_gen_slice(100_000, true)))
    });
    g.bench_function("ycsb_gen_per_op", |b| {
        b.iter(|| black_box(speed::ycsb_gen_slice(100_000, false)))
    });

    // One cxl-obs handle record into a live scope, amortized over 1M
    // records (mean_ns / 1e6 is ns per record).
    g.bench_function("obs_record", |b| {
        b.iter(|| black_box(speed::obs_record_slice(1_000_000)))
    });

    // Tier-manager touch hot path: 100k touches under hot-page
    // selection (mean_ns / 1e5 is ns per touch).
    g.bench_function("tier_touch_per_op", |b| {
        b.iter(|| black_box(speed::tier_touch_slice(100_000)))
    });

    // KV macro slice: one reduced Fig. 5 cell (Hot-Promote, YCSB-C).
    g.bench_function("kv_fig5_slice", |b| {
        b.iter(|| black_box(speed::fig5_slice(10_000, 8_000, 20_000)))
    });

    // Managed-heap macro slice: a DRAM-lean storm-prone cell (12k-
    // object graph, two GC traces) end-to-end — graph generation,
    // mutator chases, trace sweeps, epoch repricing.
    g.bench_function("heap_gc_slice", |b| {
        b.iter(|| black_box(speed::heap_gc_slice(12_000, 2)))
    });

    // Open-loop arrival materialization: one bursty diurnal tenant at
    // 50k rps over 8 phases (~200k piecewise-Poisson draws), the
    // pre-engine trace-generation slice of the serving front end.
    g.bench_function("serve_arrival_gen", |b| {
        b.iter(|| black_box(speed::arrival_gen_slice(50_000.0, 8)))
    });

    // Calibration macro slice: a three-round coordinate-descent fit of
    // the smallest registry target (4 free dims, 20 points) — the
    // `cxl-calib` share of the trajectory, dominated by analytic
    // solves against one freshly built system per candidate.
    g.bench_function("calib_fit_slice", |b| {
        b.iter(|| black_box(speed::calib_fit_slice(3)))
    });

    g.finish();
}

criterion_group!(speed_benches, bench_speed);
criterion_main!(speed_benches);
