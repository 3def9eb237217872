//! The traced run: the study re-assembled from its cells with a span
//! around every call into a layer, then an outside-in replay of the
//! inner layers.
//!
//! The simulator has no spans of its own, so the time inside
//! `KvStore::run` (say) cannot be split by watching it. Instead each
//! inner layer's public calls are replayed afterwards on the same
//! cell's parameters, seed derivation and op counts, and timed; the
//! replayed spans are attached to the span whose work they stand for,
//! and the parent's self time is what the replayed children leave.

use std::cell::RefCell;
use std::collections::VecDeque;

use cxl_calib::{evaluate, fit, param_deltas, CalibrationTarget, CandidateMap, FitConfig};
use cxl_core::experiments::calib::{CalibCell, CalibStudy};
use cxl_core::experiments::heap::{HeapStudy, HeapStudyParams};
use cxl_core::experiments::keydb::KeydbStudy;
use cxl_core::experiments::serve::{ServeCell, ServeStudy};
use cxl_mlc::Mlc;
use cxl_perf::{FlowSpec, MemSystem, ModelParams};
use cxl_sim::{Engine, SimTime};
use cxl_stats::rng::derive_seed;
use cxl_tier::{PageId, Rw, TierConfig, TierManager};
use cxl_topology::{SncMode, Topology};
use cxl_ycsb::{Generator, GeneratorConfig, Op, Workload as Ycsb};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::cells;
use crate::span::{Recorder, SpanId};
use crate::studies::{self, Outcome, Study, Workload};

/// YCSB ops the store draws per generator refill (`cxl-kv`'s block).
const GEN_BLOCK: usize = 1024;

/// Per-layer statistics read from a study's simulated output
/// ([`Outcome::sim`]).
const SIM_METRICS: [&str; 8] = [
    "serve.drop_frac",
    "heap.objects_traced",
    "tier.migrated_pages",
    "tier.promote_yield",
    "calib.fit_resid_pct",
    "calib.targets_out_of_tol",
    "calib.evaluations",
    "calib.model_err_pct",
];

/// A per-layer metric: name and value. Units live in `BENCHMARK.json`.
pub type Metric = (&'static str, f64);

/// Result of one traced run.
pub struct Traced {
    /// The re-assembled study's outcome (checked like a timed run's).
    pub outcome: Outcome,
    /// Host seconds of the traced study, replays excluded.
    pub wall_s: f64,
    /// Per-layer metrics this process can measure.
    pub metrics: Vec<Metric>,
    /// Every span recorded.
    pub recorder: Recorder,
}

/// Runs the traced study for `w`. When `export` is set the metrics
/// registry is live during the study and its export is written there
/// before any replay runs, so replays never reach the export.
pub fn run(w: Workload, seed: u64, name: &str, export: Option<&std::path::Path>) -> Traced {
    if export.is_some() {
        cxl_obs::enable();
    }
    let mut rec = Recorder::new(name);
    let before = cxl_perf::solve_cache_stats();
    let (study, study_id, layers) = match w {
        Workload::Fig5 => fig5_study(&mut rec, seed),
        Workload::Serve => serve_study(&mut rec, seed),
        Workload::Heap => heap_study(&mut rec, seed),
        Workload::Calibrate => calib_study(&mut rec, seed),
    };
    let after = cxl_perf::solve_cache_stats();
    let outcome = study.outcome();
    if let Some(path) = export {
        std::fs::write(path, cxl_obs::global().export_json()).expect("write metrics export");
        cxl_obs::disable();
    }
    let wall_s = rec.spans()[study_id].duration_ns() as f64 * 1e-9;

    let mut m = Replay::default();
    match layers {
        Layers::Fig5(cells) => fig5_replay(&mut rec, &mut m, seed, &cells),
        Layers::Serve(cells) => serve_replay(&mut rec, &mut m, seed, &cells),
        Layers::Heap(cells) => heap_replay(&mut rec, &mut m, seed, &cells),
        Layers::Calib(evals) => calib_replay(&mut rec, &mut m, &evals),
    }

    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let mut metrics = m.finish(&rec, &outcome);
    metrics.extend([
        ("perf.solve.calls", (hits + misses) as f64),
        ("perf.solve_cache.hits", hits as f64),
        ("perf.solve_cache.misses", misses as f64),
        (
            "perf.solve_cache.hit_rate",
            if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
        ),
        ("trace.overfull_spans", rec.overfull().len() as f64),
    ]);
    Traced {
        outcome,
        wall_s,
        metrics,
        recorder: rec,
    }
}

/// What the replays need from the traced study.
enum Layers {
    /// (kv.run span, config, workload, cell seed, throughput ops/s).
    Fig5(Vec<(SpanId, cxl_core::CapacityConfig, Ycsb, u64, f64)>),
    /// (cell span, served KV requests per tenant).
    Serve(Vec<(SpanId, Vec<u64>)>),
    /// (heap.run span, touches the cell reported, simulated ns).
    Heap(Vec<(SpanId, u64, u64)>),
    /// (calib.evaluate span, target index, candidate) in the fit's
    /// order; no span for the evaluations the fit makes outside its
    /// candidate map, which the replay repeats untimed so the solve
    /// cache holds what it held in the study.
    Calib(Vec<(Option<SpanId>, usize, ModelParams)>),
}

// ---------------------------------------------------------------------
// Traced studies
// ---------------------------------------------------------------------

fn fig5_study(rec: &mut Recorder, seed: u64) -> (Study, SpanId, Layers) {
    let p = studies::fig5_params(seed);
    let mut runs = Vec::new();
    let (cells_out, study) = rec.time("study", None, |rec, study| {
        let mut out = Vec::new();
        for (label, config, workload) in cells::fig5_grid() {
            let s = derive_seed(p.seed, &label);
            let cell = rec.time("fig5.cell", Some(study), |rec, cell| {
                cells::as_runner_cell(|| {
                    let mut store = rec.time("kv.load", Some(cell), |_, _| {
                        cells::fig5_store(config, &p, s)
                    });
                    rec.time("kv.run", Some(cell), |_, run| {
                        let c = cells::fig5_finish(&mut store, config, workload, &p);
                        runs.push((run, config, workload, s, c.throughput_ops));
                        c
                    })
                })
            });
            out.push(cell);
        }
        (out, study)
    });
    let study_out = KeydbStudy {
        cells: cells_out,
        params: p,
    };
    (Study::Fig5(study_out), study, Layers::Fig5(runs))
}

fn serve_study(rec: &mut Recorder, seed: u64) -> (Study, SpanId, Layers) {
    let p = studies::serve_params(seed);
    let mut served = Vec::new();
    let (cells_out, study) = rec.time("study", None, |rec, study| {
        let mut out = Vec::new();
        for spec in cells::serve_grid(&p) {
            let cfg = cells::serve_scenario(&p, spec);
            let report = rec.time("serve.cell", Some(study), |_, cell| {
                let r = cells::as_runner_cell(|| cxl_serve::run_serve(&cfg));
                served.push((cell, r.tenants.iter().map(|t| t.served).collect()));
                r
            });
            out.push(ServeCell {
                label: spec.0.to_string(),
                adaptive: spec.2,
                report,
            });
        }
        (out, study)
    });
    let study_out = ServeStudy {
        cells: cells_out,
        params: p,
    };
    (Study::Serve(study_out), study, Layers::Serve(served))
}

fn heap_study(rec: &mut Recorder, seed: u64) -> (Study, SpanId, Layers) {
    let p = studies::heap_params(seed);
    let mut runs = Vec::new();
    let (cells_out, study) = rec.time("study", None, |rec, study| {
        let mut out = Vec::new();
        for spec in cells::heap_grid(&p) {
            let cell = rec.time("heap.cell", Some(study), |rec, cell| {
                cells::as_runner_cell(|| {
                    let setup = rec.time("heap.graph_build", Some(cell), |_, _| {
                        cells::heap_setup(&p, &spec)
                    });
                    rec.time("heap.run", Some(cell), |_, run| {
                        let c = cells::heap_run(&p, &spec, setup);
                        let r = &c.report;
                        runs.push((run, r.mutator_touches + r.trace_touches, r.elapsed.as_ns()));
                        c
                    })
                })
            });
            out.push(cell);
        }
        (out, study)
    });
    let study_out = HeapStudy {
        cells: cells_out,
        params: p,
    };
    (Study::Heap(study_out), study, Layers::Heap(runs))
}

/// Scores candidates serially, one span per objective evaluation, and
/// keeps every candidate for the solver replay.
struct TimingMap<'a> {
    rec: RefCell<&'a mut Recorder>,
    parent: SpanId,
    target: usize,
    evals: RefCell<&'a mut Vec<(Option<SpanId>, usize, ModelParams)>>,
}

impl CandidateMap for TimingMap<'_> {
    fn map_losses(
        &self,
        candidates: Vec<ModelParams>,
        eval: &(dyn Fn(&ModelParams) -> f64 + Sync),
    ) -> Vec<f64> {
        let mut rec = self.rec.borrow_mut();
        candidates
            .into_iter()
            .map(|c| {
                rec.time("calib.evaluate", Some(self.parent), |_, id| {
                    self.evals.borrow_mut().push((Some(id), self.target, c));
                    eval(&c)
                })
            })
            .collect()
    }
}

fn calib_study(rec: &mut Recorder, seed: u64) -> (Study, SpanId, Layers) {
    let params = studies::calib_params(seed);
    let mut evals = Vec::new();
    let (cells_out, study) = rec.time("study", None, |rec, study| {
        let mut out = Vec::new();
        for (ti, t) in CalibrationTarget::registry().iter().enumerate() {
            let cell = rec.time("calib.target", Some(study), |rec, target| {
                let topo = t.topology();
                let set = t.measurements();
                let space = t.space();
                let shipped = ModelParams::default();
                let s = derive_seed(params.seed, &format!("calib/{}", t.name));
                let shipped_report = evaluate(&topo, &shipped, &set);
                evals.push((None, ti, shipped));
                let fit_at = evals.len();
                let start = space.perturbed_start(&shipped, s, params.perturb_frac);
                let cfg = FitConfig {
                    seed: s,
                    ..params.fit
                };
                let map = TimingMap {
                    rec: RefCell::new(rec),
                    parent: target,
                    target: ti,
                    evals: RefCell::new(&mut evals),
                };
                let r = fit(&map, &topo, &set, &space, start, &cfg);
                evals.insert(fit_at, (None, ti, r.start));
                evals.extend([(None, ti, r.start), (None, ti, r.fitted)]);
                let start_report = evaluate(&topo, &r.start, &set);
                let fitted_report = evaluate(&topo, &r.fitted, &set);
                let within = fitted_report.max_residual_pct <= t.tolerance_pct;
                CalibCell {
                    target: t.name.to_string(),
                    description: t.description.to_string(),
                    tolerance_pct: t.tolerance_pct,
                    shipped: shipped_report,
                    start: start_report,
                    fitted: fitted_report,
                    deltas: param_deltas(&space, &shipped, &r.fitted),
                    steps: r.steps.len(),
                    evaluations: r.evaluations,
                    within_tolerance: within,
                }
            });
            out.push(cell);
        }
        (out, study)
    });
    let study_out = CalibStudy {
        params,
        cells: cells_out,
    };
    (Study::Calibrate(study_out), study, Layers::Calib(evals))
}

// ---------------------------------------------------------------------
// Replays
// ---------------------------------------------------------------------

/// Call counts and summed host ns of the replayed layers.
#[derive(Default)]
struct Replay {
    ycsb_calls: u64,
    ycsb_ns: u64,
    touch_calls: u64,
    touch_ns: u64,
    tick_calls: u64,
    tick_ns: u64,
    drain_calls: u64,
    drain_ns: u64,
    solve_calls: u64,
    solve_ns: u64,
    service_ns: u64,
    events: u64,
    events_ns: u64,
    /// KV ops behind the `kv.run` and `kv.service_request` spans.
    kv_ops: u64,
    /// Self ns left to the KV layer after its replayed children.
    kv_self_ns: u64,
    /// Heap accesses behind the `heap.run` spans.
    heap_accesses: u64,
    /// Touch calls the study itself made, where it reports them.
    touch_calls_sim: Option<u64>,
}

/// Times `f` as a replayed span under `parent`; returns its output,
/// its duration in ns and the span.
fn timed<T>(
    rec: &mut Recorder,
    name: &str,
    parent: SpanId,
    f: impl FnOnce() -> T,
) -> (T, u64, SpanId) {
    let start = rec.now_ns();
    let out = f();
    let end = rec.now_ns();
    (out, end - start, rec.push(name, Some(parent), start, end))
}

/// Replays a store's tiering loop: `touch` per page access, and at each
/// epoch boundary `drain_epoch`, the `MemSystem::solve` of the drained
/// flows and `tick`, each timed under `parent`.
struct TierReplay {
    parent: SpanId,
    sys: MemSystem,
    tm: TierManager,
    pages: Vec<PageId>,
    now: SimTime,
    epoch_start: SimTime,
    dt_ns: f64,
    clock_ns: f64,
    epoch_ops: u64,
    since_epoch: u64,
    chunk: Vec<(usize, Rw, u64)>,
}

impl TierReplay {
    fn new(parent: SpanId, tier: TierConfig, pages: u64, dt_ns: f64, epoch_ops: u64) -> Self {
        let topo = Topology::paper_testbed(SncMode::Disabled);
        let sys = MemSystem::new(&topo);
        let mut tm = TierManager::new(&topo, tier);
        let pages = tm.alloc_n(pages, SimTime::ZERO).expect("replay pages fit");
        tm.drain_epoch();
        Self {
            parent,
            sys,
            tm,
            pages,
            now: SimTime::ZERO,
            epoch_start: SimTime::ZERO,
            dt_ns,
            clock_ns: 0.0,
            epoch_ops,
            since_epoch: 0,
            chunk: Vec::new(),
        }
    }

    /// Queues one page access; `op_end` marks the end of an operation
    /// (the unit the store's epoch counter and clock advance by).
    fn access(
        &mut self,
        idx: usize,
        rw: Rw,
        bytes: u64,
        op_end: bool,
        rec: &mut Recorder,
        m: &mut Replay,
    ) {
        while idx >= self.pages.len() {
            let p = self.tm.alloc(self.now).expect("replay insert fits");
            self.pages.push(p);
        }
        self.chunk.push((idx, rw, bytes));
        if op_end {
            self.since_epoch += 1;
            if self.since_epoch == self.epoch_ops {
                self.flush(rec, m);
                self.epoch(rec, m);
            }
        }
    }

    /// Touches the queued accesses as one timed span.
    fn flush(&mut self, rec: &mut Recorder, m: &mut Replay) {
        let chunk = std::mem::take(&mut self.chunk);
        let per_access = self.dt_ns * self.since_epoch as f64 / chunk.len().max(1) as f64;
        let start = self.clock_ns;
        let (tm, pages) = (&mut self.tm, &self.pages);
        let (_, ns, _) = timed(rec, "tier.touch", self.parent, || {
            let mut clock = start;
            for &(idx, rw, bytes) in &chunk {
                clock += per_access;
                std::hint::black_box(tm.touch(pages[idx], rw, bytes, SimTime::from_ns_f64(clock)));
            }
        });
        self.clock_ns += per_access * chunk.len() as f64;
        self.now = SimTime::from_ns_f64(self.clock_ns);
        m.touch_calls += chunk.len() as u64;
        m.touch_ns += ns;
        self.chunk = chunk;
        self.chunk.clear();
    }

    fn epoch(&mut self, rec: &mut Recorder, m: &mut Replay) {
        let parent = self.parent;
        self.since_epoch = 0;
        let dur = self.now.saturating_sub(self.epoch_start);
        let tm = &mut self.tm;
        let (epoch, ns, _) = timed(rec, "tier.drain_epoch", parent, || tm.drain_epoch());
        m.drain_calls += 1;
        m.drain_ns += ns;
        if dur > SimTime::ZERO {
            let mut flows = epoch.flows(self.sys.sockets()[0], dur, false);
            flows.retain(|f| self.sys.node_online(f.node));
            if !flows.is_empty() {
                let sys = &self.sys;
                let (_, ns, _) = timed(rec, "perf.solve", parent, || {
                    std::hint::black_box(sys.solve(&flows))
                });
                m.solve_calls += 1;
                m.solve_ns += ns;
            }
        }
        let (tm, now) = (&mut self.tm, self.now);
        let (_, ns, _) = timed(rec, "tier.tick", parent, || tm.tick(now));
        m.tick_calls += 1;
        m.tick_ns += ns;
        self.epoch_start = self.now;
    }

    fn finish(&mut self, rec: &mut Recorder, m: &mut Replay) {
        self.flush(rec, m);
        self.epoch(rec, m);
    }
}

/// Draws `ops` YCSB ops the way the store does (blocks of
/// [`GEN_BLOCK`]) as one timed span under `parent`.
fn ycsb_replay(
    rec: &mut Recorder,
    m: &mut Replay,
    parent: SpanId,
    workload: Ycsb,
    record_count: u64,
    seed: u64,
    ops: u64,
) -> Vec<Op> {
    let cfg = GeneratorConfig {
        record_count,
        value_size: 1024,
        seed,
    };
    let (out, ns, _) = timed(rec, "ycsb.next_op", parent, || {
        let mut g = Generator::new(workload, cfg);
        let mut out = Vec::with_capacity(ops as usize);
        let mut left = ops;
        while left > 0 {
            let n = (left as usize).min(GEN_BLOCK);
            out.extend(g.batch(n));
            left -= n as u64;
        }
        out
    });
    m.ycsb_calls += ops;
    m.ycsb_ns += ns;
    out
}

fn fig5_replay(
    rec: &mut Recorder,
    m: &mut Replay,
    seed: u64,
    runs: &[(SpanId, cxl_core::CapacityConfig, Ycsb, u64, f64)],
) {
    let p = studies::fig5_params(seed);
    for &(run, config, workload, s, throughput) in runs {
        let (_, mut tier, kv, flash) = cells::fig5_store_config(config, &p, s);
        tier.allow_ssd_spill = flash;
        let page = tier.page_size;
        let n_pages = (kv.record_count * kv.value_size).div_ceil(page);
        let dt_ns = if throughput > 0.0 {
            1e9 / throughput
        } else {
            0.0
        };
        let mut t = TierReplay::new(run, tier, n_pages, dt_ns, kv.epoch_ops);
        for (i, ops) in [p.warmup_ops, p.ops].into_iter().enumerate() {
            if ops == 0 {
                continue;
            }
            let stream = ycsb_replay(
                rec,
                m,
                run,
                workload,
                kv.record_count,
                derive_seed(s, &format!("run.{i}")),
                ops,
            );
            let idx = |key: u64| ((key * kv.value_size) / page) as usize;
            for op in stream {
                match op {
                    Op::Read(k) => t.access(idx(k), Rw::Read, kv.value_size, true, rec, m),
                    Op::Update(k) | Op::Insert(k) => {
                        t.access(idx(k), Rw::Write, kv.value_size, true, rec, m)
                    }
                    Op::ReadModifyWrite(k) => {
                        t.access(idx(k), Rw::Read, kv.value_size, false, rec, m);
                        t.access(idx(k), Rw::Write, kv.value_size, true, rec, m);
                    }
                    Op::Scan { start, len } => {
                        let (first, last) = (idx(start), idx(start + len as u64 - 1));
                        for pg in first..=last {
                            t.access(pg, Rw::Read, kv.value_size, pg == last, rec, m);
                        }
                    }
                }
            }
            t.finish(rec, m);
        }
        m.kv_ops += p.warmup_ops + p.ops;
        m.kv_self_ns += rec.self_ns(run);
    }
}

fn serve_replay(rec: &mut Recorder, m: &mut Replay, seed: u64, served: &[(SpanId, Vec<u64>)]) {
    let p = studies::serve_params(seed);
    for (spec, (cell, served)) in cells::serve_grid(&p).into_iter().zip(served) {
        let cfg = cells::serve_scenario(&p, spec);
        let mut all = Vec::new();
        for (ti, t) in cfg.tenants.iter().enumerate() {
            let (arrivals, _, _) = timed(rec, "serve.arrivals", *cell, || {
                cxl_serve::generate_arrivals(&cfg, ti)
            });
            all.extend(arrivals.iter().copied());
            let Some((mut store, workload)) = cells::serve_kv_store(&cfg, t) else {
                continue;
            };
            let cxl_serve::TenantClass::Kv {
                ops_per_request,
                record_count,
                ..
            } = t.class
            else {
                continue;
            };
            let requests = served[ti].min(arrivals.len() as u64) as usize;
            let (_, ns, sr) = timed(rec, "kv.service_request", *cell, || {
                for &at in &arrivals[..requests] {
                    std::hint::black_box(store.service_request(at, workload, ops_per_request));
                }
            });
            m.kv_ops += requests as u64 * ops_per_request;
            m.service_ns += ns;
            let kv_seed = derive_seed(cfg.seed, &format!("serve.kv.{}", t.name));
            // The session's generator always refills whole blocks.
            let drawn =
                (requests as u64 * ops_per_request).div_ceil(GEN_BLOCK as u64) * GEN_BLOCK as u64;
            ycsb_replay(
                rec,
                m,
                sr,
                workload,
                record_count,
                derive_seed(kv_seed, "serve.0"),
                drawn,
            );
            m.kv_self_ns += rec.self_ns(sr);
        }
        all.sort_unstable();
        let (events, ns, _) = timed(rec, "sim.engine", *cell, || {
            let mut e = Engine::new(0u64);
            for &at in &all {
                e.schedule_at(at, |e| *e.state_mut() += 1);
            }
            e.run();
            e.executed()
        });
        m.events += events;
        m.events_ns += ns;
    }
}

fn heap_replay(rec: &mut Recorder, m: &mut Replay, seed: u64, runs: &[(SpanId, u64, u64)]) {
    let p: HeapStudyParams = studies::heap_params(seed);
    for (spec, &(run, touches, elapsed_ns)) in cells::heap_grid(&p).iter().zip(runs) {
        m.heap_accesses += touches;
        let setup = cells::heap_setup(&p, spec);
        let (heap, g) = (&setup.heap, &setup.graph);
        let dt_ns = elapsed_ns as f64 / touches.max(1) as f64;
        let mut t = TierReplay::new(
            run,
            setup.tier.clone(),
            u64::from(g.page_count),
            dt_ns,
            heap.epoch_ops,
        );
        let mut rng = SmallRng::seed_from_u64(derive_seed(heap.seed, "heap/mutator"));
        let n = g.object_count();
        let hot_n = ((n as f64 * heap.hot_fraction) as u32).max(1);
        let page_of = |id: u32| g.first_page[id as usize] as usize;
        for cycle in 0..=heap.gc_cycles {
            for _ in 0..heap.mutator_ops_per_cycle {
                let mut cur = if rng.gen_bool(heap.hot_bias) {
                    rng.gen_range(0..hot_n)
                } else {
                    rng.gen_range(0..n)
                };
                for _ in 0..heap.chase_len {
                    let rw = if rng.gen_bool(heap.write_fraction) {
                        Rw::Write
                    } else {
                        Rw::Read
                    };
                    t.access(page_of(cur), rw, heap.field_bytes, true, rec, m);
                    let edges = g.out_edges(cur);
                    if edges.is_empty() {
                        break;
                    }
                    cur = edges[rng.gen_range(0..edges.len())];
                }
            }
            if cycle == heap.gc_cycles {
                break;
            }
            // The GC trace: BFS from the roots, a header read per edge
            // and a mark write per newly reached object.
            let mut visited = vec![false; n as usize];
            let mut queue: VecDeque<u32> = (0..g.roots).collect();
            for r in 0..g.roots {
                visited[r as usize] = true;
            }
            while let Some(id) = queue.pop_front() {
                t.access(page_of(id), Rw::Read, heap.field_bytes, true, rec, m);
                for &target in g.out_edges(id) {
                    t.access(page_of(target), Rw::Read, 8, true, rec, m);
                    if !visited[target as usize] {
                        visited[target as usize] = true;
                        queue.push_back(target);
                        t.access(page_of(target), Rw::Write, 8, true, rec, m);
                    }
                }
            }
        }
        t.finish(rec, m);
    }
    m.touch_calls_sim = Some(m.heap_accesses);
}

fn calib_replay(
    rec: &mut Recorder,
    m: &mut Replay,
    evals: &[(Option<SpanId>, usize, ModelParams)],
) {
    let targets = CalibrationTarget::registry();
    let prepared: Vec<_> = targets
        .iter()
        .map(|t| (t.topology(), t.measurements()))
        .collect();
    // Replay against a cold cache in the study's order, so the replay
    // meets the same mix of hits and misses the fit met.
    cxl_perf::solve_cache_reset();
    for &(eval, ti, params) in evals {
        let (topo, set) = &prepared[ti];
        let sys = MemSystem::with_params(topo, &params);
        let endpoints = Mlc::distance_endpoints(&sys);
        let flows: Vec<FlowSpec> = set
            .curves
            .iter()
            .flat_map(|c| {
                let d = c.parsed_distance();
                let &(_, from, node) = endpoints
                    .iter()
                    .find(|e| e.0 == d)
                    .expect("set distance exists");
                let mix = c.parsed_mix();
                c.points
                    .iter()
                    .map(move |pt| FlowSpec::new(from, node, mix, pt.offered_gbps))
            })
            .collect();
        let solve_all = || {
            for f in &flows {
                std::hint::black_box(sys.solve(std::slice::from_ref(f)));
            }
        };
        let Some(eval) = eval else {
            solve_all();
            continue;
        };
        let (_, ns, _) = timed(rec, "perf.solve", eval, solve_all);
        m.solve_calls += flows.len() as u64;
        m.solve_ns += ns;
    }
}

impl Replay {
    fn finish(self, rec: &Recorder, outcome: &Outcome) -> Vec<Metric> {
        let per = |ns: u64, n: u64| if n > 0 { ns as f64 / n as f64 } else { 0.0 };
        let secs = |name: &str| rec.total_ns(name) as f64 * 1e-9;
        let spans = |name: &str| rec.spans().iter().filter(|s| s.name == name).count() as u64;
        let mut out = vec![
            ("ycsb.next_op.calls", self.ycsb_calls as f64),
            ("ycsb.next_op.ns", per(self.ycsb_ns, self.ycsb_calls)),
            ("kv.load.s", secs("kv.load")),
            ("kv.run.ns_per_op", per(rec.total_ns("kv.run"), self.kv_ops)),
            ("kv.self.ns_per_op", per(self.kv_self_ns, self.kv_ops)),
            (
                "kv.service_request.ns_per_op",
                per(self.service_ns, self.kv_ops),
            ),
            (
                "tier.touch.calls",
                self.touch_calls_sim.unwrap_or(self.touch_calls) as f64,
            ),
            ("tier.touch.ns", per(self.touch_ns, self.touch_calls)),
            ("tier.tick.ns", per(self.tick_ns, self.tick_calls)),
            ("tier.drain_epoch.ns", per(self.drain_ns, self.drain_calls)),
            ("perf.solve.ns", per(self.solve_ns, self.solve_calls)),
            ("sim.engine.ns_per_event", per(self.events_ns, self.events)),
            ("serve.arrivals.s", secs("serve.arrivals")),
            ("heap.graph_build.s", secs("heap.graph_build")),
            (
                "heap.run.ns_per_access",
                per(rec.total_ns("heap.run"), self.heap_accesses),
            ),
            (
                "calib.ns_per_eval",
                per(rec.total_ns("calib.evaluate"), spans("calib.evaluate")),
            ),
        ];
        // Statistics of layers the workload does not run read zero.
        for name in SIM_METRICS {
            let v = outcome
                .sim
                .iter()
                .find(|m| m.0 == name)
                .map_or(0.0, |m| m.1);
            out.push((name, v));
        }
        out
    }
}
