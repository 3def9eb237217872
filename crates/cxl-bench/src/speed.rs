//! Workloads behind `benches/speed.rs` and the bench smoke tests.
//!
//! The engine-churn workload models the `cxl-ctl` probe pattern that
//! motivated the arena engine: every wave schedules a burst of timers,
//! cancels most of them before they fire (probe timeouts that the probe
//! beat), and drains the survivors. It runs against both the current
//! arena engine and [`legacy`], a faithful copy of the pre-arena
//! `BinaryHeap` + `HashMap` + `cancelled: HashSet` design, so the
//! `BENCH_*.json` trajectory carries the before/after ratio instead of
//! a single uninterpretable number.
//!
//! The solver-probe workload models `cxl-ctl` autotuning: one knob
//! moves per step, so one flow of a 24-flow set changes per solve. The
//! trajectory reports it as an absolute time per solve.

use cxl_perf::{AccessMix, FlowSpec, MemSystem};
use cxl_topology::{NodeId, SncMode, SocketId, Topology};

/// A faithful copy of the pre-arena event engine, kept as the
/// benchmark baseline. Same semantics the old `cxl-sim` engine had on
/// the happy path (its `run_until`/`is_idle` bugs are not exercised by
/// the churn workload); same `cxl-obs` calls, so the comparison
/// isolates the storage design.
pub mod legacy {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap, HashSet};

    use cxl_obs::{Counter, Max};
    use cxl_sim::SimTime;

    // The same metrics the arena engine records.
    static EVENTS_EXECUTED: Counter = Counter::new("sim/events_executed");
    static EVENTS_CANCELLED: Counter = Counter::new("sim/events_cancelled");
    static HEAP_DEPTH_MAX: Max = Max::new("sim/heap_depth_max");

    /// Handle to a scheduled event.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct EventId(u64);

    type EventFn<S> = Box<dyn FnOnce(&mut Engine<S>)>;

    struct Scheduled<S> {
        id: EventId,
        f: EventFn<S>,
    }

    /// The old heap + side-map + cancel-set engine.
    pub struct Engine<S> {
        now: SimTime,
        seq: u64,
        heap: BinaryHeap<Reverse<(SimTime, u64)>>,
        events: HashMap<(SimTime, u64), Scheduled<S>>,
        cancelled: HashSet<EventId>,
        state: S,
        executed: u64,
    }

    impl<S> Engine<S> {
        /// Creates an engine at time zero with the given state.
        pub fn new(state: S) -> Self {
            Self {
                now: SimTime::ZERO,
                seq: 0,
                heap: BinaryHeap::new(),
                events: HashMap::new(),
                cancelled: HashSet::new(),
                state,
                executed: 0,
            }
        }

        /// Current virtual time.
        pub fn now(&self) -> SimTime {
            self.now
        }

        /// Number of events executed so far.
        pub fn executed(&self) -> u64 {
            self.executed
        }

        /// Mutable access to the user state.
        pub fn state_mut(&mut self) -> &mut S {
            &mut self.state
        }

        /// Schedules an event at an absolute time.
        pub fn schedule_at(
            &mut self,
            at: SimTime,
            f: impl FnOnce(&mut Engine<S>) + 'static,
        ) -> EventId {
            assert!(at >= self.now, "cannot schedule into the past");
            let id = EventId(self.seq);
            let key = (at, self.seq);
            self.seq += 1;
            self.heap.push(Reverse(key));
            self.events.insert(key, Scheduled { id, f: Box::new(f) });
            HEAP_DEPTH_MAX.raise(self.heap.len() as u64);
            id
        }

        /// Marks an event cancelled; the entry is reaped when popped.
        pub fn cancel(&mut self, id: EventId) {
            self.cancelled.insert(id);
        }

        /// Executes the next non-cancelled event.
        pub fn step(&mut self) -> bool {
            while let Some(Reverse(key)) = self.heap.pop() {
                let ev = self
                    .events
                    .remove(&key)
                    .expect("heap key without event entry");
                if self.cancelled.remove(&ev.id) {
                    EVENTS_CANCELLED.add(1);
                    continue;
                }
                self.now = key.0;
                self.executed += 1;
                EVENTS_EXECUTED.add(1);
                (ev.f)(self);
                return true;
            }
            false
        }

        /// Runs until the queue drains.
        pub fn run(&mut self) {
            while self.step() {}
        }

        /// Runs events with timestamps `<= until`, then advances the
        /// clock to `until`.
        pub fn run_until(&mut self, until: SimTime) {
            while let Some(&Reverse((t, _))) = self.heap.peek() {
                if t > until {
                    break;
                }
                self.step();
            }
            if self.now < until {
                self.now = until;
            }
        }
    }
}

use cxl_sim::SimTime;

/// Wave length in virtual ns; timer offsets stay inside one wave.
const WAVE_NS: u64 = 1_000;

/// Fraction of each wave's timers cancelled before firing: 19 of 20,
/// the probe-timeout regime the arena design is built for.
const KEEP_EVERY: usize = 20;

macro_rules! churn_body {
    ($engine:ty, $waves:expr, $per_wave:expr) => {{
        let mut e: $engine = <$engine>::new(0u64);
        for _ in 0..$waves {
            let base = e.now();
            let mut ids = Vec::with_capacity($per_wave);
            for i in 0..$per_wave {
                let at = base + SimTime::from_ns(1 + (i as u64 * 7) % (WAVE_NS - 1));
                ids.push(e.schedule_at(at, |e| *e.state_mut() += 1));
            }
            for (i, id) in ids.into_iter().enumerate() {
                if i % KEEP_EVERY != 0 {
                    e.cancel(id);
                }
            }
            e.run_until(base + SimTime::from_ns(WAVE_NS));
        }
        e.run();
        e.executed()
    }};
}

/// Runs the churn workload on the current arena engine; returns the
/// executed-event count (for cross-checking against [`churn_legacy`]).
pub fn churn_arena(waves: usize, per_wave: usize) -> u64 {
    churn_body!(cxl_sim::Engine<u64>, waves, per_wave)
}

/// Runs the identical workload on the [`legacy`] engine copy.
pub fn churn_legacy(waves: usize, per_wave: usize) -> u64 {
    churn_body!(legacy::Engine<u64>, waves, per_wave)
}

/// The SNC-4 testbed system plus a 24-flow set over the six
/// socket-local nodes of socket 0 (four flows per node), shaped like
/// the multi-tenant flow sets `cxl-ctl` re-solves during knob probes:
/// six resource-disjoint components of four contending flows each.
pub fn probe_system() -> (MemSystem, Vec<FlowSpec>) {
    let sys = MemSystem::new(&Topology::paper_testbed(SncMode::Snc4));
    let nodes = [0usize, 1, 2, 3, 8, 9];
    let flows = (0..24)
        .map(|i| {
            FlowSpec::new(
                SocketId(0),
                NodeId(nodes[i % nodes.len()]),
                AccessMix::ratio(2, 1),
                10.0 + i as f64,
            )
        })
        .collect();
    (sys, flows)
}

/// Runs `probes` single-knob perturbation solves and returns a
/// value-bearing accumulator (so the work can't be optimized away).
/// The knob values are quantized to a small grid, the way `cxl-ctl`
/// probes quantized settings.
pub fn solver_probe_slice(probes: usize) -> f64 {
    let (sys, mut flows) = probe_system();
    let mut acc = 0.0;
    for p in 0..probes {
        let k = p % flows.len();
        flows[k].offered_gbps = 10.0 + ((p * 13) % 40) as f64 * 0.25;
        acc += sys.solve(&flows).flows[k].achieved_gbps;
    }
    acc
}

/// Generates `ops` YCSB-A operations with a live obs registry (the
/// metrics-enabled production regime, where the per-op counter flush
/// is the cost being amortized) and returns a key checksum. `batched:
/// true` draws blocks of 1024 via `Generator::batch` — the block path
/// the KV run loops use — `false` draws per-op; both produce the same
/// op stream, so the ratio is pure generation overhead.
pub fn ycsb_gen_slice(ops: usize, batched: bool) -> u64 {
    use cxl_ycsb::{Generator, GeneratorConfig, Workload};
    let registry = std::sync::Arc::new(cxl_obs::Registry::new());
    let _scope = cxl_obs::scope(registry);
    let mut g = Generator::new(
        Workload::A,
        GeneratorConfig {
            record_count: 100_000,
            value_size: 1024,
            seed: 42,
        },
    );
    let mut acc = 0u64;
    if batched {
        let mut remaining = ops;
        while remaining > 0 {
            let n = remaining.min(1024);
            for op in g.batch(n) {
                acc = acc.wrapping_add(op.key());
            }
            remaining -= n;
        }
    } else {
        for _ in 0..ops {
            acc = acc.wrapping_add(g.next_op().key());
        }
    }
    acc
}

/// Makes `records` handle records into a live scoped registry (the
/// `--metrics` regime of every instrumented hot path), alternating a
/// histogram sample and a counter add, and returns how many reached
/// the registry. Includes the shard merge when the scope closes, so
/// the bench's mean over `records` is the amortized cost of one record.
pub fn obs_record_slice(records: u64) -> u64 {
    static SAMPLES: cxl_obs::Hist = cxl_obs::Hist::new("bench/obs_record_samples");
    static CALLS: cxl_obs::Counter = cxl_obs::Counter::new("bench/obs_record_calls");
    let registry = std::sync::Arc::new(cxl_obs::Registry::new());
    {
        let _scope = cxl_obs::scope(registry.clone());
        for i in 0..records / 2 {
            SAMPLES.record(std::hint::black_box(i & 0xffff));
            CALLS.add(1);
        }
    }
    registry.counter(CALLS.name()).unwrap_or(0) * 2
}

/// Drives the tier-manager touch hot path: `touches` accesses over a
/// strided page pattern with periodic scan ticks (one per 256
/// accesses), under hot-page selection (the Fig. 5 regime). Returns a
/// stats checksum so the work cannot be optimized away.
pub fn tier_touch_slice(touches: usize) -> u64 {
    use cxl_sim::SimTime;
    use cxl_tier::{
        AllocPolicy, HotPageConfig, MigrationMode, NumaBalancingConfig, Rw, TierConfig, TierManager,
    };
    const DRAM0: NodeId = NodeId(0);
    const CXL0: NodeId = NodeId(2);
    const PAGES: u64 = 4096;
    const BLOCK: usize = 256;
    let mut cfg = TierConfig::bind(vec![CXL0, DRAM0]);
    cfg.policy = AllocPolicy::interleave(vec![DRAM0], vec![CXL0], 1, 3);
    cfg.migration = MigrationMode::HotPageSelection(HotPageConfig {
        balancing: NumaBalancingConfig {
            scan_period: SimTime::from_ms(1),
            scan_pages: 512,
            ..Default::default()
        },
        ..Default::default()
    });
    cfg.capacity_override = vec![
        (DRAM0, 1024 * cfg.page_size),
        (NodeId(1), 0),
        (CXL0, PAGES * cfg.page_size),
        (NodeId(3), 0),
    ];
    cfg.allow_ssd_spill = true;
    let mut tm = TierManager::new(&Topology::paper_testbed(SncMode::Disabled), cfg);
    let pages = tm.alloc_n(PAGES, SimTime::ZERO).expect("spill enabled");
    let mut acc = 0u64;
    for (step, chunk_base) in (0..touches).step_by(BLOCK).enumerate() {
        let now = SimTime::from_ms(step as u64 + 1);
        tm.tick(now);
        for j in chunk_base..touches.min(chunk_base + BLOCK) {
            // Strided hot set: 1/8 of touches hammer 64 pages.
            let page = if j % 8 == 0 {
                pages[(j * 31) % 64]
            } else {
                pages[(j * 131) % pages.len()]
            };
            let rw = if j % 4 == 0 { Rw::Write } else { Rw::Read };
            acc = acc.wrapping_add(tm.touch(page, rw, 4096, now).promoted as u64);
        }
    }
    acc.wrapping_add(tm.stats().hint_faults)
}

/// One Fig. 5 KV cell (Hot-Promote, YCSB-C) at reduced size: the
/// KV-simulation slice of the trajectory, dominated by engine dispatch
/// and tier-manager touches.
pub fn fig5_slice(record_count: u64, ops: u64, warmup_ops: u64) -> f64 {
    use cxl_core::experiments::keydb::{run_cell, Fig5Params};
    let cell = run_cell(
        cxl_core::CapacityConfig::HotPromote,
        cxl_ycsb::Workload::C,
        Fig5Params {
            record_count,
            ops,
            warmup_ops,
            seed: 42,
        },
    );
    cell.throughput_ops
}

/// Open-loop arrival generation for one bursty diurnal tenant: the
/// trace-materialization slice of the serving front end (piecewise
/// Poisson sampling over phase/burst rate segments), which runs before
/// the engine starts and scales with offered load.
pub fn arrival_gen_slice(rate_rps: f64, phases: usize) -> usize {
    use cxl_serve::{BurstConfig, CostConfig, Phase, ServeConfig, TenantClass, TenantConfig};
    use cxl_sim::SimTime;
    let tenant = TenantConfig {
        name: "bench".to_string(),
        class: TenantClass::Kv {
            workload: cxl_ycsb::Workload::B,
            ops_per_request: 64,
            record_count: 1,
        },
        base_rate_rps: rate_rps,
        phase_mults: (0..phases).map(|i| 0.5 + (i % 4) as f64 * 0.5).collect(),
        burst: Some(BurstConfig {
            mult: 1.5,
            mean_on_s: 0.3,
            mean_off_s: 0.9,
        }),
        queue_cap: 1,
        admission_rate_rps: rate_rps,
        admission_burst: 1.0,
        workers: 1,
        slo_p99_ms: 1.0,
    };
    let cfg = ServeConfig {
        tenants: vec![tenant],
        phases: (0..phases)
            .map(|i| Phase::new(&format!("p{i}"), SimTime::from_ms(500)))
            .collect(),
        autoscale: None,
        static_lease_slabs: 0,
        fault_at: None,
        pool_slabs: 0,
        cost: CostConfig::default(),
        seed: 42,
    };
    cxl_serve::arrival::generate_arrivals(&cfg, 0).len()
}

/// One DRAM-lean managed-heap cell end-to-end (graph generation,
/// mutator chases with nursery churn, GC traces, epoch repricing):
/// the `cxl-heap` slice of the trajectory, dominated by per-touch
/// tier-manager work on a storm-prone configuration.
pub fn heap_gc_slice(old_objects: u32, gc_cycles: u32) -> u64 {
    use cxl_heap::{GraphConfig, HeapParams, HeapWorkload, ObjectGraph};
    use cxl_sim::SimTime;
    use cxl_tier::{AllocPolicy, HotPageConfig, MigrationMode, NumaBalancingConfig, TierConfig};
    const DRAM0: NodeId = NodeId(0);
    const CXL0: NodeId = NodeId(2);
    let params = HeapParams {
        graph: GraphConfig {
            old_objects,
            young_objects: old_objects / 8,
            ..GraphConfig::default()
        },
        gc_cycles,
        mutator_ops_per_cycle: 10_000,
        hot_bias: 0.99,
        ..HeapParams::default()
    };
    let g = ObjectGraph::build(&params.graph, 4096, params.seed);
    let heap_pages = u64::from(g.page_count) + params.nursery_pages + 16;
    let mut cfg = TierConfig::bind(vec![DRAM0]);
    cfg.policy = AllocPolicy::interleave(vec![DRAM0], vec![CXL0], 1, 3);
    cfg.capacity_override = vec![
        (DRAM0, heap_pages * 2 / 5 * cfg.page_size),
        (NodeId(1), 0),
        (CXL0, 2 * heap_pages * cfg.page_size),
        (NodeId(3), 0),
    ];
    cfg.migration = MigrationMode::HotPageSelection(HotPageConfig {
        balancing: NumaBalancingConfig {
            scan_period: SimTime::from_ms(8),
            scan_pages: 8192,
            hot_threshold: SimTime::from_ms(12),
            hint_fault_cost: SimTime::from_ns(300),
        },
        ..Default::default()
    });
    let topo = Topology::paper_testbed(SncMode::Disabled);
    let report = HeapWorkload::new(&topo, cfg, params, false, None).run();
    report.objects_traced + report.tier.promotions + report.mutator.count()
}

/// One calibration fit end-to-end (shipped measurement parse,
/// perturbed start, seeded coordinate descent driving the
/// loaded-latency harness): the `cxl-calib` slice of the trajectory,
/// dominated by analytic solves at the measurement set's offered
/// rates with a cold cache entry per candidate vector.
pub fn calib_fit_slice(rounds: usize) -> u64 {
    use cxl_calib::{fit, CalibrationTarget, FitConfig, SerialMap};
    let t = CalibrationTarget::by_name("cxlmemsim_pure").expect("target registered");
    let topo = t.topology();
    let set = t.measurements();
    let space = t.space();
    let start = space.perturbed_start(&cxl_perf::ModelParams::default(), 42, 0.1);
    let cfg = FitConfig {
        rounds,
        ..FitConfig::default()
    };
    fit(&SerialMap, &topo, &set, &space, start, &cfg).evaluations
}
