//! Per-cell entry points of the four studies, driven from outside.
//!
//! `cxl_core::experiments` exposes each study only as a whole
//! (`run_with`). To time its layers the benchmark needs the same cells
//! one at a time, so this module restates the cell builders the
//! studies keep private: the Fig. 5 store, the serving scenario and the
//! heap grid. Each traced run re-assembles the study from these cells
//! and renders it, and that output is checked against the same
//! committed artifact as the timed run, so a drift between a builder
//! here and its original shows up as a failed check, never as a quiet
//! change in what is measured. The serving KV store is the exception;
//! see [`serve_kv_store`].

use cxl_core::experiments::heap::{HeapCell, HeapStudyParams};
use cxl_core::experiments::keydb::{Fig5Params, KeydbCell};
use cxl_core::experiments::serve::ServeParams;
use cxl_core::{CapacityConfig, Runner};
use cxl_heap::{FaultPlan, HeapWorkload, ObjectGraph};
use cxl_kv::{KvConfig, KvStore, MemProfile};
use cxl_serve::{
    AutoscaleConfig, BurstConfig, CostConfig, Phase, ServeConfig, TenantClass, TenantConfig,
};
use cxl_sim::SimTime;
use cxl_stats::rng::derive_seed;
use cxl_tier::{AllocPolicy, HotPageConfig, MigrationMode, NumaBalancingConfig, TierConfig};
use cxl_topology::{MemoryTier, NodeId, SncMode, Topology};
use cxl_ycsb::Workload;

/// Runs `f` as one cell of a serial runner, so the cell's runner-level
/// bookkeeping (`runner/cells`, the cell wall span) is recorded exactly
/// as the study's own `run_with` records it.
pub fn as_runner_cell<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    let cell = std::sync::Mutex::new(Some(f));
    Runner::new(1)
        .map(vec![()], |()| {
            let f = cell
                .lock()
                .expect("cell lock")
                .take()
                .expect("cell runs once");
            f()
        })
        .pop()
        .expect("one cell")
}

// ---------------------------------------------------------------------
// fig5
// ---------------------------------------------------------------------

/// The Fig. 5 grid in `run_with` order: (seed label, config, workload).
pub fn fig5_grid() -> Vec<(String, CapacityConfig, Workload)> {
    let mut grid = Vec::new();
    for config in CapacityConfig::all() {
        for workload in Workload::all() {
            grid.push((format!("fig5/{}", workload.label()), config, workload));
        }
    }
    grid
}

/// The store configuration of one Fig. 5 cell.
pub fn fig5_store_config(
    config: CapacityConfig,
    p: &Fig5Params,
    seed: u64,
) -> (Topology, TierConfig, KvConfig, bool) {
    let topo = Topology::paper_testbed(SncMode::Disabled);
    let kv = KvConfig {
        record_count: p.record_count,
        value_size: 1024,
        server_threads: 7,
        client_concurrency: 28,
        profile: MemProfile::capacity_strained(),
        epoch_ops: 2_000,
        eviction: cxl_kv::EvictionPolicy::Clock,
        seed,
    };
    let (tier, flash) = config.tier_config(&topo, p.record_count * 1024);
    (topo, tier, kv, flash)
}

/// Builds one Fig. 5 cell's loaded store (`KvStore::new`).
pub fn fig5_store(config: CapacityConfig, p: &Fig5Params, seed: u64) -> KvStore {
    let (topo, tier, kv, flash) = fig5_store_config(config, p, seed);
    KvStore::new(&topo, tier, kv, flash)
}

/// Runs warm-up and measured ops on a built store and packs the cell.
pub fn fig5_finish(
    store: &mut KvStore,
    config: CapacityConfig,
    workload: Workload,
    p: &Fig5Params,
) -> KeydbCell {
    if p.warmup_ops > 0 {
        store.run(workload, p.warmup_ops);
    }
    let r = store.run(workload, p.ops);
    KeydbCell {
        config: config.label(),
        workload: workload.label(),
        throughput_ops: r.throughput_ops,
        latency: r.latency,
        read_latency: r.read_latency,
        ssd_hits: r.ssd_hits,
    }
}

// ---------------------------------------------------------------------
// serve_dynamics
// ---------------------------------------------------------------------

/// One serving cell: (label, rate multiplier, adaptive, static slabs).
pub type ServeSpec = (&'static str, f64, bool, u64);

/// The serving grid in `run_with` order.
pub fn serve_grid(p: &ServeParams) -> Vec<ServeSpec> {
    vec![
        ("adaptive", 1.0, true, 0),
        ("static-lean", 1.0, false, 0),
        ("static-peak", 1.0, false, p.static_peak_slabs),
        ("overload", p.overload_mult, true, 0),
    ]
}

/// The serving scenario of one cell, seeded as `run_with` seeds it.
pub fn serve_scenario(p: &ServeParams, spec: ServeSpec) -> ServeConfig {
    let (label, rate_mult, adaptive, static_slabs) = spec;
    let phase = SimTime::from_ms(p.phase_ms);
    let mk_kv = |name: &str, workload, rate: f64, mults: Vec<f64>, burst| TenantConfig {
        name: name.to_string(),
        class: TenantClass::Kv {
            workload,
            ops_per_request: p.ops_per_request,
            record_count: p.record_count,
        },
        base_rate_rps: rate * rate_mult,
        phase_mults: mults,
        burst,
        queue_cap: 4_096,
        admission_rate_rps: rate * 8.0,
        admission_burst: 64.0,
        workers: 2,
        slo_p99_ms: 200.0,
    };
    ServeConfig {
        tenants: vec![
            mk_kv(
                "kv-a",
                Workload::B,
                p.kv_rate_rps,
                vec![1.0, 1.7, 1.4, 0.3],
                Some(BurstConfig {
                    mult: 1.3,
                    mean_on_s: 0.3,
                    mean_off_s: 0.9,
                }),
            ),
            mk_kv(
                "kv-b",
                Workload::C,
                p.kv_rate_rps * 0.75,
                vec![0.6, 1.6, 1.9, 0.4],
                None,
            ),
            TenantConfig {
                name: "llm-a".to_string(),
                class: TenantClass::Llm {
                    prompt_tokens: 32,
                    mean_output_tokens: 8,
                },
                base_rate_rps: p.llm_rate_rps * rate_mult,
                phase_mults: vec![1.0, 1.5, 1.0, 0.3],
                burst: None,
                queue_cap: 256,
                admission_rate_rps: p.llm_rate_rps * 8.0,
                admission_burst: 16.0,
                workers: 3,
                slo_p99_ms: 4_000.0,
            },
        ],
        phases: vec![
            Phase::new("ramp", phase),
            Phase::new("peak", phase),
            Phase::new("evening", phase),
            Phase::new("night", phase + phase),
        ],
        autoscale: adaptive.then(|| AutoscaleConfig {
            period: SimTime::from_ms(p.autoscale_period_ms),
            ladder: vec![0, 1, 2, 4, 6],
            ..AutoscaleConfig::default()
        }),
        static_lease_slabs: static_slabs,
        fault_at: Some(p.fault_at()),
        pool_slabs: 18,
        cost: CostConfig::default(),
        seed: derive_seed(p.seed, &format!("serve/{label}")),
    }
}

/// The loaded store a serving KV tenant starts from, restating the
/// private `KvBackend::new` of `cxl-serve`. The traced study calls
/// `run_serve`, so no artifact covers this copy; the harness instead
/// compares its load-time SSD spills with the study's.
pub fn serve_kv_store(cfg: &ServeConfig, tenant: &TenantConfig) -> Option<(KvStore, Workload)> {
    let TenantClass::Kv {
        workload,
        record_count,
        ..
    } = tenant.class
    else {
        return None;
    };
    let (dram0, cxl_fixed, cxl_leased) = (NodeId(0), NodeId(2), NodeId(3));
    let topo = Topology::paper_testbed(SncMode::Disabled);
    let dataset_bytes = record_count * 1024;
    let mut tc = TierConfig::bind(vec![dram0]);
    tc.policy = AllocPolicy::interleave(vec![dram0], vec![cxl_fixed, cxl_leased], 1, 1);
    tc.capacity_override = vec![
        (dram0, dataset_bytes * 7 / 20),
        (NodeId(1), 0),
        (cxl_fixed, dataset_bytes * 2 / 5),
        (cxl_leased, 0),
    ];
    tc.migration = MigrationMode::HotPageSelection(HotPageConfig {
        promote_rate_limit_bytes_per_sec: 512.0 * 1024.0 * 1024.0,
        ..Default::default()
    });
    let kv_cfg = KvConfig {
        record_count,
        seed: derive_seed(cfg.seed, &format!("serve.kv.{}", tenant.name)),
        ..Default::default()
    };
    Some((KvStore::new(&topo, tc, kv_cfg, true), workload))
}

// ---------------------------------------------------------------------
// heap_dynamics
// ---------------------------------------------------------------------

/// One heap cell's placement/policy scheme.
#[derive(Debug, Clone, Copy)]
pub struct HeapSpec {
    /// Cell label.
    pub label: &'static str,
    rich: bool,
    streak: u32,
    segregate: bool,
    fault: bool,
    gc_cycles: Option<u32>,
}

/// The heap grid in `run_with` order.
pub fn heap_grid(p: &HeapStudyParams) -> Vec<HeapSpec> {
    let base = HeapSpec {
        label: "",
        rich: false,
        streak: 1,
        segregate: false,
        fault: false,
        gc_cycles: None,
    };
    let s = p.storm_streak;
    vec![
        HeapSpec {
            label: "dram-rich",
            rich: true,
            ..base
        },
        HeapSpec {
            label: "lean-default",
            ..base
        },
        HeapSpec {
            label: "lean-storm-aware",
            streak: s,
            ..base
        },
        HeapSpec {
            label: "lean-segregated",
            segregate: true,
            ..base
        },
        HeapSpec {
            label: "lean-seg-storm",
            streak: s,
            segregate: true,
            ..base
        },
        HeapSpec {
            label: "lean-fault",
            streak: s,
            fault: true,
            ..base
        },
        HeapSpec {
            label: "lean-no-gc",
            gc_cycles: Some(0),
            ..base
        },
    ]
}

/// A heap cell ready to run: its workload parameters, the sizing graph
/// the study builds first, and the cell's tier configuration.
pub struct HeapSetup {
    /// Workload parameters with the cell's seed and cycle count.
    pub heap: cxl_heap::HeapParams,
    /// The cell's tier configuration, sized off `graph`.
    pub tier: TierConfig,
    /// The graph the study builds to size capacities.
    pub graph: ObjectGraph,
}

/// The cell's seed, as `run_with` derives it.
pub fn heap_seed(p: &HeapStudyParams, spec: &HeapSpec) -> u64 {
    derive_seed(p.seed, &format!("heap/{}", spec.label))
}

/// Builds one heap cell's inputs (`ObjectGraph::build` plus sizing).
pub fn heap_setup(p: &HeapStudyParams, spec: &HeapSpec) -> HeapSetup {
    let seed = heap_seed(p, spec);
    let mut heap = p.heap.clone();
    heap.seed = seed;
    if let Some(cycles) = spec.gc_cycles {
        heap.mutator_ops_per_cycle *= u64::from(heap.gc_cycles) + 1;
        heap.gc_cycles = cycles;
    }
    let graph = ObjectGraph::build(&heap.graph, 4096, seed);
    let heap_pages = u64::from(graph.page_count) + heap.nursery_pages + 16;
    let tier = heap_tier_config(p, spec, heap_pages);
    HeapSetup { heap, tier, graph }
}

/// Runs a set-up heap cell (`HeapWorkload::new` + `run`).
pub fn heap_run(p: &HeapStudyParams, spec: &HeapSpec, setup: HeapSetup) -> HeapCell {
    let topo = Topology::paper_testbed(SncMode::Disabled);
    let fault = spec.fault.then(|| FaultPlan {
        cycle: p.fault_cycle,
        at_progress: p.fault_progress,
        node: expander(&topo),
    });
    let report = HeapWorkload::new(&topo, setup.tier, setup.heap, spec.segregate, fault).run();
    HeapCell {
        label: spec.label.to_string(),
        streak: spec.streak,
        segregated: spec.segregate,
        report,
    }
}

fn expander(topo: &Topology) -> NodeId {
    topo.nodes()
        .iter()
        .find(|n| n.tier == MemoryTier::CxlExpander)
        .expect("testbed has a CXL expander")
        .id
}

fn heap_tier_config(p: &HeapStudyParams, spec: &HeapSpec, heap_pages: u64) -> TierConfig {
    let topo = Topology::paper_testbed(SncMode::Disabled);
    let nodes = topo.nodes();
    let dram = nodes
        .iter()
        .find(|n| n.tier == MemoryTier::LocalDram)
        .expect("testbed has DRAM")
        .id;
    let cxl = expander(&topo);
    let spare = nodes
        .iter()
        .find(|n| n.tier == MemoryTier::CxlExpander && n.id != cxl)
        .map(|n| n.id);
    let others: Vec<NodeId> = nodes
        .iter()
        .filter(|n| n.id != dram && n.id != cxl)
        .map(|n| n.id)
        .collect();

    let mut cfg = TierConfig::bind(vec![dram]);
    let page = cfg.page_size;
    let dram_pages = if spec.rich {
        2 * heap_pages
    } else {
        ((heap_pages as f64 * p.dram_fraction) as u64).max(1)
    };
    cfg.policy = if spec.rich {
        AllocPolicy::Bind(vec![dram])
    } else {
        AllocPolicy::interleave(vec![dram], vec![cxl], 1, 3)
    };
    cfg.capacity_override = vec![(dram, dram_pages * page), (cxl, 2 * heap_pages * page)];
    for n in others {
        let cap = if spec.fault && Some(n) == spare {
            2 * heap_pages * page
        } else {
            0
        };
        cfg.capacity_override.push((n, cap));
    }
    cfg.allow_ssd_spill = spec.fault;
    cfg.migration = MigrationMode::HotPageSelection(HotPageConfig {
        balancing: NumaBalancingConfig {
            scan_period: SimTime::from_ms(p.scan_period_ms),
            scan_pages: 8192,
            hot_threshold: SimTime::from_ms(p.hot_threshold_ms),
            hint_fault_cost: SimTime::from_ns(300),
        },
        promote_rate_limit_bytes_per_sec: p.promote_rate_bytes_per_sec,
        dynamic_threshold: false,
        adjust_period: SimTime::from_ms(100),
        promote_after_faults: spec.streak,
    });
    cfg
}
