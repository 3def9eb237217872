//! Cells recording into the enabled global registry from `Runner`
//! workers: every worker's shard must reach the export, so the `sim`
//! section cannot depend on the worker count.
//!
//! The only test in this binary, so it owns the process-global
//! registry.

use cxl_core::experiments::keydb;
use cxl_core::Runner;

static CELL_OPS: cxl_obs::Counter = cxl_obs::Counter::new("test/cell_ops");
static CELL_PEAK: cxl_obs::Max = cxl_obs::Max::new("test/cell_peak");
static CELL_LATENCY: cxl_obs::Hist = cxl_obs::Hist::new("test/cell_latency_ns");

fn global_sim_export(jobs: usize) -> String {
    let runner = Runner::new(jobs);
    cxl_obs::global().reset();
    cxl_obs::enable();
    runner.map((0..64u64).collect(), |cell| {
        for i in 0..1_000 {
            CELL_OPS.add(1);
            CELL_PEAK.raise(cell * 1_000 + i);
            CELL_LATENCY.record((cell * 7_919 + i * 31) % 50_000);
        }
    });
    keydb::run_with(
        &runner,
        keydb::Fig5Params {
            record_count: 10_000,
            ops: 4_000,
            warmup_ops: 0,
            seed: 42,
        },
    );
    cxl_obs::disable();
    cxl_obs::global().export_sim_json()
}

#[test]
fn parallel_cells_into_the_global_registry_export_like_serial_ones() {
    let serial = global_sim_export(1);
    for name in ["test/cell_latency_ns", "kv/op_sojourn_ns", "runner/cells"] {
        assert!(serial.contains(name), "{name} missing:\n{serial}");
    }
    assert_eq!(
        serial,
        global_sim_export(8),
        "sim export diverged across --jobs"
    );
}
