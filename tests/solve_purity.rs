//! `cxl-perf` solves are pure: a result depends only on the system and
//! the flow set, never on what was solved before. Nothing here resets
//! or reads process state, so these tests run alongside any others.

use cxl_repro::mlc::{Mlc, MlcConfig};
use cxl_repro::perf::{Distance, MemSystem};
use cxl_repro::topology::{SncMode, Topology};

fn panel(mlc: &Mlc, sys: &MemSystem, d: Distance) -> String {
    serde_json::to_string(&mlc.fig3_panel(sys, d)).unwrap()
}

#[test]
fn repeated_fig3_sweep_is_bit_identical() {
    let sys = MemSystem::new(&Topology::paper_testbed(SncMode::Snc4));
    let mlc = Mlc::new(MlcConfig::default());
    let distances = [
        Distance::LocalDram,
        Distance::RemoteDram,
        Distance::LocalCxl,
        Distance::RemoteCxl,
    ];
    let first: Vec<String> = distances.iter().map(|&d| panel(&mlc, &sys, d)).collect();
    let second: Vec<String> = distances.iter().map(|&d| panel(&mlc, &sys, d)).collect();
    assert_eq!(
        first, second,
        "a repeated sweep must not change the figures"
    );
}

#[test]
fn distinct_systems_do_not_collide() {
    // SNC-off solves after SNC-4 solves of the same panel must equal a
    // sweep on a freshly built SNC-off system: one system's solves
    // cannot leak into another's.
    let mlc = Mlc::new(MlcConfig::default());
    let fresh = panel(
        &mlc,
        &MemSystem::new(&Topology::paper_testbed(SncMode::Disabled)),
        Distance::LocalCxl,
    );

    let snc4 = MemSystem::new(&Topology::paper_testbed(SncMode::Snc4));
    let snc_off = MemSystem::new(&Topology::paper_testbed(SncMode::Disabled));
    let _ = panel(&mlc, &snc4, Distance::LocalCxl);
    let after_snc4 = panel(&mlc, &snc_off, Distance::LocalCxl);
    assert_eq!(fresh, after_snc4, "earlier solves must not alter results");
}
