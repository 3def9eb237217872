//! Stdout renderers for the four studies.
//!
//! Each function returns exactly the text the matching `cxl-bench`
//! binary prints in plain-text mode, so a run's stdout can be compared
//! byte for byte with the committed `results/*.txt` artifact.

use cxl_bench::{figure_text, shape_line};
use cxl_core::experiments::calib::CalibStudy;
use cxl_core::experiments::heap::HeapStudy;
use cxl_core::experiments::keydb::KeydbStudy;
use cxl_core::experiments::serve::ServeStudy;
use cxl_core::CapacityConfig;
use cxl_ycsb::Workload;

/// The `fig5` binary's stdout for `study`.
pub fn fig5(study: &KeydbStudy) -> String {
    let mut out = String::new();
    out.push_str(&figure_text(&study.fig5a()));
    out.push('\n');
    out.push_str(&study.fig5b().render());
    out.push('\n');
    out.push_str(&figure_text(&study.fig5c()));
    out.push('\n');

    let t = |c| study.throughput(c, Workload::C);
    let mmem = t(CapacityConfig::Mmem);
    out.push_str("# shape check (paper §4.1.2 vs this run, YCSB-C)\n");
    out.push_str(&shape_line(
        "MMEM is fastest",
        "yes",
        format!(
            "{}",
            CapacityConfig::all().iter().all(|&c| t(c) <= mmem * 1.0001)
        ),
    ));
    out.push('\n');
    let hp = t(CapacityConfig::HotPromote);
    out.push_str(&shape_line(
        "Hot-Promote vs MMEM",
        "nearly as well",
        format!("{:.1}% of MMEM", 100.0 * hp / mmem),
    ));
    out.push('\n');
    for (c, label) in [
        (CapacityConfig::Interleave31, "3:1"),
        (CapacityConfig::Interleave11, "1:1"),
        (CapacityConfig::Interleave13, "1:3"),
    ] {
        out.push_str(&shape_line(
            &format!("interleave {label} slowdown"),
            "1.2-1.5x",
            format!("{:.2}x", mmem / t(c)),
        ));
        out.push('\n');
    }
    for (c, label) in [
        (CapacityConfig::MmemSsd02, "MMEM-SSD-0.2"),
        (CapacityConfig::MmemSsd04, "MMEM-SSD-0.4"),
    ] {
        out.push_str(&shape_line(
            &format!("{label} slowdown"),
            "~1.8x",
            format!("{:.2}x", mmem / t(c)),
        ));
        out.push('\n');
    }
    out
}

/// The `serve_dynamics` binary's stdout for `study`.
pub fn serve(study: &ServeStudy) -> String {
    let mut out = String::new();
    out.push_str(&study.table().render());
    out.push('\n');

    out.push_str("# shape check (adaptive serving vs this run)\n");
    let adaptive = &study.adaptive().report;
    let peak = &study.cell("static-peak").report;
    let lean = &study.cell("static-lean").report;
    out.push_str(&shape_line(
        "adaptive beats static-peak on tail AND cost",
        "yes",
        format!(
            "{} (p99/slo {:.2} vs {:.2}, cost/kreq {:.2} vs {:.2})",
            study.adaptive_beats_on_both("static-peak"),
            adaptive.worst_slo_frac(),
            peak.worst_slo_frac(),
            1_000.0 * adaptive.cost_per_request,
            1_000.0 * peak.cost_per_request,
        ),
    ));
    out.push('\n');
    out.push_str(&shape_line(
        "adaptive holds every SLO through the fault",
        "p99/slo < 1",
        format!("{:.2}", adaptive.worst_slo_frac()),
    ));
    out.push('\n');
    out.push_str(&shape_line(
        "static-lean blows the SLO post-fault",
        "p99/slo > 1",
        format!("{:.2}", lean.worst_slo_frac()),
    ));
    out.push('\n');
    out.push_str(&shape_line(
        "nominal load is never shed or rejected",
        "0",
        format!("{} shed, {} rejected", adaptive.shed, adaptive.rejected),
    ));
    out.push('\n');
    let overload = &study.cell("overload").report;
    out.push_str(&shape_line(
        "overloaded admission sheds and rejects",
        "> 0",
        format!(
            "{} shed, {} rejected ({:.0}% of arrivals dropped)",
            overload.shed,
            overload.rejected,
            100.0 * overload.drop_fraction()
        ),
    ));
    out.push('\n');
    out.push_str(&shape_line(
        "autoscaler releases leases on the night trough",
        "> 0 shrinks",
        adaptive.lease_shrinks,
    ));
    out.push('\n');
    out.push_str(&shape_line(
        "lease guardrail violations",
        "0",
        study.total_guardrail_violations(),
    ));
    out.push('\n');
    out
}

/// The `heap_dynamics` binary's stdout for `study`.
pub fn heap(study: &HeapStudy) -> String {
    let mut out = String::new();
    out.push_str(&study.table().render());
    out.push('\n');

    out.push_str("# shape check (GC on tiered memory vs this run)\n");
    out.push_str(&shape_line(
        "DRAM-rich baseline sees no promotion storm",
        "storm ~ 0",
        format!("{:.4} promos/obj", study.storm("dram-rich")),
    ));
    out.push('\n');
    out.push_str(&shape_line(
        "lean default policy storms on every trace",
        "storm >> 0",
        format!("{:.4} promos/obj", study.storm("lean-default")),
    ));
    out.push('\n');
    out.push_str(&shape_line(
        "storm-aware streak suppresses the storm",
        "> 4x fewer trace promotions",
        format!("{:.1}x", study.storm_reduction()),
    ));
    out.push('\n');
    out.push_str(&shape_line(
        "storms hurt the *resumed mutator*, not just the trace",
        "post-GC p99 ratio > 1",
        format!("{:.2}x", study.post_gc_recovery()),
    ));
    out.push('\n');
    out.push_str(&shape_line(
        "trace-phase p99 blowup recovered by the streak filter",
        "default > 2x storm-aware",
        format!(
            "{:.2} vs {:.2} us",
            study.trace_p99_ns("lean-default") / 1_000.0,
            study.trace_p99_ns("lean-storm-aware") / 1_000.0
        ),
    ));
    out.push('\n');
    out.push_str(&shape_line(
        "generational segregation alone is not hotness segregation",
        "storm persists",
        format!(
            "{:.4} vs {:.4} promos/obj (the hot set is tenured)",
            study.storm("lean-segregated"),
            study.storm("lean-default")
        ),
    ));
    out.push('\n');
    let p99 = |l: &str| {
        study
            .cell(l)
            .report
            .mutator
            .try_tail()
            .map(|t| t.2)
            .unwrap_or(0) as f64
            / 1_000.0
    };
    out.push_str(&shape_line(
        "segregation + streak together give the best mutator p99",
        "seg-storm < default",
        format!(
            "{:.2} vs {:.2} us",
            p99("lean-seg-storm"),
            p99("lean-default")
        ),
    ));
    out.push('\n');
    let fault = &study.cell("lean-fault").report;
    out.push_str(&shape_line(
        "mid-trace expander fault strands nothing",
        "0 pages",
        format!(
            "{} stranded ({} evacuated)",
            fault.stranded_pages,
            fault
                .evacuation
                .as_ref()
                .map(|e| e.total_pages())
                .unwrap_or(0)
        ),
    ));
    out.push('\n');
    out.push_str(&shape_line(
        "no-GC control never traces, never storms",
        "0 trace promotions",
        study.cell("lean-no-gc").report.trace_promotions,
    ));
    out.push('\n');
    out
}

/// The `calibrate` binary's stdout for `study`.
pub fn calibrate(study: &CalibStudy) -> String {
    let mut out = String::new();
    out.push_str(&study.table().render());
    out.push('\n');
    out.push_str(&study.delta_table().render());
    out.push('\n');

    out.push_str("# shape check (calibration expectations vs this run)\n");
    out.push_str(&shape_line(
        "shipped defaults sit on the paper's §3 surface unfitted",
        "max residual well under tolerance",
        format!(
            "{:.3}% max",
            study.cell("paper_s3").shipped.max_residual_pct
        ),
    ));
    out.push('\n');
    out.push_str(&shape_line(
        "fit returns to the §3 surface from a perturbed start",
        "fitted <= 5% tolerance",
        format!(
            "{:.3}% from {:.1}% start",
            study.cell("paper_s3").fitted.max_residual_pct,
            study.cell("paper_s3").start.max_residual_pct
        ),
    ));
    out.push('\n');
    out.push_str(&shape_line(
        "external stand-ins are NOT the shipped defaults",
        "shipped residual far above tolerance",
        format!(
            "slow_asic {:.1}%, cxl2_switch {:.1}% shipped",
            study.cell("slow_asic").shipped.max_residual_pct,
            study.cell("cxl2_switch").shipped.max_residual_pct
        ),
    ));
    out.push('\n');
    out.push_str(&shape_line(
        "fitter recovers the slow ASIC's controller scale",
        "~ 2.2x (generating value)",
        format!(
            "{:.3}x",
            study.fitted_value("slow_asic", "controller_latency_scale")
        ),
    ));
    out.push('\n');
    // Hop and controller latency are nearly degenerate on a
    // single-device path (only their sum is identified), so gate
    // on the residual, not on either knob alone.
    out.push_str(&shape_line(
        "switch pool fits despite the hop/controller degeneracy",
        "fitted <= 6% tolerance",
        format!(
            "{:.3}% (hop {:.2}x, ctrl {:.2}x)",
            study.cell("cxl2_switch").fitted.max_residual_pct,
            study.fitted_value("cxl2_switch", "switch_hop_scale"),
            study.fitted_value("cxl2_switch", "controller_latency_scale")
        ),
    ));
    out.push('\n');
    out.push_str(&shape_line(
        "every target lands inside its pinned tolerance",
        "all within",
        if study.all_within_tolerance() {
            "yes"
        } else {
            "NO"
        },
    ));
    out.push('\n');
    out
}
