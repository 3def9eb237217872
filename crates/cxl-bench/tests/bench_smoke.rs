//! Keeps `benches/speed.rs` honest from the default `cargo test` tier:
//! `cargo test` never executes `harness = false` bench targets, so
//! these smoke runs exercise the same workload functions at tiny sizes
//! — the benches can't rot into code that no CI path compiles *and*
//! runs.

use cxl_bench::speed;

#[test]
fn churn_workload_agrees_across_engines() {
    // The legacy copy and the arena engine must execute the same
    // events: same survivor count per wave, deterministic schedule.
    let arena = speed::churn_arena(3, 200);
    let legacy = speed::churn_legacy(3, 200);
    assert_eq!(arena, legacy, "churn workload diverged across engines");
    assert!(arena > 0, "churn executed nothing");
    // 1-in-KEEP_EVERY survives each wave of 200, over 3 waves.
    assert_eq!(arena, 30);
}

#[test]
fn solver_probe_slice_is_finite() {
    let acc = speed::solver_probe_slice(6);
    assert!(acc.is_finite() && acc > 0.0, "probe accumulator: {acc}");
}

#[test]
fn ycsb_gen_paths_agree() {
    // Batched and per-op generation draw the identical op stream, so
    // the key checksums must match exactly.
    let batched = speed::ycsb_gen_slice(5_000, true);
    let per_op = speed::ycsb_gen_slice(5_000, false);
    assert_eq!(batched, per_op, "generation paths diverged");
}

#[test]
fn tier_touch_slice_takes_hint_faults() {
    let checksum = speed::tier_touch_slice(20_000);
    assert!(checksum > 0, "touch slice took no hint faults");
    assert_eq!(checksum, speed::tier_touch_slice(20_000));
}

#[test]
fn fig5_slice_produces_throughput() {
    let tput = speed::fig5_slice(2_000, 1_000, 2_000);
    assert!(
        tput.is_finite() && tput > 0.0,
        "fig5 slice throughput: {tput}"
    );
}

#[test]
fn heap_gc_slice_runs_and_is_deterministic() {
    let a = speed::heap_gc_slice(3_000, 1);
    let b = speed::heap_gc_slice(3_000, 1);
    assert_eq!(a, b, "heap slice must be deterministic");
    // objects_traced > 0 folds in: the trace actually swept the heap.
    assert!(a > 3_000, "heap slice did no work: {a}");
}

#[test]
fn obs_record_slice_reaches_the_registry() {
    assert_eq!(speed::obs_record_slice(10_000), 10_000);
}

#[test]
fn binaries_exit_2_on_unknown_flags() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tab2"))
        .arg("--bogus")
        .output()
        .expect("tab2 runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "printed an artifact before rejecting"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument \"--bogus\""), "{stderr}");
}
