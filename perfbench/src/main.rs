//! Benchmark worker: runs one golden-gated study once, in its own
//! process, and reports what the harness (`perfbench/run.py`) measures.
//!
//! ```text
//! perfbench study --workload W --seed S --jobs 1 --out O [--metrics M]
//! perfbench setup --workload W --seed S --seconds T --out O
//! perfbench trace --workload W --seed S --out O --spans P [--metrics M]
//! perfbench probe --workload W --seconds T --out O
//! ```
//!
//! `study` and `trace` print the study's stdout exactly as its
//! `cxl-bench` binary does; everything else goes to the `--out` JSON.
//! `probe` times passes of the reference kernel (`probe.rs`) for `--seconds`
//! (at least one pass).
//! Workloads: `fig5`, `serve_dynamics`, `heap_dynamics`, `calibrate`.

mod cells;
mod probe;
mod render;
mod span;
mod studies;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use studies::Workload;

struct Args {
    mode: String,
    workload: Workload,
    name: String,
    seed: u64,
    jobs: usize,
    seconds: f64,
    out: PathBuf,
    metrics: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it
        .next()
        .ok_or("missing mode (study | setup | trace | probe)")?;
    if !matches!(mode.as_str(), "study" | "setup" | "trace" | "probe") {
        return Err(format!("unknown mode '{mode}'"));
    }
    let mut flags = BTreeMap::new();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| {
                matches!(
                    *k,
                    "workload" | "seed" | "jobs" | "seconds" | "out" | "metrics" | "spans"
                )
            })
            .ok_or(format!("unknown argument '{flag}'"))?;
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    let get = |k: &str| flags.get(k).cloned();
    let num = |k: &str, default: u64| -> Result<u64, String> {
        get(k).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{k} needs a whole number, got '{v}'"))
        })
    };
    let name = get("workload").ok_or("missing --workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?;
    let jobs = num("jobs", 1)? as usize;
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    // The studies read `CXL_JOBS` when no runner is passed; refuse a
    // run where the two would disagree.
    if let Ok(env) = std::env::var("CXL_JOBS") {
        if env.trim() != jobs.to_string() {
            return Err(format!("CXL_JOBS={env} disagrees with --jobs {jobs}"));
        }
    }
    Ok(Args {
        mode,
        workload,
        name,
        seed: num("seed", 42)?,
        jobs,
        seconds: get("seconds").map_or(Ok(0.0), |v| {
            v.parse::<f64>()
                .map_err(|_| format!("--seconds needs a number, got '{v}'"))
        })?,
        out: get("out").ok_or("missing --out")?.into(),
        metrics: get("metrics").map(Into::into),
        spans: get("spans").map(Into::into),
    })
}

/// Host seconds of set-ups between two passes of the reference kernel.
const SETUP_BURST_S: f64 = 0.2;

/// This thread's on-CPU and run-queue-wait seconds so far, from
/// `/proc/thread-self/schedstat`; zeros where the file is missing.
fn schedstat() -> (f64, f64) {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut f = text
        .split_whitespace()
        .map(|v| v.parse::<f64>().unwrap_or(0.0) * 1e-9);
    (f.next().unwrap_or(0.0), f.next().unwrap_or(0.0))
}

/// Peak resident memory of this process so far, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A JSON object from already-encoded values.
fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", serde_json::to_string(k).expect("key encodes")))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// A finite number as JSON (`null` otherwise).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON list of numbers.
fn list(values: Vec<f64>) -> String {
    let items: Vec<String> = values.into_iter().map(number).collect();
    format!("[{}]", items.join(","))
}

fn gates_json(gates: &[(&str, bool)]) -> String {
    object(gates.iter().map(|&(k, v)| (k, v.to_string())))
}

fn metrics_json(m: &[(&str, f64)]) -> String {
    object(m.iter().map(|&(k, v)| (k, number(v))))
}

fn run(a: &Args) -> String {
    match a.mode.as_str() {
        "study" => {
            if a.metrics.is_some() {
                cxl_obs::enable();
            }
            let (cpu0, wait0) = schedstat();
            let (study, wall_s) = studies::run(a.workload, a.seed, &cxl_core::Runner::new(a.jobs));
            let (cpu1, wait1) = schedstat();
            let rss = peak_rss_mb();
            if let Some(path) = &a.metrics {
                std::fs::write(path, cxl_obs::global().export_json())
                    .expect("write metrics export");
            }
            let outcome = study.outcome();
            println!("{}", outcome.stdout);
            object([
                ("wall_s", number(wall_s)),
                ("ops", outcome.ops.to_string()),
                ("gates", gates_json(&outcome.gates)),
                ("pinned", gates_json(&outcome.pinned)),
                ("cpu_s", number(cpu1 - cpu0)),
                ("runq_wait_s", number(wait1 - wait0)),
                ("peak_rss_mb", number(rss)),
            ])
        }
        "setup" => {
            // Bursts of set-ups, each followed by one pass of the
            // reference kernel, until `--seconds` pass (at least three
            // bursts of at least three set-ups).
            let t0 = Instant::now();
            let (mut samples, mut passes) = (Vec::new(), Vec::new());
            while passes.len() < 3 || t0.elapsed().as_secs_f64() < a.seconds {
                let b0 = Instant::now();
                let start = samples.len();
                while samples.len() - start < 3 || b0.elapsed().as_secs_f64() < SETUP_BURST_S {
                    samples.push(studies::setup_once(a.workload, a.seed));
                }
                passes.push(probe::run());
            }
            let spills = match a.workload {
                Workload::Serve => studies::serve_load_spills(a.seed).to_string(),
                _ => "null".into(),
            };
            object([
                ("setup_s", list(samples)),
                ("ref_s", list(passes)),
                ("load_spills", spills),
            ])
        }
        "probe" => {
            let t0 = Instant::now();
            let mut passes = vec![probe::run()];
            while t0.elapsed().as_secs_f64() < a.seconds {
                passes.push(probe::run());
            }
            object([("ref_s", list(passes))])
        }
        _ => {
            let (cpu0, wait0) = schedstat();
            let t = trace::run(a.workload, a.seed, &a.name, a.metrics.as_deref());
            let (cpu1, wait1) = schedstat();
            if let Some(path) = &a.spans {
                std::fs::write(path, t.recorder.to_jsonl()).expect("write spans");
            }
            println!("{}", t.outcome.stdout);
            object([
                ("wall_s", number(t.wall_s)),
                ("ops", t.outcome.ops.to_string()),
                ("gates", gates_json(&t.outcome.gates)),
                ("pinned", gates_json(&t.outcome.pinned)),
                ("metrics", metrics_json(&t.metrics)),
                ("cpu_s", number(cpu1 - cpu0)),
                ("runq_wait_s", number(wait1 - wait0)),
                ("peak_rss_mb", number(peak_rss_mb())),
            ])
        }
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = run(&args);
    if let Err(e) = std::fs::write(&args.out, out) {
        eprintln!("perfbench: cannot write {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
