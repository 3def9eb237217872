#![warn(missing_docs)]

//! Shared output helpers for the table/figure regeneration binaries.
//!
//! Every binary prints the paper artifact as aligned text; passing
//! `--json` switches to a machine-readable dump. Run them with, e.g.:
//!
//! ```text
//! cargo run --release -p cxl-bench --bin fig3
//! cargo run --release -p cxl-bench --bin fig5 -- --json
//! ```

use serde::Serialize;

pub mod speed;

/// True when `--json` was passed on the command line.
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Builds the experiment runner for a regeneration binary.
///
/// Worker count precedence: `--jobs N` (or `--jobs=N`) on the command
/// line, then the `CXL_JOBS` environment variable, then the machine's
/// available parallelism. Output is bit-identical for any value. A
/// malformed `--jobs` (see [`parse_jobs`]) prints the reason and exits
/// with status 2.
pub fn runner_from_args() -> cxl_core::Runner {
    match parse_jobs(std::env::args().skip(1)) {
        Ok(Some(n)) => cxl_core::Runner::new(n),
        Ok(None) => cxl_core::Runner::from_env(),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// The worker count the first `--jobs N` / `--jobs=N` in `args` asks
/// for, or `None` when there is none.
///
/// # Errors
///
/// A zero, non-numeric or missing operand.
pub fn parse_jobs<I, S>(args: I) -> Result<Option<usize>, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let operand = match a.as_ref() {
            "--jobs" => args.next().map(|v| v.as_ref().to_string()),
            a => match a.strip_prefix("--jobs=") {
                Some(v) => Some(v.to_string()),
                None => continue,
            },
        };
        let Some(v) = operand else {
            return Err("--jobs needs a worker count".into());
        };
        return jobs_operand(&v).map(Some);
    }
    Ok(None)
}

fn jobs_operand(v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(0) => Err("--jobs must be at least 1".into()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("--jobs expects a positive integer, got {v:?}")),
    }
}

/// Checks a regeneration binary's arguments (program name excluded):
/// `--jobs N`, `--metrics PATH` (or their `=` forms), `--json` and
/// `--chart`, each operand present and every `--jobs` a positive
/// integer.
///
/// # Errors
///
/// Any other argument, or a missing or malformed operand.
pub fn check_args<I, S>(args: I) -> Result<(), String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_ref() {
            "--json" | "--chart" => {}
            "--jobs" => {
                let v = args.next().ok_or("--jobs needs a worker count")?;
                jobs_operand(v.as_ref())?;
            }
            "--metrics" => {
                args.next().ok_or("--metrics needs a path")?;
            }
            a => {
                if let Some(v) = a.strip_prefix("--jobs=") {
                    jobs_operand(v)?;
                } else if !a.starts_with("--metrics=") {
                    return Err(format!(
                        "unknown argument {a:?} (accepted: --jobs N, --metrics PATH, --json, --chart)"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Destination of the metrics export, from `--metrics <path>`,
/// `--metrics=<path>`, or the `CXL_METRICS` environment variable (flag
/// wins). `None` disables metrics collection entirely.
pub fn metrics_path() -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--metrics" {
            if let Some(p) = args.next() {
                return Some(p.into());
            }
        } else if let Some(p) = a.strip_prefix("--metrics=") {
            return Some(p.into());
        }
    }
    std::env::var("CXL_METRICS")
        .ok()
        .filter(|v| !v.trim().is_empty())
        .map(Into::into)
}

/// Validates the command line, then enables metrics collection when a
/// destination is configured and exports the registry when dropped.
///
/// Arguments [`check_args`] rejects print the reason and exit with
/// status 2. Call at the top of every regeneration binary's `main`:
///
/// ```no_run
/// let _metrics = cxl_bench::metrics_guard();
/// ```
///
/// With no `--metrics`/`CXL_METRICS`, collection stays disabled and the
/// instrumentation throughout the simulation crates remains a no-op.
#[must_use = "the guard exports metrics when dropped"]
pub fn metrics_guard() -> MetricsGuard {
    if let Err(e) = check_args(std::env::args().skip(1)) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let path = metrics_path();
    if path.is_some() {
        cxl_obs::enable();
    }
    MetricsGuard { path }
}

/// RAII handle returned by [`metrics_guard`]; writes the JSON export on
/// drop, and exits the process with status 1 if the write fails.
#[derive(Debug)]
pub struct MetricsGuard {
    path: Option<std::path::PathBuf>,
}

impl Drop for MetricsGuard {
    fn drop(&mut self) {
        let Some(path) = self.path.take() else {
            return;
        };
        let json = cxl_obs::global().export_json();
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("# metrics written to {}", path.display()),
            Err(e) => {
                eprintln!("error: failed to write metrics to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

/// True when `--chart` was passed on the command line.
pub fn chart_mode() -> bool {
    std::env::args().any(|a| a == "--chart")
}

/// Renders a figure either as an ASCII chart (with `--chart`) or as its
/// plain `x y` listing.
pub fn figure_text(fig: &cxl_stats::report::Figure) -> String {
    if chart_mode() {
        cxl_stats::chart::render_chart(fig, 72, 20)
    } else {
        fig.render()
    }
}

/// Prints a serializable report either as JSON (with `--json`) or via
/// the provided text renderer.
pub fn emit<T: Serialize>(value: &T, text: impl FnOnce() -> String) {
    if json_mode() {
        println!(
            "{}",
            serde_json::to_string_pretty(value).expect("report serializes")
        );
    } else {
        println!("{}", text());
    }
}

/// Formats a `paper vs measured` comparison line for the shape summary
/// each binary appends.
pub fn shape_line(what: &str, paper: &str, measured: impl std::fmt::Display) -> String {
    format!("  {what:<58} paper: {paper:<18} measured: {measured}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_line_contains_fields() {
        let l = shape_line("MMEM idle latency", "97 ns", "97.0 ns");
        assert!(l.contains("97 ns"));
        assert!(l.contains("measured"));
    }

    #[test]
    fn jobs_flag_forms_parse() {
        assert_eq!(parse_jobs(["--json"]), Ok(None));
        assert_eq!(parse_jobs(["--jobs", "8"]), Ok(Some(8)));
        assert_eq!(parse_jobs(["--chart", "--jobs=3"]), Ok(Some(3)));
        // The first --jobs decides.
        assert_eq!(parse_jobs(["--jobs", "2", "--jobs", "x"]), Ok(Some(2)));
    }

    #[test]
    fn bad_jobs_operands_are_rejected() {
        for args in [
            &["--jobs", "0"][..],
            &["--jobs=0"],
            &["--jobs", "many"],
            &["--jobs=-1"],
            &["--jobs", "--metrics"],
            &["--jobs="],
            &["--jobs"],
        ] {
            assert!(parse_jobs(args).is_err(), "{args:?} accepted");
        }
    }

    #[test]
    fn accepted_flags_pass_the_check() {
        assert_eq!(check_args(Vec::<String>::new()), Ok(()));
        assert_eq!(
            check_args([
                "--json",
                "--chart",
                "--jobs",
                "2",
                "--jobs=3",
                "--metrics",
                "m.json",
                "--metrics=n.json",
            ]),
            Ok(())
        );
    }

    #[test]
    fn unknown_flags_and_bad_operands_are_rejected() {
        for args in [
            &["--verbose"][..],
            &["fig5"],
            &["--json", "-j", "4"],
            &["--jobs", "8", "--jobz", "2"],
            &["--metrics"],
            &["--jobs"],
            &["--jobs", "0"],
            &["--jobs=x"],
            &["--jobs", "2", "--jobs", "x"],
        ] {
            assert!(check_args(args).is_err(), "{args:?} accepted");
        }
        let err = check_args(["--jsn"]).unwrap_err();
        assert!(err.contains("unknown argument \"--jsn\""), "{err}");
    }
}
