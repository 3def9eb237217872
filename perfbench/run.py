#!/usr/bin/env python3
"""Repo benchmark: the golden-gated studies timed end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig5 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fig5 --seed 1 --seconds 20 --trace 1

Builds the `perfbench` worker (perfbench/Cargo.toml) into
$CARGO_TARGET_DIR (default .bench_build), then runs every study
execution in a fresh worker process pinned to one worker
(`--jobs 1` and CXL_JOBS=1), so the process-global solve caches and
the metrics registry never carry over from one execution to the next.

--trace 0 times the study end to end and prints the end-to-end metrics
of BENCHMARK.json. Their host times are normalised: a fixed reference
kernel (perfbench/src/probe.rs) runs in its own process after every
study execution, for a fifth of that execution's time, and the run's
mean study time over its mean kernel time is scaled to a host on which
the kernel takes REF_S seconds. A host that runs slower for a while
slows both, so the ratio does not move with it.

--trace 1 runs the outside-in traced study (see perfbench/README.md)
and prints the per-layer metrics.

Every study execution is one checked output: at the committed seed (42)
its output must equal the committed artifact; at any seed the study
gates must hold and repeated executions must agree byte for byte. A failed check
is counted, never fatal. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COMMITTED_SEED = 42
WORKER_TIMEOUT_S = 170
MIN_REPS = 3
SETUP_SECONDS = 2.0
# Host speed the normalised times are scaled to: about the reference
# kernel's time on the 2-vCPU Xeon VM the bounds were set on.
REF_S = 0.1
# Seconds of reference kernel after each study execution, as a share of
# that execution's seconds (at least one pass).
PROBE_SHARE = 0.2

# Per workload: whether the study runs with a live metrics registry,
# and the committed artifacts its output is checked against at the
# committed seed.
WORKLOADS = {
    "fig5": {"metrics": False, "stdout": "results/fig5.txt"},
    "serve_dynamics": {
        "metrics": True,
        "golden": "results/golden/serve_dynamics_sim_metrics.json",
    },
    "heap_dynamics": {
        "metrics": True,
        "golden": "results/golden/heap_dynamics_sim_metrics.json",
    },
    "calibrate": {"metrics": False, "stdout": "results/calibrate.txt"},
}


def log(msg):
    print(f"# {msg}", file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


class Checks:
    """Counts checked outputs; a failure is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"check failed: {what}")
        return ok


def load_artifacts(workload):
    spec = WORKLOADS[workload]
    art = {}
    for key in ("stdout", "golden"):
        if key in spec:
            path = os.path.join(ROOT, spec[key])
            try:
                with open(path, "rb") as f:
                    art[key] = f.read()
            except OSError as e:
                raise SystemExit(f"perfbench: committed artifact missing: {e}")
    return art


def digest(stdout, sim):
    h = hashlib.sha256(stdout)
    if sim is not None:
        h.update(json.dumps(sim, sort_keys=True).encode())
    return h.hexdigest()


def build():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise SystemExit("perfbench: build failed")
    return os.path.join(ROOT, target, "release", "perfbench")


class Worker:
    """Runs the worker binary, one fresh process per study execution."""

    def __init__(self, binary, workload, outdir):
        self.binary = binary
        self.workload = workload
        self.outdir = outdir
        self.count = 0

    def run(self, mode, seed, metrics=False, extra=()):
        self.count += 1
        stem = os.path.join(self.outdir, f"{self.workload}-{mode}-{seed}-{self.count}")
        args = [self.binary, mode, "--workload", self.workload, "--seed", str(seed),
                "--out", stem + ".out.json", *extra]
        if mode in ("study", "trace"):
            args += ["--jobs", "1"]
        if metrics:
            args += ["--metrics", stem + ".metrics.json"]
        env = dict(os.environ, CXL_JOBS="1")
        try:
            r = subprocess.run(args, cwd=ROOT, env=env, capture_output=True,
                               timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"{mode} seed {seed}: worker timed out")
            return None
        if r.returncode != 0:
            log(f"{mode} seed {seed}: worker exited {r.returncode}: "
                f"{r.stderr.decode(errors='replace')[-400:]}")
            return None
        with open(stem + ".out.json") as f:
            out = json.load(f)
        out["stdout"] = r.stdout
        out["sim"] = None
        if metrics:
            with open(stem + ".metrics.json") as f:
                export = json.load(f)
            out["sim"] = export["sim"]
            out["export"] = export
        out["loadavg_1m"] = os.getloadavg()[0]
        return out

    def probe(self, seconds):
        """Seconds of each pass of the reference kernel, run in a fresh
        process for `seconds` (at least one pass)."""
        out = self.run("probe", 0, extra=["--seconds", str(seconds)])
        if out is None:
            raise SystemExit("perfbench: reference kernel failed")
        return out["ref_s"]


class Study:
    """Checked study executions of one workload."""

    def __init__(self, worker, workload, artifacts, checks):
        self.worker = worker
        self.workload = workload
        self.artifacts = artifacts
        self.checks = checks
        self.digests = {}
        self.stdouts = {}
        self.records = []

    def verify(self, out, seed, what):
        """One check per execution: the gates, agreement with earlier
        executions at the same seed and, at the committed seed, the
        committed artifacts and the gates pinned to that seed."""
        if out is None:
            return self.checks.check(False, f"{what} seed {seed}: no output")
        ok = all(out["gates"].values())
        if not ok:
            log(f"{what} seed {seed}: gates {out['gates']}")
        pinned_ok = all(out["pinned"].values())
        if not pinned_ok:
            log(f"{what} seed {seed}: committed-seed gates {out['pinned']}")
        d = digest(out["stdout"], out["sim"])
        if seed == COMMITTED_SEED:
            ok = ok and pinned_ok
            if "stdout" in self.artifacts and out["stdout"] != self.artifacts["stdout"]:
                log(f"{what}: stdout differs from the committed artifact")
                ok = False
            if "golden" in self.artifacts and out["sim"] is not None:
                if out["sim"] != json.loads(self.artifacts["golden"]):
                    log(f"{what}: sim section differs from the committed golden")
                    ok = False
        if self.digests.setdefault((seed, out["sim"] is not None), d) != d:
            log(f"{what} seed {seed}: output differs from an earlier execution")
            ok = False
        if self.stdouts.setdefault(seed, out["stdout"]) != out["stdout"]:
            log(f"{what} seed {seed}: stdout differs from an earlier execution")
            ok = False
        return self.checks.check(ok, f"{what} seed {seed}")

    def execute(self, mode, seed, metrics, what, extra=()):
        out = self.worker.run(mode, seed, metrics=metrics, extra=extra)
        self.verify(out, seed, what)
        if out is not None:
            self.records.append({
                "what": what, "seed": seed, "wall_s": out["wall_s"],
                "cpu_s": out["cpu_s"], "runq_wait_s": out["runq_wait_s"],
                "peak_rss_mb": out["peak_rss_mb"], "loadavg_1m": out["loadavg_1m"],
            })
        return out

    def probed(self, seed, metrics, what):
        """A study execution followed by reference-kernel passes for
        PROBE_SHARE of its time; the passes are kept in `ref_s`."""
        out = self.execute("study", seed, metrics, what)
        if out is not None:
            out["ref_s"] = self.worker.probe(PROBE_SHARE * out["wall_s"])
            self.records[-1]["ref_s"] = statistics.mean(out["ref_s"])
        return out


def runq_frac(out):
    total = out["cpu_s"] + out["runq_wait_s"]
    return out["runq_wait_s"] / total if total > 0 else 0.0


def normalised(seconds, ref_s):
    """Host seconds scaled to a host whose reference kernel takes REF_S."""
    return seconds * REF_S / ref_s


def mean_pass(outs):
    return statistics.mean(p for o in outs for p in o["ref_s"])


def timed(study, spec, seed, seconds):
    """End-to-end metrics over fresh-process executions, normalised by
    the reference-kernel passes run between them."""
    worker = study.worker
    metrics_on = spec["metrics"]
    if seed != COMMITTED_SEED:
        study.execute("study", COMMITTED_SEED, metrics_on, "committed-seed check")
    setup = worker.run("setup", seed, extra=["--seconds", str(SETUP_SECONDS)])
    if setup is None:
        raise SystemExit("perfbench: set-up timing failed")
    reps = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        out = study.probed(seed, metrics_on, f"timed rep {len(reps)}")
        if out is None:
            break
        reps.append(out)
    if not reps:
        raise SystemExit("perfbench: no study execution finished")
    if setup["load_spills"] is not None:
        # The set-up times a restated copy of the serving store builder;
        # its load-time SSD spills must match the study's.
        spills = reps[0]["sim"].get("tier/ssd_spills", {}).get("value", 0)
        study.checks.check(setup["load_spills"] == spills,
                           f"serve_kv_store spills {setup['load_spills']}, study {spills}")
    # A ratio of means: on recorded runs it spread less than the median
    # of per-execution ratios or the ratio of medians.
    ref = mean_pass(reps)
    wall = normalised(statistics.mean(r["wall_s"] for r in reps), ref)
    setup_s = normalised(median(setup["setup_s"]), statistics.mean(setup["ref_s"]))
    log(f"{len(reps)} reps, wall_s {[round(r['wall_s'], 4) for r in reps]}, "
        f"mean kernel pass {ref:.4f} s; {len(setup['setup_s'])} set-ups, median "
        f"{median(setup['setup_s']):.6f} s, mean kernel pass {statistics.mean(setup['ref_s']):.4f} s")
    return {
        "norm_wall_s": wall,
        "norm_sim_ops_per_s": reps[0]["ops"] / wall,
        "setup_s": setup_s,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }


def histogram_samples(export):
    return sum(v.get("count", 0) for section in ("sim", "wall")
               for v in export.get(section, {}).values() if v.get("type") == "histogram")


def traced(study, spec, seed, outdir):
    """Per-layer metrics: untraced executions, then one traced one."""
    metrics_on = spec["metrics"]
    untraced = [study.probed(seed, metrics_on, f"untraced rep {i}") for i in range(MIN_REPS)]
    untraced = [u for u in untraced if u is not None]
    if not untraced:
        raise SystemExit("perfbench: no untraced execution finished")
    wall = median([u["wall_s"] for u in untraced])
    m = {}
    if metrics_on:
        bare = [study.execute("study", seed, False, f"no-registry rep {i}") for i in range(2)]
        bare = [b for b in bare if b is not None]
        bare_wall = median([b["wall_s"] for b in bare]) if bare else wall
        records = histogram_samples(untraced[0]["export"])
        m["obs.records"] = records
        m["obs.tax_frac"] = wall / bare_wall - 1
        m["obs.ns_per_record"] = (wall - bare_wall) * 1e9 / records if records else 0.0
    else:
        m.update({"obs.records": 0, "obs.tax_frac": 0.0, "obs.ns_per_record": 0.0})
    spans = os.path.join(outdir, f"{study.workload}-{seed}-spans.jsonl")
    t = study.execute("trace", seed, metrics_on, "traced run", extra=["--spans", spans])
    if t is None:
        raise SystemExit("perfbench: traced run failed")
    m.update(t["metrics"])
    events = (t["sim"] or {}).get("sim/events_executed", {}).get("value", 0)
    m["sim.engine.events"] = events
    m["trace.overhead_frac"] = t["wall_s"] / wall - 1
    m["host.runq_wait_frac"] = median([runq_frac(u) for u in untraced])
    m["host.wall_s"] = wall
    m["host.ref_s"] = mean_pass(untraced)
    m["host.loadavg_1m"] = median([r["loadavg_1m"] for r in study.records])
    log(f"spans written to {os.path.relpath(spans, ROOT)}")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = bench["per_layer"] if a.trace else bench["end_to_end"]
    spec = WORKLOADS[a.workload]
    artifacts = load_artifacts(a.workload)
    binary = build()
    outdir = os.path.join(ROOT, ".bench_out")
    os.makedirs(outdir, exist_ok=True)

    checks = Checks()
    study = Study(Worker(binary, a.workload, outdir), a.workload, artifacts, checks)
    if a.trace:
        values = traced(study, spec, a.seed, outdir)
        values["check.error_rate"] = checks.failed / max(checks.attempted, 1)
    else:
        values = timed(study, spec, a.seed, a.seconds)
    with open(os.path.join(outdir, "runs.jsonl"), "a") as f:
        for r in study.records:
            f.write(json.dumps({"workload": a.workload, **r}) + "\n")

    d = study.digests.get((a.seed, spec["metrics"]))
    if d is not None:
        print(f"digest {a.workload} seed {a.seed}: {d}")
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise SystemExit(f"perfbench: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
