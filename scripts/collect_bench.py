#!/usr/bin/env python3
"""Assembles the per-PR bench trajectory file from criterion output.

Usage:
    CRITERION_JSON=/tmp/bench.jsonl cargo bench -p cxl-bench --bench speed
    python3 scripts/collect_bench.py /tmp/bench.jsonl results/BENCH_6.json

Reads the JSON-lines records the criterion shim appends per benchmark
(`{"id", "mean_ns", "iters"}`), keeps the last record per id (reruns
overwrite), and derives the headline ratios:

* `engine_churn_speedup` — legacy (pre-arena heap + side-map engine)
  over arena mean time on the identical churn workload,
* `solver_probe_ns_per_solve` — one 24-flow knob-probe solve (the
  `solver_probes` slice makes 64 solves per iteration),
* `ycsb_gen_speedup` — per-op YCSB generation over block generation
  with a live obs registry (the fig5-slice amortization),
* `tier_touch_ns_per_op` — one tier-manager touch under hot-page
  selection (the `tier_touch_per_op` slice makes 100k touches per
  iteration),
* `obs_ns_per_record` — one `cxl-obs` handle record into a live scope
  (the `obs_record` slice makes 1M records per iteration).
"""

import json
import sys


def main(src: str, dst: str) -> int:
    benches = {}
    with open(src) as f:
        for line in f:
            line = line.strip()
            if line:
                rec = json.loads(line)
                benches[rec["id"]] = rec

    def mean(bid):
        rec = benches.get(bid)
        return rec["mean_ns"] if rec else None

    def ratio(num, den):
        a, b = mean(num), mean(den)
        return round(a / b, 2) if a and b else None

    out = {
        "benches": {
            bid: {"mean_ns": rec["mean_ns"], "iters": rec["iters"]}
            for bid, rec in sorted(benches.items())
        },
        "derived": {
            "engine_churn_speedup": ratio(
                "speed/engine_churn_legacy", "speed/engine_churn_arena"
            ),
            "solver_probe_ns_per_solve": (
                round(mean("speed/solver_probes") / 64, 2)
                if mean("speed/solver_probes") else None
            ),
            "ycsb_gen_speedup": ratio("speed/ycsb_gen_per_op", "speed/ycsb_gen_batched"),
            "tier_touch_ns_per_op": (
                round(mean("speed/tier_touch_per_op") / 1e5, 2)
                if mean("speed/tier_touch_per_op") else None
            ),
            "obs_ns_per_record": (
                round(mean("speed/obs_record") / 1e6, 2) if mean("speed/obs_record") else None
            ),
        },
    }
    with open(dst, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {dst}: {out['derived']}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
