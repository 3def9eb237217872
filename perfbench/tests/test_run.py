"""Tests of the benchmark harness.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

They build the worker like the benchmark does and use the fast
`calibrate` workload, except the span test, which needs the Fig. 5
trace (about ten seconds).
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SCRATCH = os.path.join(ROOT, ".bench_out", "tests")

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402


def bench(*args):
    r = subprocess.run([sys.executable, RUN, *args], cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        raise AssertionError(f"run.py exited {r.returncode}: {r.stderr[-2000:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class CorruptedArtifact(unittest.TestCase):
    def test_corrupted_artifact_counts_every_execution_as_failed(self):
        load = run.load_artifacts

        def corrupted(workload):
            art = load(workload)
            text = bytearray(art["stdout"])
            text[len(text) // 2] ^= 0x01
            art["stdout"] = bytes(text)
            return art

        argv = ["run.py", "--workload", "calibrate", "--seed", "42", "--seconds", "1",
                "--trace", "0"]
        stdout = io.StringIO()
        with mock.patch.object(run, "load_artifacts", corrupted), \
                mock.patch.object(sys, "argv", argv), contextlib.redirect_stdout(stdout):
            run.main()
        out = json.loads(stdout.getvalue().strip().splitlines()[-1])
        self.assertFalse(out["correct"])
        self.assertGreaterEqual(out["attempted"], run.MIN_REPS)
        self.assertEqual(out["failed"], out["attempted"], "error_rate must be 1")
        names = {m["name"] for m in declared()["end_to_end"]}
        self.assertEqual(set(out["metrics"]), names, "every metric still prints")

    def test_checks_count_failures_without_raising(self):
        c = run.Checks()
        c.check(True, "ok")
        c.check(False, "mismatch")
        self.assertEqual((c.attempted, c.failed), (2, 1))


class MetricNames(unittest.TestCase):
    def test_every_declared_metric_prints_with_its_unit(self):
        bench_json = declared()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = bench("--workload", "calibrate", "--seed", "42", "--seconds", "1",
                        "--trace", str(trace))
            self.assertTrue(out["correct"])
            self.assertEqual(out["failed"], 0)
            want = {m["name"]: m["unit"] for m in bench_json[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            self.assertEqual(got, want, f"--trace {trace}")
            for k, v in out["metrics"].items():
                self.assertIsInstance(v["value"], (int, float), k)


class Normalisation(unittest.TestCase):
    def test_a_host_twice_as_slow_gives_the_same_normalised_time(self):
        self.assertAlmostEqual(run.normalised(0.3, run.REF_S),
                               run.normalised(0.6, 2 * run.REF_S))

    def test_set_up_and_probe_report_their_kernel_passes(self):
        os.makedirs(SCRATCH, exist_ok=True)
        worker = run.Worker(run.build(), "calibrate", SCRATCH)
        out = worker.run("setup", 42, extra=["--seconds", "0.5"])
        self.assertIsNotNone(out)
        self.assertGreaterEqual(len(out["ref_s"]), 3)
        self.assertGreaterEqual(len(out["setup_s"]), 3 * len(out["ref_s"]))
        self.assertTrue(all(r > 0 for r in out["ref_s"]))
        self.assertEqual(len(worker.probe(0)), 1, "at least one pass")
        self.assertGreater(len(worker.probe(0.3)), 1)


class Spans(unittest.TestCase):
    def test_fig5_replayed_children_fit_inside_their_parent(self):
        binary = run.build()
        os.makedirs(SCRATCH, exist_ok=True)
        spans_path = os.path.join(SCRATCH, "fig5-spans.jsonl")
        out_path = os.path.join(SCRATCH, "fig5-trace.json")
        r = subprocess.run(
            [binary, "trace", "--workload", "fig5", "--seed", "42", "--jobs", "1",
             "--out", out_path, "--spans", spans_path],
            cwd=ROOT, capture_output=True, env=dict(os.environ, CXL_JOBS="1"))
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        with open(os.path.join(ROOT, "results", "fig5.txt"), "rb") as f:
            self.assertEqual(r.stdout, f.read(), "traced study reproduces the artifact")
        with open(spans_path) as f:
            spans = [json.loads(line) for line in f]
        children = {}
        for s in spans:
            self.assertGreaterEqual(s["end_ns"], s["start_ns"])
            self.assertEqual(s["workload"], "fig5")
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        runs = [s for s in spans if s["name"] == "kv.run"]
        self.assertEqual(len(runs), 28)
        for s in runs:
            kids = children.get(s["id"], [])
            self.assertEqual({k["name"] for k in kids},
                             {"ycsb.next_op", "tier.touch", "tier.tick",
                              "tier.drain_epoch", "perf.solve"})
            span = s["end_ns"] - s["start_ns"]
            replayed = sum(k["end_ns"] - k["start_ns"] for k in kids)
            self.assertLessEqual(replayed, span, f"kv.run span {s['id']}")
        with open(out_path) as f:
            metrics = json.load(f)["metrics"]
        self.assertGreaterEqual(metrics["kv.self.ns_per_op"], 0)
        self.assertEqual(metrics["trace.overfull_spans"], 0)


if __name__ == "__main__":
    unittest.main()
