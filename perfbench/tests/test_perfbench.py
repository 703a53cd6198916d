"""Smoke tests of the repository benchmark, at one-second runs.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root (the first run builds .bench_build/).  They
check the contract with BENCHMARK.json — every listed metric is emitted
with its unit, on every workload, traced and untraced, and every named
report row is printed — and that a corrupted digest or a non-200 response
trips the failure path.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Metrics each workload prints on its report lines beyond the ones
# BENCHMARK.json lists: end-to-end (trace 0) and its named ledger rows
# (trace 1), as perfbench/README.md tabulates them.
REPORTED = {
    ("sweep_campaign", "0"): ["throughput_j1", "fail_ratio"],
    ("serve_mixed", "0"): ["roofline_p50_ms", "roofline_p99_ms",
                           "sweep_p50_ms", "sweep_p99_ms", "import_p50_ms",
                           "fail_ratio"],
    ("check_irregular", "0"): ["fail_ratio"],
    ("sweep_campaign", "1"): [
        "exec.at_into_ns", "core.evaluate_summary_ns", "exec.scenario_hash_ns",
        "exec.append_line_ns", "exec.stream_residual_ns",
        "exec.cache_hit_ratio", "exec.cache_lookups", "exec.cache_evictions"],
    ("serve_mixed", "1"): [
        "util.http_parse_ns", "util.json_parse_ns", "serve.handle_roofline_ns",
        "serve.handle_sweep_ns", "serve.handle_import_ns",
        "util.serialize_response_ns", "serve.span.queue_wait_ns",
        "serve.span.parse_ns", "serve.span.handle_ns",
        "serve.span.serialize_ns", "serve.span.write_ns",
        "serve.span.unaccounted_ns", "exec.cache_hit_ratio",
        "exec.cache_lookups", "exec.cache_evictions"],
    ("check_irregular", "1"): [
        "check.generate_ns", "dag.build_graph_ns",
        "core.characterize_model_ns", "sim.run_workflow_ns", "sim.events",
        "sim.flows", "sim.ns_per_event", "check.residual_ns"],
}


def run(workload, trace, *extra):
    return subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", trace, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)


def report_value(stdout, name):
    match = re.search(rf"^{re.escape(name)}\s+(\S+)\s", stdout, re.MULTILINE)
    return float(match.group(1)) if match else None


class ContractTest(unittest.TestCase):
    def test_every_listed_metric_is_emitted_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = run(workload, trace)
                    self.assertEqual(result.returncode, 0, result.stderr)
                    line = json.loads(result.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        set(line), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(line["correct"], True)
                    self.assertGreaterEqual(line["attempted"], 1)
                    self.assertEqual(line["failed"], 0)
                    self.assertEqual(
                        {n: m["unit"] for n, m in line["metrics"].items()},
                        {m["name"]: m["unit"] for m in SPEC[key]})
                    for name in REPORTED[(workload, trace)]:
                        self.assertIsNotNone(
                            report_value(result.stdout, name), name)
                    if trace == "0":
                        self.assertEqual(
                            report_value(result.stdout, "fail_ratio"), 0.0)


class FailurePathTest(unittest.TestCase):
    def assert_fails(self, result, reason):
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn('"correct"', result.stdout)
        self.assertIn(reason, result.stderr)
        self.assertGreater(report_value(result.stdout, "fail_ratio"), 0.0)

    def test_corrupted_digest_fails(self):
        self.assert_fails(run("sweep_campaign", "0", "--inject", "digest"),
                          "digest")

    def test_non_200_response_fails(self):
        self.assert_fails(run("serve_mixed", "0", "--inject", "status"),
                          "answered 400")


if __name__ == "__main__":
    unittest.main()
