#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sweep_campaign --seed 1 \
        --seconds 20 --trace 0

Run from the repository root.  Builds perfbench/ (and the wfr libraries
from src/) into .bench_build/, runs the workload, prints a stamp line and
one report line per metric (value, unit, spread over cells, sample count),
and ends with one JSON line holding the metrics BENCHMARK.json names:
the end-to-end metrics with --trace 0, the per-layer ledger with --trace 1.
--workload all runs every workload and prints their report lines only.
Exits nonzero, without that line, when the build fails, a correctness check
fails, nothing was measured, or a named metric is missing or not finite.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170

WORKLOADS = ("sweep_campaign", "serve_mixed", "check_irregular")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; output goes to a log."""
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    # A configure step that failed leaves a cache but no build files.
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(step)} (log: {log})")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        run = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if run.returncode == 0:
            return "git:" + run.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def contract_metrics(spec, workload, trace, measured):
    """The final line's metrics, exactly the names BENCHMARK.json lists."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name not in measured:
            fail(f"{workload} did not measure {name}")
        if measured[name]["unit"] != unit:
            fail(f"{name}: measured in {measured[name]['unit']}, "
                 f"BENCHMARK.json says {unit}")
        value = measured[name]["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name} is not a finite number: {value!r}")
        out[name] = {"value": value, "unit": unit}
    return out


def run_workload(args, workload):
    """Runs one workload and prints its stamp and report lines.  Returns the
    binary's result, or None when the run failed (reasons on stderr)."""
    command = [str(BINARY), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--data-dir", str(ROOT / "data" / "wfcommons")]
    if args.inject:
        command += ["--inject", args.inject]
    try:
        run = subprocess.run(command, cwd=ROOT, capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if not lines:
        print(f"perfbench: {workload} printed nothing (exit {run.returncode})",
              file=sys.stderr)
        return None
    result = json.loads(lines[-1])

    print(f"# perfbench {workload} seed={args.seed} trace={args.trace} "
          f"nproc={result['nproc']} build_type={result['build_type']} "
          f"compiler={result['compiler']} source={source_id()}")
    rows = dict(result["metrics"], **result["layers"])
    for name, m in sorted(rows.items()):
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']:6s} "
              f"spread {100 * m['spread']:6.2f}%  n={m['n']}")
    print(f"attempted {result['attempted']:.0f}, failed {result['failed']:.0f}")

    if run.returncode != 0 or result["failed"] or result["failures"]:
        for reason in result["failures"]:
            print(f"FAILED: {reason}", file=sys.stderr)
        print(f"perfbench: {workload} failed its correctness checks "
              f"(exit {run.returncode})", file=sys.stderr)
        return None
    if result["attempted"] < 1:
        print(f"perfbench: {workload} completed no operation", file=sys.stderr)
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    # Fault injection for the benchmark's own tests (tests/).
    parser.add_argument("--inject", choices=("digest", "status"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()

    if args.workload == "all":
        failed = [w for w in WORKLOADS if run_workload(args, w) is None]
        if failed:
            fail("failed: " + ", ".join(failed))
        return

    result = run_workload(args, args.workload)
    if result is None:
        sys.exit(1)
    trace = args.trace == "1"
    measured = result["layers"] if trace else result["metrics"]
    print(json.dumps({
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": contract_metrics(spec, args.workload, trace, measured),
    }))


if __name__ == "__main__":
    main()
