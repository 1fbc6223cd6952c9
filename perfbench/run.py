"""The repository benchmark: five workloads, end-to-end and per layer.

Run from the repository root::

    python3 perfbench/run.py                         # every workload
    python3 perfbench/run.py --workload sim-uniform --seed 1 --seconds 20
    python3 perfbench/run.py --workload live-durable --trace 1

Each workload runs in a fresh interpreter (``worker.py``) whose
environment this script builds: ``REPRO_*`` knobs are cleared and
``REPRO_WORKLOAD`` set per workload, because the system factories in
``repro.bench.systems`` read them.  Prints every metric by name, unit and sample count, then one JSON
object as the last line.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones (see README.md).  Exits non-zero when a
correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import report  # noqa: E402

#: A run longer than ``--seconds`` plus this is stopped and counts as
#: failed: it covers builds, calibration, live boots and drains.
WORKER_SLACK_S = 150.0
#: Scratch space for the live cluster's WALs, inside the checkout.
WORKDIR = os.path.join(ROOT, ".perfbench_tmp")


def worker_env(workload: str) -> Dict[str, str]:
    """The environment of one workload's interpreter."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_WORKLOAD"] = report.WORKLOADS[workload][1]
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, seconds: float,
               trace: int) -> Optional[Dict[str, Any]]:
    """Run one workload in a fresh interpreter; ``None`` if it failed."""
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", WORKDIR]
    timeout = seconds + WORKER_SLACK_S
    # Its own process group, so a stuck run can be stopped together with
    # the replica processes it forked.
    worker = subprocess.Popen(command, cwd=ROOT, env=worker_env(workload),
                              stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        stdout, _ = worker.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"[perfbench] {workload}: no result within "
              f"{timeout:.0f} s", file=sys.stderr)
        _kill_group(worker)
        return None
    lines = stdout.strip().splitlines()
    if worker.returncode != 0 or not lines:
        print(f"[perfbench] {workload}: worker exited with "
              f"{worker.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _kill_group(worker: subprocess.Popen) -> None:
    """Kill the worker's process group and wait until it is gone."""
    try:
        os.killpg(worker.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    worker.communicate()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(worker.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def evaluate(workload: str, raw: Dict[str, Any], trace: int) -> Dict[str, Any]:
    """Print one workload's metrics; return its result object."""
    attempted, failed, failed_frac = report.attempted_failed(raw)
    problems = report.problems(raw)
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace:
        for name, (value, unit) in report.per_layer(raw).items():
            print(f"[perfbench] {workload} {name} = {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
        if raw["kind"] == "sim":
            print(f"[perfbench] {workload} sim_pps untraced = "
                  f"{raw['untraced_pps']:.1f}, traced = "
                  f"{raw['traced_pps']:.1f} payments/s; unattributed "
                  f"callback self time = "
                  f"{raw['unattributed_ns_per_pay']:.0f} ns/pay")
    else:
        for name, (value, unit, samples) in report.end_to_end(raw).items():
            print(f"[perfbench] {workload} {name} = {value:.6g} {unit} "
                  f"(n={samples})")
        for name, (value, unit) in report.gated(raw).items():
            metrics[name] = {"value": value, "unit": unit}
        if raw["kind"] == "sim":
            print(f"[perfbench] {workload} sim_pps before calibration = "
                  f"{statistics.median(raw['wall_pps']):.6g} payments/s")
        elif raw["capacity_is_lower_bound"]:
            print(f"[perfbench] {workload} live_capacity_pps is a lower "
                  f"bound: the ladder's top rung passed")
    print(f"[perfbench] {workload} failed_frac = {failed_frac:.6g} ratio "
          f"(n={attempted}); failed = {failed}")
    if raw["kind"] == "live":
        for step in raw["steps"]:
            print(f"[perfbench] {workload} step {step['kind']} "
                  f"{step['rate']:.0f} pps: p99 = {step['p99_s'] * 1e3:.1f} "
                  f"ms, backlog = {step['backlog']}, "
                  f"{'pass' if step['passes'] else 'fail'}")
    for problem in problems:
        print(f"[perfbench] {workload} INCORRECT: {problem}")
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


#: The result of a workload whose worker died or timed out.
CRASHED: Dict[str, Any] = {"correct": False, "attempted": 1, "failed": 1,
                           "metrics": {}}


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", default="all",
                        choices=["all", *report.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("[perfbench] src/repro not found: run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    names = list(report.WORKLOADS) if args.workload == "all" else [args.workload]
    results: Dict[str, Dict[str, Any]] = {}
    try:
        for name in names:
            raw = run_worker(name, args.seed, args.seconds, args.trace)
            # A worker that died is one failed attempt with no metrics.
            results[name] = CRASHED if raw is None else evaluate(
                name, raw, args.trace)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
