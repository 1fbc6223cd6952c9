"""Tests of the benchmark itself (not collected by the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Workloads run through ``run.run_worker`` — each in its own interpreter,
so the tracing wrappers never leak into this process — at their real
cell sizes with ``--seconds 0`` (two repetitions of each simulator
cell) and a live run with a short reference step.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import report  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

SIM = [name for name, (kind, _) in report.WORKLOADS.items() if kind == "sim"]
LIVE_SECONDS = 4.0


def _raw(workload: str, trace: int) -> dict:
    seconds = LIVE_SECONDS if workload == "live-durable" else 0.0
    raw = run.run_worker(workload, seed=3, seconds=seconds, trace=trace)
    assert raw is not None, f"{workload} worker failed"
    return raw


@pytest.fixture(scope="module")
def untraced() -> dict:
    return {name: _raw(name, 0) for name in report.WORKLOADS}


@pytest.fixture(scope="module")
def traced() -> dict:
    return {name: _raw(name, 1) for name in report.WORKLOADS}


def test_spec_names_match_the_report() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(report.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: unit for name, (unit, _) in report.GATED.items()}
    # Every gated metric stands for an end-to-end metric of each kind.
    for unit, source in report.GATED.values():
        for kind in ("sim", "live"):
            assert kind in report.END_TO_END[source[kind]][1]
            assert report.END_TO_END[source[kind]][0] == unit
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        report.PER_LAYER


@pytest.mark.parametrize("workload", list(report.WORKLOADS))
def test_every_workload_emits_its_end_to_end_metrics(untraced, workload):
    raw = untraced[workload]
    assert report.problems(raw) == []
    kind = report.WORKLOADS[workload][0]
    expected = {name: unit for name, (unit, kinds) in report.END_TO_END.items()
                if kind in kinds}
    metrics = report.end_to_end(raw)
    assert {name: unit for name, (_, unit, _) in metrics.items()} == expected
    for name, (value, _, samples) in metrics.items():
        assert value > 0, name
        assert samples >= 1, name
    # The result object carries every metric of BENCHMARK.json, none 0.
    gated = report.gated(raw)
    assert {name: unit for name, (_, unit) in gated.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in gated.values())


@pytest.mark.parametrize("workload", list(report.WORKLOADS))
def test_every_workload_emits_every_per_layer_metric(traced, workload):
    raw = traced[workload]
    assert report.problems(raw) == []
    layers = report.per_layer(raw)
    assert {name: unit for name, (_, unit) in layers.items()} == \
        report.PER_LAYER
    # The layers each workload is chosen for did work.
    busy = {
        "sim-uniform": ["core.accounts.settle_ns", "brb.self_ns_per_pay",
                        "calibration.wall_pps", "calibration.kernel_ms"],
        "sim-merchant": ["core.dependencies.cert_materialized_frac",
                         "core.accounts.credit_ns", "calibration.wall_pps"],
        "sim-n32": ["sim.network.msgs_per_pay", "sim.events.self_ns_per_pay",
                    "calibration.wall_pps"],
        "sim-bft": ["consensus.msgs_per_pay", "consensus.self_ns_per_pay",
                    "calibration.wall_pps"],
        "live-durable": ["transport.framing.encode_ns",
                         "core.persistence.appends_per_pay",
                         "transport.tcp.frames_per_pay",
                         "loadgen.delivered_pps"],
    }[workload]
    for name in busy:
        assert layers[name][0] > 0, name


@pytest.mark.parametrize("workload", SIM)
def test_traced_and_untraced_runs_agree_exactly(untraced, traced, workload):
    # Repetition 0 of a traced run is untraced; the rest run with every
    # wrapper installed.  All must match each other and the untraced run
    # of another process.
    reference = untraced[workload]["deterministic"][0]
    for det in traced[workload]["deterministic"]:
        assert det == reference


def test_gate_trips_on_a_mismatched_fingerprint(untraced) -> None:
    raw = copy.deepcopy(untraced["sim-uniform"])
    for det in raw["deterministic"]:
        det["fingerprints"][1] = "0" * 64
    assert "replica state fingerprints disagree" in report.problems(raw)

    live = copy.deepcopy(untraced["live-durable"])
    live["clusters"][1]["fingerprints"]["2"] = "0" * 64
    assert "cluster 1: replica state fingerprints disagree" in \
        report.problems(live)


def test_gate_trips_when_repetitions_differ(untraced) -> None:
    raw = copy.deepcopy(untraced["sim-bft"])
    raw["deterministic"][-1]["p99_ms"] += 1.0
    assert any("differs" in p for p in report.problems(raw))


def test_gate_trips_on_an_affordable_hold(untraced) -> None:
    raw = copy.deepcopy(untraced["sim-merchant"])
    for det in raw["deterministic"]:
        det["held"].append({"spender": "client-0", "count": 1,
                            "first": 5, "projected": 50})
    assert any("can afford" in p for p in report.problems(raw))


def test_a_failed_gate_makes_the_command_fail(untraced, monkeypatch,
                                              capsys) -> None:
    raw = copy.deepcopy(untraced["sim-uniform"])
    raw["deterministic"][0]["settled"][0] -= 1
    monkeypatch.setattr(run, "run_worker", lambda *args, **kwargs: raw)
    assert run.main(["--workload", "sim-uniform"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False


def test_a_dead_worker_prints_a_failed_result(monkeypatch, capsys) -> None:
    monkeypatch.setattr(run, "run_worker", lambda *args, **kwargs: None)
    assert run.main(["--workload", "sim-bft"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_a_capacity_above_the_ladder_is_flagged(untraced, monkeypatch,
                                                capsys) -> None:
    raw = copy.deepcopy(untraced["live-durable"])
    assert raw["capacity_is_lower_bound"] is False
    raw["capacity_is_lower_bound"] = True
    monkeypatch.setattr(run, "run_worker", lambda *args, **kwargs: raw)
    assert run.main(["--workload", "live-durable"]) == 0
    assert "live_capacity_pps is a lower bound" in capsys.readouterr().out


def test_the_command_prints_the_contract_result() -> None:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-uniform",
         "--seed", "5", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert done.returncode == 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_the_command_fails_without_the_program(tmp_path) -> None:
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_environment_is_isolated(monkeypatch) -> None:
    monkeypatch.setenv("REPRO_CREDIT_COALESCE", "auto")
    monkeypatch.setenv("REPRO_WORKLOAD", "zipf")
    env = run.worker_env("sim-merchant")
    assert env["REPRO_WORKLOAD"] == "merchant"
    assert "REPRO_CREDIT_COALESCE" not in env
