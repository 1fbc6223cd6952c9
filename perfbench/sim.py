"""The simulator workloads: one seeded cell, rebuilt and driven repeatedly.

Each repetition builds the system (timed as set-up), drives it open loop
through :func:`repro.bench.runner.run_open_loop` as
``repro.bench.profile`` does (its ``sim_pps`` is the quantity that tool
prints), then drains every in-flight payment outside the timed window
and records the outputs the correctness gate compares.  Repetitions of
one seed must produce identical outputs; the run reports medians over
them.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Any, Dict, List, Optional

from repro.bench import systems
from repro.bench.runner import run_open_loop
from repro.bench.systems import SYSTEM_BUILDERS, client_ids_of
from repro.sim import latency
from repro.sim.shard import state_fingerprints
from repro.workloads.base import make_workload, resolve_workload_name

import calibrate
import tracing

#: The simulator cells.  ``window``/``warmup`` are simulated seconds.
CELLS: Dict[str, Dict[str, Any]] = {
    "sim-uniform": dict(system="astro2", n=4, rate=16000.0,
                        window=2.0, warmup=0.5),
    "sim-merchant": dict(system="astro2", n=4, rate=16000.0,
                         window=2.0, warmup=0.5),
    "sim-n32": dict(system="astro2", n=32, rate=8000.0,
                    window=0.3, warmup=0.15),
    "sim-bft": dict(system="bft", n=4, rate=16000.0,
                    window=2.0, warmup=0.5),
}
#: Seed of the simulated deployment (which region hosts each replica,
#: keys): fixed, as in ``repro.bench.profile``.  The benchmark's
#: ``--seed`` seeds the workload and the network's delay jitter.
SYSTEM_SEED = 2
#: Builds after every repetition, so ``setup_s`` is a median of many
#: builds spread over the whole run even when few repetitions fit.
EXTRA_BUILDS = 8
#: Repetitions per run, at least: the gate compares two of one seed.
MIN_REPS = 2


def _held(system: Any) -> List[Dict[str, Any]]:
    """Payments representatives still hold after the drain, per client.

    Astro II holds a client's payments, in order, at its representative
    until the projected balance covers the first; ``first``/``projected``
    let the gate check that each hold is for want of funds.
    """
    held = []
    for replica in system.replicas:
        for client, queue in sorted(getattr(replica, "_held", {}).items()):
            if queue:
                held.append({
                    "spender": client,
                    "count": len(queue),
                    "first": queue[0].amount,
                    "projected": replica._projected.get(client, 0),
                })
    return held


def seed_jitter(jitter_seed: int) -> None:
    """Make the system factories' WAN model draw its jitter from ``jitter_seed``
    while the placement of nodes in regions stays the deployment's."""

    def europe_wan(num_nodes: int, seed: int = 0, jitter: float = 0.10,
                   pair_streams: bool = False) -> latency.RegionLatency:
        placement = latency.europe_wan(num_nodes, seed=seed).assignment
        return latency.RegionLatency(
            placement, latency._EU_ONE_WAY, jitter=jitter,
            seed=jitter_seed + 1, pair_streams=pair_streams)

    systems.europe_wan = europe_wan


def build(cell: Dict[str, Any], seed: int) -> tuple:
    """Build the cell's system and workload; returns them and the time."""
    started = time.perf_counter()
    system = SYSTEM_BUILDERS[cell["system"]](cell["n"], seed=SYSTEM_SEED)
    workload = make_workload(
        resolve_workload_name(), client_ids_of(system), seed=seed)
    return system, workload, time.perf_counter() - started


def drive(cell: Dict[str, Any], seed: int,
          tracer: Optional[tracing.Tracer] = None) -> Dict[str, Any]:
    """Build and drive one repetition; returns its observations."""
    system, workload, setup = build(cell, seed)
    if tracer is not None:
        workload.next = tracer.span("workloads.draw", workload.next)
    confirms = [0]

    def count(payment: Any, settled_at: float) -> None:
        confirms[0] += 1

    system.add_confirm_hook(count)
    started = time.perf_counter()
    result = run_open_loop(system, rate=cell["rate"], duration=cell["window"],
                           warmup=cell["warmup"], workload=workload, seed=seed)
    wall = time.perf_counter() - started
    # Outside the timed window: settle everything still in flight.
    system.settle_all()
    fingerprints = state_fingerprints(system)
    latency = result.latency
    return {
        "setup_s": setup,
        "wall_s": wall,
        "deterministic": {
            "injected": result.injected,
            "confirmed": result.confirmed,
            "confirmed_after_drain": confirms[0],
            "samples": latency.count,
            "p50_ms": latency.p50 * 1e3,
            "p99_ms": latency.p99 * 1e3,
            "settled": list(system.settled_counts()),
            "rejected": sum(len(getattr(r, "rejected", ()))
                            for r in system.replicas),
            "fingerprints": [fingerprints[k] for k in sorted(fingerprints)],
            "held": _held(system),
            "messages": system.network.stats.messages_sent,
        },
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Repetitions of one cell for ``seconds`` of wall time.

    Untraced, builds :data:`EXTRA_BUILDS` extra systems after every
    repetition for ``setup_s``.
    Build times and ``pps`` are scaled to the reference interpreter speed
    by the calibration kernel timed next to them (``calibrate.py``);
    ``wall_pps`` keeps the unscaled figures.  Traced, the repetitions of
    the first half of the time run untraced (the overhead baseline and
    the reference for the traced outputs), then the wrappers go in.
    """
    cell = CELLS[name]
    seed_jitter(seed)
    setups: List[float] = []
    reps: List[Dict[str, Any]] = []
    tracer: Optional[tracing.Tracer] = None
    # Interpreter speed before the first and after every repetition.
    kernel = [calibrate.kernel_seconds()]
    started = time.perf_counter()
    untraced = 0  # repetitions before the wrappers went in (traced runs)
    while (len(reps) < MIN_REPS or time.perf_counter() < started + seconds
           or (trace and tracer is None)):
        if trace and tracer is None and reps and (
                time.perf_counter() >= started + seconds / 2):
            untraced = len(reps)
            tracer = tracing.Tracer()
            tracing.install_sim(tracer)
        rep = drive(cell, seed, tracer)
        gc.collect()
        setups.append(rep["setup_s"] * calibrate.REFERENCE_S / kernel[-1])
        extra = [] if trace else [
            build(cell, seed)[2] for _ in range(EXTRA_BUILDS)]
        kernel.append(calibrate.kernel_seconds())
        setups += [setup * calibrate.REFERENCE_S / kernel[-1]
                   for setup in extra]
        reps.append(rep)
    wall_pps = [r["deterministic"]["confirmed"] / r["wall_s"] for r in reps]
    out: Dict[str, Any] = {
        "kind": "sim",
        "setup_s": setups,
        "wall_pps": wall_pps,
        "pps": [
            pps * (before + after) / 2 / calibrate.REFERENCE_S
            for pps, before, after in zip(wall_pps, kernel, kernel[1:])
        ],
        "deterministic": [r["deterministic"] for r in reps],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        pays = sum(r["deterministic"]["confirmed_after_drain"]
                   for r in reps[untraced:])
        slots = tracer.snapshot()
        out["layers"] = tracing.layer_metrics(slots, pays)
        out["unattributed_ns_per_pay"] = tracing.unattributed_ns_per_pay(
            slots, pays)
        out["untraced_pps"] = statistics.median(out["pps"][:untraced])
        out["traced_pps"] = statistics.median(out["pps"][untraced:])
        out["untraced_wall_pps"] = statistics.median(wall_pps[:untraced])
        out["untraced_kernel_ms"] = 1e3 * statistics.median(
            kernel[:untraced + 1])
    return out
