"""End-to-end metrics, per-layer metrics and the correctness gate.

Pure functions over a worker's raw observations (``sim.run`` /
``live.run`` output), so the gate can be exercised with fabricated
results.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple

#: Workload name -> (kind, ``REPRO_WORKLOAD`` value).
WORKLOADS: Dict[str, Tuple[str, str]] = {
    "sim-uniform": ("sim", "uniform"),
    "sim-merchant": ("sim", "merchant"),
    "sim-n32": ("sim", "uniform"),
    "sim-bft": ("sim", "uniform"),
    "live-durable": ("live", "uniform"),
}

#: End-to-end metric -> (unit, kinds it applies to).
END_TO_END: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "setup_s": ("s", ("sim", "live")),
    "sim_pps": ("payments/s", ("sim",)),
    "sim_p50_ms": ("ms", ("sim",)),
    "sim_p99_ms": ("ms", ("sim",)),
    "peak_rss_mb": ("MB", ("sim", "live")),
    "live_capacity_pps": ("payments/s", ("live",)),
    "live_p50_ms": ("ms", ("live",)),
    "live_p99_ms": ("ms", ("live",)),
}

#: The metrics of ``BENCHMARK.json`` and of the result object: name ->
#: (unit, the end-to-end metric that stands for it on each kind).  Every
#: workload reports every one of them, so a sim and a live workload
#: share a name where their metrics answer the same question.  The p99s
#: are printed only: the live one is set by a few WAL-snapshot stalls,
#: and over ten seeds its quartile spread reached 0.571, above the
#: largest bound allowed.
GATED: Dict[str, Tuple[str, Dict[str, str]]] = {
    "setup_s": ("s", {"sim": "setup_s", "live": "setup_s"}),
    "throughput_pps": ("payments/s",
                       {"sim": "sim_pps", "live": "live_capacity_pps"}),
    "p50_ms": ("ms", {"sim": "sim_p50_ms", "live": "live_p50_ms"}),
    "peak_rss_mb": ("MB", {"sim": "peak_rss_mb", "live": "peak_rss_mb"}),
}

#: Per-layer metric -> unit.  Every traced run reports all of them; a
#: layer the workload never crosses reads 0.
PER_LAYER: Dict[str, str] = {
    "core.accounts.calls_per_pay": "count",
    "core.accounts.settle_ns": "ns",
    "core.accounts.credit_ns": "ns",
    "core.replica.self_ns_per_pay": "ns",
    "core.dependencies.credits_per_pay": "count",
    "core.dependencies.certs_minted_per_pay": "count",
    "core.dependencies.ns_per_pay": "ns",
    "core.dependencies.cert_materialized_frac": "ratio",
    "crypto.signs_per_pay": "count",
    "crypto.verifies_per_pay": "count",
    "crypto.ns_per_pay": "ns",
    "brb.pays_per_batch": "count",
    "brb.broadcast_ns": "ns",
    "brb.self_ns_per_pay": "ns",
    "sim.network.msgs_per_pay": "count",
    "sim.network.bytes_per_pay": "bytes",
    "sim.network.send_ns": "ns",
    "sim.events.events_per_pay": "count",
    "sim.events.self_ns_per_pay": "ns",
    "consensus.msgs_per_pay": "count",
    "consensus.self_ns_per_pay": "ns",
    "workloads.draw_ns": "ns",
    "transport.framing.encode_ns": "ns",
    "transport.framing.decode_ns_per_frame": "ns",
    "transport.framing.bytes_per_frame": "bytes",
    "transport.tcp.frames_per_pay": "count",
    "transport.tcp.queue_dropped": "count",
    "transport.tcp.queue_depth_max": "count",
    "core.persistence.appends_per_pay": "count",
    "core.persistence.append_ns": "ns",
    "core.persistence.snapshots": "count",
    "core.persistence.snapshot_ms_max": "ms",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.delivered_pps": "payments/s",
    "trace.sim_pps_ratio": "ratio",
    "calibration.wall_pps": "payments/s",
    "calibration.kernel_ms": "ms",
}


def end_to_end(raw: Dict[str, Any]) -> Dict[str, Tuple[float, str, int]]:
    """``name -> (value, unit, samples)`` for the workload's metrics."""
    setup = raw["setup_s"]
    metrics: Dict[str, Tuple[float, int]] = {
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, 1),
    }
    if raw["kind"] == "sim":
        first = raw["deterministic"][0]
        metrics["sim_pps"] = (statistics.median(raw["pps"]), len(raw["pps"]))
        metrics["sim_p50_ms"] = (first["p50_ms"], first["samples"])
        metrics["sim_p99_ms"] = (first["p99_ms"], first["samples"])
    else:
        ladder = sum(1 for step in raw["steps"] if step["kind"] != "warmup")
        metrics["live_capacity_pps"] = (raw["capacity_pps"], ladder)
        metrics["live_p50_ms"] = (raw["ref_p50_ms"], raw["ref_samples"])
        metrics["live_p99_ms"] = (raw["ref_p99_ms"], raw["ref_samples"])
    return {
        name: (value, END_TO_END[name][0], samples)
        for name, (value, samples) in metrics.items()
    }


def gated(raw: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """``name -> (value, unit)`` for every metric of ``BENCHMARK.json``."""
    metrics = end_to_end(raw)
    return {name: (metrics[source[raw["kind"]]][0], unit)
            for name, (unit, source) in GATED.items()}


def per_layer(raw: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """``name -> (value, unit)`` for every per-layer metric."""
    values = dict(raw.get("layers", {}))
    if raw["kind"] == "sim":
        values["trace.sim_pps_ratio"] = raw["traced_pps"] / raw["untraced_pps"]
        values["calibration.wall_pps"] = raw["untraced_wall_pps"]
        values["calibration.kernel_ms"] = raw["untraced_kernel_ms"]
    else:
        pays = raw["confirmed"]
        values["transport.tcp.frames_per_pay"] = (
            raw["frames_sent"] / pays if pays else 0.0)
        values["transport.tcp.queue_dropped"] = float(raw["queue_dropped"])
        values["loadgen.lag_p99_ms"] = raw["lag_p99_ms"]
        values["loadgen.delivered_pps"] = raw["delivered_pps"]
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in PER_LAYER.items()}


def attempted_failed(raw: Dict[str, Any]) -> Tuple[int, int, float]:
    """``(attempted, failed, failed_frac)``.

    ``failed_frac`` is (injected - confirmed) / injected after the drain.
    ``failed`` leaves out payments a representative holds because their
    spender cannot afford them (the merchant workload overspends by
    design); every other unconfirmed payment is a failure.
    """
    if raw["kind"] == "sim":
        det = raw["deterministic"][0]
        injected = det["injected"]
        confirmed = det["confirmed_after_drain"]
        unfunded = sum(h["count"] for h in det["held"]
                       if h["first"] > h["projected"])
        failed = injected - confirmed - unfunded
    else:
        injected = raw["submitted"]
        confirmed = raw["confirmed"]
        failed = injected - confirmed
    frac = (injected - confirmed) / injected if injected else 0.0
    return injected, failed, frac


def problems(raw: Dict[str, Any]) -> List[str]:
    """Every correctness check the run fails (empty when correct)."""
    found: List[str] = []
    if raw["kind"] == "sim":
        runs = raw["deterministic"]
        for index, det in enumerate(runs[1:], start=1):
            if det != runs[0]:
                diff = sorted(k for k in det if det[k] != runs[0].get(k))
                found.append(f"repetition {index} differs from repetition 0 "
                             f"in {diff}")
        det = runs[0]
        if not det["samples"]:
            found.append("no payment confirmed inside the window")
        if len(set(det["fingerprints"])) != 1:
            found.append("replica state fingerprints disagree")
        if len(set(det["settled"])) != 1:
            found.append(f"settled counts disagree: {det['settled']}")
        if det["rejected"]:
            found.append(f"{det['rejected']} payments rejected")
        for hold in det["held"]:
            if hold["first"] <= hold["projected"]:
                found.append(f"{hold['spender']} holds a payment it can "
                             f"afford ({hold['first']} <= {hold['projected']})")
        held = sum(h["count"] for h in det["held"])
        if det["confirmed_after_drain"] + held != det["injected"]:
            found.append(
                f"{det['injected']} injected, "
                f"{det['confirmed_after_drain']} confirmed, {held} held")
    else:
        for index, cluster in enumerate(raw["clusters"]):
            found += [f"cluster {index}: {problem}"
                      for problem in _cluster_problems(cluster, raw["n"])]
    return found


def _cluster_problems(cluster: Dict[str, Any], n: int) -> List[str]:
    """Correctness checks of one measured live cluster."""
    found: List[str] = []
    answered = {cluster["replicas_reporting"], len(cluster["settled"]),
                len(cluster["fingerprints"])}
    if answered != {n}:
        found.append(f"not every one of {n} replicas answered")
    if not cluster["drained"]:
        found.append(f"{cluster['submitted'] - cluster['confirmed']} "
                     "payments never confirmed")
    if set(cluster["settled"].values()) != {cluster["submitted"]}:
        found.append(f"settled counts {cluster['settled']} != "
                     f"{cluster['submitted']} submitted")
    if len(set(cluster["fingerprints"].values())) > 1:
        found.append("replica state fingerprints disagree")
    if any(cluster["rejected"].values()):
        found.append(f"payments rejected: {cluster['rejected']}")
    if cluster["duplicate_confirms"]:
        found.append(f"{cluster['duplicate_confirms']} duplicate confirms")
    return found
