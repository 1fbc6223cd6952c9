"""The live-durable workload: the N=4 Astro II TCP cluster with its WAL on.

Boots :mod:`repro.transport.cluster`'s replica processes (fork, one per
replica, each with a :class:`~repro.core.persistence.ReplicaStore`), then
drives them from one asyncio thread with an open loop paced by *due
time*: payment ``i`` of a step at rate ``r`` is due at ``start + i/r``,
is sent as soon as the loop reaches that time, and its confirm latency is
measured from the due time, so a stalled generator shows up as latency
and as ``loadgen.lag_p99_ms`` instead of silently offering less load.

One cluster runs a fixed reference step (latency at a rate below the
knee), a fresh one an offered-rate ladder (capacity: the highest step
whose p99 stays within :data:`LATENCY_LIMIT_S` without a growing
backlog).  The ladder climbs until it is past the knee for sure, or
until its last rung, :data:`MAX_RUNGS`; if that rung passes, the
capacity is only a lower bound and the run says so.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import resource
import shutil
import time
from types import SimpleNamespace
from typing import Any, Dict, List, Optional

from repro.transport import cluster
from repro.transport.clock import RealTimeClock
from repro.transport.tcp import TcpTransport

import calibrate
import tracing

N = 4
#: Keychain seed of the cluster (fixed, like the simulator cells'); the
#: benchmark's ``--seed`` picks where the payment stream starts.
SYSTEM_SEED = 2
SECRET = b"perfbench-localhost-cluster"
#: The paper's sub-second bar on the confirm-latency percentile.
LATENCY_LIMIT_S = 1.0
#: Percentile the latency limit applies to.
LIMIT_PERCENTILE = 0.99
#: Cluster boots per run that only set up; ``setup_s`` is the median of
#: every boot's.
SETUP_ONLY_BOOTS = 30
#: Untimed processes that run the calibration kernel just before each
#: boot, so the boot starts on busy cores.  Idle vCPUs of a shared host
#: wake slowly: without this, the median boot of runs half an hour
#: apart differed by over a quarter.
WARM_PROCS = 4
#: Minimum pause of the pacing loop between bursts of due payments.
PACE_TICK = 0.002
#: Tolerated backlog growth across a step, in seconds of offered load
#: (steady steps fluctuate by about half of this).
BACKLOG_GROWTH_S = 0.2
#: Seconds the cluster gets after the last step to confirm everything.
DRAIN_TIMEOUT = 20.0


#: Warm-up before the reference step: connections, first batches.
WARMUP_S = 1.0
#: Reference step: offered rate (well below the knee), run share and
#: shortest length.
REF_RATE = 2000.0
REF_SHARE = 0.3
REF_MIN_S = 1.0
#: Capacity ladder: first rung, ratio between rungs, seconds per rung.
#: A rung spans at least one WAL snapshot at rates near the knee.
LADDER_START = 8000.0
LADDER_RATIO = 1.05
RUNG_S = 1.0
#: Rungs at most: the last offers about 54k pps, five times the
#: capacity measured when the ladder was set (about 10.7k pps).
MAX_RUNGS = 40


def plan(seconds: float) -> List[Dict[str, Any]]:
    """Steps of one run: warm-up, the reference step, the capacity ladder.

    The run length sets the reference step's; the ladder runs until it
    is past the knee, which depends on the cluster.  The reference step
    is also the ladder's first rung.
    """
    ref = max(REF_MIN_S, seconds * REF_SHARE)
    steps = [
        {"kind": "warmup", "rate": REF_RATE, "duration": WARMUP_S},
        {"kind": "ref", "rate": REF_RATE, "duration": ref},
    ]
    for index in range(MAX_RUNGS):
        rate = round(LADDER_START * LADDER_RATIO ** index, -1)
        steps.append({"kind": "ladder", "rate": rate, "duration": RUNG_S})
    return steps


# ---------------------------------------------------------------------------
# Replica-side readback (installed before fork, inherited by the replicas)
# ---------------------------------------------------------------------------
class LayerProbe:
    """Asks a replica for a :class:`LayerReport`."""


class LayerReport:
    def __init__(self, node_id: int, peak_rss_kb: int, frames_sent: int,
                 queue_dropped: int,
                 layers: Optional[Dict[str, Any]]) -> None:
        self.node_id = node_id
        self.peak_rss_kb = peak_rss_kb
        self.frames_sent = frames_sent
        self.queue_dropped = queue_dropped
        self.layers = layers


def _install_probe(tracer: Optional[tracing.Tracer]) -> None:
    """Make every replica built from now on answer :class:`LayerProbe`.

    Wraps ``cluster.build_replica``, which each forked replica calls
    first; the replica's copy of ``tracer`` is reset there, so it holds
    only the replica's own work.
    """
    original = cluster.build_replica

    def build_replica(system, n, transport, genesis, **kwargs):
        if tracer is not None:
            tracer.reset()
        replica = original(system, n, transport, genesis, **kwargs)

        def on_probe(src: int, message: LayerProbe) -> None:
            stats = transport.stats
            transport.send(src, LayerReport(
                transport.node_id,
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                stats.frames_sent, stats.queue_dropped,
                tracer.snapshot() if tracer is not None else None,
            ))

        transport.on(LayerProbe, on_probe)
        return replica

    cluster.build_replica = build_replica


# ---------------------------------------------------------------------------
# Load generator
# ---------------------------------------------------------------------------
class DueTimeLoadGen(cluster._LoadGen):
    """The cluster's load generator, paced and timed by due time."""

    def __init__(self, transport: TcpTransport, genesis: Dict[str, int],
                 seed: int, tracer: Optional[tracing.Tracer]) -> None:
        super().__init__(transport, "astro2", N, genesis)
        # The legacy stream (round-robin spender, next client pays 1),
        # started at a seed-chosen client.
        start = seed % len(self.clients)
        self._stream = cluster.payment_stream(
            self.clients[start:] + self.clients[:start])
        self.tracer = tracer
        #: identifier -> (due time, step index)
        self._due: Dict[tuple, tuple] = {}
        #: per step: latencies (s) of confirmed payments
        self.step_latencies: List[List[float]] = []
        self.step_sent: List[int] = []
        self.step_rate: List[float] = []
        #: per step: unconfirmed payments when it started and ended
        self.step_backlog: List[tuple] = []
        #: per step: seconds from its start to its last send
        self.step_span: List[float] = []
        #: per step: how late each payment was sent (s)
        self.step_lags: List[List[float]] = []
        self._reports: Dict[int, LayerReport] = {}
        self._probe_event: Optional[asyncio.Event] = None
        transport.on(LayerReport, self._on_report)

    def _on_confirm(self, src: int, message: Any) -> None:
        identifier = message.payment.identifier
        if self._pending.pop(identifier, None) is None:
            self.duplicate_confirms += 1
            return
        self.confirmed += 1
        due, step = self._due.pop(identifier)
        self.step_latencies[step].append(self.transport.clock.now - due)

    def _on_report(self, src: int, message: LayerReport) -> None:
        self._reports[message.node_id] = message
        if len(self._reports) == N and self._probe_event is not None:
            self._probe_event.set()

    async def probe(self, timeout: float = 5.0) -> Dict[int, LayerReport]:
        self._reports = {}
        self._probe_event = asyncio.Event()
        for node_id in range(N):
            self.transport.send(node_id, LayerProbe())
        try:
            await asyncio.wait_for(self._probe_event.wait(), timeout)
        except asyncio.TimeoutError:
            pass
        return dict(self._reports)

    def _next_payment(self) -> Any:
        if self.tracer is None:
            return next(self._stream)
        start = time.perf_counter_ns()
        payment = next(self._stream)
        self.tracer.add("workloads.draw", time.perf_counter_ns() - start)
        return payment

    async def run_step(self, rate: float, duration: float) -> None:
        """Offer ``rate`` payments/s for ``duration`` s, paced by due time."""
        from repro.core.messages import ClientSubmit

        step = len(self.step_latencies)
        self.step_latencies.append([])
        lags: List[float] = []
        self.step_lags.append(lags)
        backlog_start = len(self._pending)
        loop = asyncio.get_running_loop()
        rep_map = self.rep_map
        send = self.transport.send
        count = int(rate * duration)
        start = loop.time()
        index = 0
        while index < count:
            now = loop.time()
            while index < count:
                due = start + index / rate
                if due > now:
                    break
                payment = self._next_payment()
                identifier = payment.identifier
                self._due[identifier] = (due, step)
                self._pending[identifier] = payment
                send(rep_map[payment.spender], ClientSubmit(payment))
                lags.append(now - due)
                self.submitted += 1
                index += 1
            if index < count:
                wait = start + index / rate - loop.time()
                await asyncio.sleep(max(wait, PACE_TICK))
        self.step_span.append(loop.time() - start)
        self.step_sent.append(count)
        self.step_rate.append(rate)
        self.step_backlog.append((backlog_start, len(self._pending)))

    def certain_failure(self, now: float) -> bool:
        """Whether the ladder is past the knee for sure: more than 1 - p
        of some step's payments are unconfirmed and overdue, or a step
        ended overloaded."""
        limit = now - LATENCY_LIMIT_S
        overdue = [0] * len(self.step_sent)
        for due, step in self._due.values():
            if due < limit and step < len(overdue):
                overdue[step] += 1
        return any(
            late > (1 - LIMIT_PERCENTILE) * sent
            or _overloaded(backlog, rate)
            for late, sent, backlog, rate in zip(
                overdue, self.step_sent, self.step_backlog, self.step_rate)
        )


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (``values`` need not be sorted)."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * len(ordered))) - 1))
    return ordered[rank]


def _overloaded(backlog: tuple, rate: float) -> bool:
    """Whether more than :data:`LATENCY_LIMIT_S` seconds of the step's
    offered load was unconfirmed when it ended: its last payments cannot
    make the limit."""
    return backlog[1] > LATENCY_LIMIT_S * rate


def _grows(backlog: tuple, rate: float) -> bool:
    """Whether the unconfirmed backlog grew across a step by more than
    :data:`BACKLOG_GROWTH_S` seconds of its offered load."""
    start, end = backlog
    return end - start > BACKLOG_GROWTH_S * rate


def step_verdict(latencies: List[float], sent: int, backlog: tuple,
                 rate: float) -> Dict[str, Any]:
    """Whether one step meets the latency limit without a growing backlog.

    Unconfirmed payments count as missing the limit.
    """
    missing = sent - len(latencies)
    padded = latencies + [float("inf")] * missing
    p99 = percentile(padded, LIMIT_PERCENTILE) if padded else float("inf")
    grows = _grows(backlog, rate) or _overloaded(backlog, rate)
    return {
        "p99_s": p99,
        "unconfirmed": missing,
        "backlog": backlog[1],
        "passes": p99 <= LATENCY_LIMIT_S and not grows,
    }


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------
def _cluster_args(seed: int) -> SimpleNamespace:
    return SimpleNamespace(system="astro2", n=N, seed=seed,
                           snapshot_every=None, fingerprint_every=None)


async def _boot(procs: Any, genesis: Dict[str, int], seed: int,
                tracer: Optional[tracing.Tracer]) -> tuple:
    loop = asyncio.get_running_loop()
    transport = TcpTransport(N, procs.secret, clock=RealTimeClock(loop))
    await transport.start()
    loadgen = DueTimeLoadGen(transport, genesis, seed, tracer)
    for node_id in range(N):
        await procs.handshake(node_id, loop)
    procs.peer_map = {
        node_id: ("127.0.0.1", port) for node_id, port in procs.ports.items()
    }
    procs.peer_map[N] = ("127.0.0.1", transport.port)
    for node_id in range(N):
        await procs.finish_boot(node_id, loop)
    for node_id in range(N):
        await procs.wait_caught_up(node_id, loop)
    transport.connect(procs.peer_map)
    return transport, loadgen


def _warm_cores(ctx: Any) -> None:
    """Run the calibration kernel in :data:`WARM_PROCS` processes."""
    procs = [ctx.Process(target=calibrate.run_kernel)
             for _ in range(WARM_PROCS)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join()


async def _shutdown(procs: Any, transport: TcpTransport) -> None:
    for node_id in range(N):
        transport.send(node_id, cluster.Shutdown())
    await asyncio.sleep(0.2)
    await transport.close()
    procs.shutdown()


async def _measure(loadgen: DueTimeLoadGen,
                   steps: List[Dict[str, Any]]) -> Dict[str, Any]:
    loop = asyncio.get_running_loop()
    ran = []
    rss_kb = 0
    for step in steps:
        await loadgen.run_step(step["rate"], step["duration"])
        ran.append(step)
        if step["kind"] == "ref":
            # Memory after a fixed amount of work: how far the ladder
            # climbs varies from run to run.
            reports = await loadgen.probe()
            rss_kb = max((r.peak_rss_kb for r in reports.values()), default=0)
        if step["kind"] == "ladder" and loadgen.certain_failure(loop.time()):
            break
    drained = await loadgen.drain(DRAIN_TIMEOUT, retry_interval=DRAIN_TIMEOUT)
    measured = {"steps": ran, "drained": drained, "peak_rss_kb": rss_kb,
                "loadgen": loadgen}
    measured.update(await _final_state(loadgen))
    return measured


async def _run(seed: int, seconds: float, workdir: str,
               tracer: Optional[tracing.Tracer]) -> Dict[str, Any]:
    """Boots of fresh clusters with empty WALs: the first
    :data:`SETUP_ONLY_BOOTS` only set up, the next measures latency, the
    last capacity.  The WAL snapshot's cost grows with the history it
    holds, so each measurement starts from the same history whatever the
    other did."""
    ctx = multiprocessing.get_context("fork")
    genesis = cluster.default_genesis(N)
    steps = plan(seconds)
    phases = [[]] * SETUP_ONLY_BOOTS + [
        [step for step in steps if step["kind"] != "ladder"],
        [step for step in steps if step["kind"] == "ladder"],
    ]
    setup: List[float] = []
    measured: List[Dict[str, Any]] = []
    loadgen_layers = None
    for boot, phase in enumerate(phases):
        wal_dir = os.path.join(workdir, f"wal-{boot}")
        os.makedirs(wal_dir)
        procs = cluster._ClusterProcs(
            ctx, _cluster_args(SYSTEM_SEED), SECRET, wal_dir)
        _warm_cores(ctx)
        started = time.perf_counter()
        procs.spawn_all()
        try:
            transport, loadgen = await _boot(procs, genesis, seed, tracer)
            setup.append(time.perf_counter() - started)
            if phase:
                if tracer is not None and not measured:
                    tracer.reset()
                measured.append(await _measure(loadgen, phase))
                if tracer is not None:
                    # Before shutdown: its sends would count as load.
                    loadgen_layers = tracer.snapshot()
            await _shutdown(procs, transport)
        finally:
            procs.terminate()
            shutil.rmtree(wal_dir, ignore_errors=True)
    return {"setup_s": setup, "phases": measured,
            "loadgen_layers": loadgen_layers}


async def _final_state(loadgen: DueTimeLoadGen) -> Dict[str, Any]:
    # A payment is confirmed by its representative; the other replicas
    # may still be settling it.  Wait until every replica has settled
    # everything (or the drain timeout passes).
    deadline = asyncio.get_running_loop().time() + DRAIN_TIMEOUT
    while True:
        stats = await loadgen.collect_stats()
        done = {reply.settled for reply in stats.values()} == {
            loadgen.submitted}
        if done or asyncio.get_running_loop().time() > deadline:
            break
        await asyncio.sleep(0.1)
    snaps = await loadgen.collect_snapshots(timeout=5.0)
    reports = await loadgen.probe()
    return {
        "settled": {k: v.settled for k, v in stats.items()},
        "rejected": {k: v.rejected for k, v in stats.items()},
        "fingerprints": {k: v.view["fingerprint"] for k, v in snaps.items()},
        "reports": reports,
    }


def run(seed: int, seconds: float, workdir: str, trace: bool) -> Dict[str, Any]:
    """One live-durable run; returns the raw observations."""
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracing.install_live(tracer)
    _install_probe(tracer)
    os.makedirs(workdir, exist_ok=True)
    try:
        raw = asyncio.run(_run(seed, seconds, workdir, tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarize(raw, tracer)


def summarize(raw: Dict[str, Any],
              tracer: Optional[tracing.Tracer]) -> Dict[str, Any]:
    """Reduce the run's observations to what the report needs."""
    phases = raw["phases"]
    steps: List[Dict[str, Any]] = []
    for phase in phases:
        loadgen: DueTimeLoadGen = phase["loadgen"]
        for i, step in enumerate(phase["steps"]):
            steps.append(dict(step, **step_verdict(
                loadgen.step_latencies[i], loadgen.step_sent[i],
                loadgen.step_backlog[i], step["rate"])))
    capacity = max((step["rate"] for step in steps
                    if step["kind"] != "warmup" and step["passes"]),
                   default=0.0)
    # The ladder's top rung passed: the knee lies above every rung.
    ladder = [step for step in steps if step["kind"] == "ladder"]
    lower_bound = len(ladder) == MAX_RUNGS and ladder[-1]["passes"]
    # The reference step: unconfirmed payments count as infinitely late.
    ref_gen: DueTimeLoadGen = phases[0]["loadgen"]
    ref = ref_gen.step_latencies[1]
    ref += [float("inf")] * (ref_gen.step_sent[1] - len(ref))
    reports = [report for phase in phases
               for report in phase["reports"].values()]
    clusters = [{
        "submitted": phase["loadgen"].submitted,
        "confirmed": phase["loadgen"].confirmed,
        "duplicate_confirms": phase["loadgen"].duplicate_confirms,
        "drained": phase["drained"],
        "settled": phase["settled"],
        "rejected": phase["rejected"],
        "fingerprints": phase["fingerprints"],
        "replicas_reporting": len(phase["reports"]),
    } for phase in phases]
    confirmed = sum(c["confirmed"] for c in clusters)
    out: Dict[str, Any] = {
        "kind": "live",
        "n": N,
        "setup_s": raw["setup_s"],
        "steps": steps,
        "capacity_pps": capacity,
        "capacity_is_lower_bound": lower_bound,
        "ref_p50_ms": percentile(ref, 0.50) * 1e3,
        "ref_p99_ms": percentile(ref, LIMIT_PERCENTILE) * 1e3,
        "ref_samples": len(ref),
        "lag_p99_ms": percentile(ref_gen.step_lags[1], 0.99) * 1e3,
        "delivered_pps": ref_gen.step_sent[1] / (
            ref_gen.step_span[1] + 1 / REF_RATE),
        "clusters": clusters,
        "submitted": sum(c["submitted"] for c in clusters),
        "confirmed": confirmed,
        "peak_rss_kb": phases[0]["peak_rss_kb"],
        "frames_sent": sum(r.frames_sent for r in reports),
        "queue_dropped": sum(r.queue_dropped for r in reports),
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracing.merge(
            [raw["loadgen_layers"]] + [r.layers for r in reports]
        ), confirmed)
    return out
