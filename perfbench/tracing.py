"""Layer tracing from outside ``src/``: wrappers around each layer's calls.

:func:`install_sim` / :func:`install_live` replace the public entry
points of each layer (and the callbacks one layer hands the next) with
timing wrappers.  A wrapper opens a span: it counts the call, its
duration, and its *self* time (duration minus the part its child spans
cover).  Spans are folded into per-name aggregates as they close, which
keeps memory flat however long the run; nothing is written until the
run ends.

Wrappers change no argument, return value or call order, so a traced
simulation executes the same events as an untraced one (the benchmark
checks this).  They must be installed before a system is built: several
layers bind callbacks at construction time.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Aggregate slot layout: [calls, total_ns, self_ns, units, max_ns].
CALLS, TOTAL, SELF, UNITS, MAX = range(5)


class Tracer:
    """Span aggregates keyed by span name (``layer.operation``)."""

    def __init__(self) -> None:
        self.slots: Dict[str, List[int]] = {}
        #: Child-time accumulators of the open spans, innermost last.
        self._stack: List[int] = []

    def slot(self, name: str) -> List[int]:
        slot = self.slots.get(name)
        if slot is None:
            slot = self.slots[name] = [0, 0, 0, 0, 0]
        return slot

    def reset(self) -> None:
        """Zero every aggregate in place (wrappers hold their slots)."""
        for slot in self.slots.values():
            slot[:] = [0, 0, 0, 0, 0]
        self._stack.clear()

    def snapshot(self) -> Dict[str, List[int]]:
        return {name: list(slot) for name, slot in self.slots.items()}

    def bump(self, name: str, units: int) -> None:
        """Count ``units`` without a span (and track the largest)."""
        slot = self.slot(name)
        slot[CALLS] += 1
        slot[UNITS] += units
        if units > slot[MAX]:
            slot[MAX] = units

    def add(self, name: str, elapsed_ns: int) -> None:
        """Record one leaf measurement timed by the caller."""
        slot = self.slot(name)
        slot[CALLS] += 1
        slot[TOTAL] += elapsed_ns
        slot[SELF] += elapsed_ns
        if elapsed_ns > slot[MAX]:
            slot[MAX] = elapsed_ns
        if self._stack:
            self._stack[-1] += elapsed_ns

    def span(self, name: str, fn: Callable[..., Any],
             units: Optional[Callable[..., int]] = None) -> Callable[..., Any]:
        """``fn`` wrapped in a span; ``units(args, kwargs, result)`` adds
        a per-call count (items, bytes, ...) to the aggregate."""
        slot = self.slot(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                slot[CALLS] += 1
                slot[TOTAL] += elapsed
                slot[SELF] += elapsed - child
                if elapsed > slot[MAX]:
                    slot[MAX] = elapsed
                if stack:
                    stack[-1] += elapsed
            if units is not None:
                slot[UNITS] += units(args, kwargs, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def counted(self, name: str, fn: Callable[..., Any],
                units: Callable[..., int]) -> Callable[..., Any]:
        """``fn`` with its calls counted but not timed: its time stays in
        the enclosing span's self time."""
        slot = self.slot(name)

        def counted(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            slot[CALLS] += 1
            slot[UNITS] += units(args, kwargs, result)
            return result

        counted.__wrapped__ = fn  # type: ignore[attr-defined]
        return counted


def merge(snapshots: Iterable[Optional[Dict[str, List[int]]]]) -> Dict[str, List[int]]:
    """Sum aggregates of several processes (maxima take the largest)."""
    merged: Dict[str, List[int]] = {}
    for snap in snapshots:
        for name, slot in (snap or {}).items():
            into = merged.setdefault(name, [0, 0, 0, 0, 0])
            for index in (CALLS, TOTAL, SELF, UNITS):
                into[index] += slot[index]
            into[MAX] = max(into[MAX], slot[MAX])
    return merged


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------
def _patch_everywhere(original: Any, wrapper: Any) -> None:
    """Replace ``original`` in every loaded ``repro`` module namespace
    (``from x import f`` copies the binding into the importer)."""
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: Any) -> Any:
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _one(args: tuple, kwargs: dict, result: Any) -> int:
    return 1


def install_protocol(tracer: Tracer) -> None:
    """Layers shared by the simulator and the live replicas."""
    from repro.brb.signed import SignedBroadcast
    from repro.core import dependencies
    from repro.core.accounts import AccountState
    from repro.core.astro2 import Astro2Replica
    from repro.crypto import signatures

    for attr in ("try_settle_spend", "settle_full", "settle_spend_only"):
        setattr(AccountState, attr, tracer.span(
            "core.accounts.settle", getattr(AccountState, attr)))
    AccountState.credit = tracer.span(
        "core.accounts.credit", AccountState.credit)

    def attached(args: tuple, kwargs: dict, result: Any) -> int:
        batch = _arg(args, kwargs, 3, "batch", ())
        return sum(len(payment.deps) for payment in batch)

    Astro2Replica._on_brb_deliver = tracer.span(
        "core.replica.deliver", Astro2Replica._on_brb_deliver, attached)
    Astro2Replica._cert_valid = tracer.counted(
        "core.dependencies.materialized", Astro2Replica._cert_valid,
        lambda args, kwargs, result: 1 if result else 0)

    dependencies.DependencyCollector.add_credit = tracer.span(
        "core.dependencies.add_credit",
        dependencies.DependencyCollector.add_credit,
        lambda args, kwargs, result: len(result))
    _patch_everywhere(dependencies.verify_certificate, tracer.span(
        "core.dependencies.verify_certificate",
        dependencies.verify_certificate))
    create = dependencies.CreditMessage.__dict__["create"].__func__
    dependencies.CreditMessage.create = classmethod(  # type: ignore[assignment]
        tracer.span("core.dependencies.credit_create", create))

    _patch_everywhere(signatures.sign, tracer.span("crypto.sign", signatures.sign))
    _patch_everywhere(signatures.verify, tracer.span(
        "crypto.verify", signatures.verify))

    def batch_items(args: tuple, kwargs: dict, result: Any) -> int:
        payload = _arg(args, kwargs, 2, "payload", None)
        return getattr(payload, "batch_items", 1)

    SignedBroadcast.broadcast = tracer.span(
        "brb.broadcast", SignedBroadcast.broadcast, batch_items)
    for attr in ("_on_prepare", "_on_ack", "_on_commit"):
        setattr(SignedBroadcast, attr, tracer.span(
            "brb.handle", getattr(SignedBroadcast, attr)))


def install_sim(tracer: Tracer) -> None:
    """Every layer a simulated run crosses."""
    from repro.consensus.replica import BftReplica
    from repro.sim.events import Simulator
    from repro.sim.network import Network
    from repro.sim.resources import FifoServer

    install_protocol(tracer)

    def is_consensus(payload: Any) -> bool:
        return type(payload).__module__.startswith("repro.consensus")

    def sent(args: tuple, kwargs: dict, result: Any) -> int:
        payload = _arg(args, kwargs, 3, "payload", None)
        tracer.bump("sim.network.bytes", _arg(args, kwargs, 4, "size", 256))
        if is_consensus(payload):
            tracer.bump("consensus.msgs", 1)
        return 1

    def broadcast(args: tuple, kwargs: dict, result: Any) -> int:
        copies = len(_arg(args, kwargs, 2, "dsts", ()))
        payload = _arg(args, kwargs, 3, "payload", None)
        size = _arg(args, kwargs, 4, "size", 256)
        tracer.bump("sim.network.bytes", size * copies)
        if is_consensus(payload):
            tracer.bump("consensus.msgs", copies)
        return copies

    Network.send = tracer.span(
        "sim.network.send", Network.send, sent)
    Network.broadcast = tracer.span(
        "sim.network.broadcast", Network.broadcast, broadcast)

    # Every scheduled callback runs inside a "sim.callback" span, so the
    # scheduler's self time is the event loop alone.  The trampoline
    # takes the callback as its first argument; no closure per event.
    trampoline = tracer.span("sim.callback", lambda fn, *args: fn(*args))
    call_at, call_after = Simulator.call_at, Simulator.call_after
    schedule_at = Simulator.schedule_at
    Simulator.call_at = (  # type: ignore[assignment]
        lambda self, at, fn, *args: call_at(self, at, trampoline, fn, *args))
    Simulator.call_after = (  # type: ignore[assignment]
        lambda self, delay, fn, *args: call_after(
            self, delay, trampoline, fn, *args))
    Simulator.schedule_at = (  # type: ignore[assignment]
        lambda self, at, fn, *args: schedule_at(
            self, at, trampoline, fn, *args))
    submit = FifoServer.submit

    def fifo_submit(self: Any, service_time: float, fn: Any = None,
                    *args: Any) -> float:
        if fn is None:
            return submit(self, service_time)
        return submit(self, service_time, trampoline, fn, *args)

    FifoServer.submit = fifo_submit  # type: ignore[assignment]
    for attr in ("_arrive", "_train_step"):
        setattr(Network, attr, tracer.span(
            "sim.callback", getattr(Network, attr)))
    Simulator.run = tracer.span(
        "sim.events.run", Simulator.run,
        lambda args, kwargs, result: result)

    for attr in ("submit_local", "_on_request", "_on_propose", "_on_write",
                 "_on_accept", "_on_stop", "_on_stopdata", "_on_sync",
                 "_check_timeouts", "_flush_now"):
        setattr(BftReplica, attr, tracer.span(
            "consensus.handle", getattr(BftReplica, attr)))


def install_live(tracer: Tracer) -> None:
    """Every layer a live replica or the load generator crosses."""
    from repro.core.persistence import ReplicaStore, WriteAheadLog
    from repro.transport import framing, tcp

    install_protocol(tracer)
    tcp.encode_frame = tracer.span(
        "transport.framing.encode", framing.encode_frame,
        lambda args, kwargs, result: len(result))
    framing.FrameDecoder.feed = tracer.span(
        "transport.framing.decode", framing.FrameDecoder.feed,
        lambda args, kwargs, result: len(result))

    def depth(args: tuple, kwargs: dict, result: Any) -> int:
        transport, dst = args[0], _arg(args, kwargs, 1, "dst", None)
        tracer.bump("transport.tcp.queue_depth", transport.queue_depth(dst))
        return 1

    tcp.TcpTransport.send = tracer.span(
        "transport.tcp.send", tcp.TcpTransport.send, depth)
    WriteAheadLog.append = tracer.span(
        "core.persistence.append", WriteAheadLog.append, _one)
    ReplicaStore.write_snapshot = tracer.span(
        "core.persistence.snapshot", ReplicaStore.write_snapshot, _one)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------
def _get(slots: Dict[str, List[int]], name: str, index: int) -> int:
    slot = slots.get(name)
    return slot[index] if slot is not None else 0


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(slots: Dict[str, List[int]], pays: int) -> Dict[str, float]:
    """Per-layer metrics from merged aggregates; ``pays`` confirmed
    payments normalise the ``_per_pay`` ones.  A layer the workload never
    crosses reads 0."""
    g = lambda name, index: _get(slots, name, index)  # noqa: E731
    settle_calls = g("core.accounts.settle", CALLS)
    credit_calls = g("core.accounts.credit", CALLS)
    dep_names = ("core.dependencies.add_credit",
                 "core.dependencies.verify_certificate",
                 "core.dependencies.credit_create")
    crypto_ns = g("crypto.sign", TOTAL) + g("crypto.verify", TOTAL)
    brb_self = g("brb.broadcast", SELF) + g("brb.handle", SELF)
    frames_decoded = g("transport.framing.decode", UNITS)
    return {
        "core.accounts.calls_per_pay": _per(settle_calls + credit_calls, pays),
        "core.accounts.settle_ns": _per(
            g("core.accounts.settle", TOTAL), settle_calls),
        "core.accounts.credit_ns": _per(
            g("core.accounts.credit", TOTAL), credit_calls),
        "core.replica.self_ns_per_pay": _per(
            g("core.replica.deliver", SELF), pays),
        "core.dependencies.credits_per_pay": _per(
            g("core.dependencies.add_credit", CALLS), pays),
        "core.dependencies.certs_minted_per_pay": _per(
            g("core.dependencies.add_credit", UNITS), pays),
        "core.dependencies.ns_per_pay": _per(
            sum(g(name, SELF) for name in dep_names), pays),
        "core.dependencies.cert_materialized_frac": _per(
            g("core.dependencies.materialized", UNITS),
            g("core.replica.deliver", UNITS)),
        "crypto.signs_per_pay": _per(g("crypto.sign", CALLS), pays),
        "crypto.verifies_per_pay": _per(g("crypto.verify", CALLS), pays),
        "crypto.ns_per_pay": _per(crypto_ns, pays),
        "brb.pays_per_batch": _per(
            g("brb.broadcast", UNITS), g("brb.broadcast", CALLS)),
        "brb.broadcast_ns": _per(
            g("brb.broadcast", TOTAL), g("brb.broadcast", CALLS)),
        "brb.self_ns_per_pay": _per(brb_self, pays),
        "sim.network.msgs_per_pay": _per(
            g("sim.network.send", UNITS) + g("sim.network.broadcast", UNITS),
            pays),
        "sim.network.bytes_per_pay": _per(
            g("sim.network.bytes", UNITS), pays),
        "sim.network.send_ns": _per(
            g("sim.network.send", SELF) + g("sim.network.broadcast", SELF),
            g("sim.network.send", CALLS) + g("sim.network.broadcast", CALLS)),
        "sim.events.events_per_pay": _per(g("sim.events.run", UNITS), pays),
        "sim.events.self_ns_per_pay": _per(g("sim.events.run", SELF), pays),
        "consensus.msgs_per_pay": _per(g("consensus.msgs", UNITS), pays),
        "consensus.self_ns_per_pay": _per(g("consensus.handle", SELF), pays),
        "workloads.draw_ns": _per(
            g("workloads.draw", TOTAL), g("workloads.draw", CALLS)),
        "transport.framing.encode_ns": _per(
            g("transport.framing.encode", TOTAL),
            g("transport.framing.encode", CALLS)),
        "transport.framing.decode_ns_per_frame": _per(
            g("transport.framing.decode", TOTAL), frames_decoded),
        "transport.framing.bytes_per_frame": _per(
            g("transport.framing.encode", UNITS),
            g("transport.framing.encode", CALLS)),
        "transport.tcp.queue_depth_max": float(
            g("transport.tcp.queue_depth", MAX)),
        "core.persistence.appends_per_pay": _per(
            g("core.persistence.append", CALLS), pays),
        "core.persistence.append_ns": _per(
            g("core.persistence.append", TOTAL),
            g("core.persistence.append", CALLS)),
        "core.persistence.snapshots": float(
            g("core.persistence.snapshot", CALLS)),
        "core.persistence.snapshot_ms_max": g(
            "core.persistence.snapshot", MAX) / 1e6,
    }


def unattributed_ns_per_pay(slots: Dict[str, List[int]], pays: int) -> float:
    """Self time of scheduled callbacks outside every wrapped layer
    (open-loop generator ticks, batch timers, handler glue)."""
    return _per(_get(slots, "sim.callback", SELF), pays)
