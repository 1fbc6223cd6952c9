"""Localhost live cluster: one OS process per replica, real TCP sockets.

``python -m repro.transport.cluster --n 4 --system astro2`` boots an
N-replica deployment in which every replica is the *same protocol
object* the simulator runs (:class:`~repro.core.astro2.Astro2Replica` /
:class:`~repro.core.astro1.Astro1Replica`), bound to a
:class:`~repro.transport.tcp.TcpTransport` instead of a simulator
:class:`~repro.sim.node.Node`.  The parent process runs an open-loop
load generator (a paced client population, like
:class:`repro.workloads.drivers.OpenLoopDriver` but against wall time),
measures settled wall-clock throughput over a steady-state window, and
writes the result to ``BENCH_live.json``.

With ``--wal-dir`` every replica binds a
:class:`~repro.core.persistence.ReplicaStore` (append-only WAL +
periodic snapshots) before its transport starts, and ``--chaos`` drives
a fault timeline (:mod:`repro.transport.chaos`) against the running
cluster: SIGKILL/restart of replica processes, partitions, frame
delay/drop.  A restarted replica rebinds its old port, replays its log
to the pre-crash state fingerprint, pulls missed batches from a peer
(bounded catch-up), and rejoins; meanwhile the parent samples every
replica's state over a control channel and feeds the
:class:`~repro.adversary.monitor.InvariantMonitor` — the same five
safety invariants checked under simulated attacks, now on the real
cluster.  The chaos verdict, per-replica recovery latency, and final
cross-replica fingerprints land in ``BENCH_chaos.json``.

Determinism note: the simulated crypto derives digests and signature
tokens from Python's ``hash``, which is per-interpreter randomized.
All replica processes must therefore share one hash seed.  With the
``fork`` start method (Linux) children inherit the parent's seed — a
*restarted* child forks from the same parent, so recovery replays
against identical digests; with ``spawn`` this module pins
``PYTHONHASHSEED`` in the children's environment before launching them.
The parent itself never computes a protocol digest, so its own seed is
irrelevant.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import tempfile
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .clock import RealTimeClock
from .tcp import TcpTransport

__all__ = [
    "build_replica",
    "default_genesis",
    "payment_stream",
    "run_cluster",
    "ReplicaProcessError",
    "StatsRequest",
    "StatsReply",
    "Shutdown",
]

#: Default shared cluster secret for localhost runs (override with
#: ``--secret`` for anything that leaves the loopback interface).
DEFAULT_SECRET = b"astro-localhost-cluster"

#: Clients per replica in the default genesis, matching the bench lane.
CLIENTS_PER_REPLICA = 4

#: Genesis balance per client: effectively unlimited for short runs.
GENESIS_BALANCE = 1_000_000_000

#: Bind retries for a restarted replica reclaiming its old port.
_BIND_RETRIES = 50
_BIND_RETRY_DELAY = 0.1


class ReplicaProcessError(RuntimeError):
    """A replica process died although no fault was scheduled for it."""


# ---------------------------------------------------------------------------
# Control-plane messages (loadgen <-> replicas)
# ---------------------------------------------------------------------------
class StatsRequest:
    __slots__ = ("tag",)

    def __init__(self, tag: int) -> None:
        self.tag = tag


class StatsReply:
    __slots__ = ("node_id", "tag", "settled", "rejected")

    def __init__(self, node_id: int, tag: int, settled: int, rejected: int) -> None:
        self.node_id = node_id
        self.tag = tag
        self.settled = settled
        self.rejected = rejected


class Shutdown:
    __slots__ = ()


# ---------------------------------------------------------------------------
# Deterministic assembly (mirrors Astro1System / Astro2System exactly)
# ---------------------------------------------------------------------------
def default_genesis(n: int, workload: Optional[str] = None) -> Dict[str, int]:
    """The cluster's client population: ``4·n`` funded clients.

    Balances follow the resolved ``REPRO_WORKLOAD`` regime: richly
    funded everywhere except under ``merchant``, where the merchant
    slice of the (repr-sorted) population starts tight so live payouts
    exercise credit-funded settlement.  Every process — parent and
    replica children alike — resolves the same environment knob, so all
    derive an identical genesis independently.
    """
    from ..workloads.base import resolve_workload_name

    clients = [f"c{i:04d}" for i in range(CLIENTS_PER_REPLICA * n)]
    genesis = {client: GENESIS_BALANCE for client in clients}
    if resolve_workload_name(workload) == "merchant":
        from ..workloads.merchant import MERCHANT_BALANCE, merchant_split

        _, merchants = merchant_split(sorted(clients, key=repr))
        for client in merchants:
            genesis[client] = MERCHANT_BALANCE
    return genesis


def payment_stream(
    clients: Sequence[str], workload: Optional[Any] = None
) -> Iterator[Any]:
    """The deterministic payment sequence the load generator emits.

    Without a workload: round-robin spender, next client as beneficiary,
    amount 1, per-client sequence numbers dense from 1.  Exposed so the
    sim-parity tests can feed the *same* workload to a simulated system
    and compare settled sets after an identical fault timeline.

    With a :class:`~repro.workloads.base.Workload`, triples come from
    ``workload.next()`` (read-only ``None`` operations are skipped) and
    this generator only adds the dense per-spender sequence numbers.
    """
    from ..core.payment import Payment

    next_seq: Dict[str, int] = {}
    if workload is not None:
        while True:
            operation = workload.next()
            if operation is None:
                continue
            spender, beneficiary, amount = operation
            seq = next_seq.get(spender, 0) + 1
            next_seq[spender] = seq
            yield Payment(spender, seq, beneficiary, amount)
    num = len(clients)
    index = 0
    while True:
        spender = clients[index % num]
        beneficiary = clients[(index + 1) % num]
        index += 1
        seq = next_seq.get(spender, 0) + 1
        next_seq[spender] = seq
        yield Payment(spender, seq, beneficiary, 1)


def _build_directory(n: int, clients: List[str]):
    """One shard of ``n`` replicas; clients round-robin by sorted order.

    Replicates the single-shard assignment rule of
    :class:`~repro.core.system.Astro2System` (which, with one shard,
    coincides with :class:`~repro.core.system.Astro1System`'s), so every
    process — replicas and load generator alike — derives the same
    client → representative map independently.
    """
    from ..core.directory import Directory

    directory = Directory()
    members = tuple(range(n))
    directory.register_shard(0, members)
    for position, client in enumerate(sorted(clients, key=repr)):
        directory.register_client(client, members[position % n])
    return directory


def build_replica(
    system: str,
    n: int,
    transport: Any,
    genesis: Dict[str, int],
    seed: int = 0,
    loadgen_node: Optional[int] = None,
    resend_acks: bool = False,
):
    """Construct one live replica over ``transport``.

    Pure function of ``(system, n, genesis, seed, node_id)`` so each OS
    process assembles a replica consistent with every other process —
    the same trick :mod:`repro.sim.shard` uses to replicate builds
    across shard workers.  ``loadgen_node`` registers every represented
    client as living at that node id, so settlement confirmations flow
    back to the load generator.  ``resend_acks`` turns on the signed
    BRB's duplicate-PREPARE re-ACK path (needed for crash recovery, off
    for byte-identity with the simulator).
    """
    from ..core.astro1 import Astro1Replica
    from ..core.astro2 import Astro2Replica
    from ..core.config import AstroConfig
    from ..crypto.keys import Keychain, replica_owner

    config = AstroConfig(num_replicas=n, brb_resend_acks=resend_acks)
    directory = _build_directory(n, list(genesis))
    node_id = transport.node_id
    if system == "astro1":
        replica = Astro1Replica(
            transport, config, dict(genesis), directory, list(range(n))
        )
    elif system == "astro2":
        # Every process generates all replica keys in node-id order (the
        # keychain is RNG-sequential), keeping its own — identical key
        # material everywhere, like Astro2System's construction loop.
        keychain = Keychain(seed=seed + 17)
        key = None
        for member in range(n):
            generated = keychain.generate(replica_owner(member))
            if member == node_id:
                key = generated
        replica = Astro2Replica(
            transport, config, dict(genesis), directory, keychain, key
        )
    else:
        raise ValueError(f"unknown system {system!r} (astro1|astro2)")
    if loadgen_node is not None:
        for client, rep in directory.rep_map.items():
            if rep == node_id:
                replica.client_nodes[client] = loadgen_node
    return replica


# ---------------------------------------------------------------------------
# Replica child process
# ---------------------------------------------------------------------------
def _replica_main(
    system: str,
    n: int,
    node_id: int,
    conn,
    secret: bytes,
    seed: int,
    port: int = 0,
    wal_dir: Optional[str] = None,
    snapshot_every: Optional[int] = None,
    fingerprint_every: Optional[int] = None,
) -> None:
    asyncio.run(
        _replica_async(
            system, n, node_id, conn, secret, seed,
            port, wal_dir, snapshot_every, fingerprint_every,
        )
    )


async def _run_catch_up(
    replica: Any,
    transport: TcpTransport,
    replies: "asyncio.Queue",
    peer_ids: Sequence[int],
    timeout: float = 2.0,
    max_rounds: int = 1000,
) -> int:
    """Pull missed batches from peers until one reports nothing further.

    Round-robins the peers; a timed-out round (peer down or slow) backs
    off and moves to the next peer.  Live traffic keeps arriving during
    catch-up through the normal delivery path — the frontier advances
    from both directions and the loop converges when a full round
    imports nothing new and the serving peer saw nothing missing.
    """
    from ..core.persistence import CatchUpRequest

    loop = asyncio.get_running_loop()
    imported = 0
    tag = 0
    backoff = 0.1
    for round_no in range(max_rounds):
        peer = peer_ids[round_no % len(peer_ids)]
        tag += 1
        transport.send(
            peer,
            CatchUpRequest(
                tag, replica.delivered_frontier, replica.delivered_extra
            ),
        )
        deadline = loop.time() + timeout
        reply = None
        try:
            while True:
                remaining = deadline - loop.time()
                candidate = await asyncio.wait_for(
                    replies.get(), max(0.01, remaining)
                )
                if candidate.tag == tag:
                    reply = candidate
                    break
        except asyncio.TimeoutError:
            await asyncio.sleep(backoff)
            backoff = min(backoff * 2, 1.0)
            continue
        backoff = 0.1
        new = 0
        for origin, seq, batch in reply.batches:
            if replica.import_batch(origin, seq, batch):
                new += 1
        imported += new
        if reply.complete and new == 0:
            break
    return imported


async def _replica_async(
    system: str,
    n: int,
    node_id: int,
    conn,
    secret: bytes,
    seed: int,
    port: int = 0,
    wal_dir: Optional[str] = None,
    snapshot_every: Optional[int] = None,
    fingerprint_every: Optional[int] = None,
) -> None:
    from ..core.persistence import (
        FINGERPRINT_INTERVAL,
        SNAPSHOT_INTERVAL,
        CatchUpReply,
        CatchUpRequest,
        ReplicaStore,
        WalCorruption,
        serve_catch_up,
    )
    from .chaos import (
        LinkFault,
        StateSnapshotReply,
        StateSnapshotRequest,
        apply_link_fault,
        replica_state_view,
    )

    loop = asyncio.get_running_loop()
    transport = TcpTransport(node_id, secret, clock=RealTimeClock(loop))
    replica = build_replica(
        system, n, transport, default_genesis(n), seed=seed, loadgen_node=n,
        resend_acks=wal_dir is not None,
    )
    store = None
    report = None
    if wal_dir is not None:
        store = ReplicaStore(
            wal_dir,
            node_id,
            snapshot_interval=snapshot_every or SNAPSHOT_INTERVAL,
            fingerprint_interval=fingerprint_every or FINGERPRINT_INTERVAL,
        )
        try:
            # Replay must precede transport start: replayed sends
            # (confirms, CREDITs) fall on the floor instead of reaching
            # the network.
            report = replica.bind_persistence(store)
        except WalCorruption as exc:
            conn.send(("failed", node_id, str(exc)))
            return
    # A restarted replica reclaims its previous port so peers (which
    # never learn of the restart) reconnect to the same address.  The
    # predecessor was SIGKILLed, so the kernel may hold the socket for
    # a moment.
    for attempt in range(_BIND_RETRIES):
        try:
            await transport.start(port)
            break
        except OSError:
            if attempt == _BIND_RETRIES - 1:
                conn.send(("failed", node_id, f"cannot bind port {port}"))
                return
            await asyncio.sleep(_BIND_RETRY_DELAY)

    stop = asyncio.Event()
    transport.on(Shutdown, lambda src, msg: stop.set())

    def _on_stats(src: int, message: StatsRequest) -> None:
        transport.send(
            src,
            StatsReply(
                node_id,
                message.tag,
                replica.settled_count,
                len(replica.rejected),
            ),
        )

    transport.on(StatsRequest, _on_stats)
    transport.on(LinkFault, lambda src, msg: apply_link_fault(transport, msg))
    transport.on(
        StateSnapshotRequest,
        lambda src, msg: transport.send(
            src, StateSnapshotReply(msg.tag, node_id, replica_state_view(replica))
        ),
    )
    catch_up_replies: asyncio.Queue = asyncio.Queue()
    if store is not None:
        transport.on(
            CatchUpRequest,
            lambda src, msg: transport.send(src, serve_catch_up(store, msg)),
        )
        transport.on(
            CatchUpReply, lambda src, msg: catch_up_replies.put_nowait(msg)
        )

    conn.send(
        ("port", node_id, transport.port, report.as_dict() if report else None)
    )
    peers = await loop.run_in_executor(None, conn.recv)
    transport.connect(peers)
    conn.send(("ready", node_id))

    if store is not None:
        recovered = report is not None and (
            report.had_snapshot or report.replayed > 0
        )
        imported = 0
        if recovered and n > 1:
            imported = await _run_catch_up(
                replica,
                transport,
                catch_up_replies,
                [peer for peer in range(n) if peer != node_id],
            )
        # Relaunch *after* catch-up: batches that did complete at the
        # peers arrived via import (popping them from the pending set),
        # so only genuinely undelivered batches are rebroadcast.
        relaunched = replica.relaunch_pending()
        conn.send(
            (
                "caught_up",
                node_id,
                {
                    "recovery": report.as_dict(),
                    "imported": imported,
                    "relaunched": len(relaunched),
                },
            )
        )

    await stop.wait()
    await transport.close()
    if store is not None:
        store.close()


# ---------------------------------------------------------------------------
# Replica process management (parent)
# ---------------------------------------------------------------------------
class _ClusterProcs:
    """Spawns, SIGKILLs, and restarts the replica processes."""

    def __init__(self, ctx, args, secret: bytes, wal_dir: Optional[str]) -> None:
        self.ctx = ctx
        self.args = args
        self.secret = secret
        self.wal_dir = wal_dir
        self.procs: Dict[int, Any] = {}
        self.conns: Dict[int, Any] = {}
        self.ports: Dict[int, int] = {}
        self.peer_map: Dict[int, Tuple[str, int]] = {}
        #: Replicas deliberately killed by the fault schedule: exempt
        #: from the watchdog until restarted.
        self.down: set = set()

    def spawn(self, node_id: int, port: int = 0):
        parent_conn, child_conn = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=_replica_main,
            args=(
                self.args.system,
                self.args.n,
                node_id,
                child_conn,
                self.secret,
                self.args.seed,
                port,
                self.wal_dir,
                getattr(self.args, "snapshot_every", None),
                getattr(self.args, "fingerprint_every", None),
            ),
            daemon=True,
        )
        proc.start()
        self.procs[node_id] = proc
        self.conns[node_id] = parent_conn
        return parent_conn

    def spawn_all(self) -> None:
        for node_id in range(self.args.n):
            self.spawn(node_id)

    async def handshake(self, node_id: int, loop) -> Optional[Dict[str, Any]]:
        """Read the child's port announcement; returns its recovery report."""
        conn = self.conns[node_id]
        message = await loop.run_in_executor(None, conn.recv)
        if message[0] == "failed":
            raise ReplicaProcessError(
                f"replica {node_id} failed to start: {message[2]}"
            )
        assert message[0] == "port"
        self.ports[node_id] = message[2]
        return message[3]

    async def finish_boot(self, node_id: int, loop) -> None:
        conn = self.conns[node_id]
        conn.send(self.peer_map)
        message = await loop.run_in_executor(None, conn.recv)
        assert message[0] == "ready"

    async def wait_caught_up(self, node_id: int, loop) -> Dict[str, Any]:
        conn = self.conns[node_id]
        message = await loop.run_in_executor(None, conn.recv)
        assert message[0] == "caught_up"
        return message[2]

    def kill(self, node_id: int) -> None:
        """SIGKILL — no flush, no goodbye; recovery must come from the WAL."""
        self.down.add(node_id)
        self.procs[node_id].kill()

    async def restart(self, node_id: int, loop) -> Optional[Dict[str, Any]]:
        """Respawn on the same port; returns the child's recovery report."""
        self.spawn(node_id, port=self.ports[node_id])
        self.down.discard(node_id)
        recovery = await self.handshake(node_id, loop)
        await self.finish_boot(node_id, loop)
        return recovery

    def poll_unexpected(self) -> None:
        """Fail fast when a replica process dies outside the fault plan."""
        for node_id, proc in self.procs.items():
            if node_id in self.down:
                continue
            if proc.exitcode is not None:
                raise ReplicaProcessError(
                    f"replica {node_id} exited unexpectedly "
                    f"(exitcode {proc.exitcode})"
                )

    def shutdown(self) -> None:
        for proc in self.procs.values():
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)

    def terminate(self) -> None:
        for proc in self.procs.values():
            if proc.is_alive():  # pragma: no cover - crash cleanup
                proc.terminate()


# ---------------------------------------------------------------------------
# Load generator (parent process)
# ---------------------------------------------------------------------------
class _LoadGen:
    """Open-loop client population over one TcpTransport."""

    #: Shortest sleep between two pacing passes of the open-loop
    #: schedule (payments falling due meanwhile go out together).
    TICK = 0.01

    def __init__(
        self,
        transport: TcpTransport,
        system: str,
        n: int,
        genesis: Dict[str, int],
        workload: Optional[Any] = None,
    ) -> None:
        from ..core.messages import ClientConfirm
        from .chaos import StateSnapshotReply

        self.transport = transport
        self.n = n
        self.clients = sorted(genesis, key=repr)
        self.rep_map = _build_directory(n, list(genesis)).rep_map
        self._stream = payment_stream(self.clients, workload)
        self._sent_at: Dict[tuple, float] = {}
        #: identifier -> Payment, for every submitted-but-unconfirmed
        #: payment (retried during chaos drains).
        self._pending: Dict[tuple, Any] = {}
        self.submitted = 0
        self.confirmed = 0
        self.retries = 0
        #: Confirms for already-confirmed identifiers (a recovered
        #: replica re-settling relaunched batches produces these).
        self.duplicate_confirms = 0
        self.latencies: List[float] = []
        self._stats_waiters: Dict[int, Tuple[asyncio.Event, Dict[int, StatsReply]]] = {}
        self._stats_tag = 0
        self._snap_waiters: Dict[int, Tuple[asyncio.Event, Dict[int, Any]]] = {}
        self._snap_tag = 0
        transport.on(ClientConfirm, self._on_confirm)
        transport.on(StatsReply, self._on_stats_reply)
        transport.on(StateSnapshotReply, self._on_snapshot_reply)

    @property
    def pending(self) -> int:
        return len(self._pending)

    def _on_confirm(self, src: int, message) -> None:
        identifier = message.payment.identifier
        if self._pending.pop(identifier, None) is None:
            self.duplicate_confirms += 1
            return
        self.confirmed += 1
        sent = self._sent_at.pop(identifier, None)
        if sent is not None:
            self.latencies.append(self.transport.clock.now - sent)

    def _on_stats_reply(self, src: int, message: StatsReply) -> None:
        waiter = self._stats_waiters.get(message.tag)
        if waiter is None:
            return
        event, replies = waiter
        replies[message.node_id] = message
        if len(replies) == self.n:
            event.set()

    def _on_snapshot_reply(self, src: int, message) -> None:
        waiter = self._snap_waiters.get(message.tag)
        if waiter is None:
            return
        event, replies = waiter
        replies[message.node_id] = message
        if len(replies) == self.n:
            event.set()

    async def collect_stats(self, timeout: float = 5.0) -> Dict[int, StatsReply]:
        """Snapshot every replica's settled counter (waits for all N)."""
        self._stats_tag += 1
        tag = self._stats_tag
        event = asyncio.Event()
        replies: Dict[int, StatsReply] = {}
        self._stats_waiters[tag] = (event, replies)
        for node_id in range(self.n):
            self.transport.send(node_id, StatsRequest(tag))
        try:
            await asyncio.wait_for(event.wait(), timeout)
        except asyncio.TimeoutError:
            pass
        self._stats_waiters.pop(tag, None)
        return replies

    async def collect_snapshots(self, timeout: float = 2.0) -> Dict[int, Any]:
        """Ask every replica for a state view; returns whoever answered.

        A crashed replica simply does not answer — its monitor view
        stays frozen, which is exactly the invariant contract for
        crashed-but-correct replicas.
        """
        from .chaos import StateSnapshotRequest

        self._snap_tag += 1
        tag = self._snap_tag
        event = asyncio.Event()
        replies: Dict[int, Any] = {}
        self._snap_waiters[tag] = (event, replies)
        for node_id in range(self.n):
            self.transport.send(node_id, StateSnapshotRequest(tag))
        try:
            await asyncio.wait_for(event.wait(), timeout)
        except asyncio.TimeoutError:
            pass
        self._snap_waiters.pop(tag, None)
        return replies

    def retry_pending(self) -> int:
        """Resubmit every unconfirmed payment to its representative.

        Safe against duplicates: a representative that already accepted
        (or already settled) the same ``(spender, seq)`` drops the
        resubmission via its accepted-sequence guard, which crash
        recovery rebuilds conservatively.
        """
        from ..core.messages import ClientSubmit

        for payment in list(self._pending.values()):
            self.transport.send(
                self.rep_map[payment.spender], ClientSubmit(payment)
            )
            self.retries += 1
        return len(self._pending)

    async def drain(self, timeout: float, retry_interval: float) -> bool:
        """Wait (with periodic retries) until every payment confirmed."""
        clock = self.transport.clock
        deadline = clock.now + timeout
        next_retry = clock.now + retry_interval
        while self._pending and clock.now < deadline:
            await asyncio.sleep(0.05)
            if self._pending and clock.now >= next_retry:
                self.retry_pending()
                next_retry = clock.now + retry_interval
        return not self._pending

    async def run(self, rate: float, duration: float) -> None:
        """Submit ``rate`` payments/s for ``duration`` seconds.

        Paced by due time: payment ``i`` is due at ``start + i/rate``,
        and each wake-up sends every payment already due.  A loop that
        falls behind therefore catches up instead of offering less, and
        latency runs from the due time (``_sent_at`` holds it), so the
        time a payment waited for the loop shows as latency instead of
        being omitted.
        """
        from ..core.messages import ClientSubmit

        rep_map = self.rep_map
        clock = self.transport.clock
        count = int(rate * duration)
        start = clock.now
        index = 0
        while index < count:
            now = clock.now
            while index < count:
                due = start + index / rate
                if due > now:
                    break
                payment = next(self._stream)
                self._sent_at[payment.identifier] = due
                self._pending[payment.identifier] = payment
                self.transport.send(
                    rep_map[payment.spender], ClientSubmit(payment)
                )
                self.submitted += 1
                index += 1
            if index < count:
                wait = start + index / rate - clock.now
                await asyncio.sleep(max(wait, self.TICK))
        remaining = start + duration - clock.now
        if remaining > 0:
            await asyncio.sleep(remaining)


def _percentile(values: List[float], fraction: float) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[rank]


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else round(seconds * 1e3, 2)


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------
async def _run_bench(args, cluster, transport, loadgen, loop) -> Dict[str, Any]:
    """The steady-state throughput measurement (``BENCH_live.json``)."""
    wall_start = time.monotonic()
    # Warmup: bring connections up and fill the batching pipeline.
    await loadgen.run(args.rate, args.warmup)
    before = await loadgen.collect_stats()
    measure_start = transport.clock.now
    await loadgen.run(args.rate, args.duration)
    measure_elapsed = transport.clock.now - measure_start
    after = await loadgen.collect_stats()
    # Grace: let in-flight batches/credits settle before the final count.
    await asyncio.sleep(args.grace)
    final = await loadgen.collect_stats()

    deltas = {
        node_id: after[node_id].settled - before[node_id].settled
        for node_id in after
        if node_id in before
    }
    # A payment counts as live throughput once settled at *every*
    # replica (the conservative reading; per-replica deltas are reported
    # alongside).
    measured_pps = (
        min(deltas.values()) / measure_elapsed if deltas else 0.0
    )
    return {
        "system": args.system,
        "n": args.n,
        "transport": "tcp-localhost",
        "offered_pps": args.rate,
        "warmup_s": args.warmup,
        "duration_s": args.duration,
        "measured_pps": round(measured_pps, 1),
        "measure_elapsed_s": round(measure_elapsed, 3),
        "submitted": loadgen.submitted,
        "confirmed": loadgen.confirmed,
        "settled_delta_by_replica": {
            str(k): v for k, v in sorted(deltas.items())
        },
        "settled_final_by_replica": {
            str(k): final[k].settled for k in sorted(final)
        },
        "rejected_final": {
            str(k): final[k].rejected for k in sorted(final)
        },
        "confirm_latency_ms": {
            "p50": _ms(_percentile(loadgen.latencies, 0.50)),
            "p95": _ms(_percentile(loadgen.latencies, 0.95)),
        },
        "loadgen_frames_sent": transport.stats.frames_sent,
        "loadgen_frames_received": transport.stats.frames_received,
        "wall_elapsed_s": round(time.monotonic() - wall_start, 3),
    }


async def _run_chaos(args, cluster, transport, loadgen, loop) -> Dict[str, Any]:
    """Drive the fault timeline against the live cluster
    (``BENCH_chaos.json``)."""
    from ..adversary.monitor import InvariantMonitor
    from .chaos import (
        LiveFaultInjector,
        LiveMonitorFeed,
        apply_timeline,
        parse_timeline,
    )

    events = parse_timeline(args.chaos)
    genesis = default_genesis(args.n, getattr(args, "workload", None))
    directory = _build_directory(args.n, list(genesis))
    feed = LiveMonitorFeed(
        range(args.n), genesis, directory, deps=args.system == "astro2"
    )
    # dep_grace=1: live views are captured milliseconds apart, so a
    # freshly materialized dependency may precede its crediting payment
    # in a settler's view by one sample.
    monitor = InvariantMonitor(
        feed, interval=args.monitor_interval, autostart=False, dep_grace=1
    )

    recoveries: Dict[int, Dict[str, Any]] = {}
    recovery_tasks: List[asyncio.Task] = []
    t0 = loop.time()  # rebound after warmup, before the injector runs

    def crash_fn(node_id: int) -> None:
        print(f"[chaos] t={loop.time() - t0:.2f}s SIGKILL replica {node_id}")
        cluster.kill(node_id)

    async def recover_fn(node_id: int) -> None:
        started = loop.time()
        print(f"[chaos] t={started - t0:.2f}s restarting replica {node_id}")
        recovery = await cluster.restart(node_id, loop)
        entry = recoveries.setdefault(node_id, {})
        entry["recovery"] = recovery
        entry["restart_s"] = round(loop.time() - started, 3)

        async def _await_catch_up() -> None:
            info = await cluster.wait_caught_up(node_id, loop)
            entry.update(info)
            entry["recovery_latency_s"] = round(loop.time() - started, 3)
            print(
                f"[chaos] replica {node_id} caught up in "
                f"{entry['recovery_latency_s']}s "
                f"(replayed {info['recovery']['replayed']}, "
                f"imported {info['imported']}, "
                f"relaunched {info['relaunched']})"
            )

        recovery_tasks.append(asyncio.ensure_future(_await_catch_up()))

    def link_fn(node_id: int, fault) -> None:
        transport.send(node_id, fault)

    injector = LiveFaultInjector(crash_fn, recover_fn, link_fn, range(args.n))
    apply_timeline(injector, events)

    wall_start = time.monotonic()
    await loadgen.run(args.rate, args.warmup)
    t0 = loop.time()
    chaos_task = asyncio.ensure_future(injector.run(t0))

    monitor_stop = asyncio.Event()

    async def monitor_loop() -> None:
        while not monitor_stop.is_set():
            replies = await loadgen.collect_snapshots(
                timeout=args.monitor_interval * 0.5
            )
            now = loop.time() - t0
            for reply in replies.values():
                feed.update(reply, now)
            monitor.sample(now=now)
            await asyncio.sleep(args.monitor_interval)

    monitor_task = asyncio.ensure_future(monitor_loop())

    await loadgen.run(args.rate, args.duration)
    await chaos_task  # the full fault schedule has executed
    if recovery_tasks:
        await asyncio.wait(recovery_tasks, timeout=args.drain_timeout)
    drained = await loadgen.drain(args.drain_timeout, args.retry_interval)

    monitor_stop.set()
    await monitor_task

    # Final verdict round: settled counters, state fingerprints on every
    # replica (the recovered one must match the never-crashed controls),
    # one last invariant sample over the final views.
    final_stats = await loadgen.collect_stats()
    final_snaps = await loadgen.collect_snapshots(timeout=5.0)
    now = loop.time() - t0
    for reply in final_snaps.values():
        feed.update(reply, now)
    monitor.sample(now=now)
    fingerprints = {
        node_id: reply.view["fingerprint"]
        for node_id, reply in sorted(final_snaps.items())
    }
    fingerprints_equal = (
        len(fingerprints) == args.n and len(set(fingerprints.values())) == 1
    )
    verdict = monitor.verdict()
    ok = drained and verdict["ok"] and fingerprints_equal
    return {
        "system": args.system,
        "n": args.n,
        "transport": "tcp-localhost",
        "mode": "chaos",
        "timeline": args.chaos,
        "wal_dir": cluster.wal_dir,
        "offered_pps": args.rate,
        "warmup_s": args.warmup,
        "duration_s": args.duration,
        "submitted": loadgen.submitted,
        "confirmed": loadgen.confirmed,
        "retries": loadgen.retries,
        "duplicate_confirms": loadgen.duplicate_confirms,
        "unconfirmed": loadgen.pending,
        "drained": drained,
        "settled_final_by_replica": {
            str(k): final_stats[k].settled for k in sorted(final_stats)
        },
        "rejected_final": {
            str(k): final_stats[k].rejected for k in sorted(final_stats)
        },
        "fingerprints": {str(k): v for k, v in fingerprints.items()},
        "fingerprints_equal": fingerprints_equal,
        "monitor": verdict,
        "recoveries": {str(k): v for k, v in sorted(recoveries.items())},
        "injected": [
            [round(t, 3), action, payload]
            for t, action, payload in injector.log
        ],
        "confirm_latency_ms": {
            "p50": _ms(_percentile(loadgen.latencies, 0.50)),
            "p95": _ms(_percentile(loadgen.latencies, 0.95)),
        },
        "ok": ok,
        "wall_elapsed_s": round(time.monotonic() - wall_start, 3),
    }


def _resolve_loadgen_workload(args, genesis: Dict[str, int]) -> Optional[Any]:
    """Workload object for the load generator, or ``None`` for legacy.

    ``uniform`` (the unset-knob resolution) keeps the original
    round-robin/amount-1 ``payment_stream`` — the shape every live and
    chaos golden expectation was calibrated against; ``zipf`` and
    ``merchant`` switch the stream to workload-drawn triples.
    """
    from ..workloads.base import make_workload, resolve_workload_name

    name = resolve_workload_name(getattr(args, "workload", None))
    if name == "uniform":
        return None
    return make_workload(
        name, sorted(genesis, key=repr), seed=getattr(args, "seed", 0)
    )


async def _orchestrate(args, cluster: _ClusterProcs) -> Dict[str, Any]:
    loop = asyncio.get_running_loop()
    transport = TcpTransport(args.n, cluster.secret, clock=RealTimeClock(loop))
    await transport.start()
    genesis = default_genesis(args.n, getattr(args, "workload", None))
    loadgen = _LoadGen(
        transport,
        args.system,
        args.n,
        genesis,
        workload=_resolve_loadgen_workload(args, genesis),
    )

    for node_id in range(args.n):
        await cluster.handshake(node_id, loop)
    cluster.peer_map = {
        node_id: ("127.0.0.1", port) for node_id, port in cluster.ports.items()
    }
    cluster.peer_map[args.n] = ("127.0.0.1", transport.port)
    for node_id in range(args.n):
        await cluster.finish_boot(node_id, loop)
    if cluster.wal_dir is not None:
        # First boot with persistence: every child reports an (empty)
        # recovery before load starts.
        for node_id in range(args.n):
            await cluster.wait_caught_up(node_id, loop)
    transport.connect(cluster.peer_map)

    print(
        f"[cluster] {args.system} n={args.n}: replicas on ports "
        f"{[cluster.ports[i] for i in sorted(cluster.ports)]}, "
        f"loadgen on {transport.port}"
        + (f", wal in {cluster.wal_dir}" if cluster.wal_dir else "")
    )

    async def watchdog() -> None:
        while True:
            cluster.poll_unexpected()
            await asyncio.sleep(0.25)

    chaos = bool(getattr(args, "chaos", None))
    runner = _run_chaos if chaos else _run_bench
    main_task = asyncio.ensure_future(
        runner(args, cluster, transport, loadgen, loop)
    )
    watchdog_task = asyncio.ensure_future(watchdog())
    done, _pending = await asyncio.wait(
        {main_task, watchdog_task}, return_when=asyncio.FIRST_COMPLETED
    )
    if watchdog_task in done:
        # Only an unexpected replica death completes the watchdog.
        main_task.cancel()
        await asyncio.gather(main_task, return_exceptions=True)
        await transport.close()
        raise watchdog_task.exception()
    watchdog_task.cancel()
    await asyncio.gather(watchdog_task, return_exceptions=True)
    report = main_task.result()

    for node_id in range(args.n):
        if node_id not in cluster.down:
            transport.send(node_id, Shutdown())
    await asyncio.sleep(0.2)
    await transport.close()
    cluster.shutdown()
    return report


def run_cluster(args) -> Dict[str, Any]:
    """Spawn the replica processes, drive load, return the report."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        ctx = multiprocessing.get_context("fork")
    else:  # pragma: no cover - non-fork platforms
        # Children must share a hash seed (module docstring); the parent
        # re-execs them, so pin the seed through the environment.
        os.environ.setdefault("PYTHONHASHSEED", "0")
        ctx = multiprocessing.get_context("spawn")
    secret = args.secret.encode() if isinstance(args.secret, str) else args.secret
    # Replica children rebuild genesis themselves via default_genesis's
    # REPRO_WORKLOAD resolution, so an explicit --workload must reach
    # them through the environment (inherited under fork and spawn).
    workload = getattr(args, "workload", None)
    if workload:
        os.environ["REPRO_WORKLOAD"] = workload
    wal_dir = getattr(args, "wal_dir", None)
    if getattr(args, "chaos", None) and wal_dir is None:
        wal_dir = tempfile.mkdtemp(prefix="astro-wal-")
    if wal_dir is not None:
        os.makedirs(wal_dir, exist_ok=True)
    cluster = _ClusterProcs(ctx, args, secret, wal_dir)
    cluster.spawn_all()
    try:
        return asyncio.run(_orchestrate(args, cluster))
    finally:
        cluster.terminate()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.transport.cluster",
        description="Run an Astro replica cluster on localhost TCP.",
    )
    parser.add_argument("--n", type=int, default=4, help="replica count")
    parser.add_argument(
        "--system", choices=("astro1", "astro2"), default="astro2"
    )
    parser.add_argument(
        "--rate", type=float, default=1000.0, help="offered payments/s"
    )
    parser.add_argument(
        "--warmup", type=float, default=2.0, help="warmup seconds"
    )
    parser.add_argument(
        "--duration", type=float, default=10.0, help="measurement seconds"
    )
    parser.add_argument(
        "--grace", type=float, default=1.5,
        help="post-load drain before the final settled count",
    )
    parser.add_argument("--seed", type=int, default=0, help="keychain seed")
    parser.add_argument(
        "--workload", choices=("uniform", "zipf", "merchant"), default=None,
        help="payment demand distribution (default: the REPRO_WORKLOAD "
             "environment knob, else uniform)",
    )
    parser.add_argument(
        "--secret", default=DEFAULT_SECRET.decode(),
        help="shared cluster secret for the transport handshake",
    )
    parser.add_argument(
        "--chaos", default=None, metavar="TIMELINE",
        help="fault timeline, e.g. 'crash:1@5;recover:1@10' "
             "(see repro.transport.chaos)",
    )
    parser.add_argument(
        "--wal-dir", default=None,
        help="directory for per-replica WALs/snapshots (enables durable "
             "state; defaults to a temp dir when --chaos is given)",
    )
    parser.add_argument(
        "--snapshot-every", type=int, default=None,
        help="WAL records between snapshots (default: persistence module)",
    )
    parser.add_argument(
        "--fingerprint-every", type=int, default=None,
        help="WAL records between fingerprint self-checks",
    )
    parser.add_argument(
        "--monitor-interval", type=float, default=1.0,
        help="seconds between invariant-monitor samples (chaos mode)",
    )
    parser.add_argument(
        "--retry-interval", type=float, default=1.0,
        help="seconds between resubmissions of unconfirmed payments",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="max seconds to wait for full settlement after the load",
    )
    parser.add_argument(
        "--out", default=None, help="report output path "
        "(default: BENCH_chaos.json with --chaos, else BENCH_live.json)",
    )
    args = parser.parse_args(argv)
    out = args.out or ("BENCH_chaos.json" if args.chaos else "BENCH_live.json")
    report = run_cluster(args)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"[cluster] wrote {out}")
    print(json.dumps(report, indent=2))
    if args.chaos:
        return 0 if report["ok"] else 1
    return 0 if report["measured_pps"] > 0 else 1


if __name__ == "__main__":  # pragma: no cover - exercised by CI live-smoke
    raise SystemExit(main())
