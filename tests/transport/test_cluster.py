"""Live-cluster assembly and in-process end-to-end settlement.

The multi-process runner is exercised by the CI ``live-smoke`` job; here
we pin the pieces that make it correct — deterministic cross-process
assembly, and the same protocol objects reaching settlement over real
TCP sockets — with all N transports on one in-process event loop so the
test stays fast and debuggable.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List

import pytest

from repro.core.messages import ClientConfirm, ClientSubmit
from repro.core.payment import Payment
from repro.core.system import Astro2System
from repro.crypto.signatures import sign
from repro.transport.clock import RealTimeClock
from repro.transport.cluster import (
    StatsReply,
    StatsRequest,
    _build_directory,
    _LoadGen,
    build_replica,
    default_genesis,
)
from repro.transport.tcp import TcpTransport

SECRET = b"in-process-cluster"


# ---------------------------------------------------------------------------
# Deterministic assembly
# ---------------------------------------------------------------------------
def test_directory_matches_simulator_assignment():
    """The cluster's independently derived client→representative map must
    equal the one Astro2System builds for a single-shard simulation."""
    n = 4
    genesis = default_genesis(n)
    cluster_dir = _build_directory(n, list(genesis))
    system = Astro2System(num_replicas=n, genesis=dict(genesis), seed=0)
    sim_dir = system.directory
    assert cluster_dir.rep_map == sim_dir.rep_map
    assert cluster_dir.members(0) == sim_dir.members(0)


def test_build_replica_is_deterministic_across_processes():
    """Two builds of the same node id produce identical key material and
    client registration (the cross-process consistency requirement)."""
    n = 4
    genesis = default_genesis(n)

    def build(node_id: int):
        return build_replica(
            "astro2",
            n,
            TcpTransport(node_id, SECRET),
            genesis,
            seed=3,
            loadgen_node=n,
        )

    first, second = build(2), build(2)
    assert sign(first.key, ("probe",)) == sign(second.key, ("probe",))
    assert first.client_nodes == second.client_nodes
    # Clients of other replicas are not re-homed to the loadgen.
    other = build_replica(
        "astro1", n, TcpTransport(0, SECRET), genesis, loadgen_node=n
    )
    rep_map = _build_directory(n, list(genesis)).rep_map
    for client, node in other.client_nodes.items():
        assert node == n and rep_map[client] == 0


def test_build_replica_rejects_unknown_system():
    with pytest.raises(ValueError):
        build_replica("astro9", 4, TcpTransport(0, SECRET), default_genesis(4))


# ---------------------------------------------------------------------------
# In-process end-to-end settlement over real sockets
# ---------------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("system", ["astro1", "astro2"])
def test_in_process_cluster_settles_payments(system):
    async def scenario():
        n = 4
        genesis = default_genesis(n)
        loop = asyncio.get_running_loop()

        transports: List[TcpTransport] = []
        replicas = []
        for node_id in range(n):
            transport = TcpTransport(node_id, SECRET)
            await transport.start()
            transports.append(transport)
        loadgen = TcpTransport(n, SECRET)
        await loadgen.start()

        peer_map = {
            t.node_id: ("127.0.0.1", t.port) for t in transports
        }
        peer_map[n] = ("127.0.0.1", loadgen.port)
        for transport in transports:
            replicas.append(
                build_replica(
                    system, n, transport, genesis, loadgen_node=n
                )
            )
            transport.connect(peer_map)
        loadgen.connect(peer_map)

        confirms: List[Payment] = []
        loadgen.on(
            ClientConfirm, lambda src, msg: confirms.append(msg.payment)
        )
        stats: Dict[int, StatsReply] = {}
        loadgen.on(
            StatsReply, lambda src, msg: stats.__setitem__(msg.node_id, msg)
        )
        for transport in transports:
            replica = replicas[transport.node_id]
            transport.on(
                StatsRequest,
                lambda src, msg, r=replica, t=transport: t.send(
                    src,
                    StatsReply(
                        t.node_id, msg.tag, r.settled_count, len(r.rejected)
                    ),
                ),
            )

        rep_map = _build_directory(n, list(genesis)).rep_map
        clients = sorted(genesis, key=repr)
        num_payments = 40
        for index in range(num_payments):
            spender = clients[index % len(clients)]
            beneficiary = clients[(index + 1) % len(clients)]
            seq = index // len(clients) + 1
            payment = Payment(spender, seq, beneficiary, 1)
            loadgen.send(rep_map[spender], ClientSubmit(payment))

        deadline = loop.time() + 20.0
        while len(confirms) < num_payments:
            if loop.time() > deadline:
                pytest.fail(
                    f"only {len(confirms)}/{num_payments} confirmed in time"
                )
            await asyncio.sleep(0.05)

        # Every replica settled the full batch set, none rejected.
        for transport in transports:
            loadgen.send(transport.node_id, StatsRequest(1))
        deadline = loop.time() + 5.0
        while len(stats) < n and loop.time() < deadline:
            await asyncio.sleep(0.02)
        assert sorted(stats) == list(range(n))
        for reply in stats.values():
            assert reply.settled == num_payments
            assert reply.rejected == 0

        await loadgen.close()
        for transport in transports:
            await transport.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Load generator pacing
# ---------------------------------------------------------------------------
class _SlowTransport:
    """A transport whose every send blocks the event loop for 1 ms."""

    def __init__(self) -> None:
        self.clock = RealTimeClock()
        #: (identifier, loop time of the send)
        self.sent: List[tuple] = []

    def on(self, kind, handler) -> None:
        pass

    def send(self, dst, message) -> None:
        time.sleep(0.001)
        self.sent.append((message.payment.identifier, self.clock.now))


def test_loadgen_offers_full_rate_when_its_loop_falls_behind():
    """At 2000 pps with 1 ms per send the loop cannot keep up.  The
    generator must still offer rate·duration payments (catching up late,
    not skipping), and time each one from when it was due, so the wait
    counts as latency (no coordinated omission)."""
    rate, duration = 2000.0, 0.25
    transport = _SlowTransport()
    loadgen = _LoadGen(transport, "astro2", 4, default_genesis(4))

    async def scenario() -> float:
        start = transport.clock.now
        await loadgen.run(rate, duration)
        return start

    start = asyncio.run(scenario())
    count = int(rate * duration)
    assert loadgen.submitted == count == len(transport.sent)
    # Send i is timed from its due time start + i/rate...
    due = [loadgen._sent_at[identifier] for identifier, _ in transport.sent]
    for index, value in enumerate(due):
        assert value == pytest.approx(start + index / rate, abs=1e-3)
    # ...which the slowed loop missed by a wide margin.
    lag = max(at - when for (_, at), when in zip(transport.sent, due))
    assert lag > 0.1

    class _Confirm:
        def __init__(self, payment):
            self.payment = payment

    for payment in list(loadgen._pending.values()):
        loadgen._on_confirm(0, _Confirm(payment))
    assert loadgen.confirmed == count
    assert max(loadgen.latencies) >= lag
