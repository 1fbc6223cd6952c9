"""The replica's certificate memo is a pure memo of ``verify_certificate``.

``Astro2Replica._cert_valid`` caches one full verification per sub-batch
(§VI-A) keyed by ``(shard, sub-batch digest)``.  A cached key must never
vouch for a certificate that does not itself verify: a Byzantine
representative could otherwise mint money by pairing a known key with a
fabricated sub-batch, and correct replicas with different cache
contents could disagree on one certificate.
"""

from __future__ import annotations

import functools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dependencies import DependencyCertificate, verify_certificate
from repro.core.payment import Payment
from repro.core.persistence import ReplicaStore
from repro.core.system import Astro2System
from repro.crypto.signatures import Signature

GENESIS = {"alice": 100, "bob": 50, "carol": 0, "dave": 25}
GHOST = Payment("ghost", 1, "bob", 1 << 40)


def _drive(system):
    """Bob spends a three-payment sub-batch of credits from alice, so
    every replica verifies (and memoizes) its certificate."""
    for _ in range(3):
        system.submit("alice", "bob", 10)
    system.settle_all()
    system.submit("bob", "carol", 70)
    system.settle_all()


@functools.lru_cache(maxsize=None)
def _warm_system():
    system = Astro2System(num_replicas=4, genesis=dict(GENESIS))
    _drive(system)
    return system


def _real_cert(replica):
    """A certificate of the three-payment sub-batch that ``replica``
    materialized (it carries the very tuples the memo holds)."""
    (bob_pays,) = replica.state.xlog("bob").entries()
    cert = next(c for c in bob_pays.deps if len(c.subbatch) == 3)
    key = (cert.shard_id, cert.subbatch_digest)
    assert key in replica._verified_certs
    return cert


def _forgeries(cert):
    """Ghost certificates reusing the cached (shard, digest) key."""
    swapped = list(cert.subbatch)
    swapped[1] = GHOST
    return [
        # A fabricated one-payment sub-batch and no signatures at all.
        DependencyCertificate(
            GHOST, cert.shard_id, (GHOST,), (),
            subbatch_digest=cert.subbatch_digest,
        ),
        # The real signatures over a copy of the real sub-batch in which
        # the ghost took the place of a member.
        DependencyCertificate(
            GHOST, cert.shard_id, tuple(swapped), cert.signatures,
            subbatch_digest=cert.subbatch_digest,
        ),
    ]


def test_cached_key_does_not_validate_forged_certificates():
    replica = _warm_system().replicas[0]
    cert = _real_cert(replica)
    assert replica._cert_valid(cert)
    for forged in _forgeries(cert):
        assert not verify_certificate(
            forged, replica.directory, replica.keychain
        )
        assert not replica._cert_valid(forged)


def test_cached_tuples_do_not_validate_a_ghost_at_a_real_index():
    """The very memoized tuples, but a payment that is not the member at
    ``index``: the O(1) positional check alone must reject it."""
    replica = _warm_system().replicas[0]
    cert = _real_cert(replica)
    forged = DependencyCertificate(
        GHOST, cert.shard_id, cert.subbatch, cert.signatures,
        subbatch_digest=cert.subbatch_digest, index=cert.index,
    )
    assert not replica._cert_valid(forged)
    # ...and the other members of the sub-batch stay valid at their own
    # positions only.
    for index, member in enumerate(cert.subbatch):
        for claimed in range(len(cert.subbatch)):
            other = DependencyCertificate(
                member, cert.shard_id, cert.subbatch, cert.signatures,
                subbatch_digest=cert.subbatch_digest, index=claimed,
            )
            assert replica._cert_valid(other) == (claimed == index)


def test_index_found_by_scan_when_not_given():
    cert = _real_cert(_warm_system().replicas[0])
    for index, member in enumerate(cert.subbatch):
        found = DependencyCertificate(
            member, cert.shard_id, cert.subbatch, cert.signatures
        )
        assert found.index == index
    assert DependencyCertificate(
        GHOST, cert.shard_id, cert.subbatch, cert.signatures
    ).index == -1


def test_index_is_part_of_the_canonical_form():
    cert = _real_cert(_warm_system().replicas[0])
    moved = DependencyCertificate(
        cert.payment, cert.shard_id, cert.subbatch, cert.signatures,
        subbatch_digest=cert.subbatch_digest, index=cert.index + 1,
    )
    assert moved.canonical() != cert.canonical()


# ---------------------------------------------------------------------------
# Property: _cert_valid == verify_certificate, cold and warm
# ---------------------------------------------------------------------------
@st.composite
def tampered(draw):
    """A certificate derived from a real one, with any of its payment,
    index, sub-batch or signatures tampered with (or kept as is)."""
    replica = _warm_system().replicas[0]
    cert = _real_cert(replica)
    real = cert.subbatch
    payment = draw(st.sampled_from(real + (GHOST,)))
    index = draw(st.integers(min_value=-2, max_value=len(real) + 1))
    position = draw(st.integers(min_value=0, max_value=len(real) - 1))
    replaced = real[:position] + (GHOST,) + real[position + 1:]
    subbatch = draw(st.sampled_from([
        real,  # the memoized object itself
        tuple(list(real)),  # equal content, another object
        replaced,
        real[:position],
        (payment,),
    ]))
    sigs = cert.signatures
    forged_sig = Signature(sigs[0].signer, sigs[0]._token ^ 1)
    signatures = draw(st.sampled_from([
        sigs,
        tuple(list(sigs)),
        sigs[:1],
        (sigs[0],) * len(sigs),
        (forged_sig,) + sigs[1:],
        sigs + sigs[:1],
        (),
    ]))
    return DependencyCertificate(
        payment, cert.shard_id, subbatch, signatures,
        subbatch_digest=cert.subbatch_digest, index=index,
    )


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(tampered())
def test_memo_is_pure(cert):
    replica = _warm_system().replicas[0]
    expected = verify_certificate(cert, replica.directory, replica.keychain)
    honest = _real_cert(replica)
    key = (cert.shard_id, cert.subbatch_digest)
    saved = dict(replica._verified_certs)
    try:
        # Cold: nothing cached for the key.
        del replica._verified_certs[key]
        assert replica._cert_valid(cert) == expected
        # Warm: the honest certificate's tuples cached under the key.
        replica._verified_certs[key] = (honest.subbatch, honest.signatures)
        assert replica._cert_valid(cert) == expected
        # Again, after ``cert`` may have refreshed the memo.
        assert replica._cert_valid(cert) == expected
    finally:
        replica._verified_certs = saved


# ---------------------------------------------------------------------------
# Durability: the memo survives a WAL snapshot/restore
# ---------------------------------------------------------------------------
def test_memo_survives_snapshot_restore_and_rejects_forgery(tmp_path):
    def build_bound():
        system = Astro2System(num_replicas=4, genesis=dict(GENESIS))
        reports = {
            replica.node_id: replica.bind_persistence(ReplicaStore(
                str(tmp_path), replica.node_id, snapshot_interval=1,
            ))
            for replica in system.replicas
        }
        return system, reports

    system, _ = build_bound()
    _drive(system)
    before = system.replicas[0]
    memo = before._verified_certs
    assert memo
    for replica in system.replicas:  # crash: drop all in-memory state
        replica._wal.close()

    rebuilt, reports = build_bound()
    replica = rebuilt.replicas[0]
    assert reports[replica.node_id].had_snapshot
    restored = replica._verified_certs
    assert isinstance(restored, dict)
    assert restored.keys() == memo.keys()
    for key, (subbatch, signatures) in memo.items():
        got_subbatch, got_signatures = restored[key]
        assert [p.core for p in got_subbatch] == [p.core for p in subbatch]
        assert got_signatures == signatures
    cert = _real_cert(replica)
    assert replica._cert_valid(cert)
    for forged in _forgeries(cert):
        assert not replica._cert_valid(forged)


def test_restore_of_a_key_set_memo_starts_cold():
    """Snapshots written while the memo was a bare key set restore to an
    empty memo (a pure memo may always start cold)."""
    system = Astro2System(num_replicas=4, genesis=dict(GENESIS))
    _drive(system)
    replica = system.replicas[0]
    data = replica._snapshot_data()
    data["verified_certs"] = set(replica._verified_certs)
    replica._restore_snapshot(data)
    assert replica._verified_certs == {}
    (bob_pays,) = replica.state.xlog("bob").entries()
    assert all(replica._cert_valid(cert) for cert in bob_pays.deps)
    assert replica._verified_certs.keys() == data["verified_certs"]
