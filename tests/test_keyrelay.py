"""Key relay: path selection, hop-by-hop OTP algebra, failure handling."""

import dataclasses
import struct

import numpy as np
import pytest

from oracles import decode_record, drive, movable
from qkdnet import keyrelay
from qkdnet import netgraph as ng
from qkdnet.errors import NoPathError
from qkdnet.keyrelay import (HealthMonitor, RelayCoordinator, RelayStatus, find_path,
                             hop_need, relay_graph)
from qkdnet.keystore import ConsumePurpose, KeyOrigin, KeyStore, scan_one_time_use
from qkdnet.netgraph import LinkHealth
from qkdnet.qkdproto.auth import auth_tag
from qkdnet.qkdproto.wire import RecordType


class _StubRng:
    """Feeds predetermined bit arrays to random_bits() as raw 64-bit words."""

    def __init__(self, arrays):
        self._queue = [np.asarray(a, dtype=np.uint8) for a in arrays]
        self.bit_generator = self

    def random_raw(self, size=None):
        bits = self._queue.pop(0)
        assert size == -(-bits.size // 64)
        padded = np.zeros(64 * size, dtype=np.uint8)
        padded[:bits.size] = bits
        return np.packbits(padded).view("<u8")


def _relay_mesh(node_specs, link_pairs):
    nodes = [{"id": n, "role": r} for n, r in node_specs]
    links = [{"id": f"{a}-{b}".lower(), "a": a, "b": b, "length_km": 1.0}
             for a, b in link_pairs]
    return ng.load_topology({"version": 1, "nodes": nodes, "links": links})


def _seed(store, pairs, bits=6000, seed=0):
    """Deposit random key on each pair; returns each pair's deposit."""
    rng = np.random.default_rng(seed)
    deposited = {pair: rng.integers(0, 2, bits, dtype=np.uint8) for pair in pairs}
    for (a, b), key in deposited.items():
        store.reservoir(a, b).deposit("seed", np.packbits(key), key.size, KeyOrigin.DIRECT_QKD)
    return deposited


def _holders(store, secret, transcripts, src):
    """The nodes that hold ``secret``: ``src``, and each hop's receiver whose
    one-time pad opens that hop's ciphertext to it."""
    holders = {src}
    for t in transcripts:
        pad = store.reservoir(*t.pair).peek(t.otp_offset_start,
                                            t.otp_offset_end - t.otp_offset_start)
        if np.array_equal(t.ciphertext ^ pad, secret):
            holders.add(t.rx_node)
    return holders


def _chain(n):
    specs = [("N0", "tx")] + [(f"N{i}", "relay") for i in range(1, n - 1)] + \
            [(f"N{n-1}", "rx")]
    pairs = [(f"N{i}", f"N{i+1}") for i in range(n - 1)]
    return _relay_mesh(specs, pairs), pairs


# ---------------------------------------------------------------------------
# failure detection
# ---------------------------------------------------------------------------

def test_healthy_blocks_keep_link_up():
    monitor = HealthMonitor()
    for i in range(10):
        monitor.report_block("L", 0.03, float(i))
    assert monitor.status("L") is LinkHealth.UP
    assert monitor.transitions == []


def test_intercept_signature_degrades_within_three_blocks():
    monitor = HealthMonitor()
    monitor.report_block("L", 0.25, 1.0)
    monitor.report_block("L", 0.24, 2.0)
    assert monitor.status("L") is LinkHealth.UP
    monitor.report_block("L", 0.26, 3.0)
    assert monitor.status("L") is LinkHealth.DEGRADED
    assert len(monitor.transitions) == 1


def test_single_bad_block_does_not_trip():
    monitor = HealthMonitor()
    monitor.report_block("L", 0.25, 1.0)
    monitor.report_block("L", 0.03, 2.0)
    monitor.report_block("L", 0.25, 3.0)
    monitor.report_block("L", 0.25, 4.0)
    assert monitor.status("L") is LinkHealth.UP


def test_zero_click_window_marks_cut():
    monitor = HealthMonitor()
    monitor.watch("L", 0.0)
    monitor.report_clicks("L", 120, 1.0)
    monitor.report_clicks("L", 0, 5.5)
    assert monitor.status("L") is LinkHealth.UP
    monitor.report_clicks("L", 0, 6.1)
    assert monitor.status("L") is LinkHealth.CUT


def test_rewatch_resets_the_zero_click_baseline():
    monitor = HealthMonitor()
    monitor.watch("L", 0.0)
    monitor.report_clicks("L", 10, 1.0)
    monitor.watch("L", 600.0)  # a session resumes after a pause
    monitor.report_clicks("L", 0, 602.0)
    assert monitor.status("L") is LinkHealth.UP
    monitor.report_clicks("L", 0, 605.5)
    assert monitor.status("L") is LinkHealth.CUT


def test_recovery_after_three_clean_blocks():
    monitor = HealthMonitor()
    for t in range(3):
        monitor.report_block("L", 0.3, float(t))
    assert monitor.status("L") is LinkHealth.DEGRADED
    monitor.report_block("L", 0.02, 4.0)
    monitor.report_block("L", 0.03, 5.0)
    assert monitor.status("L") is LinkHealth.DEGRADED
    monitor.report_block("L", 0.02, 6.0)
    assert monitor.status("L") is LinkHealth.UP
    causes = [t.cause for t in monitor.transitions]
    assert any("clean" in c for c in causes)


# ---------------------------------------------------------------------------
# find_path
# ---------------------------------------------------------------------------

def _find(topo, health, store, src, dst, r_length):
    """find_path on the current relay graph for an ``r_length``-bit relay."""
    return find_path(topo, relay_graph(topo, health, store), src, dst, hop_need(r_length))


def test_find_path_prefers_richer_relay():
    topo = ng.load_preset("cambridge")
    store = KeyStore()
    _seed(store, [("Alice", "Bob"), ("Anna", "Bob")], bits=5000)
    _seed(store, [("Alice", "Boris"), ("Anna", "Boris")], bits=4000)
    path = _find(topo, HealthMonitor(), store, "Alice", "Anna", 1000)
    assert path == ["Alice", "Bob", "Anna"]
    # Starve the Bob pairs below the request: the Boris relay takes over.
    store.reservoir("Alice", "Bob").consume(4500, ConsumePurpose.DELIVERY)
    path = _find(topo, HealthMonitor(), store, "Alice", "Anna", 1000)
    assert path == ["Alice", "Boris", "Anna"]


def test_find_path_lexicographic_tie_break():
    topo = ng.load_preset("cambridge")
    store = KeyStore()
    _seed(store, [("Alice", "Bob"), ("Anna", "Bob"),
                  ("Alice", "Boris"), ("Anna", "Boris")], bits=5000)
    path = _find(topo, HealthMonitor(), store, "Alice", "Anna", 1000)
    assert path == ["Alice", "Bob", "Anna"]  # equal min-key; "Bob" < "Boris"


def test_find_path_rejects_same_endpoints():
    topo = ng.load_preset("cambridge")
    with pytest.raises(ValueError):
        _find(topo, HealthMonitor(), KeyStore(), "Alice", "Alice", 10)


def test_find_path_cut_chain_disconnects():
    topo, pairs = _chain(5)
    store = KeyStore()
    _seed(store, pairs)
    health = HealthMonitor()
    health.force("N2-N3", LinkHealth.CUT, 0.0, "test")
    with pytest.raises(NoPathError):
        _find(topo, health, store, "N0", "N4", 100)


def test_find_path_excludes_untrusted_interior():
    topo = ng.load_topology({
        "version": 1,
        "nodes": [{"id": "A", "role": "tx"},
                  {"id": "M", "role": "rx", "trusted": False},
                  {"id": "B", "role": "rx"}],
        "links": [],
        "prepositioned": [{"a": "A", "b": "M", "bits": 4096},
                          {"a": "M", "b": "B", "bits": 4096}]})
    store = KeyStore()
    _seed(store, [("A", "M"), ("M", "B")])
    with pytest.raises(NoPathError):
        _find(topo, HealthMonitor(), store, "A", "B", 100)


def test_find_path_needs_available_key():
    topo, pairs = _chain(3)
    store = KeyStore()
    _seed(store, pairs, bits=500)
    with pytest.raises(NoPathError):
        _find(topo, HealthMonitor(), store, "N0", "N2", 501)


# ---------------------------------------------------------------------------
# relay_key
# ---------------------------------------------------------------------------

def test_relay_xor_arithmetic_by_hand():
    # R=1010, K(S,R1)=1100, K(R1,D)=0011 -> C1=0110, C2=1001.
    topo, _ = _chain(3)
    store = KeyStore()
    rng = np.random.default_rng(0)
    for pair, key_bits in ((("N0", "N1"), [1, 1, 0, 0]), (("N1", "N2"), [0, 0, 1, 1])):
        r = store.reservoir(*pair)
        r.deposit("otp", np.packbits(key_bits), 4, KeyOrigin.DIRECT_QKD)
        r.deposit("auth", np.packbits(rng.integers(0, 2, 256, dtype=np.uint8)), 256,
                  KeyOrigin.PREPOSITIONED)
    coord = RelayCoordinator(topo, HealthMonitor(), store, _StubRng([[1, 0, 1, 0]]))
    session = coord.request("N0", "N2", 4, time_s=0.0)
    assert drive(coord, session, 1.0) == "delivered"
    assert [list(np.unpackbits(t.ciphertext, count=4)) for t in session.hop_transcripts] == \
        [[0, 1, 1, 0], [1, 0, 0, 1]]
    assert list(np.unpackbits(session.delivered_secret, count=4)) == [1, 0, 1, 0]
    assert list(np.unpackbits(session.secret, count=4)) == [1, 0, 1, 0]


def test_single_hop_degenerates_to_one_otp_transfer():
    topo, pairs = _chain(2)
    store = KeyStore()
    _seed(store, pairs)
    coord = RelayCoordinator(topo, HealthMonitor(), store, np.random.default_rng(5))
    session = coord.request("N0", "N1", 1024, time_s=0.0)
    assert drive(coord, session, 0.5) == "delivered"
    assert len(session.hop_transcripts) == 1
    assert np.array_equal(session.secret, session.delivered_secret)


def test_five_hop_relay_accounting_and_algebra():
    # Two relays a size: the second 1,001-bit pad starts mid-byte, after the
    # first pad and tag, so it is read back across packed bytes.
    for n_bits in (10_000, 1_001):
        topo, pairs = _chain(6)
        store = KeyStore()
        deposited = _seed(store, pairs, bits=25_000)
        coord = RelayCoordinator(topo, HealthMonitor(), store, np.random.default_rng(6))
        sessions = [coord.request("N0", "N5", n_bits, time_s=0.0) for _ in range(2)]
        for session in sessions:
            assert drive(coord, session, 1.0) == "delivered"
            assert np.array_equal(session.secret, session.delivered_secret)
        otp = sum(a.offset_end - a.offset_start for a in store.audit
                  if a.kind == "consume" and a.purpose == "one_time_pad")
        auth = sum(a.offset_end - a.offset_start for a in store.audit
                   if a.kind == "consume" and a.purpose == "authentication")
        assert otp == 2 * 5 * n_bits
        assert auth == 2 * 5 * 128
        # Per-hop transcript algebra: ciphertext XOR consumed key = R.
        for session in sessions:
            for t in session.hop_transcripts:
                assert not any(isinstance(getattr(t, f.name), np.ndarray)
                               for f in dataclasses.fields(t))
                key = store.reservoirs[t.pair].peek(t.otp_offset_start, n_bits)
                assert np.array_equal(
                    key, np.packbits(deposited[t.pair][t.otp_offset_start:t.otp_offset_end]))
                assert np.array_equal(t.ciphertext ^ key, session.secret)
        assert scan_one_time_use(store.audit) == []
    assert sessions[1].hop_transcripts[0].otp_offset_start % 8


def test_every_hop_message_carries_its_session_number_as_frame_id():
    topo, pairs = _chain(4)
    store = KeyStore()
    _seed(store, pairs, bits=20_000)
    coord = RelayCoordinator(topo, HealthMonitor(), store, np.random.default_rng(11))
    sessions = [coord.request(src, dst, 512, time_s=0.0)
                for src, dst in (("N0", "N3"), ("N1", "N3"), ("N0", "N2"))]
    for session in sessions:
        assert drive(coord, session, 1.0) == "delivered"
    for session in sessions:
        for t in session.hop_transcripts:
            record, end = decode_record(t.message)
            assert end == len(t.message)
            assert (record.rtype, record.frame_id) == (RecordType.RELAY_HOP, session.seq)
            assert struct.unpack_from("<IH", record.payload) == (512, t.hop_index)
    assert [s.seq for s in sessions] == [1, 2, 3]


def test_relay_deposits_delivered_secret_for_endpoints():
    topo, pairs = _chain(4)
    store = KeyStore()
    _seed(store, pairs)
    coord = RelayCoordinator(topo, HealthMonitor(), store, np.random.default_rng(7))
    session = coord.request("N0", "N3", 2048, time_s=0.0)
    drive(coord, session, 1.0)
    assert store.available("N0", "N3") == 2048
    assert np.array_equal(store.reservoir("N0", "N3").peek(0, 2048), session.secret)


def test_relay_transitivity_between_transmitters():
    topo = ng.load_preset("cambridge")
    store = KeyStore()
    _seed(store, [("Alice", "Bob"), ("Anna", "Bob")])
    coord = RelayCoordinator(topo, HealthMonitor(), store, np.random.default_rng(8))
    session = coord.request("Alice", "Anna", 1024, time_s=0.0)
    assert drive(coord, session, 1.0) == "delivered"
    assert store.available("Alice", "Anna") == 1024


def test_relay_starvation_pauses_until_replenished():
    topo, pairs = _chain(3)
    store = KeyStore()
    _seed(store, [pairs[0]], bits=6000)
    _seed(store, [pairs[1]], bits=1000)  # not enough for the second hop
    coord = RelayCoordinator(topo, HealthMonitor(), store, np.random.default_rng(9))
    session = coord.request("N0", "N2", 2048, time_s=0.0)
    assert session.status is RelayStatus.PATH_PENDING  # second hop unfunded
    store.reservoir("N1", "N2").deposit(
        "more", np.packbits(np.random.default_rng(1).integers(0, 2, 4000, dtype=np.uint8)),
        4000, KeyOrigin.DIRECT_QKD)
    assert drive(coord, session, 2.0) == "delivered"


def test_path_search_skips_hops_that_cannot_pay_for_the_tag():
    # S-D holds the pad but not its authentication tag (nor, in the second
    # case, the reserve a hop must leave): a path over it would starve on
    # every step, although S-R-D can deliver.
    topo = _relay_mesh([("S", "tx"), ("R", "relay"), ("D", "rx")],
                       [("S", "R"), ("R", "D"), ("S", "D")])
    for direct_bits, reserve in ((1100, 0), (2000, 1024)):
        store = KeyStore()
        _seed(store, [("S", "D")], bits=direct_bits)
        _seed(store, [("S", "R"), ("R", "D")], bits=100_000)
        coord = RelayCoordinator(topo, HealthMonitor(), store,
                                 np.random.default_rng(15), reserve_bits=reserve)
        session = coord.request("S", "D", 1024, time_s=0.0)
        assert session.path == ["S", "R", "D"]
        assert drive(coord, session, 1.0) == "delivered"


def test_movable_reports_sessions_a_step_would_move():
    topo, pairs = _chain(3)
    store = KeyStore()
    _seed(store, pairs, bits=6000)
    health = HealthMonitor()
    coord = RelayCoordinator(topo, health, store, np.random.default_rng(17))
    starved = coord.request("N0", "N2", 2048, time_s=0.0)
    assert coord.step(starved, 0.1) == "advanced"
    store.reservoir("N1", "N2").consume(5000, ConsumePurpose.DELIVERY)
    assert coord.step(starved, 0.2) == "starved"
    pending = coord.request("N1", "N2", 2048, time_s=0.3)
    assert pending.status is RelayStatus.PATH_PENDING
    assert movable(coord, [starved, pending]) == []
    store.reservoir("N1", "N2").deposit(
        "more", np.packbits(np.random.default_rng(1).integers(0, 2, 4000, dtype=np.uint8)),
        4000, KeyOrigin.DIRECT_QKD)
    assert movable(coord, [starved, pending]) == [starved, pending]
    health.force("N1-N2", LinkHealth.CUT, 1.0, "test")
    assert movable(coord, [starved, pending]) == [starved]  # its step reroutes


def test_relay_auth_failure_fails_session_and_degrades_link(monkeypatch):
    # Hop 1's tag has one bit flipped, so the receiver's check fails there.
    def tag_corrupted_at_hop_1(key, message):
        tag = auth_tag(key, message)
        record, _ = decode_record(message)
        if struct.unpack_from("<IH", record.payload)[1] == 1:
            tag = bytes([tag[0] ^ 1]) + tag[1:]
        return tag

    monkeypatch.setattr(keyrelay, "auth_tag", tag_corrupted_at_hop_1)
    topo, pairs = _chain(3)
    store = KeyStore()
    _seed(store, pairs)
    health = HealthMonitor()
    coord = RelayCoordinator(topo, health, store, np.random.default_rng(10))
    session = coord.request("N0", "N2", 512, time_s=0.0)
    assert drive(coord, session, 1.0) == "failed"
    assert session.status is RelayStatus.FAILED
    assert health.status("N1-N2") is LinkHealth.DEGRADED
    # Every pad it consumed is written off, the failed hop's own included.
    pads = {(a.pair, a.offset_start, a.offset_end) for a in store.audit
            if a.kind == "consume" and a.purpose == ConsumePurpose.ONE_TIME_PAD.value}
    writeoffs = [(a.pair, a.offset_start, a.offset_end) for a in store.audit
                 if a.kind == "write_off"]
    assert len(pads) == 2
    assert sorted(writeoffs) == sorted(pads)
    assert scan_one_time_use(store.audit) == []
    # A failed session never steps again.
    audited = len(store.audit)
    assert coord.step(session, 2.0) == "failed"
    assert len(store.audit) == audited


def test_reroute_mid_session_writes_off_and_regenerates():
    specs = [("S", "tx"), ("R1", "relay"), ("R2", "relay"), ("D", "rx")]
    pairs = [("S", "R1"), ("S", "R2"), ("R1", "D"), ("R2", "D")]
    topo = _relay_mesh(specs, pairs)
    store = KeyStore()
    _seed(store, pairs, bits=4000)
    health = HealthMonitor()
    coord = RelayCoordinator(topo, health, store, np.random.default_rng(11))
    session = coord.request("S", "D", 1000, time_s=0.0)
    first_path = list(session.path)
    assert coord.step(session, 0.1) == "advanced"  # first hop consumed
    old_secret = session.secret.copy()
    health.force(f"{first_path[1]}-D", LinkHealth.CUT, 0.2, "test cut")
    assert coord.step(session, 0.3) == "rerouted"
    assert session.regenerations == 1
    assert not np.array_equal(session.secret, old_secret)
    assert drive(coord, session, 0.4) == "delivered"
    assert session.path[1] != first_path[1]
    writeoffs = [a for a in store.audit if a.kind == "write_off"]
    assert len(writeoffs) == 1 and writeoffs[0].offset_end - writeoffs[0].offset_start == 1000
    assert scan_one_time_use(store.audit) == []


def test_reroute_all_paths_cut_fails():
    topo, pairs = _chain(3)
    store = KeyStore()
    _seed(store, pairs)
    health = HealthMonitor()
    coord = RelayCoordinator(topo, health, store, np.random.default_rng(12))
    session = coord.request("N0", "N2", 512, time_s=0.0)
    coord.step(session, 0.1)
    health.force("N1-N2", LinkHealth.CUT, 0.2, "test")
    assert coord.step(session, 0.3) == "failed"
    assert "no alternate path" in session.failure_cause


def test_trusted_node_exposure_limited_to_path():
    specs = [("S", "tx"), ("R1", "relay"), ("R2", "relay"), ("D", "rx")]
    pairs = [("S", "R1"), ("S", "R2"), ("R1", "D"), ("R2", "D")]
    topo = _relay_mesh(specs, pairs)
    store = KeyStore()
    _seed(store, [("S", "R1"), ("R1", "D")], bits=4000)
    coord = RelayCoordinator(topo, HealthMonitor(), store, np.random.default_rng(13))
    session = coord.request("S", "D", 500, time_s=0.0)
    assert drive(coord, session, 0.5) == "delivered"
    assert session.path == ["S", "R1", "D"]
    assert "R2" not in {t.rx_node for t in session.hop_transcripts}
    assert _holders(store, session.secret, session.hop_transcripts, "S") == {"S", "R1", "D"}


def test_exposure_after_a_reroute_is_the_final_path_and_the_first_hop():
    # One hop on S-R1, then R1-D is cut: the session regenerates R and
    # delivers through R2. The first R stays at S and R1 only.
    specs = [("S", "tx"), ("R1", "relay"), ("R2", "relay"), ("D", "rx")]
    pairs = [("S", "R1"), ("S", "R2"), ("R1", "D"), ("R2", "D")]
    topo = _relay_mesh(specs, pairs)
    store = KeyStore()
    _seed(store, pairs, bits=4000)
    health = HealthMonitor()
    coord = RelayCoordinator(topo, health, store, np.random.default_rng(16))
    session = coord.request("S", "D", 500, time_s=0.0)
    assert session.path == ["S", "R1", "D"]
    assert coord.step(session, 0.1) == "advanced"
    first_secret, first_transcripts = session.secret.copy(), list(session.hop_transcripts)
    health.force("R1-D", LinkHealth.CUT, 0.2, "test cut")
    assert coord.step(session, 0.3) == "rerouted"
    assert session.regenerations == 1 and session.hop_transcripts == []
    assert drive(coord, session, 0.4) == "delivered"
    assert session.path == ["S", "R2", "D"]
    # Each final hop's receiver opens its ciphertext to the regenerated R.
    final = session.hop_transcripts
    assert [t.rx_node for t in final] == ["R2", "D"]
    assert _holders(store, session.secret, final, "S") == set(session.path)
    assert _holders(store, session.secret, first_transcripts, "S") == {"S"}
    assert _holders(store, first_secret, first_transcripts, "S") == {"S", "R1"}
    assert _holders(store, first_secret, final, "S") == {"S"}


def test_randomized_cut_sessions_always_deliver_when_possible():
    # 100 random trusted meshes, one random link cut each: every session
    # with a surviving path delivers; the audit shows no bit reuse.
    rng = np.random.default_rng(99)
    delivered = attempted = 0
    for trial in range(100):
        n = int(rng.integers(4, 9))
        names = [f"N{i}" for i in range(n)]
        link_pairs = [(names[i], names[i + 1]) for i in range(n - 1)]
        extra = int(rng.integers(0, 3))
        for _ in range(extra):
            a, b = rng.choice(n, 2, replace=False)
            a, b = sorted((int(a), int(b)))
            if b - a > 1 and (names[a], names[b]) not in link_pairs:
                link_pairs.append((names[a], names[b]))
        specs = [(names[0], "relay")] + [(x, "relay") for x in names[1:]]
        topo = _relay_mesh(specs, link_pairs)
        store = KeyStore()
        _seed(store, link_pairs, bits=3000, seed=trial)
        health = HealthMonitor()
        cut = link_pairs[int(rng.integers(0, len(link_pairs)))]
        health.force(f"{cut[0]}-{cut[1]}", LinkHealth.CUT, 0.0, "random cut")
        src, dst = names[0], names[-1]
        coord = RelayCoordinator(topo, health, store, np.random.default_rng(trial))
        session = coord.request(src, dst, 1000, time_s=0.0)
        attempted += 1
        outcome = drive(coord, session, 1.0)
        if session.status is RelayStatus.PATH_PENDING:
            # No qualifying path survives the cut; must not deliver.
            continue
        assert outcome == "delivered"
        assert np.array_equal(session.secret, session.delivered_secret)
        assert scan_one_time_use(store.audit) == []
        delivered += 1
    assert attempted == 100 and delivered > 30  # cuts rarely disconnect extras
