"""2x2 switch semantics and receiver realignment."""

import math

import numpy as np
import pytest

from qkdnet import physlink as pl
from qkdnet.engine import Engine, run_scenario
from qkdnet.errors import ConfigurationError
from qkdnet.report import verify_report
from qkdnet.scenario import load_scenario
from qkdnet.switchfab import (
    REALIGN_FRAME_BUDGET,
    SWITCHING_TIME_S,
    SwitchEvent,
    SwitchPosition,
    SwitchState,
    realign_receiver,
    resolve_path,
    schedule_tick,
    toggle,
)


def _switch(**kw):
    base = dict(switch_id="sw", tx_ports=("Alice", "Anna"), rx_ports=("Bob", "Boris"),
                position=SwitchPosition.BAR)
    base.update(kw)
    return SwitchState(**base)


def test_bar_and_cross_mappings():
    bar = _switch()
    assert resolve_path(bar, "Alice") == "Bob"
    assert resolve_path(bar, "Anna") == "Boris"
    cross = _switch(position=SwitchPosition.CROSS)
    assert resolve_path(cross, "Alice") == "Boris"
    assert resolve_path(cross, "Anna") == "Bob"


def test_connectivity_is_perfect_matching():
    for position in SwitchPosition:
        sw = _switch(position=position)
        receivers = {resolve_path(sw, tx) for tx in sw.tx_ports}
        assert receivers == set(sw.rx_ports)


def test_blocked_during_busy_window():
    sw = _switch(toggled_at_s=10.0)
    assert resolve_path(sw, "Alice", now_s=10.004) is None
    assert resolve_path(sw, "Alice", now_s=10.009) == "Bob"
    assert resolve_path(sw, "Alice", now_s=9.0) == "Bob"  # before the toggle


def test_blackout_holds_from_the_toggle_instant_to_its_end():
    # The blackout once was read off its end alone, so float rounding let
    # light through at the toggle instant itself: at 0.3, 5.0, 900.0, 1e6.
    rng = np.random.default_rng(7)
    times = [0.0, 0.3, 5.0, 12.345, 900.0, 1e6,
             *rng.uniform(0.0, 1e6, 2000), *rng.uniform(0.0, 10.0, 2000)]
    for t in times:
        sw, _ = toggle(_switch(), float(t))
        assert sw.busy_until_s == t + SWITCHING_TIME_S
        assert resolve_path(sw, "Alice", t) is None, t
        assert resolve_path(sw, "Alice", sw.busy_until_s) == "Boris", t
        assert resolve_path(sw, "Alice", math.nextafter(t, -math.inf)) == "Boris", t


def test_unknown_port_rejected():
    with pytest.raises(ConfigurationError):
        resolve_path(_switch(), "Mallory")


def test_schedule_tick_before_first_boundary():
    sw = _switch(schedule_period_s=900.0)
    after, events = schedule_tick(sw, 899.9)
    assert after.position is sw.position and not events


def test_schedule_tick_toggles_with_busy_window():
    sw = _switch(schedule_period_s=900.0)
    after, events = schedule_tick(sw, 900.0)
    assert after.position is SwitchPosition.CROSS
    assert after.busy_until_s == pytest.approx(900.0 + SWITCHING_TIME_S)
    assert events == [SwitchEvent(900.0, "sw", "cross")]


def test_two_ticks_return_to_original():
    sw = _switch(schedule_period_s=900.0)
    mid, _ = schedule_tick(sw, 900.0)
    final, events = schedule_tick(mid, 1800.0)
    assert final.position is sw.position
    assert len(events) == 1


def test_catch_up_processes_all_due_toggles():
    sw = _switch(schedule_period_s=100.0)
    final, events = schedule_tick(sw, 350.0)
    assert [e.time_s for e in events] == [100.0, 200.0, 300.0]
    assert final.position is SwitchPosition.CROSS


def test_explicit_toggle_list():
    sw = _switch(toggle_times_s=(5.0, 7.0))
    after, events = schedule_tick(sw, 6.0)
    assert after.position is SwitchPosition.CROSS
    assert after.next_toggle_s == 7.0
    after, events = schedule_tick(after, 100.0)
    assert after.position is SwitchPosition.BAR
    assert after.next_toggle_s is None


def test_toggle_on_command_leaves_the_schedule_alone():
    sw = _switch(schedule_period_s=900.0)
    after, event = toggle(sw, 50.0)
    assert event == SwitchEvent(50.0, "sw", "cross")
    assert after.busy_until_s == pytest.approx(50.0 + SWITCHING_TIME_S)
    assert (after.toggles_done, after.next_toggle_s) == (0, 900.0)


def test_scenario_toggles_leave_the_periodic_schedule_alone():
    # Cambridge starts in CROSS (Anna-Bob); the commands at 50 and 100 s
    # flip it to BAR (Alice-Bob) and back, and the schedule still flips it
    # at 900 s, not 50 or 100 s later.
    starts = [{"t": 0.0, "kind": "start_qkd", "tx": tx, "rx": rx}
              for tx, rx in (("Anna", "Bob"), ("Alice", "Boris"),
                             ("Alice", "Bob"), ("Anna", "Boris"))]
    report = run_scenario(load_scenario({
        "version": 1, "name": "toggle-on-command", "topology": {"preset": "cambridge"},
        "duration_s": 960.0, "seed": 1,
        "events": starts + [
            {"t": 50.0, "kind": "switch_toggle", "switch": "sw"},
            {"t": 100.0, "kind": "switch_toggle", "switch": "sw"},
            {"t": 150.0, "kind": "cut_link", "link": "anna-sw"},
            {"t": 170.0, "kind": "restore_link", "link": "anna-sw"}]}))
    assert report.switch_events == [SwitchEvent(50.0, "sw", "bar"),
                                    SwitchEvent(100.0, "sw", "cross"),
                                    SwitchEvent(900.0, "sw", "bar")]

    def secret(cid, lo, hi):
        return sum(b.secret_bits for b in report.blocks
                   if b.channel_id == cid and lo <= b.t_start and b.t_end <= hi)

    for lo, hi, on, off in ((0, 50, "Anna-Bob", "Alice-Bob"),
                            (50, 100, "Alice-Bob", "Anna-Bob"),
                            (100, 900, "Anna-Bob", "Alice-Bob"),
                            (900, 960, "Alice-Bob", "Anna-Bob")):
        assert secret(on, lo, hi) > 0 and secret(off, lo, hi) == 0, (lo, hi)
    assert verify_report(report) == []


# ---------------------------------------------------------------------------
# realignment
# ---------------------------------------------------------------------------

def _fast_link(**kw):
    base = dict(mean_photon_number=0.5, channel_loss_db=0.0, detector_efficiency=1.0,
                dark_count_prob=0.0, dead_time_s=0.0, intrinsic_error=0.0)
    base.update(kw)
    return pl.LinkParams(**base)


def test_realign_noop_when_already_aligned():
    # Toggle-back to the previous transmitter: one confirmation frame only.
    outcome = realign_receiver(_fast_link(), pl.PhaseState(), seed=1,
                               training_slots=4096)
    assert outcome.converged and outcome.frames_spent == 1


def test_realign_converges_from_random_phase():
    rng = np.random.default_rng(42)
    converged_fast = 0
    for trial in range(1000):
        phase = pl.PhaseState(phase_error_rad=float(rng.uniform(-math.pi, math.pi)),
                              feedback_gain=0.5)
        outcome = realign_receiver(_fast_link(), phase, seed=trial,
                                   training_slots=4096)
        if outcome.converged and outcome.frames_spent <= 30:
            converged_fast += 1
    assert converged_fast >= 990


def test_realign_needs_32_sifted_bits_per_reading():
    # About 8 sifted bits a frame at zero phase error: every reading would
    # be 0, and each once passed on its first frame.
    outcome = realign_receiver(_fast_link(), pl.PhaseState(), seed=1, training_slots=40)
    assert not outcome.converged
    assert outcome.frames_spent == REALIGN_FRAME_BUDGET
    assert outcome.last_training_qber is None


def test_a_session_behind_80_db_does_not_converge_on_a_few_detections():
    # With no dark counts a frame holds a detection or two. At seed 1 one
    # agreeing detection once passed the realignment at 7.25 s; the silent
    # rounds after it were flagged cut at 12.25 s while the link was lit.
    report = run_scenario(load_scenario({
        "version": 1, "duration_s": 60.0, "seed": 1,
        "topology": {"version": 1,
                     "nodes": [{"id": "A", "role": "tx"}, {"id": "B", "role": "rx"}],
                     "links": [{"id": "a-b", "a": "A", "b": "B", "length_km": 5.0,
                                "loss_db_override": 80.0}],
                     "defaults": {"params": {"dark_count_prob": 0.0}}},
        "events": [{"t": 0.0, "kind": "start_qkd", "tx": "A", "rx": "B"}]}))
    assert [(h.time_s, h.new, h.cause) for h in report.health_log] == [
        (50.0, "degraded", "realignment failed to converge")]
    assert report.blocks == []
    assert verify_report(report) == []


def test_a_lit_link_whose_realignment_never_converges_never_reads_cut(monkeypatch):
    # Behind 80 dB with no dark counts every realignment spends its 200
    # frames, 50 s, and fails. The link is lit, so the session realigns
    # again at once with its zero-click watch reset: one degraded row at
    # the first failure, no cut, and back-to-back realignments.
    realigns = []
    on_realign = Engine._on_realign

    def spy_realign(self, t, channel_id, token):
        realigns.append(t)
        on_realign(self, t, channel_id, token)

    monkeypatch.setattr(Engine, "_on_realign", spy_realign)
    report = run_scenario(load_scenario({
        "version": 1, "duration_s": 300.0, "seed": 1,
        "topology": {"version": 1,
                     "nodes": [{"id": "A", "role": "tx"}, {"id": "B", "role": "rx"}],
                     "links": [{"id": "a-b", "a": "A", "b": "B", "length_km": 5.0,
                                "loss_db_override": 80.0}],
                     "defaults": {"params": {"dark_count_prob": 0.0}}},
        "events": [{"t": 0.0, "kind": "start_qkd", "tx": "A", "rx": "B"}]}))
    assert realigns == [pytest.approx(50.0 * n) for n in range(7)]
    assert [(h.time_s, h.new, h.cause) for h in report.health_log] == [
        (50.0, "degraded", "realignment failed to converge")]
    assert report.blocks == []
    assert verify_report(report) == []


def test_realign_fails_on_dead_link():
    params = _fast_link(channel_loss_db=math.inf)
    outcome = realign_receiver(params, pl.PhaseState(phase_error_rad=1.0), seed=3,
                               training_slots=2048)
    assert not outcome.converged
    assert outcome.frames_spent == REALIGN_FRAME_BUDGET
