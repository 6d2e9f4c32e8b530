"""Every document under scenarios/ runs twice through the CLI to the same
record bytes, verifies clean, writes each record as sorted-key json.dumps,
and shows the behaviour it was written to show."""

import json
from pathlib import Path

import pytest

from qkdnet.cli import main

LIBRARY = Path(__file__).resolve().parent.parent / "scenarios"
DOCUMENTS = sorted(LIBRARY.glob("*.json"))


def _reconciled_block_above_8_percent(records):
    # Intercepting 30% of Anna-Bob's pulses puts its blocks near a QBER of
    # 0.11, under the 0.15 hint cap, so Cascade still reconciles them.
    kept = [r for r in records if r["type"] == "block" and not r["discarded"]]
    assert any(r["qber"] > 0.08 for r in kept)


def _sarg_about_halves_the_sifted_rate(records):
    # SARG keeps about 1/4 of the detections against BB84's 1/2.
    rows = [r for r in records if r["type"] == "series" and r["link_id"] == "Anna-Bob"]
    before = [r["sifted_bps"] for r in rows if 2.0 < r["time_s"] <= 10.0]
    after = [r["sifted_bps"] for r in rows if r["time_s"] > 11.0]
    ratio = (sum(after) / len(after)) / (sum(before) / len(before))
    assert 0.35 < ratio < 0.65, ratio


def _three_switch_records(records):
    # Toggles at 50 and 100 s on command, and at 900 s on schedule.
    assert sum(r["type"] == "switch" for r in records) == 3


def _dark_start_parked_before_its_cut_is_due(records):
    # Anna-Bob's realignment at 0 s finds its link cut and goes unlit. The
    # 5 s toggle parks it at the instant its cut falls due, so no row is
    # logged, and the 20 s toggle realigns it into key.
    assert not [r for r in records if r["type"] == "health"]
    assert any(r["type"] == "block" and r["channel_id"] == "Anna-Bob"
               and 20.0 < r["t_start"] < 22.0 for r in records)


def _cut_flagged_before_the_restore_realigns(records):
    # Anna-Boris's realignment at 5.008 s, as the toggle's blackout ends,
    # finds its link cut: it goes unlit and is flagged cut 5 s later. The
    # 12 s restore realigns it, so it sifts until the 20 s toggle parks
    # it. Anna-Bob is parked by the 5 s toggle before its cut is due.
    cuts = [(r["channel_id"], r["time_s"]) for r in records
            if r["type"] == "health" and r["new"] == "cut"]
    assert cuts == [("Anna-Boris", pytest.approx(5.008 + 5.0))]
    sifting = [r["time_s"] for r in records if r["type"] == "series"
               and r["link_id"] == "Anna-Boris" and r["sifted_bps"] > 0]
    assert sifting and 12.0 < min(sifting) and max(sifting) <= 20.0
    # A cut channel returns to up only at its third consecutive clean
    # block, never on clicks alone. Anna-Boris closes no block between the
    # restore and the toggle, so it reads cut from 10.008 s to the end.
    assert not [r for r in records if r["type"] == "block" and r["channel_id"] == "Anna-Boris"]
    assert [(r["time_s"], r["old"], r["new"]) for r in records
            if r["type"] == "health" and r["channel_id"] == "Anna-Boris"] == [
        (pytest.approx(10.008), "up", "cut")]


# Document name -> what its records must show, beyond the checks every
# document gets.
PROPERTIES = {
    "partial-attack-from-start": _reconciled_block_above_8_percent,
    "sarg-from-10s": _sarg_about_halves_the_sifted_rate,
    "toggle-on-command": _three_switch_records,
    "dark-start": _dark_start_parked_before_its_cut_is_due,
    "dark-start-four-60": _cut_flagged_before_the_restore_realigns,
}


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda p: p.stem)
def test_library_document_runs_twice_alike_and_verifies(document, tmp_path, capsys):
    assert set(PROPERTIES) <= {p.stem for p in DOCUMENTS}
    outputs = []
    for out in (tmp_path / "first", tmp_path / "again"):
        assert main(["run", "--scenario", str(document), "--out", str(out),
                     "--format", "records"]) == 0
        outputs.append(out / "metrics.records.jsonl")
    assert outputs[0].read_bytes() == outputs[1].read_bytes()
    capsys.readouterr()
    assert main(["verify", "--records", str(outputs[0])]) == 0, capsys.readouterr().out
    lines = outputs[0].read_text().splitlines()
    records = [json.loads(line) for line in lines]
    for n, (line, record) in enumerate(zip(lines, records), 1):
        assert line == json.dumps(record, sort_keys=True), f"line {n}"
    check = PROPERTIES.get(document.stem)
    if check is not None:
        check(records)
