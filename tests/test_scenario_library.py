"""Every document under scenarios/ runs twice through the CLI to the same
record bytes, verifies clean, writes each record as sorted-key json.dumps,
and shows the behaviour it was written to show. Every run of
scenarios/digest.py gives the records digest committed in
scenarios/digests.txt."""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from qkdnet.cli import main
from qkdnet.engine import run_scenario
from qkdnet.scenario import load_scenario

LIBRARY = Path(__file__).resolve().parent.parent / "scenarios"
DOCUMENTS = sorted(LIBRARY.glob("*.json"))
DIGESTS = LIBRARY / "digests.txt"

_spec = importlib.util.spec_from_file_location("scenario_digest", LIBRARY / "digest.py")
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)
RUNS = list(digest.runs())


def _committed():
    """The numpy version digests.txt was made with, and its digests by
    (name, seed)."""
    header, *lines = DIGESTS.read_text().splitlines()
    assert header.startswith("# numpy "), header
    digests = {}
    for line in lines:
        name, seed, sha = line.split()
        assert (name, int(seed)) not in digests, f"{name} seed {seed} listed twice"
        digests[name, int(seed)] = sha
    return header.removeprefix("# numpy "), digests


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    """A document's records from its first CLI run, run once for this
    module: the digest test reads the bytes the library test wrote."""
    runs = {}

    def records(document: Path) -> bytes:
        if document.stem not in runs:
            out = tmp_path_factory.mktemp(document.stem)
            assert main(["run", "--scenario", str(document), "--out", str(out),
                         "--format", "records"]) == 0
            runs[document.stem] = (out / "metrics.records.jsonl").read_bytes()
        return runs[document.stem]

    return records


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
def test_library_document_runs_twice_alike_and_verifies(document, tmp_path, capsys,
                                                       first_run):
    assert set(PROPERTIES) <= {p.stem for p in DOCUMENTS}
    records_text = first_run(document)
    assert main(["run", "--scenario", str(document), "--out", str(tmp_path),
                 "--format", "records"]) == 0
    again = tmp_path / "metrics.records.jsonl"
    assert again.read_bytes() == records_text
    capsys.readouterr()
    assert main(["verify", "--records", str(again)]) == 0, capsys.readouterr().out
    lines = records_text.decode().splitlines()
    records = [json.loads(line) for line in lines]
    for n, (line, record) in enumerate(zip(lines, records), 1):
        assert line == json.dumps(record, sort_keys=True), f"line {n}"
    check = PROPERTIES.get(document.stem)
    if check is not None:
        check(records)


def test_every_run_has_one_committed_digest():
    _, digests = _committed()
    assert sorted(digests) == sorted((name, doc["seed"]) for name, doc in RUNS)


@pytest.mark.parametrize("name,doc", [pytest.param(name, doc, id=f"{name}-{doc['seed']}")
                                      for name, doc in RUNS])
def test_records_match_the_committed_digest(name, doc, first_run):
    # A records change regenerates digests.txt and says why in CHANGES.md
    # (docs/formats.md). Library documents reuse the library test's run.
    version, digests = _committed()
    if version != np.__version__:
        pytest.skip(f"digests made with numpy {version}, installed {np.__version__}: "
                    "numpy keeps no random stream across versions (NEP 19)")
    document = LIBRARY / f"{name}.json"
    if document.exists():
        records_text = first_run(document)
    else:
        records_text = run_scenario(load_scenario(doc)).emit_records().encode()
    seed, sha = doc["seed"], hashlib.sha256(records_text).hexdigest()
    committed = digests.get((name, seed))
    assert sha == committed, f"{name} seed {seed}: records digest {sha}, committed {committed}"
