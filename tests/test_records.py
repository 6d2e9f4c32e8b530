"""The records writer and reader against their oracles: ``json.dumps`` per
record for ``emit_records``, the per-record reader of ``oracles`` for
``from_records``."""

import copy
import importlib.util
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from oracles import report_from_records
from qkdnet.engine import run_scenario
from qkdnet.errors import ValidationError
from qkdnet.keyrelay import HealthTransition
from qkdnet.keystore import AuditRecord
from qkdnet.report import BlockRecord, MetricsReport, RelayOutcome, ReservoirRow, SeriesRow
from qkdnet.scenario import load_scenario
from qkdnet.switchfab import SwitchEvent


def _oracle_text(report: MetricsReport) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in report.to_records())


class _Float(float):
    pass


_HOSTILE_STRINGS = ["100%", "%s %d %%", "{}", "{0}", 'say "hi"', "back\\slash", "tab\there",
                    "new\nline", "\x00\x1f\x7f", "Ånna", "☃ snow", "\ud83d", "", " "]


def test_writer_matches_json_dumps_on_hostile_rows():
    floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324, np.float64(0.1),
              np.float64(-0.0), _Float(2.5), 3, True, None, 0.1]
    rows = []
    for k, value in enumerate(floats):
        text = _HOSTILE_STRINGS[k % len(_HOSTILE_STRINGS)]
        rows.append(SeriesRow(value, text, value, value, -0.0, k))
    report = MetricsReport(
        scenario_name='100% "{run}"\\', seed=7, duration_s=np.float64(2.0),
        series=rows,
        blocks=[BlockRecord("b", "A-B", 0, 1.5, True, 0, math.nan, 1, 0, False,
                            discarded=None, via_switch="%d")],
        relay_sessions=[RelayOutcome(s, s, "Bøb", 512, "failed", (s, "x"), 0.25, None, 0, s)
                        for s in _HOSTILE_STRINGS]
        + [RelayOutcome("r", "A", "B", 1, "delivered", ["A", "B"], 1, 2.0, 0, ""),
           RelayOutcome("r", "A", "B", 1, "delivered", (), 1, -0.0, 0, "")],
        health_log=[HealthTransition(2, "A-B", "up", "cut", "no clicks for 5.0 s"),
                    HealthTransition(-0.0, "☃", "cut", "degraded", 'qber "0.2" \\ 3')],
        switch_events=[SwitchEvent(1.0, "sw", "bar")],
        audit=[AuditRecord(0.0, ("A", "B"), "deposit", 0, 64),
               AuditRecord(1.0, ("A", "B"), "consume", 0, 8, purpose="otp", consumer="%")],
        final_reservoirs={"A|B": ReservoirRow("A|B", 64, 8, 56)})
    assert report.emit_records() == _oracle_text(report)
    # Each table alone, with no row or any one of its rows.
    for attr in ("series", "blocks", "relay_sessions", "health_log", "switch_events", "audit"):
        for rows in ([], *([row] for row in getattr(report, attr))):
            single = MetricsReport("one", 1, 1.0, **{attr: rows})
            assert single.emit_records() == _oracle_text(single)


def _workload(name: str) -> dict:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build(name, 1, scale=0.2)


@pytest.mark.parametrize("name", ["metro", "metro-bigblock", "relay-chain"])
def test_writer_matches_json_dumps_on_benchmark_workloads(name):
    report = run_scenario(load_scenario(_workload(name)))
    text = report.emit_records()
    assert text == _oracle_text(report)
    records = list(map(json.loads, text.splitlines()))
    assert MetricsReport.from_records(records) == report_from_records(records) == report


def _cambridge_records():
    report = run_scenario(load_scenario({
        "version": 1, "name": "records", "topology": {"preset": "cambridge"},
        "duration_s": 30.0, "seed": 1,
        "events": [{"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
                   {"t": 0.0, "kind": "start_qkd", "tx": "Alice", "rx": "Boris"},
                   {"t": 1.0, "kind": "relay_request", "src": "Anna", "dst": "Bob", "bits": 256},
                   {"t": 2.0, "kind": "relay_request", "src": "Alice", "dst": "Boris",
                    "bits": 256},
                   {"t": 5.0, "kind": "cut_link", "link": "anna-sw"},
                   {"t": 25.0, "kind": "switch_toggle", "switch": "sw"}]}))
    return list(map(json.loads, report.emit_records().splitlines()))


_WRONG_VALUES = [None, True, False, "x", 1, 1.5, [], ["a"], {}, {"a": 1}]


def _mutate(records: list, rng: random.Random) -> str:
    """Apply one random mutation in place; returns its name."""
    i = rng.randrange(len(records))
    record = records[i]
    kind = rng.choice(["drop_key", "add_key", "wrong_type", "bad_item", "not_object",
                       "bad_type", "second_meta", "meta_moved", "unknown_type",
                       "repeat_reservoir", "harmless"])
    if kind == "drop_key":
        if isinstance(record, dict) and record:
            del record[rng.choice(sorted(record))]
    elif kind == "add_key":
        if isinstance(record, dict):
            record[rng.choice(["extra", "Type", ""])] = rng.choice(_WRONG_VALUES)
    elif kind == "wrong_type":
        if isinstance(record, dict):
            fields = sorted(k for k in record if k != "type")
            if fields:
                record[rng.choice(fields)] = rng.choice(_WRONG_VALUES)
    elif kind == "bad_item":
        lists = [(j, k) for j, r in enumerate(records) if isinstance(r, dict)
                 for k in ("pair", "path") if isinstance(r.get(k), list) and r[k]]
        if lists:
            j, k = rng.choice(lists)
            items = records[j][k]
            items[rng.randrange(len(items))] = rng.choice([1, None, 2.5, ["A"], True])
    elif kind == "not_object":
        records[i] = rng.choice([[], ["type", "meta"], "meta", 3, None, 1.5])
    elif kind == "bad_type":
        if isinstance(record, dict):
            if rng.random() < 0.2:
                record.pop("type", None)
            else:
                record["type"] = rng.choice([5, None, [], {"a": 1}, True, 2.0])
    elif kind == "second_meta":
        records.insert(rng.randrange(1, len(records) + 1), copy.deepcopy(records[0]))
    elif kind == "meta_moved":
        records.insert(rng.randrange(1, len(records)), records.pop(0))
    elif kind == "unknown_type":
        if isinstance(record, dict):
            record["type"] = rng.choice(["bogus", "Meta", "", "reservoirs"])
    elif kind == "harmless":
        # Keys in reverse order, a record moved past others, an int for a float.
        if isinstance(record, dict) and i > 0:
            moved = dict(reversed(records.pop(i).items()))
            if type(moved.get("time_s")) is float:
                moved["time_s"] = int(moved["time_s"])
            records.insert(rng.randrange(1, len(records) + 1), moved)
    else:
        reservoirs = [r for r in records if isinstance(r, dict) and r.get("type") == "reservoir"]
        if reservoirs:
            twin = copy.deepcopy(rng.choice(reservoirs))
            if rng.random() < 0.5:
                records.insert(rng.randrange(1, len(records) + 1), twin)
            else:
                other = rng.choice(reservoirs)
                other["pair"] = twin["pair"]
    return kind


def _outcome(read, records):
    try:
        return read(records).to_records()
    except ValidationError as exc:
        return f"ValidationError: {exc}"


def test_reader_matches_per_record_oracle_on_mutated_streams():
    base = _cambridge_records()
    assert {r["type"] for r in base} >= {"meta", "series", "block", "relay", "health",
                                        "switch", "audit", "reservoir"}
    assert _outcome(MetricsReport.from_records, base) == _outcome(report_from_records, base)
    rng = random.Random(2024)
    kinds = set()
    errors = equal = 0
    for trial in range(400):
        records = copy.deepcopy(base)
        for _ in range(1 if trial < 200 else 2):
            kinds.add(_mutate(records, rng))
        expected = _outcome(report_from_records, copy.deepcopy(records))
        assert _outcome(MetricsReport.from_records, records) == expected, trial
        if isinstance(expected, str):
            errors += 1
        else:
            equal += 1
    assert len(kinds) == 11 and errors > 250 and equal > 20


def test_reader_names_the_first_bad_record_in_stream_order():
    base = _cambridge_records()
    series = [i for i, r in enumerate(base) if r["type"] == "series"]
    audit = [i for i, r in enumerate(base) if r["type"] == "audit"]
    records = copy.deepcopy(base)
    # The audit rows follow the series rows. One audit row's bad item, then
    # a series row with two bad fields, then an earlier one with a bad key
    # and a bad field: each time the first bad record in stream order, and
    # its first failed check, is named.
    records[audit[0]]["pair"][1] = 7
    with pytest.raises(ValidationError, match=rf"^record {audit[0] + 1}: pair must be list, "):
        MetricsReport.from_records(records)
    records[series[5]]["qber"] = "x"
    records[series[5]]["time_s"] = "0"
    with pytest.raises(ValidationError,
                       match=rf"^record {series[5] + 1}: time_s must be int or float, got '0'$"):
        MetricsReport.from_records(records)
    records[series[2]]["time_s"] = "0"
    records[series[2]]["extra"] = 1
    with pytest.raises(ValidationError,
                       match=rf"^record {series[2] + 1}: missing or unknown fields \['extra'\]$"):
        MetricsReport.from_records(records)
    # A reservoir row whose pair is a list: named as such, not hashed.
    records = copy.deepcopy(base)
    reservoir = [i for i, r in enumerate(records) if r["type"] == "reservoir"]
    records[reservoir[0]]["pair"] = ["A", "B"]
    records[reservoir[1]]["pair"] = {}
    with pytest.raises(ValidationError, match=rf"^record {reservoir[0] + 1}: pair must be str, "):
        MetricsReport.from_records(records)
    for stream, message in (([], "records stream has no meta record"),
                            (base[1:], "record 1: the stream must open with meta")):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            MetricsReport.from_records(stream)


def test_reader_names_a_record_with_one_field_renamed():
    # As many keys as its type has fields, but one of them misnamed.
    base = _cambridge_records()
    audit = [i for i, r in enumerate(base) if r["type"] == "audit"]
    records = copy.deepcopy(base)
    records[audit[3]]["purposes"] = records[audit[3]].pop("purpose")
    message = rf"^record {audit[3] + 1}: missing or unknown fields \['purpose', 'purposes'\]$"
    with pytest.raises(ValidationError, match=message):
        MetricsReport.from_records(records)
    assert _outcome(MetricsReport.from_records, records) == _outcome(report_from_records, records)
    # An earlier one, renamed the same way, is named first.
    records[audit[2]]["time"] = records[audit[2]].pop("time_s")
    message = rf"^record {audit[2] + 1}: missing or unknown fields \['time', 'time_s'\]$"
    with pytest.raises(ValidationError, match=message):
        MetricsReport.from_records(records)
