"""Record rows and scenario events are immutable named tuples."""

import importlib.util
import json
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from qkdnet.engine import run_scenario
from qkdnet.keystore import AuditRecord
from qkdnet.report import _ROWS, MetricsReport
from qkdnet.scenario import ScenarioEvent, load_scenario


def _example(row_type):
    """A row of ``row_type`` with a placeholder value in every field."""
    return row_type(*(f"v{k}" for k in range(len(row_type._fields))))


_ROW_TYPES = [codec.row_type for _, codec in _ROWS.values()] + [ScenarioEvent]


@pytest.mark.parametrize("row_type", _ROW_TYPES, ids=lambda t: t.__name__)
def test_assigning_any_field_of_a_row_raises_frozen_instance_error(row_type):
    row = _example(row_type)
    for name in row_type._fields:
        with pytest.raises(FrozenInstanceError):
            setattr(row, name, None)
    with pytest.raises(FrozenInstanceError):
        row.not_a_field = None
    assert row == _example(row_type)


def _relay_chain() -> dict:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build("relay-chain", 1, scale=0.2)


def test_read_rows_are_their_declared_classes_with_tuple_pairs_and_paths():
    report = run_scenario(load_scenario(_relay_chain()))
    records = list(map(json.loads, report.emit_records().splitlines()))
    parsed = MetricsReport.from_records(records)
    tables = parsed._tables()
    for tag, (_, codec) in _ROWS.items():
        assert {type(row) for row in tables[tag]} <= {codec.row_type}, tag
    assert all(tables[tag] for tag in ("series", "block", "relay", "audit", "reservoir"))
    assert all(type(row.path) is tuple for row in parsed.relay_sessions)
    assert all(type(row.pair) is tuple for row in parsed.audit)
    assert parsed == report


def test_an_audit_row_reads_its_fields_as_a_dict():
    row = AuditRecord(1.0, ("A", "B"), "consume", 0, 8, purpose="one_time_pad")
    assert vars(row) == row._asdict()
    assert AuditRecord(**{**row.__dict__, "consumer": "replay"}) == row._replace(consumer="replay")
    with pytest.raises(AttributeError):
        row.not_a_field
