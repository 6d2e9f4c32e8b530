"""Run metrics: stable CSV series plus a structured-record form that
carries the full audit log and round-trips losslessly.

CSV columns (documented, stable):
    time_s, link_id, sifted_bps, qber, secret_bps, reservoir_bits
``qber`` is empty for intervals without a completed block.

The structured-record form is JSON Lines; each line has a ``type`` field
(meta, series, block, relay, health, switch, audit, reservoir). Re-ingesting
the records reconstructs an equal report, and the ``verify`` entry point
re-checks the cross-module invariants from the records alone.

Each record type's rows are one named-tuple class whose fields are the
record's, in order (``_ROWS`` maps each ``type`` to it). Rows are written
and re-read a field column at a time, and like a frozen dataclass a row
refuses assignment with ``dataclasses.FrozenInstanceError``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import eq, itemgetter, le
from pathlib import Path
from typing import (Dict, Iterator, List, NamedTuple, Optional, Tuple, Union, get_args, get_origin,
                    get_type_hints)

from .errors import InvariantViolation, ValidationError, refuse_assignment
from .keyrelay import HealthTransition
from .keystore import AuditRecord, scan_one_time_use
from .qkdproto.secrecy import secret_length
from .switchfab import SwitchEvent


class Meta(NamedTuple):
    """The run a records stream describes: its one first record."""

    scenario_name: str
    seed: int
    duration_s: float

    __setattr__ = refuse_assignment


class SeriesRow(NamedTuple):
    time_s: float
    link_id: str
    sifted_bps: float
    qber: Optional[float]
    secret_bps: float
    reservoir_bits: int

    __setattr__ = refuse_assignment


CSV_COLUMNS = SeriesRow._fields


class BlockRecord(NamedTuple):
    """One key block. ``disclosed_bits`` of its ``sifted_bits`` were
    sacrificed to estimate ``qber``; ``usable_fraction`` is its estimator's
    beta. With ``bits_leaked`` they fix ``secret_bits`` through
    :func:`~qkdnet.qkdproto.secrecy.secret_length`."""

    block_id: str
    channel_id: str
    t_start: float
    t_end: float
    sifted_bits: int
    disclosed_bits: int
    qber: float
    usable_fraction: float
    bits_leaked: int
    secret_bits: int
    discarded: bool = False
    via_switch: Optional[str] = None

    __setattr__ = refuse_assignment


class RelayOutcome(NamedTuple):
    session_id: str
    src: str
    dst: str
    bits: int
    status: str
    path: Tuple[str, ...]
    requested_at: float
    delivered_at: Optional[float]
    regenerations: int
    failure_cause: str

    __setattr__ = refuse_assignment


class ReservoirRow(NamedTuple):
    """A pair's reservoir totals at the end of the run; ``pair`` is ``"A|B"``."""

    pair: str
    deposited: int
    consumed: int
    available: int

    __setattr__ = refuse_assignment


def _json_types(hint) -> tuple:
    """The JSON value types a field annotated ``hint`` accepts; a bool is no number."""
    if type(None) in get_args(hint):
        return _json_types(get_args(hint)[0]) + (type(None),)
    if get_origin(hint) is tuple:
        return (list,)
    return (int, float) if hint is float else (hint,)


class _Codec:
    """One record type's row class, its fields' JSON types, and its line."""

    def __init__(self, tag: str, row_type):
        hints = get_type_hints(row_type)
        self.row_type = row_type
        self.names = tuple(hints)
        self.getters = tuple(map(itemgetter, self.names))
        self.keys = {"type", *hints}
        self.types = tuple(map(_json_types, hints.values()))
        # A records line, ``json.dumps(record, sort_keys=True)``, with a ``%s`` per value.
        self.sorted_names = sorted(hints)
        self.line = "{%s}\n" % ", ".join(
            f"{json.dumps(key)}: {json.dumps(tag) if key == 'type' else '%s'}"
            for key in sorted(self.keys))

    def encode(self, rows: list) -> Iterator[str]:
        """The rows' records lines, their values written a field column at a time."""
        texts = map(_json_texts, _columns(rows, self.row_type, self.sorted_names))
        return map(self.line.__mod__, zip(*texts))

    def decode(self, at: List[int], records: List[dict], problems: list) -> Tuple[list, int]:
        """The rows of ``records`` (at stream positions ``at``), their fields checked a
        column at a time, and how many precede the first bad one; each check's first
        failure goes into ``problems``."""
        good = len(records)
        fields = None
        # Each record holds ``type``: with as many keys as its type's fields, and a
        # value for every field name, a record has exactly its type's fields.
        if all(map(eq, map(len, records), repeat(len(self.keys)))):
            try:
                fields = [list(map(get, records)) for get in self.getters]
            except KeyError:
                pass
        if fields is None:
            good = next(k for k, r in enumerate(records) if r.keys() != self.keys)
            wrong = sorted(records[good].keys() ^ self.keys)
            problems.append((at[good], 0, f"missing or unknown fields {wrong}"))
            fields = [list(map(get, records[:good])) for get in self.getters]
        columns = []
        for j, (name, types, column) in enumerate(zip(self.names, self.types, fields)):
            column = column[:good]
            as_tuple = list in types  # a list of strings, read as a tuple
            if not (set(types).issuperset(map(type, column)) and (not as_tuple or {str}.issuperset(
                    map(type, chain.from_iterable(v for v in column if type(v) is list))))):
                k = next(k for k, v in enumerate(column) if type(v) not in types or
                         type(v) is list and not all(type(item) is str for item in v))
                wanted = " or ".join(t.__name__ for t in types)
                problems.append((at[k], 1 + j, f"{name} must be {wanted}, got {column[k]!r}"))
                good = k
            elif as_tuple:
                column = [tuple(v) if type(v) is list else v for v in column]
            columns.append(column)
        return list(map(tuple.__new__, repeat(self.row_type), zip(*columns))), good


def _columns(rows: list, row_type, names) -> List[list]:
    """The rows' values of each named field, a column per name. (``zip(*rows)``
    would hold an iterator per row at once, and the collector runs for them.)"""
    return [list(map(itemgetter(row_type._fields.index(name)), rows)) for name in names]


def _json_texts(values: list) -> List[str]:
    """``json.dumps`` of each value. A column of finite floats, of ints or of
    strings that need no escape is written in one pass; any other column
    calls ``json.dumps`` once per distinct object."""
    kinds = set(map(type, values))
    if kinds == {float} and math.isfinite(sum(values)):
        return list(map(float.__repr__, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {str}:
        text = "".join(values)
        if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
            return ('"' + '"\n"'.join(values) + '"').split("\n")  # no value holds a newline
    ids = list(map(id, values))
    texts = {i: json.dumps(value) for i, value in dict(zip(ids, values)).items()}
    return list(map(texts.__getitem__, ids))


# Each record tag, in stream order, with the report field its rows fill and
# their codec. ``meta`` fills the report's own first three fields.
_ROWS = {tag: (attr, _Codec(tag, row_type)) for tag, attr, row_type in (
    ("meta", None, Meta),
    ("series", "series", SeriesRow),
    ("block", "blocks", BlockRecord),
    ("relay", "relay_sessions", RelayOutcome),
    ("health", "health_log", HealthTransition),
    ("switch", "switch_events", SwitchEvent),
    ("audit", "audit", AuditRecord),
    ("reservoir", "final_reservoirs", ReservoirRow),
)}


@dataclass
class MetricsReport:
    scenario_name: str
    seed: int
    duration_s: float
    series: List[SeriesRow] = field(default_factory=list)
    blocks: List[BlockRecord] = field(default_factory=list)
    relay_sessions: List[RelayOutcome] = field(default_factory=list)
    health_log: List[HealthTransition] = field(default_factory=list)
    switch_events: List[SwitchEvent] = field(default_factory=list)
    audit: List[AuditRecord] = field(default_factory=list)
    final_reservoirs: Dict[str, ReservoirRow] = field(default_factory=dict)

    def series_problems(self) -> List[str]:
        """Series rows out of range: a negative rate, a QBER outside
        [0, 0.5], or a time outside [0, duration]."""
        problems = []
        for row in self.series:
            if not (row.sifted_bps >= 0 and row.secret_bps >= 0):
                problems.append(f"series {row.link_id} at t={row.time_s}: negative rate")
            if row.qber is not None and not 0.0 <= row.qber <= 0.5:
                problems.append(f"series {row.link_id} at t={row.time_s}: "
                                f"QBER {row.qber} outside [0, 0.5]")
            if not 0.0 <= row.time_s <= self.duration_s:
                problems.append(f"series {row.link_id} at t={row.time_s}: "
                                f"time outside [0, {self.duration_s}]")
        return problems

    def validate(self) -> "MetricsReport":
        """Assert the report's structural invariants; raises on violation."""
        problems = self.series_problems()
        if problems:
            raise InvariantViolation(problems[0])
        return self

    # -- aggregation helpers -------------------------------------------------

    def channel_series(self, channel_id: str) -> List[SeriesRow]:
        return [r for r in self.series if r.link_id == channel_id]

    def mean_qber(self, channel_id: str) -> Optional[float]:
        qbers = [b.qber for b in self.blocks if b.channel_id == channel_id]
        return sum(qbers) / len(qbers) if qbers else None

    def secret_bits(self, channel_id: str) -> int:
        return sum(b.secret_bits for b in self.blocks if b.channel_id == channel_id)

    def sifted_bits(self, channel_id: str) -> int:
        return sum(b.sifted_bits for b in self.blocks if b.channel_id == channel_id)

    def secret_rate(self, channel_id: str) -> float:
        return self.secret_bits(channel_id) / self.duration_s

    # -- structured records ----------------------------------------------------

    def _tables(self) -> Dict[str, list]:
        """Each record tag's rows, in stream order."""
        rows = {tag: getattr(self, attr) for tag, (attr, _) in _ROWS.items() if attr}
        rows["meta"] = [Meta(self.scenario_name, self.seed, self.duration_s)]
        # Reservoir rows in "A|B" string order.
        rows["reservoir"] = [row for _, row in sorted(self.final_reservoirs.items())]
        return {tag: rows[tag] for tag in _ROWS}

    def to_records(self) -> List[dict]:
        return [{"type": tag, **row._asdict()} for tag, rows in self._tables().items() for row in rows]

    @classmethod
    def from_records(cls, records: List[dict]) -> "MetricsReport":
        """Rebuild a report. A record that is not an object, whose fields are
        not exactly its type's with values of their JSON types, a stream that
        does not open with its one ``meta`` record, or a pair's second
        reservoir row raises ValidationError naming the first such record's
        1-based position. Each type's records are checked a field column at a
        time; of each check's first failure, the earliest in the stream is raised."""
        problems: List[Tuple[int, float, str]] = []  # (position, rank, message)
        at = {tag: [] for tag in _ROWS}
        grouped = {tag: [] for tag in _ROWS}
        for i, r in enumerate(records, 1):
            if not isinstance(r, dict):
                problem = "not an object"
            elif type(kind := r.get("type")) is not str:
                problem = f"type must be a string, got {kind!r}"
            elif kind not in _ROWS:
                problem = f"unknown record type {kind!r}"
            elif (kind == "meta") != (i == 1):
                problem = "a second meta record" if i > 1 else "the stream must open with meta"
            else:
                at[kind].append(i)
                grouped[kind].append(r)
                continue
            problems.append((i, 0, problem))
            break  # no record after this one can fail first
        tables = {}  # by report field, read only once every check has passed
        for tag, (attr, codec) in _ROWS.items():
            rows, good = codec.decode(at[tag], grouped[tag], problems)
            if tag == "reservoir":  # a pair's second row, among rows that pass every check
                seen, pairs = {}, [row.pair for row in rows[:good]]
                k = next((k for k, pair in enumerate(pairs) if seen.setdefault(pair, k) != k), None)
                if k is not None:
                    problems.append((at[tag][k], math.inf,
                                     f"a second reservoir row for pair {pairs[k]!r}"))
            tables[attr] = rows
        if problems:
            i, _, message = min(problems)
            raise ValidationError(f"record {i}: {message}")
        if not at["meta"]:
            raise ValidationError("records stream has no meta record")
        tables["final_reservoirs"] = {row.pair: row for row in tables["final_reservoirs"]}
        return cls(*tables.pop(None)[0], **tables)

    def __eq__(self, other) -> bool:
        return isinstance(other, MetricsReport) and self._tables() == other._tables()

    # -- file emission -----------------------------------------------------------

    def emit_csv(self) -> str:
        # The writer quotes a link id that holds a comma or a quote. It
        # writes a float as its repr and a None qber empty.
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(self.series)  # a series row's fields are the CSV columns
        return out.getvalue()

    def emit_records(self) -> str:
        # One join over small per-row lines: a large string or piece list per
        # table left relay-chain's report pass about 0.75 MB more peak RSS.
        tables = self._tables().items()
        return "".join(chain.from_iterable(_ROWS[tag][1].encode(rows) for tag, rows in tables))

    def write(self, out_dir: Union[str, Path], fmt: str = "csv") -> List[Path]:
        """Write the report in ``fmt`` under ``out_dir``; a path that cannot
        be written raises a one-line ValidationError naming it."""
        if fmt == "csv":
            path, emit = Path(out_dir) / "metrics.csv", self.emit_csv
        elif fmt == "records":
            path, emit = Path(out_dir) / "metrics.records.jsonl", self.emit_records
        else:
            raise ValidationError(f"unknown output format {fmt!r}")
        body = emit()
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(body)
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc
        return [path]


def read_records(path: Union[str, Path]) -> MetricsReport:
    """Parse a records file; unreadable input raises ValidationError."""
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read records: {exc}") from exc
    records = []
    for n, line in enumerate(lines, 1):
        if line:
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}: line {n} is not JSON: {exc}") from exc
    return MetricsReport.from_records(records)


def verify_report(report: MetricsReport) -> List[str]:
    """Re-check audited invariants from the emitted records.

    Covers the series rows' ranges, one timeline (event logs in time order;
    their rows, blocks and relays within the run), one-time-pad uniqueness
    (which implies purpose separation), per-pair reservoir conservation,
    key-block isolation across switch events, and each block's secret length.
    """
    problems = report.series_problems() + scan_one_time_use(report.audit)

    # Times: event logs run forward, a block ends no earlier than it starts,
    # a relay is delivered no earlier than it was requested, all in the run.
    end = report.duration_s
    audit_times, pairs, kinds, starts, stops = _columns(
        report.audit, AuditRecord, ("time_s", "pair", "kind", "offset_start", "offset_end"))
    for kind, times in (("health", [row.time_s for row in report.health_log]),
                        ("switch", [row.time_s for row in report.switch_events]),
                        ("audit", audit_times)):
        if all(map(le, times, times[1:])) and (not times or 0.0 <= times[0] and times[-1] <= end):
            continue  # in order and within the run, checked a column at a time (no NaN passes)
        before = -float("inf")  # the first row has none before it
        for i, t in enumerate(times, 1):
            if not 0.0 <= t <= end:
                problems.append(f"{kind} row {i}: t={t} outside [0, {end}]")
            if t < before:
                problems.append(f"{kind} row {i}: t={t} before the row before it at t={before}")
            before = t
    for block in report.blocks:
        if block.t_end < block.t_start:
            problems.append(f"block {block.block_id}: ends at t={block.t_end} "
                            f"before it starts at t={block.t_start}")
        if not (0.0 <= block.t_start <= end and 0.0 <= block.t_end <= end):
            problems.append(f"block {block.block_id}: time outside [0, {end}]")
    for relay in report.relay_sessions:
        if not 0.0 <= relay.requested_at <= end:
            problems.append(f"relay {relay.session_id}: requested at t={relay.requested_at}, "
                            f"outside [0, {end}]")
        if relay.status != "delivered":
            continue
        if relay.delivered_at is None:
            problems.append(f"relay {relay.session_id}: delivered without a delivered_at")
        elif not relay.requested_at <= relay.delivered_at <= end:
            problems.append(f"relay {relay.session_id}: delivered at t={relay.delivered_at}, "
                            f"outside [{relay.requested_at}, {end}] from its request "
                            f"to the end of the run")

    # Conservation per pair: deposits observed in the audit must equal
    # consumed + available in the final snapshot.
    by_pair: Dict[Tuple[Tuple[str, str], str], int] = {}  # by (pair, audit kind)
    for key, start, stop in zip(zip(pairs, kinds), starts, stops):
        by_pair[key] = by_pair.get(key, 0) + stop - start
    bits = {("|".join(pair), kind): n for (pair, kind), n in by_pair.items()}  # by "A|B"
    for pair, snap in report.final_reservoirs.items():
        dep, con = bits.get((pair, "deposit"), 0), bits.get((pair, "consume"), 0)
        if dep != snap.deposited or con != snap.consumed or dep != con + snap.available:
            problems.append(f"pair {pair}: conservation mismatch "
                            f"(deposited {dep}, consumed {con}, "
                            f"available {snap.available})")
    audited = {pair for pair, kind in bits if kind in ("deposit", "consume")}
    for pair in sorted(audited - report.final_reservoirs.keys()):
        problems.append(f"pair {pair}: audit records but no final snapshot")

    # Key isolation: no block spans a reconfiguration of its own switch.
    toggles = [(s.time_s, s.switch_id) for s in report.switch_events]
    for block in report.blocks:
        if block.via_switch is None:
            continue
        for t, sid in toggles:
            if sid == block.via_switch and block.t_start < t < block.t_end:
                problems.append(
                    f"block {block.block_id}: spans switch event at t={t}")

    # Leakage budget: a kept block's secret length is the one rule's value
    # for its reconciled size, error rate, leakage and usable fraction.
    for block in report.blocks:
        n = block.sifted_bits - block.disclosed_bits
        if n <= 0 or block.bits_leaked < block.disclosed_bits \
                or not 0.0 <= block.qber <= 1.0 or not 0.0 <= block.usable_fraction <= 1.0:
            problems.append(
                f"block {block.block_id}: inconsistent accounting (sifted "
                f"{block.sifted_bits}, disclosed {block.disclosed_bits}, leaked "
                f"{block.bits_leaked}, qber {block.qber}, usable fraction "
                f"{block.usable_fraction})")
            continue
        expected = 0 if block.discarded else secret_length(
            n, block.qber, block.bits_leaked, block.usable_fraction)
        if block.secret_bits != expected:
            problems.append(f"block {block.block_id}: secret_bits {block.secret_bits}, "
                            f"but the leakage budget allows {expected}")
    return problems
