"""docs/formats.md names exactly the settable fields the parsers accept and
the fields of every record row type."""

import dataclasses
import re
from pathlib import Path

from qkdnet.netgraph import _LINK_PARAM_FIELDS
from qkdnet.report import _ROWS
from qkdnet.scenario import EngineKnobs

FORMATS = Path(__file__).resolve().parent.parent / "docs" / "formats.md"


def _bullet(lead: str) -> str:
    """The top-level list item of formats.md that starts with ``lead``."""
    text = FORMATS.read_text()
    start = text.index(f"\n* {lead}") + 1
    end = re.compile(r"^(\* |\S)", re.M).search(text, start + 2)
    return text[start:end.start() if end else len(text)]


def test_documented_engine_knobs_are_the_knob_fields():
    documented = re.findall(r"^  \* `(\w+)`", _bullet("`engine`"), re.M)
    assert documented == [f.name for f in dataclasses.fields(EngineKnobs)]


def test_documented_link_params_are_the_parsed_fields():
    listed = _bullet("`params` objects").split(":", 1)[1].split(".", 1)[0]
    assert re.findall(r"`(\w+)`", listed) == list(_LINK_PARAM_FIELDS)


def test_documented_block_fields_are_the_record_fields():
    # Every record kind the reader decodes, in stream order.
    text = FORMATS.read_text()
    assert re.findall(r"^\* `(\w+)` — ", text, re.M) == list(_ROWS)
    for tag, (_, codec) in _ROWS.items():
        listed = _bullet(f"`{tag}`").split(":", 1)[1].split(".", 1)[0]
        assert re.findall(r"`(\w+)`", listed) == list(codec.names), tag
