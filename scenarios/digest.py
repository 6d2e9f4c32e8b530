"""Print one records digest per run, as ``name seed sha256``, under a
header line that names the numpy version the runs were made with.

    PYTHONPATH=src python3 scenarios/digest.py > scenarios/digests.txt

The digest is the SHA-256 of the run's records text: the bytes that
``qkdnet run --format records`` writes, and the benchmark harness's
``records_sha256``. The runs are every document in this directory at its
own seed, then the benchmark workloads at seeds 1-4, built by
``perfbench/workloads.py``. ``scenarios/digests.txt`` holds this output for
the current code, and a tier-1 test compares every run with its line there
(``tests/test_scenario_library.py``). To show that a change keeps every
record byte, run this script against the old and the new ``src`` (through
PYTHONPATH) and ``diff`` the two outputs.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

import workloads  # noqa: E402

WORKLOAD_SEEDS = range(1, 5)


def runs(seed=None):
    """(name, scenario document) for every run, in output order. With
    ``seed``, every document runs at that seed and each workload once,
    built at it."""
    for path in sorted(HERE.glob("*.json")):
        doc = json.loads(path.read_text())
        if seed is not None:
            doc["seed"] = seed
        yield path.stem, doc
    for name in workloads.WORKLOADS:
        for s in WORKLOAD_SEEDS if seed is None else (seed,):
            yield name, workloads.build(name, s)


def main() -> None:
    import numpy as np

    from qkdnet.engine import run_scenario
    from qkdnet.scenario import load_scenario

    # NumPy keeps no random stream across its versions (NEP 19).
    print(f"# numpy {np.__version__}")
    for name, doc in runs():
        records = run_scenario(load_scenario(doc)).emit_records()
        print(name, doc["seed"], hashlib.sha256(records.encode()).hexdigest(), flush=True)


if __name__ == "__main__":
    main()
