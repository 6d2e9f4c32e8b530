"""qkdnet: deterministic simulator for a trusted-relay QKD network.

Library layers, bottom up:

* :mod:`qkdnet.physlink` — weak-coherent BB84 link, one window sampler for
  every attacker.
* :mod:`qkdnet.qkdproto` — sifting, reconciliation, privacy amplification,
  authentication, and the public-channel record format.
* :mod:`qkdnet.switchfab` — 2x2 photonic switch and realignment.
* :mod:`qkdnet.netgraph` — topology model, config schema, presets.
* :mod:`qkdnet.keystore` — pairwise key reservoirs with one-time-use audit.
* :mod:`qkdnet.keyrelay` — hop-by-hop one-time-pad key relay with rerouting.
* :mod:`qkdnet.scenario` / :mod:`qkdnet.engine` — deterministic event-loop
  runner emitting the metrics in :mod:`qkdnet.report`.
"""

from .engine import run_scenario
from .errors import QkdNetError
from .netgraph import Topology, load_preset, load_topology
from .physlink import (
    DetectionRecord,
    EveModel,
    LinkParams,
    PhaseState,
)
from .report import MetricsReport, read_records, verify_report
from .scenario import Scenario, default_preset_scenario, load_scenario

__version__ = "0.1.0"

__all__ = [
    "run_scenario",
    "QkdNetError",
    "Topology",
    "load_preset",
    "load_topology",
    "DetectionRecord",
    "EveModel",
    "LinkParams",
    "PhaseState",
    "MetricsReport",
    "read_records",
    "verify_report",
    "Scenario",
    "default_preset_scenario",
    "load_scenario",
    "__version__",
]
