"""Traced mode: spans around each layer's public entry points.

Everything here wraps names from outside the package; nothing under
``src/`` knows it is being traced. Each wrapper replaces the attribute its
caller actually resolves. The engine imports ``sample_link_window``,
``sift_*_events``, ``estimate_qber``, ``reconcile_cascade``,
``privacy_amplify``, ``realign_receiver`` and ``advance_phase`` into its own
namespace, so those are wrapped as ``qkdnet.engine.<name>``. Realignment
samples its training frames through ``qkdnet.switchfab``'s own binding,
which stays unwrapped, so that work remains inside ``switchfab.realign``.

Spans are kept in memory (compact arrays) while the run executes and are
written out once, at exit. Self time is computed as the spans close: a
span's duration minus the time covered by the wrapped spans nested inside
it (``find_path`` runs under ``RelayCoordinator.step``, reservoir draws run
under both the engine and the relay, and so on).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np


class Tracer:
    """Span recorder with on-the-fly self-time accounting.

    Spans are logged as they close, four doubles each: name id, nesting
    depth, start, end (``perf_counter`` seconds). A span's parent is the
    enclosing span one level shallower whose interval contains it; on one
    thread that identifies it uniquely.
    """

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.self_s: List[float] = []   # per name id
        self.calls: List[int] = []      # per name id
        self.log = array("d")
        self._nested: List[float] = []  # time covered by children, per open span
        self.counts: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return nid

    def wrap(self, owner, attr: str, name, *, on_result: Optional[Callable] = None,
             on_error: Optional[Callable] = None, keep_duration: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name, or a callable ``(result, args, kwargs) ->
        name`` that classifies the call once it has returned (the error
        path then passes ``None`` as the result). ``on_result`` and
        ``on_error`` record counts at the same boundary.
        """
        fn = getattr(owner, attr)
        classify = name if callable(name) else None
        fixed = None if classify else self.name_id(name)
        name_id, nested, self_s, calls, log = (
            self.name_id, self._nested, self.self_s, self.calls, self.log)
        durations = self.durations

        def close(nid: int, t0: float, t1: float) -> None:
            d = t1 - t0
            inner = nested.pop()
            if nested:
                nested[-1] += d
            self_s[nid] += d - inner
            calls[nid] += 1
            log.extend((nid, len(nested), t0, t1))
            if keep_duration:
                durations[self.names[nid]].append(d)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nested.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                t1 = perf_counter()
                close(fixed if classify is None else name_id(classify(None, args, kwargs)),
                      t0, t1)
                if on_error is not None:
                    on_error(exc, args, kwargs)
                raise
            t1 = perf_counter()
            close(fixed if classify is None else name_id(classify(result, args, kwargs)),
                  t0, t1)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        setattr(owner, attr, traced)

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without opening a span."""
        fn = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def snapshot(self) -> dict:
        """Aggregates since the last reset, keyed by span name."""
        return {"self_s": {n: t for n, t in zip(self.names, self.self_s) if t},
                "calls": {n: c for n, c in zip(self.names, self.calls) if c},
                "counts": dict(self.counts),
                "durations": {k: list(v) for k, v in self.durations.items()}}

    def reset(self) -> None:
        """Zero the aggregates; logged spans are kept."""
        self.self_s[:] = [0.0] * len(self.self_s)
        self.calls[:] = [0] * len(self.calls)
        self.counts.clear()
        self.durations.clear()

    @property
    def n_spans(self) -> int:
        return len(self.log) // 4

    def write(self, path: Path) -> None:
        """Write every logged span, plus the span names beside it.

        Each file is written under a name of this process's own and then
        renamed into place, so that a reader never sees half a file.
        """
        spans = np.frombuffer(self.log, dtype=np.float64).reshape(-1, 4)
        names = json.dumps({"columns": ["name_id", "depth", "start_s", "end_s"],
                            "names": self.names})
        path.parent.mkdir(parents=True, exist_ok=True)
        for target, write in ((path, lambda fh: np.save(fh, spans)),
                              (path.with_suffix(".names.json"),
                               lambda fh: fh.write(names.encode()))):
            tmp = target.with_name(f".{target.name}.{os.getpid()}")
            with open(tmp, "wb") as fh:
                write(fh)
            os.replace(tmp, target)


def _public_methods(cls) -> List[str]:
    return [attr for attr, value in vars(cls).items()
            if not attr.startswith("_") and inspect.isfunction(value)]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are measured at."""
    from qkdnet import engine, keyrelay, scenario
    from qkdnet.errors import KeyStarvation, NoPathError, ReconciliationFailure
    from qkdnet.keyrelay import HealthMonitor, RelayCoordinator
    from qkdnet.keystore import KeyReservoir
    from qkdnet.netgraph import Topology

    counts = tracer.counts

    def is_training(frame_id: str) -> bool:
        return frame_id.endswith(":train")

    # -- physlink ------------------------------------------------------------
    def sample_name(result, args, kwargs):
        frame_id = result[2].frame_id if result is not None else kwargs.get("frame_id", "")
        return "physlink.train" if is_training(frame_id) else "physlink.sample"

    def on_sample(result, args, kwargs):
        if not is_training(result[2].frame_id):
            counts["physlink.detections"] += result[2].n_events

    tracer.wrap(engine, "sample_link_window", sample_name, on_result=on_sample)
    tracer.wrap(engine, "advance_phase", "physlink.phase")

    # -- qkdproto --------------------------------------------------------------
    # A training frame's sifting is part of training, not of key sifting.
    def sift_name(result, args, kwargs):
        record = args[2] if len(args) > 2 else kwargs["rx_record"]
        return "physlink.train_sift" if is_training(record.frame_id) else "qkdproto.sift"

    def on_sift(result, args, kwargs):
        record = args[2] if len(args) > 2 else kwargs["rx_record"]
        if not is_training(record.frame_id):
            counts["qkdproto.sifted_bits"] += result[0].size

    for fn in ("sift_bb84_events", "sift_sarg_events"):
        tracer.wrap(engine, fn, sift_name, on_result=on_sift)
    tracer.wrap(engine, "estimate_qber", "qkdproto.qber")

    def on_cascade(result, args, kwargs):
        counts["qkdproto.cascade_bits"] += len(args[0])
        counts["qkdproto.cascade_parities"] += result[1]

    def on_cascade_error(exc, args, kwargs):
        if isinstance(exc, ReconciliationFailure):
            counts["qkdproto.cascade_bits"] += len(args[0])
            counts["qkdproto.cascade_failures"] += 1

    tracer.wrap(engine, "reconcile_cascade", "qkdproto.cascade",
                on_result=on_cascade, on_error=on_cascade_error)

    def on_pa(result, args, kwargs):
        counts["qkdproto.pa_bits_in"] += len(args[0])
        counts["qkdproto.pa_bits_out"] += args[1]

    tracer.wrap(engine, "privacy_amplify", "qkdproto.pa", on_result=on_pa,
                keep_duration=True)
    tracer.wrap(keyrelay, "auth_tag", "qkdproto.auth")
    tracer.wrap(keyrelay, "verify_tag", "qkdproto.auth")

    # -- switchfab -------------------------------------------------------------
    def on_realign(result, args, kwargs):
        counts["switchfab.realign_frames"] += result.frames_spent
        counts["switchfab.realign_converged"] += result.converged

    tracer.wrap(engine, "realign_receiver", "switchfab.realign", on_result=on_realign)

    # -- netgraph --------------------------------------------------------------
    tracer.wrap(scenario, "load_preset", "netgraph.load")
    tracer.wrap(scenario, "load_topology", "netgraph.load")
    for method in _public_methods(Topology):
        span = "netgraph.qkd_channels" if method == "qkd_channels" else "netgraph.topology"
        tracer.wrap(Topology, method, span)

    # -- keystore --------------------------------------------------------------
    def on_consume_error(exc, args, kwargs):
        if isinstance(exc, KeyStarvation):
            counts["keystore.starvations"] += 1

    for method in _public_methods(KeyReservoir):
        span = f"keystore.{method}" if method in ("deposit", "consume") else "keystore.other"
        tracer.wrap(KeyReservoir, method, span,
                    on_error=on_consume_error if method == "consume" else None)

    # -- keyrelay --------------------------------------------------------------
    def on_step(result, args, kwargs):
        counts[f"keyrelay.steps_{result}"] += 1

    def on_find_path_error(exc, args, kwargs):
        if isinstance(exc, NoPathError):
            counts["keyrelay.find_path_nopath"] += 1

    tracer.wrap(keyrelay, "find_path", "keyrelay.find_path", on_error=on_find_path_error)
    for method in _public_methods(RelayCoordinator):
        if method == "request":
            span = "keyrelay.request"
        elif method == "step":
            span = "keyrelay.step"
        else:
            span = "keyrelay.coordinator"   # reroute, cancel, drive, ...
        tracer.wrap(RelayCoordinator, method, span,
                    on_result=on_step if method == "step" else None)
    for method in _public_methods(HealthMonitor):
        tracer.wrap(HealthMonitor, method, "keyrelay.health")

    # -- engine: events handled, by kind (counted, no span) ---------------------
    for attr in list(vars(engine.Engine)):
        if attr.startswith("_on_"):
            tracer.count_calls(engine.Engine, attr, f"engine.events.{attr[4:]}")


EVENT_KINDS = ("round", "realign", "relay", "metrics", "toggle", "scenario")
STEP_OUTCOMES = ("advanced", "delivered", "starved", "pending", "rerouted", "failed")


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(run: dict, load: dict, run_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    ``run`` is the tracer snapshot covering ``Engine.run()`` only; ``load``
    covers the set-up (``load_scenario`` and ``Engine`` construction).
    """
    s, calls, c = run["self_s"], run["calls"], run["counts"]

    def busy(*names):
        return sum(s.get(n, 0.0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    m: Dict[str, float] = {
        "physlink.sample_s": busy("physlink.sample"),
        "physlink.sample_calls": calls.get("physlink.sample", 0),
        "physlink.detections": c.get("physlink.detections", 0),
        "physlink.train_s": busy("physlink.train", "physlink.train_sift"),
        "physlink.train_calls": calls.get("physlink.train", 0),
        "physlink.phase_s": busy("physlink.phase"),
        "qkdproto.sift_s": busy("qkdproto.sift"),
        "qkdproto.sift_kept_ratio": ratio(c.get("qkdproto.sifted_bits", 0),
                                          c.get("physlink.detections", 0)),
        "qkdproto.qber_s": busy("qkdproto.qber"),
        "qkdproto.cascade_s": busy("qkdproto.cascade"),
        "qkdproto.cascade_calls": calls.get("qkdproto.cascade", 0),
        "qkdproto.cascade_bits": c.get("qkdproto.cascade_bits", 0),
        "qkdproto.cascade_parities": c.get("qkdproto.cascade_parities", 0),
        "qkdproto.cascade_failures": c.get("qkdproto.cascade_failures", 0),
        "qkdproto.pa_s": busy("qkdproto.pa"),
        "qkdproto.pa_calls": calls.get("qkdproto.pa", 0),
        "qkdproto.pa_bits_in": c.get("qkdproto.pa_bits_in", 0),
        "qkdproto.pa_bits_out": c.get("qkdproto.pa_bits_out", 0),
        "qkdproto.pa_call_ms_p50": 1e3 * _percentile(run["durations"].get("qkdproto.pa", []), 50),
        "qkdproto.pa_call_ms_p95": 1e3 * _percentile(run["durations"].get("qkdproto.pa", []), 95),
        "qkdproto.auth_s": busy("qkdproto.auth"),
        "switchfab.realign_s": busy("switchfab.realign"),
        "switchfab.realign_calls": calls.get("switchfab.realign", 0),
        "switchfab.realign_frames": c.get("switchfab.realign_frames", 0),
        "switchfab.realign_converged_ratio": ratio(c.get("switchfab.realign_converged", 0),
                                                   calls.get("switchfab.realign", 0)),
        "netgraph.load_s": sum(t for n, t in load["self_s"].items()
                               if n.startswith("netgraph.")),
        "netgraph.qkd_channels_calls": calls.get("netgraph.qkd_channels", 0),
        "netgraph.qkd_channels_s": busy("netgraph.qkd_channels"),
        "keystore.deposit_s": busy("keystore.deposit"),
        "keystore.deposit_calls": calls.get("keystore.deposit", 0),
        "keystore.consume_s": busy("keystore.consume"),
        "keystore.consume_calls": calls.get("keystore.consume", 0),
        "keystore.starvations": c.get("keystore.starvations", 0),
        "keyrelay.step_s": busy("keyrelay.step", "keyrelay.coordinator"),
        "keyrelay.step_calls": calls.get("keyrelay.step", 0),
    }
    for outcome in STEP_OUTCOMES:
        m[f"keyrelay.steps_{outcome}"] = c.get(f"keyrelay.steps_{outcome}", 0)
    m["keyrelay.useful_step_ratio"] = ratio(
        m["keyrelay.steps_advanced"] + m["keyrelay.steps_delivered"], m["keyrelay.step_calls"])
    m["keyrelay.find_path_s"] = busy("keyrelay.find_path")
    m["keyrelay.find_path_calls"] = calls.get("keyrelay.find_path", 0)
    m["keyrelay.find_path_nopath"] = c.get("keyrelay.find_path_nopath", 0)
    m["keyrelay.request_s"] = busy("keyrelay.request")
    m["keyrelay.health_s"] = busy("keyrelay.health")
    for kind in EVENT_KINDS:
        m[f"engine.events.{kind}"] = c.get(f"engine.events.{kind}", 0)
    m["engine.events"] = sum(m[f"engine.events.{kind}"] for kind in EVENT_KINDS)
    m["engine.self_s"] = run_s - sum(s.values())
    return m
