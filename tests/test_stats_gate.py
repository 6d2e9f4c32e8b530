"""The comparison ``scenarios/stats.py`` makes between two trees' runs, on
synthetic samples (no runs, no subprocesses)."""

import importlib.util
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parent.parent / "scenarios" / "stats.py"
_SPEC = importlib.util.spec_from_file_location("scenarios_stats", _PATH)
stats = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(stats)


def _law(rng, n_metrics=10, n=20):
    return {f"run m{i}": list(rng.normal(100.0 * (i + 1), 5.0, n)) for i in range(n_metrics)}


def test_equal_laws_pass():
    rng = np.random.default_rng(1)
    lines, ok = stats.compare(_law(rng), _law(rng))
    assert ok
    assert lines[-1].startswith("10 means compared; |z| threshold 3.29 ")


def test_mean_shifted_by_five_standard_errors_fails():
    rng = np.random.default_rng(2)
    a = _law(rng)
    b = {key: list(values) for key, values in a.items()}
    x = np.array(a["run m3"])
    # B is A moved by five of the difference's standard errors.
    b["run m3"] = list(x + 5.0 * np.sqrt(2.0 * x.var(ddof=1) / x.size))
    lines, ok = stats.compare(a, b)
    assert not ok
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == ["FAIL run m3"]
    assert abs(stats.welch_z(a["run m3"], b["run m3"]) + 5.0) < 1e-9


def test_metric_in_one_tree_only_fails():
    rng = np.random.default_rng(3)
    a, b = _law(rng), _law(rng)
    a["run only-a"] = [1.0, 2.0, 3.0]
    lines, ok = stats.compare(a, b)
    assert not ok
    assert "FAIL run only-a: only in tree A" in lines


def test_constant_columns_pass_when_equal_and_fail_when_not():
    assert stats.compare({"k": [0] * 20}, {"k": [0] * 20})[1]
    assert not stats.compare({"k": [0] * 20}, {"k": [1] * 20})[1]


def test_threshold_is_bonferroni_and_never_below_three():
    assert stats.threshold(1) == 3.0
    assert abs(stats.threshold(300) - 4.15) < 0.01
    assert stats.threshold(3000) > stats.threshold(300)


def test_runs_without_a_channel_count_zero_blocks_but_no_mean():
    runs = [{"A-B blocks": 2, "A-B mean_qber": 0.03, "relays_delivered": 1,
             "relay_latency_s_p50": 0.5},
            {"relays_delivered": 0}]
    assert stats.samples(runs) == {"A-B blocks": [2, 0], "A-B mean_qber": [0.03],
                                   "relays_delivered": [1, 0], "relay_latency_s_p50": [0.5]}
