"""The comparison ``scenarios/stats.py`` makes between two trees' runs, on
synthetic samples (no runs, no subprocesses)."""

import importlib.util
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

_PATH = Path(__file__).resolve().parent.parent / "scenarios" / "stats.py"
_SPEC = importlib.util.spec_from_file_location("scenarios_stats", _PATH)
stats = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(stats)


def _law(rng, n_metrics=10, n=20):
    return {f"run m{i}": list(rng.normal(100.0 * (i + 1), 5.0, n)) for i in range(n_metrics)}


def test_equal_laws_pass():
    rng = np.random.default_rng(1)
    a, b = _law(rng), _law(rng)
    lines, ok = stats.compare(a, b)
    assert ok
    # Twenty runs a side: each mean's bound is near t(38)'s 3.57, not the
    # normal 3.29.
    bounds = [stats.threshold(10, stats.welch_df(a[key], b[key])) for key in sorted(a)]
    assert all(3.5 < bound < 3.8 for bound in bounds)
    assert all(line.endswith(f" bound {bound:.2f}") for line, bound in zip(lines, bounds))
    assert lines[-1].startswith(f"10 means compared; |z| bounds {min(bounds):.2f}-"
                                f"{max(bounds):.2f} ")


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


def test_report_ends_with_the_largest_z():
    rng = np.random.default_rng(4)
    a, b = _law(rng), _law(rng)
    b["run m7"] = [x + 30.0 for x in b["run m7"]]
    lines, ok = stats.compare(a, b)
    assert not ok
    z = {key: abs(stats.welch_z(a[key], b[key])) for key in a}
    assert max(z, key=z.get) == "run m7"
    bound = stats.threshold(10, stats.welch_df(a["run m7"], b["run m7"]))
    assert lines[-1].endswith(f"; largest |z| {z['run m7']:.2f} at run m7 (bound {bound:.2f})")
    assert stats.compare({}, {})[0] == ["0 means compared; |z| bounds none (Bonferroni, "
                                        "family-wise alpha 0.01, Student t at each mean's "
                                        "Welch-Satterthwaite df); no |z|"]


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
    assert stats.threshold(1, 38) == 3.0
    assert abs(stats.threshold(300, 38) - 4.70) < 0.01
    assert stats.threshold(3000, 38) > stats.threshold(300, 38)
    assert stats.threshold(300, 19) > stats.threshold(300, 38)


def test_threshold_is_the_student_t_quantile():
    # Reference quantiles from scipy.stats.t.ppf.
    for n_means, df, want in ((326, 38, 4.731), (10, 38, 3.566), (326, 19, 5.430)):
        assert abs(stats.threshold(n_means, df) - want) < 5e-4
    # Closed forms: Cauchy at one degree of freedom, and the normal at infinity.
    assert abs(stats.t_quantile(1e-5, 1) - math.tan(math.pi * (0.5 - 1e-5))) < 1e-6
    assert stats.t_quantile(2.5e-5, math.inf) == NormalDist().inv_cdf(1 - 2.5e-5)


def test_welch_df_is_satterthwaite():
    a, b = [1.0, 2.0, 4.0, 7.0], [0.0, 1.0, 1.0]
    va, vb = np.var(a, ddof=1) / 4, np.var(b, ddof=1) / 3
    assert abs(stats.welch_df(a, b) - (va + vb) ** 2 / (va ** 2 / 3 + vb ** 2 / 2)) < 1e-9
    assert stats.welch_df(a, [5.0] * 3) == 3  # one side without spread: the other's n - 1
    assert stats.welch_df([1.0] * 5, [1.0]) == math.inf


def test_runs_without_a_channel_count_zero_blocks_but_no_mean():
    runs = [{"A-B blocks": 2, "A-B mean_qber": 0.03, "relays_delivered": 1,
             "relay_latency_s_p50": 0.5},
            {"relays_delivered": 0}]
    assert stats.samples(runs) == {"A-B blocks": [2, 0], "A-B mean_qber": [0.03],
                                   "relays_delivered": [1, 0], "relay_latency_s_p50": [0.5]}
