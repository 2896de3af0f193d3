"""Tests of the benchmark harness itself: python -m pytest perfbench/tests -q"""

import json
import os
import sys
import types

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import oracle, report, stats, tracing, traffic, workloads  # noqa: E402


# ---------------------------------------------------------------------------
# percentile rule
# ---------------------------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))
    value, pct, samples = stats.tail(values[::-1])
    assert (value, pct, samples) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10


@pytest.mark.parametrize("n", [11, 37, 1000])
def test_tail_leaves_exactly_ten_beyond(n):
    values = np.random.default_rng(n).permutation(n).tolist()
    value, pct, samples = stats.tail(values)
    assert sum(v > value for v in values) == 10
    assert samples == n and pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_with_too_few_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_median():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 2, 3]) == 2.5


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

# root [0, 10] with children [1, 3] and [4, 6]; the second has a child [4.5, 5].
SPANS = [
    ["commutation.classify_pair", 0.0, 10.0, -1, 0],
    ["linalg.classify_structure", 1.0, 3.0, 0, 0],
    ["linalg.classify_structure", 4.0, 6.0, 0, 0],
    ["linalg.eigenvalues", 4.5, 5.0, 2, 0],
]


def test_self_time_subtracts_children():
    assert tracing.self_times(SPANS) == pytest.approx([6.0, 2.0, 1.5, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 5.0, 0, 0], ["c", 3.0, 7.0, 0, 0], ["d", 9.0, 12.0, 0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_busy_time_does_not_count_nested_spans_twice():
    nested = SPANS + [["linalg.classify_structure", 4.6, 4.8, 3, 0]]
    assert tracing.busy_ms(nested, lambda name: name == "linalg.classify_structure") == pytest.approx(4000.0)
    assert tracing.busy_ms(nested, lambda name: name.startswith("linalg.")) == pytest.approx(4000.0)


def test_layer_metrics_report_every_per_layer_metric():
    tracer = tracing.Tracer()
    tracer.spans = [list(s) for s in SPANS]
    extra = {name: 1.0 for name, _, _ in tracing.PER_LAYER if name.startswith(("cli.", "trace.", "oracle."))}
    extra.pop("cli.main.self_ms")
    metrics = tracing.layer_metrics(tracer, 1, extra)
    assert list(metrics) == [name for name, _, _ in tracing.PER_LAYER]
    assert metrics["linalg.classify_structure.self_ms"]["value"] == pytest.approx(3500.0)
    assert metrics["linalg.classify_structure.calls"]["value"] == 2


def test_install_wraps_every_namespace_and_restores():
    import factorcomm
    from factorcomm import commutation, linalg, suite

    before = (commutation.eigenvalues, linalg.eigenvalues, factorcomm.classify_pair, np.linalg.svd)
    tables = (list(suite.RANDOMIZED_PROPERTIES), list(suite.FIXED_PROPERTIES))
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert commutation.eigenvalues is not before[0] and linalg.eigenvalues is not before[1]
        factorcomm.classify_pair(factorcomm.OperatorPair(A=np.eye(2), B=np.diag([1.0, 2.0])))
    finally:
        restore()
    assert (commutation.eigenvalues, linalg.eigenvalues, factorcomm.classify_pair, np.linalg.svd) == before
    assert (suite.RANDOMIZED_PROPERTIES, suite.FIXED_PROPERTIES) == tables
    names = [s[0] for s in tracer.spans]
    assert names[0] == "commutation.classify_pair" and "linalg.eigenvalues" in names
    assert tracer.counts["decomposition.eigvals"] > 0 and tracer.counts["commutation.constraints"] > 0


# ---------------------------------------------------------------------------
# traffic
# ---------------------------------------------------------------------------


def _inputs(seed):
    return [
        traffic.classify_cases(seed, 4, 0),
        traffic.classify_cases(seed, 16, 1),
        traffic.stone_case(seed, 16, 0, "trapezoid"),
        traffic.cli_cases(seed),
        traffic.suite_seeds(seed, 8),
    ]


def test_same_seed_same_digest_other_seed_other_digest():
    assert traffic.digest(_inputs(7)) == traffic.digest(_inputs(7))
    assert traffic.digest(_inputs(7)) != traffic.digest(_inputs(8))
    for part_a, part_b in zip(_inputs(7), _inputs(8)):
        assert traffic.digest([part_a]) != traffic.digest([part_b])


@pytest.mark.parametrize("n", traffic.CLASSIFY_SIZES)
def test_realizations_satisfy_their_declared_factor(n):
    for case in traffic.classify_cases(3, n, 0):
        if case.lam is not None:
            AB, BA = case.A @ case.B, case.B @ case.A
            assert np.linalg.norm(AB - case.lam * BA) <= 1e-10 * max(1.0, np.linalg.norm(AB)), case.label


def test_stone_case_projection_is_exact():
    case = traffic.stone_case(3, 16, 0, "trapezoid")
    w, U = np.linalg.eigh(case.A)
    a, b = traffic.STONE_INTERVAL
    cols = U[:, (w > a) & (w < b)]
    assert np.allclose(cols @ cols.conj().T, case.projection, atol=1e-10)
    assert np.min(np.abs(np.subtract.outer(w, [a, b]))) >= traffic.STONE_GAP - 1e-12


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _case(family="clock-shift", lam=1j):
    return traffic.PairCase(family, 4, "plain", np.eye(4), np.eye(4), traffic.UNIQUE, lam, False)


def test_oracle_fails_a_wrong_verdict():
    case = _case()
    assert oracle.classify_verdict(case, "UNIQUE", 1j, True, []).status == oracle.OK
    assert oracle.classify_verdict(case, "NONE", 1j, True, []).status == oracle.FAILED
    assert oracle.classify_verdict(case, "UNIQUE", -1j, True, []).status == oracle.FAILED
    assert oracle.classify_verdict(case, "UNIQUE", 1j, False, ["sigma(AB) not invariant"]).status == oracle.FAILED


def test_oracle_tells_known_defects_from_new_failures():
    trace = "lambda = 1 violated by 2.0e+00 (nonzero trace tr[A B^3] = 1e-08)"
    nilpotent = "|lambda| = 1 violated by 1.5e+00 (sigma(AB) != {0})"
    v = oracle.classify_verdict(_case(), "UNIQUE", 1j, False, [trace])
    assert (v.status, v.defect) == (oracle.BASELINE, "trace-tolerance")
    v = oracle.classify_verdict(_case("jordan"), "UNIQUE", 1j, False, [nilpotent, trace])
    assert (v.status, v.defect) == (oracle.BASELINE, "nilpotency-test+trace-tolerance")
    # the nilpotency defect cannot explain a violation on a pair with no nilpotent factor
    assert oracle.classify_verdict(_case(), "UNIQUE", 1j, False, [nilpotent]).status == oracle.FAILED
    # a trace constraint is genuine when the factor is 1
    assert oracle.classify_verdict(_case(lam=1.0), "UNIQUE", 1.0, False, [trace]).status == oracle.FAILED


def test_workload_counts_a_deliberately_wrong_verdict_as_failed(tmp_path):
    classify = workloads.Classify.__new__(workloads.Classify)
    case = traffic.classify_cases(1, 4, 0)[0]
    factor = types.SimpleNamespace(status="NONE", lambda_hat=None)
    wrong = types.SimpleNamespace(factor=factor, consistent=True, violations=[], constraints=[])
    classify.fc = types.SimpleNamespace(OperatorPair=lambda A, B: None, classify_pair=lambda pair: wrong)
    _, verdict = classify.execute(case)
    assert verdict.status == oracle.FAILED

    def boom(pair):
        raise RuntimeError("escaped")

    classify.fc.classify_pair = boom
    _, verdict = classify.execute(case)
    assert verdict.status == oracle.FAILED and "escaped" in verdict.reason


def test_cli_oracle_on_malformed_input():
    case = traffic.CliCase("malformed", ["analyze", "bad.json"], expect={"defect": ""})
    assert oracle.cli_verdict(case, 2, "", "error: bad\n").status == oracle.OK
    assert oracle.cli_verdict(case, 1, "", "Traceback ...\nIndexError\n").status == oracle.FAILED
    known = traffic.CliCase("malformed", ["analyze", "bad.json"], expect={"defect": "declared-lambda-input"})
    assert oracle.cli_verdict(known, 1, "", "Traceback ...\nIndexError\n").status == oracle.BASELINE
    assert oracle.cli_verdict(known, 0, "{}", "").status == oracle.FAILED


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the harness
# ---------------------------------------------------------------------------


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == report.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
