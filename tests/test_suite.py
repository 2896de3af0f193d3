"""Property-suite runner: determinism, accounting, graceful degradation."""

import pytest

from factorcomm.sampling import derive_seed, splitmix64
from factorcomm.suite import (
    FIXED_PROPERTIES,
    RANDOMIZED_PROPERTIES,
    SuiteConfig,
    outcome_to_json_text,
    run_suite,
)


def test_splitmix_is_deterministic_and_spreads():
    assert splitmix64(0) == splitmix64(0)
    seen = {derive_seed(42, p, t) for p in range(4) for t in range(64)}
    assert len(seen) == 4 * 64  # no collisions across (property, trial)
    assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)


def test_suite_green_and_accounted():
    cfg = SuiteConfig(seed=42, trials=10)
    outcome = run_suite(cfg)
    expected_total = len(RANDOMIZED_PROPERTIES) * cfg.trials + len(FIXED_PROPERTIES)
    assert outcome.passed + outcome.failed == expected_total
    assert outcome.failed == 0, [f.to_json() for f in outcome.failures[:3]]


def test_suite_deterministic_output():
    cfg = SuiteConfig(seed=7, trials=5)
    first = outcome_to_json_text(run_suite(cfg))
    second = outcome_to_json_text(run_suite(cfg))
    assert first == second


def test_suite_seed_changes_nothing_when_green_but_is_used():
    # different seeds draw different samples; both runs must stay green
    assert run_suite(SuiteConfig(seed=1, trials=5)).failed == 0
    assert run_suite(SuiteConfig(seed=2, trials=5)).failed == 0


def test_suite_absurd_tolerance_reports_failures_as_data():
    outcome = run_suite(SuiteConfig(seed=42, trials=2, tol=1e-18))
    assert outcome.failed > 0
    for failure in outcome.failures:
        assert failure.property_name
        assert isinstance(failure.counterexample, dict)
    # a well-formed JSON document must still come out
    text = outcome_to_json_text(outcome)
    assert '"failures"' in text


def test_suite_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(trials=0)
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SuiteConfig(tol=tol)
    with pytest.raises(ValueError):
        SuiteConfig(max_dim=1)
