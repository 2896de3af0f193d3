"""Resolvent evaluation, spectral projections and the quadrature limit."""

import tracemalloc

import numpy as np
import pytest

import factorcomm as fc
import factorcomm.resolvent as resolvent_mod
from factorcomm.errors import (
    ConvergenceFailure,
    EndpointOnSpectrum,
    InvalidParameter,
    NotHermitian,
    SpectrumHit,
)
from factorcomm.resolvent import resolvent as resolvent_at
from factorcomm.sampling import random_hermitian, random_psd, random_unitary, rng_for

DIAG123 = np.diag([1.0, 2.0, 3.0]).astype(complex)


def test_resolvent_diagonal():
    R = resolvent_at(DIAG123, 0.0)
    assert np.allclose(R, np.diag([1.0, 0.5, 1.0 / 3.0]))


def test_resolvent_spectrum_hit():
    with pytest.raises(SpectrumHit):
        resolvent_at(DIAG123, 2.0)


def test_resolvent_pauli_x_off_axis():
    R = resolvent_at(fc.PAULI_X, 2j)
    assert np.allclose((fc.PAULI_X - 2j * np.eye(2)) @ R, np.eye(2), atol=1e-14)


def test_resolvent_identity_random():
    for seed in range(6):
        rng = rng_for(800 + seed)
        n = int(rng.integers(2, 8))
        A = random_hermitian(rng, n) * 2.0
        eigs = np.linalg.eigvalsh(A)
        ws = []
        while len(ws) < 2:
            w = complex(rng.uniform(eigs.min() - 3, eigs.max() + 3), rng.uniform(-3, 3))
            if np.abs(eigs - w).min() > 0.1:
                ws.append(w)
        R1, R2 = resolvent_at(A, ws[0]), resolvent_at(A, ws[1])
        assert np.linalg.norm(R1 - R2 - (ws[0] - ws[1]) * (R1 @ R2)) <= 1e-9


def test_resolvent_norm_check_examples():
    assert fc.resolvent_norm_check(np.diag([1.0, 3.0]).astype(complex), 2.0)
    # dist(2+i, {1, 3}) = sqrt(2), so the norm must be 1/sqrt(2)
    A = np.diag([1.0, 3.0]).astype(complex)
    R = resolvent_at(A, 2 + 1j)
    assert np.linalg.norm(R, 2) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert fc.resolvent_norm_check(A, 2 + 1j)
    # dist(5, {1, -1}) = 4
    R2 = resolvent_at(fc.PAULI_Z, 5.0)
    assert np.linalg.norm(R2, 2) == pytest.approx(0.25, abs=1e-12)
    assert fc.resolvent_norm_check(fc.PAULI_Z, 5.0)


def test_resolvent_norm_check_rejects():
    with pytest.raises(NotHermitian):
        fc.resolvent_norm_check(np.array([[0, 1], [0, 0]], dtype=complex), 5.0)
    with pytest.raises(SpectrumHit):
        fc.resolvent_norm_check(DIAG123, 3.0)


def test_exact_projection_examples():
    assert np.allclose(fc.exact_projection(DIAG123, (1.5, 2.5)), np.diag([0.0, 1.0, 0.0]))
    assert np.allclose(fc.exact_projection(DIAG123, (0.5, 3.5)), np.eye(3))
    assert np.allclose(fc.exact_projection(DIAG123, (4.0, 9.0)), np.zeros((3, 3)))
    with pytest.raises(EndpointOnSpectrum):
        fc.exact_projection(DIAG123, (1.0, 2.5))
    with pytest.raises(InvalidParameter):
        fc.exact_projection(DIAG123, (2.5, 1.5))


def test_exact_projection_invariants():
    for seed in range(8):
        rng = rng_for(900 + seed)
        n = int(rng.integers(2, 8))
        A = random_hermitian(rng, n) * 3.0
        eigs = np.linalg.eigvalsh(A)
        a = float(eigs.min()) - 0.5
        b = float((eigs.min() + eigs.max()) / 2)
        if np.abs(eigs - b).min() < 0.05:
            b += 0.07
        P = fc.exact_projection(A, (a, b))
        assert np.linalg.norm(P @ P - P) <= 1e-10
        assert np.linalg.norm(P - P.conj().T) <= 1e-10
        count = int(np.sum((eigs > a) & (eigs < b)))
        assert round(float(np.trace(P).real)) == count


def test_stone_spec_validation():
    with pytest.raises(InvalidParameter):
        fc.StoneQuadratureSpec(interval=(2.0, 1.0), epsilon=1e-3, nodes=100)
    with pytest.raises(InvalidParameter):
        fc.StoneQuadratureSpec(interval=(1.0, 2.0), epsilon=-1e-3, nodes=100)
    with pytest.raises(InvalidParameter):
        fc.StoneQuadratureSpec(interval=(1.0, 2.0), epsilon=1e-3, nodes=8)
    with pytest.raises(InvalidParameter):
        fc.StoneQuadratureSpec(interval=(1.0, 2.0), epsilon=1e-3, nodes=100, rule="simpson")


@pytest.mark.parametrize(
    "interval, epsilon",
    [((1.5, np.inf), 1e-3), ((-np.inf, 2.5), 1e-3), ((np.nan, 2.5), 1e-3), ((1.5, 2.5), np.nan), ((1.5, 2.5), np.inf)],
)
def test_stone_spec_refuses_non_finite_values(interval, epsilon):
    """Before, the infinite or NaN cases returned an all-NaN projection, and
    epsilon=inf was refused as 'distance > inf from the spectrum'."""
    with pytest.raises(InvalidParameter, match="finite"):
        fc.StoneQuadratureSpec(interval=interval, epsilon=epsilon, nodes=100)


def test_stone_projection_oracle():
    spec = fc.StoneQuadratureSpec(interval=(1.5, 2.5), epsilon=1e-3, nodes=2000)
    result = fc.stone_projection(DIAG123, spec)
    assert np.linalg.norm(result.projection - np.diag([0.0, 1.0, 0.0])) <= 5e-3
    assert result.exact_error is not None and result.exact_error <= 5e-3


def test_stone_projection_empty_interval():
    result = fc.stone_projection(
        np.diag([5.0]).astype(complex),
        fc.StoneQuadratureSpec(interval=(1.0, 2.0), epsilon=1e-3, nodes=2000),
    )
    assert np.linalg.norm(result.projection) <= 5e-3


def test_stone_projection_endpoint_guard():
    with pytest.raises(EndpointOnSpectrum):
        fc.stone_projection(
            DIAG123, fc.StoneQuadratureSpec(interval=(1.0, 2.5), epsilon=1e-3, nodes=2000)
        )
    # guard distance is 10 * epsilon
    with pytest.raises(EndpointOnSpectrum):
        fc.stone_projection(
            DIAG123,
            fc.StoneQuadratureSpec(interval=(1.5, 2.0 + 5e-3), epsilon=1e-3, nodes=2000),
        )


def test_stone_projection_requires_hermitian():
    with pytest.raises(NotHermitian):
        fc.stone_projection(
            np.array([[0, 1], [0, 0]], dtype=complex),
            fc.StoneQuadratureSpec(interval=(1.0, 2.0), epsilon=1e-3, nodes=100),
        )


def test_stone_halving_epsilon_improves():
    spec = fc.StoneQuadratureSpec(interval=(1.5, 2.5), epsilon=1e-3, nodes=2000)
    half = fc.StoneQuadratureSpec(interval=(1.5, 2.5), epsilon=5e-4, nodes=4000)
    err = fc.stone_projection(DIAG123, spec).exact_error
    err_half = fc.stone_projection(DIAG123, half).exact_error
    assert err / err_half >= 1.5


def test_stone_first_order_convergence():
    ratios = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        nodes = fc.default_node_count((1.5, 2.5), eps)
        result = fc.stone_projection(
            DIAG123, fc.StoneQuadratureSpec(interval=(1.5, 2.5), epsilon=eps, nodes=nodes)
        )
        ratios.append(result.exact_error / eps)
    assert max(ratios) <= 3.0
    assert max(ratios) / min(ratios) <= 1.5  # near-constant: first order in epsilon


def test_stone_gauss_legendre_rule_runs():
    # with enough nodes the GL route reduces to the pure smoothing error,
    # about 1.4 * epsilon for this spectrum (cf. the trapezoid study)
    spec = fc.StoneQuadratureSpec(
        interval=(1.5, 2.5), epsilon=2e-2, nodes=400, rule="gauss-legendre"
    )
    result = fc.stone_projection(DIAG123, spec)
    assert result.exact_error <= 3.0 * 2e-2


STONE_INTERVAL = (-0.25, 0.35)


def dense_stone_sum(A, t, w, eps):
    """The two-solve dense Stone sum, kept as the reference for the kernel."""
    eye = np.eye(A.shape[0], dtype=complex)
    shifts = A[None, :, :] - t[:, None, None] * eye
    plus = np.linalg.solve(shifts - 1j * eps * eye, np.broadcast_to(eye, shifts.shape))
    minus = np.linalg.solve(shifts + 1j * eps * eye, np.broadcast_to(eye, shifts.shape))
    return np.einsum("k,kij->ij", w, plus - minus) / (2j * np.pi)


def guarded_hermitian(rng, n, eps):
    """U diag U* with eigenvalues in [-1, 1] kept 15 eps from STONE_INTERVAL's
    endpoints; the product is Hermitian only up to rounding."""
    eigs = rng.uniform(-1.0, 1.0, 4 * n + 8)
    eigs = eigs[np.abs(eigs[:, None] - np.array(STONE_INTERVAL)).min(axis=1) > 15 * eps][:n]
    U = random_unitary(rng, n)
    return (U * eigs) @ U.conj().T


def trapezoid_weights(t):
    """Trapezoid weights over the gaps of the grid t, even or not."""
    half_gaps = np.diff(t) / 2.0
    return np.r_[half_gaps, 0.0] + np.r_[0.0, half_gaps]


def reference_rules(spec):
    """(nodes, weights) of the fine rule, then of each coarse rule, built
    apart from the kernel's weight matrix: the trapezoid coarse rules take
    every third fine node from offset 0, 1 or 2 plus both end nodes,
    Gauss-Legendre a half-size grid of its own."""
    a, b = spec.interval
    if spec.rule == "gauss-legendre":
        rules = []
        for m in (spec.nodes, max(16, (spec.nodes + 1) // 2)):
            x, w = resolvent_mod._gauss_legendre(m)
            rules.append(((a + b) / 2 + (b - a) / 2 * x, (b - a) / 2 * w))
        return rules
    t = np.linspace(a, b, spec.nodes)
    subs = [t[sorted({0, *range(j, spec.nodes, 3), spec.nodes - 1})] for j in range(3)]
    return [(t, trapezoid_weights(t))] + [(sub, trapezoid_weights(sub)) for sub in subs]


def assert_matches_dense_route(A, spec):
    """Both routes round at about u * ||A|| / eps relative to the sums they
    form, so they must agree to max(1e-12, 5 u ||A|| / eps) of those sums."""
    result = fc.stone_projection(A, spec)
    fine, *coarse = (dense_stone_sum(A, t, w, spec.epsilon) for t, w in reference_rules(spec))
    rtol = max(1e-12, 5 * np.finfo(float).eps * np.linalg.norm(A, 2) / spec.epsilon)
    assert np.linalg.norm(result.projection - fine) <= rtol * max(1.0, np.linalg.norm(fine))
    # an under-resolved coarse grid (a node within ~eps of an eigenvalue)
    # can make the coarse sum much larger than the projection
    scale = max(1.0, np.linalg.norm(fine), *(np.linalg.norm(c) for c in coarse))
    expected = max(np.linalg.norm(fine - c) for c in coarse)
    assert abs(result.quadrature_error_estimate - expected) <= rtol * scale


@pytest.mark.parametrize("n", [1, 2, 3, 16, 64])
def test_stone_kernel_matches_dense_route(n):
    rng = rng_for(1200, n)
    for eps in (1e-2, 1e-3, 1e-4):
        M = guarded_hermitian(rng, n, eps)
        A = (M + M.conj().T) / 2.0
        for nodes in (200, 201):
            for rule in ("trapezoid", "gauss-legendre"):
                assert_matches_dense_route(A, fc.StoneQuadratureSpec(STONE_INTERVAL, eps, nodes, rule))


def test_stone_kernel_matches_dense_route_on_nearly_hermitian_input():
    A = guarded_hermitian(rng_for(1300), 16, 1e-3)
    assert np.linalg.norm(A - A.conj().T) > 0 and fc.linalg.is_hermitian(A)
    assert_matches_dense_route(A, fc.StoneQuadratureSpec(STONE_INTERVAL, 1e-3, 301))


def quadrature_error(eigs, spec):
    """Distance of the diagonal matrix's fine sum from its closed-form
    Poisson-smoothed projection, and the estimate reported for that sum."""
    (a, b), eps = spec.interval, spec.epsilon
    result = fc.stone_projection(np.diag(eigs).astype(complex), spec)
    smoothed = np.diag((np.arctan((b - eigs) / eps) - np.arctan((a - eigs) / eps)) / np.pi)
    return np.linalg.norm(result.projection - smoothed), result.quadrature_error_estimate


@pytest.mark.parametrize("nodes, share", [(200, 0.5), (301, 1.0), (500, 1.0), (2000, 1.0), (2001, 1.0)])
def test_stone_estimate_has_no_blind_offset(nodes, share):
    """Wherever the eigenvalue sits on the fine grid, the estimate is at
    least ``share`` of the quadrature error on [1.5, 2.5] at eps = 1e-3.
    From a step of about 3.3 eps (301 nodes) down it bounds the error.  At
    offset 0 with 2000 nodes the eigenvalue 2 lies midway between two fine
    nodes, where a coarse rule on every other node agrees with the fine one
    (7.7e-10 against an error of 7.0e-6).  At step 5 eps (200 nodes) no
    rule resolves the integrand, and the distance between rules no longer
    bounds the error (at the midpoint: 0.35 against 0.445)."""
    h = 1.0 / (nodes - 1)
    spec = fc.StoneQuadratureSpec((1.5, 2.5), 1e-3, nodes)
    for offset in np.linspace(0.0, 3.0, 31):
        error, estimate = quadrature_error(np.array([1.0, 2.0 + offset * h, 3.0]), spec)
        assert estimate >= share * error, offset


@pytest.mark.parametrize("nodes", [16, 201, 400])
@pytest.mark.parametrize("rule", ["trapezoid", "gauss-legendre"])
def test_stone_sweeps_each_node_once(monkeypatch, rule, nodes):
    """The trapezoid estimate's three coarse rules reuse the fine nodes;
    Gauss-Legendre adds its own max(16, (N + 1) // 2) coarse nodes."""
    rules = []
    real = resolvent_mod._quadrature_rules

    def recorded(spec):
        rules.append(real(spec))
        return rules[-1]

    monkeypatch.setattr(resolvent_mod, "_quadrature_rules", recorded)
    fc.stone_projection(DIAG123, fc.StoneQuadratureSpec((1.5, 2.5), 1e-2, nodes, rule))
    [(t, W)] = rules
    coarse = max(16, (nodes + 1) // 2) if rule == "gauss-legendre" else 0
    assert t.size == nodes + coarse
    assert W.shape == ((2 if rule == "gauss-legendre" else 4), t.size)


def test_stone_projection_memory_is_bounded():
    # a memory check, not a timing gate: the dense route peaked at ~625 MB here
    A = guarded_hermitian(rng_for(1500), 64, 1e-3)
    spec = fc.StoneQuadratureSpec(STONE_INTERVAL, 1e-3, 2000)
    tracemalloc.start()
    try:
        fc.stone_projection(A, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128e6


def test_stone_projection_runs_one_hermitian_eigendecomposition(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0, "eig": 0, "eigvals": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    fc.stone_projection(DIAG123, fc.StoneQuadratureSpec(interval=(1.5, 2.5), epsilon=1e-3, nodes=100))
    assert calls == {"eigh": 1, "eigvalsh": 0, "eig": 0, "eigvals": 0}


@pytest.mark.parametrize("nodes", [16, 17, 100, 1000, 1001])
def test_gauss_legendre_nodes_match_leggauss(nodes):
    x, w = resolvent_mod._gauss_legendre(nodes)
    x_ref, w_ref = np.polynomial.legendre.leggauss(nodes)
    assert np.abs(x - x_ref).max() <= 1e-13
    # Relative to the largest weight: at nodes=1000 leggauss's own outermost
    # weights are off by ~8e-9 relative (50-digit check), these by ~2e-11.
    assert np.abs(w - w_ref).max() <= 1e-10 * w_ref.max()
    for k in (0, 2, 10):  # exact for degree < 2 * nodes
        assert abs(np.sum(w * x**k) - 2.0 / (k + 1)) <= 1e-13


def test_gauss_legendre_refuses_unconverged_nodes(monkeypatch):
    # nan estimates never meet the step test, so Newton runs to its cap
    monkeypatch.setattr(np, "cos", lambda theta: np.full_like(theta, np.nan))
    with pytest.raises(ConvergenceFailure):
        resolvent_mod._gauss_legendre(17)


def test_transported_bound_examples():
    report = fc.transported_integrand_bound(
        np.diag([1.0, 2.0]).astype(complex), -1.0, (0.5, 3.0), 1e-4
    )
    assert report.holds
    assert report.integrand_max <= report.bound * (1 + 1e-12)
    # both are O(epsilon)
    assert report.bound <= 1e-3

    # scalar closed form for A = (1), lambda = i
    eps = 1e-3
    report2 = fc.transported_integrand_bound(np.diag([1.0]).astype(complex), 1j, (1.0, 2.0), eps)
    t = np.linspace(1.0, 2.0, 201)
    oracle = np.abs(1.0 / (1.0 - (t + 1j * eps) / 1j) - 1.0 / (1.0 - (t - 1j * eps) / 1j)).max()
    assert report2.gap_max == pytest.approx(oracle, rel=1e-12)
    assert report2.holds


def test_transported_bound_rejects_positive_real_lambda():
    A = np.diag([1.0]).astype(complex)
    with pytest.raises(InvalidParameter):
        fc.transported_integrand_bound(A, 2.0, (1.0, 2.0), 1e-3)
    with pytest.raises(InvalidParameter):
        fc.transported_integrand_bound(A, -1.0, (-1.0, 2.0), 1e-3)
    with pytest.raises(InvalidParameter):
        fc.transported_integrand_bound(np.diag([-1.0]).astype(complex), -1.0, (1.0, 2.0), 1e-3)


@pytest.mark.parametrize(
    "lam, interval, eps",
    [
        (-1.0, (1.0, 2.0), np.nan),
        (-1.0, (1.0, 2.0), np.inf),
        (-1.0, (1.0, np.inf), 1e-3),
        (-1.0, (np.nan, 2.0), 1e-3),
        (-1.0, (1.0, np.nan), 1e-3),
        (complex(np.inf, 1.0), (1.0, 2.0), 1e-3),
        (complex(np.nan, 0.0), (1.0, 2.0), 1e-3),
    ],
)
def test_transported_bound_refuses_non_finite_input(lam, interval, eps):
    """A bad input is an InvalidParameter, not a VerificationFailed (which
    would report a numerics bug) after nan or inf reached the bound."""
    with pytest.raises(InvalidParameter):
        fc.transported_integrand_bound(np.diag([1.0, 2.0]).astype(complex), lam, interval, eps)


def test_transported_bound_seeded_samples():
    for trial in range(25):
        rng = rng_for(1000, trial)
        n = int(rng.integers(1, 7))
        A = random_psd(rng, n)
        if trial % 3 == 0:
            lam = complex(-1.0)
        else:
            lam = complex(
                rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.15, 2 * np.pi - 0.15))
            )
        a = rng.uniform(0.2, 1.0)
        b = a + rng.uniform(0.5, 2.0)
        eps = 10.0 ** rng.uniform(-4, -2)
        assert fc.transported_integrand_bound(A, lam, (a, b), eps).holds
