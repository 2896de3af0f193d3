"""Factor detection, classification, commutant and measurement-map checks."""

import itertools
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import factorcomm as fc
from factorcomm.commutation import _assignment_match, _power_text
from factorcomm.errors import ConvergenceFailure, DimensionMismatch, InvalidParameter, NotNormal
from factorcomm.sampling import ginibre, random_hermitian, random_unitary, rng_for

SX = fc.PAULI_X
SY = fc.PAULI_Y
SZ = fc.PAULI_Z


def test_detect_factor_pauli():
    report = fc.detect_factor(fc.OperatorPair(A=SX, B=SY))
    assert report.status == fc.UNIQUE
    assert abs(report.lambda_hat + 1.0) <= 1e-15
    assert report.residual <= 1e-15


def test_detect_factor_self_pair():
    M = ginibre(rng_for(10), 4)
    report = fc.detect_factor(fc.OperatorPair(A=M, B=M))
    assert report.status == fc.UNIQUE
    assert abs(report.lambda_hat - 1.0) <= 1e-12


def test_detect_factor_clock_shift_4():
    report = fc.detect_factor(fc.clock_shift_pair(4))
    assert report.status == fc.UNIQUE
    assert abs(report.lambda_hat - 1j) <= 1e-12


def test_detect_factor_any_and_none():
    zero = np.zeros((2, 2), dtype=complex)
    any_report = fc.detect_factor(fc.OperatorPair(A=zero, B=zero))
    assert any_report.status == fc.ANY
    assert any_report.lambda_hat is None

    # BA = 0 but AB != 0: e.g. A = E12, B = E22 -> AB = E12, BA = 0
    A = np.array([[0, 1], [0, 0]], dtype=complex)
    B = np.diag([0.0, 1.0]).astype(complex)
    none_report = fc.detect_factor(fc.OperatorPair(A=A, B=B))
    assert none_report.status == fc.NONE
    assert none_report.lambda_hat is None
    assert none_report.ba_norm <= 1e-15 < none_report.ab_norm

    generic = fc.detect_factor(
        fc.OperatorPair(A=np.diag([1.0, 2.0]).astype(complex), B=SX + SZ)
    )
    assert generic.status == fc.NONE
    assert generic.lambda_hat is not None  # best fit still reported


@pytest.mark.parametrize("scale", [1e-160, 1.0, 1e160])
def test_detect_factor_does_not_depend_on_scale(scale):
    """Both factors are scaled by powers of two first: at 1e-160 AB and BA no
    longer underflow to 0 (ANY), at 1e160 no longer overflow (lambda nan);
    their norms are scaled back, to inf beyond the double range."""
    pair = fc.clock_shift_pair(4)
    report = fc.detect_factor(fc.OperatorPair(A=scale * pair.A, B=scale * pair.B))
    base = fc.detect_factor(pair)
    assert report.status == fc.UNIQUE and report.lambda_hat == base.lambda_hat
    assert abs(report.lambda_hat - 1j) <= 1e-12 and report.residual == base.residual
    assert report.ab_norm == report.ba_norm == (np.inf if scale > 1 else 2.0 * scale * scale)


def test_classify_pair_reports_a_product_norm_beyond_the_double_range_as_inf():
    """Clock-shift 4 with both factors x1e160: ||AB||_F = 2e320 leaves the
    double range, so the report carries inf, and the verdict, taken on the
    scaled pair, is the unscaled one."""
    pair = fc.clock_shift_pair(4)
    report = fc.classify_pair(fc.OperatorPair(A=1e160 * pair.A, B=1e160 * pair.B))
    assert report.factor.ab_norm == report.factor.ba_norm == np.inf
    assert report.factor.status == fc.UNIQUE and abs(report.factor.lambda_hat - 1j) <= 1e-12
    assert report.consistent


def test_detect_factor_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fc.OperatorPair(A=np.eye(2, dtype=complex), B=np.eye(3, dtype=complex))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(-150.0, 150.0),
    st.floats(0.0, 2 * np.pi),
    st.floats(-150.0, 150.0),
    st.floats(0.0, 2 * np.pi),
)
def test_detect_factor_scale_invariance(seed, ra, pa, rb, pb):
    """(alpha A, beta B) has the factor of (A, B) for independent alpha and
    beta, here of modulus 1e-150 to 1e150."""
    rng = rng_for(seed)
    pairs = fc.builtin_pairs()
    pair = pairs[int(rng.integers(len(pairs)))]
    alpha = 10.0**ra * np.exp(1j * pa)
    beta = 10.0**rb * np.exp(1j * pb)
    base = fc.detect_factor(pair)
    scaled = fc.detect_factor(fc.OperatorPair(A=alpha * pair.A, B=beta * pair.B))
    assert scaled.status == base.status
    if base.status == fc.UNIQUE:
        assert abs(scaled.lambda_hat - base.lambda_hat) <= 1e-12


def test_detect_factor_swap_inverse():
    for pair in fc.builtin_pairs():
        base = fc.detect_factor(pair)
        if base.status != fc.UNIQUE:
            continue
        swapped = fc.detect_factor(pair.swapped())
        assert swapped.status == fc.UNIQUE
        assert abs(swapped.lambda_hat - 1.0 / base.lambda_hat) <= 1e-9


def test_spectrum_rotation_examples():
    S = np.array([1, 1j, -1, -1j])
    assert fc.spectrum_rotation_check(S, 1j, 1e-12).matched  # 90-degree permutation
    sample = np.array([0.3 + 0.1j, -2.0, 5.0])
    trivial = fc.spectrum_rotation_check(sample, 1.0, 1e-15)
    assert trivial.matched and trivial.max_pair_distance == 0.0
    assert not fc.spectrum_rotation_check(np.array([1.0, 2.0]), -1.0, 1e-6).matched
    empty = fc.spectrum_rotation_check(np.array([]), 2.0)
    assert empty.matched and empty.max_pair_distance == 0.0 and empty.assignment == []


def test_spectrum_rotation_rejects_zero():
    with pytest.raises(InvalidParameter):
        fc.spectrum_rotation_check(np.array([1.0]), 0.0)


def test_spectrum_rotation_rejects_nonfinite():
    for spectrum, lam in (([np.nan] + [1.0] * 5, 1.0), ([np.inf, 1.0], 1j), ([1e300] * 6, 1e10), ([1.0, 2.0], np.inf)):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidParameter):
            fc.spectrum_rotation_check(np.array(spectrum), lam)


def test_match_counterexample_to_least_sum_assignment():
    """The least-sum pairing of these multisets has largest distance
    sqrt(40) = 6.32; the bottleneck pairing has sqrt(26) = 5.10, within
    tol * scale = 1.6 * sqrt(13) = 5.77."""
    left = np.array([3 - 2j, -2 - 3j, 2j])
    right = np.array([-3, -2 - 3j, 3j])
    match = _assignment_match(left, right, 1.6)
    assert match.matched
    assert match.max_pair_distance == pytest.approx(np.sqrt(26.0), rel=1e-15)
    assert match.assignment == [(0, 1), (1, 0), (2, 2)]


def _spectrum_pair(rng, n):
    """Two spectra of size n: generic, exactly repeated values, or clusters
    whose points differ by 1e-9, matched with an independent or a permuted
    and perturbed copy."""
    kind = rng.integers(3)
    if kind == 0:
        left = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        pool = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        left = pool[rng.integers(2, size=n)]
        if kind == 2:
            left = left + 1e-9 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    if rng.integers(2):
        right = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        right = left[rng.permutation(n)] + rng.choice([0.0, 1e-9, 1e-3]) * rng.standard_normal(n)
    return left, right


def _largest_per_permutation(cost) -> np.ndarray:
    """The largest entry of cost picked by each permutation."""
    n = len(cost)
    perms = np.array(list(itertools.permutations(range(n))))
    return cost[np.arange(n), perms].max(axis=1)


def _perfect_within(cost, t) -> bool:
    """Whether the graph of entries at or below t has a perfect matching
    (augmenting paths by depth-first search)."""
    n = len(cost)
    owner = [-1] * n

    def augment(i, seen):
        for j in range(n):
            if cost[i, j] <= t and j not in seen:
                seen.add(j)
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(n))


def _check_bottleneck(left, right, expected):
    match = _assignment_match(left, right, 1e-9)
    cost = np.abs(left[:, None] - right[None, :])
    rows, cols = zip(*match.assignment)
    assert list(rows) == list(range(len(left))) and sorted(cols) == list(range(len(left)))
    assert match.max_pair_distance == cost[rows, cols].max() == expected


def test_bottleneck_value_equals_brute_force_minimum():
    rng = rng_for(2024)
    for _ in range(600):
        left, right = _spectrum_pair(rng, int(rng.integers(1, 7)))
        _check_bottleneck(left, right, _largest_per_permutation(np.abs(left[:, None] - right[None, :])).min())


def test_bottleneck_value_is_least_threshold_with_a_perfect_matching():
    """Beyond brute force: the answer is the least distance t whose
    threshold graph has a perfect matching."""
    rng = rng_for(2025)
    for _ in range(120):
        left, right = _spectrum_pair(rng, int(rng.integers(7, 25)))
        cost = np.abs(left[:, None] - right[None, :])
        levels = np.unique(cost)
        lo, hi = 0, len(levels) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if _perfect_within(cost, levels[mid]) else (mid + 1, hi)
        _check_bottleneck(left, right, levels[lo])


def test_assignment_equals_least_sum_oracle_when_optimum_is_unique_and_strict():
    """scipy's least-sum solver is the oracle where both criteria pick the
    same single matching: a permuted, slightly perturbed copy of separated
    points, and small spectra against a permuted copy perturbed by 0.3
    whose bottleneck optimum is unique and also the least-sum one."""
    from scipy.optimize import linear_sum_assignment

    def assigned(left, right):
        return [j for _, j in _assignment_match(left, right, 1e-9).assignment]

    rng = rng_for(2026)
    for n in list(range(1, 41)) + [64, 128]:
        left = np.arange(n) * (1 + 1j) + 0.1 * rng.standard_normal(n)
        right = left[rng.permutation(n)] + 1e-3 * rng.standard_normal(n)
        cost = np.abs(left[:, None] - right[None, :])
        assert assigned(left, right) == linear_sum_assignment(cost)[1].tolist()
    compared = 0
    for _ in range(300):
        n = int(rng.integers(5, 8))
        left = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        right = left[rng.permutation(n)] + 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        cost = np.abs(left[:, None] - right[None, :])
        oracle = linear_sum_assignment(cost)[1]
        largest = np.sort(_largest_per_permutation(cost))
        if largest[0] < largest[1] and cost[np.arange(n), oracle].max() == largest[0]:
            assert assigned(left, right) == oracle.tolist()
            compared += 1
    assert compared >= 100


def test_spectrum_swap_examples():
    pauli = fc.spectrum_swap_check(fc.OperatorPair(A=SX, B=SY), 1e-12)
    assert pauli.matched  # both products have spectrum {i, -i}
    M = ginibre(rng_for(11), 5)
    assert fc.spectrum_swap_check(fc.OperatorPair(A=M, B=np.eye(5, dtype=complex)), 1e-12).matched
    rng = rng_for(12)
    pair = fc.OperatorPair(A=ginibre(rng, 6), B=ginibre(rng, 6))
    assert fc.spectrum_swap_check(pair, 1e-7).matched


def test_trace_det_constraints_examples():
    # (sx, sx): tr[AB] = tr(I) = 2 forces lambda = 1
    cons = fc.trace_det_constraints(fc.OperatorPair(A=SX, B=SX), kmax=2)
    assert any(c.kind == "one" for c in cons)

    # (sx, sy): all listed traces vanish, det(AB) = det(i sz) = 1 != 0
    cons2 = fc.trace_det_constraints(fc.OperatorPair(A=SX, B=SY), kmax=2)
    assert all(c.kind != "one" for c in cons2)
    roots = [c for c in cons2 if c.kind == "nth-root"]
    assert len(roots) == 1 and roots[0].order == 2

    # clock-shift n=4: unitary factors, det != 0 -> lambda^4 = 1,
    # consistent with the detected factor i
    pair4 = fc.clock_shift_pair(4)
    cons3 = fc.trace_det_constraints(pair4, kmax=4)
    roots4 = [c for c in cons3 if c.kind == "nth-root"]
    assert len(roots4) == 1 and roots4[0].order == 4
    lam = fc.detect_factor(pair4).lambda_hat
    assert abs(lam**4 - 1.0) <= 1e-12


def test_trace_det_constraints_match_unscaled_powers_in_range():
    """A and B are scaled by powers of two, which is exact: while A^k, B^k
    and det(AB) stay in range, the one trace witness is the first nonzero
    trace of plain repeated products, and every value within relative
    1e-12 of that trace prints as the witness does."""
    rng = rng_for(21)
    A, B = 1e18 * ginibre(rng, 6), 1e18 * ginibre(rng, 6)
    tol = 1e-9
    first = None
    Ak = Bk = np.eye(6, dtype=complex)
    for k in range(1, 13):
        Bk, Ak = Bk @ B, Ak @ A
        for trace, name in ((complex(np.trace(A @ Bk)), f"tr[A B^{k}]"), (complex(np.trace(Ak @ B)), f"tr[A^{k} B]")):
            if first is None and abs(trace) > tol:
                first = (trace, name)
    trace, name = first
    constraints = fc.trace_det_constraints(fc.OperatorPair(A=A, B=B), kmax=12, tol=tol)
    assert [c.kind for c in constraints] == ["one", "nth-root"]
    prefix = f"nonzero trace {name} = "
    assert constraints[0].source.startswith(prefix)
    assert {f"{trace * (1 + d):.6g}" for d in (-1e-12, 0.0, 1e-12)} == {constraints[0].source[len(prefix):]}
    assert constraints[1].source == f"nonzero det(AB) = {complex(np.linalg.det(A @ B)):.6g}"


def _root_of_unity_pair(n: int, shift: int) -> fc.OperatorPair:
    """A = diag(w^(-shift j)), B = diag(w^j), w = exp(2 pi i / n): tr[A B^k] = n
    for k = shift (mod n), tr[A^k B] = n for shift k = 1 (mod n), and every
    other trace vanishes."""
    j = np.arange(n)
    return fc.OperatorPair(A=np.diag(np.exp(-2j * np.pi * shift * j / n)), B=np.diag(np.exp(2j * np.pi * j / n)))


@pytest.mark.parametrize(
    "shift, kmax, witness",
    [
        (3, 16, "tr[A B^3]"),  # the A side's first, tr[A^11 B], comes later
        (11, 16, "tr[A^3 B]"),  # before the B side's tr[A B^11]
        (7, 16, "tr[A B^7]"),  # 7 * 7 = 1 (mod 16): at equal k the B side first
        (3, 3, "tr[A B^3]"),
        (11, 3, "tr[A^3 B]"),
        (3, 2, None),  # kmax below m = 4 of a full sweep
        (11, 1, None),
    ],
)
def test_trace_witness_is_the_first_in_order_with_the_sides_run_in_turn(shift, kmax, witness):
    """The B side runs first and the A side only below its witness; the one
    reported is still the first of tr[A B^1], tr[A^1 B], tr[A B^2], ..."""
    constraints = fc.trace_det_constraints(_root_of_unity_pair(16, shift), kmax=kmax)
    traces = [c.source.removeprefix("nonzero trace ").split(" = ") for c in constraints if c.kind == "one"]
    assert [name for name, _ in traces] == ([] if witness is None else [witness])
    assert all(abs(complex(value) - 16) <= 1e-9 * 16 for _, value in traces)


def _pauli_tensor_pair(n: int) -> fc.OperatorPair:
    """(sigma_x (x) H, sigma_y (x) H) for a positive definite H: they anticommute."""
    rng = rng_for(30, n)
    V = random_unitary(rng, n // 2)
    H = (V * rng.uniform(0.5, 2.0, n // 2)) @ V.conj().T
    return fc.OperatorPair(A=np.kron(SX, H), B=np.kron(SY, H), declared_lambda=-1.0)


def _lower_shift_jordan_pair(n: int) -> fc.OperatorPair:
    """A[i, j] = lam^j a[i - j] against the n x n lower shift B: AB = lam BA."""
    rng = rng_for(41, n)
    lam = 2 ** (1 / (n - 1)) * np.exp(2j * np.pi * rng.random())
    a = ginibre(rng, n, 1).ravel() * 0.7 ** np.arange(n)
    a[0] = 1.5
    i, j = np.indices((n, n))
    return fc.OperatorPair(A=np.where(i >= j, lam**j * a[i - j], 0.0), B=np.eye(n, k=-1), declared_lambda=lam)


def _jordan_block(k: int) -> np.ndarray:
    return np.eye(k) + np.eye(k, k=1)


# Defective invertible pairs: the computed eigenvalues of a k x k Jordan
# block move by about eps^(1/k) under a change of basis.
DEFECTIVE_PAIRS = {
    **{
        f"jordan-block-{k}": fc.OperatorPair(A=J, B=J + J @ J / 2, declared_lambda=1.0)
        for k, J in ((k, _jordan_block(k)) for k in (3, 4, 6))
    },
    "sz-jordan-block-3": fc.OperatorPair(
        A=np.kron(SZ, _jordan_block(3)), B=np.kron(SX, np.eye(3)), declared_lambda=-1.0
    ),
}

SYMMETRY_FAMILIES = {
    "clock-shift": fc.clock_shift_pair,
    "cyclic-shift-diag": lambda n: fc.cyclic_shift_diag_pair(n, np.exp(6j * np.pi / n)),
    "pauli-tensor": _pauli_tensor_pair,
    "nilpotent-diag": lambda n: fc.nilpotent_diag_pair(np.arange(1.0, n + 1), n // 2, 2.5, solve_pivot=True),
    "jordan3": lambda n: fc.jordan_pair(3, 1.5, -0.5, 0.75, 0.5),
    "jordan": _lower_shift_jordan_pair,
    "uq-sl2": lambda n: fc.uq_sl2_pair(n - 1, 1.1),
    **{name: lambda n, pair=pair: pair for name, pair in DEFECTIVE_PAIRS.items()},
}
FIXED_DIMENSION = {"jordan3": 3, **{name: pair.dim for name, pair in DEFECTIVE_PAIRS.items()}}


@pytest.mark.parametrize(
    "family, n",
    [(family, n) for family in sorted(SYMMETRY_FAMILIES) if family not in FIXED_DIMENSION for n in (4, 8, 16)]
    + sorted(FIXED_DIMENSION.items()),
)
def test_classify_pair_verdict_survives_scaling_and_unitary_similarity(family, n):
    """The factor is invariant under (alpha A, beta B) and (U A U*, U B U*),
    and becomes 1/lambda under the swap (B, A), so each image of a
    realization is UNIQUE, with the declared factor or its inverse, and
    consistent: no rounding in the powers may be read as a violation.
    Nilpotent factors and products, and defective invertible ones, included:
    after a change of basis their computed eigenvalues scatter far above
    the rounding level."""
    base = SYMMETRY_FAMILIES[family](n)
    lam = base.declared_lambda
    rng = rng_for(31, n)
    images = []
    for mag_A, mag_B in ((1e3, 1.0), (1.0, 1e3), (1e-2, 1e3), (1e3, 1e-2)):
        phase_A, phase_B = np.exp(2j * np.pi * rng.random(2))
        images.append((mag_A * phase_A * base.A, mag_B * phase_B * base.B, lam))
    for _ in range(2):
        U = random_unitary(rng, n)
        images.append((U @ base.A @ U.conj().T, U @ base.B @ U.conj().T, lam))
    images += [(base.B, base.A, 1 / lam), (images[-1][1], images[-1][0], 1 / lam)]
    for A, B, want in images:
        report = fc.classify_pair(fc.OperatorPair(A=A, B=B))
        assert report.factor.status == fc.UNIQUE
        assert abs(report.factor.lambda_hat - want) <= 1e-9 * max(1.0, abs(want))
        assert report.consistent, report.violations


@pytest.mark.parametrize("family", sorted(DEFECTIVE_PAIRS))
def test_defective_pair_is_consistent_after_every_change_of_basis(family):
    """Each conjugate by random_unitary(rng_for(s)) for 50 seeds s fits the
    declared factor and is consistent.  Matching computed eigenvalues
    reported sigma(AB) != sigma(BA), at 1e-6 to 1e-3, for every seed."""
    base = DEFECTIVE_PAIRS[family]
    for seed in range(50):
        U = random_unitary(rng_for(seed), base.dim)
        report = fc.classify_pair(fc.OperatorPair(A=U @ base.A @ U.conj().T, B=U @ base.B @ U.conj().T))
        assert abs(report.factor.lambda_hat - base.declared_lambda) <= 1e-9, seed
        assert report.consistent, (seed, report.violations)


def _rotation_constraints(report) -> dict[str, fc.LambdaConstraint]:
    """The spectrum-rotation constraints of a report, keyed by the matrix."""
    names = {"sigma(AB)": "AB", "B invertible": "A", "A invertible, so": "B"}
    return {m: c for c in report.constraints for prefix, m in names.items() if c.source.startswith(prefix)}


def test_clock_shift_5_rotation_constraints_have_their_witness_at_k_5():
    """The power sums of A, B and AB vanish below k = 5, so each rotation
    forces lambda^5 = 1, which the fitted omega satisfies and i does not."""
    report = fc.classify_pair(fc.clock_shift_pair(5))
    rotations = _rotation_constraints(report)
    assert sorted(rotations) == ["A", "AB", "B"]
    for name, c in rotations.items():
        assert (c.kind, c.constraint, c.order, c.satisfied) == ("nth-root", "lambda^5 = 1", 5, True)
        witness, trace = c.source.split(": nonzero ")[1].split(" = ")
        assert witness == f"tr[{'(AB)' if name == 'AB' else name}^5]" and abs(complex(trace) - 5) <= 1e-12
        assert abs(1j**c.order - 1.0) > 10 * fc.DEFAULT_TOL


def test_product_rotation_allows_for_the_rounding_of_forming_ab():
    """AB = 3 E21 is nilpotent and lambda = 3, but the factor A carries an
    entry of 1e6 that B annihilates: the computed product holds rounding of
    about 1e-10 of its norm, and tr[AB] of that rounding cleared the sweep's
    own bound.  The bound widened by ||A||_F ||B||_F / ||AB||_F keeps AB
    nilpotent."""
    A, B = np.diag([1.0, 3.0, 1e6]).astype(complex), np.zeros((3, 3), dtype=complex)
    B[1, 0] = 1.0
    for seed in range(20):
        U = random_unitary(rng_for(seed), 3)
        report = fc.classify_pair(fc.OperatorPair(A=U @ A @ U.conj().T, B=U @ B @ U.conj().T))
        assert abs(report.factor.lambda_hat - 3.0) <= 1e-9
        assert report.product_quasinilpotent and "AB" not in _rotation_constraints(report)
        assert report.consistent, (seed, report.violations)


def test_classify_pair_takes_no_general_eigenvalues_of_a_non_hermitian_matrix(monkeypatch):
    """Clock-shift 16 is invertible and non-Hermitian: no eigvals at all.  A
    Hermitian factor takes one, for PSD and PD."""
    calls = []
    real = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda M: calls.append(M.shape) or real(M))
    assert fc.classify_pair(fc.clock_shift_pair(16)).consistent
    assert calls == []
    assert fc.classify_pair(_pauli_tensor_pair(8)).consistent
    assert calls == [(8, 8), (8, 8)]


@pytest.mark.parametrize("n, shift", [(64, 33), (128, 120)])
def test_trace_witness_found_at_a_late_power(n, shift):
    """A = diag(w^(-shift j)), B = diag(w^j) with w = exp(2 pi i / n): every
    tr[A B^k] and tr[A^k B] with k < shift vanishes, and tr[A B^shift] = n.
    At n = 128 the powers of B fall by 2^-k only because the scaling keeps
    ||B||_2 above 1/2; a scaling by the largest entry and n would have let
    B^120 underflow and lost the witness."""
    traces = [c for c in fc.trace_det_constraints(_root_of_unity_pair(n, shift), kmax=n) if c.kind == "one"]
    assert len(traces) == 1
    name, value = traces[0].source.removeprefix("nonzero trace ").split(" = ")
    assert name == f"tr[A B^{shift}]"
    assert abs(complex(value) - n) <= 1e-9 * n


def test_classify_pair_pauli():
    report = fc.classify_pair(fc.OperatorPair(A=SX, B=SY))
    assert report.consistent
    assert report.factor.status == fc.UNIQUE
    kinds = {c.kind for c in report.constraints}
    assert "pm1" in kinds and "real" in kinds
    assert all(c.satisfied for c in report.constraints)
    # AB = i sigma_z: tr[AB] = 0 and tr[(AB)^2] = -2, so lambda^2 = 1
    assert _rotation_constraints(report)["AB"].order == 2


def test_classify_pair_nilpotent_diag_lambda_3():
    pair = fc.nilpotent_diag_pair([1.0, 3.0], 1, 3.0)
    report = fc.classify_pair(pair)
    assert report.consistent
    assert abs(report.factor.lambda_hat - 3.0) <= 1e-12
    assert report.product_quasinilpotent  # non-unit factor forces this
    # B is invertible, so sigma(A) must be rotation-invariant: it is {0, 0},
    # so no power sum of A clears its bound and no constraint arises
    assert report.flags_B.invertible and report.flags_A.quasi_nilpotent
    assert "A" not in _rotation_constraints(report) and all(c.satisfied for c in report.constraints)


def test_classify_pair_generic_has_no_factor():
    A = np.diag([1.0, 2.0]).astype(complex)
    B = random_hermitian(rng_for(13), 2)
    report = fc.classify_pair(fc.OperatorPair(A=A, B=B))
    assert report.factor.status == fc.NONE
    assert report.consistent and not report.violations


def test_classify_pair_flags_violations_on_forced_borderline():
    # Hermitian near-anticommuting pair rigged so the fitted factor is
    # accepted at a loose tolerance while the nonzero trace demands
    # lambda = 1: the report must flag the contradiction.
    delta = 2e-3
    pair = fc.OperatorPair(A=SX, B=SY + delta * SX)
    report = fc.classify_pair(pair, tol=1e-3)
    assert report.factor.status == fc.UNIQUE
    assert not report.consistent
    assert any("lambda = 1" in v for v in report.violations)


@pytest.mark.parametrize("scale", [1.0, 1e-3, 3e-5, 1e-5, 1e-8])
def test_classify_pair_ginibre_verdict_does_not_depend_on_scale(scale):
    """A random pair has no factor at any scale: small products are judged
    relative to the factors, not read as zero against an absolute floor."""
    rng = rng_for(5)
    A, B = ginibre(rng, 4), ginibre(rng, 4)
    unscaled = fc.classify_pair(fc.OperatorPair(A=A, B=B)).factor.residual
    report = fc.classify_pair(fc.OperatorPair(A=scale * A, B=scale * B))
    assert report.factor.status == fc.NONE and report.consistent
    assert abs(report.factor.residual - unscaled) <= 1e-12 * unscaled


def test_classify_pair_tiny_commuting_pair_is_unique():
    report = fc.classify_pair(fc.OperatorPair(A=1e-6 * np.eye(3), B=1e-6 * np.diag([1.0, 2.0, 3.0])))
    assert report.factor.status == fc.UNIQUE
    assert abs(report.factor.lambda_hat - 1.0) <= 1e-12


def test_det_rule_needs_both_factors_invertible():
    """B is the nilpotent lower shift, so det(AB) = 0 exactly; the computed
    determinant of the 64 x 64 product is far from 0 and must not count."""
    rng = rng_for(41, 0)
    n = 64
    lam = 2 ** (1 / 63) * np.exp(2j * np.pi * rng.random())
    a = ginibre(rng, n, 1).ravel() * 0.7 ** np.arange(n)
    a[0] = 1.5
    i, j = np.indices((n, n))
    A = np.where(i >= j, lam**j * a[i - j], 0.0)
    B = np.eye(n, k=-1)
    U = random_unitary(rng, n)
    report = fc.classify_pair(fc.OperatorPair(A=U @ A @ U.conj().T, B=U @ B @ U.conj().T))
    assert not report.flags_B.invertible
    assert all(c.kind != "nth-root" for c in report.constraints)


def test_det_rule_counts_a_tiny_determinant_of_invertible_factors():
    """Clock-shift 4 with both factors x1e-3: |det(AB)| = 1e-24 is below
    tol, but both factors are invertible, so lambda^4 = 1 holds."""
    pair = fc.clock_shift_pair(4)
    report = fc.classify_pair(fc.OperatorPair(A=1e-3 * pair.A, B=1e-3 * pair.B))
    roots = [c for c in report.constraints if c.kind == "nth-root" and c.source.startswith("nonzero det")]
    assert [c.constraint for c in roots] == ["lambda^4 = 1"] and roots[0].satisfied
    assert abs(complex(roots[0].source.removeprefix("nonzero det(AB) = ")) - 1e-24) <= 1e-30
    assert report.consistent


def _printed_value(text: str) -> tuple[complex, int]:
    """(mantissa, decimal exponent) of a '.6g' complex or '(mantissa)e+NNN'."""
    if text.startswith("("):
        mantissa, power = text[1:].split(")e")
        return complex(mantissa), int(power)
    return complex(text), 0


@pytest.mark.parametrize("value", [1.0 + 0j, -1.2345678 + 0.5j, 9.9999999j, 0.3 - 7.1j])
def test_power_text_across_both_edges_of_the_double_range(value):
    """value * 2**e printed to 6 digits for e across the overflow edge
    (2**1024) and the normal underflow edge (2**-1022); outside the range the
    mantissa's modulus lies in [1, 10)."""
    log10_two = Decimal(2).log10()
    for exponent in [*range(1010, 1040), *range(-1050, -1010), 3000, -3000]:
        text = _power_text(value, exponent)
        mantissa, power = _printed_value(text)
        if text.startswith("("):
            assert 1.0 <= abs(mantissa) < 10.0, text
        want = Decimal(abs(value)).log10() + exponent * log10_two
        got = Decimal(abs(mantissa)).log10() + power
        assert abs(got - want) <= Decimal("5e-6"), (exponent, text)
        assert abs(mantissa / abs(mantissa) - value / abs(value)) <= 1e-5, (exponent, text)


def test_power_text_carries_a_mantissa_that_rounds_to_ten():
    """9.9999999e400 and -9.9999999e-503 print as 1e401 and -1e-502."""
    assert _power_text(complex(Decimal("9.9999999e400") / Decimal(2) ** 1400), 1400) == "(1+0j)e+401"
    assert _power_text(complex(Decimal("-9.9999999e-503") * Decimal(2) ** 1600), -1600) == "(-1+0j)e-502"


def test_solve_lambda_commutant_examples():
    A = np.diag([1.0, 2.0]).astype(complex)
    basis = fc.solve_lambda_commutant(A, 2.0)
    assert len(basis) == 1
    B = basis[0]
    assert np.allclose(B, np.array([[0, 0], [1, 0]]), atol=1e-12)
    assert np.linalg.norm(A @ B - 2.0 * B @ A) <= 1e-12

    eye = np.eye(3, dtype=complex)
    assert len(fc.solve_lambda_commutant(eye, 1.0)) == 9
    assert len(fc.solve_lambda_commutant(eye, 2.0)) == 0


def test_solve_lambda_commutant_rejects_nonnormal():
    with pytest.raises(NotNormal):
        fc.solve_lambda_commutant(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)
    with pytest.raises(InvalidParameter):
        fc.solve_lambda_commutant(np.eye(2, dtype=complex), 0.0)


def test_solve_lambda_commutant_satisfies_relation():
    for seed in range(6):
        rng = rng_for(400 + seed)
        n = int(rng.integers(2, 7))
        lam = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()))
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        d[1] = lam * d[0]
        U = random_unitary(rng, n)
        A = (U * d) @ U.conj().T
        basis = fc.solve_lambda_commutant(A, lam)
        assert basis
        for B in basis:
            resid = np.linalg.norm(A @ B - lam * B @ A)
            assert resid <= 1e-8 * max(1.0, np.linalg.norm(A) * np.linalg.norm(B))


def test_psd_anticommutant_is_trivial():
    rng = rng_for(14)
    A = ginibre(rng, 4, 2)
    A = A @ A.conj().T  # PSD, rank 2
    for B in fc.solve_lambda_commutant(A, -1.0):
        assert np.linalg.norm(A @ B) <= 1e-9


def test_measurement_map_check_pauli():
    # AB X BA = (i sz) X (-i sz) = sz X sz = BA X AB
    assert fc.measurement_map_check(fc.OperatorPair(A=SX, B=SY))


def test_measurement_map_check_commuting_diagonal():
    A = np.diag([1.0, 2.0, 3.0]).astype(complex)
    B = np.diag([-1.0, 0.5, 2.0]).astype(complex)
    assert fc.measurement_map_check(fc.OperatorPair(A=A, B=B))


def test_measurement_map_check_counterexample():
    # explicit witness X = E11: AB X BA = diag(0, 4), BA X AB = diag(0, 1)
    A = np.diag([1.0, 2.0]).astype(complex)
    pair = fc.OperatorPair(A=A, B=SX)
    AB, BA = A @ SX, SX @ A
    X = np.diag([1.0, 0.0]).astype(complex)
    assert not np.allclose(AB @ X @ BA, BA @ X @ AB)
    assert not fc.measurement_map_check(pair)


def test_measurement_map_check_unimodular_builtins():
    for pair in fc.builtin_pairs():
        report = fc.detect_factor(pair)
        if report.status != fc.UNIQUE or report.residual > 1e-10:
            continue
        if abs(abs(report.lambda_hat) - 1.0) > 1e-10:
            continue
        assert fc.measurement_map_check(pair), pair.label
        AB, BA = pair.A @ pair.B, pair.B @ pair.A
        for X in (ginibre(rng_for(7, t), pair.dim) for t in range(3)):
            lhs = AB @ X @ BA
            assert np.linalg.norm(lhs - BA @ X @ AB) <= 1e-9 * max(1.0, np.linalg.norm(lhs)), pair.label


def test_nonunimodular_unique_pairs_have_nilpotent_product():
    for pair in fc.builtin_pairs():
        report = fc.detect_factor(pair)
        if report.status != fc.UNIQUE or abs(abs(report.lambda_hat) - 1.0) <= 1e-6:
            continue
        AB = pair.A @ pair.B
        if np.linalg.norm(AB) <= 1e-6:
            continue
        assert np.abs(fc.eigenvalues(AB)).max() <= 1e-7 * np.linalg.norm(AB), pair.label


@pytest.mark.parametrize("solver", ["eigvals", "slogdet"])
def test_classify_pair_reports_a_lapack_failure_as_convergence_failure(monkeypatch, solver):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, solver, fail)
    pair = fc.OperatorPair(A=np.diag([1.0, 2.0]), B=np.diag([3.0, 4.0]))  # Hermitian and invertible
    with pytest.raises(ConvergenceFailure):
        fc.classify_pair(pair)


def _conjugated(pair: fc.OperatorPair, seed: int) -> fc.OperatorPair:
    U = random_unitary(rng_for(seed), pair.dim)
    return fc.OperatorPair(A=U @ pair.A @ U.conj().T, B=U @ pair.B @ U.conj().T, label=pair.label)


def test_classify_pair_runs_each_decomposition_once(monkeypatch):
    calls = {"eigvals": 0, "svd": 0, "eigvalsh": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    cases = [
        # no factor is Hermitian, so none takes eigvals
        (_conjugated(fc.clock_shift_pair(4), 17), {"eigvals": 0, "svd": 2, "eigvalsh": 0}),
        (_conjugated(fc.jordan_pair(3, 1.5, -0.5, 0.75, 0.5), 17), {"eigvals": 0, "svd": 2, "eigvalsh": 0}),
        # each Hermitian factor takes one, for PSD and PD
        (_pauli_tensor_pair(4), {"eigvals": 2, "svd": 2, "eigvalsh": 0}),
    ]
    for pair, expected in cases:
        calls.update(dict.fromkeys(calls, 0))
        assert fc.classify_pair(pair).factor.status == fc.UNIQUE
        assert calls == expected, pair.label


def test_factor_report_json_shape():
    report = fc.detect_factor(fc.OperatorPair(A=SX, B=SY))
    data = report.to_json()
    assert data["status"] == "UNIQUE"
    assert data["lambda_hat"] == [pytest.approx(-1.0), pytest.approx(0.0)]
    assert set(data) == {"status", "lambda_hat", "residual", "ab_norm", "ba_norm"}


def test_classification_report_json_stable_names():
    data = fc.classify_pair(fc.OperatorPair(A=SX, B=SY)).to_json()
    for key in ("status", "lambda_hat", "residual", "constraints", "violations", "consistent"):
        assert key in data


def test_pair_json_round_trip():
    pair = fc.clock_shift_pair(3)
    again = fc.OperatorPair.from_json(pair.to_json())
    assert np.array_equal(pair.A, again.A)
    assert np.array_equal(pair.B, again.B)
    assert again.declared_lambda == pair.declared_lambda
    assert again.label == pair.label
