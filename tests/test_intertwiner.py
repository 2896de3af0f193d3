"""Unitary-intertwiner construction and the norm-condition equivalence."""

import math

import numpy as np
import pytest

import factorcomm as fc
from factorcomm.errors import ConditionFailed, FactorCommError, NotHermitian
from factorcomm.sampling import random_hermitian, random_unitary, rng_for
from factorcomm.suite import _structured_commuting_pair, _structured_pauli_tensor_pair

SX = fc.PAULI_X
SY = fc.PAULI_Y
SZ = fc.PAULI_Z


def _pauli_example_pair() -> fc.OperatorPair:
    return fc.OperatorPair(A=SX, B=(SX + SY) / np.sqrt(2.0), label="pauli example")


def test_check_norm_condition_examples():
    # A^2 = B^2 = I for the Pauli example, so AB^2A = I = BA^2B
    assert fc.check_norm_condition(_pauli_example_pair())

    A = np.diag([1.0, 2.0, 3.0]).astype(complex)
    B = np.diag([0.5, -1.0, 4.0]).astype(complex)
    assert fc.check_norm_condition(fc.OperatorPair(A=A, B=B))

    # direct evaluation: AB^2A = diag(1,4), BA^2B = diag(4,1)
    bad = fc.OperatorPair(A=np.diag([1.0, 2.0]).astype(complex), B=SX)
    assert not fc.check_norm_condition(bad)


def test_check_norm_condition_requires_hermitian():
    with pytest.raises(NotHermitian):
        fc.check_norm_condition(
            fc.OperatorPair(A=np.array([[0, 1], [0, 0]], dtype=complex), B=SX)
        )


def test_gudder_nagy_examples():
    pauli = fc.gudder_nagy_check(_pauli_example_pair())
    assert pauli.lhs_holds and pauli.rhs_holds and pauli.consistent

    # diag(1,2) against sx: AB^2 = A = B^2A holds, but BA^2 != A^2B,
    # so both sides of the equivalence fail together
    mixed = fc.gudder_nagy_check(
        fc.OperatorPair(A=np.diag([1.0, 2.0]).astype(complex), B=SX)
    )
    assert not mixed.lhs_holds and not mixed.rhs_holds and mixed.consistent

    H = random_hermitian(rng_for(20), 4)
    same = fc.gudder_nagy_check(fc.OperatorPair(A=H, B=H))
    assert same.lhs_holds and same.rhs_holds and same.consistent


def test_gudder_nagy_random_and_structured_property():
    for trial in range(120):
        rng = rng_for(500, trial)
        kind = trial % 3
        if kind == 0:
            n = int(rng.integers(2, 9))
            pair = fc.OperatorPair(A=random_hermitian(rng, n), B=random_hermitian(rng, n))
        elif kind == 1:
            pair = _structured_commuting_pair(rng, 8)
        else:
            pair = _structured_pauli_tensor_pair(rng, 8)
        report = fc.gudder_nagy_check(pair, 1e-8)
        assert report.consistent, (trial, report)


def test_construct_intertwiner_pauli_example():
    result = fc.construct_intertwiner(_pauli_example_pair())
    assert np.linalg.norm(result.U - 1j * SZ) <= 1e-10
    assert result.residual_unitary <= 1e-10
    assert result.residual_intertwine <= 1e-10
    # V = (I + i sz)/sqrt(2), V^2 = i sz, no kernel
    assert np.linalg.norm(result.V - (np.eye(2) + 1j * SZ) / np.sqrt(2)) <= 1e-10
    assert np.linalg.norm(result.Q) <= 1e-12


def test_construct_intertwiner_swapped_pauli():
    pair = fc.OperatorPair(A=(SX + SY) / np.sqrt(2.0), B=SX)
    result = fc.construct_intertwiner(pair)
    assert np.linalg.norm(result.U + 1j * SZ) <= 1e-10


def test_construct_intertwiner_commuting_psd():
    A = np.diag([1.0, 2.0, 3.0]).astype(complex)
    B = np.diag([4.0, 5.0, 6.0]).astype(complex)
    result = fc.construct_intertwiner(fc.OperatorPair(A=A, B=B))
    assert np.linalg.norm(result.U - np.eye(3)) <= 1e-10


def test_construct_intertwiner_condition_failed():
    with pytest.raises(ConditionFailed):
        fc.construct_intertwiner(
            fc.OperatorPair(A=np.diag([1.0, 2.0]).astype(complex), B=SX)
        )


def test_construct_intertwiner_structured_invariants():
    for trial in range(40):
        rng = rng_for(600, trial)
        pair = (
            _structured_commuting_pair(rng, 8)
            if trial % 2
            else _structured_pauli_tensor_pair(rng, 8)
        )
        result = fc.construct_intertwiner(pair)
        AB = pair.A @ pair.B
        scale = max(1.0, np.linalg.norm(AB))
        assert result.residual_unitary <= 1e-9
        assert result.residual_intertwine <= 1e-8
        # AB commutes with U
        assert np.linalg.norm(AB @ result.U - result.U @ AB) <= 1e-8 * scale
        # compression identity: AB = (PAP)(PBP)
        P = result.P
        assert np.linalg.norm(AB - (P @ pair.A @ P) @ (P @ pair.B @ P)) <= 1e-8 * scale


def test_positive_factor_forces_commuting():
    for trial in range(20):
        rng = rng_for(700, trial)
        pair = _structured_commuting_pair(rng, 8, psd=True)
        assert fc.check_norm_condition(pair)
        AB = pair.A @ pair.B
        assert np.linalg.norm(AB - pair.B @ pair.A) <= 1e-8 * max(1.0, np.linalg.norm(AB))


def test_verify_intertwiner():
    pair = _pauli_example_pair()
    assert fc.verify_intertwiner(pair, 1j * SZ)
    assert not fc.verify_intertwiner(pair, np.eye(2, dtype=complex))
    commuting = fc.OperatorPair(
        A=np.diag([1.0, 2.0]).astype(complex), B=np.diag([3.0, 4.0]).astype(complex)
    )
    assert fc.verify_intertwiner(commuting, np.eye(2, dtype=complex))


def test_verify_intertwiner_accepts_alternative_kernel_action():
    # A or B singular leaves freedom on the kernel: any unitary phase
    # there must also verify.
    A = np.diag([1.0, 0.0]).astype(complex)
    B = np.diag([2.0, 0.0]).astype(complex)
    pair = fc.OperatorPair(A=A, B=B)
    canonical = fc.construct_intertwiner(pair)
    assert fc.verify_intertwiner(pair, canonical.U)
    alternative = canonical.U.copy()
    alternative[1, 1] = np.exp(0.3j)  # different action on ker(AB)
    assert fc.verify_intertwiner(pair, alternative)


def test_intertwiner_json_fields():
    data = fc.construct_intertwiner(_pauli_example_pair()).to_json()
    assert set(data) == {"U", "V", "P", "Q", "residual_intertwine", "residual_unitary"}


def test_construct_intertwiner_with_zero_products_raises_no_float_error():
    """diag(1, 0) and diag(0, 1): AB = BA = 0, so every gap is 0 against the
    factors' norms and U is the identity on the kernel, the whole space."""
    pair = fc.OperatorPair(A=np.diag([1.0, 0.0]), B=np.diag([0.0, 1.0]))
    with np.errstate(all="raise"):
        result = fc.construct_intertwiner(pair)
        assert fc.verify_intertwiner(pair, result.U) and fc.check_norm_condition(pair)
        report = fc.gudder_nagy_check(pair)
    assert np.array_equal(result.U, np.eye(2)) and result.residual_intertwine == 0.0
    assert report.lhs_holds and report.rhs_holds and report.lhs_magnitude == 0.0


def _answer(check, *args):
    """What a check says: its result, or the class of the error it raises."""
    try:
        return check(*args)
    except FactorCommError as exc:
        return type(exc)


# Powers of two near 1e-150, 1e-12, 1e-5, 1e-3, 1, 1e5 and 1e150, so the
# scaled pair is exact and its intertwiner can be compared bit for bit.
SCALES = [math.ldexp(1.0, round(math.log2(x))) for x in (1e-150, 1e-12, 1e-5, 1e-3, 1.0, 1e5, 1e150)]
SCALE_IDS = [f"2^{math.frexp(x)[1] - 1}" for x in SCALES]


def _gudder_nagy_sides(pair):
    report = fc.gudder_nagy_check(pair)
    return report.lhs_holds, report.rhs_holds


@pytest.mark.parametrize("beta", SCALES, ids=SCALE_IDS)
@pytest.mark.parametrize("alpha", SCALES, ids=SCALE_IDS)
def test_pair_checks_keep_their_answer_when_the_factors_are_scaled(alpha, beta):
    """Every check runs on the factors scaled by powers of two, against a
    cut relative to their norms with no max(1, .) floor, so (alpha A, beta B) gets the
    answer of (A, B).  With the floor, a pair with no intertwiner passed the
    norm condition once its products were small, and a wrong U passed."""
    rng = rng_for(5)
    no_intertwiner = (random_hermitian(rng, 3), random_hermitian(rng, 3))
    diag12 = np.diag([1.0, 2.0]).astype(complex)
    pairs = [no_intertwiner, (SX, (SX + SY) / np.sqrt(2.0)), (SX, SY), (diag12, SX), (diag12, np.diag([3.0, -1.0]))]
    for A, B in pairs:
        base, scaled = fc.OperatorPair(A=A, B=B), fc.OperatorPair(A=alpha * A, B=beta * B)
        for check in (fc.check_norm_condition, _gudder_nagy_sides, fc.measurement_map_check):
            assert _answer(check, scaled) == _answer(check, base)
        built, rebuilt = _answer(fc.construct_intertwiner, base), _answer(fc.construct_intertwiner, scaled)
        candidates = [np.eye(len(A)), np.diag([1.0, -1.0, 1.0][: len(A)])]
        if isinstance(built, fc.UnitaryIntertwiner):
            assert rebuilt.U.tobytes() == built.U.tobytes()
            candidates.append(built.U)
        else:
            assert rebuilt is built is ConditionFailed
        for U in candidates:
            assert fc.verify_intertwiner(scaled, U) == fc.verify_intertwiner(base, U)
    for M in (diag12, np.diag([1.0, -1.0]), np.array([[1.0, 1.0], [0.0, 2.0]]), no_intertwiner[0], SX + SY):
        for lam in (1.0, -1.0, 5.0, 1j):
            base = _answer(lambda: len(fc.solve_lambda_commutant(M, lam)))
            assert _answer(lambda: len(fc.solve_lambda_commutant(alpha * M, lam))) == base
    nearly_hermitian = no_intertwiner[0] + 1e-7 * np.triu(np.ones((3, 3)), 1)
    for M in (np.array([[1.0, 2.0], [0.0, 3.0]]), no_intertwiner[0], nearly_hermitian, SX):
        for scaled in (alpha * M, beta * M):
            assert fc.linalg.is_hermitian(scaled) == fc.classify_structure(scaled).hermitian


def complementary_projection_pairs():
    """Commuting Hermitian pairs whose products are zero in exact arithmetic
    but carry rounding in floating point: spectral projections of one
    unitarily conjugated diagonal, and (P, I - P)."""
    W = random_unitary(rng_for(3), 4)
    P = W @ np.diag([1.0, 1.0, 0.0, 0.0]) @ W.conj().T
    P = (P + P.conj().T) / 2.0
    B = W @ np.diag([0.0, 0.0, 1.0, 2.0]) @ W.conj().T
    return [(P, (B + B.conj().T) / 2.0), (P, np.eye(4) - P)]


@pytest.mark.parametrize("alpha", SCALES, ids=SCALE_IDS)
def test_products_that_vanish_up_to_rounding_pass_every_check(alpha):
    """AB is rounding of size ~1e-16, so (AB)(BA) and (BA)(AB) differ by about
    100% of their own norm; judged against the factors' norms, as
    ``classify_pair`` judges them, the pair commutes and U = I intertwines."""
    for A, B in complementary_projection_pairs():
        assert np.any(A @ B != 0)
        for pair in (fc.OperatorPair(A=alpha * A, B=alpha * B), fc.OperatorPair(A=alpha * A, B=B)):
            assert fc.classify_pair(pair).factor.status == fc.ANY
            assert fc.check_norm_condition(pair) and fc.measurement_map_check(pair)
            report = fc.gudder_nagy_check(pair)
            assert report.lhs_holds and report.rhs_holds and report.consistent
            result = fc.construct_intertwiner(pair)
            assert result.residual_intertwine <= 1e-15
            assert fc.verify_intertwiner(pair, result.U) and fc.verify_intertwiner(pair, np.eye(4))
