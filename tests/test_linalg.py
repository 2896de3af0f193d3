"""Matrix-core operations against hand-derived and brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import factorcomm as fc
from factorcomm.errors import (
    DimensionMismatch,
    InvalidParameter,
    NotHermitian,
)
from factorcomm.linalg import _power_sum_witnesses, _scaled, _scaled_traces, adjoint, is_hermitian, singular_values
from factorcomm.sampling import ginibre, random_hermitian, random_unitary, rng_for

SX = fc.PAULI_X
SY = fc.PAULI_Y
SZ = fc.PAULI_Z


def test_adjoint_examples():
    # sigma_y is self-adjoint
    assert np.array_equal(fc.adjoint(SY), SY)
    eye = np.eye(3, dtype=complex)
    assert np.array_equal(fc.adjoint(eye), eye)
    # real matrices: plain transpose
    lower = np.array([[0, 0], [1, 0]], dtype=complex)
    assert np.array_equal(fc.adjoint(lower), np.array([[0, 1], [0, 0]]))


def test_adjoint_swaps_dimensions():
    M = ginibre(rng_for(1), 2, 5)
    assert fc.adjoint(M).shape == (5, 2)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_adjoint_involution(n, m, seed):
    M = ginibre(rng_for(seed), n, m)
    assert np.array_equal(fc.adjoint(fc.adjoint(M)), M)


def test_matmul_pauli_product():
    # sigma_x sigma_y = i sigma_z = -sigma_y sigma_x
    assert np.allclose(fc.matmul(SX, SY), 1j * SZ, atol=1e-15)
    assert np.allclose(fc.matmul(SY, SX), -1j * SZ, atol=1e-15)


def test_matmul_identity_and_jordan_product():
    M = ginibre(rng_for(2), 3)
    assert np.allclose(fc.matmul(M, np.eye(3)), M)
    # lower-triangular pair: A B has the single entry lambda * x
    x, y, lam = 2.0, -1.0, 3.0
    A = np.array([[x, 0], [y, lam * x]], dtype=complex)
    B = np.array([[0, 0], [1, 0]], dtype=complex)
    assert np.allclose(fc.matmul(A, B), np.array([[0, 0], [lam * x, 0]]))


def test_matmul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fc.matmul(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


def test_eigenvalues_diagonal_and_nilpotent():
    vals = fc.eigenvalues(np.diag([1.0, 1j, -1.0, -1j]))
    assert np.allclose(sorted(vals, key=lambda z: (z.real, z.imag)), vals)
    assert np.allclose(np.sort_complex(vals), np.sort_complex(np.array([1, 1j, -1, -1j])))
    assert np.allclose(fc.eigenvalues(np.array([[0, 0], [1, 0]], dtype=complex)), [0, 0])


def test_eigenvalues_clock_shift_product():
    # 4x4 shift times diag(1, i, -1, -i): the product is a weighted cyclic
    # shift whose 4th power is omega^(0+1+2+3) I = -I, so its eigenvalues
    # are the four 4th roots of -1 (hand derivation).
    pair = fc.clock_shift_pair(4)
    got = fc.eigenvalues(pair.A @ pair.B)
    expected = np.array([np.exp(1j * np.pi * (2 * k + 1) / 4) for k in range(4)])
    expected = expected[np.lexsort((expected.imag, expected.real))]
    assert np.allclose(got, expected, atol=1e-12)


def test_eigenvalues_ordering_is_deterministic():
    M = ginibre(rng_for(3), 6)
    first = fc.eigenvalues(M)
    second = fc.eigenvalues(M.copy())
    assert np.array_equal(first, second)
    assert np.all(np.diff(first.real) >= 0)


def test_hermitian_eig_paulis():
    w, U = fc.hermitian_eig(SZ)
    assert np.allclose(w, [-1.0, 1.0])
    assert np.allclose((U * w) @ U.conj().T, SZ, atol=1e-14)

    w_eye, _ = fc.hermitian_eig(np.eye(3, dtype=complex))
    assert np.allclose(w_eye, 1.0)

    # (sx + sy)/sqrt(2): characteristic polynomial t^2 - (trace) t + det
    # = t^2 - 1, eigenvalues -1 and 1
    M = (SX + SY) / np.sqrt(2)
    w2, U2 = fc.hermitian_eig(M)
    assert np.allclose(w2, [-1.0, 1.0], atol=1e-14)
    assert np.linalg.norm((U2 * w2) @ U2.conj().T - M) <= 1e-9


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        fc.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("scale", [1e-320, 1e-160, 1.0, 1e160, 1e307])
def test_is_hermitian_keeps_its_cut_across_the_double_range(scale):
    """||M - M*||_F <= tol * ||M||_F, judged on M scaled by a power of two:
    entries near 1e160 do not pass as inf <= tol * inf, and subnormal ones
    keep the cut, with no absolute floor to slip under."""
    M = np.array([[1.0, 2.0], [0.0, 3.0]]) * scale
    assert is_hermitian(M) is False and is_hermitian(M + M.T)
    if 1.0 <= scale < 1e307:  # eigh of (M + M*) / 2 would overflow at 1e307
        with pytest.raises(NotHermitian):
            fc.hermitian_eig(M)
        assert np.allclose(fc.hermitian_eig(M + M.T)[0] / scale, [4 - np.sqrt(8), 4 + np.sqrt(8)])


def test_svd_examples():
    _, s, _ = fc.svd(np.diag([3.0, 2.0]).astype(complex))
    assert np.allclose(s, [3.0, 2.0])
    _, s2, _ = fc.svd(np.array([[0, 0], [1, 0]], dtype=complex))
    assert np.allclose(s2, [1.0, 0.0])
    # (I + i sz)/sqrt(2) is unitary: C* C = I by direct multiplication
    C = (np.eye(2) + 1j * SZ) / np.sqrt(2)
    assert np.allclose(C.conj().T @ C, np.eye(2), atol=1e-15)
    _, s3, _ = fc.svd(C)
    assert np.allclose(s3, [1.0, 1.0], atol=1e-14)


def test_svd_reconstruction_random():
    for seed in range(5):
        rng = rng_for(100 + seed)
        M = ginibre(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        W, s, X = fc.svd(M)
        S = np.zeros(M.shape)
        np.fill_diagonal(S, s)
        assert np.linalg.norm(W @ S @ X.conj().T - M) <= 1e-9 * max(1, np.linalg.norm(M))
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


def test_polar_unitary_product():
    # C = sx * (sx+sy)/sqrt(2) = (I + i sz)/sqrt(2); C*C = I so |C| = I,
    # V = C, full rank
    C = SX @ ((SX + SY) / np.sqrt(2))
    parts = fc.polar(C)
    assert np.allclose(parts.absC, np.eye(2), atol=1e-14)
    assert np.allclose(parts.V, C, atol=1e-14)
    assert parts.rank == 2
    assert np.allclose(parts.Q, 0, atol=1e-14)


def test_polar_identity_and_rank_deficient():
    parts = fc.polar(np.eye(2, dtype=complex))
    assert np.allclose(parts.V, np.eye(2))
    assert np.allclose(parts.absC, np.eye(2))
    assert np.allclose(parts.Q, 0)

    # hand SVD of [[0,0],[1,0]]: C*C = diag(1,0) so |C| = diag(1,0),
    # V = C, kernel projection diag(0,1)
    C = np.array([[0, 0], [1, 0]], dtype=complex)
    parts = fc.polar(C)
    assert np.allclose(parts.absC, np.diag([1.0, 0.0]), atol=1e-14)
    assert np.allclose(parts.V, C, atol=1e-14)
    assert parts.rank == 1
    assert np.allclose(parts.Q, np.diag([0.0, 1.0]), atol=1e-14)


def test_polar_invariants_random():
    for seed in range(8):
        rng = rng_for(200 + seed)
        C = ginibre(rng, int(rng.integers(2, 8)))
        parts = fc.polar(C)
        scale = max(1.0, np.linalg.norm(C))
        assert np.linalg.norm(parts.V @ parts.absC - C) <= 1e-9 * scale
        proj = parts.V.conj().T @ parts.V
        assert np.linalg.norm(proj @ proj - proj) <= 1e-9
        assert np.linalg.norm(proj - proj.conj().T) <= 1e-9
        assert np.linalg.eigvalsh(parts.absC).min() >= -1e-9 * scale
        assert np.allclose(parts.P + parts.Q, np.eye(C.shape[0]), atol=1e-12)


def test_classify_structure_examples():
    fx = fc.classify_structure(SX)
    assert fx.hermitian and fx.unitary and fx.invertible
    assert not fx.positive_semidefinite and not fx.quasi_nilpotent

    fn = fc.classify_structure(np.array([[0, 0], [1, 0]], dtype=complex))
    assert fn.quasi_nilpotent and not fn.invertible and not fn.hermitian

    fd = fc.classify_structure(np.diag([2.0, 0.0]).astype(complex))
    assert fd.hermitian and fd.positive_semidefinite
    assert not fd.positive_definite and not fd.invertible

    fpd = fc.classify_structure(np.diag([2.0, 1.0]).astype(complex))
    assert fpd.positive_definite and fpd.invertible


@pytest.mark.parametrize("scale", [1e-160, 1.0, 1e160])
def test_classify_structure_does_not_depend_on_scale(scale):
    """The matrix is scaled first, so ||M||_F of entries near 1e160 does not
    overflow and read a non-Hermitian matrix as Hermitian and PSD."""
    flags = fc.classify_structure(np.array([[1.0, 2.0], [0.0, 3.0]]) * scale)
    assert not flags.hermitian and not flags.positive_semidefinite
    assert flags.invertible and not flags.quasi_nilpotent and not flags.unitary


def test_classify_structure_decides_nilpotency_after_a_change_of_basis():
    """The 8 x 8 shift conjugated by a unitary: its computed eigenvalues
    scatter by about eps^(1/8), its power sums stay at the rounding level."""
    n = 8
    Q, _ = np.linalg.qr(ginibre(rng_for(7), n))
    M = Q @ np.eye(n, k=-1) @ Q.conj().T
    assert np.abs(fc.eigenvalues(M)).max() > 1e-3
    assert fc.classify_structure(M).quasi_nilpotent
    assert not fc.classify_structure(M + 1e-3 * np.eye(n)).quasi_nilpotent


@pytest.mark.parametrize("n", [1, 2, 4, 16, 128])
def test_scaled_traces_match_the_power_chain(n):
    """Up to k = m = ceil(sqrt(kmax)) the baby steps are the chain X^k = X^(k-1) X
    itself, so the traces are bitwise those of the chain; beyond, the giant
    steps regroup the products and each trace stays within its rounding
    bound of the chain's.  X is unitary up to scale, so no power vanishes
    and every sweep runs to kmax."""
    rng = rng_for(61, n)
    X, _, norm2 = _scaled(random_unitary(rng, n), np.ones(1))
    Y = ginibre(rng, n)
    unit = n * np.finfo(np.float64).eps * np.sqrt(np.vdot(X, X).real * np.vdot(Y, Y).real)
    m = int(np.ceil(np.sqrt(n)))
    kmaxes = sorted({1, 2, 3, m * m, m * m + 1, n})
    chain, power = [], X
    for _ in range(kmaxes[-1]):
        chain.append(complex(np.vdot(adjoint(Y), power)))
        power = power @ X
    for kmax in kmaxes:
        got = list(_scaled_traces(X, Y, norm2, kmax))
        assert len(got) == kmax
        block = int(np.ceil(np.sqrt(kmax)))
        for k, (trace, bound) in enumerate(got, start=1):
            assert bound == pytest.approx((k + 1) * unit * norm2 ** (k - 1), rel=1e-12)
            if k <= block:
                assert trace == chain[k - 1]
            else:
                assert abs(trace - chain[k - 1]) <= bound


def test_scaled_traces_stop_once_the_powers_vanish():
    """A power sweep ends where no later trace can clear its bound: in the
    first block at X^2 = 0, plain or after a change of basis, and before a
    giant block for a shift of index 6 > m = 4."""
    n = 16
    U = random_unitary(rng_for(62), n)
    rank_one = np.zeros((n, n), dtype=complex)
    rank_one[6, 7] = 1.0  # the A of nilpotent-diag
    shift = np.eye(n, k=-1) * (np.arange(n) < 5)  # X^6 = 0, X^5 != 0
    for M, count in ((rank_one, 1), (U @ rank_one @ U.conj().T, 1), (shift, 8), (U @ shift @ U.conj().T, 8)):
        X, _, norm2 = _scaled(M, singular_values(M))
        traces = list(_scaled_traces(X, np.eye(n), norm2, n))
        assert len(traces) == count
        assert all(abs(trace) <= bound for trace, bound in traces)
        assert fc.classify_structure(M).quasi_nilpotent


@pytest.mark.parametrize("scale", [2.0**-600, 1.0, 0.25])
def test_power_sum_witnesses_do_not_underflow(scale):
    """diag(w^j) for the 8th roots of unity w, times 2^-600: tr[M^8] = 8
    scale^8 is below the double range, but the sweep runs on M over its
    2-norm bound, so k = 8 is found at every scale.  Only k that lower the
    gcd are yielded: the 4th and the 6th roots of unity together, after a
    change of basis, have power sums at k = 4, 6 and 8, and yield 4 and 6."""
    n = 8
    M = scale * np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    [(k, trace)] = _power_sum_witnesses(M, scale)
    assert k == 8 and abs(trace - 8) <= 1e-12
    D = scale * np.diag(np.concatenate([np.exp(2j * np.pi * np.arange(4) / 4), np.exp(2j * np.pi * np.arange(6) / 6)]))
    U = random_unitary(rng_for(63), 10)
    assert [k for k, _ in _power_sum_witnesses(U @ D @ U.conj().T, scale)] == [4, 6]


def test_classify_structure_implications_random():
    for seed in range(10):
        rng = rng_for(300 + seed)
        n = int(rng.integers(2, 8))
        M = random_hermitian(rng, n) if seed % 2 else ginibre(rng, n)
        flags = fc.classify_structure(M)
        if flags.positive_definite:
            assert flags.positive_semidefinite
        if flags.positive_semidefinite:
            assert flags.hermitian
        if flags.unitary:
            assert flags.invertible


def test_matrix_json_round_trip():
    M = ginibre(rng_for(4), 3, 2)
    again = fc.matrix_from_json(fc.matrix_to_json(M))
    assert np.array_equal(M, again)


def test_matrix_json_rejects_malformed():
    with pytest.raises(InvalidParameter):
        fc.matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
    with pytest.raises(InvalidParameter):
        fc.matrix_from_json({"rows": 0, "cols": 1, "data": []})
    with pytest.raises(InvalidParameter):
        fc.matrix_from_json([1, 2, 3])
    with pytest.raises(InvalidParameter):
        fc.matrix_from_json({"rows": 1, "cols": 1, "data": [[float("nan"), 0]]})


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(InvalidParameter):
        fc.OperatorPair(A=np.array([[np.inf, 0], [0, 1]]), B=np.eye(2))
