"""Dense complex matrix arithmetic and decompositions.

Everything downstream works on plain ``numpy`` arrays of ``complex128``.
Matrices are treated as immutable values: every function returns fresh
arrays and never writes to its inputs.  Checks on a matrix or a pair
(structure flags, ``is_hermitian``, commutation, intertwiner) scale each
factor by a power of two and call x negligible at ``x <= tol * scale``, so
no verdict depends on the scale of the input.  The eigenvalue matchers
of ``commutation`` keep ``tol * max(1, largest modulus)``, and the
resolvent and realizations modules ``tol * max(1, scale)``: they compare
against absolute points and targets.

sigma(M) = lambda sigma(M) exactly when (1 - lambda^k) tr[M^k] = 0 for
k = 1..n (Newton's identities): each power sum that clears its rounding
bound forces lambda^k = 1, and a singular M with none is nilpotent (m
eigenvalues c w^j with c^m below about n eps read so).  Power sums, like
the trace rule's tr[A B^k], come from one baby-step giant-step sweep of
about 2 sqrt(n) products.  Only Hermitian matrices take eigenvalues (PSD, PD).
"""

import itertools
import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidParameter,
    NotHermitian,
)

DEFAULT_TOL = 1e-9


def as_matrix(values) -> np.ndarray:
    """Coerce to a 2-d complex128 array and reject non-finite entries."""
    M = np.asarray(values, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
        raise InvalidParameter(f"expected a 2-d matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidParameter("matrix entries must be finite")
    return M


def require_square(M: np.ndarray, what: str = "matrix") -> None:
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got shape {M.shape}")


def frob(M: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(M))


def adjoint(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return M.conj().T.copy()


def matmul(M: np.ndarray, N: np.ndarray) -> np.ndarray:
    if M.shape[1] != N.shape[0]:
        raise DimensionMismatch(f"cannot multiply {M.shape} by {N.shape}")
    return M @ N


def _lapack(solver, *args, **kwargs):
    """solver(*args, **kwargs), its LAPACK failure raised as ConvergenceFailure."""
    try:
        return solver(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def eigenvalues(M: np.ndarray) -> np.ndarray:
    """All eigenvalues with algebraic multiplicity, deterministically ordered.

    Uses the dense general (non-symmetric) solver and sorts the result
    lexicographically by (real, imag) so repeated runs and reports are
    byte-stable.
    """
    require_square(M)
    vals = _lapack(np.linalg.eigvals, M)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def is_hermitian(M: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Whether ||M - M*||_F <= tol * ||M||_F, the cut of ``classify_structure``.

    Judged on M 2**-e from ``_entry_scaled``, so no norm under- or overflows.
    """
    return M.shape[0] == M.shape[1] and _hermitian(_entry_scaled(M)[0], tol)


def _hermitian(M: np.ndarray, tol: float) -> bool:
    """``is_hermitian`` for a matrix already scaled by a power of two."""
    return frob(M - M.conj().T) <= tol * frob(M)


def hermitian_eig(M: np.ndarray, tol: float = DEFAULT_TOL):
    """Eigendecomposition M = U diag(w) U* for a Hermitian matrix.

    Returns ``(w, U)`` with ``w`` real ascending and ``U`` unitary.  The
    input is symmetrized before the call so the reconstruction residual
    is governed only by LAPACK accuracy.
    """
    require_square(M)
    if not is_hermitian(M, tol):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    return _lapack(np.linalg.eigh, (M + M.conj().T) / 2.0)


def svd(M: np.ndarray):
    """Singular value decomposition ``M = W @ diag(s) @ X.conj().T``.

    ``s`` is descending and non-negative; ``W`` and ``X`` are unitary
    (square, full matrices).
    """
    W, s, Xh = _lapack(np.linalg.svd, M, full_matrices=True)
    return W, s, Xh.conj().T


def singular_values(M: np.ndarray) -> np.ndarray:
    """Singular values of M, descending, without the singular vectors."""
    return _lapack(np.linalg.svd, M, compute_uv=False)


@dataclass
class PolarParts:
    """Polar decomposition artifacts of a square matrix C.

    ``V @ absC == C`` with ``absC = (C*C)^(1/2)`` Hermitian PSD and ``V`` a
    partial isometry whose initial space is the range of ``absC``.  ``P``
    projects onto that range, ``Q = I - P`` onto the kernel, and ``rank``
    counts the singular values retained by the relative cutoff.
    """

    V: np.ndarray
    absC: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    rank: int


def polar(C: np.ndarray, tol: float = DEFAULT_TOL) -> PolarParts:
    """Polar decomposition C = V |C| via the SVD.

    Singular values at or below ``tol * s_max`` are treated as zero, which
    fixes the numerical rank and hence the partial isometry's support.
    """
    require_square(C)
    n = C.shape[0]
    W, s, X = svd(C)
    absC = (X * s) @ X.conj().T
    cutoff = tol * (s[0] if s.size else 0.0)
    keep = s > cutoff
    rank = int(np.count_nonzero(keep))
    V = (W * keep.astype(np.complex128)) @ X.conj().T
    P = V.conj().T @ V
    Q = np.eye(n, dtype=np.complex128) - P
    return PolarParts(V=V, absC=absC, P=P, Q=Q, rank=rank)


# ---------------------------------------------------------------------------
# JSON encoding shared by every module and the CLI:
#   {"rows": n, "cols": m, "data": [[re, im], ...]}  row-major
# ---------------------------------------------------------------------------


def complex_to_json(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _finite_number(x) -> bool:
    """A JSON number, not a bool, that converts to a finite double."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the double range
        return False


def complex_from_json(obj) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2 or not all(map(_finite_number, obj)):
        raise InvalidParameter(f"expected [re, im] pair, got {obj!r}")
    return complex(obj[0], obj[1])


def matrix_to_json(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=np.complex128)
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "data": [complex_to_json(z) for z in M.ravel(order="C")],
    }


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise InvalidParameter("matrix JSON must be an object")
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        data = obj["data"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameter(f"malformed matrix JSON: {exc}") from exc
    if rows < 1 or cols < 1:
        raise InvalidParameter("matrix dimensions must be positive")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise InvalidParameter(
            f"matrix data must hold {rows * cols} entries, got {len(data) if isinstance(data, list) else type(data)}"
        )
    flat = [complex_from_json(entry) for entry in data]
    return np.array(flat, dtype=np.complex128).reshape(rows, cols)


def _to_json(value):
    """JSON-ready form of a report value.

    Dataclasses become objects of their fields in declaration order,
    arrays become matrix JSON, complex scalars ``[re, im]``, and lists,
    tuples and dicts are encoded element by element; anything else is
    already JSON and passes through unchanged.
    """
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return matrix_to_json(value)
    if isinstance(value, complex):
        return complex_to_json(value)
    if isinstance(value, dict):
        return {key: _to_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_json(item) for item in value]
    return value


class _JsonReport:
    """Base of every serializable dataclass in the package."""

    def to_json(self) -> dict:
        return _to_json(self)


@dataclass
class StructureFlags(_JsonReport):
    """Structural predicates of a square matrix at a given tolerance."""

    hermitian: bool
    positive_semidefinite: bool
    positive_definite: bool
    unitary: bool
    invertible: bool
    quasi_nilpotent: bool
    tolerance_used: float


def classify_structure(M: np.ndarray, tol: float = DEFAULT_TOL) -> StructureFlags:
    """Evaluate the structural predicates used by the classification rules.

    M is scaled by a power of two first, so no norm overflows.  Unitarity
    compares M*M against I through the singular values, invertibility is
    smallest-singular > tol * largest; the rest is ``_flags_and_witnesses``.
    """
    require_square(M)
    s = singular_values(M)
    return _flags_and_witnesses(_scaled(M, s), s, tol)[0]


def _invertible(s: np.ndarray, tol: float) -> bool:
    """Whether the smallest of the singular values ``s`` exceeds tol times the largest."""
    return bool(s.size and s[-1] > tol * s[0])


def _scaled(M: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, int, float]:
    """(M 2**-e, e, ||M 2**-e||_2) for the even e that puts the spectral norm
    s[0] of M in [1/4, 1), or e = 0 for M = 0.

    The scaling is exact, and eigvals is bitwise scale-equivariant under even
    powers of two, so the eigenvalues of a scaled Hermitian factor scale back.
    """
    e = math.frexp(s[0])[1]
    e += e % 2
    scaled = np.ldexp(np.ascontiguousarray(M, dtype=np.complex128).view(np.float64), -e).view(np.complex128)
    return scaled, e, math.ldexp(s[0], -e)


def _entry_scaled(M: np.ndarray) -> tuple[np.ndarray, int]:
    """(M 2**-e, e) with no SVD, for the e that puts the largest real or
    imaginary part of M in [1/2, 1), or e = 0 for M = 0.  e is at least
    -1021, that of the smallest normal double, so 2**-e stays finite."""
    parts = np.ascontiguousarray(M, dtype=np.complex128).view(np.float64)
    e = max(math.frexp(float(np.abs(parts).max()))[1], -1021)
    return np.ldexp(parts, -e).view(np.complex128), e


def _scaled_traces(X: np.ndarray, Y: np.ndarray, norm2_X: float, kmax: int):
    """(tr[Y X^k], its rounding bound) for k = 1, 2, ... up to kmax.

    Baby-step giant-step (Paterson and Stockmeyer, SIAM J. Comput. 1973),
    with m = ceil(sqrt(kmax)).  The baby steps P_j = X^j, j = 1..m, are
    formed one product at a time, and tr[Y P_j] is an O(n^2) inner product
    with the adjoint of Y.  Each giant step then takes D = Y X^k0, k0 = m,
    2m, ..., one product with P_m further, and its block of traces
    tr[D P_j] = vec(P_j) . vec(D^T), k = k0 + j, is one matrix-vector
    product.  A full sweep forms about 2 sqrt(kmax) n x n products instead
    of kmax.

    The bound is (k+1) n eps ||X||_F ||Y||_F ||X||_2^(k-1) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.5).  Take
    each product F G, and each inner product of F with G, to err by at most
    n eps ||F||_F ||G||_2 or n eps ||F||_2 ||G||_F.  Each product or inner
    product on the way to tr[Y X^k] then moves it by at most n eps ||X||_F
    ||Y||_F ||X||_2^(k-1), and there are k of them.  In the first block,
    P_k takes k - 1 products and its trace one.  In a giant block, P_j
    takes j - 1; P_m takes m - 1 and enters D k0/m times, k0 - k0/m in
    all; D takes k0/m products, Y P_m the first; and the block's inner
    product one: (j - 1) + (k0 - k0/m) + k0/m + 1 = k.

    The sequence ends where no later trace can clear its bound, so a
    nilpotent power stops instead of shrinking through the subnormal
    range: in the first block once ||P_k||_F ||Y||_F is at or below the
    bound of k, and before a giant block once ||D||_F ||X||_F is at or
    below the bound of k0 + 1.  |tr[D P_j]| <= ||D||_F ||X||_F
    ||X||_2^(j-1), ||D P_m||_F <= ||D||_F ||X||_2^m, and the bound grows
    by at least a factor ||X||_2 from one k to the next.
    """
    if kmax < 1:
        return
    n, m = X.shape[0], math.isqrt(kmax - 1) + 1
    f_X, f_Y = math.sqrt(np.vdot(X, X).real), math.sqrt(np.vdot(Y, Y).real)
    unit = n * np.finfo(np.float64).eps * f_X * f_Y
    baby, Y_h = np.empty((m, n, n), dtype=np.complex128), adjoint(Y)
    for k in range(1, m + 1):
        power = baby[k - 1]
        if k == 1:
            power[...] = X
        else:
            np.matmul(baby[k - 2], X, out=power)
        bound = (k + 1) * unit * norm2_X ** (k - 1)
        if math.sqrt(np.vdot(power, power).real) * f_Y <= bound:
            return
        yield complex(np.vdot(Y_h, power)), bound
    D = Y
    for k0 in range(m, kmax, m):
        D = D @ baby[m - 1]
        if math.sqrt(np.vdot(D, D).real) * f_X <= (k0 + 2) * unit * norm2_X ** k0:
            return
        block = baby[: min(m, kmax - k0)]
        for j, trace in enumerate(block.reshape(len(block), n * n) @ D.T.ravel(), start=k0 + 1):
            yield complex(trace), (j + 1) * unit * norm2_X ** (j - 1)


def _power_sum_witnesses(M: np.ndarray, norm2_bound: float, factors_frob: float = 0.0):
    """Yield (k, tr[(M / norm2_bound)^k]), for ||M||_2 <= norm2_bound, for each
    k whose power sum clears its bound and is no multiple of the gcd g of
    the k before it, up to g = 1; they force lambda^g = 1 as all witnesses do.

    M / norm2_bound has 2-norm at most 1, so nothing underflows at any n;
    the division's rounding fits the bound's spare term, as k <= n.  The
    rounding of M = F G, ||F||_F ||G||_F = factors_frob, moves tr[M^k] by
    up to factors_frob / ||M||_F times its bound, which widens by that."""
    if not norm2_bound:
        return
    X = M / norm2_bound
    f, widen, g = frob(X), factors_frob / norm2_bound, 0
    for k, (trace, bound) in enumerate(_scaled_traces(X, np.eye(M.shape[0]), 1.0, M.shape[0]), start=1):
        if abs(trace) * f > bound * (f + widen) and (not g or k % g):
            g = math.gcd(g, k)
            yield k, trace
            if g == 1:
                return


def _flags_and_witnesses(scaled: tuple, s: np.ndarray, tol: float, rotation: bool = False):
    """``classify_structure`` of a square matrix as ``_scaled`` returns it,
    whose singular values as given are ``s``, and, for ``rotation``, its
    ``_power_sum_witnesses`` (else []); a singular matrix is swept to its
    first witness at least, for nilpotency.  Hermitian is judged relative to
    ||M||_F; PSD and PD from the eigenvalues, relative to the largest."""
    M, _, norm2 = scaled
    invertible = _invertible(s, tol)
    sweep = _power_sum_witnesses(M, norm2) if rotation or not invertible else iter(())
    witnesses = list(sweep if rotation else itertools.islice(sweep, 1))
    hermitian = _hermitian(M, tol)
    w = eigenvalues(M).real if hermitian else np.zeros(1)
    cut = tol * np.abs(w).max()
    # ||M*M - I||_F = ||s^2 - 1||_2, with no product that squares the entries
    unitary = bool(s[0] <= 2.0 and np.linalg.norm((s - 1.0) * (s + 1.0)) <= tol)
    flags = StructureFlags(
        hermitian=hermitian,
        positive_semidefinite=hermitian and bool(w.min() >= -cut),
        positive_definite=hermitian and bool(w.min() > cut),
        unitary=unitary,
        invertible=invertible,
        quasi_nilpotent=not invertible and not witnesses,
        tolerance_used=tol,
    )
    return flags, witnesses if rotation else []
