"""Dense complex matrix arithmetic and decompositions.

Everything downstream works on plain ``numpy`` arrays of ``complex128``.
Matrices are treated as immutable values: every function returns fresh
arrays and never writes to its inputs.  Checks on a matrix or a pair
(structure flags, ``is_hermitian``, commutation, intertwiner) scale each
factor by a power of two and call x negligible at ``x <= tol * scale``, so
no verdict depends on the scale of the input.  Spectrum matching keeps
``tol * max(1, largest modulus)`` on the scaled spectra, and the resolvent
and realizations modules ``tol * max(1, scale)``: they compare against
absolute points and targets.

A singular matrix is nilpotent when no power sum tr[M^k], k = 1..n,
clears its rounding bound, and then has the spectrum {0} by decision, with
no eigenvalues computed.  m eigenvalues c w^j with c^m below about n eps
read as nilpotent.  PSD and PD are read from the general eigenvalues.
Power sums, like the traces tr[A B^k] of the trace rule, come from one
baby-step giant-step sweep: about 2 sqrt(n) matrix products for n powers.
"""

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


def eigenvalues(M: np.ndarray) -> np.ndarray:
    """All eigenvalues with algebraic multiplicity, deterministically ordered.

    Uses the dense general (non-symmetric) solver and sorts the result
    lexicographically by (real, imag) so repeated runs and reports are
    byte-stable.
    """
    require_square(M)
    try:
        vals = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(str(exc)) from exc
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
    w, U = np.linalg.eigh((M + M.conj().T) / 2.0)
    return w, U


def svd(M: np.ndarray):
    """Singular value decomposition ``M = W @ diag(s) @ X.conj().T``.

    ``s`` is descending and non-negative; ``W`` and ``X`` are unitary
    (square, full matrices).
    """
    try:
        W, s, Xh = np.linalg.svd(M, full_matrices=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(str(exc)) from exc
    return W, s, Xh.conj().T


def singular_values(M: np.ndarray) -> np.ndarray:
    """Singular values of M, descending, without the singular vectors."""
    try:
        return np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(str(exc)) from exc


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
    smallest-singular > tol * largest; the rest is ``_flags_and_spectrum``.
    """
    require_square(M)
    s = singular_values(M)
    return _flags_and_spectrum(_scaled(M, s), s, tol)[0]


def _scaled(M: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, int, float]:
    """(M 2**-e, e, ||M 2**-e||_2) for the even e that puts the spectral norm
    s[0] of M in [1/4, 1), or e = 0 for M = 0.

    The scaling is exact, and eigvals is bitwise scale-equivariant under even
    powers of two, so eigenvalues of the scaled factors and products scale back.
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


def _spectrum(M: np.ndarray, norm2_bound: float, singular: bool) -> tuple[bool, np.ndarray]:
    """(whether M is nilpotent, its eigenvalues), for ||M||_2 <= norm2_bound.

    M is nilpotent exactly when every power sum tr[M^k], k = 1..n, is 0
    (Newton's identities), so a singular M is decided nilpotent when none
    clears its rounding bound, and its spectrum is {0} by decision.
    """
    n = M.shape[0]
    if singular and not any(abs(p) > bound for p, bound in _scaled_traces(M, np.eye(n), norm2_bound, n)):
        return True, np.zeros(n, dtype=np.complex128)
    return False, eigenvalues(M)


def _flags_and_spectrum(scaled: tuple, s: np.ndarray, tol: float) -> tuple[StructureFlags, np.ndarray]:
    """``classify_structure`` and the eigenvalues of a square matrix as
    ``_scaled`` returns it, whose singular values as given are ``s``.

    Hermitian is judged relative to ||M||_F; PSD and PD from the real parts
    of the eigenvalues, relative to the largest.
    """
    M, _, norm2 = scaled
    invertible = bool(s.size and s[-1] > tol * s[0])
    nilpotent, eigs = _spectrum(M, norm2, not invertible)
    hermitian = _hermitian(M, tol)
    w = eigs.real
    cut = tol * np.abs(w).max()
    # ||M*M - I||_F = ||s^2 - 1||_2, with no product that squares the entries
    unitary = bool(s[0] <= 2.0 and np.linalg.norm((s - 1.0) * (s + 1.0)) <= tol)
    flags = StructureFlags(
        hermitian=hermitian,
        positive_semidefinite=hermitian and bool(w.min() >= -cut),
        positive_definite=hermitian and bool(w.min() > cut),
        unitary=unitary,
        invertible=invertible,
        quasi_nilpotent=nilpotent,
        tolerance_used=tol,
    )
    return flags, eigs
