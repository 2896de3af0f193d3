"""Dense complex matrix arithmetic and decompositions.

Everything downstream works on plain ``numpy`` arrays of ``complex128``.
Matrices are treated as immutable values: every function returns fresh
arrays and never writes to its inputs.  The intertwiner, resolvent and
realizations modules call a quantity "zero" when its Frobenius norm is at
most ``tol * max(1, scale)`` for the natural scale of the comparison; the
structure flags below and ``commutation.classify_pair`` use plain relative cuts.
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
    if M.shape[0] != M.shape[1]:
        return False
    return frob(M - M.conj().T) <= tol * max(1.0, frob(M))


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

    Hermitian and quasi-nilpotent checks are relative to ||M||_F, the
    semidefinite checks to the largest |eigenvalue|; unitarity compares
    M*M against I absolutely, through the singular values; invertibility
    uses the standard numerical-rank cutoff smallest-singular > tol * largest.
    """
    require_square(M)
    return _structure_flags(M, eigenvalues(M), singular_values(M), tol)


def _quasi_nilpotent(M: np.ndarray, eigs: np.ndarray, tol: float) -> bool:
    """Every eigenvalue of M (given as ``eigs``) within tol * ||M||_F of 0."""
    return bool(np.all(np.abs(eigs) <= tol * frob(M)))


def _structure_flags(M: np.ndarray, eigs: np.ndarray, s: np.ndarray, tol: float) -> StructureFlags:
    """``classify_structure`` for a square M whose eigenvalues ``eigs`` and
    singular values ``s`` (descending) are known.

    M and ``eigs`` may carry any power-of-two scale: every predicate but
    unitarity is scale-free.  ``s`` are the singular values of the matrix
    as given, since unitarity is not.
    """
    hermitian = frob(M - M.conj().T) <= tol * frob(M)
    psd = pd = False
    if hermitian:
        try:
            w = np.linalg.eigvalsh((M + M.conj().T) / 2.0)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(str(exc)) from exc
        cut = tol * np.abs(w).max()
        psd = bool(w.min() >= -cut)
        pd = bool(w.min() > cut)

    # ||M*M - I||_F = ||s^2 - 1||_2, with no product that squares the entries
    unitary = bool(s[0] <= 2.0 and np.linalg.norm((s - 1.0) * (s + 1.0)) <= tol)

    return StructureFlags(
        hermitian=hermitian,
        positive_semidefinite=psd,
        positive_definite=pd,
        unitary=unitary,
        invertible=bool(s.size and s[-1] > tol * s[0]),
        quasi_nilpotent=_quasi_nilpotent(M, eigs, tol),
        tolerance_used=tol,
    )

