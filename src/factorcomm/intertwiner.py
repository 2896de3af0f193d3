"""Commutation up to a unitary factor for self-adjoint pairs.

For Hermitian A, B with AB^2A = BA^2B the product AB is normal and a
unitary U with AB = U BA exists; it is built from the polar decomposition
AB = V|AB| as U = V^2 + Q, where Q projects onto ker(AB).  The module also
checks the Gudder-Nagy equivalence AB^2A = BA^2B  <=>  (AB^2 = B^2A and
BA^2 = A^2B) as an executable property.
"""

from dataclasses import dataclass

import numpy as np

from .commutation import OperatorPair
from .errors import ConditionFailed, DimensionMismatch, NotHermitian, VerificationFailed
from .linalg import DEFAULT_TOL, _JsonReport, _entry_scaled, _hermitian, frob, polar


@dataclass
class UnitaryIntertwiner(_JsonReport):
    """The constructed unitary together with its polar ingredients.

    ``U = V^2 + Q`` acts as V^2 on the closure of the range of |AB| and as
    the identity on the kernel; ``P + Q = I``.  U is not unique (any
    unitary agreeing with V^2 on the range projection works); this is the
    canonical identity-on-kernel choice, and ``verify_intertwiner``
    accepts any other valid choice.
    """

    U: np.ndarray
    V: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    residual_intertwine: float
    residual_unitary: float


@dataclass
class GudderNagyReport(_JsonReport):
    """Both sides of the equivalence, evaluated independently."""

    lhs_holds: bool  # AB^2A = BA^2B
    rhs_holds: bool  # AB^2 = B^2A and BA^2 = A^2B
    consistent: bool
    lhs_magnitude: float
    rhs_magnitude_ab: float
    rhs_magnitude_ba: float


def _scaled_pair(pair: OperatorPair, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float, float]:
    """(A, B, AB, BA, ||A||_F, ||B||_F) for A 2**-a and B 2**-b from
    ``_entry_scaled``, both checked Hermitian as ``is_hermitian`` checks
    them.  A gap between products of degree j in A and k in B is judged
    against tol ||A||_F^j ||B||_F^k, as ``detect_factor`` judges a zero
    product, so a product that is zero up to rounding reads as zero."""
    (A, _), (B, _) = _entry_scaled(pair.A), _entry_scaled(pair.B)
    for name, M in (("A", A), ("B", B)):
        if not _hermitian(M, tol):
            raise NotHermitian(f"{name} is not Hermitian within tolerance")
    return A, B, A @ B, B @ A, frob(A), frob(B)


def _gap(X: np.ndarray, Y: np.ndarray, scale: float) -> float:
    """||X - Y||_F / scale; 0 for scale = 0, where a factor is 0 and so are
    X and Y."""
    return frob(X - Y) / scale if scale else 0.0


def check_norm_condition(pair: OperatorPair, tol: float = DEFAULT_TOL) -> bool:
    """True iff AB^2A = BA^2B within tolerance (Hermitian pair required).

    The condition is algebraically equivalent to |AB| = |BA|; the polar
    route is evaluated as well and a gross disagreement between the two
    raises, since that would indicate a numerics bug rather than a
    property of the input.  The guard bands are wide because the matrix
    square root halves the number of accurate digits near the boundary.
    """
    _, _, AB, BA, a, b = _scaled_pair(pair, tol)
    mag = _gap(AB @ BA, BA @ AB, (a * b) ** 2)
    ok = mag <= tol

    polar_gap = _gap(polar(AB, tol).absC, polar(BA, tol).absC, a * b)
    sqrt_tol = float(np.sqrt(max(tol, 1e-15)))
    if ok and polar_gap > 10.0 * sqrt_tol:
        raise VerificationFailed(
            f"AB^2A = BA^2B holds ({mag:.3e}) but |AB| differs from |BA| ({polar_gap:.3e})"
        )
    if not ok and mag > sqrt_tol and polar_gap <= tol:
        raise VerificationFailed(
            f"AB^2A != BA^2B ({mag:.3e}) but |AB| matches |BA| ({polar_gap:.3e})"
        )
    return ok


def gudder_nagy_check(pair: OperatorPair, tol: float = DEFAULT_TOL) -> GudderNagyReport:
    """Evaluate AB^2A = BA^2B against (AB^2 = B^2A and BA^2 = A^2B).

    The two sides are equivalent for Hermitian pairs; ``consistent``
    asserts exactly that and must hold for every valid input.  AB^2 and
    B^2A are taken as (AB)B and B(BA), BA^2 and A^2B as (BA)A and A(AB).
    """
    A, B, AB, BA, a, b = _scaled_pair(pair, tol)
    lhs_mag = _gap(AB @ BA, BA @ AB, (a * b) ** 2)
    mag_ab = _gap(AB @ B, B @ BA, a * b * b)
    mag_ba = _gap(BA @ A, A @ AB, a * a * b)
    lhs_holds = bool(lhs_mag <= tol)
    rhs_holds = bool(mag_ab <= tol and mag_ba <= tol)
    return GudderNagyReport(
        lhs_holds=lhs_holds,
        rhs_holds=rhs_holds,
        consistent=lhs_holds == rhs_holds,
        lhs_magnitude=lhs_mag,
        rhs_magnitude_ab=mag_ab,
        rhs_magnitude_ba=mag_ba,
    )


def construct_intertwiner(pair: OperatorPair, tol: float = DEFAULT_TOL) -> UnitaryIntertwiner:
    """Build the unitary U with AB = U BA from the polar parts of AB.

    Requires a Hermitian pair satisfying the norm condition.  With
    AB = V|AB| and Q the kernel projection, U = V^2 + Q is unitary and
    intertwines the two products; both facts are verified and a failure
    raises VerificationFailed because the construction is guaranteed to
    succeed when the precondition holds (a failure signals a rank-cutoff
    misclassification, not a property of the input).  V, P and Q do not
    depend on the scale of AB, so they come from the scaled product;
    ``residual_intertwine`` is ||AB - U BA||_F / (||A||_F ||B||_F).
    """
    _, _, AB, BA, a, b = _scaled_pair(pair, tol)
    mag = _gap(AB @ BA, BA @ AB, (a * b) ** 2)
    if mag > tol:
        raise ConditionFailed(f"AB^2A != BA^2B (relative magnitude {mag:.3e})")

    parts = polar(AB, tol)
    U = parts.V @ parts.V + parts.Q

    residual_unitary = frob(U.conj().T @ U - np.eye(pair.dim))
    residual_intertwine = _gap(AB, U @ BA, a * b)
    if residual_unitary > tol or residual_intertwine > 10.0 * tol:
        raise VerificationFailed(
            f"intertwiner residuals too large: unitary {residual_unitary:.3e}, "
            f"intertwine {residual_intertwine:.3e}"
        )
    return UnitaryIntertwiner(
        U=U,
        V=parts.V,
        P=parts.P,
        Q=parts.Q,
        residual_intertwine=residual_intertwine,
        residual_unitary=residual_unitary,
    )


def verify_intertwiner(pair: OperatorPair, U: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff U is unitary and AB = U BA, both within tolerance, the
    second relative to ||A||_F ||B||_F on A and B scaled by ``_entry_scaled``."""
    U = np.asarray(U, dtype=np.complex128)
    if U.shape != pair.A.shape:
        raise DimensionMismatch(f"U has shape {U.shape}, expected {pair.A.shape}")
    (A, _), (B, _) = _entry_scaled(pair.A), _entry_scaled(pair.B)
    unitary_ok = frob(U.conj().T @ U - np.eye(pair.dim)) <= tol
    intertwine_ok = _gap(A @ B, U @ (B @ A), frob(A) * frob(B)) <= tol
    return bool(unitary_ok and intertwine_ok)
