"""Ready-made operator pairs with known commutation factors.

Construction families: clock/shift pairs of unitaries (factor a root of
unity), cyclic shift against a power diagonal, a rank-one nilpotent
against a diagonal (realizes every nonzero factor), lower-triangular
Jordan-type pairs in dimension 2 and 3, the two Pauli examples, and the
(n+1)-dimensional irreducible representation matrices of the q-deformed
sl2 enveloping algebra with their defining relations.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .commutation import FactorReport, OperatorPair, detect_factor
from .errors import InvalidParameter
from .linalg import DEFAULT_TOL, _JsonReport, frob

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

CLOCK_SHIFT = "clock-shift"
CYCLIC_SHIFT_DIAG = "cyclic-shift-diag"
NILPOTENT_DIAG = "nilpotent-diag"
JORDAN2 = "jordan2"
JORDAN3 = "jordan3"
PAULI_XY = "pauli-xy"
PAULI_INTERTWINER = "pauli-intertwiner"
UQ_SL2 = "uq-sl2"

KINDS = (
    CLOCK_SHIFT,
    CYCLIC_SHIFT_DIAG,
    NILPOTENT_DIAG,
    JORDAN2,
    JORDAN3,
    PAULI_XY,
    PAULI_INTERTWINER,
    UQ_SL2,
)


def _cyclic_shift(n: int) -> np.ndarray:
    """Permutation matrix sending e_j to e_{j-1 mod n}."""
    A = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        A[(j - 1) % n, j] = 1.0
    return A


def clock_shift_pair(n: int) -> OperatorPair:
    """Cyclic shift against the diagonal of n-th roots of unity.

    Both factors are unitary and AB = omega * BA with omega = exp(2 pi i / n);
    for n = 2 this is the (sigma_x, sigma_z) pair.
    """
    if n < 2:
        raise InvalidParameter("clock-shift needs n >= 2")
    omega = np.exp(2j * np.pi / n)
    B = np.diag(np.exp(2j * np.pi * np.arange(n) / n)).astype(np.complex128)
    return OperatorPair(
        A=_cyclic_shift(n),
        B=B,
        declared_lambda=complex(omega),
        label=f"clock-shift(n={n})",
    )


def cyclic_shift_diag_pair(N: int, lam: complex, tol: float = DEFAULT_TOL) -> OperatorPair:
    """Cyclic shift against diag(lam^0 .. lam^(N-1)).

    The wrap-around index forces lam^N = 1; for other factors use the
    nilpotent-diag construction, which realizes any nonzero lambda.
    """
    if N < 2:
        raise InvalidParameter("cyclic-shift-diag needs N >= 2")
    lam = complex(lam)
    if abs(lam**N - 1.0) > tol:
        raise InvalidParameter(
            f"lambda^N != 1 (|lambda^{N} - 1| = {abs(lam ** N - 1.0):.3e}); "
            "use nilpotent-diag for arbitrary factors"
        )
    B = np.diag(lam ** np.arange(N)).astype(np.complex128)
    return OperatorPair(
        A=_cyclic_shift(N),
        B=B,
        declared_lambda=lam,
        label=f"cyclic-shift-diag(N={N}, lambda={lam:.6g})",
    )


def nilpotent_diag_pair(
    betas: Sequence[complex],
    pivot: int,
    lam: complex,
    tol: float = DEFAULT_TOL,
    solve_pivot: bool = False,
) -> OperatorPair:
    """Rank-one nilpotent A against B = diag(betas).

    A sends e_pivot to e_{pivot-1} and kills every other basis vector, so
    AB = lambda * BA holds exactly when betas[pivot] = lambda *
    betas[pivot-1]; with ``solve_pivot`` the pivot entry is overwritten to
    enforce that.  Works for every nonzero lambda, including non-unit
    modulus, and AB is nilpotent.
    """
    beta = np.asarray(list(betas), dtype=np.complex128)
    lam = complex(lam)
    if beta.size < 2:
        raise InvalidParameter("need at least two diagonal entries")
    if not (1 <= pivot < beta.size):
        raise InvalidParameter(f"pivot must lie in [1, {beta.size - 1}], got {pivot}")
    if lam == 0:
        raise InvalidParameter("lambda must be nonzero")
    if solve_pivot:
        beta = beta.copy()
        beta[pivot] = lam * beta[pivot - 1]
    elif abs(beta[pivot] - lam * beta[pivot - 1]) > tol * max(1.0, abs(beta[pivot])):
        raise InvalidParameter(
            f"betas[{pivot}] = {beta[pivot]:.6g} != lambda * betas[{pivot - 1}] "
            f"= {lam * beta[pivot - 1]:.6g}"
        )
    n = beta.size
    A = np.zeros((n, n), dtype=np.complex128)
    A[pivot - 1, pivot] = 1.0
    return OperatorPair(
        A=A,
        B=np.diag(beta),
        declared_lambda=lam,
        label=f"nilpotent-diag(n={n}, pivot={pivot}, lambda={lam:.6g})",
    )


def jordan_pair(dim: int, x: complex, y: complex, z: complex = 0.0, lam: complex = 1.0) -> OperatorPair:
    """Lower-triangular A against the lower shift B, AB = lambda * BA exactly.

    dim 2:  B = [[0,0],[1,0]],          A = [[x,0],[y,lx]]
    dim 3:  B = lower shift,            A = [[x,0,0],[y,lx,0],[z,ly,l^2 x]]

    A is invertible iff lambda * x != 0; the relation holds regardless.
    """
    lam = complex(lam)
    if lam == 0:
        raise InvalidParameter("lambda must be nonzero")
    if dim == 2:
        B = np.array([[0, 0], [1, 0]], dtype=np.complex128)
        A = np.array([[x, 0], [y, lam * x]], dtype=np.complex128)
    elif dim == 3:
        B = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=np.complex128)
        A = np.array(
            [[x, 0, 0], [y, lam * x, 0], [z, lam * y, lam**2 * x]],
            dtype=np.complex128,
        )
    else:
        raise InvalidParameter("jordan pairs exist for dim 2 and 3 only")
    return OperatorPair(
        A=A, B=B, declared_lambda=lam, label=f"jordan{dim}(lambda={lam:.6g})"
    )


def pauli_pair(kind: str = PAULI_XY) -> OperatorPair:
    """The two Pauli-built examples.

    ``pauli-xy``: (sigma_x, sigma_y), which anticommute (lambda = -1).
    ``pauli-intertwiner``: (sigma_x, (sigma_x + sigma_y)/sqrt(2)); no
    scalar factor exists, but the pair commutes up to the unitary
    i*sigma_z.
    """
    if kind == PAULI_XY:
        return OperatorPair(
            A=PAULI_X, B=PAULI_Y, declared_lambda=-1.0 + 0.0j, label="pauli-xy"
        )
    if kind == PAULI_INTERTWINER:
        return OperatorPair(
            A=PAULI_X,
            B=(PAULI_X + PAULI_Y) / np.sqrt(2.0),
            declared_lambda=None,
            label="pauli-intertwiner",
        )
    raise InvalidParameter(f"unknown pauli pair kind {kind!r}")


def q_bracket(m: int, q: complex) -> complex:
    """q-deformed integer [m] = (q^m - q^-m) / (q - q^-1).

    Evaluated via the equivalent power sum q^(m-1) + q^(m-3) + ... +
    q^(-m+1), which avoids cancellation when q is near a unit; [-m] = -[m].
    """
    q = complex(q)
    if q == 0 or q * q == 1:
        raise InvalidParameter("q must satisfy q != 0 and q^2 != 1")
    if m < 0:
        return -q_bracket(-m, q)
    return complex(sum(q ** (m - 1 - 2 * k) for k in range(m)))


@dataclass
class UqSl2Module(_JsonReport):
    """Generator matrices of the simple (n+1)-dimensional representation.

    E is strictly upper bidiagonal, F strictly lower bidiagonal, K
    diagonal; the sign eps = +-1 multiplies E and K.
    """

    n: int
    q: complex
    eps: int
    E: np.ndarray
    F: np.ndarray
    K: np.ndarray
    Kinv: np.ndarray


@dataclass
class RelationResiduals(_JsonReport):
    """Relative residuals of the four defining relations, plus the
    factor-detection view of the K-E and K-F exchange rules."""

    kk_inv: float
    ke_rel: float
    kf_rel: float
    ef_rel: float
    ke_factor: FactorReport
    kf_factor: FactorReport


JANTZEN = "jantzen"
BRACKET_LADDER = "bracket-ladder"


def uq_sl2_module(n: int, q: complex, eps: int = 1, form: str = JANTZEN) -> UqSl2Module:
    """Build E, F, K, K^-1 for the (n+1)-dimensional simple module.

    K = eps * diag(q^n, q^(n-2), ..., q^-n) in both normalizations;
    K^-1 is the exact entrywise diagonal inverse.

    form "jantzen" (default): F has a unit subdiagonal and E carries the
    bracket products, E[i, i+1] = eps * [i+1][n-i].  For n = 2 this is
    exactly the Jantzen triple (superdiag (q+q^-1, q+q^-1), subdiag
    (1, 1), K = diag(q^2, 1, q^-2)), and (K, F) coincides entrywise with
    the 3x3 jordan pair at x = q^2, y = z = 0, lambda = q^-2.

    form "bracket-ladder": the isomorphic realization with
    E = eps * superdiag([n], [n-1], ..., [1]) and
    F = subdiag([1], [2], ..., [n]).

    Both satisfy the same defining relations; they differ by a diagonal
    change of basis.
    """
    q = complex(q)
    if n < 0:
        raise InvalidParameter("n must be non-negative")
    if q == 0 or q * q == 1:
        raise InvalidParameter("q must satisfy q != 0 and q^2 != 1")
    if eps not in (1, -1):
        raise InvalidParameter("eps must be +1 or -1")
    if form not in (JANTZEN, BRACKET_LADDER):
        raise InvalidParameter(f"unknown module form {form!r}")
    dim = n + 1
    E = np.zeros((dim, dim), dtype=np.complex128)
    F = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(n):
        if form == JANTZEN:
            E[i, i + 1] = eps * q_bracket(i + 1, q) * q_bracket(n - i, q)
            F[i + 1, i] = 1.0
        else:
            E[i, i + 1] = eps * q_bracket(n - i, q)
            F[i + 1, i] = q_bracket(i + 1, q)
    kdiag = np.array([eps * q ** (n - 2 * i) for i in range(dim)], dtype=np.complex128)
    return UqSl2Module(
        n=n, q=q, eps=eps, E=E, F=F, K=np.diag(kdiag), Kinv=np.diag(1.0 / kdiag)
    )


def verify_uq_relations(mod: UqSl2Module, tol: float = DEFAULT_TOL) -> RelationResiduals:
    """Relative residuals of the defining relations of the module.

    KK^-1 = I, K E K^-1 = q^2 E, K F K^-1 = q^-2 F and
    EF - FE = (K - K^-1)/(q - q^-1), each normalized by max(1, target
    scale).  The exchange rules are also run through the factor detector,
    which must find q^2 for (K, E) and q^-2 for (K, F).
    """
    E, F, K, Kinv, q = mod.E, mod.F, mod.K, mod.Kinv, mod.q
    eye = np.eye(mod.n + 1, dtype=np.complex128)
    kk_inv = frob(K @ Kinv - eye) / max(1.0, frob(eye))
    ke_target = q**2 * E
    kf_target = q**-2 * F
    ef_target = (K - Kinv) / (q - 1.0 / q)
    ke_rel = frob(K @ E @ Kinv - ke_target) / max(1.0, frob(ke_target))
    kf_rel = frob(K @ F @ Kinv - kf_target) / max(1.0, frob(kf_target))
    ef_rel = frob(E @ F - F @ E - ef_target) / max(1.0, frob(ef_target))
    ke_factor = detect_factor(OperatorPair(A=K, B=E, label="(K,E)"), tol)
    kf_factor = detect_factor(OperatorPair(A=K, B=F, label="(K,F)"), tol)
    return RelationResiduals(
        kk_inv=kk_inv,
        ke_rel=ke_rel,
        kf_rel=kf_rel,
        ef_rel=ef_rel,
        ke_factor=ke_factor,
        kf_factor=kf_factor,
    )


def uq_sl2_pair(n: int, q: complex, eps: int = 1) -> OperatorPair:
    """The (K, F) generators as an operator pair: K F = q^-2 F K."""
    mod = uq_sl2_module(n, q, eps)
    return OperatorPair(
        A=mod.K,
        B=mod.F,
        declared_lambda=complex(q) ** -2,
        label=f"uq-sl2(n={n}, q={complex(q):.6g}, eps={eps}) (K,F)",
    )


@dataclass
class RealizationSpec(_JsonReport):
    """A serializable recipe: construction kind plus its parameters."""

    kind: str
    params: dict


def build_realization(spec: RealizationSpec) -> OperatorPair:
    """Dispatch a RealizationSpec to its constructor."""
    kind, p = spec.kind, spec.params
    try:
        if kind == CLOCK_SHIFT:
            return clock_shift_pair(int(p["n"]))
        if kind == CYCLIC_SHIFT_DIAG:
            return cyclic_shift_diag_pair(int(p["n"]), p["lambda"])
        if kind == NILPOTENT_DIAG:
            return nilpotent_diag_pair(
                p["betas"], int(p["pivot"]), p["lambda"], solve_pivot=bool(p.get("solve_pivot", False))
            )
        if kind == JORDAN2:
            return jordan_pair(2, p.get("x", 1.0), p.get("y", 0.0), 0.0, p["lambda"])
        if kind == JORDAN3:
            return jordan_pair(3, p.get("x", 1.0), p.get("y", 0.0), p.get("z", 0.0), p["lambda"])
        if kind == PAULI_XY:
            return pauli_pair(PAULI_XY)
        if kind == PAULI_INTERTWINER:
            return pauli_pair(PAULI_INTERTWINER)
        if kind == UQ_SL2:
            return uq_sl2_pair(int(p["n"]), p["q"], int(p.get("eps", 1)))
    except KeyError as exc:
        raise InvalidParameter(f"realization kind {kind!r} needs parameter {exc.args[0]!r}") from None
    raise InvalidParameter(f"unknown realization kind {kind!r}; known: {', '.join(KINDS)}")


def builtin_pairs() -> list[OperatorPair]:
    """The standard catalogue used by the property suite and the CLI."""
    pairs = [clock_shift_pair(n) for n in range(2, 7)]
    pairs += [
        cyclic_shift_diag_pair(6, np.exp(2j * np.pi / 6)),
        cyclic_shift_diag_pair(4, -1.0),
        nilpotent_diag_pair([1.0, 3.0], 1, 3.0),
        nilpotent_diag_pair([3.0, 1.0], 1, 1.0 / 3.0),
        nilpotent_diag_pair([1.0, 1j, 2.0], 1, 1j),
        jordan_pair(2, 1.0, 2.0, 0.0, 5.0),
        jordan_pair(2, 1.0 + 0.5j, -0.25j, 0.0, 2j),
        jordan_pair(3, 1.5, -0.5, 0.75, 0.5),
        pauli_pair(PAULI_XY),
        pauli_pair(PAULI_INTERTWINER),
        uq_sl2_pair(1, 2.0),
        uq_sl2_pair(2, 2.0),
        uq_sl2_pair(2, 1.3 * np.exp(0.7j), eps=-1),
    ]
    return pairs
