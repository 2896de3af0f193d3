"""Resolvents, spectral projections, and the smoothed-resolvent route.

The spectral projection onto an interval J = [a, b] is recovered as the
eps -> 0 limit of (1 / 2 pi i) * integral over J of R(t + i eps) -
R(t - i eps) dt, evaluated by composite quadrature.  For Hermitian A the
quadrature sum is diagonal in A's eigenbasis, a Poisson-kernel sum per
eigenvalue, so one eigendecomposition gives both the sum and the exact
projection it is compared with.  The transported-integrand bound makes
the smallness estimate behind the positive-factor argument an assertable
inequality.  Weak and norm convergence agree in finite dimension, so all
limits here are plain norm limits.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    EndpointOnSpectrum,
    InvalidParameter,
    NotHermitian,
    SpectrumHit,
    VerificationFailed,
)
from .linalg import (
    DEFAULT_TOL,
    _JsonReport,
    _lapack,
    as_matrix,
    eigenvalues,
    frob,
    hermitian_eig,
    is_hermitian,
    require_square,
)

TRAPEZOID = "trapezoid"
GAUSS_LEGENDRE = "gauss-legendre"


def resolvent(A: np.ndarray, w: complex, tol: float = DEFAULT_TOL) -> np.ndarray:
    """(A - wI)^-1 by LU solve with partial pivoting.

    Rejects points within tol * max(1, ||A||_F) of the spectrum.
    """
    A = as_matrix(A)
    require_square(A)
    w = complex(w)
    dist = float(np.abs(eigenvalues(A) - w).min())
    if dist <= tol * max(1.0, frob(A)):
        raise SpectrumHit(f"{w:.6g} is within {dist:.3e} of the spectrum")
    n = A.shape[0]
    return np.linalg.solve(A - w * np.eye(n), np.eye(n, dtype=np.complex128))


def resolvent_norm_check(A: np.ndarray, w: complex, tol: float = DEFAULT_TOL) -> bool:
    """For Hermitian A: ||(A - w)^-1||_2 must equal 1 / dist(w, sigma(A)).

    Equality is exact for normal operators; the check is relative to
    max(1, 1/dist).
    """
    A = as_matrix(A)
    if not is_hermitian(A, tol):
        raise NotHermitian("resolvent norm equality requires a Hermitian matrix")
    w = complex(w)
    eigs = _lapack(np.linalg.eigvalsh, (A + A.conj().T) / 2.0)
    dist = float(np.abs(eigs - w).min())
    if dist <= tol * max(1.0, frob(A)):
        raise SpectrumHit(f"{w:.6g} is within {dist:.3e} of the spectrum")
    R = np.linalg.solve(A - w * np.eye(A.shape[0]), np.eye(A.shape[0], dtype=np.complex128))
    norm = float(np.linalg.norm(R, 2))
    return abs(norm - 1.0 / dist) <= tol * max(1.0, 1.0 / dist)


def exact_projection(
    A: np.ndarray, interval: tuple[float, float], tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Spectral projection onto the eigenvalues inside (a, b), by
    eigendecomposition.  Serves as the oracle for the quadrature route."""
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise InvalidParameter(f"need a < b, got [{a}, {b}]")
    w, U = hermitian_eig(A, tol)
    return _projection_from_eig(w, U, a, b, tol * max(1.0, frob(A)))


def _projection_from_eig(w: np.ndarray, U: np.ndarray, a: float, b: float, guard: float) -> np.ndarray:
    """``exact_projection`` from a known ``hermitian_eig`` pair (w, U)."""
    if np.any(np.abs(w - a) <= guard) or np.any(np.abs(w - b) <= guard):
        raise EndpointOnSpectrum(f"an eigenvalue lies on an endpoint of [{a}, {b}]")
    cols = U[:, (w > a) & (w < b)]
    return cols @ cols.conj().T


@dataclass
class StoneQuadratureSpec:
    """Quadrature recipe for the smoothed-resolvent projection.

    ``nodes`` points of ``rule`` span the finite interval [a, b]; coarser
    rules give the error estimate (see ``stone_projection``).  ``epsilon``
    must be finite and positive.  Endpoints must stay at distance
    > 10 * epsilon from every eigenvalue; closer endpoints make the split
    ill-conditioned and are rejected.
    """

    interval: tuple[float, float]
    epsilon: float
    nodes: int
    rule: str = TRAPEZOID

    def __post_init__(self):
        a, b = map(float, self.interval)
        if not -np.inf < a < b < np.inf:  # also refuses nan
            raise InvalidParameter(f"need finite a < b, got [{a}, {b}]")
        if not 0.0 < self.epsilon < np.inf:  # also refuses nan
            raise InvalidParameter(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.nodes < 16:
            raise InvalidParameter("need at least 16 quadrature nodes")
        if self.rule not in (TRAPEZOID, GAUSS_LEGENDRE):
            raise InvalidParameter(f"unknown quadrature rule {self.rule!r}")


def default_node_count(interval: tuple[float, float], epsilon: float) -> int:
    """Node count giving spacing <= epsilon / 5; the integrand's derivative
    scales like 1/epsilon, so spacing must track epsilon."""
    length = float(interval[1]) - float(interval[0])
    return max(16, int(np.ceil(5.0 * length / epsilon)) + 1)


@dataclass
class ProjectionResult(_JsonReport):
    projection: np.ndarray
    epsilon_used: float
    quadrature_error_estimate: float
    exact_error: float | None


def _gauss_legendre(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1] in O(nodes^2).

    Newton's method on the three-term recurrence for P_N, from Tricomi's
    estimates (1 - (N - 1) / 8N^3) cos(pi (k - 1/4) / (N + 1/2)), on the
    nonnegative half only: the nodes are symmetric about 0, and for odd N
    the middle estimate is exactly 0, a root of P_N.  Every node must move
    by at most 4 ulp of 1 in the last step, within 100 steps, or the call
    raises ``ConvergenceFailure``.  The weights are 2 / ((1 - x^2) P_N'(x)^2),
    a form insensitive to rounding of the node.
    """
    theta = np.pi * (np.arange(1, (nodes + 1) // 2 + 1) - 0.25) / (nodes + 0.5)
    x = (1.0 - (nodes - 1) / (8.0 * nodes**3)) * np.cos(theta)
    for _ in range(100):
        p_prev, p = np.ones_like(x), x
        for j in range(1, nodes):
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        dp = nodes * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))
        step = p / dp
        x = x - step
        if np.all(np.abs(step) <= 4.0 * np.finfo(float).eps):  # False on nan
            break
    else:
        raise ConvergenceFailure(f"Gauss-Legendre nodes for N = {nodes} did not converge")
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp**2)
    odd = nodes % 2
    x, w = np.concatenate([-x, x[::-1][odd:]]), np.concatenate([w, w[::-1][odd:]])
    return x, w * (2.0 / w.sum())


def _quadrature_rules(spec: StoneQuadratureSpec):
    """Nodes t and a weight matrix with one row per rule: row 0 is the fine
    rule on ``spec.nodes`` points, the rows after it the coarse rules behind
    the error estimate.

    The trapezoid rule has three coarse rules, one per residue j = 0, 1, 2:
    the trapezoid rule on the fine nodes t_j, t_{j+3}, ..., closed by the
    end nodes t_0 and t_{N-1}.  They reuse the fine nodes, as the
    step-halving estimate of Romberg integration does.  Gauss-Legendre
    nodes do not nest, so its one coarse rule gets its own
    max(16, (N + 1) // 2) nodes after the fine ones.
    """
    a, b = map(float, spec.interval)
    N = spec.nodes
    if spec.rule == TRAPEZOID:
        t = np.linspace(a, b, N)
        half_h = (b - a) / (N - 1) / 2.0
        W = np.empty((4, N))
        subsets = [np.arange(N)] + [np.concatenate(([0], np.arange(j, N, 3), [N - 1])) for j in range(3)]
        for row, idx in zip(W, subsets):  # a repeated index makes a zero gap
            half_gaps = np.diff(idx) * half_h
            row[:] = np.bincount(idx[:-1], half_gaps, N) + np.bincount(idx[1:], half_gaps, N)
        return t, W
    (x, w), (x2, w2) = (_gauss_legendre(m) for m in (N, max(16, (N + 1) // 2)))
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    W = np.zeros((2, N + x2.size))
    W[0, :N], W[1, N:] = half * w, half * w2
    return mid + half * np.concatenate([x, x2]), W


def stone_projection(A: np.ndarray, spec: StoneQuadratureSpec, tol: float = DEFAULT_TOL) -> ProjectionResult:
    """Quadrature approximation of the spectral projection onto [a, b].

    The eps-smoothing replaces the indicator of the interval by its
    Poisson average, an O(eps) perturbation away from the endpoints; the
    quadrature error is estimated as the largest distance to a coarse rule.
    For the trapezoid rule those are three rules on every third fine node,
    one per offset, so the estimate costs no extra nodes.  Each eigenvalue
    sits at a different phase of the three coarse grids, and no phase hides
    the aliasing error from all three: an eigenvalue midway between two
    fine nodes, where a rule on every other node would agree with the fine
    one, is seen.  Gauss-Legendre adds a half-size grid of its own.
    ``exact_error`` compares against the eigendecomposition oracle.

    The sums are taken in the eigenbasis of the one ``hermitian_eig`` call,
    A = U diag(w) U*.  There R(t + i eps) - R(t - i eps) is U times the
    diagonal 2i eps / ((w - t)^2 + eps^2), so rule r's sum is U diag(f_r) U*
    with f_r(w_i) = sum_k W[r, k] (eps / pi) / ((w_i - t_k)^2 + eps^2), the
    rule applied to the Poisson kernel.  f is formed one eigenvalue at a
    time, so memory is O(nodes + n^2); U is unitary, so the distances
    between rules are those between the f_r.
    """
    A = as_matrix(A)
    if not is_hermitian(A, tol):
        raise NotHermitian("the projection route requires a Hermitian matrix")
    a, b = map(float, spec.interval)
    eigs, U = hermitian_eig(A, tol)
    delta = 10.0 * spec.epsilon
    if np.any(np.abs(eigs - a) <= delta) or np.any(np.abs(eigs - b) <= delta):
        raise EndpointOnSpectrum(
            f"endpoints of [{a}, {b}] must be at distance > {delta:.3e} from the spectrum"
        )
    exact = _projection_from_eig(eigs, U, a, b, tol * max(1.0, frob(A)))

    t, W = _quadrature_rules(spec)
    eps = spec.epsilon
    f = np.empty((W.shape[0], eigs.size))
    for i, w in enumerate(eigs):
        f[:, i] = W @ ((eps / np.pi) / ((w - t) ** 2 + eps**2))
    proj = (U * f[0]) @ U.conj().T

    return ProjectionResult(
        projection=proj,
        epsilon_used=eps,
        quadrature_error_estimate=float(np.linalg.norm(f[0] - f[1:], axis=1).max()),
        exact_error=frob(proj - exact),
    )


@dataclass
class TransportedBoundReport(_JsonReport):
    """Measured size of the factor-transported resolvent difference
    against its explicit bound 2 eps / (d^2 |lambda|^2).

    For a negative real factor the inequality is attained with equality,
    so ``holds`` compares with a one-ulp-scale rounding allowance.
    """

    gap_max: float  # max over nodes of || R((t+i eps)/lambda) - R((t-i eps)/lambda) ||_2
    integrand_max: float  # gap with the 1/|lambda| prefactor of the transported integrand
    bound: float
    min_distance: float
    epsilon: float
    holds: bool


def transported_integrand_bound(
    A: np.ndarray,
    lam: complex,
    interval: tuple[float, float],
    epsilon: float,
    nodes: int = 201,
    tol: float = DEFAULT_TOL,
) -> TransportedBoundReport:
    """Bound the transported integrand for a PSD matrix and a factor that
    is not a positive real.

    For lambda = -1 (or any factor off the positive half-axis) the points
    (t +- i eps)/lambda stay at distance d > 0 from the spectrum, so each
    resolvent has norm at most 1/d and the difference of the two, carrying
    the 1/lambda prefactor of the transported integral, is at most
    2 eps / (d^2 |lambda|^2).  Both the measured maximum over the nodes
    and the bound are reported; measured <= bound is asserted.  A
    non-finite lambda, epsilon or endpoint is refused as InvalidParameter.
    """
    A = as_matrix(A)
    if not is_hermitian(A, tol):
        raise NotHermitian("the bound requires a Hermitian matrix")
    lam = complex(lam)
    if lam == 0 or (lam.imag == 0 and lam.real > 0):
        raise InvalidParameter("lambda must be -1-like or non-real (not a positive real)")
    if not np.isfinite(lam):
        raise InvalidParameter(f"lambda must be finite, got {lam}")
    if not 0.0 < epsilon < np.inf:  # also refuses nan
        raise InvalidParameter(f"epsilon must be finite and positive, got {epsilon}")
    a, b = float(interval[0]), float(interval[1])
    if not 0 < a < b < np.inf:  # also refuses nan
        raise InvalidParameter(f"interval must lie in (0, inf), got [{a}, {b}]")
    eigs = _lapack(np.linalg.eigvalsh, (A + A.conj().T) / 2.0)
    if eigs.min() < -tol * max(1.0, frob(A)):
        raise InvalidParameter("matrix must be positive semidefinite")

    t = np.linspace(a, b, nodes)
    w_plus = (t + 1j * epsilon) / lam
    w_minus = (t - 1j * epsilon) / lam
    # Hermitian A: resolvent gaps reduce to scalar gaps over the eigenvalues.
    d_plus = np.abs(eigs[None, :] - w_plus[:, None])
    d_minus = np.abs(eigs[None, :] - w_minus[:, None])
    gaps = np.abs(1.0 / (eigs[None, :] - w_plus[:, None]) - 1.0 / (eigs[None, :] - w_minus[:, None]))
    gap_max = float(gaps.max(axis=1).max())
    d = float(min(d_plus.min(), d_minus.min()))
    if d <= 0:
        raise SpectrumHit("a transported node touches the spectrum")
    integrand_max = gap_max / abs(lam)
    bound = 2.0 * epsilon / (d * d * abs(lam) ** 2)
    holds = bool(integrand_max <= bound * (1.0 + 1e-12))
    if not holds:
        raise VerificationFailed(
            f"measured transported integrand {integrand_max:.3e} exceeds bound {bound:.3e}"
        )
    return TransportedBoundReport(
        gap_max=gap_max,
        integrand_max=integrand_max,
        bound=bound,
        min_distance=d,
        epsilon=epsilon,
        holds=holds,
    )
