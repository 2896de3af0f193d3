"""Factor detection and classification for relations AB = lambda * BA.

Given an operator pair, the detector fits the scalar factor by Frobenius
least squares; the classifier assembles every structural constraint on the
factor (reality, sign, modulus, roots of unity, spectrum rotation from
power sums, quasi-nilpotency of the product) and verifies the fitted
factor against each of them.  The eigenvalue matchers are oracles only.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NotNormal
from .linalg import (
    DEFAULT_TOL,
    StructureFlags,
    _JsonReport,
    _entry_scaled,
    _flags_and_witnesses,
    _invertible,
    _lapack,
    _power_sum_witnesses,
    _scaled,
    _scaled_traces,
    as_matrix,
    complex_from_json,
    eigenvalues,
    frob,
    matrix_from_json,
    require_square,
    singular_values,
)

UNIQUE = "UNIQUE"
ANY = "ANY"
NONE = "NONE"


@dataclass
class OperatorPair(_JsonReport):
    """A pair (A, B) of equal-dimension square matrices.

    ``declared_lambda`` records the factor the pair was built to satisfy,
    when known; detection never reads it.
    """

    A: np.ndarray
    B: np.ndarray
    declared_lambda: complex | None = None
    label: str = ""

    def __post_init__(self):
        self.A = as_matrix(self.A)
        self.B = as_matrix(self.B)
        require_square(self.A, "A")
        require_square(self.B, "B")
        if self.A.shape != self.B.shape:
            raise DimensionMismatch(
                f"A and B must have equal dimension, got {self.A.shape} and {self.B.shape}"
            )
        if self.declared_lambda is not None:
            self.declared_lambda = complex(self.declared_lambda)
            if self.declared_lambda == 0:
                raise InvalidParameter("a declared factor must be nonzero")

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def swapped(self) -> "OperatorPair":
        lam = self.declared_lambda
        return OperatorPair(
            A=self.B,
            B=self.A,
            declared_lambda=None if lam is None else 1.0 / lam,
            label=f"{self.label} (swapped)" if self.label else "(swapped)",
        )

    @classmethod
    def from_json(cls, obj) -> "OperatorPair":
        if not isinstance(obj, dict) or "A" not in obj or "B" not in obj:
            raise InvalidParameter("pair JSON must be an object with keys A and B")
        lam = obj.get("declared_lambda")
        return cls(
            A=matrix_from_json(obj["A"]),
            B=matrix_from_json(obj["B"]),
            declared_lambda=None if lam is None else complex_from_json(lam),
            label=str(obj.get("label", "")),
        )


@dataclass
class FactorReport(_JsonReport):
    """Outcome of factor detection.

    status UNIQUE: ``lambda_hat`` fits AB = lambda BA with small residual.
    status ANY: AB = BA = 0, any nonzero factor works, ``lambda_hat`` absent.
    status NONE: exactly one of AB and BA is 0, or the best fit leaves a
    large residual (``lambda_hat`` then still reports the least-squares value).
    """

    status: str
    lambda_hat: complex | None
    residual: float
    ab_norm: float
    ba_norm: float


@dataclass
class SpectrumMatchReport(_JsonReport):
    """Multiset comparison of two spectra by a bottleneck matching.

    ``assignment`` pairs each index of the left spectrum with one of the
    right so that the largest distance, ``max_pair_distance``, is least;
    ``matched`` says whether that distance is within the tolerance.
    """

    matched: bool
    max_pair_distance: float
    assignment: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class LambdaConstraint(_JsonReport):
    """A single structural constraint on the admissible factor."""

    constraint: str  # the rule as text, e.g. "|lambda| = 1"
    kind: str  # "real" | "pm1" | "one" | "unimodular" | "nth-root"
    source: str
    order: int | None = None  # n for the nth-root kind
    satisfied: bool | None = None
    discrepancy: float | None = None


@dataclass
class ClassificationReport(_JsonReport):
    factor: FactorReport
    flags_A: StructureFlags
    flags_B: StructureFlags
    constraints: list[LambdaConstraint]
    product_quasinilpotent: bool
    consistent: bool
    violations: list[str]

    def to_json(self) -> dict:
        """The fields, headed by the factor's status, lambda_hat and residual."""
        body = super().to_json()
        head = {key: body["factor"][key] for key in ("status", "lambda_hat", "residual")}
        return {**head, **body}


def detect_factor(pair: OperatorPair, tol: float = DEFAULT_TOL) -> FactorReport:
    """Fit lambda in AB = lambda * BA by Frobenius least squares.

    The minimizer of ||AB - lambda BA||_F is the Frobenius inner product
    <BA, AB> / ||BA||^2, which is well defined for non-diagonalizable
    inputs and yields a residual for the UNIQUE/NONE decision.  Zero
    products are judged relative to ||A||_F * ||B||_F, the residual
    relative to ||AB||_F.

    The fit runs on A 2**-a and B 2**-b from ``_entry_scaled``, so no
    product under- or overflows and the verdict does not depend on the
    scale of either factor; ab_norm and ba_norm are scaled back, to inf
    where they leave the double range.
    """
    (A, a), (B, b) = _entry_scaled(pair.A), _entry_scaled(pair.B)
    return _fit_factor(A, B, A @ B, B @ A, a + b, tol)


def _ldexp_or_inf(x: float, exponent: int) -> float:
    """x 2**exponent, or inf where that leaves the double range."""
    try:
        return math.ldexp(x, exponent)
    except OverflowError:
        return math.inf


def _fit_factor(
    A: np.ndarray, B: np.ndarray, AB: np.ndarray, BA: np.ndarray, exponent: int, tol: float
) -> FactorReport:
    """``detect_factor`` for A 2**-a and B 2**-b with the products AB and BA
    already formed; the norms are reported times 2**exponent, a + b."""
    ab_norm, ba_norm = frob(AB), frob(BA)
    zero_cut = tol * frob(A) * frob(B)
    norms = {"ab_norm": _ldexp_or_inf(ab_norm, exponent), "ba_norm": _ldexp_or_inf(ba_norm, exponent)}

    if ab_norm <= zero_cut and ba_norm <= zero_cut:
        return FactorReport(status=ANY, lambda_hat=None, residual=0.0, **norms)
    if ab_norm <= zero_cut or ba_norm <= zero_cut:  # one product is 0, the other not: no nonzero factor relates them
        return FactorReport(status=NONE, lambda_hat=None, residual=1.0, **norms)

    lam = complex(np.vdot(BA, AB) / np.vdot(BA, BA).real)
    residual = frob(AB - lam * BA) / ab_norm if ab_norm else 0.0
    status = UNIQUE if residual <= 10.0 * tol else NONE
    return FactorReport(status=status, lambda_hat=lam, residual=residual, **norms)


def _assignment_match(left: np.ndarray, right: np.ndarray, tol: float) -> SpectrumMatchReport:
    cost = np.abs(left[:, None] - right[None, :])
    cols = _bottleneck_assignment(cost)
    max_dist = max(cost[np.arange(cols.size), cols].tolist(), default=0.0)
    scale = max([1.0, *np.abs(left).tolist(), *np.abs(right).tolist()])
    return SpectrumMatchReport(
        matched=bool(max_dist <= tol * scale),
        max_pair_distance=max_dist,
        assignment=list(enumerate(cols.tolist())),
    )


def _bottleneck_assignment(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a perfect matching of a square, finite ``cost``
    whose largest cost is least.

    Each row first takes its nearest column.  These costs are at most
    t = max(max_i min_j, max_j min_i), a lower bound on the answer, so when
    no two rows take the same column they are the answer.  Otherwise a row
    whose own index is among its nearest columns takes that one instead,
    which settles a spectrum matched with an exact copy of itself, repeated
    eigenvalues included, without a search.  If rows still share a column,
    the first keeps it, and each row left over augments along a bottleneck
    path (Derigs and Zimmermann, Computing 1978): a search over alternating
    paths, vectorised over columns, that reaches every column within t of
    a reached row and raises t to the least cost out of the reached rows
    when it stalls.  Every matched cost stays at or below the optimum,
    since a perfect matching within the optimum leaves an augmenting path
    within it from any unmatched row (Gabow and Tarjan, J. Algorithms
    1988).
    """
    n = len(cost)
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    cols = cost.argmin(axis=1)
    if len(set(cols.tolist())) == n:
        return cols
    index = np.arange(n)
    cols = np.where(cost.diagonal() <= cost[index, cols], index, cols)
    if len(set(cols.tolist())) == n:
        return cols
    row_of = np.full(n, -1)
    row_of[cols[::-1]] = index[::-1]
    col_of = np.where(row_of[cols] == index, cols, -1)
    t = max(cost.min(axis=0).max(), cost[index, cols].max())
    for r in np.flatnonzero(col_of < 0):
        best, via = cost[r].copy(), np.full(n, r)  # least cost into each column from a reached row, and that row
        unreached = np.ones(n, dtype=bool)
        while True:
            reached = unreached & (best <= t)
            if not reached.any():
                t = best[unreached].min()
                continue
            unreached &= ~reached
            free = reached & (row_of < 0)
            if free.any():
                break
            rows = row_of[reached]
            nearest = cost[rows].argmin(axis=0)
            into = cost[rows[nearest], index]
            closer = unreached & (into < best)
            best[closer] = into[closer]
            via[closer] = rows[nearest[closer]]
        j = free.argmax()
        while j >= 0:  # back along the path to r, whose column was -1
            i = via[j]
            col_of[i], row_of[j], j = j, i, col_of[i]
    return col_of


def spectrum_rotation_check(
    spectrum: np.ndarray, lam: complex, tol: float = DEFAULT_TOL
) -> SpectrumMatchReport:
    """Check that a spectrum is invariant under multiplication by lambda.

    Bottleneck matching between S and lambda * S: the pairing whose largest
    distance is least, which greedy sorted matching misses on
    near-degenerate rotated spectra.  The spectra match when every pair
    lies within tol * max(1, largest modulus in S or lambda * S).
    """
    if lam == 0:
        raise InvalidParameter("rotation factor must be nonzero")
    S = np.asarray(spectrum, dtype=np.complex128).ravel()
    rotated = lam * S
    if not np.isfinite(rotated).all():
        raise InvalidParameter("spectrum and its rotation must be finite")
    return _assignment_match(S, rotated, tol)


def spectrum_swap_check(pair: OperatorPair, tol: float = DEFAULT_TOL) -> SpectrumMatchReport:
    """Match the eigenvalue multisets of AB and BA.

    For square factors of equal dimension the two products share their full
    characteristic polynomial, so the whole multisets must agree: every
    pair of a bottleneck matching within tol * max(1, largest eigenvalue
    modulus).
    """
    return _assignment_match(eigenvalues(pair.A @ pair.B), eigenvalues(pair.B @ pair.A), tol)


def _power_text(value: complex, exponent: int) -> str:
    """value * 2**exponent as '.6g' text; outside the normal double range as
    '(mantissa)e+NNN' or '(mantissa)e-NNN', the mantissa's modulus in [1, 10)."""
    try:
        scaled = complex(math.ldexp(value.real, exponent), math.ldexp(value.imag, exponent))
        if abs(scaled) >= np.finfo(np.float64).tiny:
            return f"{scaled:.6g}"
    except OverflowError:
        pass
    log10_abs = math.log10(abs(value)) + exponent * math.log10(2.0)
    power = math.floor(log10_abs)
    modulus = 10.0 ** (log10_abs - power)
    if float(f"{modulus:.6g}") >= 10.0:  # rounds up to 10 when printed
        modulus, power = modulus / 10.0, power + 1
    return f"({value / abs(value) * modulus:.6g})e{power:+d}"


def trace_det_constraints(
    pair: OperatorPair, kmax: int, tol: float = DEFAULT_TOL
) -> list[LambdaConstraint]:
    """Trace and determinant obstructions in dimension n.

    A nonzero tr[A B^k] or tr[A^k B] forces lambda = 1; a nonzero
    det(AB), that is invertible A and B, forces lambda^n = 1.  Every trace
    forces the same lambda = 1, so at most one is reported: the first of
    tr[A B^1], tr[A^1 B], tr[A B^2], ... up to k = kmax that exceeds its
    rounding bound.  Nothing overflows when A^k, B^k or det(AB) leave the
    double range; such a value is reported as '(mantissa)e+exponent'.
    """
    s_A, s_B = singular_values(pair.A), singular_values(pair.B)
    invertible = _invertible(s_A, tol) and _invertible(s_B, tol)
    return _trace_det_constraints(_scaled(pair.A, s_A), _scaled(pair.B, s_B), kmax, invertible)


def _trace_det_constraints(
    scaled_A: tuple[np.ndarray, int, float], scaled_B: tuple[np.ndarray, int, float], kmax: int, invertible: bool
) -> list[LambdaConstraint]:
    """``trace_det_constraints`` given A and B as ``_scaled`` returns them,
    and whether both are invertible.

    With A = A' 2**a and B = B' 2**b, no power of A' or B' overflows, and
    tr[A B^k] = tr[A' B'^k] 2**(a + kb).  A trace counts when it exceeds
    its rounding bound, which scales with it.  The B side runs first, up to
    its first witness k; at equal k that one comes first, so the A side
    then runs only below k, and one side's powers are held at a time.
    """
    if kmax < 1:
        raise InvalidParameter("kmax must be at least 1")
    (A, a, norm_A), (B, b, norm_B) = scaled_A, scaled_B
    n = A.shape[0]
    out: list[LambdaConstraint] = []
    witness = None
    for X, Y, norm_X, name, x, y in ((B, A, norm_B, "tr[A B^{}]", b, a), (A, B, norm_A, "tr[A^{} B]", a, b)):
        for k, (trace, bound) in enumerate(_scaled_traces(X, Y, norm_X, kmax), start=1):
            if abs(trace) > bound:
                witness, kmax = f"{name.format(k)} = {_power_text(trace, y + k * x)}", k - 1
                break
    if witness:
        out.append(LambdaConstraint(kind="one", constraint="lambda = 1", source=f"nonzero trace {witness}"))
    if invertible:
        sign, logdet = _lapack(np.linalg.slogdet, A @ B)
        binary = round(logdet / math.log(2.0))  # keeps exp() of the rest in range
        text = _power_text(complex(sign) * math.exp(logdet - binary * math.log(2.0)), binary + n * (a + b))
        source = f"nonzero det(AB) = {text}"
        out.append(LambdaConstraint(kind="nth-root", constraint=f"lambda^{n} = 1", source=source, order=n))
    return out


def _rotation_constraint(name: str, premise: str, witnesses: list, norm2: float, exponent: int) -> LambdaConstraint:
    """lambda^g = 1 for the gcd g of the witnesses (k, tr[(M / norm2)^k]) of
    M, the matrix ``name`` times 2**-exponent, each printed as tr[name^k]."""
    traces = []
    for k, trace in witnesses:  # tr[name^k] = trace norm2^k 2**(k exponent)
        carry, fraction = divmod(k * math.log2(norm2), 1.0)
        traces.append(f"tr[{name}^{k}] = {_power_text(trace * 2.0**fraction, int(carry) + k * exponent)}")
    g = math.gcd(*(k for k, _ in witnesses))
    text = "lambda = 1" if g == 1 else f"lambda^{g} = 1"
    return LambdaConstraint(kind="nth-root", constraint=text, source=f"{premise}: nonzero {', '.join(traces)}", order=g)


def _constraint_discrepancy(c: LambdaConstraint, lam: complex) -> float:
    if c.kind == "real":
        return abs(lam.imag)
    if c.kind == "pm1":
        return min(abs(lam - 1.0), abs(lam + 1.0))
    if c.kind == "one":
        return abs(lam - 1.0)
    if c.kind == "unimodular":
        return abs(abs(lam) - 1.0)
    if c.kind == "nth-root":
        return abs(lam ** c.order - 1.0)
    raise InvalidParameter(f"unknown constraint kind {c.kind!r}")


def classify_pair(
    pair: OperatorPair, tol: float = DEFAULT_TOL, kmax: int | None = None
) -> ClassificationReport:
    """Full structural classification of a pair against the factor rules.

    Assembles every constraint implied by the structure flags (reality for
    a self-adjoint factor, {1,-1} for a self-adjoint pair, 1 with a
    positive factor, unit modulus for invertible/unitary factors or a
    non-quasi-nilpotent product, roots of unity from traces and the
    determinant, spectrum rotation), then, when a unique factor was
    detected, verifies the fitted value against each.  Constraint checks
    are advisory over floating point: every violation records the
    magnitude of the discrepancy.

    AB = lambda BA gives sigma(AB) = lambda sigma(BA) = lambda sigma(AB),
    and sigma(A) = lambda sigma(A) when B is invertible, sigma(B) when A
    is: one power-sum sweep and one constraint lambda^g = 1 each, listing
    the witness traces (``_power_sum_witnesses``).  A fitted factor off by
    delta reads |lambda^g - 1| ~ g delta, as the det rule does at order n.

    Every check runs on A 2**-a and B 2**-b, scaled by ``_scaled`` with
    relative cuts, so no verdict depends on the scale of either factor;
    norms and printed values are converted back exactly, a product norm
    beyond the double range to inf.
    """
    s_A, s_B = singular_values(pair.A), singular_values(pair.B)
    scaled_A, scaled_B = _scaled(pair.A, s_A), _scaled(pair.B, s_B)
    (A, a, norm_A), (B, b, norm_B) = scaled_A, scaled_B
    AB, BA = A @ B, B @ A
    factor = _fit_factor(A, B, AB, BA, a + b, tol)
    invertible_A, invertible_B = _invertible(s_A, tol), _invertible(s_B, tol)
    flags_A, witnesses_A = _flags_and_witnesses(scaled_A, s_A, tol, rotation=invertible_B)
    flags_B, witnesses_B = _flags_and_witnesses(scaled_B, s_B, tol, rotation=invertible_A)
    invertible = invertible_A and invertible_B
    witnesses_AB = list(_power_sum_witnesses(AB, norm_A * norm_B, frob(A) * frob(B)))
    product_quasinilpotent = not invertible and not witnesses_AB
    kmax = pair.dim if kmax is None else kmax

    constraints: list[LambdaConstraint] = []
    if flags_A.hermitian or flags_B.hermitian:
        which = "both factors" if flags_A.hermitian and flags_B.hermitian else "A" if flags_A.hermitian else "B"
        constraints.append(LambdaConstraint(kind="real", constraint="lambda real", source=f"{which} self-adjoint"))
    if flags_A.hermitian and flags_B.hermitian:
        source = "both factors self-adjoint"
        constraints.append(LambdaConstraint(kind="pm1", constraint="lambda in {1, -1}", source=source))
        if flags_A.positive_semidefinite or flags_B.positive_semidefinite:
            source = "self-adjoint pair with a positive factor"
            constraints.append(LambdaConstraint(kind="one", constraint="lambda = 1", source=source))
    unimodular: list[str] = []  # sources of |lambda| = 1
    for name, flags, other, other_flags in (("A", flags_A, "B", flags_B), ("B", flags_B, "A", flags_A)):
        if flags.invertible and not other_flags.quasi_nilpotent:
            unimodular.append(f"{name} invertible and sigma({other}) != {{0}}")
        elif flags.invertible and flags.unitary:
            unimodular.append(f"{name} unitary")
    if not product_quasinilpotent:
        unimodular.append("sigma(AB) != {0}")
    constraints.extend(LambdaConstraint(kind="unimodular", constraint="|lambda| = 1", source=s) for s in unimodular)
    rotations = [("(AB)", "sigma(AB) = lambda sigma(AB)", witnesses_AB, norm_A * norm_B, a + b),
                 ("A", "B invertible, so sigma(A) = lambda sigma(A)", witnesses_A, norm_A, a),
                 ("B", "A invertible, so sigma(B) = lambda sigma(B)", witnesses_B, norm_B, b)]
    constraints.extend(_rotation_constraint(*r) for r in rotations if r[2])  # r[2]: the witnesses
    constraints.extend(_trace_det_constraints(scaled_A, scaled_B, kmax, invertible))

    violations: list[str] = []
    if factor.status == UNIQUE:
        lam = factor.lambda_hat
        for c in constraints:
            c.discrepancy = _constraint_discrepancy(c, lam)
            c.satisfied = bool(c.discrepancy <= 10.0 * tol)
            if not c.satisfied:
                violations.append(f"{c.constraint} violated by {c.discrepancy:.3e} ({c.source})")

    return ClassificationReport(
        factor=factor,
        flags_A=flags_A,
        flags_B=flags_B,
        constraints=constraints,
        product_quasinilpotent=product_quasinilpotent,
        consistent=not violations,
        violations=violations,
    )


def solve_lambda_commutant(
    A: np.ndarray, lam: complex, tol: float = DEFAULT_TOL
) -> list[np.ndarray]:
    """Basis of the solution space of A B = lambda * B A for normal A.

    In an orthonormal eigenbasis of A with eigenvalues a_1..a_n the
    equation reads (a_i - lambda a_j) B_ij = 0, so the space is spanned by
    the matrix units at index pairs with a_i = lambda a_j; those units are
    transformed back to the original basis.  Normality and eigenvalue
    coincidence are judged relative to ||A||_F, on A scaled by
    ``_entry_scaled``.
    """
    A = as_matrix(A)
    require_square(A)
    if lam == 0:
        raise InvalidParameter("lambda must be nonzero")
    A = _entry_scaled(A)[0]
    scale = frob(A)
    if frob(A @ A.conj().T - A.conj().T @ A) > tol * scale * scale:
        raise NotNormal("matrix is not normal within tolerance")
    import scipy.linalg
    T, Z = _lapack(scipy.linalg.schur, A, output="complex")
    diag = np.diagonal(T)
    basis: list[np.ndarray] = []
    n = A.shape[0]
    for i in range(n):
        for j in range(n):
            if abs(diag[i] - lam * diag[j]) <= tol * scale:
                basis.append(np.outer(Z[:, i], Z[:, j].conj()))
    return basis


def measurement_map_check(pair: OperatorPair, tol: float = DEFAULT_TOL) -> bool:
    """Whether X -> AB X BA and X -> BA X AB agree for every X.

    They agree exactly when AB and BA are linearly dependent, which
    ``detect_factor`` decides without regard to scale: a factor fits
    (UNIQUE), both products vanish (ANY), or exactly one does (NONE with
    no fitted factor).  So ``tol`` is that of ``detect_factor``: the maps
    count as agreeing when the fitted factor leaves a relative residual of
    at most 10 tol, not when their gap on some X is at most tol.
    """
    factor = detect_factor(pair, tol)
    return factor.status != NONE or factor.lambda_hat is None
