"""Seeded property suite covering every module's invariants.

Each property is either randomized (run once per trial with a seed
derived from the configured seed, the property index and the trial
index) or fixed (run once regardless of the trial count).  Failures are
data, not crashes: exceptions raised inside a trial are recorded as
failures with the trigger inputs serialized.
"""

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from . import intertwiner, realizations
from .errors import FactorCommError
from .resolvent import (
    StoneQuadratureSpec,
    default_node_count,
    exact_projection,
    resolvent as resolvent_at,
    resolvent_norm_check,
    stone_projection,
    transported_integrand_bound,
)
from .linalg import (
    _JsonReport,
    adjoint,
    classify_structure,
    complex_to_json,
    eigenvalues,
    frob,
    hermitian_eig,
    matrix_to_json,
    polar,
    svd,
)
from .commutation import (
    OperatorPair,
    UNIQUE,
    classify_pair,
    detect_factor,
    measurement_map_check,
    solve_lambda_commutant,
    spectrum_rotation_check,
    spectrum_swap_check,
)
from .sampling import (
    derive_seed,
    ginibre,
    random_hermitian,
    random_psd,
    random_unitary,
    rng_for,
)


@dataclass
class SuiteConfig:
    seed: int = 42
    trials: int = 100
    tol: float = 1e-9
    max_dim: int = 8

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0.0 < self.tol < np.inf:  # also refuses nan
            raise ValueError("tol must be finite and positive")
        if self.max_dim < 2:
            raise ValueError("max_dim must be at least 2")


@dataclass
class PropertyFailure(_JsonReport):
    property_name: str
    counterexample: dict
    magnitude: float | None


@dataclass
class SuiteOutcome(_JsonReport):
    passed: int
    failed: int
    failures: list[PropertyFailure] = field(default_factory=list)


# Each check returns (ok, counterexample, magnitude).
Check = tuple[bool, dict, float]


def _ok() -> Check:
    return True, {}, 0.0


def _structured_commuting_pair(rng, max_dim: int, psd: bool = False) -> OperatorPair:
    n = int(rng.integers(2, max_dim + 1))
    U = random_unitary(rng, n)
    d1 = rng.standard_normal(n)
    if psd:
        d1 = np.abs(d1)
    d2 = rng.standard_normal(n)
    A = (U * d1) @ U.conj().T
    B = (U * d2) @ U.conj().T
    return OperatorPair(A=A, B=B, label=f"commuting(n={n}, psd={psd})")


def _structured_pauli_tensor_pair(rng, max_dim: int) -> OperatorPair:
    """Anticommuting 2x2 pair tensored with commuting Hermitian blocks.

    Satisfies the norm condition AB^2A = BA^2B while AB != BA, exercising
    the nontrivial-unitary branch.
    """
    m = max(1, int(rng.integers(1, max_dim // 2 + 1)))
    U = random_unitary(rng, m)
    H1 = (U * rng.standard_normal(m)) @ U.conj().T
    H2 = (U * rng.standard_normal(m)) @ U.conj().T
    A = np.kron(realizations.PAULI_X, H1)
    B = np.kron((realizations.PAULI_X + realizations.PAULI_Y) / np.sqrt(2.0), H2)
    return OperatorPair(A=A, B=B, label=f"pauli-tensor(m={m})")


@functools.cache
def _builtin_catalogue() -> tuple[OperatorPair, ...]:
    """The builtin pairs, built once; no property mutates them."""
    return tuple(realizations.builtin_pairs())


def _builtin(rng) -> OperatorPair:
    pairs = _builtin_catalogue()
    return pairs[int(rng.integers(len(pairs)))]


# ---------------------------------------------------------------------------
# randomized properties
# ---------------------------------------------------------------------------


def _prop_adjoint_involution(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    n = int(rng.integers(1, cfg.max_dim + 1))
    m = int(rng.integers(1, cfg.max_dim + 1))
    G = ginibre(rng, n, m)
    diff = frob(adjoint(adjoint(G)) - G)
    if diff != 0.0:
        return False, {"matrix": matrix_to_json(G)}, diff
    return _ok()


def _prop_product_spectrum_swap(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    n = int(rng.integers(2, cfg.max_dim + 1))
    M, N = ginibre(rng, n), ginibre(rng, n)
    report = spectrum_swap_check(OperatorPair(A=M, B=N), tol=1e-7)
    if not report.matched:
        return False, {"M": matrix_to_json(M), "N": matrix_to_json(N)}, report.max_pair_distance
    return _ok()


def _prop_polar_invariants(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    n = int(rng.integers(2, cfg.max_dim + 1))
    C = ginibre(rng, n)
    parts = polar(C)
    scale = max(1.0, frob(C))
    recon = frob(parts.V @ parts.absC - C) / scale
    proj = parts.V.conj().T @ parts.V
    idem = frob(proj @ proj - proj)
    herm = frob(proj - proj.conj().T)
    min_eig = float(np.linalg.eigvalsh((parts.absC + parts.absC.conj().T) / 2).min())
    worst = max(recon, idem, herm, max(0.0, -min_eig))
    if worst > 1e-9:
        return False, {"C": matrix_to_json(C)}, worst
    return _ok()


def _prop_hermitian_eig_reconstruction(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    n = int(rng.integers(2, cfg.max_dim + 1))
    M = random_hermitian(rng, n)
    w, U = hermitian_eig(M)
    resid = frob((U * w) @ U.conj().T - M) / max(1.0, frob(M))
    if resid > 1e-9 or not np.all(np.diff(w) >= 0):
        return False, {"M": matrix_to_json(M)}, resid
    return _ok()


def _prop_svd_reconstruction(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    n = int(rng.integers(1, cfg.max_dim + 1))
    m = int(rng.integers(1, cfg.max_dim + 1))
    M = ginibre(rng, n, m)
    W, s, X = svd(M)
    S = np.zeros((n, m))
    np.fill_diagonal(S, s)
    resid = frob(W @ S @ X.conj().T - M) / max(1.0, frob(M))
    ordered = bool(np.all(np.diff(s) <= 0) and np.all(s >= 0))
    if resid > 1e-9 or not ordered:
        return False, {"M": matrix_to_json(M)}, resid
    return _ok()


def _prop_factor_scale_invariance(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    pair = _builtin(rng)
    alpha = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()))
    beta = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()))
    base = detect_factor(pair, cfg.tol)
    scaled = detect_factor(
        OperatorPair(A=alpha * pair.A, B=beta * pair.B, label=pair.label), cfg.tol
    )
    ctx = {"pair": pair.label, "alpha": complex_to_json(alpha), "beta": complex_to_json(beta)}
    if scaled.status != base.status:
        return False, ctx, float("nan")
    if base.status == UNIQUE:
        drift = abs(base.lambda_hat - scaled.lambda_hat)
        if drift > 1e-12:
            return False, ctx, drift
    return _ok()


def _prop_factor_swap_inverse(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    pair = _builtin(rng)
    base = detect_factor(pair, cfg.tol)
    if base.status != UNIQUE:
        return _ok()
    swapped = detect_factor(pair.swapped(), cfg.tol)
    ctx = {"pair": pair.label}
    if swapped.status != UNIQUE:
        return False, ctx, float("nan")
    drift = abs(swapped.lambda_hat - 1.0 / base.lambda_hat)
    if drift > 1e-9:
        return False, ctx, drift
    return _ok()


def _prop_unique_spectral_checks(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    pair = _builtin(rng)
    base = detect_factor(pair, cfg.tol)
    if base.status != UNIQUE or base.residual > 1e-10:
        return _ok()
    swap = spectrum_swap_check(pair, 1e-9)
    rot = spectrum_rotation_check(eigenvalues(pair.A @ pair.B), base.lambda_hat, 1e-9)
    worst = max(swap.max_pair_distance, rot.max_pair_distance)
    if not (swap.matched and rot.matched):
        return False, {"pair": pair.label}, worst
    return _ok()


def _prop_nonunimodular_quasinilpotent(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    lam = complex(rng.uniform(1.5, 4.0) * np.exp(2j * np.pi * rng.uniform()))
    if rng.uniform() < 0.5:
        lam = 1.0 / lam
    n = int(rng.integers(2, cfg.max_dim + 1))
    betas = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    pivot = int(rng.integers(1, n))
    pair = realizations.nilpotent_diag_pair(betas, pivot, lam, solve_pivot=True)
    base = detect_factor(pair, cfg.tol)
    if base.status != UNIQUE or abs(abs(base.lambda_hat) - 1.0) <= 1e-6:
        return _ok()
    ab_norm = frob(pair.A @ pair.B)
    if ab_norm <= 1e-6:
        return _ok()
    top = float(np.abs(eigenvalues(pair.A @ pair.B)).max())
    if top > 1e-7 * ab_norm:
        return False, {"pair": pair.label, "lambda": complex_to_json(lam)}, top
    return _ok()


def _prop_psd_anticommutant_trivial(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    n = int(rng.integers(2, min(cfg.max_dim, 6) + 1))
    rank = int(rng.integers(1, n + 1))
    A = random_psd(rng, n, rank)
    worst = 0.0
    for B in solve_lambda_commutant(A, -1.0, cfg.tol):
        worst = max(worst, frob(A @ B))
    if worst > 1e-9:
        return False, {"A": matrix_to_json(A), "rank": rank}, worst
    return _ok()


def _prop_commutant_relation(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    n = int(rng.integers(2, cfg.max_dim + 1))
    lam = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()))
    # plant one lambda-related eigenvalue pair so the basis is nonempty
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    d[1] = lam * d[0]
    U = random_unitary(rng, n)
    A = (U * d) @ U.conj().T
    worst = 0.0
    count = 0
    for B in solve_lambda_commutant(A, lam, cfg.tol):
        count += 1
        resid = frob(A @ B - lam * B @ A) / max(1.0, frob(A) * frob(B))
        worst = max(worst, resid)
    ctx = {"lambda": complex_to_json(lam), "A": matrix_to_json(A)}
    if count == 0:
        return False, ctx, float("nan")
    if worst > 1e-8:
        return False, ctx, worst
    return _ok()


def _maps_agree(pair: OperatorPair, trials: int, seed: int, tol: float) -> bool:
    """The oracle ``measurement_map_check`` is held to: whether X -> AB X BA
    and X -> BA X AB agree on ``trials`` Ginibre matrices seeded from ``seed``."""
    AB, BA = pair.A @ pair.B, pair.B @ pair.A
    for t in range(trials):
        X = ginibre(rng_for(seed, t), pair.dim)
        lhs = AB @ X @ BA
        if frob(lhs - BA @ X @ AB) > tol * max(1.0, frob(lhs)):
            return False
    return True


def _prop_measurement_forward(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    pair = _builtin(rng)
    base = detect_factor(pair, cfg.tol)
    if base.status != UNIQUE or base.residual > 1e-10:
        return _ok()
    if abs(abs(base.lambda_hat) - 1.0) > 1e-10:
        return _ok()
    if not (measurement_map_check(pair, cfg.tol) and _maps_agree(pair, 5, derive_seed(seed, 1), cfg.tol)):
        return False, {"pair": pair.label}, float("nan")
    return _ok()


def _prop_gudder_nagy_random(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    n = int(rng.integers(2, cfg.max_dim + 1))
    pair = OperatorPair(A=random_hermitian(rng, n), B=random_hermitian(rng, n))
    report = intertwiner.gudder_nagy_check(pair, 1e-8)
    if not report.consistent:
        return (
            False,
            {"A": matrix_to_json(pair.A), "B": matrix_to_json(pair.B)},
            max(report.lhs_magnitude, report.rhs_magnitude_ab, report.rhs_magnitude_ba),
        )
    return _ok()


def _prop_gudder_nagy_structured(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    pair = (
        _structured_commuting_pair(rng, cfg.max_dim)
        if rng.uniform() < 0.5
        else _structured_pauli_tensor_pair(rng, cfg.max_dim)
    )
    report = intertwiner.gudder_nagy_check(pair, 1e-8)
    if not (report.consistent and report.lhs_holds and report.rhs_holds):
        return (
            False,
            {"pair": pair.label},
            max(report.lhs_magnitude, report.rhs_magnitude_ab, report.rhs_magnitude_ba),
        )
    return _ok()


def _prop_intertwiner_construction(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    pair = (
        _structured_commuting_pair(rng, cfg.max_dim)
        if rng.uniform() < 0.5
        else _structured_pauli_tensor_pair(rng, cfg.max_dim)
    )
    result = intertwiner.construct_intertwiner(pair, cfg.tol)
    AB = pair.A @ pair.B
    scale = max(1.0, frob(AB))
    commute = frob(AB @ result.U - result.U @ AB) / scale
    compress = frob(AB - (result.P @ pair.A @ result.P) @ (result.P @ pair.B @ result.P)) / scale
    worst = max(result.residual_unitary, result.residual_intertwine, commute, compress)
    if result.residual_unitary > 1e-9 or max(result.residual_intertwine, commute, compress) > 1e-8:
        return False, {"pair": pair.label}, worst
    return _ok()


def _prop_intertwiner_positive_case(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    pair = _structured_commuting_pair(rng, cfg.max_dim, psd=True)
    if not intertwiner.check_norm_condition(pair, cfg.tol):
        return False, {"pair": pair.label}, float("nan")
    gap = frob(pair.A @ pair.B - pair.B @ pair.A) / max(1.0, frob(pair.A @ pair.B))
    if gap > 1e-8:
        return False, {"pair": pair.label}, gap
    return _ok()


def _prop_realization_declared_factor(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    pair = _builtin(rng)
    if pair.declared_lambda is None:
        return _ok()
    base = detect_factor(pair, cfg.tol)
    ctx = {"pair": pair.label, "declared": complex_to_json(pair.declared_lambda)}
    if base.status != UNIQUE:
        return False, ctx, float("nan")
    drift = abs(base.lambda_hat - pair.declared_lambda)
    if drift > 1e-10:
        return False, ctx, drift
    report = classify_pair(pair, cfg.tol)
    if not report.consistent:
        return False, {**ctx, "violations": report.violations}, drift
    return _ok()


def _prop_clock_shift_structure(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    n = int(rng.integers(2, cfg.max_dim + 3))
    pair = realizations.clock_shift_pair(n)
    flags_a = classify_structure(pair.A, cfg.tol)
    flags_b = classify_structure(pair.B, cfg.tol)
    base = detect_factor(pair, cfg.tol)
    ctx = {"n": n}
    if not (flags_a.unitary and flags_b.unitary):
        return False, ctx, float("nan")
    root_gap = abs(base.lambda_hat**n - 1.0)
    if base.status != UNIQUE or root_gap > 1e-9:
        return False, ctx, root_gap
    det = abs(np.linalg.det(pair.A @ pair.B))
    if det <= cfg.tol:
        return False, ctx, det
    rot = spectrum_rotation_check(eigenvalues(pair.B), base.lambda_hat, 1e-9)
    if not rot.matched:
        return False, ctx, rot.max_pair_distance
    return _ok()


def _prop_uq_relations(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    n = int(rng.integers(0, 7))
    radius = rng.uniform(1.1, 1.8) if rng.uniform() < 0.5 else rng.uniform(0.4, 0.9)
    q = complex(radius * np.exp(2j * np.pi * rng.uniform()))
    eps = 1 if rng.uniform() < 0.5 else -1
    mod = realizations.uq_sl2_module(n, q, eps)
    res = realizations.verify_uq_relations(mod, cfg.tol)
    ctx = {"n": n, "q": complex_to_json(q), "eps": eps}
    worst = max(res.kk_inv, res.ke_rel, res.kf_rel, res.ef_rel)
    if worst > 1e-9:
        return False, ctx, worst
    dim = n + 1
    e_pow = np.linalg.matrix_power(mod.E, dim)
    f_pow = np.linalg.matrix_power(mod.F, dim)
    nil = max(frob(e_pow), frob(f_pow)) / max(1.0, frob(mod.E) ** dim, frob(mod.F) ** dim)
    if nil > 1e-10:
        return False, ctx, nil
    return _ok()


def _prop_q_bracket_symmetry(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    m = int(rng.integers(0, 13))
    radius = rng.uniform(1.1, 1.8) if rng.uniform() < 0.5 else rng.uniform(0.4, 0.9)
    q = complex(radius * np.exp(2j * np.pi * rng.uniform()))
    forward = realizations.q_bracket(m, q)
    backward = realizations.q_bracket(m, 1.0 / q)
    gap = abs(forward - backward) / max(1.0, abs(forward))
    if gap > 1e-12:
        return False, {"m": m, "q": complex_to_json(q)}, gap
    return _ok()


def _prop_jordan_uq_identification(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    radius = rng.uniform(1.1, 1.8) if rng.uniform() < 0.5 else rng.uniform(0.4, 0.9)
    q = complex(radius * np.exp(2j * np.pi * rng.uniform()))
    mod = realizations.uq_sl2_module(2, q, 1)
    pair = realizations.jordan_pair(3, q**2, 0.0, 0.0, q**-2)
    gap = max(frob(pair.A - mod.K), frob(pair.B - mod.F)) / max(1.0, frob(mod.K))
    if gap > 1e-12:
        return False, {"q": complex_to_json(q)}, gap
    return _ok()


def _prop_exact_projection_idempotent(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    n = int(rng.integers(2, cfg.max_dim + 1))
    A = random_hermitian(rng, n) * 3.0
    eigs = np.linalg.eigvalsh(A)
    lo, hi = float(eigs.min()), float(eigs.max())
    a = rng.uniform(lo - 1.0, hi + 1.0)
    b = a + rng.uniform(0.5, 2.0)
    margin = 0.05
    if np.any(np.abs(eigs - a) <= margin) or np.any(np.abs(eigs - b) <= margin):
        return _ok()  # resample next trial; endpoint guard exercised elsewhere
    P = exact_projection(A, (a, b), cfg.tol)
    count = int(np.sum((eigs > a) & (eigs < b)))
    idem = frob(P @ P - P)
    herm = frob(P - P.conj().T)
    trace_gap = abs(float(np.trace(P).real) - count)
    worst = max(idem, herm, trace_gap)
    if idem > 1e-10 or herm > 1e-10 or round(float(np.trace(P).real)) != count:
        return False, {"A": matrix_to_json(A), "interval": [float(a), float(b)]}, worst
    return _ok()


def _random_resolvent_point(rng, eigs: np.ndarray, margin: float = 0.1) -> complex:
    for _ in range(64):
        w = complex(rng.uniform(eigs.min() - 3, eigs.max() + 3), rng.uniform(-3, 3))
        if np.abs(eigs - w).min() > margin:
            return w
    return complex(eigs.max() + 1.0 + margin, 1.0)


def _prop_resolvent_identity(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    n = int(rng.integers(2, cfg.max_dim + 1))
    A = random_hermitian(rng, n) * 2.0
    eigs = np.linalg.eigvalsh(A)
    w1 = _random_resolvent_point(rng, eigs)
    w2 = _random_resolvent_point(rng, eigs)
    R1 = resolvent_at(A, w1, cfg.tol)
    R2 = resolvent_at(A, w2, cfg.tol)
    gap = frob(R1 - R2 - (w1 - w2) * (R1 @ R2))
    if gap > 1e-9:
        return False, {"A": matrix_to_json(A), "w1": complex_to_json(w1), "w2": complex_to_json(w2)}, gap
    return _ok()


def _prop_resolvent_norm_equality(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    n = int(rng.integers(2, cfg.max_dim + 1))
    A = random_hermitian(rng, n) * 2.0
    eigs = np.linalg.eigvalsh(A)
    w = _random_resolvent_point(rng, eigs)
    if not resolvent_norm_check(A, w, 1e-9):
        return False, {"A": matrix_to_json(A), "w": complex_to_json(w)}, float("nan")
    return _ok()


def _prop_transported_bound(seed: int, cfg: SuiteConfig) -> Check:
    rng = rng_for(seed)
    n = int(rng.integers(1, min(cfg.max_dim, 6) + 1))
    A = random_psd(rng, n)
    if rng.uniform() < 0.4:
        lam = complex(-1.0)
    else:
        lam = complex(rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.15, 2 * np.pi - 0.15)))
        if abs(lam.imag) < 1e-3:
            lam = complex(lam.real, 1e-3 if lam.imag >= 0 else -1e-3)
    a = rng.uniform(0.2, 1.0)
    b = a + rng.uniform(0.5, 2.0)
    epsilon = 10.0 ** rng.uniform(-4, -2)
    report = transported_integrand_bound(A, lam, (a, b), epsilon)
    if not report.holds:
        return (
            False,
            {
                "A": matrix_to_json(A),
                "lambda": complex_to_json(lam),
                "interval": [float(a), float(b)],
                "epsilon": float(epsilon),
            },
            report.integrand_max - report.bound,
        )
    return _ok()


# ---------------------------------------------------------------------------
# fixed-cost properties (run once, independent of the trial count)
# ---------------------------------------------------------------------------


def _prop_stone_oracle(seed: int, cfg: SuiteConfig) -> Check:
    A = np.diag([1.0, 2.0, 3.0]).astype(np.complex128)
    spec = StoneQuadratureSpec(interval=(1.5, 2.5), epsilon=1e-3, nodes=2000)
    result = stone_projection(A, spec)
    oracle = np.diag([0.0, 1.0, 0.0]).astype(np.complex128)
    err = frob(result.projection - oracle)
    if err > 5e-3:
        return False, {"epsilon": 1e-3, "nodes": 2000}, err
    half = stone_projection(
        A, StoneQuadratureSpec(interval=(1.5, 2.5), epsilon=5e-4, nodes=4000)
    )
    ratio = err / frob(half.projection - oracle)
    if ratio < 1.5:
        return False, {"ratio": ratio}, ratio
    return _ok()


def _prop_stone_first_order(seed: int, cfg: SuiteConfig) -> Check:
    A = np.diag([1.0, 2.0, 3.0]).astype(np.complex128)
    ratios = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        nodes = default_node_count((1.5, 2.5), eps)
        result = stone_projection(
            A, StoneQuadratureSpec(interval=(1.5, 2.5), epsilon=eps, nodes=nodes)
        )
        ratios.append(result.exact_error / eps)
    if max(ratios) > 3.0:
        return False, {"ratios": ratios}, max(ratios)
    return _ok()


def _prop_measurement_counterexample(seed: int, cfg: SuiteConfig) -> Check:
    pair = OperatorPair(
        A=np.diag([1.0, 2.0]).astype(np.complex128),
        B=realizations.PAULI_X,
        label="noncommuting-counterexample",
    )
    if measurement_map_check(pair, cfg.tol) or _maps_agree(pair, 10, derive_seed(seed, 7), cfg.tol):
        return False, {"pair": pair.label}, float("nan")
    return _ok()


RANDOMIZED_PROPERTIES = [
    ("adjoint-involution", _prop_adjoint_involution),
    ("product-spectrum-swap", _prop_product_spectrum_swap),
    ("polar-invariants", _prop_polar_invariants),
    ("hermitian-eig-reconstruction", _prop_hermitian_eig_reconstruction),
    ("svd-reconstruction", _prop_svd_reconstruction),
    ("factor-scale-invariance", _prop_factor_scale_invariance),
    ("factor-swap-inverse", _prop_factor_swap_inverse),
    ("unique-spectral-checks", _prop_unique_spectral_checks),
    ("nonunimodular-quasinilpotent", _prop_nonunimodular_quasinilpotent),
    ("psd-anticommutant-trivial", _prop_psd_anticommutant_trivial),
    ("commutant-relation", _prop_commutant_relation),
    ("measurement-forward", _prop_measurement_forward),
    ("gudder-nagy-random", _prop_gudder_nagy_random),
    ("gudder-nagy-structured", _prop_gudder_nagy_structured),
    ("intertwiner-construction", _prop_intertwiner_construction),
    ("intertwiner-positive-case", _prop_intertwiner_positive_case),
    ("realization-declared-factor", _prop_realization_declared_factor),
    ("clock-shift-structure", _prop_clock_shift_structure),
    ("uq-relations", _prop_uq_relations),
    ("q-bracket-symmetry", _prop_q_bracket_symmetry),
    ("jordan-uq-identification", _prop_jordan_uq_identification),
    ("exact-projection-idempotent", _prop_exact_projection_idempotent),
    ("resolvent-identity", _prop_resolvent_identity),
    ("resolvent-norm-equality", _prop_resolvent_norm_equality),
    ("transported-bound", _prop_transported_bound),
]

FIXED_PROPERTIES = [
    ("stone-oracle", _prop_stone_oracle),
    ("stone-first-order", _prop_stone_first_order),
    ("measurement-counterexample", _prop_measurement_counterexample),
]


def run_suite(cfg: SuiteConfig) -> SuiteOutcome:
    """Run every property; per-trial seeds derive from (seed, property
    index, trial index) so results are independent of execution order.

    Each job is (name, property, trial, seed); fixed properties run once,
    with trial None, and their counterexamples carry no "trial" key.
    """
    jobs = [
        (name, fn, trial, derive_seed(cfg.seed, p_index, trial))
        for p_index, (name, fn) in enumerate(RANDOMIZED_PROPERTIES)
        for trial in range(cfg.trials)
    ] + [
        (name, fn, None, derive_seed(cfg.seed, 10_000 + f_index))
        for f_index, (name, fn) in enumerate(FIXED_PROPERTIES)
    ]
    passed = 0
    failures: list[PropertyFailure] = []
    for name, fn, trial, seed in jobs:
        try:
            ok, ctx, magnitude = fn(seed, cfg)
        except FactorCommError as exc:
            ok, ctx, magnitude = False, {"error": str(exc)}, None
        if ok:
            passed += 1
            continue
        failures.append(
            PropertyFailure(
                property_name=name,
                counterexample=ctx if trial is None else {"trial": trial, **ctx},
                magnitude=None
                if magnitude is None or not np.isfinite(magnitude)
                else float(magnitude),
            )
        )
    return SuiteOutcome(passed=passed, failed=len(failures), failures=failures)


def outcome_to_json_text(outcome: SuiteOutcome) -> str:
    return json.dumps(outcome.to_json(), indent=2, sort_keys=False)
