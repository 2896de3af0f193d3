"""Seeded inputs for every workload, built with the benchmark's own numpy code.

Nothing here imports ``factorcomm``: a change to the library's samplers or
realizations cannot change the traffic.  Every case carries the answer its
construction guarantees, which the oracle checks the library against.
"""

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

CLASSIFY_SIZES = (4, 16, 64, 128)
STONE_EPSILON = 1e-3
STONE_NODES = 2000
# Interval of length 0.4 keeps the trapezoid spacing at epsilon / 5 with
# 2000 nodes; every eigenvalue stays STONE_GAP away from both endpoints.
STONE_INTERVAL = (-0.2, 0.2)
STONE_GAP = 0.05
SUITE_TRIALS = 40
SUITE_MAX_DIM = 8

UNIQUE, NONE = "UNIQUE", "NONE"
SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SXY = (SX + SY) / np.sqrt(2.0)  # with SX, the Pauli pair that has no scalar factor


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, *keys])


def _ginibre(rng, n, m=None):
    m = n if m is None else m
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2.0)


def _unitary(rng, n):
    Q, R = np.linalg.qr(_ginibre(rng, n))
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def _hermitian_from_eigs(rng, eigs):
    U = _unitary(rng, len(eigs))
    return (U * eigs) @ U.conj().T, U


def _phase(rng):
    return np.exp(2j * np.pi * rng.random())


def _shift_up(n):
    """Cyclic shift sending e_j to e_{j-1 mod n}."""
    return np.roll(np.eye(n, dtype=np.complex128), -1, axis=0)


def _lower_shift(n):
    return np.eye(n, k=-1, dtype=np.complex128)


def _growth_factor(rng, n):
    """A factor with |lam| != 1 whose (n-1)-th power stays in [2^0.5, 2^1.5]."""
    s = rng.uniform(0.5, 1.5) * rng.choice((-1.0, 1.0))
    return 2.0 ** (s / (n - 1)) * _phase(rng)


# ---------------------------------------------------------------------------
# classify: realizations with a declared factor, plus pairs with known status
# ---------------------------------------------------------------------------


@dataclass
class PairCase:
    """One classify input and the verdict its construction guarantees."""

    family: str
    n: int
    transform: str  # "plain" | "unitary" | "scaled"
    A: np.ndarray
    B: np.ndarray
    status: str
    lam: complex | None
    intertwine: bool  # Hermitian pair built to satisfy AB^2A = BA^2B

    @property
    def label(self) -> str:
        return f"{self.family}/{self.transform}/n{self.n}"


def _clock_shift(rng, n):
    omega = np.exp(2j * np.pi / n)
    return _shift_up(n), np.diag(omega ** np.arange(n)), omega


def _cyclic_shift_diag(rng, n):
    lam = np.exp(2j * np.pi * int(rng.integers(1, n)) / n)
    return _shift_up(n), np.diag(lam ** np.arange(n)), lam


def _nilpotent_diag(rng, n):
    lam = rng.uniform(1.5, 3.0) * _phase(rng)
    if rng.random() < 0.5:
        lam = 1.0 / lam
    betas = _ginibre(rng, n, 1).ravel() + 2.0 * _phase(rng)
    pivot = int(rng.integers(1, n))
    betas[pivot] = lam * betas[pivot - 1]
    A = np.zeros((n, n), dtype=np.complex128)
    A[pivot - 1, pivot] = 1.0
    return A, np.diag(betas), lam


def _jordan(rng, n):
    """B the lower shift, A[i, j] = lam^j * a[i - j]: AB = lam BA exactly."""
    lam = _growth_factor(rng, n)
    a = _ginibre(rng, n, 1).ravel() * 0.7 ** np.arange(n)
    a[0] = 1.0 + 0.5 * _phase(rng)
    i, j = np.indices((n, n))
    A = np.where(i >= j, lam**j * a[np.clip(i - j, 0, n - 1)], 0.0)
    return A, _lower_shift(n), lam


def _pauli(rng, n):
    """(sigma_x (x) H, sigma_y (x) H) anticommute for Hermitian H."""
    H, _ = _hermitian_from_eigs(rng, rng.uniform(0.5, 2.0, n // 2))
    return np.kron(SX, H), np.kron(SY, H), -1.0 + 0j


def _uq_sl2(rng, n):
    """(K, F) of the n-dimensional simple U_q(sl2) module: KF = q^-2 FK."""
    q = np.sqrt(_growth_factor(rng, n))
    sign = rng.choice((-1.0, 1.0))
    K = np.diag(sign * q ** ((n - 1) - 2.0 * np.arange(n)))
    return K, _lower_shift(n), complex(q**-2)


REALIZATIONS = {
    "clock-shift": (_clock_shift, False),
    "cyclic-shift-diag": (_cyclic_shift_diag, False),
    "nilpotent-diag": (_nilpotent_diag, False),
    "jordan": (_jordan, False),
    "pauli": (_pauli, True),
    "uq-sl2": (_uq_sl2, False),
}


def _transformed(rng, family, n, transform, A, B, lam, hermitian):
    if transform == "unitary":
        U = _unitary(rng, n)
        A, B = U @ A @ U.conj().T, U @ B @ U.conj().T
        if hermitian:
            A, B = (A + A.conj().T) / 2.0, (B + B.conj().T) / 2.0
    elif transform == "scaled":
        mags = 10.0 ** rng.uniform(-2.0, 2.0, 2)
        if hermitian:
            alpha, beta = mags * rng.choice((-1.0, 1.0), 2)
        else:
            alpha, beta = mags[0] * _phase(rng), mags[1] * _phase(rng)
        A, B = alpha * A, beta * B
    return PairCase(family, n, transform, A, B, UNIQUE, complex(lam), hermitian)


def classify_cases(seed: int, n: int, draw: int) -> list[PairCase]:
    """Every family at dimension n: each realization plain, unitarily
    conjugated and scaled, then a Ginibre pair (no factor), a commuting
    Hermitian pair (factor 1) and a Pauli-tensor Hermitian pair (no scalar
    factor, but a unitary intertwiner)."""
    out = []
    for f_index, (family, (build, hermitian)) in enumerate(REALIZATIONS.items()):
        for t_index, transform in enumerate(("plain", "unitary", "scaled")):
            rng = rng_for(seed, 1, n, draw, f_index, t_index)
            A, B, lam = build(rng, n)
            out.append(_transformed(rng, family, n, transform, A, B, lam, hermitian))
    rng = rng_for(seed, 2, n, draw)
    out.append(PairCase("ginibre", n, "plain", _ginibre(rng, n), _ginibre(rng, n), NONE, None, False))
    U = _unitary(rng, n)
    A = (U * rng.standard_normal(n)) @ U.conj().T
    B = (U * rng.standard_normal(n)) @ U.conj().T
    out.append(PairCase("commuting", n, "plain", A, B, UNIQUE, 1.0 + 0j, True))
    m = n // 2
    V = _unitary(rng, m)
    H1 = (V * rng.uniform(0.5, 2.0, m)) @ V.conj().T
    H2 = (V * rng.uniform(0.5, 2.0, m)) @ V.conj().T
    out.append(PairCase("pauli-tensor", n, "plain", np.kron(SX, H1), np.kron(SXY, H2), NONE, None, True))
    return out


# ---------------------------------------------------------------------------
# stone: Hermitian matrices with a known spectrum
# ---------------------------------------------------------------------------


@dataclass
class StoneCase:
    n: int
    A: np.ndarray
    projection: np.ndarray  # exact spectral projection onto the interval
    rule: str
    error_bound: float

    @property
    def label(self) -> str:
        return f"stone/{self.rule}/n{self.n}"


def stone_error_bound(n: int) -> float:
    """Bound on ||P_eps - P||_F fixed by epsilon and the endpoint gap.

    The Poisson-smoothed indicator misses each eigenvalue's weight by at
    most 2 eps / (pi gap); the eigenvalues are orthogonal, so the Frobenius
    error is at most sqrt(n) times that.  1e-6 covers the quadrature error
    at spacing eps / 5.
    """
    return float(np.sqrt(n) * 2.0 * STONE_EPSILON / (np.pi * STONE_GAP) + 1e-6)


def stone_case(seed: int, n: int, draw: int, rule: str) -> StoneCase:
    rng = rng_for(seed, 3, n, draw)
    a, b = STONE_INTERVAL
    n_in = n // 4
    inside = rng.uniform(a + STONE_GAP, b - STONE_GAP, n_in)
    below = rng.uniform(-2.0, a - STONE_GAP, (n - n_in) // 2)
    above = rng.uniform(b + STONE_GAP, 2.0, n - n_in - below.size)
    eigs = np.concatenate([inside, below, above])
    A, U = _hermitian_from_eigs(rng, eigs)
    cols = U[:, :n_in]
    return StoneCase(n, A, cols @ cols.conj().T, rule, stone_error_bound(n))


# ---------------------------------------------------------------------------
# cli-cold: one process per command, files written by the benchmark
# ---------------------------------------------------------------------------


def matrix_json(M) -> dict:
    M = np.asarray(M, dtype=np.complex128)
    return {
        "rows": M.shape[0],
        "cols": M.shape[1],
        "data": [[float(z.real), float(z.imag)] for z in M.ravel()],
    }


def matrix_from(obj) -> np.ndarray:
    data = np.array(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def _pair_json(A, B, lam=None) -> str:
    lam_json = None if lam is None else [float(np.real(lam)), float(np.imag(lam))]
    return json.dumps({"A": matrix_json(A), "B": matrix_json(B), "declared_lambda": lam_json, "label": ""})


def _arg(z) -> str:
    z = complex(z)
    return f"{z.real!r},{z.imag!r}"


@dataclass
class CliCase:
    """One CLI invocation; ``expect`` holds what its inputs guarantee."""

    kind: str
    argv: list
    files: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"cli/{self.kind}/{self.argv[1] if len(self.argv) > 1 else ''}"


def _generate_cases(rng) -> list[CliCase]:
    k = int(rng.integers(2, 9))
    N = int(rng.integers(3, 9))
    lam_c = np.exp(2j * np.pi * int(rng.integers(1, N)) / N)
    lam_n = rng.uniform(1.5, 3.0) * _phase(rng)
    betas = [complex(b) for b in _ginibre(rng, 3, 1).ravel() + 2.0]
    pivot = int(rng.integers(1, 3))
    betas[pivot] = lam_n * betas[pivot - 1]
    lam_j = rng.uniform(0.5, 2.0) * _phase(rng)
    x, y, z = (complex(v) for v in _ginibre(rng, 3, 1).ravel() + 1.0)
    q = rng.uniform(1.2, 2.0) * _phase(rng)
    m = int(rng.integers(1, 5))
    eps = int(rng.choice((-1, 1)))
    runs = [
        (["clock-shift", "--n", str(k)], {"lam": np.exp(2j * np.pi / k)}),
        (["cyclic-shift-diag", "--n", str(N), f"--lambda={_arg(lam_c)}"], {"lam": lam_c}),
        (
            ["nilpotent-diag", f"--betas={';'.join(map(_arg, betas))}", "--pivot", str(pivot)]
            + [f"--lambda={_arg(lam_n)}"],
            {"lam": lam_n},
        ),
        (["jordan2", f"--x={_arg(x)}", f"--y={_arg(y)}", f"--lambda={_arg(lam_j)}"], {"lam": lam_j}),
        (["jordan3", f"--x={_arg(x)}", f"--y={_arg(y)}", f"--z={_arg(z)}", f"--lambda={_arg(lam_j)}"], {"lam": lam_j}),
        (["pauli-xy"], {"lam": -1.0 + 0j}),
        (["pauli-intertwiner"], {"A": SX, "B": SXY}),
        (["uq-sl2", "--n", str(m), f"--q={_arg(q)}", "--eps", str(eps)], {"lam": q**-2}),
    ]
    return [CliCase("generate", ["generate", "--kind", *argv], expect=expect) for argv, expect in runs]


def _malformed_cases() -> list[CliCase]:
    I2, X = matrix_json(np.eye(2)), matrix_json(SX)
    nan_pair = json.dumps({"A": I2, "B": X}).replace("[1.0, 0.0]", "[NaN, 0.0]", 1)
    texts = {
        "not-json": "{",
        "not-object": "[1, 2]",
        "missing-b": json.dumps({"A": I2}),
        "non-square": json.dumps({"A": matrix_json(np.ones((2, 3))), "B": matrix_json(np.ones((2, 3)))}),
        "dim-mismatch": json.dumps({"A": I2, "B": matrix_json(np.eye(3))}),
        "short-data": json.dumps({"A": {"rows": 2, "cols": 2, "data": [[1.0, 0.0]]}, "B": X}),
        "nan-entry": nan_pair,
        "string-entry": json.dumps({"A": {"rows": 2, "cols": 2, "data": [["a", 0]] + [[0, 0]] * 3}, "B": X}),
        "lambda-string": json.dumps({"A": I2, "B": X, "declared_lambda": "x"}),
        "lambda-short": json.dumps({"A": I2, "B": X, "declared_lambda": [1]}),
        "lambda-null": json.dumps({"A": I2, "B": X, "declared_lambda": [None, 1]}),
    }
    return [
        CliCase(
            "malformed",
            ["analyze", f"bad-{name}.json"],
            files={f"bad-{name}.json": text},
            expect={"defect": "declared-lambda-input" if name.startswith("lambda-") else ""},
        )
        for name, text in texts.items()
    ]


def cli_cases(seed: int) -> list[CliCase]:
    """One pass of CLI traffic: every generate kind, analyze on 4x4 pairs,
    intertwine, commutant, stone, a short suite, and malformed pair files,
    interleaved so that any stretch of the pass holds a similar mix."""
    rng = rng_for(seed, 4)
    valid = _generate_cases(rng)
    for case in classify_cases(seed, 4, 0)[::5]:
        name = f"pair-{case.family}-{case.transform}.json"
        files = {name: _pair_json(case.A, case.B, case.lam)}
        valid.append(CliCase("analyze", ["analyze", name], files, {"case": case}))
    valid.append(CliCase("intertwine", ["intertwine", "pauli.json"], {"pauli.json": _pair_json(SX, SXY)}))
    n = 4
    U = _unitary(rng, n)
    omega = np.exp(2j * np.pi / n)
    A = (U * omega ** np.arange(n)) @ U.conj().T
    lam = omega ** int(rng.integers(1, n))
    valid.append(
        CliCase(
            "commutant",
            ["commutant", "normal.json", f"--lambda={_arg(lam)}"],
            {"normal.json": json.dumps(matrix_json(A))},
            {"A": A, "lam": lam, "dimension": n},
        )
    )
    valid.append(
        CliCase(
            "stone",
            ["stone", "diag123.json", "--a", "1.5", "--b", "2.5"],
            {"diag123.json": json.dumps(matrix_json(np.diag([1.0, 2.0, 3.0])))},
            {"projection": np.diag([0.0, 1.0, 0.0]), "bound": np.sqrt(3.0) * 2e-3 / (np.pi * 0.5) + 1e-6},
        )
    )
    valid.append(CliCase("suite", ["suite", "--trials", "20", "--seed", str(int(rng.integers(1 << 31)))]))
    bad = _malformed_cases()
    out = []
    while valid or bad:
        out += valid[:2] + bad[:1]
        valid, bad = valid[2:], bad[1:]
    return out


# ---------------------------------------------------------------------------
# suite: in-process property-suite runs
# ---------------------------------------------------------------------------


def suite_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in rng_for(seed, 5).integers(0, 1 << 31, count)]


# ---------------------------------------------------------------------------
# digest
# ---------------------------------------------------------------------------


def digest(items) -> str:
    """SHA-256 over every array and scalar of the generated inputs."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(str(x.dtype).encode() + str(x.shape).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for y in x:
                feed(y)
            h.update(b"]")
        elif hasattr(x, "__dataclass_fields__"):
            for name in x.__dataclass_fields__:
                h.update(name.encode())
                feed(getattr(x, name))
        else:
            h.update(json.dumps(x, default=repr, sort_keys=True).encode())

    feed(list(items))
    return h.hexdigest()
