"""Seeded random matrix generators used by checks and the property suite.

Per-trial seeds derive from the user seed through a splitmix64 expansion,
so trials are reproducible and independent of execution order.
"""

from __future__ import annotations  # keeps numpy.random unloaded until a draw

import numpy as np

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One step of the splitmix64 sequence (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(seed: int, *indices: int) -> int:
    """Expand a base seed with trial/property indices, xor-then-mix."""
    s = seed & _MASK
    for i in indices:
        s = splitmix64(s ^ (i & _MASK))
    return s


def rng_for(seed: int, *indices: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, *indices))


def ginibre(rng: np.random.Generator, n: int, m: int | None = None) -> np.ndarray:
    """Matrix with i.i.d. standard complex Gaussian entries."""
    m = n if m is None else m
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2.0)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    G = ginibre(rng, n)
    return (G + G.conj().T) / 2.0


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre sample."""
    Q, R = np.linalg.qr(ginibre(rng, n))
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def random_psd(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    """Random PSD matrix G G*; rank-deficient when rank < n."""
    rank = n if rank is None else rank
    G = ginibre(rng, n, rank)
    return G @ G.conj().T

