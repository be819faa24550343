"""Sparsifying dictionaries: DCT and Haar wavelet-packet atom matrices.

Both families are built from deterministic closed forms so the same
(n, p) always yields bitwise-identical atoms.  Complete versions are
orthonormal; overcomplete versions have unit-norm columns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .paramselect import mutual_coherence

__all__ = [
    "Dictionary",
    "dct_dictionary",
    "haar_wp_dictionary",
    "normalize_columns",
    "spectral_norm_sq",
]


def spectral_norm_sq(A, tol: float = 1e-10, max_iter: int = 100_000) -> float:
    """Largest eigenvalue of A.T @ A by power iteration.

    Iterates v <- A.T @ (A @ v) from a fixed pseudorandom start until the
    Rayleigh quotient is stable to the relative tolerance.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    if not np.any(A):
        raise ValueError("spectral norm of an all-zero matrix is degenerate")
    p = A.shape[1]
    v = np.random.default_rng(0).standard_normal(p)
    v /= np.linalg.norm(v)
    previous = 0.0
    for _ in range(max_iter):
        w = A.T @ (A @ v)
        value = float(v @ w)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            # v landed in the null space; restart from a shifted vector.
            v = v + 1.0 / p
            v /= np.linalg.norm(v)
            continue
        v = w / norm
        if abs(value - previous) <= tol * max(abs(value), 1e-300):
            return value
        previous = value
    return previous


@dataclass(frozen=True)
class Dictionary:
    """Column-normalized atom matrix with cached spectral facts.

    ``atoms`` is (n, p) with unit-norm columns; ``spectral_norm_sq`` is
    the largest eigenvalue of the Gram matrix and ``coherence`` the
    largest off-diagonal Gram entry in absolute value, computed on first
    read (it forms the p x p Gram matrix, which solving never needs).
    """

    atoms: np.ndarray
    spectral_norm_sq: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        atoms = np.array(self.atoms, dtype=float)
        if atoms.ndim != 2 or atoms.shape[1] < 2:
            raise ValueError("expected an (n, p) matrix with p >= 2")
        norms = np.linalg.norm(atoms, axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-10):
            raise ValueError("every atom must have unit norm (within 1e-10)")
        atoms.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        if self.spectral_norm_sq is None:
            object.__setattr__(self, "spectral_norm_sq", spectral_norm_sq(atoms))

    @functools.cached_property
    def coherence(self) -> float:
        return mutual_coherence(self.atoms)

    @property
    def n(self) -> int:
        return self.atoms.shape[0]

    @property
    def p(self) -> int:
        return self.atoms.shape[1]

    def to_csv(self, path) -> None:
        """Write the atoms for inspection: a "n,p" header line, the two
        sizes, then the matrix row-major, one image row per line."""
        lines = ["n,p", f"{self.n},{self.p}"]
        for row in self.atoms:
            lines.append(",".join(f"{v:.17g}" for v in row))
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def normalize_columns(A) -> Dictionary:
    """Scale every column of A to unit norm and wrap it as a Dictionary."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    norms = np.linalg.norm(A, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero column")
    return Dictionary(A / norms)


def dct_dictionary(n: int, p: int) -> Dictionary:
    """Cosine dictionary with p frequencies sampled on n points.

    For p = n this is the orthonormal DCT-II basis; for p > n it is an
    oversampled-frequency cosine frame with renormalized columns.
    """
    n = int(n)
    p = int(p)
    if n < 2:
        raise ValueError("n must be at least 2")
    if p < n:
        raise ValueError("p must be at least n")
    i = np.arange(n, dtype=float)[:, None]
    k = np.arange(p, dtype=float)[None, :]
    atoms = np.cos(np.pi * k * (2.0 * i + 1.0) / (2.0 * p))
    return normalize_columns(atoms)


def _haar_packet_basis(n: int, depth: int) -> np.ndarray:
    """Orthonormal uniform-depth Haar wavelet-packet basis of R^n.

    Subbands are ordered lowpass-first at every split, so the first atom
    of the full-depth basis is the constant vector 1/sqrt(n).
    """
    blocks = [np.eye(n)]
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for _ in range(depth):
        split = []
        for block in blocks:
            width = block.shape[1]
            half = width // 2
            low = np.zeros((width, half))
            high = np.zeros((width, half))
            cols = np.arange(half)
            low[2 * cols, cols] = inv_sqrt2
            low[2 * cols + 1, cols] = inv_sqrt2
            high[2 * cols, cols] = inv_sqrt2
            high[2 * cols + 1, cols] = -inv_sqrt2
            split.append(block @ low)
            split.append(block @ high)
        blocks = split
    return np.hstack(blocks)


def haar_wp_dictionary(n: int, p: int) -> Dictionary:
    """Haar wavelet-packet dictionary.

    For p = n, the full-depth packet basis (orthonormal).  For p = 2n,
    the union of the full-depth and depth-minus-one packet bases with
    renormalized columns.  n must be a power of two.
    """
    n = int(n)
    p = int(p)
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError("n must be a power of two, at least 2")
    if p not in (n, 2 * n):
        raise ValueError("p must be n or 2n")
    depth = n.bit_length() - 1
    full = _haar_packet_basis(n, depth)
    if p == n:
        return normalize_columns(full)
    coarse = _haar_packet_basis(n, depth - 1)
    return normalize_columns(np.hstack([full, coarse]))
