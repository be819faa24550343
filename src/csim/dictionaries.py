"""Sparsifying dictionaries: DCT and Haar wavelet-packet atom matrices.

Both families are built from deterministic closed forms so the same
(n, p) always yields bitwise-identical atoms.  Complete versions are
orthonormal; overcomplete versions have unit-norm columns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .paramselect import mutual_coherence

__all__ = [
    "Dictionary",
    "dct_dictionary",
    "haar_wp_dictionary",
    "normalize_columns",
    "spectral_norm_sq",
]


def _synthesize(atoms, s) -> np.ndarray:
    """atoms @ s for each row of s.

    The stacked product gives each row the bits of the one-vector
    product ``atoms @ s`` whatever the number of rows; a plain GEMM
    ``s @ atoms.T`` does not.  A single vector takes that product
    directly.
    """
    if s.ndim == 1:
        return atoms @ s
    return (s[..., None, :] @ atoms.T)[..., 0, :]


def _analyze(atoms, r) -> np.ndarray:
    """atoms.T @ r for each row of r (stacked, as in ``_synthesize``)."""
    if r.ndim == 1:
        return r @ atoms
    return (r[..., None, :] @ atoms)[..., 0, :]


def _dot(a, b):
    """Dot product of each pair of rows (the bits of ``a @ b``), as a
    per-row value: a scalar for 1-D arrays, else a (B, 1) column.  Two
    vectors take ``a.dot(b)``, which has vecdot's bits at a fraction of
    its call cost."""
    if a.ndim == 1:
        return a.dot(b)
    return np.vecdot(a, b, keepdims=True)


_POWER_ITERATIONS = 100_000  # the cap of spectral_norm_sq's power iteration


@functools.cache
def _power_start(p: int) -> np.ndarray:
    """spectral_norm_sq's fixed start for length ``p``: a
    ``default_rng(0)`` normal draw over its norm, drawn once per length
    and read-only."""
    v = np.random.default_rng(0).standard_normal(p)
    v /= np.linalg.norm(v)
    v.flags.writeable = False
    return v


def spectral_norm_sq(A, *, observed=None):
    """Largest eigenvalue of A.T @ A by power iteration.

    Iterates v <- A.T @ (A @ v) from a fixed pseudorandom start (one
    per length p, drawn on first use) until the Rayleigh quotient is
    stable to a relative 1e-10.  With ``observed``, a (B, n) stack of
    0/1 rows, it returns as a length-B array the value of every masked
    matrix diag(o_b) A, iterating
    v <- A.T (o_b * (A v)) on all rows at once without forming those
    matrices; each row stops on its own test and has the bits of a
    single-matrix call on its masked matrix.  Raises ``RuntimeError``
    if any row has not converged after 100,000 iterations.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    rows = np.ones((1, A.shape[0])) if observed is None else np.asarray(observed, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != A.shape[0]:
        raise ValueError("expected one 0/1 row of observed positions per matrix")
    if np.count_nonzero(~((rows != 0) @ np.any(A != 0, axis=1))):
        raise ValueError("spectral norm of an all-zero matrix is degenerate")
    p = A.shape[1]
    values = np.zeros(len(rows))
    active = np.arange(len(rows))  # input row of each working row
    v = _power_start(p)
    if len(rows) == 1:
        # A single row runs on 1-D arrays, as in the solvers; the bits are the same.
        V, rows = v, rows[0]
    else:
        V = np.tile(v, (len(rows), 1))
    previous = 0.0
    for _ in range(_POWER_ITERATIONS):
        W = _analyze(A, rows * _synthesize(A, V))
        value = _dot(V, W)
        norm = np.sqrt(_dot(W, W))
        restart = norm == 0.0
        if np.count_nonzero(restart):
            # v landed in the null space; restart from a shifted vector.
            shifted = V + 1.0 / p
            W = np.where(restart, shifted, W)
            norm = np.where(restart, np.sqrt(_dot(shifted, shifted)), norm)
        V = W / norm
        done = ~restart & (np.abs(value - previous) <= 1e-10 * np.maximum(np.abs(value), 1e-300))
        previous = np.where(restart, previous, value)
        if not np.count_nonzero(done):
            continue
        done = np.reshape(done, -1)
        values[active[done]] = np.reshape(value, -1)[done]
        keep = ~done
        if not np.count_nonzero(keep):
            break
        active, V, rows, previous = (a[keep] for a in (active, V, rows, previous))
    else:
        raise RuntimeError(f"power iteration did not converge in {_POWER_ITERATIONS} iterations")
    return values if observed is not None else float(values[0])


@dataclass(frozen=True)
class Dictionary:
    """Column-normalized atom matrix with cached spectral facts.

    ``atoms`` is (n, p) with unit-norm columns; a non-finite atom fails
    that test.  ``spectral_norm_sq`` is ||D||^2, the largest eigenvalue
    of the Gram matrix, and ``coherence`` the largest off-diagonal Gram
    entry in absolute value.  Both are computed on first read (they form
    a Gram matrix, which the baselines never need).
    """

    atoms: np.ndarray

    def __post_init__(self):
        atoms = np.array(self.atoms, dtype=float)
        if atoms.ndim != 2 or atoms.shape[1] < 2:
            raise ValueError("expected an (n, p) matrix with p >= 2")
        norms = np.linalg.norm(atoms, axis=0)
        if not np.all(np.abs(norms - 1.0) <= 1e-10):  # a nan norm fails too
            raise ValueError("every atom must have unit norm (within 1e-10)")
        atoms.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)

    @functools.cached_property
    def coherence(self) -> float:
        return mutual_coherence(self.atoms)

    @functools.cached_property
    def spectral_norm_sq(self) -> float:
        """||D||^2: the largest ``np.linalg.eigvalsh`` eigenvalue of the
        smaller Gram matrix.  The symmetric eigensolver is backward stable
        (Golub & Van Loan, section 8.3); on the library's DCT and Haar
        shapes this value lies within 1.2e-14 relative of
        ``np.linalg.norm(atoms, 2)**2``."""
        short = self.atoms if self.n <= self.p else self.atoms.T
        # A stacked product, one matrix-vector product per row: a matrix
        # product would touch BLAS's matrix-product buffers, which a one-row
        # solve never does (about 0.25 MiB of peak memory with OpenBLAS).
        gram = _analyze(short.T, short)
        return float(np.linalg.eigvalsh(gram)[-1])

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
    if not np.all((norms > 0.0) & (norms < np.inf)):  # a nan norm fails too
        raise ValueError("cannot normalize a zero or non-finite column")
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
