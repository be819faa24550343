"""Sampling masks, patch gridding, and synthetic sparse signals.

All randomness flows through numpy's SeedSequence so any consumer can
derive independent, reproducible substreams from (master seed, tags).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionaries import Dictionary

__all__ = [
    "SamplingMask",
    "PatchGrid",
    "SyntheticSparseSignal",
    "substream",
    "random_mask",
    "apply_mask",
    "extract_patches",
    "reassemble",
    "synth_sparse_signal",
]


def substream(*keys: int) -> np.random.Generator:
    """Deterministic generator keyed by a tuple of integers."""
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in keys]))


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (tuple, list)):
        return substream(*seed)
    return substream(int(seed))


@dataclass(frozen=True)
class SamplingMask:
    """Observed-index set of size m out of n positions."""

    n: int
    observed: np.ndarray

    def __post_init__(self):
        observed = np.unique(np.asarray(self.observed, dtype=np.int64))
        if observed.size != np.asarray(self.observed).size:
            raise ValueError("observed indices must be unique")
        if observed.size < 1 or observed.size > self.n:
            raise ValueError("need between 1 and n observed indices")
        if observed[0] < 0 or observed[-1] >= self.n:
            raise ValueError("observed indices out of range")
        observed.flags.writeable = False
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "n", int(self.n))

    @property
    def m(self) -> int:
        return int(self.observed.size)

    @property
    def sampling_ratio(self) -> float:
        return self.m / self.n

    def indicator(self) -> np.ndarray:
        """0/1 vector with ones at the observed positions."""
        ind = np.zeros(self.n)
        ind[self.observed] = 1.0
        return ind


def random_mask(n: int, m: int, seed) -> SamplingMask:
    """Uniform m-subset of the n positions, deterministic per seed."""
    n = int(n)
    m = int(m)
    if not 1 <= m <= n:
        raise ValueError("m must lie in [1, n]")
    rng = _as_generator(seed)
    observed = np.sort(rng.choice(n, size=m, replace=False))
    return SamplingMask(n=n, observed=observed)


def apply_mask(x, mask: SamplingMask) -> np.ndarray:
    """Zero the unobserved entries; idempotent."""
    x = np.asarray(x, dtype=float)
    if x.shape != (mask.n,):
        raise ValueError(f"expected a length-{mask.n} vector")
    out = np.zeros(mask.n)
    out[mask.observed] = x[mask.observed]
    return out


@dataclass(frozen=True)
class PatchGrid:
    """Placement of square patches over an image.

    Patches are vectorized in raster-scan (row-major) order.  When the
    stride does not divide the image exactly, the last row/column of
    patches is clamped to the border, so every pixel is covered at least
    once and overlaps are averaged on reassembly.
    """

    height: int
    width: int
    side: int = 8
    stride: int = 8

    def __post_init__(self):
        if self.height < self.side or self.width < self.side:
            raise ValueError("image smaller than one patch")
        if self.side < 1 or self.stride < 1:
            raise ValueError("side and stride must be positive")

    @staticmethod
    def _starts(extent: int, side: int, stride: int) -> list[int]:
        starts = list(range(0, extent - side + 1, stride))
        if starts[-1] != extent - side:
            starts.append(extent - side)
        return starts

    @property
    def positions(self) -> list[tuple[int, int]]:
        rows = self._starts(self.height, self.side, self.stride)
        cols = self._starts(self.width, self.side, self.stride)
        return [(r, c) for r in rows for c in cols]


def extract_patches(image, grid: PatchGrid) -> np.ndarray:
    """Stack of raster-vectorized patches, one per grid position."""
    image = np.asarray(image, dtype=float)
    if image.shape != (grid.height, grid.width):
        raise ValueError("image does not match the grid")
    side = grid.side
    return np.stack(
        [image[r : r + side, c : c + side].reshape(-1) for r, c in grid.positions]
    )


def reassemble(patches, grid: PatchGrid) -> np.ndarray:
    """Average overlapping patch contributions back into an image."""
    patches = np.asarray(patches, dtype=float)
    positions = grid.positions
    if patches.shape != (len(positions), grid.side * grid.side):
        raise ValueError("patch stack does not match the grid")
    acc = np.zeros((grid.height, grid.width))
    count = np.zeros((grid.height, grid.width))
    side = grid.side
    for patch, (r, c) in zip(patches, positions):
        acc[r : r + side, c : c + side] += patch.reshape(side, side)
        count[r : r + side, c : c + side] += 1.0
    return acc / count


@dataclass(frozen=True)
class SyntheticSparseSignal:
    """Exactly k-sparse coefficients and the signal they synthesize."""

    s: np.ndarray
    x: np.ndarray
    support: np.ndarray
    k: int


def synth_sparse_signal(D: Dictionary, k: int, seed) -> SyntheticSparseSignal:
    """k-sparse coefficient vector with uniform support and standard
    normal values, synthesized through the dictionary."""
    p = D.p
    k = int(k)
    if not 1 <= k <= p:
        raise ValueError("k must lie in [1, p]")
    rng = _as_generator(seed)
    support = np.sort(rng.choice(p, size=k, replace=False))
    values = rng.standard_normal(k)
    s = np.zeros(p)
    s[support] = values
    x = D.atoms @ s
    for arr in (s, x, support):
        arr.flags.writeable = False
    return SyntheticSparseSignal(s=s, x=x, support=support, k=k)
