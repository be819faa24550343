"""Sampling masks, patch gridding, and synthetic sparse signals.

All randomness flows through numpy's SeedSequence so any consumer can
derive independent, reproducible substreams from (master seed, tags).
"""

from __future__ import annotations

import operator
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
        try:
            n = operator.index(self.n)
        except TypeError:
            raise ValueError(f"n must be an integer, got {self.n!r}") from None
        observed = np.array(self.observed).reshape(-1)  # the mask's own copy
        if observed.size and observed.dtype.kind not in "iu":
            # A cast would truncate fractional indices and read a boolean
            # indicator as the indices 0 and 1.
            raise ValueError(f"observed indices must be integers, got dtype {observed.dtype}")
        observed = observed.astype(np.int64, copy=False)
        if np.count_nonzero(observed[1:] <= observed[:-1]):
            # Not strictly increasing: sort, and reject repeats.  Sorted
            # input (every mask ``random_mask`` draws) skips the sort.
            unique = np.unique(observed)
            if unique.size != observed.size:
                raise ValueError("observed indices must be unique")
            observed = unique
        if observed.size < 1 or observed.size > n:
            raise ValueError("need between 1 and n observed indices")
        if observed[0] < 0 or observed[-1] >= n:
            raise ValueError("observed indices out of range")
        observed.flags.writeable = False
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "n", n)

    @property
    def m(self) -> int:
        return int(self.observed.size)

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

    Patches step by their side and are vectorized in raster-scan
    (row-major) order.  When the side does not divide an image side, the
    last row/column of patches is clamped to the border, so every pixel
    is covered at least once and overlaps are averaged on reassembly.
    """

    height: int
    width: int
    side: int = 8

    def __post_init__(self):
        if self.height < self.side or self.width < self.side:
            raise ValueError("image smaller than one patch")
        if self.side < 1:
            raise ValueError("side must be positive")

    @staticmethod
    def _starts(extent: int, side: int) -> list[int]:
        starts = list(range(0, extent - side + 1, side))
        if starts[-1] != extent - side:
            starts.append(extent - side)
        return starts

    @property
    def positions(self) -> list[tuple[int, int]]:
        rows = self._starts(self.height, self.side)
        cols = self._starts(self.width, self.side)
        return [(r, c) for r in rows for c in cols]


def _patch_indices(grid: PatchGrid) -> np.ndarray:
    """(patches, side*side) indices into the raster-flattened image: row
    i holds the pixels of patch i in raster order."""
    side = grid.side
    offsets = (np.arange(side)[:, None] * grid.width + np.arange(side)).reshape(-1)
    rows = np.array(grid._starts(grid.height, side))
    cols = np.array(grid._starts(grid.width, side))
    origins = (rows[:, None] * grid.width + cols).reshape(-1)
    return origins[:, None] + offsets


def _tiles(grid: PatchGrid) -> tuple[int, int] | None:
    """(patch rows, patch columns) when the patches tile the image
    exactly, each pixel in one patch; None for clamped grids."""
    side = grid.side
    if grid.height % side or grid.width % side:
        return None
    return grid.height // side, grid.width // side


def extract_patches(image, grid: PatchGrid) -> np.ndarray:
    """Stack of raster-vectorized patches, one per grid position.  An
    exact tiling is a reshape of the image; other grids gather by index."""
    image = np.asarray(image, dtype=float)
    if image.shape != (grid.height, grid.width):
        raise ValueError("image does not match the grid")
    tiles = _tiles(grid)
    if tiles is not None:
        rows, cols = tiles
        side = grid.side
        return image.reshape(rows, side, cols, side).transpose(0, 2, 1, 3).reshape(-1, side * side)
    return image.reshape(-1)[_patch_indices(grid)]


def reassemble(patches, grid: PatchGrid) -> np.ndarray:
    """Average overlapping patch contributions back into an image.

    Each pixel sums its contributions in patch order, as a loop over
    the patches would, from +0.0.  An exact tiling writes each patch back
    in place; other grids scatter by index."""
    patches = np.asarray(patches, dtype=float)
    tiles = _tiles(grid)
    if tiles is not None:
        rows, cols = tiles
        side = grid.side
        if patches.shape != (rows * cols, side * side):
            raise ValueError("patch stack does not match the grid")
        image = np.empty((grid.height, grid.width))
        # The one contribution of each pixel, added to +0.0 as in the sum:
        # a -0.0 sample comes back as +0.0.
        np.add(
            patches.reshape(rows, cols, side, side).transpose(0, 2, 1, 3),
            0.0,
            out=image.reshape(rows, side, cols, side),
        )
        return image
    index = _patch_indices(grid)
    if patches.shape != index.shape:
        raise ValueError("patch stack does not match the grid")
    pixels = grid.height * grid.width
    acc = np.bincount(index.reshape(-1), weights=patches.reshape(-1), minlength=pixels)
    acc /= np.bincount(index.reshape(-1), minlength=pixels)
    return acc.reshape(grid.height, grid.width)


@dataclass(frozen=True)
class SyntheticSparseSignal:
    """Exactly k-sparse coefficients and the signal they synthesize."""

    s: np.ndarray
    x: np.ndarray
    support: np.ndarray
    k: int


def _draw_code(code: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a k-sparse code into the zero row ``code`` (uniform support and
    standard normal values, from ``rng``) and return its support."""
    if not 1 <= k <= code.size:
        raise ValueError("k must lie in [1, p]")
    support = np.sort(rng.choice(code.size, size=k, replace=False))
    code[support] = rng.standard_normal(k)
    return support


def synth_sparse_signal(D: Dictionary, k: int, seed) -> SyntheticSparseSignal:
    """k-sparse coefficient vector with uniform support and standard
    normal values, synthesized through the dictionary."""
    k = int(k)
    s = np.zeros(D.p)
    support = _draw_code(s, k, _as_generator(seed))
    x = D.atoms @ s
    for arr in (s, x, support):
        arr.flags.writeable = False
    return SyntheticSparseSignal(s=s, x=x, support=support, k=k)
