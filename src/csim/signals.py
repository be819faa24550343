"""Sampling masks, patch gridding, and synthetic sparse signals.

All randomness flows through substreams keyed by tuples of integers
(master seed, tags): each is the PCG64 stream that numpy's
``SeedSequence`` of those keys seeds, so any consumer can derive
independent, reproducible substreams.  ``substreams`` seeds a whole
batch of key tuples in one vectorized pass.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .dictionaries import Dictionary

__all__ = [
    "SamplingMask",
    "PatchGrid",
    "SyntheticSparseSignal",
    "substream",
    "substreams",
    "random_mask",
    "apply_mask",
    "extract_patches",
    "reassemble",
    "synth_sparse_signal",
]


# numpy's SeedSequence (numpy/random/bit_generator.pyx): its pool size,
# the hash constants of its entropy mixing (A) and of generate_state (B),
# and the multipliers and shift of its mix and hash functions.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L = np.array(0xCA01F9DD, dtype=np.uint32)
_MIX_R = np.array(0x4973F715, dtype=np.uint32)
_SHIFT = np.array(16, dtype=np.uint32)
_MASK32 = 0xFFFFFFFF


@functools.cache
def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The hash constant before each of ``calls`` hashes and after the
    last, init * mult**i mod 2**32, as read-only uint32."""
    values = [init]
    for _ in range(calls):
        values.append(values[-1] * mult & _MASK32)
    out = np.array(values, dtype=np.uint32)
    out.flags.writeable = False
    return out


def _operands(constants: np.ndarray, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) operands of ``count`` successive hash calls from
    call number ``first``."""
    return constants[first : first + count], constants[first + 1 : first + count + 1]


# Operands of the 16 hash calls that fill and mix the pool: calls 4 + 3 src
# to 6 + 3 src hash pool word src into the three others in order (src's
# own slot gets zeros, and its result is dropped).  Then those of the 8
# calls of generate_state(4, np.uint64), whose word i is pool word i % 4.
_FILL = _operands(_hash_constants(_INIT_A, _MULT_A, 16), 0, _POOL_SIZE)
_SPREAD = tuple(
    tuple(np.insert(op, src, 0) for op in _operands(_hash_constants(_INIT_A, _MULT_A, 16), _POOL_SIZE + 3 * src, 3))
    for src in range(_POOL_SIZE)
)
_OUTPUT = tuple(op.reshape(2, _POOL_SIZE) for op in _operands(_hash_constants(_INIT_B, _MULT_B, 8), 0, 8))


def _hash(values, xor, mult) -> np.ndarray:
    """SeedSequence's hashmix, one call per pair of operands."""
    hashed = (values ^ xor) * mult
    hashed ^= hashed >> _SHIFT
    return hashed


def _mix(x, y) -> np.ndarray:
    mixed = _MIX_L * x - _MIX_R * y
    mixed ^= mixed >> _SHIFT
    return mixed


def _entropy(keys) -> np.ndarray:
    """The uint32 words SeedSequence mixes for each row of ``keys`` (see
    ``substreams``), zero-padded on the right to at least the pool size.
    An integer key is split as SeedSequence splits it: low word first,
    and 0 is one word.  An array key is one word per row."""
    columns, lengths = [], set()
    for key in keys:
        if isinstance(key, np.ndarray) and key.ndim:
            if key.ndim > 1 or key.dtype.kind not in "iu":
                raise TypeError(f"a key must be an integer or a 1-D integer array, got {key.dtype} {key.shape}")
            lengths.add(len(key))
            if key.size and (key.min() < 0 or key.max() > _MASK32):
                raise ValueError("expected non-negative integer row keys below 2**32")
            columns.append(key)
        else:
            rest = operator.index(key)
            if rest < 0:
                raise ValueError("expected non-negative integer")
            columns.append(rest & _MASK32)
            while rest := rest >> 32:
                columns.append(rest & _MASK32)
    if len(lengths) > 1:
        raise ValueError(f"array keys differ in length: {sorted(lengths)}")
    words = np.zeros((lengths.pop() if lengths else 1, max(len(columns), _POOL_SIZE)), dtype=np.uint32)
    for j, column in enumerate(columns):
        words[:, j] = column
    return words


def _seed_states(words: np.ndarray) -> np.ndarray:
    """(rows, 4) uint64: ``SeedSequence(entropy).generate_state(4,
    np.uint64)`` of each row of ``words``, computed for all rows at once.
    The hash constants do not depend on the data."""
    # Fill the pool (past the words, hash 0, as the zero padding is),
    pool = _hash(words[:, :_POOL_SIZE], *_FILL)
    # mix each pool word into the three others,
    for src, spread in enumerate(_SPREAD):
        mixed = _mix(pool, _hash(pool[:, src, None], *spread))
        mixed[:, src] = pool[:, src]
        pool = mixed
    # then mix each further word into every pool word.
    width = words.shape[1]
    constants = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * width)
    for i in range(_POOL_SIZE, width):
        pool = _mix(pool, _hash(words[:, i, None], *_operands(constants, _POOL_SIZE * i, _POOL_SIZE)))
    state = _hash(pool[:, None, :], *_OUTPUT).reshape(len(pool), 8)
    # Pairs of uint32 words as little-endian uint64, as generate_state reads them.
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _seed_state_type() -> type:
    """The seed sequence type ``substreams`` hands PCG64, defined on first
    use so that importing csim does not import ``numpy.random``."""

    class SeedState(np.random.bit_generator.ISeedSequence):
        """The ``generate_state(4, np.uint64)`` words of one row, which
        are all that ``np.random.PCG64`` asks its seed sequence for."""

        def __init__(self, state: np.ndarray):
            self._state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a seeded row holds generate_state(4, np.uint64) only")
            return self._state

    return SeedState


def substreams(*keys):
    """Generators of a batch of key tuples, seeded in one pass.

    Each key is a nonnegative integer of any size, shared by every row,
    or a 1-D integer array with one entry per row, each in [0, 2**32);
    row b's keys are (k[b] for each array key k, the integer keys as
    they are).  Row b's generator is ``substream(*its keys)``: the PCG64
    stream that ``np.random.SeedSequence(its keys)`` seeds, bit for bit.
    A negative key or a row key of 2**32 or more raises ``ValueError``
    (as SeedSequence raises for a negative key), and an array of another
    dtype or shape ``TypeError``; an empty array key gives no rows.
    Returns an iterator that makes each row's generator as it is taken,
    so a batch never holds all of them at once.
    """
    states = _seed_states(_entropy(keys))
    seeded = _seed_state_type()
    return (np.random.Generator(np.random.PCG64(seeded(state))) for state in states)


def substream(*keys: int) -> np.random.Generator:
    """Deterministic generator keyed by a tuple of integers: the one-row
    case of ``substreams``, seeded by numpy's own ``SeedSequence``, which
    is faster than the vectorized pass on one row."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(keys)))


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
            # input skips the sort.
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

    @classmethod
    def _drawn(cls, n: int, observed: np.ndarray) -> SamplingMask:
        """Mask of the int64 indices ``observed``, known sorted, unique
        and in range, built without ``__post_init__``'s checks; it takes
        ``observed`` as its own and makes it read-only."""
        mask = object.__new__(cls)
        observed.flags.writeable = False
        object.__setattr__(mask, "n", n)
        object.__setattr__(mask, "observed", observed)
        return mask

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
    return SamplingMask._drawn(n, np.sort(rng.choice(n, size=m, replace=False)))


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
