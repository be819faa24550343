import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import csim
from csim.dictionaries import dct_dictionary
from csim.signals import (
    PatchGrid,
    SamplingMask,
    _patch_indices,
    _tiles,
    apply_mask,
    extract_patches,
    random_mask,
    reassemble,
    substream,
    substreams,
    synth_sparse_signal,
)


def test_full_mask_is_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(16)
    mask = random_mask(16, 16, 1)
    np.testing.assert_allclose(apply_mask(x, mask), x)


def test_mask_determinism_per_seed():
    a = random_mask(64, 20, 42)
    b = random_mask(64, 20, 42)
    assert np.array_equal(a.observed, b.observed)
    c = random_mask(64, 20, 43)
    assert not np.array_equal(a.observed, c.observed)


def test_mask_uniformity_monte_carlo():
    n, m, runs = 64, 32, 10_000
    counts = np.zeros(n)
    for seed in range(runs):
        counts[random_mask(n, m, seed).observed] += 1
    freq = counts / runs
    assert np.all(np.abs(freq - 0.5) < 0.02)


def test_mask_validation():
    with pytest.raises(ValueError):
        random_mask(8, 0, 1)
    with pytest.raises(ValueError):
        random_mask(8, 9, 1)
    with pytest.raises(ValueError):
        SamplingMask(4, np.array([0, 0, 1]))
    with pytest.raises(ValueError):
        SamplingMask(4, np.array([4]))
    with pytest.raises(ValueError):
        SamplingMask(4, [])


@pytest.mark.parametrize(
    "n, observed",
    [
        (4, [0.5, 1.7]),  # a cast would keep [0, 1]
        (4, np.array([0.0, 2.0])),
        (2, [True, False]),  # an indicator, which a cast would read as [1, 0]
        (4, np.array([True, False, True, False])),
        (4.5, [0, 1]),  # int() would make n 4
        (4.0, [0, 1]),
        ("4", [0, 1]),
    ],
)
def test_mask_rejects_indices_or_size_that_are_not_integers(n, observed):
    with pytest.raises(ValueError, match="integer"):
        SamplingMask(n, observed)


@pytest.mark.parametrize(
    "n, observed",
    [
        (4, [1, 3]),
        (4, np.array([1, 3])),
        (4, np.array([3, 1], dtype=np.uint8)),
        (np.int64(4), np.array([1, 3], dtype=np.int32)),
        (4, [np.int64(1), 3]),
    ],
)
def test_mask_takes_integer_indices_and_size(n, observed):
    mask = SamplingMask(n, observed)
    assert type(mask.n) is int and mask.n == 4
    assert mask.observed.dtype == np.int64 and mask.observed.tolist() == [1, 3]


def test_apply_mask_idempotent_and_matches_dense_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(10)
    mask = random_mask(10, 4, 3)
    once = apply_mask(x, mask)
    np.testing.assert_allclose(apply_mask(once, mask), once)
    dense = np.diag(mask.indicator())
    np.testing.assert_allclose(once, dense @ x)


def test_single_index_mask_keeps_one_sample():
    x = np.arange(5, dtype=float)
    mask = SamplingMask(5, np.array([3]))
    out = apply_mask(x, mask)
    assert out[3] == 3.0
    assert np.count_nonzero(out) == 1


def test_patch_round_trip_disjoint_tiling():
    rng = np.random.default_rng(4)
    image = rng.uniform(0, 255, size=(24, 16))
    grid = PatchGrid(24, 16, side=8)
    np.testing.assert_allclose(reassemble(extract_patches(image, grid), grid), image)


def test_patch_raster_order():
    image = np.arange(64, dtype=float).reshape(8, 8)
    grid = PatchGrid(8, 8, side=8)
    np.testing.assert_allclose(extract_patches(image, grid)[0], np.arange(64.0))


def test_constant_image_survives_overlap_averaging():
    image = np.full((20, 20), 7.0)
    grid = PatchGrid(20, 20, side=8)
    np.testing.assert_allclose(reassemble(extract_patches(image, grid), grid), image)


def test_overlap_average_matches_per_pixel_recount():
    rng = np.random.default_rng(5)
    image = rng.standard_normal((16, 12))
    grid = PatchGrid(16, 12, side=8)
    patches = extract_patches(image, grid)
    out = reassemble(patches, grid)
    # oracle: per-pixel mean over every covering patch
    acc = np.zeros_like(image)
    cnt = np.zeros_like(image)
    for patch, (r, c) in zip(patches, grid.positions):
        acc[r : r + 8, c : c + 8] += patch.reshape(8, 8)
        cnt[r : r + 8, c : c + 8] += 1
    np.testing.assert_allclose(out, acc / cnt)
    assert cnt.min() >= 1


def test_clamped_edges_cover_non_divisible_images():
    grid = PatchGrid(13, 11, side=8)
    cover = np.zeros((13, 11))
    for r, c in grid.positions:
        cover[r : r + 8, c : c + 8] += 1
    assert cover.min() >= 1


def test_grid_rejects_small_images():
    with pytest.raises(ValueError):
        PatchGrid(4, 20, side=8)


def test_synth_sparse_signal_support_and_determinism():
    D = dct_dictionary(16, 32)
    a = synth_sparse_signal(D, 4, 9)
    b = synth_sparse_signal(D, 4, 9)
    assert np.array_equal(a.s, b.s)
    assert np.count_nonzero(a.s) == 4
    np.testing.assert_allclose(a.x, D.atoms @ a.s)
    dense = synth_sparse_signal(D, 32, 9)
    assert np.count_nonzero(dense.s) == 32


def test_synth_sparse_values_standard_normal():
    D = dct_dictionary(8, 8)
    values = []
    for seed in range(10_000):
        sig = synth_sparse_signal(D, 2, seed)
        values.extend(sig.s[sig.support])
    values = np.asarray(values)
    assert abs(values.mean()) < 0.02
    assert abs(values.var() - 1.0) < 0.03


def test_synth_sparse_rejects_bad_k():
    D = dct_dictionary(8, 8)
    with pytest.raises(ValueError):
        synth_sparse_signal(D, 0, 1)
    with pytest.raises(ValueError):
        synth_sparse_signal(D, 9, 1)


def test_substream_independence():
    a = substream(5, 1).standard_normal(4)
    b = substream(5, 2).standard_normal(4)
    assert not np.allclose(a, b)
    np.testing.assert_allclose(a, substream(5, 1).standard_normal(4))


# Keys whose entropy spans one, two and three uint32 words.
WIDE_KEYS = (0, 1, 2**32 - 1, 2**32, 2**40, 2**63, 2**64 + 3)


def _numpy_stream(keys) -> np.random.Generator:
    """The oracle: numpy's own seeding of the key tuple ``keys``."""
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in keys]))


def _same_stream(rng, keys) -> bool:
    return rng.bit_generator.state == _numpy_stream(keys).bit_generator.state


@pytest.mark.parametrize("count", range(1, 7))
def test_substream_is_numpys_seed_sequence_stream_bit_for_bit(count):
    rng = np.random.default_rng(count)
    for _ in range(60):
        keys = [
            WIDE_KEYS[rng.integers(len(WIDE_KEYS))] if rng.random() < 0.5 else int(rng.integers(2**31))
            for _ in range(count)
        ]
        assert _same_stream(substream(*keys), keys), keys
        # the vectorized pass on one row, as substreams seeds it
        (row,) = substreams(*keys)
        assert _same_stream(row, keys), keys
        # the draws too, not just the seeded state
        assert substream(*keys).random(3).tobytes() == _numpy_stream(keys).random(3).tobytes()
        assert row.random(3).tobytes() == _numpy_stream(keys).random(3).tobytes()


@pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.uint32])
def test_a_batch_seeds_every_row_as_numpy_seeds_it(dtype):
    # One-word array keys at every position, among integer keys shared by
    # every row that span one, two and three words.
    column = np.array([0, 1, 5, 2**31 - 1, 2**31, 2**32 - 1, 7], dtype=dtype)
    for seed in (0, 7, 2**40, 2**64 + 3):
        for keys in [
            (column, seed),
            (seed, column),
            (column, seed, 2),
            (seed, column, 2, np.arange(len(column))[::-1]),
            (seed, 1, 2, column, 2**33, 6),
        ]:
            rngs = list(substreams(*keys))
            assert len(rngs) == len(column)
            for row, rng in enumerate(rngs):
                row_keys = [k[row] if isinstance(k, np.ndarray) else k for k in keys]
                assert _same_stream(rng, row_keys), row_keys
                assert _same_stream(substream(*row_keys), row_keys)


def test_row_keys_are_one_word_of_an_integer_array():
    for column in (np.array([0, 2**32]), np.array([2**64 - 1], dtype=np.uint64)):
        with pytest.raises(ValueError, match=r"below 2\*\*32"):
            substreams(3, column)
    for column in (np.array([1, 2], dtype=object), np.array([True])):
        with pytest.raises(TypeError):
            substreams(3, column)
    with pytest.raises(TypeError):
        substreams(3, np.zeros((2, 2), dtype=np.int64))
    assert list(substreams(3, np.array([], dtype=np.int64), 2**40)) == []


def test_negative_keys_raise_value_error_as_numpy_does():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.SeedSequence([3, -1])
    with pytest.raises(ValueError, match="expected non-negative integer"):
        substream(3, -1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        substreams(3, np.array([0, -1]))
    with pytest.raises(TypeError):
        substreams(3, np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match="differ in length"):
        substreams(np.arange(2), np.arange(3))


def test_importing_csim_does_not_import_numpy_random():
    code = "import sys, csim, csim.cli; sys.exit('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(csim.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)


def test_a_seeded_row_hands_pcg64_its_state_only():
    (rng,) = substreams(1, np.array([2]))
    assert rng.bit_generator.seed_seq.generate_state(4, np.uint64).dtype == np.uint64
    with pytest.raises(ValueError):
        rng.bit_generator.seed_seq.generate_state(8)


def test_random_mask_is_read_only_and_equals_the_checked_mask():
    for n, m, seed in ((64, 38, 3), (16, 16, 1), (9, 1, (4, 5))):
        mask = random_mask(n, m, seed)
        checked = SamplingMask(n, mask.observed)
        assert mask.n == checked.n == n
        assert mask.m == m
        assert mask.observed.dtype == checked.observed.dtype == np.int64
        assert mask.observed.tobytes() == checked.observed.tobytes()
        assert not mask.observed.flags.writeable
        with pytest.raises(ValueError):
            mask.observed[0] = 1


@pytest.mark.parametrize("shape", [(37, 29), (29, 37), (9, 17)])
def test_patch_grid_matches_a_per_patch_loop_bit_for_bit(shape):
    # Clamped grids: the last patch row and column overlap their neighbours.
    rng = np.random.default_rng(shape[1])
    image = rng.uniform(0.0, 255.0, shape)
    grid = PatchGrid(*shape, side=8)
    looped = np.stack([image[r : r + 8, c : c + 8].reshape(-1) for r, c in grid.positions])
    assert extract_patches(image, grid).tobytes() == looped.tobytes()
    patches = 100.0 * rng.standard_normal(looped.shape)
    acc = np.zeros(shape)
    count = np.zeros(shape)
    for patch, (r, c) in zip(patches, grid.positions):
        acc[r : r + 8, c : c + 8] += patch.reshape(8, 8)
        count[r : r + 8, c : c + 8] += 1.0
    assert reassemble(patches, grid).tobytes() == (acc / count).tobytes()


def _indexed_patches(image, grid):
    """The index gather, as clamped and overlapping grids run it."""
    return image.reshape(-1)[_patch_indices(grid)]


def _indexed_reassembly(patches, grid):
    """The index scatter-average, as clamped and overlapping grids run it."""
    index = _patch_indices(grid).reshape(-1)
    pixels = grid.height * grid.width
    acc = np.bincount(index, weights=patches.reshape(-1), minlength=pixels)
    acc /= np.bincount(index, minlength=pixels)
    return acc.reshape(grid.height, grid.width)


@pytest.mark.parametrize("shape", [(64, 64), (512, 512), (16, 40)])
def test_exact_tilings_have_the_bits_of_the_index_path(shape):
    rng = np.random.default_rng(shape[1])
    image = rng.uniform(0.0, 255.0, shape)
    grid = PatchGrid(*shape, side=8)
    patches = extract_patches(image, grid)
    assert patches.tobytes() == _indexed_patches(image, grid).tobytes()
    filtered = 100.0 * rng.standard_normal(patches.shape)
    filtered[1, [0, 9, 63]] = -0.0  # a sum from +0.0 returns these as +0.0
    image_out = reassemble(filtered, grid)
    assert image_out.tobytes() == _indexed_reassembly(filtered, grid).tobytes()
    assert not np.signbit(image_out[image_out == 0.0]).any()
    assert (image_out == 0.0).sum() == 3


def test_exact_tiling_rejects_a_stack_of_the_wrong_shape():
    grid = PatchGrid(16, 40, side=8)
    with pytest.raises(ValueError, match="does not match"):
        reassemble(np.zeros((9, 64)), grid)
    with pytest.raises(ValueError, match="does not match"):
        reassemble(np.zeros((10, 63)), grid)


def test_extracting_an_exact_tiling_builds_no_index():
    image = np.random.default_rng(6).uniform(0.0, 255.0, (512, 512))
    grid = PatchGrid(512, 512, side=8)
    tracemalloc.start()
    try:
        patches = extract_patches(image, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output alone; an int64 index of the same shape would double it
    assert peak < 1.5 * patches.nbytes


@pytest.mark.parametrize(
    "shape, rows, cols",
    [
        ((16, 24), [0, 8], [0, 8, 16]),
        ((20, 20), [0, 8, 12], [0, 8, 12]),
        ((9, 17), [0, 1], [0, 8, 9]),
    ],
)
def test_patch_grid_steps_by_its_side_and_clamps_the_last_patch(shape, rows, cols):
    grid = PatchGrid(*shape, side=8)
    assert grid.positions == [(r, c) for r in rows for c in cols]
    exact = shape[0] % 8 == 0 and shape[1] % 8 == 0
    assert _tiles(grid) == ((shape[0] // 8, shape[1] // 8) if exact else None)
