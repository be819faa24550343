import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csim.dictionaries
from csim.dictionaries import (
    Dictionary,
    _analyze,
    _dot,
    _synthesize,
    dct_dictionary,
    haar_wp_dictionary,
    normalize_columns,
    spectral_norm_sq,
)
from csim.paramselect import mutual_coherence
from csim.solver import _sum


def test_complete_dct_is_orthonormal():
    D = dct_dictionary(8, 8)
    gram = D.atoms.T @ D.atoms
    assert np.abs(gram - np.eye(8)).max() <= 1e-10
    assert D.spectral_norm_sq == pytest.approx(1.0, abs=1e-10)
    assert D.coherence <= 1e-10


def test_overcomplete_dct_has_unit_columns_and_cached_coherence():
    D = dct_dictionary(8, 16)
    np.testing.assert_allclose(np.linalg.norm(D.atoms, axis=0), 1.0, atol=1e-12)
    best = 0.0
    for i in range(16):
        for j in range(16):
            if i != j:
                best = max(best, abs(float(D.atoms[:, i] @ D.atoms[:, j])))
    assert D.coherence == pytest.approx(best, rel=1e-12)


def test_coherence_is_computed_on_first_read(monkeypatch):
    def fail(atoms):
        raise AssertionError("building a dictionary computed its coherence")

    monkeypatch.setattr(csim.dictionaries, "mutual_coherence", fail)
    D = dct_dictionary(64, 64)
    monkeypatch.undo()
    assert D.coherence == mutual_coherence(D.atoms)
    assert D.coherence <= 1e-10


def test_dct_rejects_too_few_atoms():
    with pytest.raises(ValueError):
        dct_dictionary(8, 4)


def test_complete_haar_is_orthonormal():
    D = haar_wp_dictionary(8, 8)
    assert np.abs(D.atoms.T @ D.atoms - np.eye(8)).max() <= 1e-10


def test_haar_first_atom_is_constant():
    D = haar_wp_dictionary(8, 8)
    np.testing.assert_allclose(D.atoms[:, 0], np.ones(8) / np.sqrt(8.0), atol=1e-12)


def test_overcomplete_haar_unit_columns():
    D = haar_wp_dictionary(8, 16)
    np.testing.assert_allclose(np.linalg.norm(D.atoms, axis=0), 1.0, atol=1e-12)
    assert D.p == 16


def test_haar_rejects_bad_sizes():
    with pytest.raises(ValueError):
        haar_wp_dictionary(6, 6)
    with pytest.raises(ValueError):
        haar_wp_dictionary(8, 24)


def test_perfect_reconstruction_complete_bases():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(16)
    for D in (dct_dictionary(16, 16), haar_wp_dictionary(16, 16)):
        np.testing.assert_allclose(D.atoms @ (D.atoms.T @ x), x, atol=1e-10)


def test_construction_is_deterministic():
    for build in (
        lambda: dct_dictionary(16, 32).atoms,
        lambda: haar_wp_dictionary(16, 32).atoms,
    ):
        a = build()
        b = build()
        assert a.tobytes() == b.tobytes()


def test_spectral_norm_of_orthonormal_is_one():
    assert spectral_norm_sq(np.eye(7)) == pytest.approx(1.0, abs=1e-10)


def test_spectral_norm_matches_svd_oracle():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 12))
    A[:, 3] = A[:, 0]  # duplicated column
    oracle = float(np.linalg.svd(A, compute_uv=False)[0] ** 2)
    assert spectral_norm_sq(A) == pytest.approx(oracle, rel=1e-8)


def test_spectral_norm_scaling_homogeneity():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 6))
    assert spectral_norm_sq(3.0 * A) == pytest.approx(
        9.0 * spectral_norm_sq(A), rel=1e-8
    )


def test_spectral_norm_rejects_zero_matrix():
    with pytest.raises(ValueError):
        spectral_norm_sq(np.zeros((4, 4)))


@pytest.mark.parametrize(
    "D", [dct_dictionary(64, 64), haar_wp_dictionary(64, 128), dct_dictionary(16, 40)]
)
def test_row_stack_spectral_norm_has_the_bits_of_single_matrix_calls(D):
    rng = np.random.default_rng(9)
    observed = (rng.random((30, D.n)) < rng.uniform(0.2, 0.9, (30, 1))).astype(float)
    observed[0] = 1.0
    stacked = spectral_norm_sq(D.atoms, observed=observed)
    assert stacked.shape == (30,)
    for row, value in zip(observed, stacked):
        masked = np.where(row[:, None] != 0, D.atoms, 0.0)
        assert value.tobytes() == np.float64(spectral_norm_sq(masked)).tobytes()
    assert stacked[0] == spectral_norm_sq(D.atoms)
    # one row alone gives the same bits as inside the stack
    assert spectral_norm_sq(D.atoms, observed=observed[7:8])[0] == stacked[7]


def test_row_stack_spectral_norm_rejects_an_all_zero_row():
    atoms = np.zeros((6, 3))
    atoms[:3] = np.eye(3)
    observed = np.array([[1.0, 0, 0, 1, 0, 0], [0, 0, 0, 1, 1, 1]])
    with pytest.raises(ValueError, match="all-zero"):
        spectral_norm_sq(atoms, observed=observed)
    assert spectral_norm_sq(atoms, observed=observed[:1])[0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        spectral_norm_sq(atoms, observed=np.ones((2, 5)))


def test_spectral_norm_raises_when_the_power_iteration_runs_out(monkeypatch):
    monkeypatch.setattr(csim.dictionaries, "_POWER_ITERATIONS", 1)
    D = dct_dictionary(16, 40)
    with pytest.raises(RuntimeError, match="did not converge in 1 iterations"):
        spectral_norm_sq(D.atoms)
    observed = np.ones((3, 16))
    observed[1, ::2] = 0.0
    with pytest.raises(RuntimeError, match="did not converge"):
        spectral_norm_sq(D.atoms, observed=observed)


def test_a_start_in_the_null_space_restarts_and_keeps_each_rows_bits(monkeypatch):
    # with the start e1 and a zero first column, A v0 is exactly 0 under
    # any summation order, so the first step lands in the null space
    p = 8
    e1 = np.zeros(p)
    e1[0] = 1.0
    monkeypatch.setattr(csim.dictionaries, "_power_start", lambda _: e1)
    rng = np.random.default_rng(21)
    U = np.linalg.qr(rng.standard_normal((10, p - 1)))[0]
    V = np.linalg.qr(rng.standard_normal((p - 1, p - 1)))[0]
    # a dominant singular value, so the stop on a 1e-10 relative change
    # leaves the value within 1e-12 of the 2-norm's square
    A = np.zeros((10, p))
    A[:, 1:] = U @ np.diag([4.0, 1.0, 0.8, 0.6, 0.4, 0.2, 0.1]) @ V.T
    assert not np.any(A @ e1)
    assert spectral_norm_sq(A) == pytest.approx(np.linalg.norm(A, 2) ** 2, rel=1e-12, abs=0.0)
    # a first column seen only at samples 0 to 2: row 1 does not observe
    # them and restarts, rows 0 and 2 do not
    A[:3, 0] = rng.standard_normal(3)
    observed = np.ones((3, 10))
    observed[1, :3] = 0.0
    observed[2, ::2] = 0.0
    assert [bool(np.any(row * A[:, 0])) for row in observed] == [True, False, True]
    stacked = spectral_norm_sq(A, observed=observed)
    for row, value in zip(observed, stacked):
        masked = np.where(row[:, None] != 0, A, 0.0)
        assert value.tobytes() == np.float64(spectral_norm_sq(masked)).tobytes()
        assert value == pytest.approx(np.linalg.norm(masked, 2) ** 2, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [3, 64, 128])
def test_the_power_iteration_start_is_drawn_once_per_length_and_read_only(p):
    draw = np.random.default_rng(0).standard_normal(p)
    start = csim.dictionaries._power_start(p)
    assert start.tobytes() == (draw / np.linalg.norm(draw)).tobytes()
    assert csim.dictionaries._power_start(p) is start
    assert not start.flags.writeable
    with pytest.raises(ValueError):
        start[0] = 0.0


def test_normalize_columns_behaviour():
    rng = np.random.default_rng(5)
    already = dct_dictionary(8, 8).atoms
    np.testing.assert_allclose(normalize_columns(already).atoms, already, atol=1e-14)
    doubled = 2.0 * np.eye(4)
    np.testing.assert_allclose(normalize_columns(doubled).atoms, np.eye(4), atol=1e-14)
    A = rng.standard_normal((9, 13))
    norms = np.linalg.norm(normalize_columns(A).atoms, axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_normalize_columns_rejects_zero_column():
    A = np.eye(4)
    A[:, 2] = 0.0
    with pytest.raises(ValueError):
        normalize_columns(A)


def test_dictionary_rejects_unnormalized_atoms():
    with pytest.raises(ValueError):
        Dictionary(np.full((4, 4), 0.5) + np.eye(4))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_dictionary_rejects_a_non_finite_atom(value):
    atoms = dct_dictionary(8, 16).atoms.copy()
    atoms[3, 5] = value
    with pytest.raises(ValueError, match="unit norm"):
        Dictionary(atoms)
    with pytest.raises(ValueError):
        normalize_columns(atoms)


def test_dictionary_atoms_are_frozen():
    D = dct_dictionary(8, 8)
    with pytest.raises(ValueError):
        D.atoms[0, 0] = 5.0


def test_csv_export_round_trip_shapes(tmp_path):
    D = dct_dictionary(4, 8)
    path = tmp_path / "atoms.csv"
    D.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "n,p"
    assert lines[1] == "4,8"
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    np.testing.assert_allclose(parsed, D.atoms, atol=0.0)


_PRODUCT_DICTIONARIES = {
    "dct64": (dct_dictionary, 64, 64),
    "dct64x128": (dct_dictionary, 64, 128),
    "haar64x128": (haar_wp_dictionary, 64, 128),
}


@pytest.mark.parametrize(
    "D",
    [
        dct_dictionary(64, 64),
        dct_dictionary(64, 96),
        dct_dictionary(16, 32),
        haar_wp_dictionary(64, 128),
        haar_wp_dictionary(16, 16),
        normalize_columns(np.random.default_rng(5).standard_normal((20, 8))),  # n > p
    ],
    ids=["dct64", "dct64x96", "dct16x32", "haar64x128", "haar16", "tall20x8"],
)
def test_spectral_norm_sq_reads_the_gram_of_a_per_row_loop_bit_for_bit(D):
    short = D.atoms if D.n <= D.p else D.atoms.T
    loop = np.array([row @ short.T for row in short])
    assert _analyze(short.T, short).tobytes() == loop.tobytes()
    assert D.spectral_norm_sq == float(np.linalg.eigvalsh(loop)[-1])


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_PRODUCT_DICTIONARIES)),
    seed=st.integers(min_value=0, max_value=2**31),
    rows=st.integers(min_value=1, max_value=9),
    scale=st.integers(min_value=-8, max_value=8),
    density=st.sampled_from([0.05, 0.5, 1.0]),
)
def test_one_vector_products_have_the_bits_of_their_stacked_row(name, seed, rows, scale, density):
    build, n, p = _PRODUCT_DICTIONARIES[name]
    atoms = build(n, p).atoms
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((rows, p)) * 10.0**scale * (rng.random((rows, p)) < density)
    R = rng.standard_normal((rows, n)) * 10.0**scale
    synthesized, analyzed = _synthesize(atoms, S), _analyze(atoms, R)
    for j in range(rows):
        assert _synthesize(atoms, S[j]).tobytes() == synthesized[j].tobytes()
        assert _analyze(atoms, R[j]).tobytes() == analyzed[j].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([16, 64, 128]),
    seed=st.integers(min_value=0, max_value=2**31),
    rows=st.integers(min_value=1, max_value=9),
    scale=st.integers(min_value=-8, max_value=8),
    density=st.sampled_from([0.05, 0.5, 1.0]),
)
def test_dot_of_two_vectors_has_the_bits_of_vecdot_and_of_its_stacked_row(
    n, seed, rows, scale, density
):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, n)) * 10.0**scale * (rng.random((rows, n)) < density)
    B = rng.standard_normal((rows, n))
    stacked = _dot(A, B)
    assert stacked.shape == (rows, 1)
    assert stacked.tobytes() == np.vecdot(A, B, keepdims=True).tobytes()
    for j in range(rows):
        for a, b in ((A[j], B[j]), (A[j], A[j])):
            one = _dot(a, b)
            assert np.ndim(one) == 0
            assert one.tobytes() == np.vecdot(a, b).tobytes()
        assert _dot(A[j], B[j]).tobytes() == stacked[j, 0].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([16, 64, 128]),
    seed=st.integers(min_value=0, max_value=2**31),
    rows=st.integers(min_value=1, max_value=9),
    scale=st.integers(min_value=-8, max_value=8),
    density=st.sampled_from([0.05, 0.5, 1.0]),
)
def test_row_sum_has_the_bits_of_sum_for_one_row_and_a_stack(n, seed, rows, scale, density):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, n)) * 10.0**scale * (rng.random((rows, n)) < density)
    stacked = _sum(A)
    assert stacked.shape == (rows, 1)
    for j in range(rows):
        one = _sum(A[j])
        assert np.ndim(one) == 0
        assert one.tobytes() == A[j].sum().tobytes() == stacked[j, 0].tobytes()


@pytest.mark.parametrize(
    "build, n, p",
    [
        (build, n, p)
        for build in (dct_dictionary, haar_wp_dictionary)
        for n, p in ((16, 16), (16, 32), (64, 64), (64, 96), (64, 128))
        if build is dct_dictionary or p in (n, 2 * n)
    ],
)
def test_spectral_norm_sq_is_the_squared_norm(build, n, p):
    D = build(n, p)
    assert "spectral_norm_sq" not in vars(D)  # formed on first read only
    true_norm = np.linalg.norm(D.atoms, 2) ** 2
    assert D.spectral_norm_sq == pytest.approx(true_norm, rel=1e-12)
    # so the solver's surrogate constant 1.05 ||D||^2 majorizes with room
    assert 1.05 * D.spectral_norm_sq > true_norm * (1.0 + 1e-3)


def test_building_a_dictionary_runs_no_power_iteration(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("building a dictionary ran the power iteration")

    monkeypatch.setattr(csim.dictionaries, "spectral_norm_sq", fail)
    D = dct_dictionary(64, 96)
    assert "spectral_norm_sq" not in vars(D)
    # The eigensolver's value, where the power iteration read 1.692660487909095.
    assert D.spectral_norm_sq == pytest.approx(1.6926604891784736, rel=1e-14)
    monkeypatch.undo()
    assert spectral_norm_sq(D.atoms) < D.spectral_norm_sq * (1.0 - 1e-10)


def test_dictionary_takes_no_recorded_norm():
    D = dct_dictionary(8, 16)
    with pytest.raises(TypeError):
        Dictionary(D.atoms, spectral_norm_sq=0.5)
    assert Dictionary(D.atoms).spectral_norm_sq == D.spectral_norm_sq


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=2, max_value=24),
    bases=st.integers(min_value=1, max_value=4),
    spread=st.sampled_from([None, 0.0, 1e-14, 1e-10, 1e-6, 1e-2]),
)
def test_spectral_norm_sq_matches_the_2_norm_on_random_and_near_tight_frames(seed, n, bases, spread):
    rng = np.random.default_rng(seed)
    if spread is None:  # Gaussian atoms, as many as 3n or as few as 2
        A = rng.standard_normal((n, int(rng.integers(2, 3 * n + 1))))
    else:
        # A union of orthonormal bases is a tight frame: every eigenvalue of
        # D D.T equals the number of bases.  The perturbation splits the top
        # eigenvalues by about ``spread``.
        blocks = [np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(bases)]
        A = np.hstack(blocks) + spread * rng.standard_normal((n, n * bases))
    D = normalize_columns(A)
    true_norm = np.linalg.norm(D.atoms, 2) ** 2
    assert true_norm * (1.0 - 1e-12) <= D.spectral_norm_sq <= true_norm * (1.0 + 1e-12)
