import numpy as np
import pytest

import csim.dictionaries
from csim.dictionaries import (
    Dictionary,
    dct_dictionary,
    haar_wp_dictionary,
    normalize_columns,
    spectral_norm_sq,
)
from csim.paramselect import mutual_coherence


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
