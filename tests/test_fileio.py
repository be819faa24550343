import numpy as np
import pytest

from csim.fileio import load_csv_vector, load_pgm, save_csv_vector, save_pgm


def test_binary_pgm_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    image = rng.integers(0, 256, size=(13, 17), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    save_pgm(path, image)
    loaded = load_pgm(path)
    assert loaded.dtype == np.uint8
    assert np.array_equal(loaded, image)


def test_ascii_and_binary_encodings_agree(tmp_path):
    rng = np.random.default_rng(1)
    image = rng.integers(0, 256, size=(9, 5), dtype=np.uint8)
    p5 = tmp_path / "b.pgm"
    p2 = tmp_path / "a.pgm"
    save_pgm(p5, image)
    rows = "\n".join(" ".join(str(v) for v in row) for row in image.tolist())
    p2.write_text(f"P2\n5 9\n255\n{rows}\n")
    assert np.array_equal(load_pgm(p5), load_pgm(p2))


def test_pgm_header_comments_are_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P2\n# a comment\n2 2\n255\n0 1\n2 3\n")
    np.testing.assert_array_equal(load_pgm(path), [[0, 1], [2, 3]])


def test_pgm_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n65535\n0 1 2 3\n")
    with pytest.raises(ValueError, match="maxval"):
        load_pgm(path)


def test_pgm_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad2.pgm"
    path.write_bytes(b"P7\n2 2\n255\n")
    with pytest.raises(ValueError):
        load_pgm(path)
    path.write_bytes(b"P5\n2\n")
    with pytest.raises(ValueError):
        load_pgm(path)


def test_pgm_rejects_truncated_raster(tmp_path):
    path = tmp_path / "trunc.pgm"
    path.write_bytes(b"P5\n4 4\n255\nabc")
    with pytest.raises(ValueError, match="truncated"):
        load_pgm(path)


def test_save_pgm_rejects_out_of_range_values(tmp_path):
    with pytest.raises(ValueError):
        save_pgm(tmp_path / "x.pgm", np.array([[0.0, 300.0]]))
    with pytest.raises(ValueError):
        save_pgm(tmp_path / "x.pgm", np.array([[0.5, 1.0]]))
    with pytest.raises(ValueError):
        save_pgm(tmp_path / "x.pgm", np.array([[-1, 0]]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"must lie in \[0, 255\]"):
            save_pgm(tmp_path / "x.pgm", np.array([[1.0, bad], [2.0, 3.0]]))
    with pytest.raises(ValueError, match="must be integers"):
        save_pgm(tmp_path / "x.pgm", np.array([[254.5, 1.0]]))


def test_save_pgm_writes_negative_zero_and_integral_floats_as_their_bytes(tmp_path):
    values = [[-0.0, 0.0, 1.0], [17.0, 254.0, 255.0]]
    save_pgm(tmp_path / "float.pgm", np.array(values))
    save_pgm(tmp_path / "uint8.pgm", np.array(values, dtype=np.uint8))
    written = (tmp_path / "float.pgm").read_bytes()
    assert written == b"P5\n3 2\n255\n" + bytes([0, 0, 1, 17, 254, 255])
    assert written == (tmp_path / "uint8.pgm").read_bytes()


def test_csv_vector_round_trip_full_precision(tmp_path):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(64) * np.logspace(-12, 12, 64)
    path = tmp_path / "v.csv"
    save_csv_vector(path, x)
    loaded = load_csv_vector(path)
    assert np.array_equal(loaded, x)
    assert b"\r" not in path.read_bytes()


def test_csv_vector_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.5\nnot-a-number\n")
    with pytest.raises(ValueError):
        load_csv_vector(path)
