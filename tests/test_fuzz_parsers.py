"""Property tests of the three input parsers on arbitrary input: the PGM
reader, the CSV vector reader and the ``recover --config`` file."""

import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csim.cli import main
from csim.fileio import load_csv_vector, load_pgm, save_csv_vector
from csim.signals import substream
from csim.solver import SolverConfig

_WHITESPACE = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"  "])
_NUMBER_TEXT = st.one_of(
    st.integers(min_value=-(10**25), max_value=10**25).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "+", "-", "0x1f", "1_0", "nan", "inf", "1e999", "-0", "٣"]),
    st.text(max_size=6),
)


@st.composite
def _pgm_like(draw) -> bytes:
    """Bytes shaped like a PGM: a magic number, three header tokens that
    are often sensible, comments, and a raster that is often of the
    declared size but may be short, long or not numeric."""
    magic = draw(st.sampled_from([b"P2", b"P5", b"P6", b"P", b"p5"]))
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    tokens = [
        draw(st.one_of(st.just(str(w)), _NUMBER_TEXT)),
        draw(st.one_of(st.just(str(h)), _NUMBER_TEXT)),
        draw(st.one_of(st.just("255"), _NUMBER_TEXT)),
    ]
    count = draw(st.sampled_from([w * h, w * h, w * h - 1, w * h + 1]))
    header = magic
    for token in tokens:
        header += draw(_WHITESPACE)
        if draw(st.booleans()):
            header += b"# " + draw(st.binary(max_size=8)).replace(b"\n", b"") + b"\n"
        header += token.encode("utf-8", "replace")
    header += draw(_WHITESPACE)
    if magic == b"P2":
        sample = st.one_of(st.integers(0, 255).map(str), _NUMBER_TEXT)
        samples = draw(st.lists(sample, min_size=count, max_size=count))
        return header + " ".join(samples).encode("utf-8", "replace")
    return header + draw(st.binary(min_size=count, max_size=count + 1))


def _scratch_file(data, mode: str) -> Path:
    handle = tempfile.NamedTemporaryFile(mode, delete=False, suffix=".in")
    with handle:
        handle.write(data)
    return Path(handle.name)


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(st.binary(max_size=64), _pgm_like()))
def test_load_pgm_returns_an_image_or_raises_value_error(data):
    path = _scratch_file(data, "wb")
    try:
        image = load_pgm(path)
    except ValueError:
        return
    finally:
        path.unlink()
    assert image.dtype == np.uint8 and image.ndim == 2 and image.size >= 1


def test_load_pgm_rejects_a_sample_too_large_for_any_integer_type(tmp_path):
    path = tmp_path / "big.pgm"
    path.write_bytes(b"P2\n2 1\n255\n7 " + b"9" * 25 + b"\n")
    with pytest.raises(ValueError, match="sample out of range"):
        load_pgm(path)


@settings(max_examples=300, deadline=None)
@given(
    text=st.one_of(
        st.text(max_size=60),
        st.lists(_NUMBER_TEXT, max_size=8).map("\n".join),
    )
)
def test_load_csv_vector_returns_finite_values_or_raises_value_error(text):
    path = _scratch_file(text.encode("utf-8", "surrogatepass"), "wb")
    try:
        values = load_csv_vector(path)
    except ValueError:
        return
    finally:
        path.unlink()
    assert values.ndim == 1 and np.all(np.isfinite(values))


_CONFIG_KEYS = [f.name for f in fields(SolverConfig)] + ["bogus", "", "max iter"]
_CONFIG_LINE = st.one_of(
    st.tuples(st.sampled_from(_CONFIG_KEYS), _NUMBER_TEXT).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.tuples(
        st.sampled_from(_CONFIG_KEYS), st.sampled_from(["yes", "no", "true", "0", "1"])
    ).map(lambda kv: f"{kv[0]}={kv[1]}"),
    st.text(alphabet=st.characters(blacklist_characters="\r\n"), max_size=20),
)


@pytest.fixture(scope="module")
def csv_input(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "x.csv"
    save_csv_vector(path, substream(2, 9).standard_normal(16))
    return path


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_CONFIG_LINE, max_size=5))
def test_recover_config_file_runs_or_exits_two_leaving_no_file(csv_input, lines):
    # --max-iter bounds the run time; an explicit flag wins over the file.
    with tempfile.TemporaryDirectory() as workdir:
        cfg = Path(workdir) / "solver.cfg"
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogatepass")
        out = Path(workdir) / "out.csv"
        argv = ["recover", "--input", str(csv_input), "--out", str(out), "--config", str(cfg)]
        try:
            code = main(argv + ["--max-iter", "5"])
        except SystemExit as exc:
            code = exc.code
        written = sorted(p.name for p in Path(workdir).iterdir() if p != cfg)
        if code == 0:
            assert written == ["out.csv", "out.csv.log.jsonl"]
        else:
            assert code == 2 and written == []
