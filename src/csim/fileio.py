"""Grayscale PGM images (P2 or P5 in, P5 out; maxval 255) and CSV vectors."""

from __future__ import annotations

import numpy as np

__all__ = ["load_pgm", "save_pgm", "load_csv_vector", "save_csv_vector"]


def save_pgm(path, image) -> None:
    """Write an 8-bit grayscale image as P5 (binary)."""
    values = np.asarray(image, dtype=float)
    if values.ndim != 2 or values.size == 0:
        raise ValueError("expected a non-empty 2-D image")
    if not (values.min() >= 0 and values.max() <= 255):  # a nan fails both
        raise ValueError("pixel values must lie in [0, 255]")
    pixels = values.astype(np.uint8)
    if (pixels != values).any():  # the cast truncated a fraction
        raise ValueError("pixel values must be integers")
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def _read_tokens(data: bytes, count: int, start: int) -> tuple[list[bytes], int]:
    """Read whitespace-separated header tokens, skipping '#' comments."""
    tokens: list[bytes] = []
    i = start
    while len(tokens) < count:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i >= len(data):
            raise ValueError("truncated PGM header")
        if data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        tokens.append(data[i:j])
        i = j
    return tokens, i


def load_pgm(path) -> np.ndarray:
    """Read a P2 or P5 grayscale image; only maxval 255 is supported."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2:
        raise ValueError("not a PGM file")
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"unsupported magic {magic!r}")
    tokens, pos = _read_tokens(data, 3, 2)
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise ValueError("malformed PGM header") from exc
    if w < 1 or h < 1:
        raise ValueError("malformed PGM dimensions")
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval} (only 255)")
    if magic == b"P5":
        # Exactly one whitespace byte separates the header from raster data.
        pos += 1
        raster = data[pos : pos + w * h]
        if len(raster) != w * h:
            raise ValueError("truncated PGM raster")
        return np.frombuffer(raster, dtype=np.uint8).reshape(h, w).copy()
    values = data[pos:].split()
    if len(values) != w * h:
        raise ValueError("wrong number of ASCII samples")
    pixels = [int(v) for v in values]
    if min(pixels) < 0 or max(pixels) > 255:
        raise ValueError("sample out of range")
    return np.array(pixels, dtype=np.uint8).reshape(h, w)


def save_csv_vector(path, x) -> None:
    """One value per line, 17 significant digits, LF line endings."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a 1-D vector")
    with open(path, "w", newline="\n") as fh:
        for v in x:
            fh.write(f"{v:.17g}\n")


def load_csv_vector(path) -> np.ndarray:
    """One finite value per line of UTF-8 text; a bad one raises naming
    its line, and bytes that are not UTF-8 raise naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    values = []
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            try:
                values.append(float(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed CSV vector") from None
            if not np.isfinite(values[-1]):
                raise ValueError(f"{path}:{lineno}: non-finite value {line.strip()}")
    return np.array(values)
