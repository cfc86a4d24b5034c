"""PGM image I/O, maxval 255: writes P5 (binary), reads P5 and P2 (ascii).

Scenes and reconstructions use reflectance = gray/255. Writing is
deterministic, so saved images are byte-stable across runs.
"""

from __future__ import annotations

import re

import numpy as np

MAXVAL = 255
# a '#' comment runs to the end of its line; a '#' inside a token is part of it
_COMMENT_OR_TOKEN = re.compile(rb"#[^\n]*|(\S+)")


def write_pgm(path, width: int, height: int, values01: np.ndarray) -> None:
    """Save values in [0,1] as 8-bit binary PGM (P5); gray = round(255 * v)."""
    v = np.asarray(values01, dtype=np.float64)
    if v.shape != (width * height,):
        raise ValueError("values length must equal width*height")
    if not (v.min() >= 0 and v.max() <= 1):  # also rejects NaN
        raise ValueError("values must lie in [0, 1] before saving")
    gray = np.rint(v * MAXVAL).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n{MAXVAL}\n".encode("ascii"))
        fh.write(gray.tobytes())


def read_pgm(path) -> tuple[int, int, np.ndarray]:
    """Load a P2/P5 PGM as (width, height, values in [0,1]). Requires maxval 255."""
    with open(path, "rb") as fh:
        data = fh.read()
    toks = (m for m in _COMMENT_OR_TOKEN.finditer(data) if m[1])
    try:
        magic = next(toks)[1]
        if magic not in (b"P2", b"P5"):
            raise ValueError(f"unsupported PGM magic {magic!r} in {path}")
        w, h, maxval_tok = next(toks), next(toks), next(toks)
    except StopIteration:
        raise ValueError(f"truncated PGM header in {path}") from None
    width, height, maxval = int(w[1]), int(h[1]), int(maxval_tok[1])
    if width < 1 or height < 1:
        raise ValueError(
            f"PGM width and height must be at least 1, got {width} and {height} in {path}"
        )
    if maxval != MAXVAL:
        raise ValueError(f"PGM maxval must be {MAXVAL}, got {maxval}")
    count = width * height
    if magic == b"P5":
        start = maxval_tok.end() + 1  # single whitespace after maxval
        raw = data[start : start + count]
        if len(raw) != count:
            raise ValueError(f"truncated PGM pixel data in {path}")
        gray = np.frombuffer(raw, dtype=np.uint8)
    else:
        rest = [int(m[1]) for m in toks]
        if len(rest) != count:
            raise ValueError(f"expected {count} pixels, got {len(rest)} in {path}")
        if not all(0 <= v <= maxval for v in rest):
            raise ValueError(f"pixel value outside 0..{maxval} in {path}")
        gray = np.array(rest, dtype=np.uint8)
    return width, height, gray.astype(np.float64) / MAXVAL
