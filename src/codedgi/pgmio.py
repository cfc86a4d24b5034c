"""PGM image I/O, maxval 255: writes P5 (binary), reads P5 and P2 (ascii).

Scenes and reconstructions use reflectance = gray/255. Writing is
deterministic, so saved images are byte-stable across runs.
"""

from __future__ import annotations

import numpy as np

MAXVAL = 255


def write_pgm(path, width: int, height: int, values01: np.ndarray) -> None:
    """Save values in [0,1] as 8-bit binary PGM (P5); gray = round(255 * v)."""
    v = np.asarray(values01, dtype=np.float64)
    if v.shape != (width * height,):
        raise ValueError("values length must equal width*height")
    if v.min() < 0 or v.max() > 1:
        raise ValueError("values must lie in [0, 1] before saving")
    gray = np.rint(v * MAXVAL).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n{MAXVAL}\n".encode("ascii"))
        fh.write(gray.tobytes())


def _tokens_skipping_comments(data: bytes):
    """Yield whitespace-separated header tokens, skipping '#' comments."""
    i = 0
    while i < len(data):
        c = data[i : i + 1]
        if c.isspace():
            i += 1
            continue
        if c == b"#":
            j = data.find(b"\n", i)
            i = len(data) if j < 0 else j + 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        yield i, data[i:j]
        i = j


def read_pgm(path) -> tuple[int, int, np.ndarray]:
    """Load a P2/P5 PGM as (width, height, values in [0,1]). Requires maxval 255."""
    with open(path, "rb") as fh:
        data = fh.read()
    toks = _tokens_skipping_comments(data)
    try:
        _, magic = next(toks)
        if magic not in (b"P2", b"P5"):
            raise ValueError(f"unsupported PGM magic {magic!r} in {path}")
        _, w = next(toks)
        _, h = next(toks)
        pos, maxval = next(toks)
    except StopIteration:
        raise ValueError(f"truncated PGM header in {path}") from None
    width, height, maxval = int(w), int(h), int(maxval)
    if maxval != MAXVAL:
        raise ValueError(f"PGM maxval must be {MAXVAL}, got {maxval}")
    count = width * height
    if magic == b"P5":
        start = pos + len(str(maxval)) + 1  # single whitespace after maxval
        raw = data[start : start + count]
        if len(raw) != count:
            raise ValueError(f"truncated PGM pixel data in {path}")
        gray = np.frombuffer(raw, dtype=np.uint8)
    else:
        rest = [int(tok) for _, tok in toks]
        if len(rest) != count:
            raise ValueError(f"expected {count} pixels, got {len(rest)} in {path}")
        if not all(0 <= v <= maxval for v in rest):
            raise ValueError(f"pixel value outside 0..{maxval} in {path}")
        gray = np.array(rest, dtype=np.uint8)
    return width, height, gray.astype(np.float64) / MAXVAL
