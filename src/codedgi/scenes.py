"""Deterministic builtin test scenes."""

from __future__ import annotations

import numpy as np

from .forward import SceneImage

# 3x5 letter bitmaps for the four-letter binary target
_FONT = {
    "C": ("###", "#..", "#..", "#..", "###"),
    "O": ("###", "#.#", "#.#", "#.#", "###"),
    "D": ("##.", "#.#", "#.#", "#.#", "##."),
    "E": ("###", "#..", "##.", "#..", "###"),
}
_GLYPH_TEXT = "CODE"  # 2x2 cell layout: C O / D E


def _glyphs(p: int, q: int) -> np.ndarray:
    img = np.zeros((q, p), dtype=np.float64)
    cell_w, cell_h = p // 2, q // 2
    scale = max(1, min((cell_w - 2) // 3, (cell_h - 2) // 5))
    gw, gh = 3 * scale, 5 * scale
    for idx, letter in enumerate(_GLYPH_TEXT):
        cy, cx = divmod(idx, 2)
        y0 = cy * cell_h + (cell_h - gh) // 2
        x0 = cx * cell_w + (cell_w - gw) // 2
        rows = _FONT[letter]
        for r in range(5):
            for c in range(3):
                if rows[r][c] == "#":
                    img[
                        y0 + r * scale : y0 + (r + 1) * scale,
                        x0 + c * scale : x0 + (c + 1) * scale,
                    ] = 1.0
    return img.ravel()


def _radial(p: int, q: int) -> np.ndarray:
    """Sphere-like brightness: peak 1 at the center pixel, falling to 0."""
    cx, cy = (p - 1) // 2, (q - 1) // 2
    radius = 0.48 * min(p, q)
    yy, xx = np.mgrid[0:q, 0:p]
    r2 = ((xx - cx) ** 2 + (yy - cy) ** 2) / radius**2
    return np.sqrt(np.clip(1.0 - r2, 0.0, 1.0)).ravel()


def _checker(p: int, q: int) -> np.ndarray:
    block = max(1, min(p, q) // 8)
    yy, xx = np.mgrid[0:q, 0:p]
    return (((xx // block) + (yy // block)) % 2).astype(np.float64).ravel()


def _allzero(p: int, q: int) -> np.ndarray:
    return np.zeros(p * q)


_GENERATORS = {"glyphs": _glyphs, "radial": _radial, "checker": _checker, "allzero": _allzero}
SCENE_NAMES = tuple(_GENERATORS)


def builtin_scene(name: str, p: int, q: int) -> SceneImage:
    """Generate one of the named deterministic scenes at p x q pixels."""
    if p < 8 or q < 8:
        raise ValueError("scene dimensions must be at least 8x8")
    if name not in _GENERATORS:
        raise ValueError(f"unknown builtin scene {name!r}; have {SCENE_NAMES}")
    return SceneImage(width=p, height=q, reflectance=_GENERATORS[name](p, q))
