"""Builtin scenes and PGM round trips."""

import hashlib

import numpy as np
import pytest

from codedgi import builtin_scene
from codedgi.pgmio import read_pgm, write_pgm

# frozen content hashes guard the determinism contract
GLYPH_SHA = {
    16: "4228194aa9de64cd5b1d457498ba7cd8c81c17840da01b91b665061f6ebb7a40",
    32: "f8ce4cf7a238f9b870929b6b4246b7881ad2541be30eeb329377178ff4191ccd",
}


class TestBuiltinScenes:
    def test_allzero(self):
        scene = builtin_scene("allzero", 32, 32)
        assert scene.k_pixels == 1024
        assert not scene.reflectance.any()

    @pytest.mark.parametrize("dims", [16, 32])
    def test_glyphs_binary_and_stable(self, dims):
        scene = builtin_scene("glyphs", dims, dims)
        assert scene.is_binary()
        assert 0 < scene.reflectance.mean() < 1  # both classes present
        digest = hashlib.sha256(scene.reflectance.astype(np.uint8).tobytes()).hexdigest()
        assert digest == GLYPH_SHA[dims]

    def test_radial_peak_and_monotone_rays(self):
        p = q = 32
        scene = builtin_scene("radial", p, q)
        img = scene.reflectance.reshape(q, p)
        cy, cx = (q - 1) // 2, (p - 1) // 2
        assert img[cy, cx] == img.max() == 1.0
        for ray in (img[cy, cx:], img[cy, cx::-1], img[cy:, cx], img[cy::-1, cx]):
            assert all(a >= b for a, b in zip(ray, ray[1:]))
        assert img.min() >= 0.0

    def test_checker_has_both_classes(self):
        scene = builtin_scene("checker", 16, 16)
        assert scene.is_binary()
        assert 0.4 < scene.reflectance.mean() < 0.6

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_scene("nope", 16, 16)

    def test_minimum_dims(self):
        with pytest.raises(ValueError):
            builtin_scene("glyphs", 4, 16)


class TestPgm:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 256, 48).astype(np.float64) / 255.0
        path = tmp_path / "img.pgm"
        write_pgm(path, 8, 6, values)
        w, h, loaded = read_pgm(path)
        assert (w, h) == (8, 6)
        np.testing.assert_array_equal(loaded, values)

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_text("P2\n# a comment\n2 2\n255\n0 255\n128 64\n")
        w, h, values = read_pgm(path)
        assert (w, h) == (2, 2)
        np.testing.assert_allclose(values * 255, [0, 255, 128, 64])

    def test_maxval_enforced(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_text("P2\n1 1\n65535\n1000\n")
        with pytest.raises(ValueError, match="maxval"):
            read_pgm(path)

    @pytest.mark.parametrize("pixel", ["-1", "256", "70000", "1" + "0" * 20])
    def test_out_of_range_ascii_pixel_rejected(self, tmp_path, pixel):
        path = tmp_path / "p.pgm"
        path.write_text(f"P2\n2 1\n255\n0 {pixel}\n")
        with pytest.raises(ValueError, match="outside"):
            read_pgm(path)

    def test_out_of_range_write_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", 2, 1, np.array([0.5, 1.5]))

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(path)

    def test_binary_and_ascii_agree(self, tmp_path):
        # the toolkit writes P5 only; P2 is hand-written from the same gray levels
        scene = builtin_scene("radial", 16, 16)
        p5, p2 = tmp_path / "r5.pgm", tmp_path / "r2.pgm"
        write_pgm(p5, 16, 16, scene.reflectance)
        gray = np.rint(scene.reflectance * 255).astype(int)
        p2.write_text("P2\n16 16\n255\n" + " ".join(map(str, gray)) + "\n")
        np.testing.assert_array_equal(read_pgm(p5)[2], read_pgm(p2)[2])
