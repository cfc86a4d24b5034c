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

    def test_nan_write_rejected(self, tmp_path):
        # NaN fails both `< 0` and `> 1`; cast to uint8 it would write an arbitrary byte
        path = tmp_path / "x.pgm"
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            write_pgm(path, 2, 1, np.array([np.nan, 1.0]))
        assert not path.exists()

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(path)

    def test_p5_pixels_follow_a_padded_maxval(self, tmp_path):
        # "0255" is maxval 255 written with four characters
        path = tmp_path / "z.pgm"
        path.write_bytes(b"P5\n2 2\n0255\n" + bytes([0, 255, 128, 64]))
        w, h, values = read_pgm(path)
        assert (w, h) == (2, 2)
        np.testing.assert_array_equal(values * 255, [0, 255, 128, 64])

    def test_binary_and_ascii_agree(self, tmp_path):
        # the toolkit writes P5 only; P2 is hand-written from the same gray levels
        scene = builtin_scene("radial", 16, 16)
        p5, p2 = tmp_path / "r5.pgm", tmp_path / "r2.pgm"
        write_pgm(p5, 16, 16, scene.reflectance)
        gray = np.rint(scene.reflectance * 255).astype(int)
        p2.write_text("P2\n16 16\n255\n" + " ".join(map(str, gray)) + "\n")
        np.testing.assert_array_equal(read_pgm(p5)[2], read_pgm(p2)[2])

    def test_write_of_the_wrong_length_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="values length must equal width\\*height"):
            write_pgm(tmp_path / "x.pgm", 2, 2, np.zeros(3))

    @pytest.mark.parametrize("first, magic", [(b"P6", "P6"), (b"P2x", "P2x"), (b"#P2", "P7")])
    def test_bad_magic_rejected(self, tmp_path, first, magic):
        # "#P2" opens a comment, so the magic read is the next token
        path = tmp_path / "m.pgm"
        path.write_bytes(first + b"\nP7 1 1\n255\n0\n")
        with pytest.raises(ValueError, match=f"unsupported PGM magic b'{magic}'"):
            read_pgm(path)

    @pytest.mark.parametrize("text", [b"", b"P5\n", b"P2 2 2", b"P2\n2 2\n# 255\n"])
    def test_truncated_header_rejected(self, tmp_path, text):
        path = tmp_path / "h.pgm"
        path.write_bytes(text)
        with pytest.raises(ValueError, match="truncated PGM header"):
            read_pgm(path)

    @pytest.mark.parametrize("pixels", ["0 1 2", "0 1 2 3 4"])
    def test_p2_pixel_count_checked(self, tmp_path, pixels):
        path = tmp_path / "n.pgm"
        path.write_text(f"P2\n2 2\n255\n{pixels}\n")
        with pytest.raises(ValueError, match=f"expected 4 pixels, got {len(pixels.split())}"):
            read_pgm(path)

    @pytest.mark.parametrize(
        "header, pixels, dims",
        [
            (b"P2\n-1 -2\n255\n", b"1 2\n", "-1 and -2"),
            (b"P2\n0 2\n255\n", b"", "0 and 2"),
            (b"P5\n0 2\n255\n", b"", "0 and 2"),
            (b"P5\n-3 2\n255\n", bytes(6), "-3 and 2"),
            (b"P5\n2 0\n255\n", bytes(2), "2 and 0"),
        ],
        ids=[
            "p2_negative", "p2_zero_width", "p5_zero_width", "p5_negative_width", "p5_zero_height"
        ],
    )
    def test_non_positive_dimensions_rejected(self, tmp_path, header, pixels, dims):
        path = tmp_path / "d.pgm"
        path.write_bytes(header + pixels)
        with pytest.raises(ValueError, match=f"width and height must be at least 1, got {dims} "):
            read_pgm(path)

    def test_comment_rules(self, tmp_path):
        # a '#' after a blank opens a comment to the end of its line, also among
        # P2 pixels; a '#' inside a token is part of it, so "2#" is no number
        path = tmp_path / "c.pgm"
        path.write_text("P2 #x\n2 1 255\n# 9 9\n7 #8\n 3\n# end without a newline")
        assert read_pgm(path)[2].tolist() == [7 / 255, 3 / 255]
        path.write_text("P2\n2# 1\n255\n0 0\n")
        with pytest.raises(ValueError, match="invalid literal"):
            read_pgm(path)
