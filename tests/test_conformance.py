"""Conformance suite: the gate every row of the harness's decoder table passes.

A row of `harness._DECODERS` takes (cfg, g, scene, ch, seed), acquires the
scene with code g over channel ch, and decodes it. Each test here runs once
per row of `harness.DECODER_MODES`:

- noiseless recovery: with N0 = 0 the decode is exact, with CSI or without;
- bitwise MAP: on small loopy codes the hard decisions are those of the
  exhaustive posterior over all 2^K scenes, with CSI, at 10 and 14 dB;
  without CSI the posterior is scored with the exact fading density, and
  the sum-constraint row, whose receiver is that density's moment-matched
  Gaussian, must agree on all but one of the 40 instances;
- every trial's acquisition and decode go through the harness's module
  globals, which the benchmark's tracer and test_cycle_skip patch.

Determinism, and identical bytes with --threads 1 and --threads 2, is the
row's fourth gate: `test_threads_do_not_change_bytes` in test_harness.py
runs over the same rows.
"""

from pathlib import Path

import numpy as np
import pytest

from codedgi import (
    ChannelParams,
    CodeSpec,
    DegreeDistribution,
    SceneImage,
    build_generator,
    builtin_scene,
    encode,
    patterns_from_generator,
)
from codedgi import harness
from codedgi.harness import DECODER_MODES, RunConfig, run_experiment
from oracles import exhaustive_marginals, fading_loglik

# The noiseless symbols each row's acquisition sees: the scene's pattern
# counts, or their parities, which are the scene's codeword bits.
PARITY = {"sum-constraint": False, "gf2": True}


@pytest.fixture
def acquired(monkeypatch):
    """The measurements the rows acquire, recorded at harness.sense and harness.transmit."""
    seen = []
    for name in ("sense", "transmit"):
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *a, real=real: seen.append(real(*a)) or seen[-1])
    return seen


@pytest.mark.parametrize("mode", DECODER_MODES)
def test_noiseless_decode_is_exact(mode):
    # criterion 4's scenes and codes, through the row, with Rayleigh fading known
    rng = np.random.default_rng(0)
    scenes = [builtin_scene("glyphs", 16, 16), builtin_scene("allzero", 16, 16)]
    scenes += [SceneImage(16, 16, rng.integers(0, 2, 256).astype(np.float64)) for _ in range(3)]
    cfg = RunConfig(decoder_mode=mode, width=16, height=16, sampling=2, degree=8)
    ch = ChannelParams(es=1.0, n0=0.0, fading="rayleigh", csi_known=True)
    for idx, scene in enumerate(scenes):
        g = build_generator(CodeSpec(256, 512, DegreeDistribution.regular(8), seed=idx))
        result = harness._DECODERS[mode](cfg, g, scene, ch, 100 + idx)
        assert np.array_equal(result.pixels, scene.reflectance.astype(np.uint8)), idx


@pytest.mark.parametrize("mode", DECODER_MODES)
def test_noiseless_decode_without_csi_is_exact(mode):
    # desk glyphs with N0 = 0 and the fading unknown: count 0 is the point
    # mass at r = 0, so a shot that reads more than 0 holds a lit pixel
    cfg = RunConfig(decoder_mode=mode, width=16, height=16, sampling=2, degree=8)
    ch = ChannelParams(es=1.0, n0=0.0, fading="rayleigh", csi_known=False)
    scene = builtin_scene("glyphs", 16, 16)
    for seed in (3, 4, 5):
        g = build_generator(CodeSpec(256, 512, DegreeDistribution.regular(8), seed=seed))
        result = harness._DECODERS[mode](cfg, g, scene, ch, seed + 1)
        assert np.array_equal(result.pixels, scene.reflectance.astype(np.uint8)), seed


def map_instance(mode, seed):
    """A loopy code and a Bernoulli(0.3) scene: K = 9-12, regular degree 3, N = 2K."""
    k = 9 + seed % 4
    # gf2 has no prior, so both rows decode under the uniform one
    cfg = RunConfig(decoder_mode=mode, width=k, height=1, sampling=2, degree=3, prior=0.5)
    g = build_generator(CodeSpec(k, 2 * k, DegreeDistribution.regular(3), seed=seed))
    cols = g.parity_columns
    assert cols.sizes.sum() >= k + len(cols)  # at least as many edges as nodes: a cycle
    bits = np.random.default_rng(seed).random(k) < 0.3
    return cfg, g, SceneImage(k, 1, bits.astype(np.float64))


@pytest.mark.parametrize("snr_db", [10.0, 14.0])
@pytest.mark.parametrize("mode", DECODER_MODES)
def test_hard_decisions_are_bitwise_map(mode, snr_db, acquired):
    ch = ChannelParams.at_snr_db(snr_db, 1.0, "rayleigh", csi_known=True)
    disagree = []
    for seed in range(40):
        cfg, g, scene = map_instance(mode, seed)
        result = harness._DECODERS[mode](cfg, g, scene, ch, seed)
        (m,) = acquired
        acquired.clear()
        ens = patterns_from_generator(g)
        if PARITY[mode]:
            bits = scene.reflectance.astype(np.uint8)
            assert np.array_equal(ens.patterns.sums(bits) & 1, encode(g, bits))
        post = exhaustive_marginals(m, ens, cfg.prior, parity=PARITY[mode])
        if not np.array_equal(result.pixels, post > 0.5):
            disagree.append(seed)
    assert disagree == []


@pytest.mark.parametrize("snr_db", [10.0, 14.0])
def test_hard_decisions_are_bitwise_map_without_csi(snr_db, acquired):
    # the GF(2) row sees only counts 0 and 1 through the same Gaussian; at
    # 10 dB it disagrees on 3 of these instances, so it is not gated here
    ch = ChannelParams.at_snr_db(snr_db, 1.0, "rayleigh", csi_known=False)
    exact = lambda m, counts: fading_loglik(m.bucket, counts, m.channel)
    disagree = []
    for seed in range(40):
        cfg, g, scene = map_instance("sum-constraint", seed)
        result = harness._DECODERS["sum-constraint"](cfg, g, scene, ch, seed)
        (m,) = acquired
        acquired.clear()
        post = exhaustive_marginals(m, patterns_from_generator(g), cfg.prior, loglik=exact)
        if not np.array_equal(result.pixels, post > 0.5):
            disagree.append(seed)
    assert len(disagree) <= 1, disagree


@pytest.mark.parametrize("mode", DECODER_MODES)
def test_trials_call_the_layers_through_harness_globals(mode, monkeypatch, tmp_path):
    # a row that kept its own reference to a layer function would escape the
    # benchmark's tracer and test_cycle_skip's plain-loop check
    calls = []
    for name in ("sense", "transmit", "decode_sum_bp", "decode_gf2_bp"):
        real = getattr(harness, name)
        monkeypatch.setattr(
            harness, name, lambda *a, name=name, real=real: calls.append((name, real(*a))) or calls[-1][1]
        )
    cfg = RunConfig(
        decoder_mode=mode, width=8, height=8, degree=4, snr_db_list=(6.0, 12.0), trials=3,
        seed=7, out=str(tmp_path),
    )
    run_dir = run_experiment(cfg)
    # each trial: one acquisition, then one decode
    assert len(calls) == 2 * len(cfg.snr_db_list) * cfg.trials
    assert {name for name, _ in calls[0::2]} <= {"sense", "transmit"}
    decodes = [result for name, result in calls[1::2] if name.startswith("decode_")]
    assert len(decodes) == len(calls) // 2
    # and the decodes that went through them are the ones the run wrote
    rows = Path(run_dir, "decode_diagnostics.csv").read_text().splitlines()[2:]
    written = [tuple(row.split(",")[2:4]) for row in rows]
    traced = [(str(r.diagnostics.iterations_run), str(int(r.diagnostics.converged))) for r in decodes]
    assert written == traced
