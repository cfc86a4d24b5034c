"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 2b is a known-red limit check: the analytic bound's fading
term is ~1/(4 gamma) = 2.5e-5 at 40 dB and cannot drop below 1e-6 before
~54 dB, so the stated threshold is unreachable; the test states the
requirement verbatim and is expected to fail.

Criterion 1 holds the decoder against a lower bound. The `bound` column of
`ber_sweep.csv`, the paper's bound for code bits on a fading channel, is
not one for the sum-observation decoder: the default decoder sits below it
at every SNR (0.072 against 0.146 at 0 dB, 0.0028 against 0.0097 at 14 dB).
So the criterion compares with `bound.genie_ber`, bitwise MAP with CSI and
every other pixel revealed (ROADMAP item 3), which bounds every receiver
over Bernoulli(rho) scenes. On the one glyph scene it binds only on
average over scenes, so the test rests on its wide margin: the decoder's
0.072 against the genie's 0.021 at 0 dB, and more at higher SNR.
"""

import math
import os
import time

import mpmath as mp
import numpy as np

from codedgi import (
    BoundParams,
    BpOptions,
    ChannelParams,
    CodeSpec,
    DegreeDistribution,
    FrameStack,
    IlluminationEnsemble,
    SceneImage,
    SparseRows,
    avg_column_hit_prob,
    ber,
    ber_lower_bound,
    build_generator,
    builtin_scene,
    column_hit_prob,
    decode_sum_bp,
    grayscale_stack,
    mean_abs_error,
    moment_prior,
    patterns_from_generator,
    pinv_reconstruct,
    rayleigh_ber,
    sense,
)
from codedgi.bound import binom_weight_sum, genie_ber
from codedgi.harness import (
    RunConfig,
    derive_trial_seed,
    replay,
    run_experiment,
    _substream,
    _SUB_CODE,
    _SUB_SENSE,
)
from oracles import exhaustive_marginals


def report(cid: str, name: str, ok: bool) -> bool:
    print(f"[acceptance] criterion {cid} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def read_csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


# ---------------------------------------------------------------------------
# 1. bound consistency
# ---------------------------------------------------------------------------


def test_criterion_1_bound_consistency(tmp_path):
    cfg = RunConfig(
        experiment="sweep-ber",
        scene="glyphs",
        width=16,
        height=16,
        sampling=2,
        degree=8,
        snr_db_list=(0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0),
        fading="rayleigh",
        trials=100,
        seed=20250810,
        out=str(tmp_path / "c1"),
    )
    start = time.monotonic()
    run_dir = run_experiment(cfg)
    elapsed = time.monotonic() - start
    rows = read_csv_rows(os.path.join(run_dir, "ber_sweep.csv"))
    rho = float(np.rint(builtin_scene("glyphs", 16, 16).reflectance).mean())
    ok = len(rows) == 8
    for row in rows:
        mean = float(row["ber_mean"])
        stderr = float(row["ber_stderr"])
        n0 = ChannelParams.at_snr_db(float(row["snr_db"]), cfg.es).n0
        params = BoundParams(cfg.k_pixels, cfg.sampling * cfg.k_pixels, cfg.degree_distribution(), cfg.es, n0)
        bound = genie_ber(params, rho)
        ok = ok and (mean >= bound - 3 * stderr)
        print(f"  ({row['snr_db']} dB: ber_mean {mean:.4g}, genie {bound:.3g}, paper bound {row['bound']})")
    ok = ok and elapsed < 600.0
    print(f"  (100 trials x 8 points in {elapsed:.1f}s single-threaded)")
    assert report("1", "bound consistency", ok)


def test_default_decoder_beats_majority_guess(tmp_path):
    """At >= 8 dB the default decoder must beat guessing the majority pixel,
    and at the highest SNR at least 90% of its decodes must converge."""
    cfg = RunConfig(
        experiment="sweep-ber",
        scene="glyphs",
        width=16,
        height=16,
        degree=8,
        snr_db_list=(8.0, 14.0),
        csi_known=False,
        trials=10,
        out=str(tmp_path / "gate"),
    )
    rho = float(np.rint(builtin_scene("glyphs", 16, 16).reflectance).mean())
    run_dir = run_experiment(cfg)
    rows = read_csv_rows(os.path.join(run_dir, "ber_sweep.csv"))
    bers = [float(row["ber_mean"]) for row in rows]
    diag = read_csv_rows(os.path.join(run_dir, "decode_diagnostics.csv"))
    top = str(len(cfg.snr_db_list) - 1)  # the point index of 14 dB
    converged_frac = float(np.mean([int(r["converged"]) for r in diag if r["point"] == top]))
    print(
        f"  (ber_mean {bers} at 8 and 14 dB; majority guess {min(rho, 1 - rho):.3f}; "
        f"converged fraction {converged_frac:.2f} at 14 dB)"
    )
    assert max(bers) < min(rho, 1.0 - rho)
    assert converged_frac >= 0.9


# ---------------------------------------------------------------------------
# 2. bound limits (three clauses)
# ---------------------------------------------------------------------------


def paper_scale_params(snr_db):
    return BoundParams(
        k_info=1024,
        n_total=2048,
        dist=DegreeDistribution.regular(128),
        es=1.0,
        n0=10.0 ** (-snr_db / 10.0),
    )


def test_criterion_2a_rayleigh_zero_snr():
    ok = rayleigh_ber(0.0) == 0.5
    assert report("2a", "rayleigh_ber(0) = 0.5 exactly", ok)


def test_criterion_2b_bound_vanishes_at_40db():
    value = ber_lower_bound(paper_scale_params(40.0))
    ok = value < 1e-6
    print(f"  (bound at 40 dB = {value:.6e}; fading term alone is ~1/(4*10^4))")
    assert report("2b", "bound < 1e-6 at 40 dB", ok)


def test_criterion_2c_binomial_weights_normalized():
    ok = abs(binom_weight_sum(paper_scale_params(8.0)) - 1.0) < 1e-9
    assert report("2c", "binomial weights sum to 1 within 1e-9", ok)


# ---------------------------------------------------------------------------
# 3. analytic terms vs independent oracles
# ---------------------------------------------------------------------------


def test_criterion_3_analytic_vs_oracle():
    rng = np.random.default_rng(314)
    k, samples = 64, 100_000

    # weight-8 column hit rate against a fixed single-error position
    hits = sum(0 in rng.choice(k, size=8, replace=False) for _ in range(samples))
    p8 = column_hit_prob(k, 8)
    se8 = math.sqrt(p8 * (1 - p8) / samples)
    ok = abs(hits / samples - p8) < 3 * se8

    # mixture-averaged hit rate with degrees drawn from the distribution
    dist = DegreeDistribution(((4, 0.5), (16, 0.5)))
    degrees = np.where(rng.random(samples) < 0.5, 4, 16)
    hits_mix = sum(
        0 in rng.choice(k, size=int(d), replace=False) for d in degrees
    )
    pa = avg_column_hit_prob(dist, k)
    sea = math.sqrt(pa * (1 - pa) / samples)
    ok = ok and abs(hits_mix / samples - pa) < 3 * sea

    # full bound against an arbitrary-precision re-implementation
    points = [
        (256, 512, ((8, 1.0),), 8.0),
        (1024, 2048, ((128, 1.0),), 2.0),
        (256, 1024, ((2, 0.5), (4, 0.5)), 12.0),
    ]
    for k_info, n_total, terms, snr_db in points:
        n0 = 10.0 ** (-snr_db / 10.0)
        mine = ber_lower_bound(
            BoundParams(
                k_info=k_info, n_total=n_total,
                dist=DegreeDistribution(terms), es=1.0, n0=n0,
            )
        )
        with mp.workdps(60):
            g = 1 / mp.mpf(n0)
            rc = mp.mpf(k_info) / n_total
            a = sum(mp.mpf(w) * d / k_info for d, w in terms)
            m = n_total - k_info
            total = mp.mpf(0)
            for j in range(m + 1):
                wj = mp.binomial(m, j) * a**j * (1 - a) ** (m - j)
                total += wj * mp.erfc(mp.sqrt((1 + j) / (rc * mp.mpf(n0))))
            oracle = float((1 - mp.sqrt(g / (1 + g)) + total) / 2)
        ok = ok and abs(mine - oracle) / oracle < 1e-10
    assert report("3", "closed forms match sampling and high-precision oracles", ok)


# ---------------------------------------------------------------------------
# 4. exact recovery, noiseless and fading-off
# ---------------------------------------------------------------------------


def test_criterion_4_exact_recovery():
    rng = np.random.default_rng(2718)
    scenes = [
        builtin_scene("glyphs", 16, 16),
        builtin_scene("checker", 16, 16),
        builtin_scene("allzero", 16, 16),
    ]
    for s in range(3):
        scenes.append(
            SceneImage(16, 16, rng.integers(0, 2, 256).astype(np.float64))
        )
    ch = ChannelParams(es=1.0, n0=0.0, fading="none")
    ok = True
    for idx, scene in enumerate(scenes):
        g = build_generator(
            CodeSpec(256, 512, DegreeDistribution.regular(8), seed=idx)
        )
        ens = patterns_from_generator(g)
        m = sense(ens, scene, ch, seed=100 + idx)
        res = decode_sum_bp(m, ens)
        truth = scene.reflectance.astype(np.uint8)
        ok = ok and ber(truth, res.pixels) == 0.0
        x = pinv_reconstruct(ens, m).image
        residual = np.linalg.norm(m.bucket - ens.dense() @ x)
        ok = ok and residual < 1e-9
    assert report("4", "noiseless 2x coded sensing decodes exactly; pinv residual < 1e-9", ok)


# ---------------------------------------------------------------------------
# 5. BP tree exactness
# ---------------------------------------------------------------------------


def random_tree_ensemble(k, rng):
    """Singletons on every pixel plus one pattern per random tree edge."""
    patterns = [np.array([i]) for i in range(k)]
    for child in range(1, k):
        parent = int(rng.integers(0, child))
        patterns.append(np.array(sorted((parent, child))))
    return IlluminationEnsemble(k_pixels=k, patterns=SparseRows.of(patterns))


def test_criterion_5_tree_exactness():
    ok = True
    for seed in range(6):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(4, 9))
        ens = random_tree_ensemble(k, rng)
        scene = SceneImage(k, 1, rng.integers(0, 2, k).astype(np.float64))
        ch = ChannelParams(es=1.0, n0=0.7, fading="rayleigh")
        m = sense(ens, scene, ch, seed=1000 + seed)
        res = decode_sum_bp(
            m, ens, BpOptions(max_iters=60, stall_window=20)
        )
        exact = exhaustive_marginals(m, ens, moment_prior(m, ens))
        ok = ok and np.abs(res.marginals - exact).max() < 1e-9
    assert report("5", "sum-constraint BP exact on trees (K <= 8)", ok)


# ---------------------------------------------------------------------------
# 6. duty-ratio table
# ---------------------------------------------------------------------------


def test_criterion_6_duty_table():
    table = {8: 0.78, 16: 1.56, 32: 3.13, 64: 6.25, 128: 12.5}
    ok = True
    for degree, percent in table.items():
        g = build_generator(
            CodeSpec(1024, 1536, DegreeDistribution.regular(degree), seed=degree)
        )
        ens = patterns_from_generator(g)
        parity_duty = ens.patterns.sizes[1024:].mean() / 1024
        ok = ok and abs(100 * parity_duty - percent) <= 0.005
    assert report("6", "coded duty ratios match the degree table to two decimals", ok)


# ---------------------------------------------------------------------------
# 7. baseline dominance at 10 dB
# ---------------------------------------------------------------------------


def test_criterion_7_baseline_dominance(tmp_path):
    cfg = RunConfig(
        experiment="compare",
        scene="glyphs",
        width=16,
        height=16,
        sampling=2,
        degree=8,
        snr_db=10.0,
        fading="rayleigh",
        trials=10,
        damping=0.3,
        seed=424242,
        out=str(tmp_path / "c7"),
    )
    run_dir = run_experiment(cfg)
    rows = read_csv_rows(os.path.join(run_dir, "compare.csv"))
    medians = {}
    for method in ("ldpc", "cgi", "dgi", "pinv"):
        medians[method] = float(
            np.median([float(r["ber"]) for r in rows if r["method"] == method])
        )
    ok = all(medians["ldpc"] < medians[m] for m in ("cgi", "dgi", "pinv"))
    print(f"  (median BER: {medians})")
    assert report("7", "coded decode beats every baseline at 10 dB", ok)


# ---------------------------------------------------------------------------
# 8. sampling-rate trend
# ---------------------------------------------------------------------------


def test_criterion_8_sampling_trend(tmp_path):
    cfg = RunConfig(
        experiment="sweep-sampling",
        scene="glyphs",
        width=16,
        height=16,
        multipliers=(1, 2, 4, 8, 16, 32),
        degree=8,
        snr_db=10.0,
        fading="rayleigh",
        trials=10,
        damping=0.3,
        seed=88,
        out=str(tmp_path / "c8"),
    )
    run_dir = run_experiment(cfg)
    rows = read_csv_rows(os.path.join(run_dir, "sampling_sweep.csv"))
    means = [float(r["ber_mean"]) for r in rows]
    errs = [float(r["ber_stderr"]) for r in rows]
    ok = all(
        means[i + 1] <= means[i] + 3 * math.hypot(errs[i], errs[i + 1])
        for i in range(len(means) - 1)
    )
    print(f"  (BER vs multiplier: {[f'{m:.4f}' for m in means]})")

    # 32x at high SNR recovers the glyph exactly in every trial
    cfg_hi = RunConfig(
        experiment="sweep-sampling",
        scene="glyphs",
        width=16,
        height=16,
        multipliers=(32,),
        degree=8,
        snr_db=18.0,
        fading="rayleigh",
        trials=10,
        damping=0.3,
        seed=89,
        out=str(tmp_path / "c8hi"),
    )
    hi_rows = read_csv_rows(
        os.path.join(run_experiment(cfg_hi), "sampling_sweep.csv")
    )
    ok = ok and float(hi_rows[0]["ber_mean"]) == 0.0
    assert report("8", "BER non-increasing in sampling rate; zero at 32x high SNR", ok)


def test_default_decoder_improves_as_sampling_adds_shots(tmp_path):
    """With the default decoder options, BER falls from each sampling
    multiplier to the next and stays below the majority-guess rate.

    An undamped decoder at prior 0.5 once did the opposite here: 0.08 at
    multiplier 1, 0.72-0.75 at 2 and about 0.83 at 4, lighting every pixel.
    """
    cfg = RunConfig(
        experiment="sweep-sampling",
        scene="glyphs",
        width=16,
        height=16,
        multipliers=(1, 2, 4),
        snr_db=8.0,
        trials=5,
        out=str(tmp_path / "sampling"),
    )
    rho = float(np.rint(builtin_scene("glyphs", 16, 16).reflectance).mean())
    rows = read_csv_rows(os.path.join(run_experiment(cfg), "sampling_sweep.csv"))
    means = [float(r["ber_mean"]) for r in rows]
    print(f"  (BER at multipliers 1, 2, 4: {means}; majority guess {rho:.3f})")
    assert means == sorted(means, reverse=True) and len(set(means)) == 3
    assert max(means) < min(rho, 1.0 - rho)


# ---------------------------------------------------------------------------
# 9. grayscale stacking
# ---------------------------------------------------------------------------


def test_criterion_9_grayscale_stacking():
    scene = builtin_scene("radial", 16, 16)
    ch = ChannelParams(es=1.0, n0=10 ** (-1.4), fading="rayleigh", csi_known=False)
    dist = DegreeDistribution.regular(8)
    frames = []
    for f in range(32):
        seed = derive_trial_seed(5150, f, 0)
        g = build_generator(CodeSpec(256, 512, dist, seed=_substream(seed, _SUB_CODE)))
        ens = patterns_from_generator(g)
        m = sense(ens, scene, ch, _substream(seed, _SUB_SENSE))
        frames.append(decode_sum_bp(m, ens, BpOptions(damping=0.3)).pixels)
    mae1 = mean_abs_error(scene, grayscale_stack(FrameStack(16, 16, frames[:1])))
    stacked = grayscale_stack(FrameStack(16, 16, frames))
    mae32 = mean_abs_error(scene, stacked)
    scaled = stacked.reflectance * 32
    on_lattice = np.array_equal(scaled, np.rint(scaled))
    ok = (mae32 < mae1) and on_lattice
    print(f"  (MAE single frame {mae1:.4f} -> 32-frame stack {mae32:.4f})")
    assert report("9", "32-frame stack beats single frame and sits on the 5-bit lattice", ok)


# ---------------------------------------------------------------------------
# 10. reproducibility
# ---------------------------------------------------------------------------


def _artifact_bytes(run_dir):
    out = {}
    for name in sorted(os.listdir(run_dir)):
        if name == "manifest.txt":
            continue
        with open(os.path.join(run_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_criterion_10_reproducibility(tmp_path):
    cfg = RunConfig(
        experiment="compare",
        scene="glyphs",
        width=8,
        height=8,
        sampling=2,
        degree=4,
        snr_db=10.0,
        trials=2,
        seed=1234,
        out=str(tmp_path / "first"),
    )
    first = run_experiment(cfg)
    second = replay(os.path.join(first, "manifest.txt"), str(tmp_path / "second"))
    ok = _artifact_bytes(first) == _artifact_bytes(second)

    sweep = RunConfig(
        experiment="sweep-ber",
        scene="glyphs",
        width=8,
        height=8,
        degree=4,
        snr_db_list=(6.0, 12.0),
        trials=2,
        seed=77,
        out=str(tmp_path / "s1"),
    )
    d1 = run_experiment(sweep)
    d2 = replay(os.path.join(d1, "manifest.txt"), str(tmp_path / "s2"))
    ok = ok and _artifact_bytes(d1) == _artifact_bytes(d2)
    assert report("10", "manifest replay regenerates byte-identical artifacts", ok)
