"""Experiment orchestration: configs, seed derivation, one pipeline, manifests.

All four experiments run through `run_experiment`: the experiment's points,
each the `RunConfig` with its swept `snr_db` or `sampling` set, times its
trials give the jobs, in point-major order. `_map_jobs` hands every job to
the one trial worker, `_trial`, which builds a fresh code and hands it to
the configured row of `_DECODERS`, the decoder table: each row acquires the
scene through the channel and decodes it (for compare, `_trial` also runs
the baselines on their own acquisition). A per-experiment writer then
formats the per-trial results as CSVs and PGMs.

Every run directory receives a manifest whose [config] section replays the
run bit-identically (CSV and PGM bytes) via `replay`. Randomness flows only
through per-trial seeds derived with a stateless splitmix64 mix of the
master seed, the sweep-point index, and the trial index.
"""

from __future__ import annotations

import datetime
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .baselines import binarize, cgi_reconstruct, dgi_reconstruct, pinv_reconstruct
from .bound import bound_sweep
from .codes import (
    CodeSpec,
    DegreeDistribution,
    build_generator,
    derive_parity_check,
    encode,
)
from .decoder import BpOptions, DecodeResult, decode_gf2_bp, decode_sum_bp
from .forward import (
    ChannelParams,
    SceneImage,
    onoff_logits,
    patterns_from_generator,
    random_speckle,
    sense,
    transmit,
)
from .metrics import FrameStack, ber, grayscale_stack, mean_abs_error, normalize, psnr
from .pgmio import read_pgm, write_pgm
from .scenes import SCENE_NAMES, builtin_scene

RNG_ID = "numpy-PCG64; trial seeds via splitmix64(master, point, trial)"


class ConfigError(Exception):
    """Invalid run configuration; maps to process exit code 2."""


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_trial_seed(master: int, trial_index: int, point_index: int) -> int:
    """Stateless mix; distinct (trial, point) roles use distinct constants."""
    z = _splitmix64(master & _MASK64)
    z = _splitmix64(z ^ ((0xA0761D6478BD642F + trial_index) & _MASK64))
    z = _splitmix64(z ^ ((0xE7037ED1A0B428DB + point_index) & _MASK64))
    return z


def _substream(seed: int, label: int) -> int:
    """Independent child seed for one role (code, channel, speckle, ...)."""
    return _splitmix64(seed ^ ((0x9E3779B97F4A7C15 * (label + 1)) & _MASK64))


_SUB_CODE, _SUB_SENSE, _SUB_SPECKLE, _SUB_BASELINE = 0, 1, 2, 3


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    experiment: str = "sweep-ber"
    scene: str = "glyphs"
    width: int = 16
    height: int = 16
    sampling: int = 2
    multipliers: tuple[int, ...] = (1, 2, 4, 8, 16, 32)
    degree: int = 8
    dist: str = ""  # "d:w,d:w" mixture; overrides degree when set
    snr_db_list: tuple[float, ...] = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0)
    snr_db: float = 10.0
    fading: str = "rayleigh"
    # experiments default to a receiver without per-shot channel knowledge,
    # matching a bucket detector that cannot observe the fading realization
    csi_known: bool = False
    es: float = 1.0
    trials: int = 10
    seed: int = 20250810
    decoder_mode: str = "sum-constraint"
    max_iters: int = BpOptions.max_iters
    stall_window: int = BpOptions.stall_window
    damping: float = BpOptions.damping
    prior: float | str = BpOptions.prior  # "auto": decoder.moment_prior
    gray_bits: int = 5
    speckle_duty: float = 0.15
    baseline_on_coded: bool = False
    out: str = "runs/run"
    threads: int = 1

    @property
    def k_pixels(self) -> int:
        return self.width * self.height

    def degree_distribution(self) -> DegreeDistribution:
        if self.dist:
            return parse_distribution(self.dist)
        return DegreeDistribution.regular(self.degree)

    def bp_options(self) -> BpOptions:
        return BpOptions(**{f.name: getattr(self, f.name) for f in fields(BpOptions)})

    def validate(self) -> None:
        try:
            if self.experiment not in EXPERIMENTS:
                raise ValueError(f"unknown experiment {self.experiment!r}")
            if self.decoder_mode not in DECODER_MODES:
                raise ValueError(f"decoder_mode must be one of {DECODER_MODES}")
            if self.decoder_mode == "gf2" and self.experiment == "grayscale":
                # gf2 encodes the rounded scene, so its frames average to that, not to the gray one
                raise ValueError("grayscale needs decoder_mode = sum-constraint, not gf2")
            if self.width < 1 or self.height < 1:
                raise ValueError("plane dimensions must be positive")
            if self.sampling < 1:
                raise ValueError("sampling multiplier must be >= 1")
            if self.experiment == "sweep-ber" and self.sampling < 2:
                # the sweep's bound needs parity symbols: N = sampling * K > K
                raise ValueError(f"sweep-ber needs sampling >= 2, got sampling = {self.sampling}")
            if not self.multipliers or min(self.multipliers) < 1:
                raise ValueError("multipliers must be a non-empty list of values >= 1")
            if not self.snr_db_list:
                raise ValueError("snr_db_list must not be empty")
            if self.trials < 1:
                raise ValueError("trials must be >= 1")
            if self.threads < 1:
                raise ValueError("threads must be >= 1")
            if not 0 < self.speckle_duty <= 1:
                raise ValueError("speckle_duty must lie in (0, 1]")
            if self.gray_bits < 1:
                raise ValueError("gray_bits must be >= 1")
            self.degree_distribution().validate_for_k(self.k_pixels)
            self.bp_options()
            for snr_db in (self.snr_db, *self.snr_db_list):
                ChannelParams.at_snr_db(snr_db, self.es, self.fading, self.csi_known)
            for key, value in vars(self).items():
                # to_text writes a string as it is, so the manifest reads it
                # back only if it is one line with no comment and no blanks to cut
                if isinstance(value, str) and (
                    _uncommented(value) != value or len(value.splitlines()) > 1
                ):
                    raise ValueError(
                        f"{key} {value!r} would not read back from the manifest: "
                        "it must be one line, with no '#' and no blanks at either end"
                    )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                # str() is the shortest text that parses back to the same float
                value = ",".join(str(v) for v in value)
            elif isinstance(value, bool):
                value = int(value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


PRESETS = {
    # the reference configuration: 32x32 plane, 2x sampling, degree 128
    "paper-v": {
        "width": 32,
        "height": 32,
        "sampling": 2,
        "degree": 128,
        "trials": 10,
        "fading": "rayleigh",
        "snr_db_list": (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0),
    },
}


def parse_distribution(text: str) -> DegreeDistribution:
    """Parse 'd:w,d:w' mixtures, e.g. '2:0.5,4:0.5'; a bare 'd' has weight 1."""
    try:
        terms = []
        for part in filter(None, (p.strip() for p in text.split(","))):
            d, colon, w = part.partition(":")
            terms.append((int(d), float(w) if colon else 1.0))
        return DegreeDistribution(tuple(terms))
    except ValueError as exc:
        raise ConfigError(f"bad degree distribution {text!r}: {exc}") from exc


def parse_prior(text: str) -> float | str:
    """A prior probability, or "auto" for `decoder.moment_prior`."""
    return text if text == "auto" else float(text)


def _uncommented(line: str) -> str:
    """A config line as the parser reads it: up to any '#', blanks at both ends cut."""
    return line.split("#", 1)[0].strip()


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """Flat 'key = value' lines; '#' starts a comment; unknown keys rejected."""
    cfg = base or RunConfig()
    known = {f.name: f for f in fields(RunConfig)}
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _uncommented(raw)
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        updates[key] = _coerce(key, value, getattr(cfg, key))
    cfg = replace(cfg, **updates)
    cfg.validate()
    return cfg


_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _coerce(key: str, value: str, default):
    try:
        if key == "prior":
            return parse_prior(value)
        if isinstance(default, bool):
            return _BOOL_WORDS[value.lower()]
        if isinstance(default, int):
            return int(value)
        if isinstance(default, float):
            return float(value)
        if isinstance(default, tuple):
            items = [v.strip() for v in value.split(",") if v.strip()]
            if all(isinstance(d, int) for d in default) and default:
                # integral float text such as "1e+06" is an int; "1.5" is an error
                numbers = [float(v) for v in items]
                if not all(x.is_integer() for x in numbers):
                    raise ValueError("not an integer list")
                return tuple(int(x) for x in numbers)
            return tuple(float(v) for v in items)
        return value
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r}") from exc


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base=base)


def read_scene(path) -> SceneImage:
    """A scene from a PGM file: gray / 255 is the reflectance."""
    width, height, values = read_pgm(path)
    return SceneImage(width=width, height=height, reflectance=values)


def load_scene(cfg: RunConfig) -> SceneImage:
    if cfg.scene in SCENE_NAMES:
        return builtin_scene(cfg.scene, cfg.width, cfg.height)
    if cfg.scene.endswith(".pgm"):
        scene = read_scene(cfg.scene)
        if (scene.width, scene.height) != (cfg.width, cfg.height):
            raise ConfigError(
                f"scene file is {scene.width}x{scene.height}, config says {cfg.width}x{cfg.height}"
            )
        return scene
    raise ConfigError(f"scene {cfg.scene!r} is neither builtin {SCENE_NAMES} nor a .pgm path")


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


def write_manifest(run_dir: str, cfg: RunConfig, seeds: dict[str, int]) -> str:
    path = os.path.join(run_dir, "manifest.txt")
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# codedgi run manifest\n")
        fh.write(f"tool = codedgi {__version__}\n")
        fh.write(f"rng = {RNG_ID}\n")
        fh.write(f"created_utc = {stamp}\n")
        fh.write("[config]\n")
        fh.write(cfg.to_text())
        fh.write("[seeds]\n")
        for label in sorted(seeds):
            fh.write(f"{label} = {seeds[label]}\n")
    return path


def read_manifest_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    try:
        start = lines.index("[config]") + 1
    except ValueError:
        raise ConfigError(f"{path} has no [config] section") from None
    end = lines.index("[seeds]") if "[seeds]" in lines else len(lines)
    return parse_config_text("\n".join(lines[start:end]))


def replay(manifest_path, out_dir: str) -> str:
    """Re-run the experiment recorded in a manifest into a fresh directory."""
    cfg = read_manifest_config(manifest_path)
    cfg = replace(cfg, out=out_dir)
    return run_experiment(cfg)


# ---------------------------------------------------------------------------
# the experiment pipeline
# ---------------------------------------------------------------------------


def _points(cfg: RunConfig) -> list[RunConfig]:
    """The experiment's sweep points, each the config with its swept value set."""
    if cfg.experiment == "sweep-ber":
        return [replace(cfg, snr_db=snr_db) for snr_db in cfg.snr_db_list]
    if cfg.experiment == "sweep-sampling":
        return [replace(cfg, sampling=m) for m in cfg.multipliers]
    return [cfg]


def _decode_sum_constraint(cfg: RunConfig, g, scene: SceneImage, ch, seed: int) -> DecodeResult:
    ens = patterns_from_generator(g)
    meas = sense(ens, scene, ch, _substream(seed, _SUB_SENSE))
    return decode_sum_bp(meas, ens, cfg.bp_options())


def _decode_gf2(cfg: RunConfig, g, scene: SceneImage, ch, seed: int) -> DecodeResult:
    truth = np.rint(scene.reflectance).astype(np.uint8)
    meas = transmit(encode(g, truth), ch, _substream(seed, _SUB_SENSE))
    return decode_gf2_bp(onoff_logits(meas), derive_parity_check(g), cfg.bp_options())


# decoder_mode -> row: acquire one scene with code g over channel ch, decode it.
# Rows call the layers through this module's globals, which the benchmark's
# tracer and the tests patch: a stored reference would escape them.
_DECODERS = {"sum-constraint": _decode_sum_constraint, "gf2": _decode_gf2}
DECODER_MODES = tuple(_DECODERS)


def _trial(args):
    """One fresh-code acquisition and decode; for compare, also the baselines.

    Returns the decode diagnostics and {method: (ber, image)}, where the image
    is the decoded bits for "ldpc" and the analog reconstruction for a
    baseline.
    """
    cfg, scene, point, trial = args
    seed = derive_trial_seed(cfg.seed, trial, point)
    ch = ChannelParams.at_snr_db(cfg.snr_db, cfg.es, cfg.fading, cfg.csi_known)
    truth = np.rint(scene.reflectance).astype(np.uint8)
    n_total = cfg.sampling * cfg.k_pixels
    spec = CodeSpec(
        k_info=cfg.k_pixels,
        n_total=n_total,
        dist=cfg.degree_distribution(),
        seed=_substream(seed, _SUB_CODE),
    )
    g = build_generator(spec)
    result = _DECODERS[cfg.decoder_mode](cfg, g, scene, ch, seed)
    methods = {"ldpc": (ber(truth, result.pixels), result.pixels)}
    if cfg.experiment == "compare":
        if cfg.baseline_on_coded:
            base_ens = patterns_from_generator(g)
        else:
            base_ens = random_speckle(
                cfg.k_pixels, n_total, cfg.speckle_duty, _substream(seed, _SUB_SPECKLE)
            )
        base_meas = sense(base_ens, scene, ch, _substream(seed, _SUB_BASELINE))
        for name, fn in (("cgi", cgi_reconstruct), ("dgi", dgi_reconstruct), ("pinv", pinv_reconstruct)):
            recon = fn(base_ens, base_meas)
            methods[name] = (ber(truth, binarize(recon)), recon.image)
    return result.diagnostics, methods


def _map_jobs(jobs, worker, threads: int):
    """Run jobs (list of arg tuples) preserving deterministic output order.

    Starts no more worker processes than there are jobs, and none for one.
    """
    workers = min(threads, len(jobs))
    if workers <= 1:
        return [worker(j) for j in jobs]
    # imported here: a one-process run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, jobs, chunksize=1))


def run_experiment(cfg: RunConfig) -> str:
    """Run every trial of every point of the configured experiment; return the run directory."""
    cfg.validate()
    scene = load_scene(cfg)
    if cfg.experiment != "grayscale":
        scene.require_binary()
    run_dir = os.path.join(cfg.out, cfg.experiment)
    os.makedirs(run_dir, exist_ok=True)

    points = _points(cfg)
    trials = 2**cfg.gray_bits if cfg.experiment == "grayscale" else cfg.trials
    jobs = [(point_cfg, scene, p, t) for p, point_cfg in enumerate(points) for t in range(trials)]
    results = _map_jobs(jobs, _trial, cfg.threads)
    by_point = [results[p * trials : (p + 1) * trials] for p in range(len(points))]

    label, writer = _OUTPUTS[cfg.experiment]
    seeds = {
        label.format(p=p, t=t): derive_trial_seed(cfg.seed, t, p)
        for p in range(len(points))
        for t in range(trials)
    }
    write_manifest(run_dir, cfg, seeds)
    writer(cfg, scene, run_dir, by_point)
    return run_dir


# ---------------------------------------------------------------------------
# writers: by_point[p][t] is the (diagnostics, methods) result of one trial
# ---------------------------------------------------------------------------


def _stderr(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(len(values)))


def _write_ber_sweep(cfg: RunConfig, scene: SceneImage, run_dir: str, by_point) -> None:
    """BER vs SNR with the analytic lower bound alongside."""
    n_total = cfg.sampling * cfg.k_pixels
    bounds = bound_sweep(cfg.k_pixels, n_total, cfg.degree_distribution(), cfg.snr_db_list, cfg.es)
    csv_path = os.path.join(run_dir, "ber_sweep.csv")
    diag_path = os.path.join(run_dir, "decode_diagnostics.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh, open(
        diag_path, "w", encoding="utf-8", newline=""
    ) as dfh:
        fh.write("# schema: codedgi.ber-sweep.v1\n")
        fh.write("snr_db,ber_mean,ber_stderr,bound,trials\n")
        dfh.write("# schema: codedgi.decode-diag.v1\n")
        dfh.write("point,trial,iterations_run,converged,residual,unpinned_pixel_count\n")
        for p, (snr_db, row) in enumerate(zip(cfg.snr_db_list, bounds)):
            bers = np.array([methods["ldpc"][0] for _, methods in by_point[p]])
            fh.write(
                f"{snr_db:g},{float(bers.mean())!r},{_stderr(bers)!r},{row['p_b']!r},{cfg.trials}\n"
            )
            for t, (d, _) in enumerate(by_point[p]):
                dfh.write(
                    f"{p},{t},{d.iterations_run},{int(d.converged)},"
                    f"{d.residual!r},{d.unpinned_pixel_count}\n"
                )


def _write_sampling_sweep(cfg: RunConfig, scene: SceneImage, run_dir: str, by_point) -> None:
    """Reconstruction quality vs sampling multiplier at fixed SNR."""
    truth_img = SceneImage(cfg.width, cfg.height, np.rint(scene.reflectance))
    with open(os.path.join(run_dir, "sampling_sweep.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write("# schema: codedgi.sampling-sweep.v1\n")
        fh.write("multiplier,n_total,snr_db,ber_mean,ber_stderr,psnr_mean,trials\n")
        for m, trials in zip(cfg.multipliers, by_point):
            decoded = [methods["ldpc"] for _, methods in trials]
            bers = np.array([b for b, _ in decoded])
            psnrs = np.array(
                [psnr(truth_img, SceneImage(cfg.width, cfg.height, pixels)) for _, pixels in decoded]
            )
            fh.write(
                f"{m},{m * cfg.k_pixels},{cfg.snr_db:g},"
                f"{float(bers.mean())!r},{_stderr(bers)!r},{float(psnrs.mean())!r},{cfg.trials}\n"
            )
            name = f"ldpc_snr{cfg.snr_db:g}_s{m}_t0.pgm"
            write_pgm(os.path.join(run_dir, name), cfg.width, cfg.height, decoded[0][1])


def _write_compare(cfg: RunConfig, scene: SceneImage, run_dir: str, by_point) -> None:
    """Coded decode vs CGI/DGI/PINV on matched measurement budgets."""
    truth_img = SceneImage(cfg.width, cfg.height, np.rint(scene.reflectance))
    with open(os.path.join(run_dir, "compare.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write("# schema: codedgi.compare.v1\n")
        fh.write("method,trial,ber,psnr\n")
        for method in ("ldpc", "cgi", "dgi", "pinv"):
            for t, (_, methods) in enumerate(by_point[0]):
                b, image = methods[method]
                # decoded bits are an image already; the analog baselines are min-max mapped
                if method == "ldpc":
                    img = SceneImage(cfg.width, cfg.height, image)
                else:
                    img = normalize(image, cfg.width, cfg.height)
                fh.write(f"{method},{t},{b!r},{psnr(truth_img, img)!r}\n")
                if t == 0:
                    name = f"{method}_snr{cfg.snr_db:g}_s{cfg.sampling}_t0.pgm"
                    write_pgm(os.path.join(run_dir, name), cfg.width, cfg.height, img.reflectance)


def _write_grayscale(cfg: RunConfig, scene: SceneImage, run_dir: str, by_point) -> None:
    """Average 2^bits independent binary decodes into a gray image."""
    frames = np.array([methods["ldpc"][1] for _, methods in by_point[0]])
    csv_path = os.path.join(run_dir, "grayscale.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# schema: codedgi.grayscale.v1\n")
        fh.write("frames,mae\n")
        for bits in range(cfg.gray_bits + 1):
            # the last prefix, 2**gray_bits frames, is the whole stack
            gray = grayscale_stack(FrameStack(cfg.width, cfg.height, frames[: 2**bits]))
            fh.write(f"{2**bits},{mean_abs_error(scene, gray)!r}\n")
    write_pgm(
        os.path.join(run_dir, f"gray_stack_snr{cfg.snr_db:g}_n{len(frames)}.pgm"),
        cfg.width,
        cfg.height,
        gray.reflectance,
    )
    write_pgm(os.path.join(run_dir, "gray_truth.pgm"), cfg.width, cfg.height, scene.reflectance)


# experiment -> (manifest seed label, writer)
_OUTPUTS = {
    "sweep-ber": ("point{p}_trial{t}", _write_ber_sweep),
    "sweep-sampling": ("point{p}_trial{t}", _write_sampling_sweep),
    "compare": ("trial{t}", _write_compare),
    "grayscale": ("frame{t}", _write_grayscale),
}
EXPERIMENTS = tuple(_OUTPUTS)  # in order: the CLI adds a subcommand for each
