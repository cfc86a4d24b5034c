"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from .bound import bound_sweep
from .codes import CodeSpec, build_generator, encode, load_generator, save_generator
from .decoder import BpOptions, decode_sum_bp
from .forward import (
    FADING_MODES,
    ChannelParams,
    load_measurement_csv,
    patterns_from_generator,
    save_measurement_csv,
    sense,
)
from .harness import (
    EXPERIMENTS,
    PRESETS,
    ConfigError,
    RunConfig,
    load_config,
    parse_distribution,
    parse_prior,
    read_scene,
    run_experiment,
)
from .pgmio import write_pgm
from .scenes import SCENE_NAMES, builtin_scene


def _cmd_gen_code(args) -> int:
    spec = CodeSpec(
        k_info=args.k,
        n_total=args.n,
        dist=parse_distribution(args.dist),
        seed=args.seed,
    )
    g = build_generator(spec)
    save_generator(g, args.out)
    print(f"wrote {args.out} (K={g.k_info} N={g.n_total} duty={g.parity_duty_ratio():.4%})")
    return 0


def _cmd_encode(args) -> int:
    g = load_generator(args.code)
    scene = read_scene(args.scene)
    scene.require_binary()
    codeword = encode(g, scene.reflectance.astype(np.uint8))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("".join(str(int(b)) for b in codeword) + "\n")
    print(f"wrote {args.out} ({len(codeword)} bits)")
    return 0


def _cmd_sense(args) -> int:
    g = load_generator(args.code)
    ens = patterns_from_generator(g)
    scene = read_scene(args.scene)
    ch = ChannelParams.at_snr_db(args.snr_db, args.es, args.fading, not args.no_csi)
    meas = sense(ens, scene, ch, args.seed)
    save_measurement_csv(meas, args.out)
    print(f"wrote {args.out} ({meas.n_shots} shots)")
    return 0


def _cmd_decode(args) -> int:
    g = load_generator(args.code)
    if args.width * args.height != g.k_info:
        raise ValueError(
            f"--width {args.width} x --height {args.height} is "
            f"{args.width * args.height} pixels, but the code has K = {g.k_info}"
        )
    ens = patterns_from_generator(g)
    meas = load_measurement_csv(args.meas)
    options = BpOptions(max_iters=args.max_iters, damping=args.damping, prior=args.prior)
    result = decode_sum_bp(meas, ens, options)
    write_pgm(args.out, args.width, args.height, result.pixels.astype(np.float64))
    d = result.diagnostics
    print(
        f"wrote {args.out} (iterations={d.iterations_run} converged={d.converged} "
        f"residual={d.residual:.4g})"
    )
    return 0


def _cmd_bound(args) -> int:
    rows = bound_sweep(
        k_info=args.k,
        n_total=args.n,
        dist=parse_distribution(args.dist),
        snr_db_list=args.snr_db,
        es=args.es,
    )
    lines = ["# schema: codedgi.bound-sweep.v1", "snr_db,gamma,p_ray,p_e,p_b"]
    for row in rows:
        lines.append(
            f"{row['snr_db']:g},{row['gamma']!r},{row['p_ray']!r},"
            f"{row['p_e']!r},{row['p_b']!r}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_scene(args) -> int:
    scene = builtin_scene(args.name, args.width, args.height)
    write_pgm(args.out, scene.width, scene.height, scene.reflectance)
    print(f"wrote {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = RunConfig(experiment=args.command)
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; have {sorted(PRESETS)}")
        cfg = dataclasses.replace(cfg, **PRESETS[args.preset])
    if args.config:
        cfg = load_config(args.config, base=cfg)
    overrides = {"experiment": args.command}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    if args.threads is not None:
        overrides["threads"] = args.threads
    cfg = dataclasses.replace(cfg, **overrides)
    run_dir = run_experiment(cfg)
    print(f"run complete: {run_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codedgi",
        description="Coded computational ghost imaging simulator",
    )
    parser.add_argument("--version", action="version", version=f"codedgi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        return p

    p = command("gen-code", _cmd_gen_code, "generate and save a code")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dist", default="8", help="degree (e.g. 8) or mixture d:w,d:w")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)

    p = command("encode", _cmd_encode, "encode a binary scene PGM into a codeword")
    p.add_argument("--code", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)

    p = command("sense", _cmd_sense, "simulate one bucket acquisition")
    p.add_argument("--code", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--snr-db", type=float, default=10.0)
    p.add_argument("--es", type=float, default=1.0)
    p.add_argument("--fading", choices=FADING_MODES, default="rayleigh")
    p.add_argument("--no-csi", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)

    p = command("decode", _cmd_decode, "BP-decode a measurement CSV")
    p.add_argument("--code", required=True)
    p.add_argument("--meas", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    bp = BpOptions()
    p.add_argument("--max-iters", type=int, default=bp.max_iters)
    p.add_argument("--damping", type=float, default=bp.damping, help="message damping")
    p.add_argument(
        "--prior", type=parse_prior, default=bp.prior, help="prior P(pixel = 1), or auto to estimate it"
    )
    p.add_argument("--out", required=True)

    p = command("bound", _cmd_bound, "evaluate the analytic BER lower bound")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dist", default="8")
    p.add_argument("--es", type=float, default=1.0)
    p.add_argument("--snr-db", type=float, nargs="+", required=True)
    p.add_argument("--out", default="")

    p = command("scene", _cmd_scene, "write a builtin scene as PGM")
    p.add_argument("--name", choices=SCENE_NAMES, required=True)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--out", required=True)

    for experiment in EXPERIMENTS:
        p = command(experiment, _cmd_experiment, f"run the {experiment} experiment")
        p.add_argument("--config", default="")
        p.add_argument("--preset", default="", help=f"one of {sorted(PRESETS)}")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--threads", type=int, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
