"""Output checks and quality figures for one sweep's run directory.

Every trial that a failed check covers counts as failed. A trial whose
decode did not converge is a quality figure, not a failure.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field

COMPARE_METHODS = ("ldpc", "cgi", "dgi", "pinv")
# Result files that must come out byte-identical from the untraced and the
# traced run of one sweep. The manifest carries a timestamp and is skipped.
RESULT_FILES = re.compile(r"(ber_sweep|decode_diagnostics|compare)\.csv|.*\.pgm")


class CheckError(Exception):
    """An output file is missing or malformed; fails every trial of the sweep."""


@dataclass
class SweepOutcome:
    trials: int
    failed: set = field(default_factory=set)  # (point, trial) keys
    problems: list = field(default_factory=list)
    ber_sum: float = 0.0
    converged: int = 0
    iterations: list = field(default_factory=list)  # per decode, in trial order
    point_ber: list = field(default_factory=list)  # ber_mean per sweep point
    method_ber: dict = field(default_factory=dict)  # compare method -> per-trial BERs

    def fail(self, keys, why: str) -> None:
        self.failed.update(keys)
        self.problems.append(why)


def read_csv(path: str, schema: str) -> tuple[list[str], list[dict]]:
    """Rows of a CSV whose first line is '# schema: <schema>.v<N>'."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CheckError(f"{os.path.basename(path)}: {exc}") from exc
    if len(lines) < 2 or not re.fullmatch(rf"# schema: {re.escape(schema)}\.v\d+", lines[0]):
        raise CheckError(f"{os.path.basename(path)}: no '# schema: {schema}.vN' tag")
    header = lines[1].split(",")
    rows = []
    for lineno, line in enumerate(lines[2:], start=3):
        cells = line.split(",")
        if len(cells) != len(header):
            raise CheckError(f"{os.path.basename(path)}:{lineno}: {len(cells)} cells")
        rows.append(dict(zip(header, cells)))
    return header, rows


def _require(header: list[str], columns: tuple[str, ...], name: str) -> None:
    missing = [c for c in columns if c not in header]
    if missing:
        raise CheckError(f"{name}: missing columns {missing}")


def pgm_ok(path: str, width: int, height: int) -> bool:
    """A binary (P5) 8-bit PGM of the given size."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return False
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return data.startswith(header) and len(data) == len(header) + width * height


def _in_unit(x: float) -> bool:
    return 0.0 <= x <= 1.0


def check_ber_sweep(cfg, run_dir: str, bound_p_b: list[float]) -> SweepOutcome:
    points = len(cfg.snr_db_list)
    out = SweepOutcome(trials=points * cfg.trials)
    grid = {(p, t) for p in range(points) for t in range(cfg.trials)}
    try:
        header, rows = read_csv(os.path.join(run_dir, "ber_sweep.csv"), "codedgi.ber-sweep")
        _require(header, ("snr_db", "ber_mean", "bound", "trials"), "ber_sweep.csv")
        dheader, drows = read_csv(
            os.path.join(run_dir, "decode_diagnostics.csv"), "codedgi.decode-diag"
        )
        _require(dheader, ("point", "trial", "iterations_run", "converged"), "decode_diagnostics.csv")
        if len(rows) != points:
            raise CheckError(f"ber_sweep.csv: {len(rows)} rows for {points} points")
        if not os.path.isfile(os.path.join(run_dir, "manifest.txt")):
            raise CheckError("manifest.txt missing")
        for p, (row, snr_db) in enumerate(zip(rows, cfg.snr_db_list)):
            point_keys = {(p, t) for t in range(cfg.trials)}
            ber_mean, bound = float(row["ber_mean"]), float(row["bound"])
            if float(row["snr_db"]) != snr_db or int(row["trials"]) != cfg.trials:
                out.fail(point_keys, f"point {p}: snr_db/trials {row['snr_db']}/{row['trials']}")
            if not _in_unit(ber_mean):
                out.fail(point_keys, f"point {p}: ber_mean {ber_mean} outside [0, 1]")
            if not math.isclose(bound, bound_p_b[p], rel_tol=1e-12, abs_tol=0.0):
                out.fail(point_keys, f"point {p}: bound {bound!r} != bound_sweep {bound_p_b[p]!r}")
            out.ber_sum += ber_mean * cfg.trials
            out.point_ber.append(ber_mean)
        seen = set()
        for row in drows:
            key = (int(row["point"]), int(row["trial"]))
            iters, conv = int(row["iterations_run"]), int(row["converged"])
            if key not in grid or key in seen or not 1 <= iters <= cfg.max_iters or conv not in (0, 1):
                out.fail({key} & grid, f"decode_diagnostics.csv: bad row {row}")
            seen.add(key)
            out.iterations.append(iters)
            out.converged += conv
        if seen != grid:
            out.fail(grid - seen, f"decode_diagnostics.csv: {len(grid - seen)} trials missing")
    except (CheckError, ValueError, KeyError) as exc:
        out.fail(grid, f"{type(exc).__name__}: {exc}")
    return out


def check_compare(cfg, run_dir: str) -> SweepOutcome:
    out = SweepOutcome(trials=cfg.trials)
    grid = {(0, t) for t in range(cfg.trials)}
    try:
        header, rows = read_csv(os.path.join(run_dir, "compare.csv"), "codedgi.compare")
        _require(header, ("method", "trial", "ber"), "compare.csv")
        if not os.path.isfile(os.path.join(run_dir, "manifest.txt")):
            raise CheckError("manifest.txt missing")
        bers = {m: {} for m in COMPARE_METHODS}
        for row in rows:
            method, t, b = row["method"], int(row["trial"]), float(row["ber"])
            if method not in bers or not 0 <= t < cfg.trials or t in bers[method]:
                raise CheckError(f"compare.csv: unexpected row {row}")
            bers[method][t] = b
            if not _in_unit(b):
                out.fail({(0, t)}, f"compare.csv: {method} trial {t} ber {b} outside [0, 1]")
        for method, by_trial in bers.items():
            missing = grid - {(0, t) for t in by_trial}
            if missing:
                out.fail(missing, f"compare.csv: {method} misses {len(missing)} trials")
        out.method_ber = {m: [bers[m][t] for t in sorted(bers[m])] for m in COMPARE_METHODS}
        out.ber_sum = sum(out.method_ber["ldpc"])
        for method in COMPARE_METHODS:
            name = f"{method}_snr{cfg.snr_db:g}_s{cfg.sampling}_t0.pgm"
            if not pgm_ok(os.path.join(run_dir, name), cfg.width, cfg.height):
                out.fail({(0, 0)}, f"{name} missing or not a {cfg.width}x{cfg.height} P5 PGM")
    except (CheckError, ValueError, KeyError) as exc:
        out.fail(grid, f"{type(exc).__name__}: {exc}")
    return out


def result_bytes(run_dir: str) -> dict[str, bytes]:
    """The result CSVs and the PGMs of a run directory, by name."""
    files = {}
    for name in sorted(os.listdir(run_dir)):
        if RESULT_FILES.fullmatch(name):
            with open(os.path.join(run_dir, name), "rb") as fh:
                files[name] = fh.read()
    return files
