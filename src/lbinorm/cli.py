"""Command-line front end: CSV in, JSON report or CSV power table out.

Exit codes: 0 success, 2 input error (any other ``LbinormError``, a
``ValueError``, or any ``OSError``: a file-system or I/O failure, such as a
path argument that cannot be read or written), 3 numerical failure
(``errors.NumericalError``).

A process loads only what its command runs: ``scores`` when a score is
parsed, ``stable`` for a ``stable:`` score, ``univariate`` (through
``calibration``) for a score-based statistic, ``multivariate`` for ``mvn``
and ``alternatives`` for ``power``.
"""

from __future__ import annotations

import gc

# Run as a script, import with the cycle collector off: the ~33 collections
# of numpy's and lbinorm's imports reclaim next to nothing.  entry() turns it on.
if __name__ == "__main__":
    gc.disable()

import argparse
import contextlib
import csv
import ctypes
import json
import math
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import calibration as cal_mod
from .errors import IncompatibleSelection, LbinormError, NumericalError, ParseError

if TYPE_CHECKING:
    from .scores import ScoreFunction
    from .stable import InversionConfig

def __getattr__(name: str):
    # stable.py loads on the first read of score_stable, so only for a stable: score
    if name == "score_stable":
        from .stable import score_stable
        return score_stable
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The keys that each key=value score kind reads
_SCORE_KEYS = {"gh": ("beta",), "id": ("kappa3", "kappa4"), "stable": ("beta",)}


def parse_score(spec: str, inversion_cfg: InversionConfig | None = None) -> ScoreFunction:
    """Resolve a score selection string.

    Forms: hermite:k, gh:beta=<v>, id:kappa3=<v>,kappa4=<v>,
    contam:<builtin-name>, stable:beta=<v>.  A key that the kind does not
    read, or a key given twice, is refused.  ``inversion_cfg`` is for
    library callers; the command line always tabulates a stable score with
    the default settings.
    """
    from .scores import (builtin_contaminations, score_contamination, score_gh_limit,
                         score_hermite, score_infinitely_divisible)
    kind, _, rest = spec.partition(":")
    try:
        if kind == "hermite":
            return score_hermite(int(rest))
        if kind == "contam":
            densities = builtin_contaminations()
            if rest not in densities:
                raise ValueError(
                    f"unknown contamination '{rest}'; choose from {sorted(densities)}"
                )
            return score_contamination(densities[rest], label=f"contam:{rest}")
        if kind not in _SCORE_KEYS:
            raise ValueError(f"unknown score kind '{kind}'")
        kv = {}
        for part in rest.split(",") if rest else ():
            key, _, val = part.partition("=")
            key = key.strip()
            if key not in _SCORE_KEYS[kind]:
                raise ValueError(f"score kind '{kind}' reads no key '{key}'")
            if key in kv:
                raise ValueError(f"score kind '{kind}' reads key '{key}' twice")
            kv[key] = float(val)
        if kind == "gh":
            return score_gh_limit(kv["beta"])
        if kind == "id":
            return score_infinitely_divisible(kv.get("kappa3", 0.0), kv.get("kappa4", 0.0))
        # read from the module, so that a replaced cli.score_stable is the one called
        return sys.modules[__name__].score_stable(kv.get("beta", 0.0), inversion_cfg)
    except KeyError as exc:
        raise ValueError(f"malformed score string '{spec}'") from exc


def read_csv(path) -> np.ndarray:
    """Read a numeric CSV; a non-numeric first row is treated as a header.

    A file that does not decode, or a cell that parses to a non-finite
    number (nan, inf), is a ParseError.
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: empty file")
    start = 0
    try:
        [float(c) for c in rows[0]]
    except ValueError:
        start = 1
    if start >= len(rows):
        raise ParseError(f"{path}: no data rows")
    width = len(rows[start])
    data = []
    for ri, row in enumerate(rows[start:], start=start + 1):
        if len(row) != width:
            raise ParseError(f"{path}: row {ri} has {len(row)} columns, expected {width}")
        vals = []
        for ci, cell in enumerate(row, start=1):
            try:
                val = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric value {cell!r} at row {ri}, column {ci}"
                ) from None
            if not math.isfinite(val):
                raise ParseError(f"{path}: non-finite value {cell!r} at row {ri}, column {ci}")
            vals.append(val)
        data.append(vals)
    arr = np.asarray(data)
    return arr[:, 0] if arr.shape[1] == 1 else arr


def _resolve_seed(args) -> int:
    """The given seed, which a cache header stores in 64 bits, or a fresh one."""
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            raise ValueError(f"--seed must be in [0, 2**64), not {args.seed}")
        return args.seed
    if args.reproducible:
        raise ValueError("--reproducible requires --seed")
    import secrets
    return secrets.randbits(32)


def _build_statistic(args):
    if args.score and args.test not in cal_mod.LBI_FORMS:
        raise ValueError(f"statistic '{args.test}' takes no score")
    score = parse_score(args.score) if args.score else None
    return cal_mod.make_statistic(args.test, score=score, group=args.group), score


def _get_calibration(stat, n, p, reps, seed, cache_dir):
    """The null for (n, p, reps, seed), read from a cache whose header matches."""
    if not cache_dir:
        return cal_mod.calibrate_null(stat, n, reps, seed, p=p)
    path = cal_mod.cache_path(cache_dir, stat.label, n, p, reps, seed, stat.fingerprint)
    if path.exists():
        cal = cal_mod.load_calibration(path, stat.label, stat.fingerprint)
        header = (cal.n, cal.p, cal.reps, cal.seed)
        if header != (n, p, reps, seed):
            raise ValueError(f"{path}: cache header has (n, p, reps, seed) = {header}, "
                             f"not the requested {(n, p, reps, seed)}")
        return cal
    cal = cal_mod.calibrate_null(stat, n, reps, seed, p=p)
    cal_mod.save_calibration(cal, path)
    return cal


def _check_level(level: float) -> None:
    """Refuse a level outside (0, 1) before any input is read or null built."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")


def run_test(args) -> dict:
    _check_level(args.level)
    data = read_csv(args.input)
    seed = _resolve_seed(args)
    multivariate = data.ndim == 2
    if multivariate and args.test != "mvn":
        raise IncompatibleSelection(
            "multi-column input requires --test mvn"
        )
    if not multivariate and args.test == "mvn":
        raise IncompatibleSelection("--test mvn requires multi-column input")
    n = data.shape[0]
    p = data.shape[1] if multivariate else 1
    stat, score = _build_statistic(args)
    value = stat.compute(data)
    cal = _get_calibration(stat, n, p, args.reps, seed, args.calibration_cache)
    pv = cal_mod.p_value(cal, value)
    report = {
        "statistic_label": stat.label,
        "score_label": score.family_label if score else args.test,
        "method": stat.method,
        "n": int(n),
        "p": int(p),
        "value": value,
        "p_value": pv,
        "level": args.level,
        "reject": bool(pv <= args.level),
        "calibration": {"reps": args.reps, "seed": seed},
        "config_echo": {
            "test": args.test,
            "score": args.score,
            "group": args.group if args.test == "mvn" else None,
            "input": str(args.input),
        },
    }
    out = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.json:
        Path(args.json).write_text(out)
    else:
        sys.stdout.write(out)
    return report


def run_calibrate(args) -> Path:
    if not args.calibration_cache:
        raise ValueError("calibrate requires --calibration-cache")
    if args.test == "mvn" and args.p < 2:
        raise ValueError(f"--p must be >= 2 for --test mvn, got {args.p}")
    seed = _resolve_seed(args)
    stat, _ = _build_statistic(args)
    p = args.p if args.test == "mvn" else 1
    cal = cal_mod.calibrate_null(stat, args.n, args.reps, seed, p=p)
    path = cal_mod.cache_path(
        args.calibration_cache, stat.label, args.n, cal.p, args.reps, seed, cal.fingerprint,
    )
    cal_mod.save_calibration(cal, path)
    sys.stdout.write(str(path) + "\n")
    return path


def run_power(args) -> list:
    # every sampler is univariate; an mvn --score gets _build_statistic's refusal instead
    if args.test == "mvn" and not args.score:
        raise IncompatibleSelection("power has no multivariate alternatives yet; "
                                    "--test mvn runs with test and calibrate only")
    _check_level(args.level)
    if args.power_reps < 1:
        raise ValueError("power reps must be >= 1")
    shapes = [float(s) for s in args.shapes.split(",")]
    for shape in shapes:
        cal_mod.check_alternative(
            cal_mod.AlternativeSpec(family=args.family, shape=shape, beta=args.family_beta))
    seed = _resolve_seed(args)
    stat, _ = _build_statistic(args)
    cal = _get_calibration(stat, args.n, 1, args.reps, seed, args.calibration_cache)
    rows = cal_mod.power_curve(
        stat,
        args.family,
        shapes,
        args.n,
        args.level,
        args.power_reps,
        seed + 1,
        cal,
        beta=args.family_beta,
    )
    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow(["shape", "power", "se"])
        for row in rows:
            writer.writerow([row["shape"], f"{row['power']:.6f}", f"{row['se']:.6f}"])
    return rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lbinorm")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--test", required=True,
                        choices=["skew", "kurt", *cal_mod.LBI_FORMS, "mvn"])
        sp.add_argument("--score", default=None,
                        help="hermite:k | gh:beta=<v> | id:kappa3=<v>,kappa4=<v> | "
                             "contam:<name> | stable:beta=<v>")
        sp.add_argument("--group", choices=["gl", "lt"], default="lt")
        sp.add_argument("--level", type=float, default=0.05)
        sp.add_argument("--reps", type=int, default=10_000)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--reproducible", action="store_true")
        sp.add_argument("--calibration-cache", default=None)

    t = sub.add_parser("test", help="run a normality test on a CSV file")
    common(t)
    t.add_argument("--input", required=True)
    t.add_argument("--json", default=None, help="write the report here instead of stdout")
    t.set_defaults(run=run_test)

    c = sub.add_parser("calibrate", help="build and cache a null calibration")
    common(c)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--p", type=int, default=2, help="dimension for --test mvn")
    c.set_defaults(calibration_cache=".", run=run_calibrate)

    w = sub.add_parser("power", help="empirical power over a shape grid")
    common(w)
    w.add_argument("--n", type=int, required=True)
    w.add_argument("--family", required=True, choices=list(
        cal_mod.AlternativeSpec.FAMILIES))
    w.add_argument("--shapes", required=True, help="comma-separated theta grid")
    w.add_argument("--family-beta", type=float, default=0.0)
    w.add_argument("--power-reps", type=int, default=10_000)
    w.add_argument("--out", default=None, help="write the power table to this CSV")
    w.set_defaults(run=run_power)
    return parser


# glibc's mallopt parameters, and the values this process sets them to
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 4 << 20
_TRIM_THRESHOLD = 8 << 20


def _keep_chunk_pages() -> None:
    """Serve blocks under 4 MiB from the heap and keep up to 8 MiB of freed
    heap top, so that the 256-512 KiB temporaries of each Monte-Carlo chunk
    reuse the pages of the chunk before instead of being mapped and faulted
    in again.  Only the command line sets this: the library leaves its host
    process's allocator alone.  Without glibc's ``mallopt``, nothing happens.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_chunk_pages()
    args = build_parser().parse_args(argv)
    try:
        args.run(args)
    except (LbinormError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericalError) else 2
    return 0


def entry() -> None:
    """Process entry of ``lbinorm`` and ``python -m lbinorm.cli``.

    Prints each warning as one ``warning: <message>`` line.  Freezes every
    object the imports left, so that the collections of ``main`` skip them,
    and turns the cycle collector on.  Freezes again once ``main`` returns:
    the interpreter's shutdown then skips its final cycle-collection sweep
    (~20 ms of numpy and lbinorm objects), which would reclaim nothing the
    ending process needs.  Exit handlers and stream flushes run as usual.
    Not part of ``main``, which tests and embedding programs call in-process.
    """
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    gc.freeze()
    gc.enable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
