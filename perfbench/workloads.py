"""Workload definitions: the statistics each workload runs, its inputs, and
the CLI invocations that make up one round.

A round is calibrate (every statistic), then test (every tested statistic
on its input CSVs), then power (one family per statistic).  Every round of a
workload runs the same invocations, so the share of failed operations does
not depend on the seed or on how many rounds a run makes.
"""

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FAMILIES = ("student-t", "gamma-centered", "laplace", "stable", "gh-variance-mean")
LEVEL = 0.05

# Tests that run with two different scores somewhere in the benchmark; their
# layer metrics carry the score kind so the two do not share one name.
_SHARED_TESTS = ("lbi-approx", "profile", "lbi-exact")


def stat_key(test: str, score: str | None = None, group: str | None = None) -> str:
    """Metric name of a statistic, e.g. ``lbi-approx.stable`` or ``mvn-gl``."""
    if test == "mvn":
        return f"mvn-{group}"
    if test in _SHARED_TESTS:
        return f"{test}.{score.split(':')[0]}"
    return test


@dataclass(frozen=True)
class Stat:
    test: str
    score: str | None = None
    group: str | None = None
    p: int = 1
    family: str | None = None  # power family; None runs no power
    tested: bool = True  # run `test` on the workload's CSVs
    faults: tuple = ()  # kinds of invocation that fail today (see README)

    @property
    def key(self) -> str:
        base = stat_key(self.test, self.score, self.group)
        return f"{base}.p{self.p}" if self.test == "mvn" else base

    @property
    def ranked_by_m4(self) -> bool:
        """The statistic is an increasing affine map of the fourth moment m4."""
        return self.score == "hermite:4" and self.test in ("lbi-exact", "lbi-closed", "profile")

    @property
    def layer_key(self) -> str:
        return stat_key(self.test, self.score, self.group)

    def cli_args(self) -> list:
        args = ["--test", self.test]
        if self.score:
            args += ["--score", self.score]
        if self.group:
            args += ["--group", self.group]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    reps: int
    power_reps: int
    shapes: str
    stats: tuple
    rounds: int  # rounds per block; an invocation's time is its fastest round


def _uni_stats(large: bool) -> tuple:
    # Each statistic's power runs against a family that suits it; together
    # they cover all five.  The stable family with a stable score is what
    # sends residuals outside the score's tabulated grid at large n.
    specs = [
        ("skew", None, "gamma-centered"), ("kurt", None, "student-t"),
        ("lbi-closed", "hermite:4", "laplace"),
        ("lbi-approx", "gh:beta=1", "gh-variance-mean"),
        ("profile", "hermite:4", "student-t"),
        ("lbi-approx", "stable:beta=0", "stable"), ("profile", "stable:beta=0", "stable"),
    ]
    out = []
    for test, score, family in specs:
        # lbi-closed overflows in math.gamma from n ~ 400 (calibrate and power
        # fail with OverflowError); `test` would fail the same way, so only
        # calibrate and power are run.
        fault = large and test == "lbi-closed"
        out.append(Stat(test, score, family=family, tested=not fault,
                        faults=("calibrate", "power") if fault else ()))
    return tuple(out)


def _smoothed_stats() -> tuple:
    return (
        Stat("lbi-exact", "hermite:4", family="laplace"),
        Stat("lbi-exact", "stable:beta=0", family="student-t"),
        Stat("lbi-mc", "hermite:4", family="gamma-centered"),
    )


def _mvn_stats(ps) -> tuple:
    # `power --test mvn` fails today (run_power passes p = 1 and every
    # sampler is univariate); the calls stay so that mvn reports power_s.
    return tuple(Stat("mvn", group=group, p=p, family="laplace", faults=("power",))
                 for group in ("gl", "lt") for p in ps)


def workloads(size: str = "full") -> dict:
    """All workloads by name; ``size="tiny"`` shrinks them for the self-tests."""
    if size == "tiny":
        wls = [
            Workload("uni-small-n", 20, 1000, 500, "0,0.2", _uni_stats(False), 1),
            Workload("uni-large-n", 500, 1000, 500, "0,0.1", _uni_stats(True), 2),
            Workload("uni-smoothed", 12, 1000, 20, "0,0.2", _smoothed_stats(), 1),
            Workload("mvn", 20, 1000, 500, "0,0.2", _mvn_stats((3, 5)), 2),
        ]
    else:
        # uni-large-n and mvn make two rounds per block: with one, their
        # totals spread by up to 13% (uni-large-n calibrate_s) and 28% (mvn
        # power_s) between runs.  Two rounds everywhere would make a run of
        # every workload too long.
        wls = [
            Workload("uni-small-n", 20, 100_000, 20_000, "0,0.2", _uni_stats(False), 1),
            Workload("uni-large-n", 2000, 2000, 1000, "0,0.1", _uni_stats(True), 2),
            Workload("uni-smoothed", 20, 1000, 100, "0,0.2", _smoothed_stats(), 1),
            Workload("mvn", 50, 20_000, 2000, "0,0.2", _mvn_stats((3, 5)), 2),
        ]
    return {wl.name: wl for wl in wls}


# ---------------------------------------------------------------- inputs


def _write_csv(path: Path, data: np.ndarray) -> None:
    data = data.reshape(data.shape[0], -1)
    header = ",".join(f"x{j + 1}" for j in range(data.shape[1]))
    rows = (",".join(repr(float(v)) for v in row) for row in data)
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def _affine_map(rng, p: int, group: str):
    """A map the statistic is invariant under: a nonsingular matrix (gl) or a
    lower-triangular one with positive diagonal (lt)."""
    if group == "gl":
        a = rng.standard_normal((p, p)) + p * np.eye(p)
    else:
        a = np.tril(rng.standard_normal((p, p)), -1) + np.diag(1.0 + rng.random(p))
    return a, rng.standard_normal(p)


def write_inputs(wl: Workload, seed: int, directory: Path) -> dict:
    """Write the workload's CSVs; returns {stat key: {sample name: path}}.

    Every tested statistic sees an alternative sample and the alternative
    under a map the statistic must be invariant under; those ranked by m4
    also see a normal sample.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed % 2**32, zlib.crc32(wl.name.encode())])
    n = wl.n
    out = {}
    if wl.stats[0].test != "mvn":
        normal = rng.standard_normal(n)
        alt = rng.standard_t(5.0, n)
        files = {"normal": normal, "alt": alt, "alt-affine": 3.0 + 2.0 * alt}
        paths = {}
        for name, data in files.items():
            paths[name] = directory / f"{name}.csv"
            _write_csv(paths[name], data)
        return {st.key: _samples_for(st, paths) for st in wl.stats if st.tested}
    for st in wl.stats:
        p = st.p
        mix = np.eye(p) + 0.3 * rng.standard_normal((p, p))
        normal = rng.standard_normal((n, p)) @ mix.T
        alt = rng.laplace(size=(n, p)) @ mix.T
        a, b = _affine_map(rng, p, st.group)
        files = {"normal": normal, "alt": alt, "alt-affine": alt @ a.T + b}
        paths = {}
        for name, data in files.items():
            paths[name] = directory / f"{st.key}-{name}.csv"
            _write_csv(paths[name], data)
        out[st.key] = _samples_for(st, paths)
    return out


def _samples_for(st: Stat, paths: dict) -> dict:
    return {k: v for k, v in paths.items() if k != "normal" or st.ranked_by_m4}


# ---------------------------------------------------------------- rounds


def round_ops(wl: Workload, seed: int, inputs: dict, round_dir: Path) -> list:
    """The CLI invocations of one round, in the order they run.

    Each op is a JSON-able dict: kind, stat key, argv (without the program),
    stdout file, known_fault, and for tests the sample name.
    """
    cache = round_dir / "cache"
    out_dir = round_dir / "out"
    cli_seed = seed % 2**32
    common = ["--reps", str(wl.reps), "--seed", str(cli_seed), "--level", str(LEVEL),
              "--calibration-cache", str(cache)]
    ops = []

    def add(kind, st, args, sample=None):
        tag = f"{len(ops):03d}-{kind}-{st.key}" + (f"-{sample}" if sample else "")
        ops.append({
            "kind": kind, "stat": st.key, "args": [kind] + args,
            "out": str(out_dir / f"{tag}.out"), "known_fault": kind in st.faults,
            "sample": sample,
        })

    for st in wl.stats:
        extra = ["--p", str(st.p)] if st.test == "mvn" else []
        add("calibrate", st, st.cli_args() + common + ["--n", str(wl.n)] + extra)
    for st in wl.stats:
        if st.tested:
            for sample, path in inputs[st.key].items():
                add("test", st, st.cli_args() + common + ["--input", str(path)], sample)
    for st in wl.stats:
        if st.family:
            add("power", st, st.cli_args() + common + [
                "--n", str(wl.n), "--family", st.family, "--shapes", wl.shapes,
                "--power-reps", str(wl.power_reps)])
    return ops
