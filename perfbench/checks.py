"""Correctness checks on the CLI's outputs.

Every check compares against a property or an independent computation made
here (a known null moment, an invariance, a recount from the cache file's
own bytes), never against stored output.  A failed check raises CheckFailed.
"""

import csv
import io
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# LBICAL1 cache layout: magic, version, label hash, n, p, reps, seed; then
# the sorted null values as little-endian float64.
_HEADER = struct.Struct("<7sB16sIIQQ")
_MAGIC = b"LBICAL1"
Z = 5.0  # width of the Monte-Carlo acceptance bands, in standard errors
_RTOL = 1e-9  # float tolerance of the invariance checks


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class CacheFile:
    n: int
    p: int
    reps: int
    seed: int
    values: np.ndarray


def parse_cache(raw: bytes) -> CacheFile:
    """Decode a calibration cache and check that its payload is whole,
    finite and sorted."""
    if len(raw) < _HEADER.size:
        raise CheckFailed(f"cache has {len(raw)} bytes, shorter than its header")
    magic, _version, _label, n, p, reps, seed = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise CheckFailed(f"cache magic is {magic!r}")
    payload = raw[_HEADER.size:]
    if len(payload) != 8 * reps:
        raise CheckFailed(f"cache holds {len(payload)} payload bytes for {reps} values")
    values = np.frombuffer(payload, dtype="<f8")
    check_finite(values, "cache values")
    if np.any(np.diff(values) < 0.0):
        raise CheckFailed("cache values are not sorted")
    return CacheFile(n, p, reps, seed, values)


def check_finite(values, what: str) -> None:
    if not np.all(np.isfinite(np.asarray(values, dtype=float))):
        raise CheckFailed(f"{what} not finite")


def check_null_mean(values: np.ndarray, expected: float, what: str) -> None:
    """The mean of the null draws lies within Z standard errors of its
    known expectation."""
    mean = float(values.mean())
    se = float(values.std(ddof=1)) / math.sqrt(values.size)
    if not abs(mean - expected) <= Z * se:
        raise CheckFailed(f"{what}: null mean {mean:.6g}, expected {expected:.6g} (se {se:.2g})")


def expected_null_mean(stat_key: str, n: int, p: int):
    """Known null expectation of a statistic, or None.

    skew is symmetric about 0; kurt is b2 with E[b2] = 3(n-1)/(n+1); mvn-gl
    is n times Mardia's b2,p with E[b2,p] = p(p+2)(n-1)/(n+1).
    """
    if stat_key == "skew":
        return 0.0
    if stat_key == "kurt":
        return 3.0 * (n - 1) / (n + 1)
    if stat_key.startswith("mvn-gl"):
        return n * p * (p + 2) * (n - 1) / (n + 1)
    return None


def p_value(cache: CacheFile, value: float) -> float:
    """(r+1)/(reps+1) with r the number of null values >= value."""
    r = int(np.count_nonzero(cache.values >= value))
    return (r + 1) / (cache.reps + 1)


def check_report(report: dict, cache: CacheFile, level: float, n: int, p: int,
                 reps: int, seed: int) -> None:
    """A test report agrees with its inputs and with the cache it was served by."""
    value, pv = report["value"], report["p_value"]
    check_finite([value, pv], "report value/p_value")
    if (report["n"], report["p"]) != (n, p):
        raise CheckFailed(f"report n, p = {report['n']}, {report['p']}; input is {n}, {p}")
    if report["calibration"] != {"reps": reps, "seed": seed}:
        raise CheckFailed(f"report calibration {report['calibration']}")
    if (cache.n, cache.p, cache.reps, cache.seed) != (n, p, reps, seed):
        raise CheckFailed("cache header does not match the request")
    expected = p_value(cache, value)
    if pv != expected:
        raise CheckFailed(f"p_value {pv!r}, recomputed from the cache {expected!r}")
    if report["reject"] != (pv <= level):
        raise CheckFailed(f"reject={report['reject']} with p_value {pv} at level {level}")


def check_invariant(a: dict, b: dict, cache: CacheFile) -> None:
    """Two reports on samples related by an invariance map agree: the value
    to float precision, and the p-value unless a null value lies between."""
    va, vb = a["value"], b["value"]
    q1, q3 = np.quantile(cache.values, [0.25, 0.75])
    tol = _RTOL * (abs(va) + abs(vb) + float(q3 - q1))
    if not abs(va - vb) <= tol:
        raise CheckFailed(f"value not invariant: {va!r} vs {vb!r}")
    lo, hi = min(va, vb), max(va, vb)
    between = np.any((cache.values >= lo) & (cache.values <= hi))
    if a["p_value"] != b["p_value"] and not between:
        raise CheckFailed(f"p_value not invariant: {a['p_value']} vs {b['p_value']}")


def fourth_moment(data: np.ndarray) -> float:
    """Standardized fourth sample moment m4 (divisor n)."""
    z = data - data.mean()
    return float(np.mean(z**4) / np.mean(z**2) ** 2)


def check_rank(values, moments, what: str) -> None:
    """Statistics that are increasing affine maps of m4 rank samples as m4 does."""
    if list(np.argsort(values)) != list(np.argsort(moments)):
        raise CheckFailed(f"{what}: values {values} not ordered like m4 {moments}")


def parse_power(text: str) -> dict:
    """shape -> power from the CLI's power table."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["shape", "power", "se"]:
        raise CheckFailed(f"power table header {rows[:1]}")
    table = {}
    for row in rows[1:]:
        shape, pw, se = (float(c) for c in row)
        check_finite([shape, pw, se], "power row")
        if not 0.0 <= pw <= 1.0:
            raise CheckFailed(f"power {pw} outside [0, 1]")
        table[shape] = pw
    return table


def check_rejection_rate(rate: float, level: float, power_reps: int, cal_reps: int) -> None:
    """At shape 0 the data are normal, so the rejection rate is the level
    up to the binomial error of both the power draws and the critical value
    (plus one null value of discreteness)."""
    se = math.sqrt(level * (1.0 - level) * (1.0 / power_reps + 1.0 / cal_reps))
    if not abs(rate - level) <= Z * se + 1.0 / cal_reps:
        raise CheckFailed(f"rejection rate {rate} at shape 0, level {level} (se {se:.2g})")


def check_cache_unchanged(before: dict, after: dict) -> None:
    if before != after:
        raise CheckFailed("the test phase changed the calibration cache (a cache miss)")


# ---------------------------------------------------------------- one round


def check_round(wl, ops: list, result: dict, inputs: dict, level: float) -> list:
    """Run every check on a round's outputs; returns the failures as text.

    An invocation that fails is allowed only where the workload names it as
    a known fault; one that succeeds is checked whether or not it is named.
    """
    stats = {st.key: st for st in wl.stats}
    failures = []
    caches = {}
    reports = {}

    def attempt(what, fn, *args):
        try:
            return fn(*args)
        except CheckFailed as exc:
            failures.append(f"{what}: {exc}")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            failures.append(f"{what}: unreadable output ({exc!r})")
        return None

    for op, res in zip(ops, result["results"]):
        st = stats[op["stat"]]
        what = f"{op['kind']} {op['stat']}" + (f" {op['sample']}" if op["sample"] else "")
        if res["code"] != 0:
            if not op["known_fault"]:
                failures.append(f"{what}: exit code {res['code']}")
            continue
        text = Path(op["out"]).read_text()
        if op["kind"] == "calibrate":
            cache = attempt(what, lambda: parse_cache(Path(text.strip()).read_bytes()))
            if cache is None:
                continue
            caches[st.key] = cache
            if (cache.n, cache.p, cache.reps) != (wl.n, st.p, wl.reps):
                failures.append(f"{what}: cache header n, p, reps = {cache.n}, {cache.p}, {cache.reps}")
            expected = expected_null_mean(st.key, wl.n, st.p)
            if expected is not None:
                attempt(what, check_null_mean, cache.values, expected, what)
        elif op["kind"] == "test":
            report = attempt(what, json.loads, text)
            if report is None:
                continue
            if st.key not in caches:
                failures.append(f"{what}: no calibration cache to check against")
                continue
            reports[(st.key, op["sample"])] = report
            attempt(what, check_report, report, caches[st.key], level, wl.n, st.p,
                    wl.reps, int(op["args"][op["args"].index("--seed") + 1]))
        else:
            table = attempt(what, parse_power, text)
            if table is not None:
                if 0.0 not in table:
                    failures.append(f"{what}: no row at shape 0")
                else:
                    attempt(what, check_rejection_rate, table[0.0], level,
                            wl.power_reps, wl.reps)

    for key, samples in inputs.items():
        st = stats[key]
        got = {s: reports.get((key, s)) for s in samples}
        if got.get("alt") and got.get("alt-affine") and key in caches:
            attempt(f"invariance {key}", check_invariant, got["alt"], got["alt-affine"],
                    caches[key])
        if st.ranked_by_m4 and got.get("normal") and got.get("alt"):
            moments = [fourth_moment(np.loadtxt(samples[s], delimiter=",", skiprows=1))
                       for s in ("normal", "alt")]
            attempt(f"m4 rank {key}", check_rank,
                    [got["normal"]["value"], got["alt"]["value"]], moments, key)

    if result["cache_before_test"] is not None:
        attempt("cache", check_cache_unchanged, result["cache_before_test"],
                result["cache_after_test"])
    return failures
