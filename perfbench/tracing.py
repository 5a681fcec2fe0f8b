"""Spans around calls into the program's layers, recorded from outside.

``install`` replaces module attributes that the program looks up at call
time (``cal_mod.calibrate_null`` in the CLI, ``whiten`` inside
``calibration``, ...) with wrappers that record a span: name, tag, start,
end, parent span, a work count and whether the call returned.  The
``compute_batch`` of each statistic and the ``evaluate`` of each score are
wrapped on the objects the program builds.  ``src/`` is not edited.

Spans are kept in memory; ``layer_metrics`` turns them into the per-layer
metrics named in ``LAYER_METRICS``.
"""

import dataclasses
import os
import time

from workloads import FAMILIES, stat_key, workloads

# span record fields
NAME, TAG, T0, T1, PARENT, COUNT, OK = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, tag=None, count=None):
        """``fn`` recording one span per call; ``count(args, kwargs, result)``
        gives the call's work count, ``tag`` may be a function of the args."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, tag(args, kwargs) if callable(tag) else tag, 0.0, 0.0,
                   stack[-1] if stack else -1, 0, False]
            stack.append(len(spans))
            spans.append(rec)
            ok = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rec[T0], rec[T1], rec[OK] = t0, t1, ok
                if ok and count is not None:
                    rec[COUNT] = count(args, kwargs, out)

        return traced


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def install(tracer: Tracer, cli, calibration, stable) -> None:
    """Wrap the program's layer boundaries in place."""
    wrap = tracer.wrap

    def rows(args, kwargs, out):
        return len(args[0])

    def traced_make_statistic(*args, **kwargs):
        spec = make_statistic(*args, **kwargs)
        score = kwargs.get("score")
        key = stat_key(args[0], score.family_label if score else None, kwargs.get("group"))
        batch = wrap("calibration.compute_batch", spec.compute_batch, key, rows)
        return dataclasses.replace(spec, compute_batch=batch)

    def traced_parse_score(*args, **kwargs):
        score = parse_score(*args, **kwargs)
        kind = score.family_label.split(":")[0]
        ev = wrap("scores.evaluate", score.evaluate, kind,
                  lambda a, k, out: int(a[0].size))
        return dataclasses.replace(score, evaluate=ev)

    make_statistic = wrap("calibration.make_statistic", calibration.make_statistic)
    parse_score = wrap("cli.parse_score", cli.parse_score)
    calibration.make_statistic = traced_make_statistic
    cli.parse_score = traced_parse_score

    cli.main = wrap("cli.main", cli.main)
    cli.read_csv = wrap("cli.read_csv", cli.read_csv)
    cli.score_stable = wrap("stable.score_stable", cli.score_stable)
    stable.stable_density_derivative = wrap(
        "stable.stable_density_derivative", stable.stable_density_derivative,
        count=lambda a, k, out: int(getattr(a[0], "size", 1)))
    calibration.calibrate_null = wrap(
        "calibration.calibrate_null", calibration.calibrate_null,
        count=lambda a, k, out: out.reps)
    calibration.power_curve = wrap(
        "calibration.power_curve", calibration.power_curve,
        count=lambda a, k, out: _arg(a, k, 5, "reps") * len(out))
    calibration.sample_alternative = wrap(
        "calibration.sample_alternative", calibration.sample_alternative,
        tag=lambda a, k: a[0].family,
        count=lambda a, k, out: int(out.shape[0]) if out.ndim > 1 else 1)
    calibration.save_calibration = wrap(
        "calibration.save_calibration", calibration.save_calibration,
        count=lambda a, k, out: os.path.getsize(out))
    calibration.load_calibration = wrap("calibration.load_calibration",
                                        calibration.load_calibration)
    calibration.lbi_exact = wrap("univariate.lbi_exact", calibration.lbi_exact)
    calibration.lbi_monte_carlo = wrap("univariate.lbi_monte_carlo",
                                       calibration.lbi_monte_carlo)
    calibration.whiten = wrap("multivariate.whiten", calibration.whiten)
    calibration.stat_gl = wrap("multivariate.stat_gl", calibration.stat_gl)
    calibration.stat_lt = wrap("multivariate.stat_lt", calibration.stat_lt)


# ---------------------------------------------------------------- metrics


def _stat_keys() -> list:
    keys = []
    for wl in workloads().values():
        keys += [st.layer_key for st in wl.stats if st.layer_key not in keys]
    return keys


SCORE_KINDS = ("hermite", "gh", "stable")

# name -> (unit, better); the per-layer metrics of BENCHMARK.json, in order.
LAYER_METRICS = {
    "calibration.calibrate_null.reps_per_s": ("1/s", "higher"),
    "calibration.calibrate_null.self_s": ("s", "lower"),
    **{f"calibration.compute_batch.{k}.reps_per_s": ("1/s", "higher") for k in _stat_keys()},
    "calibration.power_curve.reps_per_s": ("1/s", "higher"),
    "calibration.power_curve.self_s": ("s", "lower"),
    **{f"calibration.sample_alternative.{f}.reps_per_s": ("1/s", "higher") for f in FAMILIES},
    "calibration.save_calibration.s": ("s", "lower"),
    "calibration.save_calibration.bytes": ("bytes", "lower"),
    "calibration.load_calibration.s": ("s", "lower"),
    "calibration.make_statistic.s": ("s", "lower"),
    "univariate.lbi_exact.calls": ("count", "lower"),
    "univariate.lbi_exact.s": ("s", "lower"),
    "univariate.lbi_monte_carlo.calls": ("count", "lower"),
    "univariate.lbi_monte_carlo.s": ("s", "lower"),
    **{f"scores.evaluate.{k}.points": ("count", "lower") for k in SCORE_KINDS},
    "stable.score_stable.s": ("s", "lower"),
    "stable.stable_density_derivative.points": ("count", "lower"),
    "multivariate.whiten.calls": ("count", "lower"),
    "multivariate.whiten.s": ("s", "lower"),
    "multivariate.stat_gl.s": ("s", "lower"),
    "multivariate.stat_lt.s": ("s", "lower"),
    "cli.import.s": ("s", "lower"),
    "cli.read_csv.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def layer_metrics(spans: list, import_s: float, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metric values from a traced round.

    Time is summed over spans; self time is a span's duration minus its
    direct children's.  Rates are work counted on calls that returned,
    divided by their busy time.  A layer the workload never reaches reads 0.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[T1] - rec[T0]
    inside_tabulation = _descendants_of(spans, "stable.score_stable")

    busy, self_time, work, busy_ok, calls = {}, {}, {}, {}, {}
    for i, rec in enumerate(spans):
        key = rec[NAME] if rec[TAG] is None else f"{rec[NAME]}.{rec[TAG]}"
        dur = rec[T1] - rec[T0]
        for k in {rec[NAME], key}:
            busy[k] = busy.get(k, 0.0) + dur
            self_time[k] = self_time.get(k, 0.0) + dur - child[i]
            calls[k] = calls.get(k, 0) + 1
            if rec[OK]:
                busy_ok[k] = busy_ok.get(k, 0.0) + dur
                if not (rec[NAME] == "stable.stable_density_derivative" and inside_tabulation[i]):
                    work[k] = work.get(k, 0) + rec[COUNT]

    def rate(k):
        return work.get(k, 0) / busy_ok[k] if busy_ok.get(k) else 0.0

    out = {}
    for name in LAYER_METRICS:
        layer, _, stat = name.rpartition(".")
        if name == "cli.import.s":
            val = import_s
        elif name == "trace.overhead_s":
            val = traced_s - untraced_s
        elif name == "trace.overhead_pct":
            val = 100.0 * (traced_s - untraced_s) / untraced_s
        elif stat == "reps_per_s":
            val = rate(layer)
        elif stat == "self_s":
            val = self_time.get(layer, 0.0)
        elif stat == "s":
            val = busy.get(layer, 0.0)
        elif stat == "calls":
            val = calls.get(layer, 0)
        else:  # points, bytes
            val = work.get(layer, 0)
        out[name] = val
    return out


def _descendants_of(spans: list, name: str) -> list:
    """For each span, whether it runs inside a span called ``name``."""
    inside = [False] * len(spans)
    for i, rec in enumerate(spans):
        p = rec[PARENT]
        inside[i] = p >= 0 and (inside[p] or spans[p][NAME] == name)
    return inside
