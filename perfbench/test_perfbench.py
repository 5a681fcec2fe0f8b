"""Tests of the benchmark itself: every check rejects a wrong value it is
fed, and the tiny-size mode runs every workload end to end.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import workloads
from checks import CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cache_bytes(values, n=20, p=1, seed=7, magic=b"LBICAL1"):
    values = np.sort(np.asarray(values, dtype="<f8"))
    head = struct.pack("<7sB16sIIQQ", magic, 1, bytes(16), n, p, values.size, seed)
    return head + values.tobytes()


@pytest.fixture
def cache():
    return checks.parse_cache(cache_bytes(np.random.default_rng(0).standard_normal(999)))


def report_for(cache, value, level=0.05):
    pv = checks.p_value(cache, value)
    return {"value": value, "p_value": pv, "reject": pv <= level, "n": 20, "p": 1,
            "calibration": {"reps": cache.reps, "seed": cache.seed}}


# ------------------------------------------------------------ cache file


def test_cache_round_trip(cache):
    assert (cache.n, cache.p, cache.reps, cache.seed) == (20, 1, 999, 7)


@pytest.mark.parametrize("mangle", [
    lambda raw: raw[:40],  # shorter than the header
    lambda raw: raw[:-8],  # truncated payload
    lambda raw: b"LBICAL2" + raw[7:],  # wrong magic
    lambda raw: raw[:48] + raw[56:] + raw[48:56],  # no longer sorted
    lambda raw: raw[:-8] + struct.pack("<d", float("nan")),
])
def test_damaged_cache_rejected(mangle):
    raw = cache_bytes(np.arange(10.0))
    checks.parse_cache(raw)
    with pytest.raises(CheckFailed):
        checks.parse_cache(mangle(raw))


# ------------------------------------------------------------ null moments


def test_null_mean_of_kurtosis():
    n = 20
    z = np.random.default_rng(1).standard_normal((20000, n))
    z = (z - z.mean(1, keepdims=True)) / z.std(1, keepdims=True)
    b2 = (z**4).mean(1)
    expected = checks.expected_null_mean("kurt", n, 1)
    checks.check_null_mean(b2, expected, "kurt")
    with pytest.raises(CheckFailed):
        checks.check_null_mean(b2 + 0.05, expected, "kurt")
    with pytest.raises(CheckFailed):
        checks.check_null_mean(b2, 3.0, "kurt")  # the large-n limit, not E[b2]


def test_null_mean_of_mardia_gl():
    n, p = 50, 3
    expected = checks.expected_null_mean("mvn-gl.p3", n, p)
    assert expected == pytest.approx(n * 15 * 49 / 51)
    rng = np.random.default_rng(2)
    vals = np.empty(4000)
    for i in range(vals.size):
        d = rng.standard_normal((n, p))
        d -= d.mean(0)
        q = np.einsum("ij,jk,ik->i", d, np.linalg.inv(d.T @ d / n), d)
        vals[i] = np.sum(q * q)
    checks.check_null_mean(vals, expected, "mvn-gl")
    with pytest.raises(CheckFailed):
        checks.check_null_mean(vals * 1.02, expected, "mvn-gl")


def test_skew_mean_zero():
    vals = np.random.default_rng(3).standard_normal(5000) * 0.5
    checks.check_null_mean(vals, checks.expected_null_mean("skew", 20, 1), "skew")
    with pytest.raises(CheckFailed):
        checks.check_null_mean(vals + 0.1, 0.0, "skew")


# ------------------------------------------------------------ reports


def test_report_checks(cache):
    good = report_for(cache, 1.3)
    checks.check_report(good, cache, 0.05, 20, 1, cache.reps, cache.seed)
    bad = [
        dict(good, p_value=good["p_value"] + 1e-12),
        dict(good, reject=not good["reject"]),
        dict(good, value=float("nan")),
        dict(good, n=21),
        dict(good, calibration={"reps": cache.reps, "seed": 8}),
    ]
    for report in bad:
        with pytest.raises(CheckFailed):
            checks.check_report(report, cache, 0.05, 20, 1, cache.reps, cache.seed)
    with pytest.raises(CheckFailed):  # cache built for another n
        checks.check_report(good, cache, 0.05, 20, 1, cache.reps + 1, cache.seed)


def test_p_value_counts_ties_as_extreme():
    c = checks.parse_cache(cache_bytes([1.0, 2.0, 2.0, 3.0]))
    assert checks.p_value(c, 2.0) == 4 / 5
    assert checks.p_value(c, 3.5) == 1 / 5


def test_invariance(cache):
    a = report_for(cache, 1.2345678)
    checks.check_invariant(a, report_for(cache, 1.2345678 * (1 + 1e-14)), cache)
    with pytest.raises(CheckFailed):
        checks.check_invariant(a, report_for(cache, 1.2346), cache)
    with pytest.raises(CheckFailed):
        checks.check_invariant(a, dict(a, p_value=a["p_value"] + 0.01), cache)


def test_rank():
    checks.check_rank([1.0, 5.0], [3.1, 4.2], "lbi-exact")
    with pytest.raises(CheckFailed):
        checks.check_rank([5.0, 1.0], [3.1, 4.2], "lbi-exact")


def test_fourth_moment_is_affine_invariant():
    x = np.random.default_rng(4).standard_t(5, 30)
    assert checks.fourth_moment(3 + 2 * x) == pytest.approx(checks.fourth_moment(x))


# ------------------------------------------------------------ power, cache


def test_power_table():
    text = "shape,power,se\n0.0,0.049000,0.001\n0.2,0.310000,0.003\n"
    assert checks.parse_power(text) == {0.0: 0.049, 0.2: 0.31}
    for bad in ("shape,power\n0.0,0.05\n", "shape,power,se\n0.0,1.2,0.0\n",
                "shape,power,se\n0.0,nan,0.0\n"):
        with pytest.raises(CheckFailed):
            checks.parse_power(bad)


def test_rejection_rate():
    checks.check_rejection_rate(0.048, 0.05, 20000, 100000)
    with pytest.raises(CheckFailed):
        checks.check_rejection_rate(0.06, 0.05, 20000, 100000)
    with pytest.raises(CheckFailed):
        checks.check_rejection_rate(0.0, 0.05, 2000, 2000)


def test_cache_unchanged():
    checks.check_cache_unchanged({"a": "1"}, {"a": "1"})
    for after in ({"a": "2"}, {"a": "1", "b": "3"}):
        with pytest.raises(CheckFailed):
            checks.check_cache_unchanged({"a": "1"}, after)


def test_round_allows_only_named_faults(tmp_path):
    wl = workloads.workloads("tiny")["mvn"]
    inputs = workloads.write_inputs(wl, 1, tmp_path / "data")
    ops = [op for op in workloads.round_ops(wl, 1, inputs, tmp_path) if op["kind"] == "power"]
    assert ops and all(op["known_fault"] for op in ops)
    result = {"results": [{"code": 2, "wall_s": 0.1, "rss_mib": 1.0}] * len(ops),
              "cache_before_test": None, "cache_after_test": None}
    assert checks.check_round(wl, ops, result, {}, 0.05) == []
    for op in ops:
        op["known_fault"] = False
    assert len(checks.check_round(wl, ops, result, {}, 0.05)) == len(ops)


# ------------------------------------------------------------ tracing


def test_layer_metrics_self_time_and_rates():
    spans = [
        ["calibration.calibrate_null", None, 0.0, 10.0, -1, 1000, True],
        ["calibration.compute_batch", "kurt", 1.0, 5.0, 0, 400, True],
        ["calibration.compute_batch", "kurt", 5.0, 9.0, 0, 600, True],
        ["stable.score_stable", None, 10.0, 12.0, -1, 0, True],
        ["stable.stable_density_derivative", None, 10.0, 11.0, 3, 2401, True],
        ["stable.stable_density_derivative", None, 12.0, 12.5, -1, 7, True],
    ]
    m = tracing.layer_metrics(spans, 0.4, 10.0, 11.0)
    assert m["calibration.calibrate_null.self_s"] == 2.0
    assert m["calibration.calibrate_null.reps_per_s"] == 100.0
    assert m["calibration.compute_batch.kurt.reps_per_s"] == 125.0
    assert m["stable.stable_density_derivative.points"] == 7  # tabulation excluded
    assert m["univariate.lbi_exact.calls"] == 0
    assert m["trace.overhead_pct"] == pytest.approx(10.0)


def test_tracer_records_failed_calls():
    tracer = tracing.Tracer()

    def boom():
        raise OverflowError

    with pytest.raises(OverflowError):
        tracer.wrap("x", boom)()
    assert tracer.spans[0][6] is False


def test_benchmark_json_names_match():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (k, u, b) for k, (u, b) in tracing.LAYER_METRICS.items()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.workloads())


# ------------------------------------------------------------ end to end


def run_bench(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.workloads("tiny")))
def test_tiny_workload_end_to_end(workload, trace, tmp_path):
    proc = run_bench(["--workload", workload, "--seed", "11", "--seconds", "1",
                      "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"], proc.stdout
    # Only the named faults fail, in the same share as in one round.
    wl = workloads.workloads("tiny")[workload]
    ops = workloads.round_ops(wl, 11, workloads.write_inputs(wl, 11, tmp_path), tmp_path)
    faults = sum(op["known_fault"] for op in ops)
    assert out["failed"] * len(ops) == out["attempted"] * faults
    assert out["attempted"] > 0 and out["attempted"] % len(ops) == 0
    names = run.END_TO_END if trace == 0 else tracing.LAYER_METRICS
    assert list(out["metrics"]) == list(names)
    assert all(np.isfinite(m["value"]) for m in out["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(["--workload", "mvn", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
