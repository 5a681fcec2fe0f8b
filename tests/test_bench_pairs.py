"""The verdict rule and the outcome flags of tools/bench_pairs.py on synthetic
pairs of runs."""

import importlib.util
import json
import os
import platform
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

LOWER = {"t_s": {"name": "t_s", "unit": "s", "better": "lower", "bound": 0.25}}
HIGHER = {"rate": {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}}


def _summary(parent, change, metrics=LOWER):
    """``summarize`` of one metric over the pairs (parent[i], change[i])."""
    (name, spec), = metrics.items()

    def runs(values):
        return [{"metrics": {name: {"value": v, "unit": spec["unit"]}}} for v in values]

    return bench_pairs.summarize({"parent": runs(parent), "change": runs(change)}, metrics)[name]


# parent runs 1.00..1.09 s: median 1.045, quartiles 1.0225 and 1.0675, IQR 0.045
PARENT = [1.00 + 0.01 * i for i in range(10)]


class TestSummarize:
    def test_gain_when_nine_wins_and_the_gap_beats_the_iqr(self):
        change = [v - 0.2 for v in PARENT[:9]] + [PARENT[9] + 0.1]
        m = _summary(PARENT, change)
        assert m["change_wins"] == 9
        assert m["parent_median"] == pytest.approx(1.045)
        assert m["parent_quartiles"] == pytest.approx([1.0225, 1.0675])
        assert m["verdict"] == "gain"
        assert m["pairs"] == [[p, c] for p, c in zip(PARENT, change)]

    def test_eight_wins_are_not_a_gain(self):
        change = [v - 0.2 for v in PARENT[:8]] + [v + 0.1 for v in PARENT[8:]]
        m = _summary(PARENT, change)
        assert m["change_wins"] == 8 and m["verdict"] == "flat"

    def test_ten_wins_inside_the_iqr_are_not_a_gain(self):
        m = _summary(PARENT, [v - 0.03 for v in PARENT])
        assert m["change_wins"] == 10
        assert m["parent_median"] - m["change_median"] < m["parent_quartiles"][1] - m["parent_quartiles"][0]
        assert m["verdict"] == "flat"

    def test_ties_count_for_neither_side(self):
        change = list(PARENT)
        change[0] -= 0.5
        m = _summary(PARENT, change)
        assert m["change_wins"] == 1 and m["verdict"] == "flat"
        assert _summary(PARENT, PARENT)["change_wins"] == 0

    def test_worse_beyond_the_bound_of_the_parent_median(self):
        # bound 0.25 of the median 1.045 is 0.26125
        assert _summary(PARENT, [v + 0.25 for v in PARENT])["verdict"] == "flat"
        assert _summary(PARENT, [v + 0.27 for v in PARENT])["verdict"] == "worse"

    def test_higher_is_better(self):
        faster = _summary(PARENT, [v + 0.2 for v in PARENT], HIGHER)
        assert faster["change_wins"] == 10 and faster["verdict"] == "gain"
        slower = _summary(PARENT, [v - 0.27 for v in PARENT], HIGHER)
        assert slower["change_wins"] == 0 and slower["verdict"] == "worse"
        assert _summary(PARENT, [v - 0.2 for v in PARENT], LOWER)["verdict"] == "gain"


class TestQualifiers:
    def test_resolved_when_the_parent_iqr_is_within_the_bound(self):
        # IQR 0.045 against 0.25 of the median 1.045
        assert _summary(PARENT, PARENT)["resolved"] is True
        # quartiles 1.0225 and 1.55 (IQR 0.5275) against 0.25 of the median 1.095
        wide = PARENT[:5] + [1.5, 1.6, 1.7, 1.8, 1.9]
        assert _summary(wide, wide)["resolved"] is False

    def test_resolved_at_exactly_the_bound(self):
        # quartiles 0.75 and 1.0, median 1.0: the IQR equals 0.25 of the median
        parent = [0.5, 0.75, 0.75, 0.75, 1.0, 1.0, 1.0, 1.0, 1.25, 1.5]
        m = _summary(parent, parent)
        assert m["parent_quartiles"] == [0.75, 1.0] and m["parent_median"] == 1.0
        assert m["resolved"] is True

    def test_resolved_does_not_change_the_verdict(self):
        wide = PARENT[:5] + [1.5, 1.6, 1.7, 1.8, 1.9]
        m = _summary(wide, [v + 0.5 for v in wide])
        assert m["resolved"] is False and m["verdict"] == "worse"

    def test_change_beats_every_parent_run(self):
        # the change's median 0.895 lies below the parent's best run, 1.00
        m = _summary(PARENT, [v - 0.15 for v in PARENT])
        assert m["change_beats_every_parent_run"] is True and m["verdict"] == "gain"
        # 1.015 wins all ten pairs, yet the parent's 1.00 and 1.01 are better
        m = _summary(PARENT, [v - 0.03 for v in PARENT])
        assert m["change_wins"] == 10 and m["change_beats_every_parent_run"] is False
        assert _summary(PARENT, PARENT)["change_beats_every_parent_run"] is False

    def test_change_beats_every_parent_run_higher_is_better(self):
        m = _summary(PARENT, [v + 0.15 for v in PARENT], HIGHER)
        assert m["change_beats_every_parent_run"] is True
        assert _summary(PARENT, [v - 0.15 for v in PARENT], HIGHER)[
            "change_beats_every_parent_run"] is False


class TestVerdict:
    # parent median 1.0 and IQR 0.125, both exact in binary
    @pytest.mark.parametrize("wins, change_median, expected", [
        (9, 0.75, "gain"), (10, 0.75, "gain"), (8, 0.75, "flat"),
        (10, 0.875, "flat"),  # the gap equals the IQR: not more than it
        (0, 1.25, "flat"),  # worse by exactly the bound
        (0, 1.375, "worse"),
    ])
    def test_lower_is_better(self, wins, change_median, expected):
        assert bench_pairs.verdict(1.0, change_median, 0.125, wins, True, 0.25) == expected

    @pytest.mark.parametrize("wins, change_median, expected", [
        (9, 1.25, "gain"), (9, 0.875, "flat"), (0, 0.75, "flat"), (0, 0.625, "worse"),
    ])
    def test_higher_is_better(self, wins, change_median, expected):
        assert bench_pairs.verdict(1.0, change_median, 0.125, wins, False, 0.25) == expected


def _runs(failed, correct=True, attempted=54):
    """Ten runs of one side, each attempting ``attempted`` operations."""
    return [{"correct": correct, "attempted": attempted, "failed": failed} for _ in range(10)]


class TestOutcomes:
    def test_equal_failed_shares_raise_no_flag(self):
        # 4 of 54 per run on one side, 8 of 108 on the other: the same share
        out = bench_pairs.outcomes({"parent": _runs(4), "change": _runs(8, attempted=108)})
        assert out["parent"] == {"failed_share": pytest.approx(4 / 54), "correct": True}
        assert out["change"]["failed_share"] == out["parent"]["failed_share"]
        assert out["flags"] == []

    def test_a_larger_failed_share_of_the_change_is_flagged(self):
        runs = {"parent": _runs(4), "change": _runs(4)}
        runs["change"][3] = {"correct": True, "attempted": 54, "failed": 5}
        assert bench_pairs.outcomes(runs)["flags"] == [
            "the change fails a larger share of operations than the parent"]
        # fewer failures in the change are no flag
        assert bench_pairs.outcomes({"parent": runs["change"], "change": _runs(4)})["flags"] == []

    def test_an_incorrect_run_of_either_side_is_flagged(self):
        runs = {"parent": _runs(0), "change": _runs(0)}
        runs["parent"][9] = {"correct": False, "attempted": 54, "failed": 0}
        out = bench_pairs.outcomes(runs)
        assert out["parent"]["correct"] is False and out["change"]["correct"] is True
        assert out["flags"] == ["a parent run is incorrect"]

    def test_no_operations_attempted(self):
        out = bench_pairs.outcomes({"parent": _runs(0, attempted=0), "change": _runs(0, attempted=0)})
        assert out["parent"]["failed_share"] == out["change"]["failed_share"] == 0.0
        assert out["flags"] == []


class TestEnvironment:
    def test_records_what_start_up_times_depend_on(self, monkeypatch):
        import numpy
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        env = bench_pairs.environment()
        assert env["python"] == platform.python_version()
        assert env["numpy"] == numpy.__version__
        assert env["dont_write_bytecode"] is True
        assert env["cpu_count"] == os.cpu_count()
        assert 1 <= env["cpus_usable"] <= env["cpu_count"]
        assert env["thread_vars"] == {"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": None,
                                      "MKL_NUM_THREADS": None}
        json.dumps(env)

    @pytest.mark.parametrize("value, off", [(None, False), ("", False), ("1", True), ("0", True)])
    def test_bytecode_flag_follows_python_rule(self, monkeypatch, value, off):
        # Python turns bytecode writing off for any non-empty value, "0" too
        if value is None:
            monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        else:
            monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
        assert bench_pairs.environment()["dont_write_bytecode"] is off

    def test_the_report_carries_it(self, tmp_path, monkeypatch):
        spec = {"run_seconds": 1, "workloads": [{"name": "w"}],
                "end_to_end": [{"name": "t_s", "better": "lower", "bound": 0.25}]}
        for side in bench_pairs.SIDES:
            (tmp_path / side).mkdir()
            (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))

        def run_once(checkout, workload, seed, seconds):
            return {"correct": True, "attempted": 1, "failed": 0,
                    "metrics": {"t_s": {"value": 1.0 + seed / 100, "unit": "s"}}}

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        monkeypatch.chdir(tmp_path)
        assert bench_pairs.main(["--parent", "parent", "--change", "change", "--pr", "0"]) == 0
        report = json.loads((tmp_path / "BENCH_0.json").read_text())
        assert report["environment"] == bench_pairs.environment()
        metric = report["workloads"]["w"]["metrics"]["t_s"]
        assert metric["change_wins"] == 0
        assert metric["resolved"] is True and metric["change_beats_every_parent_run"] is False

    def test_the_qualifiers_are_printed_next_to_the_verdict(self, tmp_path, monkeypatch, capsys):
        spec = {"run_seconds": 1, "workloads": [{"name": "w"}],
                "end_to_end": [{"name": "t_s", "better": "lower", "bound": 0.25}]}
        for side in bench_pairs.SIDES:
            (tmp_path / side).mkdir()
            (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))

        def run_once(checkout, workload, seed, seconds):
            # the parent alternates 1 s and 2 s runs: quartiles 1 and 2, median 1.5
            value = 0.1 if checkout.name == "change" else 1.0 + seed % 2
            return {"correct": True, "attempted": 1, "failed": 0,
                    "metrics": {"t_s": {"value": value, "unit": "s"}}}

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        monkeypatch.chdir(tmp_path)
        assert bench_pairs.main(["--parent", "parent", "--change", "change", "--pr", "0"]) == 0
        assert ("w t_s: 1.5 -> 0.1, 10/10 wins, gain (unresolved), beats every parent run\n"
                in capsys.readouterr().out)
