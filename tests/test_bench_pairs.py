"""The verdict rule and the outcome flags of tools/bench_pairs.py on synthetic
pairs of runs."""

import importlib.util
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
