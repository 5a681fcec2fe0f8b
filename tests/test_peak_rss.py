"""tools/peak_rss.py on one round of a workload, with a stubbed runner in
place of the child processes."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py"
_SPEC = importlib.util.spec_from_file_location("peak_rss", _PATH)
peak_rss = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(peak_rss)


@pytest.fixture
def stub(monkeypatch):
    """An executor that records each op and gives the i-th one a peak of
    30 + (7 i mod 13) MiB; any child process fails the test."""
    def no_child(*args, **kwargs):
        raise AssertionError("a child process was started")

    monkeypatch.setattr(subprocess, "Popen", no_child)
    ops = []

    def execute(op):
        ops.append(op)
        i = len(ops) - 1
        return {"code": 3 if op["known_fault"] else 0, "wall_s": 0.5 + i / 100,
                "rss_mib": 30.0 + (7 * i) % 13}

    execute.ops = ops
    return execute


def test_rows_are_one_round_largest_peak_first(stub, tmp_path):
    rows = peak_rss.measure("uni-smoothed", 3, tmp_path, stub)
    wl = peak_rss.workloads()["uni-smoothed"]
    # calibrate and power per statistic, and a test per sample of each tested one
    assert len(rows) == len(stub.ops) == 13
    assert [op["kind"] for op in stub.ops][:3] == ["calibrate"] * 3
    assert all(str(wl.reps) in op["args"] for op in stub.ops)
    peaks = [row[0] for row in rows]
    assert peaks == sorted(peaks, reverse=True)
    assert sorted(peaks) == sorted(30.0 + (7 * i) % 13 for i in range(13))
    assert {id(row[3]) for row in rows} == {id(op) for op in stub.ops}


def test_prints_each_operation(stub, capsys):
    assert peak_rss.main(["--workload", "uni-large-n", "--seed", "5"], execute=stub) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["peak", "MiB", "wall", "s", "exit", "operation"]
    assert len(lines) == 1 + len(stub.ops)
    # the first op has a peak of 30 MiB and exits 0
    assert "     30.0   0.500    0  calibrate skew" in lines
    # lbi-closed's calibrate and power are the known faults at n = 2000
    assert sum(line.split()[2] == "3" for line in lines[1:]) == 2
    assert [float(line.split()[0]) for line in lines[1:]] == sorted(
        (float(line.split()[0]) for line in lines[1:]), reverse=True)


def test_unknown_workload_exits_2(stub):
    with pytest.raises(SystemExit) as exc:
        peak_rss.main(["--workload", "nope"], execute=stub)
    assert exc.value.code == 2
    assert stub.ops == []
