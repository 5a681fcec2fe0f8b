"""CLI behaviour seen from a separate interpreter or at the process edge:
start-up imports, unclosed files and documented exit codes."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lbinorm
from lbinorm.cli import main

_SRC = str(Path(lbinorm.__file__).resolve().parents[1])


def _python(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, **kwargs)


def test_cli_import_leaves_scipy_stats_unloaded():
    proc = _python(["-c", "import sys, lbinorm.cli; print('scipy.stats' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _minor_faults(script):
    """Minor page faults of a fresh interpreter that runs ``script``."""
    proc = _python(["-c", script + "\nimport resource\n"
                    "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)"])
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="mallopt and minor-fault counts are glibc/Linux measures")
def test_calibration_keeps_its_chunk_pages(tmp_path):
    # Without the CLI's allocator thresholds every chunk temporary of 256-512 KiB
    # is unmapped when freed and faulted in again: ~27k faults more than the import.
    argv = ["calibrate", "--test", "kurt", "--n", "2000", "--reps", "2000", "--seed", "1",
            "--calibration-cache", str(tmp_path)]
    ran = _minor_faults("import warnings; from lbinorm.cli import main\n"
                        "warnings.simplefilter('ignore')\n"
                        f"assert main({argv!r}) == 0")
    assert ran - _minor_faults("import lbinorm.cli") < 5000


def test_power_out_file_is_closed(tmp_path):
    out = tmp_path / "power.csv"
    proc = _python([
        "-W", "error::ResourceWarning", "-m", "lbinorm.cli", "power", "--test", "kurt",
        "--n", "10", "--family", "laplace", "--shapes", "0,0.5", "--reps", "1000",
        "--power-reps", "500", "--seed", "3", "--out", str(out),
    ])
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr
    assert out.read_text().splitlines()[0] == "shape,power,se"


def test_closed_form_beyond_valid_n_exits_3(tmp_path, capsys):
    code = main([
        "calibrate", "--test", "lbi-closed", "--score", "hermite:4", "--n", "2000",
        "--reps", "1000", "--seed", "1", "--calibration-cache", str(tmp_path),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.lbical"))


def _loaded_scipy(script):
    proc = _python(["-c", "import sys\n" + script
                    + "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_cli_import_leaves_scipy_unloaded():
    assert _loaded_scipy("import lbinorm.cli") == ["[]"]


def test_kurt_and_mvn_tests_run_without_scipy(tmp_path):
    rng = np.random.default_rng(7)
    uni, multi = tmp_path / "u.csv", tmp_path / "m.csv"
    np.savetxt(uni, rng.standard_normal(15), delimiter=",")
    np.savetxt(multi, rng.standard_normal((15, 3)), delimiter=",")
    common = ["--seed", "1", "--reps", "1000", "--json", os.devnull]
    runs = [["test", "--input", str(uni), "--test", "kurt", *common],
            ["test", "--input", str(multi), "--test", "mvn", "--group", "gl", *common]]
    script = ("import warnings; from lbinorm.cli import main\n"
              "warnings.simplefilter('ignore')\n"
              f"print([main(argv) for argv in {runs!r}])")
    assert _loaded_scipy(script) == ["[0, 0]", "[]"]


def test_stable_score_commands_run_without_scipy(tmp_path):
    uni = tmp_path / "u.csv"
    np.savetxt(uni, np.random.default_rng(8).standard_normal(12), delimiter=",")
    common = ["--test", "lbi-approx", "--score", "stable:beta=0", "--seed", "1",
              "--reps", "1000"]
    runs = [["test", "--input", str(uni), *common, "--json", os.devnull],
            ["calibrate", "--n", "12", *common, "--calibration-cache", str(tmp_path)],
            ["power", "--n", "12", *common, "--family", "student-t", "--shapes", "0.5",
             "--power-reps", "500", "--out", os.devnull]]
    script = ("import warnings; from lbinorm.cli import main\n"
              "warnings.simplefilter('ignore')\n"
              f"print([main(argv) for argv in {runs!r}])")
    assert _loaded_scipy(script)[-2:] == ["[0, 0, 0]", "[]"]


def test_variance_mean_power_runs_without_scipy():
    argv = ["power", "--test", "lbi-approx", "--score", "gh:beta=1", "--n", "20",
            "--family", "gh-variance-mean", "--shapes", "0,0.2", "--reps", "1000",
            "--power-reps", "2000", "--seed", "1", "--out", os.devnull]
    script = ("import warnings; from lbinorm.cli import main\n"
              "warnings.simplefilter('ignore')\n"
              f"print(main({argv!r}))")
    assert _loaded_scipy(script) == ["0", "[]"]


def test_non_finite_null_exits_3_without_a_cache(tmp_path, capsys):
    # The exact kernel's b-weights overflow at this n, so every null value
    # is NaN.  Once those weights are scaled to stay finite, this needs
    # another source of NaN; the guard itself is unit-tested in
    # test_calibration.TestBadValues.
    code = main([
        "calibrate", "--test", "lbi-exact", "--score", "stable:beta=0", "--n", "10000",
        "--reps", "1000", "--seed", "1", "--calibration-cache", str(tmp_path),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert err == ("error: lbi-exact(stable:beta=0): 1000 of 1000 null values "
                   "at n = 10000 are not finite\n")
    assert not list(tmp_path.glob("*.lbical"))


def test_cached_non_finite_null_exits_3(tmp_path, capsys):
    common = ["--test", "skew", "--reps", "1000", "--seed", "1",
              "--calibration-cache", str(tmp_path)]
    assert main(["calibrate", *common, "--n", "20"]) == 0
    (path,) = tmp_path.glob("*.lbical")
    raw = bytearray(path.read_bytes())
    raw[-8:] = np.float64(np.nan).tobytes()
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    data = tmp_path / "x.csv"
    data.write_text("\n".join(str(v) for v in np.arange(20.0) ** 2) + "\n")
    runs = [["test", *common, "--input", str(data)],
            ["power", *common, "--n", "20", "--family", "laplace", "--shapes", "0,0.2",
             "--power-reps", "500"]]
    for argv in runs:
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: skew: 1 of 1000 null values at n = 20 are not finite\n"


def test_mvn_on_a_univariate_batch_exits_2_at_once(tmp_path, capsys):
    common = ["--test", "mvn", "--n", "50", "--seed", "1"]
    runs = [["calibrate", *common, "--p", "1", "--calibration-cache", str(tmp_path)],
            ["calibrate", *common, "--p", "0", "--calibration-cache", str(tmp_path)],
            ["power", *common, "--n", "20", "--family", "laplace", "--shapes", "0,0.2",
             "--power-reps", "500"]]
    for argv in runs:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: expected an n x p matrix\n"
    assert not list(tmp_path.glob("*.lbical"))


def test_rounding_level_null_exits_2(tmp_path, capsys):
    # At n = 3 the kurtosis of the standardized sample is identically 1.5,
    # and the closed H4 form is affine in it: their nulls are rounding noise.
    data = tmp_path / "x.csv"
    data.write_text("0.1\n0.2\n5.0\n")
    assert main(["test", "--test", "kurt", "--input", str(data), "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: kurt: the null values at n = 3 differ by")
    assert captured.err.count("\n") == 1
    assert main(["calibrate", "--test", "lbi-closed", "--score", "hermite:4", "--n", "3",
                 "--seed", "1", "--calibration-cache", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lbi-closed(hermite:4): the null values at n = 3")
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("*.lbical"))


def test_non_finite_power_value_exits_3(capsys):
    # The score overflows far out in the tails, so profile's central
    # difference reads inf - inf on many stable samples at this n.
    code = main(["power", "--test", "profile", "--score", "contam:laplace-unit", "--n", "2000",
                 "--family", "stable", "--shapes", "0.8", "--reps", "1000",
                 "--power-reps", "100", "--seed", "5"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: profile(contam:laplace-unit): ")
    assert captured.err.endswith(" of 100 statistic values at shape 0.8, n = 2000 are not finite\n")
    assert captured.err.count("\n") == 1
