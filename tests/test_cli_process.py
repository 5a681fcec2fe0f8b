"""CLI behaviour seen from a separate interpreter or at the process edge:
start-up imports, unclosed files and documented exit codes."""

import json
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
        # power has no multivariate samplers, and says so before it draws a null;
        # calibrate names --p, where it used to exit with numpy's words
        p = argv[argv.index("--p") + 1] if "--p" in argv else None
        assert captured.err == ("error: power has no multivariate alternatives yet; --test mvn "
                                "runs with test and calibrate only\n" if argv[0] == "power"
                                else f"error: --p must be >= 2 for --test mvn, got {p}\n")
    assert not list(tmp_path.glob("*.lbical"))


def test_mvn_with_a_constant_column_exits_2_before_any_null(tmp_path, capsys):
    # kurt refuses the x2 column alone with "zero sample variance"
    X = np.random.default_rng(11).standard_normal((50, 2))
    X[:, 1] = 0.3
    data = tmp_path / "x.csv"
    np.savetxt(data, X, delimiter=",", header="x1,x2", comments="")
    for group in ("gl", "lt"):
        assert main(["test", "--test", "mvn", "--group", group, "--input", str(data),
                     "--seed", "1", "--calibration-cache", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: column 2 is constant or a combination of the ones before it\n"
    assert not list(tmp_path.glob("*.lbical"))


@pytest.mark.parametrize("group", ["gl", "lt"])
def test_mvn_report_is_invariant_on_an_ill_conditioned_sample(tmp_path, group):
    # X = Y M' + 3, with M unit lower triangular but for a last diagonal of
    # 1e-6, is in both groups; the tolerance is perfbench's invariance check
    rng = np.random.default_rng(12)
    Y = rng.standard_normal((50, 5))
    M = np.tril(rng.standard_normal((5, 5)), -1) + np.diag([1.0, 1.0, 1.0, 1.0, 1e-6])
    reports = []
    for name, data in (("y", Y), ("x", Y @ M.T + 3.0)):
        path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        np.savetxt(path, data, delimiter=",")
        assert main(["test", "--test", "mvn", "--group", group, "--input", str(path),
                     "--seed", "3", "--reps", "2000", "--json", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    y, x = reports
    assert x["value"] == pytest.approx(y["value"], rel=1e-9)
    assert x["p_value"] == y["p_value"]


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


_WATCHED = ("lbinorm.alternatives", "lbinorm.multivariate", "lbinorm.scores", "lbinorm.stable",
            "lbinorm.univariate", "numpy.polynomial")


def _loaded_by(argv):
    """Exit code of ``python -m lbinorm.cli <argv>``, run through runpy in a fresh
    interpreter, and which of the ``_WATCHED`` modules it loaded."""
    script = ("import json, runpy, sys, warnings\n"
              "warnings.simplefilter('ignore')\n"
              f"sys.argv = ['lbinorm'] + {argv!r}\n"
              "try:\n"
              "    runpy.run_module('lbinorm.cli', run_name='__main__', alter_sys=True)\n"
              "except SystemExit as exc:\n"
              "    code = exc.code\n"
              f"print(json.dumps([code, sorted(m for m in {_WATCHED!r} if m in sys.modules)]))")
    proc = _python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    return code, loaded


@pytest.fixture
def samples(tmp_path):
    rng = np.random.default_rng(9)
    uni, multi = tmp_path / "u.csv", tmp_path / "m.csv"
    np.savetxt(uni, rng.standard_normal(15), delimiter=",")
    np.savetxt(multi, rng.standard_normal((15, 3)), delimiter=",")
    return uni, multi


def test_moment_test_loads_no_score_or_quadrature_module(samples, tmp_path):
    uni, _ = samples
    assert _loaded_by(["test", "--test", "kurt", "--input", str(uni), "--seed", "1",
                       "--reps", "1000", "--calibration-cache", str(tmp_path)]) == (0, [])
    assert list(tmp_path.glob("*.lbical"))


def test_mvn_commands_load_no_score_module(samples, tmp_path):
    _, multi = samples
    common = ["--test", "mvn", "--group", "gl", "--seed", "1", "--reps", "1000"]
    for argv in (["test", "--input", str(multi), *common, "--json", os.devnull],
                 ["calibrate", "--p", "3", "--n", "15", *common,
                  "--calibration-cache", str(tmp_path)]):
        code, loaded = _loaded_by(argv)
        assert code == 0
        assert not {"lbinorm.scores", "lbinorm.stable", "lbinorm.univariate"} & set(loaded)


def test_moment_calibration_loads_no_sampler_or_multivariate_module(tmp_path):
    assert _loaded_by(["calibrate", "--test", "kurt", "--n", "15", "--seed", "1",
                       "--reps", "1000", "--calibration-cache", str(tmp_path)]) == (0, [])
    assert list(tmp_path.glob("*.lbical"))


def test_mvn_commands_load_multivariate_but_no_sampler(samples, tmp_path):
    _, multi = samples
    common = ["--test", "mvn", "--group", "lt", "--seed", "1", "--reps", "1000"]
    for argv in (["test", "--input", str(multi), *common, "--json", os.devnull],
                 ["calibrate", "--p", "3", "--n", "15", *common,
                  "--calibration-cache", str(tmp_path)]):
        code, loaded = _loaded_by(argv)
        assert code == 0
        assert "lbinorm.multivariate" in loaded and "lbinorm.alternatives" not in loaded


def test_power_loads_the_samplers_but_no_multivariate_module(tmp_path):
    out = tmp_path / "power.csv"
    code, loaded = _loaded_by(["power", "--test", "kurt", "--n", "15", "--family", "laplace",
                               "--shapes", "0,0.5", "--reps", "1000", "--power-reps", "100",
                               "--seed", "1", "--out", str(out)])
    assert code == 0 and out.read_text().startswith("shape,power,se")
    assert "lbinorm.alternatives" in loaded and "lbinorm.multivariate" not in loaded


def test_refused_mvn_power_loads_neither_module(tmp_path):
    code, loaded = _loaded_by(["power", "--test", "mvn", "--n", "15", "--family", "laplace",
                               "--shapes", "0", "--reps", "1000", "--seed", "1",
                               "--calibration-cache", str(tmp_path)])
    assert code == 2
    assert not {"lbinorm.alternatives", "lbinorm.multivariate"} & set(loaded)


def test_polynomial_score_loads_no_stable_module(samples):
    uni, _ = samples
    code, loaded = _loaded_by(["test", "--test", "lbi-approx", "--score", "hermite:4",
                               "--input", str(uni), "--seed", "1", "--reps", "1000",
                               "--json", os.devnull])
    assert code == 0 and "lbinorm.stable" not in loaded
    assert {"lbinorm.scores", "lbinorm.univariate"} <= set(loaded)


def test_stable_score_loads_the_stable_module(samples):
    uni, _ = samples
    code, loaded = _loaded_by(["test", "--test", "lbi-approx", "--score", "stable:beta=0",
                               "--input", str(uni), "--seed", "1", "--reps", "1000",
                               "--json", os.devnull])
    assert code == 0 and "lbinorm.stable" in loaded


@pytest.mark.parametrize("test", ["skew", "kurt", "mvn"])
def test_a_statistic_without_a_score_refuses_one(samples, tmp_path, test):
    uni, multi = samples
    argv = ["test", "--test", test, "--score", "stable:beta=0", "--input",
            str(multi if test == "mvn" else uni), "--seed", "1", "--reps", "1000",
            "--calibration-cache", str(tmp_path)]
    proc = _python(["-m", "lbinorm.cli", *argv])
    assert (proc.returncode, proc.stdout, proc.stderr) \
        == (2, "", f"error: statistic '{test}' takes no score\n")
    code, loaded = _loaded_by(argv)
    assert code == 2 and not {"lbinorm.scores", "lbinorm.stable"} & set(loaded)
    assert not list(tmp_path.glob("*.lbical"))


def test_power_refuses_mvn_before_any_null(tmp_path):
    out = tmp_path / "power.csv"
    proc = _python(["-m", "lbinorm.cli", "power", "--test", "mvn", "--n", "15", "--family",
                    "laplace", "--shapes", "0,0.2", "--reps", "1000", "--power-reps", "100",
                    "--seed", "1", "--calibration-cache", str(tmp_path), "--out", str(out)])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: power has no multivariate alternatives yet; "
                           "--test mvn runs with test and calibrate only\n")
    assert list(tmp_path.iterdir()) == []


def test_a_process_prints_one_line_per_warning(tmp_path):
    proc = _python(["-m", "lbinorm.cli", "calibrate", "--test", "kurt", "--n", "20",
                    "--reps", "2000", "--seed", "1", "--calibration-cache", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "warning: fewer than 1e4 replications; critical values are coarse\n"


def test_a_failing_process_prints_its_warning_then_its_error():
    # the score's g/phi and profile's central difference go non-finite far
    # out in the tails; neither writes a numpy warning before the error line
    proc = _python(["-m", "lbinorm.cli", "power", "--test", "profile", "--score",
                    "contam:laplace-unit", "--n", "2000", "--family", "stable", "--shapes", "0.8",
                    "--reps", "1000", "--power-reps", "100", "--seed", "5"])
    assert proc.returncode == 3
    warning, error = proc.stderr.split("\n")[:-1]
    assert warning == "warning: fewer than 1e4 replications; critical values are coarse"
    assert error.startswith("error: profile(contam:laplace-unit): ")
    assert error.endswith(" of 100 statistic values at shape 0.8, n = 2000 are not finite")


def test_every_public_name_resolves_and_is_listed():
    script = ("import lbinorm, sys\n"
              "print(sorted(m for m in sys.modules if m.startswith('lbinorm.')))\n"
              "missing = [n for n in lbinorm.__all__ if getattr(lbinorm, n, None) is None]\n"
              "print(missing, sorted(set(lbinorm.__all__) - set(dir(lbinorm))), "
              "len(lbinorm.__all__), lbinorm.__version__)")
    proc = _python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.strip().splitlines()
    assert before == "[]"  # the package alone imports none of its modules
    assert after == "[] [] 39 0.1.0"


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lbinorm.no_such_name  # noqa: B018


def test_layer_names_resolve_on_their_modules():
    # names that an outside tracer reads and replaces on these two modules
    script = ("import lbinorm.cli as cli\n"
              "from lbinorm import calibration as cal\n"
              "from lbinorm import multivariate, stable, univariate\n"
              "print(cli.score_stable is stable.score_stable,"
              " cal.lbi_exact is univariate.lbi_exact,"
              " cal.lbi_monte_carlo is univariate.lbi_monte_carlo,"
              " cal.whiten is multivariate.whiten,"
              " cal.stat_gl is multivariate.stat_gl,"
              " cal.stat_lt is multivariate.stat_lt)")
    proc = _python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 6


def test_layers_are_called_through_the_module_globals(monkeypatch):
    from lbinorm import calibration, cli

    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "score_stable", spy("score_stable", cli.score_stable), raising=False)
    for name in ("whiten", "stat_gl", "stat_lt"):
        monkeypatch.setattr(calibration, name, spy(name, getattr(calibration, name)))
    cli.parse_score("stable:beta=0")
    x = np.random.default_rng(10).standard_normal((2, 12, 3))
    calibration.make_statistic("mvn", group="gl").compute_batch(x)
    calibration.make_statistic("mvn", group="lt").compute_batch(x)
    assert calls == ["score_stable", "whiten", "stat_gl", "whiten", "stat_lt"]


def test_process_entry_exits_with_main_code_after_freezing():
    script = ("import gc, lbinorm.cli as cli\n"
              "cli.main = lambda: 3\n"
              "try:\n"
              "    cli.entry()\n"
              "except SystemExit as exc:\n"
              "    print(exc.code, gc.get_freeze_count() > 0)")
    proc = _python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3", "True"]


@pytest.mark.parametrize("enabled", [True, False])
def test_library_import_leaves_the_collector_as_it_was(enabled):
    script = (f"import gc\n{'' if enabled else 'gc.disable()'}\n"
              "import lbinorm.cli\n"
              "print(gc.isenabled())")
    proc = _python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(enabled)]


def test_module_run_imports_without_collecting_and_runs_main_collecting(tmp_path):
    # the collections from numpy's import until main runs, and the collector's
    # state when it does
    script = ("import argparse, gc, json, runpy, sys\n"
              "collections, seen = [], []\n"
              "def count(phase, info):\n"
              "    if phase == 'start' and 'numpy' in sys.modules:\n"
              "        collections.append(info['generation'])\n"
              "gc.callbacks.append(count)\n"
              "parse = argparse.ArgumentParser.parse_args\n"
              "def spy(*args, **kwargs):\n"
              "    seen.append([len(collections), gc.isenabled(), gc.get_freeze_count() > 0])\n"
              "    return parse(*args, **kwargs)\n"
              "argparse.ArgumentParser.parse_args = spy\n"
              "sys.argv = ['lbinorm', 'calibrate', '--test', 'kurt', '--n', '15', '--seed', '1',\n"
              f"            '--reps', '1000', '--calibration-cache', {str(tmp_path)!r}]\n"
              "try:\n"
              "    runpy.run_module('lbinorm.cli', run_name='__main__', alter_sys=True)\n"
              "except SystemExit as exc:\n"
              "    print(json.dumps([exc.code, *seen]))")
    proc = _python(["-W", "ignore", "-c", script])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, [0, True, True]]


def test_module_run_writes_the_whole_report(samples):
    uni, _ = samples
    proc = _python(["-W", "ignore", "-m", "lbinorm.cli", "test", "--test", "kurt",
                    "--input", str(uni), "--seed", "1", "--reps", "1000"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["statistic_label"] == "kurt"
