"""End-to-end CLI behavior: parsing, reports, exit codes, caching, power."""

import csv
import inspect
import io
import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from lbinorm import calibration as cal_mod
from lbinorm import cli, errors
from lbinorm.calibration import cache_path
from lbinorm.cli import main, parse_score, read_csv
from lbinorm.errors import ParseError
from lbinorm.multivariate import stat_lt, whiten


def _write_csv(path, data, header=None):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if header:
            w.writerow(header)
        for row in np.atleast_2d(np.asarray(data).T if np.ndim(data) == 1 else data):
            w.writerow(row)


@pytest.fixture
def uni_csv(tmp_path):
    rng = np.random.default_rng(100)
    path = tmp_path / "u.csv"
    _write_csv(path, rng.normal(size=(20, 1)), header=["x"])
    return path


@pytest.fixture
def mvn_csv(tmp_path):
    rng = np.random.default_rng(101)
    path = tmp_path / "m.csv"
    _write_csv(path, rng.normal(size=(14, 2)))
    return path


def _schema():
    with resources.files("lbinorm").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


class TestParseScore:
    def test_forms(self):
        assert parse_score("hermite:4").polynomial_coeffs == (1.0, 0.0, -6.0, 0.0, 3.0)
        assert parse_score("gh:beta=0").family_label == "gh:beta=0"
        assert parse_score("id:kappa3=2,kappa4=1").family_label == "id:kappa3=2"
        assert parse_score("contam:normal-shift-1").family_label.startswith("contam")

    def test_malformed(self):
        for bad in ("hermite", "gh:gamma=1", "contam:nope", "wat:1"):
            with pytest.raises(ValueError):
                parse_score(bad)

    @pytest.mark.parametrize("spec, key", [("gh:beta=1,lam=2", "lam"), ("id:kappa3=1,beta=2", "beta"),
                                           ("stable:beta=0,foo=1", "foo")])
    def test_a_key_the_kind_does_not_read_exits_2(self, uni_csv, capsys, spec, key):
        assert main(["test", "--input", str(uni_csv), "--test", "lbi-approx", "--score", spec,
                     "--seed", "1", "--reps", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: score kind '{spec.partition(':')[0]}' reads no key '{key}'\n"

    @pytest.mark.parametrize("spec, key", [("gh:beta=1,beta=2", "beta"),
                                           ("id:kappa4=1,kappa3=2,kappa4=3", "kappa4"),
                                           ("stable:beta=0, beta=0.5", "beta")])
    def test_a_key_given_twice_exits_2(self, uni_csv, tmp_path, capsys, spec, key):
        assert main(["test", "--input", str(uni_csv), "--test", "lbi-approx", "--score", spec,
                     "--seed", "1", "--reps", "1000", "--calibration-cache", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: score kind '{spec.partition(':')[0]}' reads key '{key}' twice\n"
        assert not list(tmp_path.glob("*.lbical"))

    @pytest.mark.parametrize("spec, message", [
        ("id:kappa3=nan", "kappa3 and kappa4 must be finite"),
        ("id:kappa4=inf", "kappa3 and kappa4 must be finite"),
        ("stable:beta=nan", "|beta| must be <= 1"),
    ])
    def test_non_finite_parameter_exits_2_before_any_tabulation(self, uni_csv, tmp_path, capsys,
                                                               monkeypatch, spec, message):
        from lbinorm import stable

        inverted = []
        monkeypatch.setattr(stable, "_inversion_values", lambda *args: inverted.append(args))
        assert main(["test", "--input", str(uni_csv), "--test", "lbi-approx", "--score", spec,
                     "--seed", "1", "--reps", "1000", "--calibration-cache", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert inverted == []
        assert not list(tmp_path.glob("*.lbical"))


class TestReadCsv:
    def test_header_autodetect(self, uni_csv):
        data = read_csv(uni_csv)
        assert data.ndim == 1 and data.size == 20

    def test_non_numeric_cell_names_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ParseError, match="row 2, column 2"):
            read_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError, match="row 2"):
            read_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_csv(path)


class TestRunTest:
    def test_closed_form_happy_path(self, uni_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "test", "--input", str(uni_csv), "--test", "lbi-closed",
            "--score", "hermite:4", "--seed", "5", "--reps", "2000",
            "--json", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["method"] == "closed-form"
        assert report["n"] == 20 and report["p"] == 1
        assert report["reject"] == (report["p_value"] <= report["level"])
        jsonschema.validate(report, _schema())

    def test_multivariate_path(self, mvn_csv, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "test", "--input", str(mvn_csv), "--test", "mvn", "--group", "lt",
            "--seed", "3", "--reps", "2000", "--json", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        X = read_csv(mvn_csv)
        assert report["value"] == pytest.approx(stat_lt(whiten(X)), rel=1e-12)
        assert report["method"] == "mvn-lt"
        jsonschema.validate(report, _schema())

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\nnope\n")
        code = main(["test", "--input", str(path), "--test", "kurt", "--seed", "1"])
        assert code == 2
        assert "non-numeric" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        code = main([
            "test", "--input", str(tmp_path / "none.csv"), "--test", "kurt",
            "--seed", "1",
        ])
        assert code == 2

    def test_incompatible_selection(self, mvn_csv):
        code = main([
            "test", "--input", str(mvn_csv), "--test", "kurt", "--seed", "1",
            "--reps", "2000",
        ])
        assert code == 2

    def test_reproducible_requires_seed(self, uni_csv):
        code = main([
            "test", "--input", str(uni_csv), "--test", "kurt", "--reproducible",
            "--reps", "2000",
        ])
        assert code == 2

    def test_seed_echoed_and_deterministic(self, uni_csv, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main([
                "test", "--input", str(uni_csv), "--test", "skew", "--seed", "42",
                "--reps", "2000", "--json", str(out), "--reproducible",
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestStatisticCatalogue:
    """Every --test value is built by name alone, and reports its own method."""

    @pytest.mark.parametrize("command", ["test", "calibrate", "power"])
    @pytest.mark.parametrize("test", ["lbi-exact", "lbi-closed", "lbi-approx", "lbi-mc", "profile"])
    def test_score_based_form_without_a_score_exits_2(self, uni_csv, tmp_path, capsys, command,
                                                      test):
        extra = {"test": ["--input", str(uni_csv)],
                 "calibrate": ["--n", "20", "--calibration-cache", str(tmp_path)],
                 "power": ["--n", "20", "--family", "laplace", "--shapes", "0.2"]}[command]
        assert main([command, "--test", test, "--seed", "1", "--reps", "1000", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: statistic '{test}' needs a score\n"
        assert not list(tmp_path.glob("*.lbical"))

    @pytest.mark.parametrize("command", ["test", "calibrate", "power"])
    @pytest.mark.parametrize("test", ["skew", "kurt", "mvn"])
    def test_statistic_without_a_score_refuses_one(self, uni_csv, mvn_csv, tmp_path, capsys,
                                                   command, test):
        extra = {"test": ["--input", str(mvn_csv if test == "mvn" else uni_csv)],
                 "calibrate": ["--n", "20", "--calibration-cache", str(tmp_path)],
                 "power": ["--n", "20", "--family", "laplace", "--shapes", "0.2"]}[command]
        assert main([command, "--test", test, "--score", "hermite:4", "--seed", "1",
                     "--reps", "1000", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: statistic '{test}' takes no score\n"
        assert not list(tmp_path.glob("*.lbical"))

    @pytest.mark.parametrize("command", ["test", "calibrate", "power"])
    @pytest.mark.parametrize("flag", ["--stable-tmax", "--stable-nodes"])
    def test_no_command_takes_inversion_settings(self, capsys, command, flag):
        required = {"test": ["--input", "u.csv"], "calibrate": ["--n", "20"],
                    "power": ["--n", "20", "--family", "laplace", "--shapes", "0.2"]}[command]
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([command, "--test", "lbi-approx", "--score",
                                           "stable:beta=0", *required, flag, "1024"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {flag} 1024\n")

    def test_schema_methods_are_the_catalogue_s(self):
        methods = {method for method, _, _ in cal_mod.LBI_FORMS.values()}
        assert set(_schema()["properties"]["method"]["enum"]) == {"moment", "mvn-gl",
                                                                 "mvn-lt"} | methods

    def test_univariate_results_carry_the_catalogue_method(self):
        from lbinorm import univariate
        from lbinorm.scores import score_hermite

        z, score = np.random.default_rng(3).standard_normal(12), score_hermite(4)
        results = {"lbi-exact": univariate.lbi_exact(z, score),
                   "lbi-closed": univariate.lbi_closed_form(z, score),
                   "lbi-approx": univariate.lbi_laplace(z, score),
                   "lbi-mc": univariate.lbi_monte_carlo(z, score, 2000, 0)}
        assert {name: r.method for name, r in results.items()} \
            == {name: cal_mod.LBI_FORMS[name][0] for name in results}

    @pytest.mark.parametrize("test, extra, method", [
        ("skew", [], "moment"),
        ("kurt", [], "moment"),
        ("lbi-exact", ["--score", "hermite:4"], "exact-quadrature"),
        ("lbi-closed", ["--score", "hermite:4"], "closed-form"),
        ("lbi-approx", ["--score", "hermite:4"], "laplace"),
        ("lbi-mc", ["--score", "hermite:4"], "monte-carlo"),
        ("profile", ["--score", "hermite:4"], "profile"),
        ("mvn", ["--group", "gl"], "mvn-gl"),
        ("mvn", ["--group", "lt"], "mvn-lt"),
    ])
    def test_report_names_the_method(self, uni_csv, mvn_csv, tmp_path, test, extra, method):
        out = tmp_path / "report.json"
        data = mvn_csv if test == "mvn" else uni_csv
        assert main(["test", "--input", str(data), "--test", test, *extra, "--seed", "2",
                     "--reps", "10000", "--json", str(out)]) == 0
        assert json.loads(out.read_text())["method"] == method


class TestRunCalibrate:
    def test_cache_files_byte_equal(self, tmp_path, capsys):
        args = [
            "calibrate", "--test", "skew", "--n", "10", "--reps", "5000",
            "--seed", "7", "--calibration-cache", str(tmp_path),
        ]
        assert main(args) == 0
        path1 = capsys.readouterr().out.strip()
        first = open(path1, "rb").read()
        assert main(args) == 0
        path2 = capsys.readouterr().out.strip()
        assert path1 == path2
        assert open(path2, "rb").read() == first

    @pytest.mark.parametrize("p", ["1", "0", "-2"])
    def test_mvn_needs_two_columns(self, tmp_path, capsys, p):
        # refused before the seed: --reproducible without --seed gets this error
        for seed in (["--seed", "1"], ["--reproducible"]):
            assert main(["calibrate", "--test", "mvn", "--n", "20", "--p", p, "--reps", "1000",
                         *seed, "--calibration-cache", str(tmp_path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --p must be >= 2 for --test mvn, got {p}\n"
        assert not list(tmp_path.glob("*.lbical"))

    def test_test_command_reuses_cache(self, uni_csv, tmp_path):
        cache = tmp_path / "cache"
        argv = [
            "test", "--input", str(uni_csv), "--test", "kurt", "--seed", "9",
            "--reps", "3000", "--calibration-cache", str(cache),
            "--json", str(tmp_path / "r1.json"),
        ]
        assert main(argv) == 0
        files = list(cache.glob("*.lbical"))
        assert len(files) == 1
        stamp = files[0].stat().st_mtime_ns
        argv[-1] = str(tmp_path / "r2.json")
        assert main(argv) == 0
        assert files[0].stat().st_mtime_ns == stamp  # loaded, not rebuilt
        assert (tmp_path / "r1.json").read_text() == (tmp_path / "r2.json").read_text()


class TestRunPower:
    def test_power_table(self, tmp_path):
        out = tmp_path / "power.csv"
        code = main([
            "power", "--test", "kurt", "--n", "15", "--family", "student-t",
            "--shapes", "0,0.1,0.3", "--reps", "20000", "--power-reps", "10000",
            "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["shape"] for r in rows] == ["0.0", "0.1", "0.3"]
        power = [float(r["power"]) for r in rows]
        se = [float(r["se"]) for r in rows]
        # size at the null boundary, monotone growth along the grid
        assert abs(power[0] - 0.05) < 3.0 * se[0] + 0.003
        assert power[1] >= power[0] - 2.0 * (se[0] + se[1])
        assert power[2] >= power[1] - 2.0 * (se[1] + se[2])
        assert power[2] > power[0]

    def test_stdout_table(self, capsys):
        code = main([
            "power", "--test", "skew", "--n", "10", "--family", "gamma-centered",
            "--shapes", "0.2", "--reps", "5000", "--power-reps", "2000",
            "--seed", "12",
        ])
        assert code == 0
        out = capsys.readouterr().out
        reader = csv.DictReader(io.StringIO(out))
        row = next(reader)
        assert 0.0 <= float(row["power"]) <= 1.0


class TestBadInput:
    """Bad input exits 2 with a one-line error; it never becomes a verdict."""

    def _run(self, path, capsys, *extra):
        code = main(["test", "--input", str(path), "--test", "kurt", "--seed", "1",
                     "--reps", "1000", *extra])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        return code, captured.err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell(self, tmp_path, capsys, cell):
        path = tmp_path / "nan.csv"
        path.write_text(f"x\n1.0\n2.5\n{cell}\n0.3\n")
        code, err = self._run(path, capsys)
        assert code == 2 and "non-finite" in err and "row 4, column 1" in err

    def test_constant_column(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        path.write_text("2.0\n" * 12)
        code, err = self._run(path, capsys)
        assert code == 2 and "zero sample variance" in err

    def test_constant_column_with_inexact_mean(self, tmp_path, capsys):
        path = tmp_path / "c01.csv"
        path.write_text("0.1\n" * 20)
        code, err = self._run(path, capsys)
        assert code == 2 and "zero sample variance" in err

    @pytest.mark.parametrize("level", ["5", "1", "0", "-0.1", "nan"])
    def test_level_outside_unit_interval(self, uni_csv, capsys, level):
        code, err = self._run(uni_csv, capsys, "--level", level)
        assert code == 2 and "level must be in (0, 1)" in err

    @pytest.mark.parametrize("power_reps", ["0", "-5"])
    def test_power_reps_below_one(self, capsys, power_reps):
        code = main(["power", "--test", "kurt", "--n", "10", "--family", "laplace", "--shapes", "0.2",
                     "--reps", "1000", "--power-reps", power_reps, "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: power reps must be >= 1\n"

    @pytest.mark.parametrize("option, value, message", [
        ("--level", "5", "level must be in (0, 1)"),
        ("--power-reps", "0", "power reps must be >= 1"),
    ])
    def test_power_refuses_before_building_the_null(self, tmp_path, capsys, option, value, message):
        cache = tmp_path / "pc"
        cache.mkdir()
        code = main(["power", "--test", "kurt", "--n", "20", "--family", "laplace", "--shapes", "0.2",
                     "--reps", "1000", "--seed", "1", "--calibration-cache", str(cache), option, value])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not list(cache.glob("*.lbical"))

    def test_cache_of_another_n_is_refused(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["calibrate", "--test", "kurt", "--n", "20", "--reps", "1000", "--seed", "1",
                     "--calibration-cache", str(cache)]) == 0
        (built,) = cache.glob("*.lbical")
        built.rename(cache / built.name.replace("_n20_", "_n30_"))
        capsys.readouterr()
        path = tmp_path / "x30.csv"
        _write_csv(path, np.random.default_rng(102).normal(size=(30, 1)))
        code, err = self._run(path, capsys, "--calibration-cache", str(cache))
        assert code == 2
        assert "cache header has (n, p, reps, seed) = (20, 1, 1000, 1)" in err
        assert "not the requested (30, 1, 1000, 1)" in err

    def test_cache_shorter_than_header(self, uni_csv, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        cache_path(cache, "kurt", 20, 1, 1000, 1).write_bytes(b"LBICAL1")
        code, err = self._run(uni_csv, capsys, "--calibration-cache", str(cache))
        assert code == 2 and "shorter than its 48-byte header" in err

    @pytest.mark.parametrize("seed", [str(2**64), str(2**70), "-1"])
    @pytest.mark.parametrize("command", ["calibrate", "test", "power"])
    def test_seed_outside_64_bits_is_refused_at_once(self, uni_csv, tmp_path, capsys, command, seed):
        # a cache header keeps the seed in 64 bits: 2**64 used to crash in
        # struct.pack after the whole null was built, -1 to fail inside numpy
        cache = tmp_path / "pc"
        cache.mkdir()
        what = {"calibrate": ["--n", "20"], "test": ["--input", str(uni_csv)],
                "power": ["--n", "20", "--family", "laplace", "--shapes", "0.2"]}[command]
        code = main([command, "--test", "kurt", *what, "--reps", "1000", "--seed", seed,
                     "--calibration-cache", str(cache)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: --seed must be in [0, 2**64), not {seed}\n"
        assert not list(cache.iterdir())

    def test_largest_64_bit_seed_is_cached(self, tmp_path, capsys):
        cache = tmp_path / "pc"
        assert main(["calibrate", "--test", "kurt", "--n", "20", "--reps", "1000",
                     "--seed", str(2**64 - 1), "--calibration-cache", str(cache)]) == 0
        (built,) = cache.glob("*.lbical")
        assert built.name.endswith(f"_s{2**64 - 1}.lbical")

    @pytest.mark.parametrize("family, shapes, message", [
        ("stable", "0,1", "alpha = 1.0 outside the validated range"),
        ("stable", "0.5,2.5", "alpha = -0.5 outside the validated range"),
        ("student-t", "0,nan", "shape must be finite, not nan"),
        ("student-t", "0,inf", "shape must be finite, not inf"),
        ("laplace", "0.2,-0.1", "shape must be >= 0"),
        ("gh-variance-mean", "0.1,1e-4", "shape outside the validated mixing envelope"),
        ("laplace", "0.2,x", "could not convert string to float: 'x'"),
    ])
    def test_power_refuses_a_bad_shape_before_building_the_null(self, tmp_path, capsys,
                                                                family, shapes, message):
        cache = tmp_path / "pc"
        cache.mkdir()
        code = main(["power", "--test", "kurt", "--n", "20", "--family", family, "--shapes", shapes,
                     "--reps", "1000", "--seed", "1", "--calibration-cache", str(cache)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not list(cache.iterdir())

    @pytest.mark.parametrize("family, beta, message", [
        ("stable", "1.5", "|beta| must be <= 1"),
        ("stable", "nan", "|beta| must be <= 1"),
        ("gh-variance-mean", "inf", "beta must be finite, not inf"),
    ])
    def test_power_refuses_a_bad_family_beta_before_the_null(self, tmp_path, capsys,
                                                             family, beta, message):
        # a NaN beta used to pass and fail after the null was cached, as
        # "sample contains non-finite values"
        cache = tmp_path / "pc"
        cache.mkdir()
        code = main(["power", "--test", "kurt", "--n", "20", "--family", family, "--shapes", "0.5",
                     "--family-beta", beta, "--reps", "1000", "--seed", "1",
                     "--calibration-cache", str(cache)])
        assert code == 2 and capsys.readouterr().err == f"error: {message}\n"
        assert not list(cache.iterdir())


_ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                  if issubclass(cls, errors.LbinormError)]


@pytest.mark.parametrize("error", _ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_error_class(monkeypatch, capsys, error):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "run_test", fail)
    code = main(["test", "--input", "unused.csv", "--test", "kurt", "--seed", "1"])
    assert code == (3 if issubclass(error, errors.NumericalError) else 2)
    assert capsys.readouterr().err == "error: boom\n"


def test_numerical_errors_are_the_convergence_and_overflow_failures():
    numerical = {cls.__name__ for cls in _ERROR_CLASSES if issubclass(cls, errors.NumericalError)}
    assert numerical == {"NumericalError", "QuadratureUnconverged", "InversionUnconverged",
                         "ScoreOverflow", "NotSquareIntegrable"}
