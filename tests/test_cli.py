"""End-to-end CLI behavior: parsing, reports, exit codes, caching, power."""

import csv
import io
import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from lbinorm import calibration as cal_mod
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


class TestCacheKey:
    """A cache file is keyed by every setting that changes the statistic."""

    def _calibrate(self, cache, capsys, *extra):
        argv = ["calibrate", "--test", "lbi-approx", "--score", "stable:beta=0", "--n", "20",
                "--reps", "1000", "--seed", "5", "--calibration-cache", str(cache), *extra]
        assert main(argv) == 0
        return capsys.readouterr().out.strip()

    @pytest.mark.parametrize("setting", [["--stable-tmax", "20"], ["--stable-nodes", "1024"]])
    def test_inversion_settings_name_their_own_file(self, uni_csv, tmp_path, capsys,
                                                    monkeypatch, setting):
        cache = tmp_path / "cache"
        first = self._calibrate(cache, capsys)
        second = self._calibrate(cache, capsys, *setting)
        assert first != second
        assert len(list(cache.glob("*.lbical"))) == 2
        loaded = []
        inner = cal_mod.load_calibration

        def recorded(path, *args):
            loaded.append(str(path))
            return inner(path, *args)

        monkeypatch.setattr(cal_mod, "load_calibration", recorded)
        report = tmp_path / "r.json"
        assert main(["test", "--input", str(uni_csv), "--test", "lbi-approx", "--score",
                     "stable:beta=0", "--reps", "1000", "--seed", "5", "--calibration-cache",
                     str(cache), "--json", str(report), *setting]) == 0
        assert loaded == [second]
        assert json.loads(report.read_text())["statistic_label"] == "lbi-approx(stable:beta=0)"


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
