"""CLI behaviour seen from a separate interpreter or at the process edge:
start-up imports, unclosed files and documented exit codes."""

import os
import subprocess
import sys
from pathlib import Path

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
