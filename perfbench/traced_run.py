"""Child process of a traced run: the round's CLI invocations in-process.

Usage: traced_run.py PLAN.json RESULT.json

Times ``import lbinorm.cli`` in this fresh interpreter, runs the plan's
first round untraced and its second round traced (same invocations, own
cache directory each), and writes both round results and the spans.
"""

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

t0 = time.perf_counter()
import lbinorm.cli as cli  # noqa: E402
IMPORT_S = time.perf_counter() - t0

from lbinorm import calibration, stable  # noqa: E402

from rounds import run_round  # noqa: E402
from tracing import Tracer, install  # noqa: E402


def execute(op: dict) -> dict:
    """``lbinorm <args>`` as ``cli.main`` runs it, stdout to the op's file.

    An exception escaping ``main`` is exit code 1, as the interpreter
    would report it."""
    buf = io.StringIO()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(op["args"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    wall = time.perf_counter() - t
    Path(op["out"]).write_text(buf.getvalue())
    return {"code": code, "wall_s": wall, "rss_mib": None}


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    untraced, traced = plan["rounds"]
    first = run_round(untraced["ops"], Path(untraced["dir"]), execute)
    tracer = Tracer()
    install(tracer, cli, calibration, stable)
    second = run_round(traced["ops"], Path(traced["dir"]), execute)
    Path(result_path).write_text(json.dumps(
        {"import_s": IMPORT_S, "rounds": [first, second], "spans": tracer.spans}))


if __name__ == "__main__":
    main(*sys.argv[1:])
