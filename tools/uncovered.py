"""Statements of ``src/lbinorm`` that a run of the Tier-1 tests never executes.

Usage (from anywhere):

    python3 tools/uncovered.py

Needs no coverage package.  Runs the Tier-1 command, ``python -m pytest -q
--continue-on-collection-errors``, from the checkout's root in a subprocess,
with a ``sitecustomize`` module in a temporary directory first on
``PYTHONPATH``.  Enabled by the ``LBINORM_TRACE_OUT`` environment variable,
that module records the lines of ``src/lbinorm`` that its process executes,
through ``sys.settrace`` and ``threading.settrace``, and writes them at exit
to one JSON file per process id, so the CLI processes that the tests start
count too.  The tool then prints the first line of every statement
(docstrings excluded) no line of which any process executed, and their count.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lbinorm"
ENV = "LBINORM_TRACE_OUT"

# Run at the start-up of every Python process that finds it on its path.  The
# tool prepends PACKAGE, the traced directory, and ENV, the variable naming the
# directory that the JSON files go to.
_SITECUSTOMIZE = '''
import os

if os.environ.get(ENV):
    import atexit
    import sys
    import threading

    _executed = {}
    _tracers = {}

    def _line_tracer(lines):
        def trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace
        return trace

    def _call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in _tracers:
            path = os.path.realpath(filename)
            _tracers[filename] = (_line_tracer(_executed.setdefault(path, set()))
                                  if path.startswith(PACKAGE) else None)
        return _tracers[filename]

    def _write():
        import json
        import tempfile

        sys.settrace(None)
        threading.settrace(None)
        fd, _ = tempfile.mkstemp(prefix=f"{os.getpid()}-", suffix=".json",
                                 dir=os.environ[ENV])
        with os.fdopen(fd, "w") as fh:
            json.dump({path: sorted(lines) for path, lines in _executed.items()}, fh)

    atexit.register(_write)
    threading.settrace(_call)
    sys.settrace(_call)
'''


def trace(command, package=PACKAGE, **kwargs):
    """Run ``command`` with every Python process it starts recording the lines
    of the files under ``package``, whose parent is put on ``PYTHONPATH``.
    Returns the finished process and {real path: set of executed lines}.
    ``kwargs`` go to ``subprocess.run``."""
    package = Path(package).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp) / "site", Path(tmp) / "out"
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(
            f"PACKAGE = {str(package) + os.sep!r}\nENV = {ENV!r}\n{_SITECUSTOMIZE}")
        env = dict(os.environ)
        env[ENV] = str(out)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(site), str(package.parent), env.get("PYTHONPATH")]))
        proc = subprocess.run(command, env=env, **kwargs)
        executed = {}
        for path in out.glob("*.json"):
            with path.open() as fh:
                for name, lines in json.load(fh).items():
                    executed.setdefault(name, set()).update(lines)
    return proc, executed


def _statement_spans(source: str):
    """(first line, last line) of every statement, decorators included and
    docstrings excluded."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0]) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and id(node) not in docstrings:
            decorators = [d.lineno for d in getattr(node, "decorator_list", ())]
            yield min([node.lineno, *decorators]), node.end_lineno


def uncovered(executed: dict, package=PACKAGE) -> list:
    """(path, line, source text) of the first line of each statement under
    ``package`` none of whose lines is in ``executed``, in file and line order."""
    rows = []
    for path in sorted(Path(package).resolve().rglob("*.py")):
        ran = executed.get(str(path), set())
        source = path.read_text()
        lines = source.splitlines()
        rows += [(path, first, lines[first - 1].strip())
                 for first, last in _statement_spans(source)
                 if ran.isdisjoint(range(first, last + 1))]
    return sorted(rows)


def main() -> int:
    proc, executed = trace([sys.executable, "-m", "pytest", "-q",
                            "--continue-on-collection-errors"], cwd=ROOT)
    rows = uncovered(executed)
    for path, line, text in rows:
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{len(rows)} statements of {PACKAGE.relative_to(ROOT)} never executed "
          f"(pytest exited {proc.returncode})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
