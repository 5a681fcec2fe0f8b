"""tools/uncovered.py on a small package, run by a script that also calls it
from a thread and from a child interpreter."""

import importlib.util
import sys
import textwrap
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "uncovered.py"
_SPEC = importlib.util.spec_from_file_location("uncovered", _PATH)
uncovered = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(uncovered)

_MODULE = '''\
"""A module docstring."""


def used(flag):
    """A function docstring."""
    if flag:
        return (1 +
                2)
    return 0


def in_child():
    return 1


def in_thread(out):
    out.append(1)


def never():
    x = 1
    return x
'''

_SCRIPT = '''\
import subprocess, sys, threading
import pkg.mod as mod
mod.used(True)
thread = threading.Thread(target=mod.in_thread, args=([],))
thread.start()
thread.join()
subprocess.run([sys.executable, "-c", "import pkg.mod; pkg.mod.in_child()"], check=True)
'''


def test_statements_no_process_ran(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(_MODULE)
    # the tracer closes the file it writes: an open one would print a ResourceWarning
    proc, executed = uncovered.trace(
        [sys.executable, "-W", "error::ResourceWarning", "-c", _SCRIPT], package,
        cwd=tmp_path, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = uncovered.uncovered(executed, package)
    # the multi-line return, the thread's and the child's lines ran; docstrings are no statements
    assert [(path.name, line, text) for path, line, text in rows] == [
        ("mod.py", 9, "return 0"), ("mod.py", 21, "x = 1"), ("mod.py", 22, "return x")]


def test_statement_spans_start_at_the_decorator():
    source = textwrap.dedent('''\
        """Doc."""
        @property
        def f(self):
            """Doc."""
            return 1
    ''')
    assert sorted(uncovered._statement_spans(source)) == [(2, 5), (5, 5)]
