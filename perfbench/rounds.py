"""Running one round of CLI invocations, in a child process per invocation
(the untraced, user-facing path) or in-process (the traced path)."""

import hashlib
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path


def child_env(root: Path) -> dict:
    """Environment for every process the benchmark starts: the program from
    the checkout's ``src``, and one BLAS/OpenMP thread (the machine has 2
    cores, and one invocation runs at a time)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list, env: dict, stdout: Path, stderr: Path, timeout: float) -> dict:
    """Run a process to completion; returns exit code, wall time and peak RSS.

    ``os.wait4`` gives the child's own resource usage, so the peak resident
    set is that one process's.  A watchdog kills the child after ``timeout``.
    """
    with open(stdout, "wb") as out, open(stderr, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "rss_mib": usage.ru_maxrss / 1024.0}


def cli_executor(root: Path, deadline: float):
    """Execute an op as ``python -m lbinorm.cli <args>`` in a fresh process."""
    env = child_env(root)

    def execute(op: dict) -> dict:
        argv = [sys.executable, "-m", "lbinorm.cli"] + op["args"]
        stderr = Path(op["out"]).with_suffix(".err")
        return spawn(argv, env, Path(op["out"]), stderr,
                     max(deadline - time.monotonic(), 1.0))

    return execute


def snapshot(directory: Path) -> dict:
    """File name -> sha256 of every file in a directory."""
    if not directory.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def run_round(ops: list, round_dir: Path, execute) -> dict:
    """Run a round's ops in order; snapshot the cache around the test phase."""
    cache = round_dir / "cache"
    (round_dir / "out").mkdir(parents=True, exist_ok=True)
    tests = [i for i, op in enumerate(ops) if op["kind"] == "test"]
    results = []
    before = after = None
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tests and i == tests[0]:
            before = snapshot(cache)
        results.append(execute(op))
        if tests and i == tests[-1]:
            after = snapshot(cache)
    return {
        "results": results,
        "cache_before_test": before,
        "cache_after_test": after,
        "wall_s": time.perf_counter() - t0,
    }
