"""lbinorm benchmark: the real CLI, one invocation at a time, per workload.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|tiny]

--trace 0 reports the end-to-end metrics: set-up time, the wall time of the
workload's calibrate/test/power invocations, each in its own process, and
their peak memory.  --trace 1 runs the same invocations in one process
through ``cli.main`` with spans around each layer, and reports the
per-layer metrics and the tracing overhead.  Every output is checked
(checks.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from checks import check_round
from rounds import child_env, cli_executor, run_round, spawn
from tracing import LAYER_METRICS, layer_metrics
from workloads import LEVEL, round_ops, workloads, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
RUN_BUDGET_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "calibrate_s": "s",
    "test_s": "s",
    "power_s": "s",
    "peak_rss_mib": "MiB",
}


def _setup_samples(wl, work: Path, deadline: float) -> tuple:
    spec = json.dumps([[st.test, st.score, st.group] for st in wl.stats])
    argv = [sys.executable, str(HERE / "setup_probe.py"), spec]
    walls, failures = [], []
    for i in range(SETUP_SAMPLES):
        res = spawn(argv, child_env(ROOT), work / f"setup{i}.out", work / "setup.err",
                    max(deadline - time.monotonic(), 1.0))
        if res["code"] != 0:
            failures.append(f"setup: exit code {res['code']}")
        walls.append(res["wall_s"])
    return walls, failures


def run_untraced(wl, seed: int, seconds: float, work: Path) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    start = time.perf_counter()
    inputs = write_inputs(wl, seed, work / "data")
    setup, failures = _setup_samples(wl, work, deadline)
    execute = cli_executor(ROOT, deadline)
    totals = {"calibrate": [], "test": [], "power": []}
    attempted = failed = peak_rss = 0
    while True:
        # A block is wl.rounds rounds of the same invocations; each
        # invocation counts with its fastest round, which drops the bursts
        # of slowdown that a shared machine adds to single runs.
        block_start = time.perf_counter()
        fastest = None
        for r in range(wl.rounds):
            round_dir = work / f"round{r}"
            ops = round_ops(wl, seed, inputs, round_dir)
            result = run_round(ops, round_dir, execute)
            failures += check_round(wl, ops, result, inputs, LEVEL)
            walls = [res["wall_s"] for res in result["results"]]
            fastest = walls if fastest is None else list(map(min, fastest, walls))
            attempted += len(ops)
            failed += sum(res["code"] != 0 for res in result["results"])
            peak_rss = max([peak_rss] + [res["rss_mib"] for res in result["results"]])
            shutil.rmtree(round_dir)
        for kind in totals:
            totals[kind].append(sum(w for op, w in zip(ops, fastest) if op["kind"] == kind))
        # Whole blocks only: start another only if it should end in time.
        block = time.perf_counter() - block_start
        if time.perf_counter() - start + block > seconds or \
                time.monotonic() + 1.5 * block > deadline:
            break
    values = {
        "setup_s": statistics.median(setup),
        "calibrate_s": statistics.median(totals["calibrate"]),
        "test_s": statistics.median(totals["test"]),
        "power_s": statistics.median(totals["power"]),
        "peak_rss_mib": peak_rss,
    }
    return {
        "correct": not failures, "attempted": attempted, "failed": failed,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
    }


def run_traced(wl, seed: int, work: Path) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    inputs = write_inputs(wl, seed, work / "data")
    rounds = []
    for name in ("untraced", "traced"):
        ops = round_ops(wl, seed, inputs, work / name)
        rounds.append({"dir": str(work / name), "ops": ops})
    plan, result_path = work / "plan.json", work / "result.json"
    plan.write_text(json.dumps({"rounds": rounds}))
    argv = [sys.executable, str(HERE / "traced_run.py"), str(plan), str(result_path)]
    res = spawn(argv, child_env(ROOT), work / "traced.out", work / "traced.err",
                max(deadline - time.monotonic(), 1.0))
    if res["code"] != 0:
        err = (work / "traced.err").read_text()[-2000:]
        raise RuntimeError(f"traced run exited with {res['code']}:\n{err}")
    result = json.loads(result_path.read_text())
    failures, attempted, failed = [], 0, 0
    for plan_round, rr in zip(rounds, result["rounds"]):
        failures += check_round(wl, plan_round["ops"], rr, inputs, LEVEL)
        attempted += len(plan_round["ops"])
        failed += sum(r["code"] != 0 for r in rr["results"])
    values = layer_metrics(result["spans"], result["import_s"],
                           result["rounds"][0]["wall_s"], result["rounds"][1]["wall_s"])
    return {
        "correct": not failures, "attempted": attempted, "failed": failed,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lbinorm" / "cli.py").is_file():
        print(f"error: no lbinorm source under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    wls = workloads(args.size)
    names = list(wls) if args.workload == "all" else [args.workload]
    if any(name not in wls for name in names):
        print(f"error: unknown workload {args.workload}; choose from {list(wls)} or all",
              file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    outcome = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            wdir = work / name
            wdir.mkdir()
            if args.trace:
                res = run_traced(wls[name], args.seed, wdir)
            else:
                res = run_untraced(wls[name], args.seed, args.seconds, wdir)
            for failure in res["failures"]:
                print(f"{name}: CHECK FAILED: {failure}")
            for metric, m in res["metrics"].items():
                print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
            prefix = "" if len(names) == 1 else f"{name}."
            outcome["correct"] &= res["correct"]
            outcome["attempted"] += res["attempted"]
            outcome["failed"] += res["failed"]
            outcome["metrics"].update({prefix + k: v for k, v in res["metrics"].items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
