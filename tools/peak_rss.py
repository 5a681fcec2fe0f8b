"""Peak resident memory and wall time of each operation of one benchmark round.

Usage (from anywhere):

    python3 tools/peak_rss.py --workload W [--seed S]

The benchmark reports only the largest peak RSS of a run.  This runs one
round of workload W's CLI invocations, as ``perfbench/workloads.py``
defines them (inputs drawn at seed S, default 1), each in a fresh
``python -m lbinorm.cli`` process on this checkout's ``src`` and under a
temporary directory that is removed afterwards, and prints one line per
operation, largest peak first: peak RSS in MiB, wall time in s, exit code,
and the operation's kind, statistic and sample.
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from rounds import cli_executor, run_round  # noqa: E402
from workloads import round_ops, workloads, write_inputs  # noqa: E402

BUDGET_S = 600.0  # the longest a round may run before its operations are killed


def measure(workload: str, seed: int, work: Path, execute=None) -> list:
    """One round of ``workload`` under ``work``: a (peak RSS MiB, wall s, exit
    code, op) row per operation, largest peak first.  ``execute`` runs an op
    and returns its code, wall_s and rss_mib; by default in a fresh process."""
    wl = workloads()[workload]
    execute = execute or cli_executor(ROOT, time.monotonic() + BUDGET_S)
    inputs = write_inputs(wl, seed, work / "data")
    ops = round_ops(wl, seed, inputs, work / "round")
    results = run_round(ops, work / "round", execute)["results"]
    rows = [(res["rss_mib"], res["wall_s"], res["code"], op) for op, res in zip(ops, results)]
    return sorted(rows, key=lambda row: -row[0])


def main(argv=None, execute=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads()))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        rows = measure(args.workload, args.seed, Path(tmp), execute)
    print(f"{'peak MiB':>9} {'wall s':>7} {'exit':>4}  operation")
    for rss, wall, code, op in rows:
        sample = f" {op['sample']}" if op["sample"] else ""
        print(f"{rss:9.1f} {wall:7.3f} {code:4d}  {op['kind']} {op['stat']}{sample}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
