"""Paired end-to-end benchmark of two checkouts, written to BENCH_<pr>.json.

Usage (from anywhere):

    python3 tools/bench_pairs.py --parent DIR --change DIR --pr N [--first-seed 1]

The workloads and the run length S are the parent's BENCHMARK.json
``workloads`` and ``run_seconds``.  For every workload, pair i = 0..9
runs ``perfbench/run.py --workload W --seed first_seed + i --seconds S
--trace 0`` once in each checkout, one after the other; the parent runs
first in even pairs and the change in odd ones, so a drift of the
machine's speed weighs on both sides alike.  Each checkout runs its own
``perfbench/`` on its own ``src/``.  Ten pairs is the fewest on which a
gain can be claimed (a win in at least nine).

BENCH_<pr>.json (in the current directory) holds, per workload and
end-to-end metric: the median of each side, the parent's quartiles, the
per-pair values, the number of pairs the change wins (ties count for
neither side) and a verdict, with the metric's direction and bound taken
from the parent's BENCHMARK.json.  The verdict is ``gain`` when the
change wins at least nine pairs in ten and its median is better than the
parent's by more than the parent's interquartile range, ``worse`` when
its median is worse than the parent's by more than the bound (a fraction
of the parent's median), and ``flat`` otherwise.  Every run's
correctness and operation counts are kept too, and per workload each
side's failed share (failed over attempted operations, summed over its
runs) and whether all its runs were correct, with a flag for a workload
where the change fails a larger share than the parent or any run is
incorrect; flags are printed as well.  For each side, the commit its
checkout is at and whether its tree differs from that commit are
recorded (both null where the directory is not the top of a git
checkout).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run; its result is the JSON object on the last line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def checkout_state(checkout: Path) -> dict:
    """``git rev-parse HEAD`` of a checkout and whether ``git status
    --porcelain`` lists anything; nulls where it is not a git checkout."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)

    try:
        top = git("rev-parse", "--show-toplevel")
    except FileNotFoundError:  # no git
        return {"commit": None, "dirty": None}
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != checkout:
        return {"commit": None, "dirty": None}
    return {"commit": git("rev-parse", "HEAD").stdout.strip(),
            "dirty": bool(git("status", "--porcelain").stdout.strip())}


def verdict(parent_median: float, change_median: float, iqr: float, wins: int,
            lower: bool, bound: float) -> str:
    """``gain``, ``worse`` or ``flat``; see the module docstring."""
    improvement = (parent_median - change_median) * (1 if lower else -1)
    if 10 * wins >= 9 * PAIRS and improvement > iqr:
        return "gain"
    if -improvement > bound * abs(parent_median):
        return "worse"
    return "flat"


def summarize(runs: dict, metrics: dict) -> dict:
    """Medians, the parent's quartiles, the pairs, the change's wins and the
    verdict per metric; ``metrics`` maps a name to its BENCHMARK.json entry."""
    out = {}
    for metric, spec in metrics.items():
        lower = spec["better"] == "lower"
        pairs = [[p["metrics"][metric]["value"], c["metrics"][metric]["value"]]
                 for p, c in zip(runs["parent"], runs["change"])]
        parent = [p for p, _ in pairs]
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        parent_median = statistics.median(parent)
        change_median = statistics.median(c for _, c in pairs)
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        out[metric] = {
            "unit": runs["parent"][0]["metrics"][metric]["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent_median": parent_median,
            "parent_quartiles": [q1, q3],
            "change_median": change_median,
            "pairs": pairs,
            "change_wins": wins,
            "verdict": verdict(parent_median, change_median, q3 - q1, wins, lower, spec["bound"]),
        }
    return out


def outcomes(runs: dict) -> dict:
    """Each side's failed share and whether all its runs were correct, and
    the flags this workload raises (an empty list when it raises none)."""
    out = {}
    for side in SIDES:
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        out[side] = {"failed_share": failed / attempted if attempted else 0.0,
                     "correct": all(r["correct"] for r in runs[side])}
    flags = []
    if out["change"]["failed_share"] > out["parent"]["failed_share"]:
        flags.append("the change fails a larger share of operations than the parent")
    flags += [f"a {side} run is incorrect" for side in SIDES if not out[side]["correct"]]
    out["flags"] = flags
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = float(spec["run_seconds"])

    report = {"pr": args.pr, "seconds": seconds,
              "checkouts": {side: checkout_state(checkouts[side]) for side in SIDES},
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = [args.first_seed + i for i in range(PAIRS)]
        runs = {side: [] for side in SIDES}
        for i, seed in enumerate(seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                res = run_once(checkouts[side], workload, seed, seconds)
                runs[side].append(res)
                print(f"{workload} seed {seed} {side}: " + ", ".join(
                    f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        report["workloads"][workload] = {
            "seeds": seeds,
            "runs": {side: [{k: r[k] for k in ("correct", "attempted", "failed")}
                            for r in runs[side]] for side in SIDES},
            "outcomes": outcomes(runs),
            "metrics": summarize(runs, metrics),
        }
        for flag in report["workloads"][workload]["outcomes"]["flags"]:
            print(f"{workload} FLAG: {flag}", flush=True)
        for metric, m in report["workloads"][workload]["metrics"].items():
            print(f"{workload} {metric}: {m['parent_median']:.4g} -> {m['change_median']:.4g}, "
                  f"{m['change_wins']}/{PAIRS} wins, {m['verdict']}", flush=True)
    path = Path(f"BENCH_{args.pr}.json")
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
