"""Record an A/B benchmark: alternating parent/change pairs of perfbench runs.

    python3 tools/bench_ab.py --parent HEAD~1 --pr N --seeds 5

BENCHMARK.json fixes what runs: its command, workloads and run_seconds.  The
parent side runs from a `git archive` of the --parent revision, the change
side from a `git archive` of the staged tree (after a commit, HEAD's tree),
each in a temporary directory, so unstaged edits and untracked files are not
measured.  The record names both sides' `src` trees, which a commit's
`git rev-parse <commit>:src` can be checked against, and the line count of
each side's `src/**/*.py`, which a PR reports next to its timings.  Every
workload gets PAIRS pairs; each pair runs both sides once, untraced, on the
same seed, the side that runs first alternates from pair to pair, and pair i
uses seed seeds[i % len(seeds)].  The result is written to BENCH_<pr>.json at
the checkout root: for every workload and end-to-end metric, both sides'
medians and quartiles, the change/parent ratio of the medians, and how many
pairs the change won (ties count for neither side), plus every run.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


def extract(rev: str, into: Path) -> Path:
    """Write the files of the tree-ish rev into the new directory `into`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into


def src_lines(checkout: Path) -> int:
    """Lines of the Python files under the checkout's src/."""
    return sum(len(path.read_bytes().splitlines()) for path in checkout.glob("src/**/*.py"))


def run_once(checkout: Path, benchmark: dict, workload: str, seed: int) -> dict:
    """One untraced perfbench run: its exit code, digest status and metrics."""
    proc = subprocess.run(
        [*benchmark["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(benchmark["run_seconds"]), "--trace", "0"],
        cwd=checkout, text=True, capture_output=True)
    lines = proc.stdout.strip().splitlines()
    digest = next((line.split(":", 1)[1].strip() for line in lines
                   if "simulated-output digest:" in line), None)
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        summary = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {
        "exit_code": proc.returncode,
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "digest": digest,
        "metrics": {k: v["value"] for k, v in summary["metrics"].items()},
    }


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: list, end_to_end: list) -> dict:
    """Per-metric medians, quartiles, ratio and change wins over the pairs."""
    out = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        pairs = [(r["parent"]["metrics"].get(name), r["change"]["metrics"].get(name))
                 for r in runs]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            continue
        parent, change = [p for p, _ in pairs], [c for _, c in pairs]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent_median": p_med, "parent_quartiles": quartiles(parent),
            "change_median": c_med, "change_quartiles": quartiles(change),
            "ratio": c_med / p_med if p_med else None,
            "change_wins": sum((c < p) if lower else (c > p) for p, c in pairs),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    revs = {"parent": git("rev-parse", args.parent), "change": git("write-tree")}
    result = {
        "schema_version": 3,
        "parent": revs["parent"],
        "change_tree": revs["change"],
        "src_trees": {side: git("rev-parse", f"{rev}:src") for side, rev in revs.items()},
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "seconds": benchmark["run_seconds"],
        "pairs": PAIRS,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        checkouts = {side: extract(revs[side], Path(tmp) / side) for side in SIDES}
        result["src_lines"] = {side: src_lines(checkouts[side]) for side in SIDES}
        for workload in (w["name"] for w in benchmark["workloads"]):
            runs = []
            for i in range(PAIRS):
                seed = args.seeds[i % len(args.seeds)]
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(checkouts[side], benchmark, workload, seed)
                    m = pair[side]["metrics"]
                    print(f"{workload} pair {i} seed {seed} {side}: exit "
                          f"{pair[side]['exit_code']}, ops_per_s "
                          f"{m.get('ops_per_s', float('nan')):.4g}, digest "
                          f"{pair[side]['digest']}", flush=True)
                runs.append(pair)
            result["workloads"][workload] = {
                "seeds": [r["seed"] for r in runs],
                "metrics": summarize(runs, benchmark["end_to_end"]),
                "runs": runs,
            }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True, allow_nan=False) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
