"""Check that every perfbench workload's digests match their references.

    python3 tools/digest_check.py [--seeds 0 3 17]

Runs perfbench on a `git archive` of the staged tree (after a commit, HEAD's
tree), the same extraction `tools/bench_ab.py` uses, so unstaged edits and
untracked files are not checked.  Each workload of BENCHMARK.json runs once
per seed (default 0; perfbench/reference.json holds seeds 0..31), untraced,
stopped after the ops of its digest window, and its digest line is printed.
The exit code is 0 only when every run exits 0 and reads "identical to
reference"; 1 otherwise.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_ab import ROOT, extract, git

# Ops in each workload's digest window (perfbench/workloads.py digest_window).
DIGEST_WINDOWS = {"exsitu": 8, "insitu": 16, "readout": 640}

# Wall-clock limit of one run; --ops ends each run well before it.
RUN_SECONDS = 600


def check(checkout: Path, benchmark: dict, workload: str, seed: int) -> bool:
    """Run one workload's digest window; print its digest line; True if identical."""
    proc = subprocess.run(
        [*benchmark["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", "0",
         "--ops", str(DIGEST_WINDOWS[workload])],
        cwd=checkout, text=True, capture_output=True)
    line = next((line.strip() for line in proc.stdout.splitlines()
                 if "simulated-output digest:" in line), "no digest line")
    print(f"{workload} seed {seed} (--ops {DIGEST_WINDOWS[workload]}): "
          f"exit {proc.returncode}, {line}", flush=True)
    return proc.returncode == 0 and "identical to reference" in line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    seeds = parser.parse_args(argv).seeds
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(prefix="digest_check-") as tmp:
        checkout = extract(git("write-tree"), Path(tmp) / "change")
        results = [check(checkout, benchmark, w["name"], seed)
                   for seed in seeds for w in benchmark["workloads"]]
    print("all identical to reference" if all(results) else "DIGEST CHECK FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
