"""Check that two trees' CLI runs leave byte-identical artifacts.

    python3 tools/artifact_ab.py --parent HEAD

Runs one fixed list of `xbarsim` commands on a `git archive` of the --parent
revision and on one of the staged tree (after a commit, HEAD's tree), the
same extraction `tools/bench_ab.py` uses, so unstaged edits and untracked
files are not run.  Each side runs in its own work directory with its own
`src` first on PYTHONPATH, and every --out is relative to that directory, so
echoed paths read the same on both sides.  The commands: form (seed 6), form
with slow reset kinetics and three rounds (seed 7, so that cells run out of
reset budget and later cells' failed rounds reset them again), tune of a 20x20
target grid on a copy of the seed-6 array, train (ex-situ-aware seed 3,
ex-situ-oblivious seed 4, in-situ seed 5, and ex-situ-aware seed 8 on devices
of nonlinearity_alpha 0.5, so that forming's and the tuner's reads carry a
gain other than 1), export-patterns, infer on the aware run's snapshots and on
a copy of its pair maps alone, sweep (10 runs), scale and init-config.  Every
command's exit code and stdout and every file left in the work directory are
compared byte for byte; each difference is named, and the exit code is 1 if
there is any.
"""

import argparse
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_ab import SIDES, extract, git

# (label, files to copy into place first as (source, destination), argv)
COMMANDS = [
    ("form", [], ["--seed", "6", "--out", "form", "form"]),
    ("form-slow-reset", [],
     ["--config", "slow_reset.json", "--seed", "7", "--out", "form-slow", "form"]),
    ("tune", [("form", "tune")],
     ["--seed", "6", "--out", "tune", "tune", "--targets", "targets.csv"]),
    ("train-aware", [],
     ["--seed", "3", "--out", "aware", "train", "--mode", "ex-situ-aware"]),
    ("train-oblivious", [],
     ["--seed", "4", "--out", "oblivious", "train", "--mode", "ex-situ-oblivious"]),
    ("train-in-situ", [], ["--seed", "5", "--out", "insitu", "train", "--mode", "in-situ"]),
    ("train-nonlinear", [],
     ["--config", "nonlinear.json", "--seed", "8", "--out", "nonlinear", "train",
      "--mode", "ex-situ-aware"]),
    ("export-patterns", [], ["--out", "patterns", "export-patterns"]),
    ("infer-snapshots", [], ["--out", "infer-snapshots", "infer", "--network", "aware",
                             "--patterns", "patterns/test_patterns.txt"]),
    ("infer-pair-maps", [("aware/layer1_pairs.csv", "pair-maps/layer1_pairs.csv"),
                         ("aware/layer2_pairs.csv", "pair-maps/layer2_pairs.csv")],
     ["--out", "infer-pair-maps", "infer", "--network", "pair-maps",
      "--patterns", "patterns/training_patterns.txt"]),
    ("sweep", [],
     ["--config", "sweep.json", "--out", "sweep", "sweep", "--weights", "aware"]),
    ("scale", [], ["--out", "scale", "scale"]),
    ("init-config", [], ["init-config", "--path", "xbarsim.json"]),
]


def write_inputs(work: Path):
    """The files the commands read that no command writes."""
    work.mkdir()
    rng = random.Random(0)
    (work / "targets.csv").write_text("".join(
        ",".join(f"{rng.uniform(15e-6, 95e-6):.9g}" for _ in range(20)) + "\n"
        for _ in range(20)))
    (work / "sweep.json").write_text('{"benchmark": {"runs": 10}}\n')
    (work / "slow_reset.json").write_text(
        '{"device": {"kinetics_rate_range": ["0.0001uS", "0.005uS"]}, '
        '"forming": {"max_rounds": 3}}\n')
    (work / "nonlinear.json").write_text('{"device": {"nonlinearity_alpha": 0.5}}\n')


def run_side(checkout: Path, work: Path) -> dict:
    """Run every command in `work` on the checkout's src; {label: (exit, stdout)}."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")]))}
    results = {}
    for label, copies, argv in COMMANDS:
        for source, destination in copies:
            (work / destination).parent.mkdir(parents=True, exist_ok=True)
            copy = shutil.copytree if (work / source).is_dir() else shutil.copyfile
            copy(work / source, work / destination)
        proc = subprocess.run([sys.executable, "-m", "xbarsim.cli", *argv], cwd=work,
                              env=env, capture_output=True)
        results[label] = (proc.returncode, proc.stdout)
        print(f"{work.name} {label}: exit {proc.returncode}", flush=True)
    return results


def files(work: Path) -> dict:
    return {str(p.relative_to(work)): p.read_bytes()
            for p in sorted(work.rglob("*")) if p.is_file()}


def differences(results: dict, trees: dict) -> list:
    parent, change = results["parent"], results["change"]
    found = []
    for label in parent:
        if parent[label][0] != change[label][0]:
            found.append(f"{label}: exit {parent[label][0]} -> {change[label][0]}")
        if parent[label][1] != change[label][1]:
            found.append(f"{label}: stdout differs")
    for name in sorted(trees["parent"].keys() | trees["change"].keys()):
        if name not in trees["change"]:
            found.append(f"{name}: only on the parent side")
        elif name not in trees["parent"]:
            found.append(f"{name}: only on the change side")
        elif trees["parent"][name] != trees["change"][name]:
            found.append(f"{name}: bytes differ")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    args = parser.parse_args(argv)

    revs = {"parent": git("rev-parse", args.parent), "change": git("write-tree")}
    results, trees = {}, {}
    with tempfile.TemporaryDirectory(prefix="artifact_ab-") as tmp:
        for side in SIDES:
            work = Path(tmp) / f"{side}-work"
            write_inputs(work)
            results[side] = run_side(extract(revs[side], Path(tmp) / side), work)
            trees[side] = files(work)
    found = differences(results, trees)
    for line in found:
        print(f"DIFFERENT {line}")
    print(f"{len(COMMANDS)} commands, {len(trees['change'])} files: "
          + (f"{len(found)} differences" if found else "identical"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
