"""Run the mutation catalogue and check that every mutant meets its expectation.

    python3 tools/mutants.py [--catalogue tools/mutants.json] [--only NAME ...]

Each catalogue entry names a file, an exact source fragment, its replacement,
a pytest selection ("tests") and the expected outcome: "killed" (the selection
fails) or "equivalent" (it passes, for the one-line "reason" given).  Every
mutant runs on its own `git archive` of the staged tree (after a commit,
HEAD's tree), the extraction `tools/bench_ab.py` uses, with `pytest -x` over
its selection and its own `src` first on PYTHONPATH.  Each distinct selection
first runs once on an unmutated copy and must pass there, so a mutant is never
counted as killed by a test that fails anyway.  The exit code is 1 when a
"killed" mutant survives, an "equivalent" one is killed, a fragment does not
occur exactly once in its file, or a selection errors or fails unmutated;
0 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_ab import ROOT, extract, git

# Wall-clock limit of one pytest run; a mutant that loops forever is an error.
RUN_SECONDS = 900


def pytest(checkout: Path, tests: list) -> str:
    """Run the selection on the checkout: "passed", "failed" or "error: ..."."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")]))}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=checkout, env=env, text=True, capture_output=True, timeout=RUN_SECONDS)
    except subprocess.TimeoutExpired:
        return f"error: no result in {RUN_SECONDS} s"
    # pytest exits 1 when a test failed; 2-5 mean it could not run the selection.
    return {0: "passed", 1: "failed"}.get(proc.returncode, f"error: exit {proc.returncode}")


def mutate(checkout: Path, entry: dict) -> bool:
    """Apply the entry's replacement in place; False unless its fragment occurs once."""
    path = checkout / entry["file"]
    source = path.read_text()
    if source.count(entry["find"]) != 1:
        return False
    path.write_text(source.replace(entry["find"], entry["replace"]))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--catalogue", type=Path, default=ROOT / "tools" / "mutants.json")
    parser.add_argument("--only", nargs="+", metavar="NAME",
                        help="run only the named entries")
    args = parser.parse_args(argv)
    entries = json.loads(args.catalogue.read_text())
    if args.only:
        entries = [e for e in entries if e["name"] in args.only]
    tree, ok = git("write-tree"), True
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        for k, tests in enumerate(dict.fromkeys(tuple(e["tests"]) for e in entries)):
            outcome = pytest(extract(tree, Path(tmp) / f"clean-{k}"), list(tests))
            print(f"unmutated {' '.join(tests)}: {outcome}", flush=True)
            ok &= outcome == "passed"
        for k, entry in enumerate(entries):
            start = time.perf_counter()
            checkout = extract(tree, Path(tmp) / f"mutant-{k}")
            if not mutate(checkout, entry):
                outcome = f"error: fragment not found once in {entry['file']}"
            else:
                result = pytest(checkout, entry["tests"])
                outcome = {"passed": "equivalent", "failed": "killed"}.get(result, result)
            good = outcome == entry["expect"]
            ok &= good
            print(f"{'ok ' if good else 'BAD'} {entry['name']}: {outcome} "
                  f"(expected {entry['expect']}, {time.perf_counter() - start:.0f} s)",
                  flush=True)
    print("all mutants as expected" if ok else "MUTATION CHECK FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
