"""Check that tier-1 runs every statement of src/ but the allowlisted ones.

    python3 tools/line_cover.py [--allow tools/line_cover.json]

Runs the tier-1 suite on a `git archive` of the staged tree (after a commit,
HEAD's tree), the extraction `tools/bench_ab.py` uses, with this file loaded
as a pytest plugin (`-p line_cover`).  The plugin installs a `sys.settrace`
line tracer (and `threading.settrace` for new threads) in `pytest_configure`
and writes the lines run under the checkout's `src/xbarsim` in
`pytest_sessionfinish`; an `atexit` hook would fire after module globals are
gone.  A statement is any `ast.stmt` of `src/xbarsim/*.py` except `def` and
`class` headers and docstrings; it ran when a line event fell on one of its
own lines (its span less the spans of the statements nested in it).  Each
allowlist entry names a file, the exact stripped text of a statement's first
line and a one-line reason.  Every statement that never ran is printed.  The
exit code is 1 when one is not listed, a listed one ran or is gone, or the
suite fails; 0 otherwise.
"""

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

from bench_ab import ROOT, extract, git

# Where the plugin writes the lines it saw: set by main for the pytest run.
OUT_ENV = "LINE_COVER_OUT"
PACKAGE = Path("src") / "xbarsim"

_executed = {}      # filename -> set of line numbers, filled by the tracer


def _tracer(prefix: str):
    def local(frame, event, arg):
        if event == "line":
            _executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        _executed.setdefault(filename, set())
        return local

    return call


def pytest_configure(config):
    if os.environ.get(OUT_ENV):
        tracer = _tracer(str(Path.cwd() / PACKAGE) + os.sep)
        sys.settrace(tracer)
        threading.settrace(tracer)


def pytest_sessionfinish(session, exitstatus):
    if os.environ.get(OUT_ENV):
        sys.settrace(None)
        threading.settrace(None)
        Path(os.environ[OUT_ENV]).write_text(json.dumps(
            {name: sorted(lines) for name, lines in _executed.items()}))


def _own_lines(node: ast.stmt) -> set:
    """The statement's lines less those of the statements nested in it."""
    lines = set(range(node.lineno, node.end_lineno + 1))
    for child in ast.walk(node):
        if child is not node and isinstance(child, ast.stmt):
            lines -= set(range(child.lineno, child.end_lineno + 1))
    return lines


def statements(path: Path):
    """(first line number, own lines) of every counted statement in the file."""
    tree = ast.parse(path.read_text())
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None}
    for node in ast.walk(tree):
        if (isinstance(node, ast.stmt) and not isinstance(node, scopes)
                and id(node) not in docstrings):
            yield node.lineno, _own_lines(node)


def never_run(checkout: Path, executed: dict) -> list:
    """(file, line number, first-line text) of every statement that never ran."""
    missed = []
    for path in sorted((checkout / PACKAGE).glob("*.py")):
        ran = set(executed.get(str(path), ()))
        text = path.read_text().splitlines()
        missed += [(str(path.relative_to(checkout)), lineno, text[lineno - 1].strip())
                   for lineno, own in sorted(statements(path)) if not own & ran]
    return missed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--allow", type=Path, default=ROOT / "tools" / "line_cover.json")
    args = parser.parse_args(argv)
    allowed = {(e["file"], e["line"]): e["reason"] for e in json.loads(args.allow.read_text())}
    with tempfile.TemporaryDirectory(prefix="line_cover-") as tmp:
        checkout = extract(git("write-tree"), Path(tmp).resolve() / "tree")
        out = Path(tmp) / "executed.json"
        env = {**os.environ, OUT_ENV: str(out), "PYTHONPATH": os.pathsep.join(
            filter(None, [str(checkout / "src"), str(ROOT / "tools"),
                          os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-p", "line_cover", "--continue-on-collection-errors"],
            cwd=checkout, env=env, text=True, capture_output=True)
        print(proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output")
        if not out.exists():
            print("the plugin wrote no lines")
            return 1
        missed = never_run(checkout, json.loads(out.read_text()))
    ok = proc.returncode == 0
    for file, lineno, line in missed:
        listed = (file, line) in allowed
        ok &= listed
        print(f"{file}:{lineno}: {line}  ({allowed[file, line] if listed else 'NOT LISTED'})")
    for file, line in sorted(set(allowed) - {(f, t) for f, _, t in missed}):
        ok = False
        print(f"{file}: {line}  (listed, but it ran or is gone)")
    print(f"{len(missed)} statements never ran, {len(allowed)} listed: "
          + ("all as expected" if ok else "NOT as expected"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
