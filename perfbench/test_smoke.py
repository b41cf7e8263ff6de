"""Smoke test of the benchmark command, each workload with a tiny op count.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import tail_percentile
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(cwd, workload, trace, ops=2):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload,
           "--seed", "0", "--seconds", "60", "--trace", str(trace), "--ops", str(ops)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result.keys() == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (2, 0)
    declared = BENCH["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
    else:
        layers = [k for k in values if k.endswith("_ms")
                  and k not in ("benchmark.letters_ms", "trace.op_ms")]
        assert sum(values[k] for k in layers) == pytest.approx(values["trace.op_ms"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.op_id = 0
    with tracer.span("op"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
    own = tracer.self_times()
    durations = [end - start for _, start, end, _, _ in tracer.spans]
    assert own[2] == durations[2]
    assert own[1] == pytest.approx(durations[1] - durations[2])
    assert sum(own) == pytest.approx(durations[0])


@pytest.mark.parametrize("n, p, beyond", [(5, 50, 2), (30, 66, 10), (100, 90, 10),
                                          (5000, 99, 50)])
def test_tail_percentile_keeps_ten_ops_beyond(n, p, beyond):
    got_p, value, got_beyond = tail_percentile(list(range(n)))
    assert (got_p, got_beyond) == (p, beyond)
    assert value == n - 1 - beyond
