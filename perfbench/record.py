"""Write the benchmark's stored references.

    python3 perfbench/record.py digests       # perfbench/reference.json
    python3 perfbench/record.py environment   # perfbench/environment.json

Run from the root of a git checkout, on an otherwise idle machine.

``digests`` replays the digest window of every workload for workload seeds
0..31 and stores each run digest.  Record it only at a commit whose
simulated outputs are meant to be the reference: a later change that keeps
them identical then reads "identical to reference".

``environment`` records the machine and toolchain, and compares this
commit's host times once with the ROADMAP baseline rows.  A row
reproduces when it lands within 25% (the widest end-to-end bound) of the
ROADMAP figure.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, ExSitu, InSitu  # noqa: E402

DIGEST_SEEDS = range(32)
ENVIRONMENT = run.HERE / "environment.json"
REPRODUCE_WITHIN = 0.25
# ROADMAP "Baseline, measured at this re-anchor" rows, single-shot, in seconds.
ROADMAP_ROWS = {
    "criterion 2/3 fixture (50 pipelines)": 44.6,
    "criterion 9 (25 in-situ runs)": 10.9,
    "one aware pipeline": 0.752,
    "aware pipeline: sampling": 0.035,
    "aware pipeline: forming": 0.018,
    "aware pipeline: train": 0.571,
    "aware pipeline: import": 0.275,
    "in-situ, 400 epochs": 0.213,
}


def record_digests():
    reference = {}
    for name, cls in WORKLOADS.items():
        reference[name] = {}
        for seed in DIGEST_SEEDS:
            workload = cls(seed)
            for r in range(run.SETUP_REPEATS):
                workload.setup(r)
            records = {i: workload.summarize(i, workload.op(i))
                       for i in range(workload.digest_window)}
            reference[name][str(seed)] = run.window_digest(workload, records)[1]
            print(name, seed, reference[name][str(seed)], flush=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def timed(fn, *args) -> float:
    """Raw host seconds of one call."""
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def measure_baseline_rows() -> dict:
    """This commit's figures for the ROADMAP rows, on the acceptance seeds."""
    exsitu, insitu = ExSitu(0), InSitu(0)
    exsitu.setup(0)
    insitu.setup(0)
    aware = [timed(exsitu.op, 2 * s) for s in range(25)]
    oblivious = [timed(exsitu.op, 2 * s + 1) for s in range(25)]
    in_situ = [timed(insitu.op, s) for s in range(25)]
    tracer = Tracer()
    for s in range(5):
        tracer.op_id = s
        with tracer.span("op"):
            exsitu.traced_op(2 * s, tracer)
    unscaled = dict.fromkeys(range(5), 1.0)
    split = {stage: statistics.median(tracer.durations(span, unscaled))
             for stage, span in (("sampling", "device.sample"),
                                 ("forming", "forming.form"),
                                 ("train", "training.train"),
                                 ("import", "tuning.import"))}
    return {
        "criterion 2/3 fixture (50 pipelines)": sum(aware) + sum(oblivious),
        "criterion 9 (25 in-situ runs)": sum(in_situ),
        "one aware pipeline": statistics.median(aware),
        **{f"aware pipeline: {k}": v for k, v in split.items()},
        "in-situ, 400 epochs": statistics.median(in_situ),
    }


def environment() -> dict:
    def git(*args):
        return subprocess.run(["git", *args], capture_output=True, text=True,
                              cwd=run.HERE.parent).stdout.strip()
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), platform.processor())
    with open("/proc/self/status") as fh:
        threads = next(int(line.split()[1]) for line in fh
                       if line.startswith("Threads:"))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git("rev-parse", "HEAD"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas['name']} {blas['version']}",
        # Threads beside the main one once numpy is loaded: the BLAS pool.
        "blas_threads": threads - 1,
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                            if k in os.environ},
    }


def gauge_ms() -> float:
    """Median time of the host-speed gauge right now (run.Gauge)."""
    gauge = run.Gauge()
    for _ in range(50):
        gauge.scale()
    return statistics.median(gauge.samples) * 1e3


def record_environment():
    gauge_before = gauge_ms()
    measured = measure_baseline_rows()
    gauge_after = gauge_ms()
    rows = []
    for name, roadmap in ROADMAP_ROWS.items():
        ratio = measured[name] / roadmap
        rows.append({"row": name, "roadmap_s": roadmap, "measured_s": measured[name],
                     "ratio": ratio,
                     "reproduces": abs(ratio - 1.0) <= REPRODUCE_WITHIN})
    payload = {
        "environment": environment(),
        "baseline": {
            "note": "raw host seconds; ROADMAP rows are single-shot, measured rows "
                    "use the acceptance seeds 0..24 (split: median of seeds 0..4, "
                    "aware)",
            "gauge_ms_before_after": [gauge_before, gauge_after],
            "gauge_nominal_ms": run.Gauge.NOMINAL_S * 1e3,
            "reproduce_within": REPRODUCE_WITHIN,
            "rows": rows,
            "not_reproduced": [r["row"] for r in rows if not r["reproduces"]],
        },
    }
    with open(ENVIRONMENT, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(json.dumps(payload, indent=1))


if __name__ == "__main__":
    commands = {"digests": record_digests, "environment": record_environment}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        sys.exit(f"usage: {sys.argv[0]} {{{'|'.join(commands)}}}")
    commands[sys.argv[1]]()
