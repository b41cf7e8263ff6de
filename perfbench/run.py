"""Run one xbarsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exsitu --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout: the package is imported from ./src.
One caller on one thread makes one public-API call per op, back to back,
for --seconds (a closed loop).  With --trace 0 the run is untraced and
reports the end-to-end metrics; with --trace 1 every op also runs as its
traced twin, and the run reports the per-layer split, the work counters and
the tracing overhead.

Every time is host time, rescaled to a nominal host speed (see Gauge).  The
model has no simulated clock: its simulated outputs are checked and
digested, never reported as speed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when no op failed
and every gated check passed; 2 means the run could not start.
"""

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}
# Layer spans opened by the traced ops; each reports its self time per op.
SPAN_LAYERS = ("device.sample", "forming.form", "training.train",
               "training.forward", "tuning.import", "pipeline.readout",
               "training.manhattan", "mlp.layer1", "mlp.layer2")
# Per-op values taken from each op's simulated output, averaged over ops.
OP_VALUES = ("forming.sweeps", "forming.defective_cells", "training.epochs",
             "tuning.live_cells", "tuning.cells_over_tol", "tuning.err_max",
             "training.manhattan_epochs", "training.disturb_risk_cells")
COUNTERS = ("device.pulses", "crossbar.readbacks", "crossbar.nodal_solves")
PER_LAYER = {
    "benchmark.letters_ms": "ms",
    **{f"{name}_ms": "ms" for name in SPAN_LAYERS},
    "pipeline.self_ms": "ms",
    **{name: "count" for name in OP_VALUES},
    "tuning.err_max": "1",
    **{name: "count" for name in COUNTERS},
    "training.us_per_epoch": "us",
    "training.manhattan_us_per_epoch": "us",
    "readout.ideal_wire_disagreements": "count",
    "trace.op_ms": "ms",
    "trace.overhead_pct": "%",
}


class Gauge:
    """Host-speed gauge: a fixed pure-Python kernel, timed between ops.

    A shared 2-vCPU Xeon host was measured to change speed by up to 1.75x
    in phases lasting seconds (load from other tenants), which no affordable
    run length averages out.  So each op's host time is multiplied by NOMINAL_S
    over the mean of the gauge times taken just before and just after it:
    times are reported at the host speed at which the gauge takes NOMINAL_S.
    The gauge runs no xbarsim code, so a change to the program cannot move it.
    """

    NOMINAL_S = 0.0004

    def __init__(self):
        self.samples = [self._sample()]

    @staticmethod
    def _sample() -> float:
        t0 = time.perf_counter()
        s, d = 0.0, {}
        for k in range(4000):
            s += (k % 17) * 1.0000001
            d[k & 63] = s
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Nominal-speed factor for the host time since the previous sample."""
        self.samples.append(self._sample())
        return 2.0 * self.NOMINAL_S / (self.samples[-2] + self.samples[-1])


@dataclass
class Timed:
    """One op: nominal-speed wall and CPU seconds, its scale, output, error."""

    wall: float
    cpu: float
    scale: float
    out: object
    error: str | None


def run_op(fn, i, gauge) -> Timed:
    t0, c0 = time.perf_counter(), time.process_time()
    out = error = None
    try:
        out = fn(i)
    except Exception:  # an op that raises is a failed op; the run goes on
        error = traceback.format_exc().strip().splitlines()[-1]
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    scale = gauge.scale()
    return Timed(wall * scale, cpu * scale, scale, out, error)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("exsitu", "insitu", "readout"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=sys.maxsize,
                        help="stop after this many ops (smoke tests)")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0 or args.ops < 1:
        parser.error("--seed must be >= 0, --seconds > 0 and --ops >= 1")
    return args


def tail_percentile(latencies):
    """(percentile, value, ops beyond) for the highest whole percentile, up
    to 99, with at least ten ops beyond it (the median below 20 ops)."""
    n = len(latencies)
    p = max(50, min(99, math.floor(100 * (n - 10) / n)))
    rank = math.ceil(p * n / 100)
    return p, sorted(latencies)[rank - 1], n - rank


def window_digest(workload, records):
    """(ops done, hex digest) of the set-up plus the first digest_window ops;
    the digest is None until all of those ops have succeeded."""
    w = workload.digest_window
    done = 0
    while done < w and done in records:
        done += 1
    if done < w:
        return done, None
    h = hashlib.sha256(workload.setup_digest())
    for i in range(w):
        h.update(records[i].digest)
    return done, h.hexdigest()


def run_digest(workload, records):
    """(status, hex) of the run digest against the stored reference."""
    done, digest = window_digest(workload, records)
    if digest is None:
        return f"window incomplete ({done} of {workload.digest_window} ops)", None
    with open(REFERENCE) as fh:
        expected = json.load(fh).get(workload.name, {}).get(str(workload.seed))
    if expected is None:
        return f"no reference for seed {workload.seed}", digest
    if expected == digest:
        return "identical to reference", digest
    return "CHANGED from reference", digest


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "xbarsim" / "__init__.py").is_file():
        print(f"error: no xbarsim package at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    gauge = Gauge()
    t0 = time.perf_counter()
    from tracing import Tracer
    from workloads import COUNTED, WORKLOADS
    import_s = time.perf_counter() - t0
    import_s *= gauge.scale()

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    weights = {}   # span op id (op or set-up repeat) -> its gauge scale
    repeats = []
    for r in range(SETUP_REPEATS):
        if tracer:
            tracer.op_id = f"setup-{r}"
        t0 = time.perf_counter()
        workload.setup(r, tracer)
        elapsed = time.perf_counter() - t0
        weights[f"setup-{r}"] = gauge.scale()
        repeats.append(elapsed * weights[f"setup-{r}"])
    setup_s = import_s + statistics.median(repeats)

    def traced(i):
        with tracer.span("op"):
            return workload.traced_op(i, tracer)

    records, latencies, errors = {}, [], []
    busy = cpu = plain = twins = 0.0
    mismatched = attempted = 0
    start = time.perf_counter()
    while attempted < args.ops and (
            attempted == 0 or time.perf_counter() - start < args.seconds):
        i = attempted
        attempted += 1
        op = run_op(workload.op, i, gauge)
        busy += op.wall
        cpu += op.cpu
        error = op.error
        record = None if error else workload.summarize(i, op.out)
        if tracer and not error:
            tracer.op_id = i
            with tracer.counting(COUNTED):
                twin = run_op(traced, i, gauge)
            error = twin.error
            if not error:
                weights[i] = twin.scale
                plain += op.wall
                twins += twin.wall
                if workload.summarize(i, twin.out).digest != record.digest:
                    mismatched += 1
                    error = "traced op output differs from the untraced op"
        error = error or record.problem
        if error:
            errors.append(f"op {i}: {error}")
            continue
        records[i] = record
        latencies.append(op.wall)
    elapsed = time.perf_counter() - start
    if not latencies:
        print(f"error: every op failed, first: {errors[0]}", file=sys.stderr)
        return 1

    values = [records[i].values for i in sorted(records)]
    bands = workload.bands(values)
    digest_status, digest = run_digest(workload, records)
    failed = len(errors)
    correct = failed == 0 and all(b.ok for b in bands if b.gated)

    g = sorted(gauge.samples)
    print(f"workload {workload.name}, seed {args.seed} (first op seed "
          f"{workload.base}), trace {args.trace}: {len(latencies)} ops ok of "
          f"{attempted} in {elapsed:.2f} s, failed_frac {failed / attempted:.4g}")
    print(f"  host speed: gauge p10/p50/p90 {g[len(g) // 10] * 1e3:.3f}/"
          f"{g[len(g) // 2] * 1e3:.3f}/{g[9 * len(g) // 10] * 1e3:.3f} ms, "
          f"nominal {Gauge.NOMINAL_S * 1e3:.3f} ms")
    for line in errors[:5]:
        print(f"  failed {line}")
    for b in bands:
        gate = "" if b.gated else " (reported, not gated on held-out seeds)"
        print(f"  band {'PASS' if b.ok else 'MISS'}: {b.name}: {b.detail}{gate}")
    print(f"  simulated-output digest: {digest_status}"
          + (f" ({digest})" if digest else ""))

    if args.trace:
        metrics = layer_metrics(workload, tracer, records, weights, twins / plain)
        out_path = HERE / "out" / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.write(out_path)
        print(f"  traced-run fidelity check: {len(records)} ops, {mismatched} "
              f"mismatched; spans in {out_path.relative_to(HERE.parent)}")
        units = PER_LAYER
    else:
        p, tail, beyond = tail_percentile(latencies)
        print(f"  op_ms_tail is p{p} over {len(latencies)} ops ({beyond} beyond it)")
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(latencies) / busy,
            "op_ms_p50": statistics.median(latencies) * 1e3,
            "op_ms_tail": tail * 1e3,
            "cpu_ms_per_op": cpu / attempted * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


def layer_metrics(workload, tracer, records, weights, overhead):
    """Per-op self time of each layer span, work counters and overhead."""
    ops = {i: weights[i] for i in records}
    n = len(ops)
    ms = {name: tracer.self_seconds(name, ops) * 1e3 / n for name in SPAN_LAYERS}
    metrics = {f"{name}_ms": t for name, t in ms.items()}
    metrics["pipeline.self_ms"] = tracer.self_seconds("op", ops) * 1e3 / n
    metrics["benchmark.letters_ms"] = statistics.median(
        tracer.durations("benchmark.letters", weights)) * 1e3
    for name in OP_VALUES:
        metrics[name] = sum(records[i].values.get(name, 0) for i in ops) / n
    for name in COUNTERS:
        metrics[name] = tracer.counts[name] / n

    def per_epoch(span, epochs):
        return ms[span] * 1e3 / metrics[epochs] if metrics[epochs] else 0.0
    metrics["training.us_per_epoch"] = per_epoch("training.train", "training.epochs")
    metrics["training.manhattan_us_per_epoch"] = per_epoch(
        "training.manhattan", "training.manhattan_epochs")
    # Counted over the first pass of the first chip: one class per test pattern.
    metrics["readout.ideal_wire_disagreements"] = sum(
        records[i].values.get("disagrees", False)
        for i in ops if i < workload.digest_window)
    metrics["trace.op_ms"] = statistics.mean(tracer.durations("op", ops)) * 1e3
    metrics["trace.overhead_pct"] = 100.0 * (overhead - 1.0)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
