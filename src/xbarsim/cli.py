"""Experiment runner: every pipeline stage as a subcommand.

    xbarsim form   --config cfg.json --out out/
    xbarsim tune   --config cfg.json --out out/ --targets map.csv
    xbarsim train  --config cfg.json --out out/ --mode ex-situ-aware
    xbarsim infer  --config cfg.json --out out/ --network out/ --patterns p.txt
    xbarsim sweep  --config cfg.json --out out/ --weights out/
    xbarsim scale  --config cfg.json --out out/

Exit codes: 0 success, 2 configuration/input error, 3 divergence or
non-convergence.  Identical config and seed reproduce byte-identical
artifacts.  Each ``cmd_*`` returns (exit code, {file name: (writer, payload)},
summary line); ``main`` writes the artifacts under --out only after the command
returns, so a command that raises writes nothing, while ``tune``'s exit 3, a
result rather than a failure, still writes its error grid, histogram and snapshot.
"""

from __future__ import annotations

import argparse
import os
import sys

from .benchmark import (SweepStats, canonical_training_set, generate_test_set, label_vector,
                        load_patterns, pixel_matrix, precision_sweep, save_patterns)
from .config import ExperimentConfig, load_config, write_default_config
from .crossbar import (BiasScheme, build_crossbar, export_grid, import_grid,
                       ladder_drops, load_state, max_crossbar_dimension,
                       save_state, write_csv, write_drop_budget, write_json)
from .errors import ConfigurationError, DivergenceError
from .forming import form_all
from .mlp import ConductancePairMap, MlpNetwork, fidelity, infer
from .pipeline import (build_network_crossbars, derive_seed, run_ex_situ_pipeline,
                       training_config)
from .training import (forward_batch, save_curve, train_in_situ_manhattan,
                       train_single_layer)
from .tuning import error_histogram, import_conductance_map

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3


def cmd_form(cfg: ExperimentConfig, args):
    xc = cfg.crossbar
    xbar = build_crossbar(xc.rows, xc.cols, cfg.device,
                          R_w=xc.wire_segment_resistance,
                          seed=derive_seed(cfg.seed, "device", "form"),
                          pristine=True, line_model=xc.line_model)
    report = form_all(xbar, cfg.forming)
    return EXIT_OK, {"forming_report.json": (write_json, report),
                     "crossbar_state.json": (save_state, xbar)}, (
        f"formed {xbar.cells.size} cells: {report['defective_count']} defective "
        f"({report['defective_fraction']:.3%})")


def cmd_tune(cfg: ExperimentConfig, args):
    state_path = os.path.join(args.out, "crossbar_state.json")
    if not os.path.exists(state_path):
        raise ConfigurationError(f"no crossbar snapshot at {state_path}; run 'form' first")
    xbar = load_state(state_path)
    targets = import_grid(args.targets)
    errors = import_conductance_map(xbar, targets, cfg.tuning)
    not_stuck = ~xbar.stuck_map()
    failed = int((errors[not_stuck] > cfg.tuning.tolerance + 1e-12).sum())
    return EXIT_NONCONVERGED if failed else EXIT_OK, {
        "error_grid.csv": (export_grid, errors),
        "error_histogram.json": (write_json, error_histogram(errors)),
        "crossbar_state.json": (save_state, xbar)}, (
        f"tuned {int(not_stuck.sum())} cells; max error "
        f"{errors[not_stuck].max(initial=0.0):.4f}; {failed} above tolerance")


def cmd_train(cfg: ExperimentConfig, args):
    mode = args.mode
    if mode in ("ex-situ-oblivious", "ex-situ-aware"):
        result = run_ex_situ_pipeline(cfg.seed, mode == "ex-situ-aware", cfg)
        artifacts = {"training_curve.csv": (save_curve, result.outcome.curve)}
        layers = zip(result.outcome.pair_maps, result.crossbars, result.import_errors,
                     result.forming_reports)
        for k, (pair_map, xbar, errors, report) in enumerate(layers, 1):
            artifacts[f"layer{k}_pairs.csv"] = (export_grid, pair_map.to_grid())
            artifacts[f"crossbar{k}_state.json"] = (save_state, xbar)
            artifacts[f"import_error_layer{k}.csv"] = (export_grid, errors)
            artifacts[f"forming_report_layer{k}.json"] = (write_json, report)
        artifacts["fidelity.json"] = (write_json, {
            "mode": mode,
            "software_train_fidelity": result.software_train_fidelity,
            "software_test_fidelity": result.software_test_fidelity,
            "hardware_train_fidelity": result.hardware_train_fidelity,
            "hardware_test_fidelity": result.hardware_test_fidelity,
            "defective_fraction": result.defective_fraction,
            "import_error_max": result.import_error_max,
        })
        return EXIT_OK, artifacts, (
            f"{mode}: software {result.software_train_fidelity:.3f}/"
            f"{result.software_test_fidelity:.3f}  hardware "
            f"{result.hardware_train_fidelity:.3f}/{result.hardware_test_fidelity:.3f}")

    patterns = [p for p in canonical_training_set()
                if p.label in set(cfg.manhattan.classes)]
    xc = cfg.crossbar
    xb1, xb2 = build_network_crossbars(cfg.seed, cfg.insitu_device, xc.wire_segment_resistance,
                                       pristine=False, line_model=xc.line_model)
    result = train_in_situ_manhattan(xb1, xb2, patterns, cfg.manhattan)
    return EXIT_OK, {
        "insitu_error_curve.csv": (write_csv, [("epoch", "error"),
                                               *enumerate(result.error_curve)]),
        "crossbar1_state.json": (save_state, xb1),
        "crossbar2_state.json": (save_state, xb2),
        "fidelity.json": (write_json, {
            "mode": mode,
            "classes": cfg.manhattan.classes,
            "final_fidelity": result.final_fidelity,
            "last_fidelity": result.last_fidelity,
            "disturb_risk_count": result.disturb_risk_count,
            "pulses_issued": result.pulses_issued,
        })}, (f"in-situ: final fidelity {result.final_fidelity:.3f} "
              f"(last state {result.last_fidelity:.3f})")


def _load_pair_maps(artifact_dir: str) -> MlpNetwork:
    """The network of the pair-map CSVs that 'train' writes to ``artifact_dir``."""
    paths = [os.path.join(artifact_dir, f"layer{k}_pairs.csv") for k in (1, 2)]
    if not all(map(os.path.exists, paths)):
        raise ConfigurationError(f"no pair-map CSVs under {artifact_dir}; run 'train' first")
    return MlpNetwork(*(ConductancePairMap.from_grid(import_grid(p)) for p in paths))


def _load_network(artifact_dir: str) -> MlpNetwork:
    """The crossbar snapshots in ``artifact_dir``, else its pair maps."""
    paths = [os.path.join(artifact_dir, f"crossbar{k}_state.json") for k in (1, 2)]
    if all(map(os.path.exists, paths)):
        return MlpNetwork(*map(load_state, paths))
    return _load_pair_maps(artifact_dir)


def cmd_infer(cfg: ExperimentConfig, args):
    net = _load_network(args.network)
    patterns = load_patterns(args.patterns)
    rows = [("pattern", "v_out_0", "v_out_1", "v_out_2", "v_out_3", "predicted", "label")]
    correct = 0
    for idx, pattern in enumerate(patterns):
        cls, volts = infer(net, pattern.pixels)
        correct += cls == pattern.label_index
        rows.append((idx, *volts, cls, pattern.label_index))
    fidelity = correct / len(patterns)
    summary = {"patterns": len(patterns), "fidelity": fidelity}
    return EXIT_OK, {"outputs.csv": (write_csv, rows),
                     "inference_summary.json": (write_json, summary)}, (
        f"inference: {correct}/{len(patterns)} correct ({fidelity:.3%})")


def cmd_sweep(cfg: ExperimentConfig, args):
    net = _load_pair_maps(args.weights)
    w1, w2 = net.layer1.plus - net.layer1.minus, net.layer2.plus - net.layer2.minus
    sweep = cfg.benchmark
    stats = precision_sweep((w1, w2), sweep.noise_sigmas, runs=sweep.runs,
                            seed=derive_seed(cfg.seed, "noise"),
                            weight_limit=cfg.training.weight_limit)
    patterns = canonical_training_set()
    _, single_best = train_single_layer(patterns, training_config(cfg, cfg.seed))
    mlp_fid = fidelity(forward_batch(w1, w2, pixel_matrix(patterns)), label_vector(patterns))
    return EXIT_OK, {
        "train_sweep.csv": (SweepStats.save_csv, stats["train"]),
        "test_sweep.csv": (SweepStats.save_csv, stats["test"]),
        "model_comparison.csv": (write_csv, [("model", "best_train_fidelity"),
                                             ("single-layer", single_best),
                                             ("mlp-10-hidden", mlp_fid)])}, (
        f"sweep done over {len(sweep.noise_sigmas)} noise levels x {sweep.runs} runs; "
        f"single-layer best {single_best:.3f} vs MLP {mlp_fid:.3f}")


def cmd_scale(cfg: ExperimentConfig, args):
    sc = cfg.scale
    drops = [("preset", "conductance_S", "n", "relative_drop")]
    for name, r_w in sorted(sc.wire_presets.items()):
        for g in sorted({*sc.conductance_v_third.values(), *sc.conductance_v_half.values()}):
            drops += [(name, g, n, drop) for n, drop in
                      zip(sc.ladder_lengths, ladder_drops(sc.ladder_lengths, r_w, g))]

    windows = (("set", (sc.set_threshold_min, sc.set_threshold_max)),
               ("reset", (sc.reset_threshold_min, sc.reset_threshold_max)))
    rows = []
    for name, r_w in sorted(sc.wire_presets.items()):
        for scheme, g_map in (("V_third", sc.conductance_v_third),
                              ("V_half", sc.conductance_v_half)):
            for transition, window in windows:
                v_min, v_max = abs(window[0]), abs(window[1])
                budget = write_drop_budget(v_min, v_max, scheme)
                n_max = max_crossbar_dimension(v_min, v_max, g_map[transition], r_w,
                                               BiasScheme(scheme))
                note = "" if budget > 0 else "no safe write window"
                rows.append((name, scheme, transition, budget, n_max, note))
    return EXIT_OK, {
        "ladder_drops.csv": (write_csv, drops),
        "max_dimensions.csv": (write_csv, [("preset", "scheme", "transition", "drop_budget",
                                            "n_max", "note"), *rows])}, "\n".join(
        f"{name:16s} {scheme:8s} {transition:6s} budget {budget:7.2%}  n_max {n_max}"
        for name, scheme, transition, budget, n_max, _ in rows)


def cmd_export_patterns(cfg: ExperimentConfig, args):
    train = canonical_training_set()
    return EXIT_OK, {"training_patterns.txt": (save_patterns, train),
                     "test_patterns.txt": (save_patterns, generate_test_set(train))}, (
        f"wrote pattern files to {args.out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xbarsim",
        description="Memristive crossbar classifier experiments")
    parser.add_argument("--config", default=None, help="experiment config JSON")
    parser.add_argument("--out", default="out", help="artifact directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("form", help="electroform a pristine crossbar").set_defaults(run=cmd_form)
    tune = sub.add_parser("tune", help="write-and-verify a conductance map")
    tune.add_argument("--targets", required=True, help="target conductance grid CSV")
    tune.set_defaults(run=cmd_tune)
    train = sub.add_parser("train", help="train the classifier")
    train.add_argument("--mode", default="ex-situ-oblivious",
                       choices=["ex-situ-oblivious", "ex-situ-aware", "in-situ"])
    train.set_defaults(run=cmd_train)
    inf = sub.add_parser("infer", help="classify a pattern file")
    inf.add_argument("--network", required=True,
                     help="directory with crossbar snapshots or pair-map CSVs")
    inf.add_argument("--patterns", required=True, help="pattern file")
    inf.set_defaults(run=cmd_infer)
    sweep = sub.add_parser("sweep", help="weight-precision Monte Carlo")
    sweep.add_argument("--weights", required=True, help="directory with trained pair maps")
    sweep.set_defaults(run=cmd_sweep)
    sub.add_parser("scale", help="crossbar scaling analysis").set_defaults(run=cmd_scale)
    init = sub.add_parser(
        "init-config",
        help="write the default config: every key of every section at the "
             "default of its spec dataclass (the dataclasses are the schema)")
    init.add_argument("--path", default="xbarsim.json")
    sub.add_parser("export-patterns", help="write the benchmark pattern files").set_defaults(
        run=cmd_export_patterns)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "init-config":
            write_default_config(args.path)
            print(f"wrote {args.path}")
            return EXIT_OK
        cfg = load_config(args.config, seed_override=args.seed)
        if os.path.lexists(args.out) and not os.path.isdir(args.out):
            raise ConfigurationError(f"--out {args.out} exists and is not a directory")
        code, artifacts, summary = args.run(cfg, args)
        os.makedirs(args.out, exist_ok=True)
        for name, (writer, payload) in artifacts.items():
            writer(payload, os.path.join(args.out, name))
        print(summary)
        return code
    except (ConfigurationError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
