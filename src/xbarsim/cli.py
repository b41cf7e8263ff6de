"""Experiment runner: every pipeline stage as a subcommand.

    xbarsim form   --config cfg.json --out out/
    xbarsim tune   --config cfg.json --out out/ --targets map.csv
    xbarsim train  --config cfg.json --out out/ --mode ex-situ-aware
    xbarsim infer  --config cfg.json --out out/ --network out/ --patterns p.txt
    xbarsim sweep  --config cfg.json --out out/ --weights out/
    xbarsim scale  --config cfg.json --out out/

Exit codes: 0 success, 2 configuration/input error, 3 divergence or
non-convergence.  Identical config and seed reproduce byte-identical
artifacts; configuration is validated before anything is written.
"""

from __future__ import annotations

import argparse
import os
import sys

from .benchmark import (canonical_training_set, generate_test_set, label_vector,
                        load_patterns, pixel_matrix, precision_sweep, save_patterns)
from .config import ExperimentConfig, load_config, write_default_config
from .crossbar import (BiasScheme, build_crossbar, export_grid, import_grid,
                       ladder_worst_case_drop, load_state, max_crossbar_dimension,
                       save_state, write_drop_budget, write_json)
from .errors import ConfigurationError, DivergenceError
from .forming import form_all
from .mlp import ConductancePairMap, MlpNetwork, fidelity, infer
from .pipeline import (build_network_crossbars, derive_seed, run_ex_situ_pipeline)
from .training import (pairs_to_weights, save_curve,
                       train_in_situ_manhattan, train_single_layer, forward_batch)
from .tuning import error_histogram, import_conductance_map

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3


def cmd_form(cfg: ExperimentConfig, out: str) -> int:
    xc = cfg.crossbar
    xbar = build_crossbar(xc.rows, xc.cols, cfg.device,
                          R_w=xc.wire_segment_resistance,
                          seed=derive_seed(cfg.seed, "device", "form"),
                          pristine=True, line_model=xc.line_model)
    targets = [(r, c) for r in range(xc.rows) for c in range(xc.cols)]
    report = form_all(xbar, targets, cfg.forming)
    os.makedirs(out, exist_ok=True)
    write_json(report, os.path.join(out, "forming_report.json"))
    save_state(xbar, os.path.join(out, "crossbar_state.json"))
    print(f"formed {len(targets)} cells: {report['defective_count']} defective "
          f"({report['defective_fraction']:.3%})")
    return EXIT_OK


def cmd_tune(cfg: ExperimentConfig, out: str, targets_path: str) -> int:
    state_path = os.path.join(out, "crossbar_state.json")
    if not os.path.exists(state_path):
        raise ConfigurationError(f"no crossbar snapshot at {state_path}; run 'form' first")
    xbar = load_state(state_path)
    targets = import_grid(targets_path)
    errors = import_conductance_map(xbar, targets, cfg.tuning)
    export_grid(errors, os.path.join(out, "error_grid.csv"))
    write_json(error_histogram(errors), os.path.join(out, "error_histogram.json"))
    save_state(xbar, state_path)
    not_stuck = ~xbar.stuck_map()
    failed = int((errors[not_stuck] > cfg.tuning.tolerance + 1e-12).sum())
    print(f"tuned {int(not_stuck.sum())} cells; max error "
          f"{errors[not_stuck].max():.4f}; {failed} above tolerance")
    return EXIT_NONCONVERGED if failed else EXIT_OK


def cmd_train(cfg: ExperimentConfig, out: str, mode: str) -> int:
    lines = cfg.crossbar
    if (mode == "in-situ" and lines.line_model == "wire_resistive"
            and lines.wire_segment_resistance > 0):
        raise ConfigurationError("in-situ training models ideal lines only; set "
                                 "crossbar.line_model to 'ideal' or its resistance to 0")
    os.makedirs(out, exist_ok=True)
    if mode in ("ex-situ-oblivious", "ex-situ-aware"):
        result = run_ex_situ_pipeline(
            cfg.seed, aware=(mode == "ex-situ-aware"),
            device_spec=cfg.device, forming_spec=cfg.forming,
            training_cfg=cfg.training, tuning_spec=cfg.tuning,
            refine_passes=cfg.tuning.refine_passes,
            R_w=cfg.crossbar.wire_segment_resistance, line_model=cfg.crossbar.line_model)
        save_curve(result.outcome.curve, os.path.join(out, "training_curve.csv"))
        layers = zip(result.outcome.pair_maps, result.crossbars, result.import_errors,
                     result.forming_reports)
        for k, (pair_map, xbar, errors, report) in enumerate(layers, 1):
            export_grid(pair_map.to_grid(), os.path.join(out, f"layer{k}_pairs.csv"))
            save_state(xbar, os.path.join(out, f"crossbar{k}_state.json"))
            export_grid(errors, os.path.join(out, f"import_error_layer{k}.csv"))
            write_json(report, os.path.join(out, f"forming_report_layer{k}.json"))
        write_json({
            "mode": mode,
            "software_train_fidelity": result.software_train_fidelity,
            "software_test_fidelity": result.software_test_fidelity,
            "hardware_train_fidelity": result.hardware_train_fidelity,
            "hardware_test_fidelity": result.hardware_test_fidelity,
            "defective_fraction": result.defective_fraction,
            "import_error_max": result.import_error_max,
        }, os.path.join(out, "fidelity.json"))
        print(f"{mode}: software {result.software_train_fidelity:.3f}/"
              f"{result.software_test_fidelity:.3f}  hardware "
              f"{result.hardware_train_fidelity:.3f}/{result.hardware_test_fidelity:.3f}")
        return EXIT_OK

    if mode == "in-situ":
        patterns = [p for p in canonical_training_set()
                    if p.label in set(cfg.manhattan.classes)]
        xb1, xb2 = build_network_crossbars(cfg.seed, cfg.insitu_device, pristine=False)
        result = train_in_situ_manhattan(xb1, xb2, patterns, cfg.manhattan)
        with open(os.path.join(out, "insitu_error_curve.csv"), "w") as fh:
            fh.write("epoch,error\n")
            for epoch, err in enumerate(result.error_curve):
                fh.write(f"{epoch},{err:.9g}\n")
        save_state(xb1, os.path.join(out, "crossbar1_state.json"))
        save_state(xb2, os.path.join(out, "crossbar2_state.json"))
        write_json({
            "mode": mode,
            "classes": cfg.manhattan.classes,
            "final_fidelity": result.final_fidelity,
            "last_fidelity": result.last_fidelity,
            "disturb_risk_count": result.disturb_risk_count,
            "pulses_issued": result.pulses_issued,
        }, os.path.join(out, "fidelity.json"))
        print(f"in-situ: final fidelity {result.final_fidelity:.3f} "
              f"(last state {result.last_fidelity:.3f})")
        return EXIT_OK

    raise ConfigurationError(f"unknown training mode {mode!r}")


def _load_pair_maps(artifact_dir: str) -> MlpNetwork:
    """The network of the pair-map CSVs that 'train' writes to ``artifact_dir``."""
    paths = [os.path.join(artifact_dir, f"layer{k}_pairs.csv") for k in (1, 2)]
    if not all(map(os.path.exists, paths)):
        raise ConfigurationError(f"no pair-map CSVs under {artifact_dir}; run 'train' first")
    grids = [import_grid(p) for p in paths]
    if not all((grid > 0).all() for grid in grids):
        raise ConfigurationError(f"pair maps under {artifact_dir} hold conductances <= 0 S")
    return MlpNetwork(*map(ConductancePairMap.from_grid, grids))


def _load_network(artifact_dir: str) -> MlpNetwork:
    """The crossbar snapshots in ``artifact_dir``, else its pair maps."""
    paths = [os.path.join(artifact_dir, f"crossbar{k}_state.json") for k in (1, 2)]
    if all(map(os.path.exists, paths)):
        return MlpNetwork(*map(load_state, paths))
    return _load_pair_maps(artifact_dir)


def cmd_infer(cfg: ExperimentConfig, out: str, network_dir: str,
              patterns_path: str) -> int:
    net = _load_network(network_dir)
    patterns = load_patterns(patterns_path)
    os.makedirs(out, exist_ok=True)
    correct = 0
    with open(os.path.join(out, "outputs.csv"), "w") as fh:
        fh.write("pattern,v_out_0,v_out_1,v_out_2,v_out_3,predicted,label\n")
        for idx, pattern in enumerate(patterns):
            cls, volts = infer(net, pattern.pixels)
            correct += cls == pattern.label_index
            volts_txt = ",".join(f"{v:.9g}" for v in volts)
            fh.write(f"{idx},{volts_txt},{cls},{pattern.label_index}\n")
    fidelity = correct / len(patterns)
    write_json({"patterns": len(patterns), "fidelity": fidelity},
               os.path.join(out, "inference_summary.json"))
    print(f"inference: {correct}/{len(patterns)} correct ({fidelity:.3%})")
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig, out: str, weights_dir: str) -> int:
    net = _load_pair_maps(weights_dir)
    w1, w2 = pairs_to_weights(net.layer1), pairs_to_weights(net.layer2)
    sweep = cfg.benchmark
    stats = precision_sweep((w1, w2), sweep.noise_sigmas, runs=sweep.runs,
                            seed=derive_seed(cfg.seed, "noise"),
                            weight_limit=cfg.training.weight_limit)
    os.makedirs(out, exist_ok=True)
    stats["train"].save_csv(os.path.join(out, "train_sweep.csv"))
    stats["test"].save_csv(os.path.join(out, "test_sweep.csv"))

    patterns = canonical_training_set()
    _, single_best = train_single_layer(patterns, cfg.training)
    mlp_fid = fidelity(forward_batch(w1, w2, pixel_matrix(patterns)), label_vector(patterns))
    with open(os.path.join(out, "model_comparison.csv"), "w") as fh:
        fh.write("model,best_train_fidelity\n")
        fh.write(f"single-layer,{single_best:.9g}\n")
        fh.write(f"mlp-10-hidden,{mlp_fid:.9g}\n")
    print(f"sweep done over {len(sweep.noise_sigmas)} noise levels x {sweep.runs} runs; "
          f"single-layer best {single_best:.3f} vs MLP {mlp_fid:.3f}")
    return EXIT_OK


def cmd_scale(cfg: ExperimentConfig, out: str) -> int:
    sc = cfg.scale
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "ladder_drops.csv"), "w") as fh:
        fh.write("preset,conductance_S,n,relative_drop\n")
        for name, r_w in sorted(sc.wire_presets.items()):
            for g in sorted({*sc.conductance_v_third.values(),
                             *sc.conductance_v_half.values()}):
                for n in sc.ladder_lengths:
                    drop = ladder_worst_case_drop(n, r_w, g)
                    fh.write(f"{name},{g:.9g},{n},{drop:.9g}\n")

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
    with open(os.path.join(out, "max_dimensions.csv"), "w") as fh:
        fh.write("preset,scheme,transition,drop_budget,n_max,note\n")
        for name, scheme, transition, budget, n_max, note in rows:
            fh.write(f"{name},{scheme},{transition},{budget:.9g},{n_max},{note}\n")
    for name, scheme, transition, budget, n_max, note in rows:
        print(f"{name:16s} {scheme:8s} {transition:6s} budget {budget:7.2%}  n_max {n_max}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xbarsim",
        description="Memristive crossbar classifier experiments")
    parser.add_argument("--config", default=None, help="experiment config JSON")
    parser.add_argument("--out", default="out", help="artifact directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("form", help="electroform a pristine crossbar")
    tune = sub.add_parser("tune", help="write-and-verify a conductance map")
    tune.add_argument("--targets", required=True, help="target conductance grid CSV")
    train = sub.add_parser("train", help="train the classifier")
    train.add_argument("--mode", default="ex-situ-oblivious",
                       choices=["ex-situ-oblivious", "ex-situ-aware", "in-situ"])
    inf = sub.add_parser("infer", help="classify a pattern file")
    inf.add_argument("--network", required=True,
                     help="directory with crossbar snapshots or pair-map CSVs")
    inf.add_argument("--patterns", required=True, help="pattern file")
    sweep = sub.add_parser("sweep", help="weight-precision Monte Carlo")
    sweep.add_argument("--weights", required=True, help="directory with trained pair maps")
    sub.add_parser("scale", help="crossbar scaling analysis")
    init = sub.add_parser(
        "init-config",
        help="write the default config: every key of every section at the "
             "default of its spec dataclass (the dataclasses are the schema)")
    init.add_argument("--path", default="xbarsim.json")
    export = sub.add_parser("export-patterns", help="write the benchmark pattern files")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "init-config":
            write_default_config(args.path)
            print(f"wrote {args.path}")
            return EXIT_OK
        cfg = load_config(args.config, seed_override=args.seed)
        if args.command == "form":
            return cmd_form(cfg, args.out)
        if args.command == "tune":
            return cmd_tune(cfg, args.out, args.targets)
        if args.command == "train":
            return cmd_train(cfg, args.out, args.mode)
        if args.command == "infer":
            return cmd_infer(cfg, args.out, args.network, args.patterns)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out, args.weights)
        if args.command == "scale":
            return cmd_scale(cfg, args.out)
        if args.command == "export-patterns":
            train_set = canonical_training_set()
            os.makedirs(args.out, exist_ok=True)
            save_patterns(train_set, os.path.join(args.out, "training_patterns.txt"))
            save_patterns(generate_test_set(train_set),
                          os.path.join(args.out, "test_patterns.txt"))
            print(f"wrote pattern files to {args.out}")
            return EXIT_OK
        raise ConfigurationError(f"unknown command {args.command!r}")
    except (ConfigurationError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
