"""End-to-end experiment composition: form -> train -> import -> infer.

These helpers wire the per-module operations into the two ex-situ flows
(hardware-oblivious and hardware-aware) and collect the artifacts the
experiment runner writes out.  ``run_ex_situ_pipeline(seed, aware, cfg)`` is
one run: ``cfg`` (an ``ExperimentConfig``, its defaults when omitted) sets
every stage's spec, and ``seed`` alone sets the randomness, through named
sub-streams, so (config, seed) fully determines every output.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .benchmark import (canonical_training_set, generate_test_set,
                        label_vector, pixel_matrix)
from .config import INSITU_DEVICE_SPEC, ExperimentConfig  # noqa: F401 (re-exported)
from .crossbar import Crossbar, build_crossbar
from .device import DeviceVariationSpec
from .forming import FormingSpec, form_all
from .mlp import (DEFAULT_TOPOLOGY, ConductancePairMap, MlpNetwork, encode_batch,
                  fidelity, forward)
from .rng import seed_sequence
from .training import (DefectMap, TrainingConfig, TrainingOutcome,
                       forward_batch, train_ex_situ)
from .tuning import TuningSpec, import_with_refinement


def derive_seed(root_seed: int, *labels) -> int:
    """A 32-bit child seed for the addressed sub-stream."""
    return int(seed_sequence(root_seed, *labels).generate_state(1)[0])


def training_config(cfg: ExperimentConfig, seed: int) -> TrainingConfig:
    """``cfg.training`` drawing its initial weights from the run ``seed``."""
    return replace(cfg.training, seed=derive_seed(seed, "training-init"))


def build_network_crossbars(seed: int, device_spec: DeviceVariationSpec,
                            R_w: float = 0.0, pristine: bool = True,
                            line_model: str = "ideal"):
    """The two arrays backing the 16-10-4 network: 20x17 and 8x11 grids."""
    topo = DEFAULT_TOPOLOGY
    xb1 = build_crossbar(*topo.layer1_shape, device_spec, R_w=R_w,
                         seed=derive_seed(seed, "device", 1),
                         pristine=pristine, line_model=line_model)
    xb2 = build_crossbar(*topo.layer2_shape, device_spec, R_w=R_w,
                         seed=derive_seed(seed, "device", 2),
                         pristine=pristine, line_model=line_model)
    return xb1, xb2


def form_network(xb1: Crossbar, xb2: Crossbar, forming_spec: FormingSpec):
    """Form every cell of both arrays; returns the two forming reports."""
    return tuple(form_all(xb, forming_spec) for xb in (xb1, xb2))


def import_network(xb1: Crossbar, xb2: Crossbar, outcome: TrainingOutcome,
                   tuning_spec: TuningSpec, refine_passes: int = 2):
    """Tune both arrays to the trained pair maps in one write-and-verify
    lockstep over the network's cell vector (``MlpNetwork.cells``), stored
    back once it ends; returns the two arrays' error grids."""
    MlpNetwork(*outcome.pair_maps)              # raises unless it fits the topology
    net = MlpNetwork(xb1, xb2)
    cells = net.cells()
    targets = np.concatenate([m.to_grid() for m in outcome.pair_maps], axis=None)
    errors = import_with_refinement(Crossbar(cells[None]), targets[None],
                                    tuning_spec, refine_passes)
    net.store(cells)
    return net.grids(errors[0])


def read_back_network(xb1: Crossbar, xb2: Crossbar) -> MlpNetwork:
    """Snapshot the crossbars into pair maps (the software view of the chip)."""
    return MlpNetwork(ConductancePairMap.from_grid(xb1.conductances()),
                      ConductancePairMap.from_grid(xb2.conductances()))


def hardware_fidelity(xb1: Crossbar, xb2: Crossbar, patterns) -> float:
    """Classification fidelity of the crossbar state, read through each
    array's line model."""
    _, _, Y = forward(xb1, xb2, encode_batch(pixel_matrix(patterns)))
    return fidelity(Y, label_vector(patterns))


@dataclass
class PipelineResult:
    aware: bool
    software_train_fidelity: float
    software_test_fidelity: float
    hardware_train_fidelity: float
    hardware_test_fidelity: float
    defective_fraction: float
    import_error_max: float
    outcome: TrainingOutcome = field(repr=False, default=None)
    crossbars: tuple = field(repr=False, default=None)
    import_errors: tuple = field(repr=False, default=None)
    forming_reports: tuple = field(repr=False, default=None)


def run_ex_situ_pipeline(seed: int, aware: bool, cfg: ExperimentConfig | None = None,
                         patterns=None, test_patterns=None) -> PipelineResult:
    """The full ex-situ experiment for one seed under ``cfg``, by default
    ``ExperimentConfig()``.

    Forms two pristine arrays of ``cfg.device`` under ``cfg.forming``, trains
    the software network under ``cfg.training`` (with the defect map when
    ``aware``), imports the weights under ``cfg.tuning`` in its
    ``refine_passes`` passes and evaluates train/test fidelity on the
    resulting hardware state, read through the line model and wire
    resistance of ``cfg.crossbar``.  ``seed`` alone names the run: the arrays
    and the initial weights (``training_config``) derive from it, and neither
    ``cfg.seed`` nor ``cfg.training.seed`` is read, so a study passes one
    config and many seeds.
    """
    cfg = cfg or ExperimentConfig()
    patterns = canonical_training_set() if patterns is None else patterns
    test_patterns = generate_test_set(patterns) if test_patterns is None else test_patterns

    xb1, xb2 = build_network_crossbars(seed, cfg.device, cfg.crossbar.wire_segment_resistance,
                                       pristine=True, line_model=cfg.crossbar.line_model)
    rep1, rep2 = form_network(xb1, xb2, cfg.forming)
    n_cells = xb1.rows * xb1.cols + xb2.rows * xb2.cols
    defective = (rep1["defective_count"] + rep2["defective_count"]) / n_cells

    defects = DefectMap.from_crossbars(xb1, xb2) if aware else None
    outcome = train_ex_situ(patterns, training_config(cfg, seed), defects=defects)
    Y = forward_batch(*outcome.weights, pixel_matrix(test_patterns))
    sw_test = fidelity(Y, label_vector(test_patterns))

    e1, e2 = import_network(xb1, xb2, outcome, cfg.tuning, cfg.tuning.refine_passes)
    err_max = max(e[~xb.stuck_map()].max(initial=0.0) for e, xb in ((e1, xb1), (e2, xb2)))

    return PipelineResult(
        aware=aware,
        software_train_fidelity=outcome.train_fidelity,
        software_test_fidelity=sw_test,
        hardware_train_fidelity=hardware_fidelity(xb1, xb2, patterns),
        hardware_test_fidelity=hardware_fidelity(xb1, xb2, test_patterns),
        defective_fraction=defective,
        import_error_max=float(err_max),
        outcome=outcome,
        crossbars=(xb1, xb2),
        import_errors=(e1, e2),
        forming_reports=(rep1, rep2),
    )
