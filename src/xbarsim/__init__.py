"""Behavioral simulator for passive memristive crossbar classifiers.

The package models the full experimental pipeline at desk scale: device
forming, write-and-verify conductance tuning, differential-pair multilayer
perceptron inference, ex-situ (hardware-oblivious and hardware-aware) and
in-situ Manhattan-rule training, and crossbar wiring/scaling analysis.
"""

from .device import DeviceVariationSpec, MemristorDevice, sample_device
from .crossbar import (BiasScheme, Crossbar, build_crossbar, export_grid, import_grid,
                       ladder_worst_case_drop, load_state, max_crossbar_dimension,
                       save_state, vmm, vmm_ideal, vmm_wire_resistive, write_drop_budget)
from .forming import FormingSpec, form_all
from .tuning import (TuningSpec, error_histogram, import_conductance_map,
                     import_with_refinement, tuning_error)
from .mlp import (ConductancePairMap, MlpNetwork, NetworkTopology, infer,
                  layer_forward)
from .training import (DefectMap, ManhattanConfig, ManhattanResult,
                       TrainingConfig, TrainingOutcome, forward_batch,
                       train_ex_situ, train_in_situ_manhattan, train_single_layer)
from .benchmark import (Pattern, SweepStats, canonical_training_set, generate_test_set,
                        load_patterns, precision_sweep, save_patterns)
from .pipeline import (INSITU_DEVICE_SPEC, PipelineResult, derive_seed,
                       hardware_fidelity, run_ex_situ_pipeline)
from .errors import ConfigurationError, DivergenceError

__version__ = "0.1.0"
