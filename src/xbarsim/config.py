"""Experiment configuration: strict JSON with explicit unit suffixes.

The schema is the spec dataclasses.  Each JSON section is one dataclass
(``device`` a DeviceVariationSpec, ``forming`` a FormingSpec, ``training`` a
TrainingConfig, ...) and its keys are that dataclass's field names; an
omitted key keeps the dataclass default.  A field declared with
``units.quantity`` is a string with a unit suffix ("1.3V", "50uS", "500us",
"5.6ohm"), and bare numbers are rejected there.  ``units.convert`` reads
every value: booleans must be JSON booleans, integers JSON integers and
numbers finite.  A config plus the code version uniquely determines every
artifact.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .benchmark import CLASS_NAMES
from .crossbar import MAX_SEARCH_DIM, check_geometry
from .device import DeviceVariationSpec
from .errors import ConfigurationError
from .forming import FormingSpec
from .training import ManhattanConfig, TrainingConfig
from .tuning import TuningSpec
from .units import convert, format_quantity, quantity

# The in-situ experiment runs on freshly formed (low-conductance) arrays in
# the coarse-update regime: fixed-amplitude pulses move a device by a large,
# device-dependent step, which is what limits the achievable fidelity.
INSITU_DEVICE_SPEC = DeviceVariationSpec(
    g_init_range=(2e-6, 3.5e-6),
    kinetics_rate_range=(0.04e-6, 0.28e-6),
)

# Write-and-verify tolerance of the ex-situ weight import.
IMPORT_TOLERANCE = 0.30

# Fields that are not keys: training draws its initial weights from a
# sub-stream of the run's seed.
_NOT_KEYS = ("training.seed",)


@dataclass
class CrossbarSection:
    """The single array that ``form`` and ``tune`` work on.  Its line model
    and wire resistance also apply to the two arrays of every ``train`` mode."""

    rows: int = 20
    cols: int = 20
    wire_segment_resistance: float = quantity(0.0, "ohm")
    line_model: str = "ideal"

    def validate(self):
        check_geometry(self.rows, self.cols, self.wire_segment_resistance, self.line_model)
        return self


@dataclass
class TuningSection(TuningSpec):
    """Write-and-verify of the ex-situ weight import, in ``refine_passes`` passes."""

    tolerance: float = IMPORT_TOLERANCE
    refine_passes: int = 2

    def validate(self):
        if self.refine_passes < 1:
            raise ConfigurationError("refine_passes must be >= 1")
        return super().validate()


@dataclass
class ManhattanSection(ManhattanConfig):
    """In-situ training on the training patterns of the letters in ``classes``."""

    classes: str = "ATV"

    def validate(self):
        if not self.classes or not set(self.classes) <= set(CLASS_NAMES):
            raise ConfigurationError(f"classes must be letters of "
                                     f"{''.join(CLASS_NAMES)}, got {self.classes!r}")
        return super().validate()


@dataclass
class BenchmarkSection:
    """The weight-precision Monte Carlo of ``sweep``."""

    noise_sigmas: list[float] = field(
        default_factory=lambda: [0.0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5])
    runs: int = 100

    def validate(self):
        if self.runs < 1:
            raise ConfigurationError("need at least one run")
        if any(sigma < 0 for sigma in self.noise_sigmas):
            raise ConfigurationError("benchmark.noise_sigmas must be >= 0")
        return self


@dataclass
class ScaleSection:
    """Inputs of the line-resistance scaling analysis of ``scale``."""

    wire_presets: dict[str, float] = quantity(
        {"experiment-like": 5.6, "copper": 0.185}, "ohm")
    set_threshold_min: float = quantity(0.7, "V")
    set_threshold_max: float = quantity(1.3, "V")
    reset_threshold_min: float = quantity(-1.0, "V")
    reset_threshold_max: float = quantity(-1.9, "V")
    # Device conductance at the V/3 and V/2 half-select bias, per transition.
    conductance_v_third: dict[str, float] = quantity({"set": 30e-6, "reset": 50e-6}, "S")
    conductance_v_half: dict[str, float] = quantity({"set": 20e-6, "reset": 33e-6}, "S")
    ladder_lengths: list[int] = field(
        default_factory=lambda: [1, 2, 4, 8, 16, 32, 64, 128, 256, 512])

    def validate(self):
        for name in ("conductance_v_third", "conductance_v_half"):
            if not {"set", "reset"} <= set(getattr(self, name)):
                raise ConfigurationError(f"scale.{name} needs 'set' and 'reset'")
        for name in ("wire_presets", "conductance_v_third", "conductance_v_half"):
            if not all(0 <= v < math.inf for v in getattr(self, name).values()):
                raise ConfigurationError(f"scale.{name} must be finite and non-negative")
        if not all(1 <= n <= MAX_SEARCH_DIM for n in self.ladder_lengths):
            raise ConfigurationError(f"scale.ladder_lengths must lie in [1, {MAX_SEARCH_DIM}]")
        # The write budget divides by |max|; only magnitudes are used.
        for name, lo, hi in (("set", self.set_threshold_min, self.set_threshold_max),
                             ("reset", self.reset_threshold_min, self.reset_threshold_max)):
            if not 0 < abs(lo) <= abs(hi):
                raise ConfigurationError(f"scale.{name}_threshold_min and _max need "
                                         f"0 < |min| <= |max|, got {lo:g} V and {hi:g} V")
        return self


@dataclass
class ExperimentConfig:
    """A whole config file: the root seed and one dataclass per section."""

    seed: int = 42
    device: DeviceVariationSpec = field(default_factory=DeviceVariationSpec)
    insitu_device: DeviceVariationSpec = field(
        default_factory=lambda: replace(INSITU_DEVICE_SPEC))
    crossbar: CrossbarSection = field(default_factory=CrossbarSection)
    forming: FormingSpec = field(default_factory=FormingSpec)
    tuning: TuningSection = field(default_factory=TuningSection)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    manhattan: ManhattanSection = field(default_factory=ManhattanSection)
    benchmark: BenchmarkSection = field(default_factory=BenchmarkSection)
    scale: ScaleSection = field(default_factory=ScaleSection)

    def validate(self):
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        return self


def _join(where: str, name: str) -> str:
    return f"{where}.{name}" if where else name


def _keys(cls, where: str) -> dict:
    """{key: (type, unit or None)} of section dataclass ``cls`` found at ``where``."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.metadata.get("unit")) for f in fields(cls)
            if _join(where, f.name) not in _NOT_KEYS}


def _section(default, raw, where: str = ""):
    """``default`` with the keys of the JSON object ``raw`` applied, validated."""
    keys = _keys(type(default), where)
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{where or 'config'} must be a JSON object, got {raw!r}")
    unknown = set(raw) - set(keys)
    if unknown:
        raise ConfigurationError(f"unknown keys {sorted(unknown)} in {where or 'config'}")
    changes = {}
    for name, value in raw.items():
        hint, unit = keys[name]
        path = _join(where, name)
        if is_dataclass(hint):
            changes[name] = _section(getattr(default, name), value, path)
        else:
            changes[name] = convert(value, hint, unit, path)
    return replace(default, **changes).validate()


def _encode(value, unit=None, where: str = ""):
    """The JSON form of a section dataclass or field: the inverse of ``_section``."""
    if is_dataclass(value):
        return {name: _encode(getattr(value, name), field_unit, _join(where, name))
                for name, (_, field_unit) in _keys(type(value), where).items()}
    if isinstance(value, dict):
        return {k: _encode(v, unit) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_encode(v, unit) for v in value]
    return value if unit is None else format_quantity(value, unit)


def load_config(path=None, seed_override=None) -> ExperimentConfig:
    """Parse and fully validate a config file (defaults when path is None)."""
    raw = {}
    if path is not None:
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:
                raise ConfigurationError(f"malformed config {path}: {exc}") from exc
    cfg = _section(ExperimentConfig(), raw)
    if seed_override is not None:
        seed = convert(seed_override, int, None, "seed override")
        cfg = replace(cfg, seed=seed).validate()
    return cfg


def write_default_config(path):
    """Write every key at its default, taken from the section dataclasses."""
    with open(path, "w") as fh:
        json.dump(_encode(ExperimentConfig()), fh, indent=2, sort_keys=True)
        fh.write("\n")
