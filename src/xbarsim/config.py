"""Experiment configuration: strict JSON with explicit unit suffixes.

Every dimensioned value is a string with a unit suffix ("1.3V", "50uS",
"500us", "5.6ohm"); bare numbers are rejected for those fields.  A config
plus the code version uniquely determines every artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .device import DeviceVariationSpec
from .errors import ConfigurationError
from .forming import FormingSpec
from .training import ManhattanConfig, TrainingConfig
from .tuning import TuningSpec
from .units import parse_quantity

DEFAULT_CONFIG = {
    "seed": 42,
    "device": {
        "set_mu": "1.0V",
        "set_sigma": "0.13V",
        "reset_mu": "-1.2V",
        "reset_sigma": "0.15V",
        "stuck_probability": 0.02,
        "stuck_conductance_range": ["10uS", "100uS"],
        "g_init_range": ["10uS", "100uS"],
        "g_min": "2uS",
        "g_max": "150uS",
        "nonlinearity_alpha": 0.0,
        "kinetics_rate_range": ["0.02uS", "0.06uS"],
        "kinetics_voltage_scale": "0.3V",
    },
    "insitu_device": {
        "set_mu": "1.0V",
        "set_sigma": "0.13V",
        "reset_mu": "-1.2V",
        "reset_sigma": "0.15V",
        "stuck_probability": 0.02,
        "stuck_conductance_range": ["10uS", "100uS"],
        "g_init_range": ["2uS", "3.5uS"],
        "g_min": "2uS",
        "g_max": "150uS",
        "nonlinearity_alpha": 0.0,
        "kinetics_rate_range": ["0.04uS", "0.28uS"],
        "kinetics_voltage_scale": "0.3V",
    },
    "crossbar": {
        "rows": 20,
        "cols": 20,
        "wire_segment_resistance": "0ohm",
        "line_model": "ideal",
    },
    "forming": {
        "I_start": "180uA",
        "I_stop": "540uA",
        "I_step": "20uA",
        "R_min_ratio": 5.0,
        "V_reset": "-1.3V",
        "R_TH": "600kohm",
        "max_attempts": 19,
        "max_rounds": 2,
    },
    "tuning": {
        "tolerance": 0.30,
        "v_read": "0.2V",
        "set_amplitude_range": ["0.8V", "1.5V"],
        "reset_amplitude_range": ["-1.8V", "-0.8V"],
        "pulse_width": "500us",
        "max_pulses": 10000,
        "amplitude_step": "0.02V",
        "refine_passes": 2,
    },
    "training": {
        "learning_rate": 1.0,
        "epochs": 6000,
        "init_scale": "4uS",
        "target_level": "1V",
        "clip_interval": ["10uS", "100uS"],
        "g_bias": "55uS",
        "fill_range": True,
        "fill_fraction": 0.6666666666666666,
        "finetune_epochs": 2000,
    },
    "manhattan": {
        "amplitude": "1.3V",
        "pulse_width": "500us",
        "bias_scheme": "V_half",
        "epochs": 400,
        "classes": "ATV",
    },
    "benchmark": {
        "noise_sigmas": [0.0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5],
        "runs": 100,
    },
    "scale": {
        "wire_presets": {"experiment-like": "5.6ohm", "copper": "0.185ohm"},
        "set_threshold_min": "0.7V",
        "set_threshold_max": "1.3V",
        "reset_threshold_min": "-1.0V",
        "reset_threshold_max": "-1.9V",
        "conductance_v_third": {"set": "30uS", "reset": "50uS"},
        "conductance_v_half": {"set": "20uS", "reset": "33uS"},
        "ladder_lengths": [1, 2, 4, 8, 16, 32, 64, 128, 256, 512],
    },
}


def _expect_keys(section: dict, known, where: str):
    unknown = set(section) - set(known)
    if unknown:
        raise ConfigurationError(f"unknown keys {sorted(unknown)} in {where}")


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{where} must be a plain number, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{where} must be an integer, got {value!r}")
    return value


def _pair(value, unit, where: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigurationError(f"{where} must be a two-element list")
    return (parse_quantity(value[0], unit), parse_quantity(value[1], unit))


def parse_device(section: dict) -> DeviceVariationSpec:
    base = dict(DEFAULT_CONFIG["device"])
    base.update(section)
    _expect_keys(base, DEFAULT_CONFIG["device"], "device")
    return DeviceVariationSpec(
        set_mu=parse_quantity(base["set_mu"], "V"),
        set_sigma=parse_quantity(base["set_sigma"], "V"),
        reset_mu=parse_quantity(base["reset_mu"], "V"),
        reset_sigma=parse_quantity(base["reset_sigma"], "V"),
        stuck_probability=_number(base["stuck_probability"], "device.stuck_probability"),
        stuck_conductance_range=_pair(base["stuck_conductance_range"], "S",
                                      "device.stuck_conductance_range"),
        g_init_range=_pair(base["g_init_range"], "S", "device.g_init_range"),
        g_min=parse_quantity(base["g_min"], "S"),
        g_max=parse_quantity(base["g_max"], "S"),
        nonlinearity_alpha=_number(base["nonlinearity_alpha"], "device.nonlinearity_alpha"),
        kinetics_rate_range=_pair(base["kinetics_rate_range"], "S",
                                  "device.kinetics_rate_range"),
        kinetics_voltage_scale=parse_quantity(base["kinetics_voltage_scale"], "V"),
    ).validate()


def parse_forming(section: dict) -> FormingSpec:
    base = dict(DEFAULT_CONFIG["forming"])
    base.update(section)
    _expect_keys(base, DEFAULT_CONFIG["forming"], "forming")
    return FormingSpec(
        I_start=parse_quantity(base["I_start"], "A"),
        I_stop=parse_quantity(base["I_stop"], "A"),
        I_step=parse_quantity(base["I_step"], "A"),
        R_min_ratio=_number(base["R_min_ratio"], "forming.R_min_ratio"),
        V_reset=parse_quantity(base["V_reset"], "V"),
        R_TH=parse_quantity(base["R_TH"], "ohm"),
        max_attempts=_integer(base["max_attempts"], "forming.max_attempts"),
        max_rounds=_integer(base["max_rounds"], "forming.max_rounds"),
    ).validate()


def parse_tuning(section: dict) -> tuple:
    """Returns (TuningSpec, refine_passes)."""
    base = dict(DEFAULT_CONFIG["tuning"])
    base.update(section)
    _expect_keys(base, DEFAULT_CONFIG["tuning"], "tuning")
    spec = TuningSpec(
        tolerance=_number(base["tolerance"], "tuning.tolerance"),
        v_read=parse_quantity(base["v_read"], "V"),
        set_amplitude_range=_pair(base["set_amplitude_range"], "V",
                                  "tuning.set_amplitude_range"),
        reset_amplitude_range=_pair(base["reset_amplitude_range"], "V",
                                    "tuning.reset_amplitude_range"),
        pulse_width=parse_quantity(base["pulse_width"], "s"),
        max_pulses=_integer(base["max_pulses"], "tuning.max_pulses"),
        amplitude_step=parse_quantity(base["amplitude_step"], "V"),
    ).validate()
    return spec, _integer(base["refine_passes"], "tuning.refine_passes")


def parse_training(section: dict, seed: int) -> TrainingConfig:
    base = dict(DEFAULT_CONFIG["training"])
    base.update(section)
    _expect_keys(base, DEFAULT_CONFIG["training"], "training")
    return TrainingConfig(
        learning_rate=_number(base["learning_rate"], "training.learning_rate"),
        epochs=_integer(base["epochs"], "training.epochs"),
        seed=seed,
        init_scale=parse_quantity(base["init_scale"], "S"),
        target_level=parse_quantity(base["target_level"], "V"),
        clip_interval=_pair(base["clip_interval"], "S", "training.clip_interval"),
        g_bias=parse_quantity(base["g_bias"], "S"),
        fill_range=bool(base["fill_range"]),
        fill_fraction=_number(base["fill_fraction"], "training.fill_fraction"),
        finetune_epochs=_integer(base["finetune_epochs"], "training.finetune_epochs"),
    ).validate()


def parse_manhattan(section: dict) -> tuple:
    """Returns (ManhattanConfig, class letters)."""
    base = dict(DEFAULT_CONFIG["manhattan"])
    base.update(section)
    _expect_keys(base, DEFAULT_CONFIG["manhattan"], "manhattan")
    cfg = ManhattanConfig(
        amplitude=parse_quantity(base["amplitude"], "V"),
        pulse_width=parse_quantity(base["pulse_width"], "s"),
        bias_scheme=str(base["bias_scheme"]),
        epochs=_integer(base["epochs"], "manhattan.epochs"),
    ).validate()
    return cfg, str(base["classes"])


@dataclass
class ScaleConfig:
    wire_presets: dict
    set_window: tuple             # (v_th_min, v_th_max), volts
    reset_window: tuple
    g_v_third: dict               # {"set": S, "reset": S}
    g_v_half: dict
    ladder_lengths: list


def parse_scale(section: dict) -> ScaleConfig:
    base = dict(DEFAULT_CONFIG["scale"])
    base.update(section)
    _expect_keys(base, DEFAULT_CONFIG["scale"], "scale")
    presets = {name: parse_quantity(v, "ohm")
               for name, v in base["wire_presets"].items()}
    return ScaleConfig(
        wire_presets=presets,
        set_window=(parse_quantity(base["set_threshold_min"], "V"),
                    parse_quantity(base["set_threshold_max"], "V")),
        reset_window=(parse_quantity(base["reset_threshold_min"], "V"),
                      parse_quantity(base["reset_threshold_max"], "V")),
        g_v_third={k: parse_quantity(v, "S") for k, v in base["conductance_v_third"].items()},
        g_v_half={k: parse_quantity(v, "S") for k, v in base["conductance_v_half"].items()},
        ladder_lengths=[_integer(n, "scale.ladder_lengths") for n in base["ladder_lengths"]],
    )


@dataclass
class ExperimentConfig:
    seed: int
    device: DeviceVariationSpec
    insitu_device: DeviceVariationSpec
    rows: int
    cols: int
    wire_segment_resistance: float
    line_model: str
    forming: FormingSpec
    tuning: TuningSpec
    refine_passes: int
    training: TrainingConfig
    manhattan: ManhattanConfig
    manhattan_classes: str
    noise_sigmas: list
    sweep_runs: int
    scale: ScaleConfig
    raw: dict = field(repr=False, default_factory=dict)


def load_config(path=None, seed_override=None) -> ExperimentConfig:
    """Parse and fully validate a config file (defaults when path is None)."""
    if path is None:
        raw = json.loads(json.dumps(DEFAULT_CONFIG))
    else:
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"malformed config {path}: {exc}") from exc
    _expect_keys(raw, DEFAULT_CONFIG, "config")
    merged = {k: raw.get(k, DEFAULT_CONFIG[k]) for k in DEFAULT_CONFIG}
    seed = _integer(merged["seed"], "seed") if seed_override is None else int(seed_override)

    xb = dict(DEFAULT_CONFIG["crossbar"])
    xb.update(merged["crossbar"])
    _expect_keys(xb, DEFAULT_CONFIG["crossbar"], "crossbar")

    bench = dict(DEFAULT_CONFIG["benchmark"])
    bench.update(merged["benchmark"])
    _expect_keys(bench, DEFAULT_CONFIG["benchmark"], "benchmark")
    sigmas = [_number(s, "benchmark.noise_sigmas") for s in bench["noise_sigmas"]]

    tuning_spec, refine = parse_tuning(merged["tuning"])
    manhattan_cfg, classes = parse_manhattan(merged["manhattan"])
    return ExperimentConfig(
        seed=seed,
        device=parse_device(merged["device"]),
        insitu_device=parse_device(merged["insitu_device"]),
        rows=_integer(xb["rows"], "crossbar.rows"),
        cols=_integer(xb["cols"], "crossbar.cols"),
        wire_segment_resistance=parse_quantity(xb["wire_segment_resistance"], "ohm"),
        line_model=str(xb["line_model"]),
        forming=parse_forming(merged["forming"]),
        tuning=tuning_spec,
        refine_passes=refine,
        training=parse_training(merged["training"], seed),
        manhattan=manhattan_cfg,
        manhattan_classes=classes,
        noise_sigmas=sigmas,
        sweep_runs=_integer(bench["runs"], "benchmark.runs"),
        scale=parse_scale(merged["scale"]),
        raw=merged,
    )


def write_default_config(path):
    with open(path, "w") as fh:
        json.dump(DEFAULT_CONFIG, fh, indent=2, sort_keys=True)
        fh.write("\n")
