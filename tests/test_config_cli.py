import copy
import json
import math
import os
import re
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarsim import cli, config, training
from xbarsim.cli import main
from xbarsim.config import (IMPORT_TOLERANCE, INSITU_DEVICE_SPEC, ExperimentConfig,
                            load_config, write_default_config)
from xbarsim.crossbar import (MAX_CELLS, build_crossbar, export_grid, import_grid,
                              load_state, save_state, write_csv)
from xbarsim.device import DeviceVariationSpec
from xbarsim.errors import ConfigurationError
from xbarsim.forming import FormingSpec
from xbarsim.pipeline import derive_seed, run_ex_situ_pipeline
from xbarsim.training import ManhattanConfig, TrainingConfig
from xbarsim.tuning import TuningSpec
from xbarsim.units import format_quantity, parse_quantity, quantity

# init-config output from before the schema was derived from the dataclasses.
EARLIER_DEFAULTS = Path(__file__).parent / "data" / "default_config_v0.json"

PREFIX_EXPONENT = {"G": 9, "M": 6, "k": 3, "": 0, "m": -3, "u": -6, "n": -9, "p": -12}


class TestUnits:
    def test_basic_suffixes(self):
        assert parse_quantity("1.3V", "V") == pytest.approx(1.3)
        assert parse_quantity("50uS", "S") == pytest.approx(50e-6)
        assert parse_quantity("800ohm", "ohm") == pytest.approx(800.0)
        assert parse_quantity("600kohm", "ohm") == pytest.approx(6e5)
        assert parse_quantity("500us", "s") == pytest.approx(500e-6)
        assert parse_quantity("-1.9V", "V") == pytest.approx(-1.9)
        assert parse_quantity("180uA", "A") == pytest.approx(180e-6)

    def test_bare_numbers_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_quantity(1.3, "V")

    @pytest.mark.parametrize("declare", [lambda unit: quantity(1.0, unit),
                                         lambda unit: parse_quantity("1V", unit)],
                             ids=["quantity", "parse_quantity"])
    def test_unknown_base_unit_rejected(self, declare):
        with pytest.raises(ConfigurationError, match="unknown base unit 'volt'"):
            declare("volt")

    def test_wrong_unit_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_quantity("1.3V", "A")
        with pytest.raises(ConfigurationError):
            parse_quantity("50xS", "S")

    def test_format_round_trip(self):
        text = format_quantity(55e-6, "S", "u")
        assert text == "55uS"
        assert parse_quantity(text, "S") == pytest.approx(55e-6)

    def test_prefixed_values_are_correctly_rounded(self):
        assert parse_quantity("10uS", "S") == 1e-05
        assert parse_quantity("55uS", "S") == 5.5e-05
        assert parse_quantity("180uA", "A") == 1.8e-04
        assert parse_quantity("20uA", "A") == 2e-05

    @given(st.integers(-10**20, 10**20), st.sampled_from(sorted(PREFIX_EXPONENT)))
    def test_prefix_shifts_the_decimal_exponent(self, mantissa, prefix):
        expected = float(f"{mantissa}e{PREFIX_EXPONENT[prefix]}")
        assert parse_quantity(f"{mantissa}{prefix}V", "V") == expected

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.sampled_from(["V", "A", "S", "ohm", "s"]))
    def test_format_then_parse_is_exact(self, value, unit):
        assert parse_quantity(format_quantity(value, unit), unit) == value


class TestConfig:
    def test_defaults_load(self):
        cfg = load_config(None)
        assert cfg.seed == 42
        assert cfg.device.set_mu == pytest.approx(1.0)
        assert cfg.tuning.tolerance == pytest.approx(0.30)
        assert cfg.crossbar.rows == cfg.crossbar.cols == 20

    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_default_config(path)
        cfg = load_config(path)
        assert cfg.training.g_bias == pytest.approx(55e-6)
        assert cfg == load_config(None)

    def test_defaults_are_the_library_defaults(self):
        cfg = load_config(None)
        assert cfg == ExperimentConfig()
        assert cfg.device == DeviceVariationSpec()
        assert cfg.insitu_device == INSITU_DEVICE_SPEC
        assert cfg.forming == FormingSpec()
        assert cfg.training == TrainingConfig()
        tuning = {f.name: getattr(cfg.tuning, f.name) for f in fields(TuningSpec)}
        assert TuningSpec(**tuning) == TuningSpec(tolerance=IMPORT_TOLERANCE)
        manhattan = {f.name: getattr(cfg.manhattan, f.name) for f in fields(ManhattanConfig)}
        assert ManhattanConfig(**manhattan) == ManhattanConfig()

    def test_earlier_default_file_loads_as_the_defaults(self):
        assert load_config(EARLIER_DEFAULTS) == load_config(None)

    def test_section_keys_are_dataclass_fields(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_default_config(path)
        written = json.load(open(path))
        cfg = load_config(None)
        not_keys = {"training": {"seed"}}
        assert set(written) == {f.name for f in fields(cfg)}
        for name, keys in written.items():
            if name != "seed":
                expected = {f.name for f in fields(getattr(cfg, name))}
                assert set(keys) == expected - not_keys.get(name, set())

    def test_key_set_is_the_earlier_one(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_default_config(path)

        def keys(raw):
            return {(name, key) for name, section in raw.items()
                    for key in (section if isinstance(section, dict) else [None])}

        earlier = keys(json.load(open(EARLIER_DEFAULTS)))
        assert keys(json.load(open(path))) == earlier
        assert len(earlier) == 69

    def test_partial_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7, "tuning": {"tolerance": 0.05}}))
        cfg = load_config(path)
        assert cfg.seed == 7
        assert cfg.tuning.tolerance == pytest.approx(0.05)
        assert cfg.device.set_sigma == pytest.approx(0.13)

    def test_seed_override_wins(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7}))
        assert load_config(path, seed_override=99).seed == 99

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sneaky": 1}))
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_missing_unit_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"device": {"set_mu": 1.0}}))
        with pytest.raises(ConfigurationError):
            load_config(path)


@pytest.mark.parametrize("spec, name, value", [
    (TuningSpec, "tolerance", math.nan), (TuningSpec, "tolerance", math.inf),
    (TuningSpec, "amplitude_step", math.nan), (TuningSpec, "pulse_width", 0.0),
    (TuningSpec, "pulse_width", math.nan), (TuningSpec, "pulse_width", math.inf),
    (FormingSpec, "I_step", math.nan), (FormingSpec, "I_step", math.inf),
    (FormingSpec, "R_min_ratio", math.nan), (FormingSpec, "R_min_ratio", math.inf),
    (FormingSpec, "V_reset", math.nan), (FormingSpec, "V_reset", -math.inf),
    (DeviceVariationSpec, "set_sigma", math.nan), (DeviceVariationSpec, "reset_sigma", math.inf),
    (DeviceVariationSpec, "kinetics_voltage_scale", math.nan),
    (DeviceVariationSpec, "kinetics_voltage_scale", math.inf)])
def test_spec_validate_rejects_nan_and_infinity(spec, name, value):
    # Library callers build specs without load_config's finite-number check.
    with pytest.raises(ConfigurationError):
        spec(**{name: value}).validate()


QUANTITY_TEXT = st.from_regex(
    r"-?[0-9.]{1,4}(e-?[0-9]{1,3})?[GMkmunp]?(V|A|S|ohm|s)", fullmatch=True)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | QUANTITY_TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def _default_keys():
    cfg = ExperimentConfig()
    return [(f.name, None) for f in fields(cfg)] + [
        (f.name, key.name) for f in fields(cfg) if f.name != "seed"
        for key in fields(getattr(cfg, f.name))]


def _fuzzed_config(pair_value):
    (section, key), value = pair_value
    return {section: value} if key is None else {section: {key: value}}


FUZZED_CONFIGS = JSON_VALUES | st.tuples(
    st.sampled_from(_default_keys()), JSON_VALUES).map(_fuzzed_config)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cfg.json"


# Only load_config runs on fuzzed configs: a fuzzed crossbar size can ask a
# command for billions of devices.
@settings(max_examples=400, deadline=None)
@given(raw=FUZZED_CONFIGS)
def test_fuzzed_config_raises_only_configuration_error(fuzz_path, raw):
    fuzz_path.write_text(json.dumps(raw))
    try:
        load_config(fuzz_path)
    except ConfigurationError:
        pass


def _float_leaves():
    """(section, key, entry index or None, unit) of every float of the schema,
    walked through the sections' keys; list and dict entries are the defaults'."""
    defaults = config._encode(ExperimentConfig())
    for section, (hint, _) in config._keys(ExperimentConfig, "").items():
        if not is_dataclass(hint):
            continue
        for key, (kind, unit) in config._keys(hint, section).items():
            if kind is float:
                yield section, key, None, unit
            elif typing.get_args(kind)[-1:] == (float,):
                entries = defaults[section][key]
                for index in entries if isinstance(entries, dict) else range(len(entries)):
                    yield section, key, index, unit


def _non_finite_configs():
    """One config per float leaf and non-finite value: NaN and Infinity as JSON
    tokens for bare numbers, an overflowing "1e400<unit>" for quantities."""
    defaults = config._encode(ExperimentConfig())
    for section, key, index, unit in _float_leaves():
        for bad in [f"1e400{unit}"] if unit else [math.nan, math.inf]:
            value = bad
            if index is not None:
                value = copy.deepcopy(defaults[section][key])
                value[index] = bad
            where = f"{section}.{key}" + ("" if index is None else f".{index}")
            yield pytest.param({section: {key: value}}, id=f"{where}={bad}")


def _two_by_two_snapshot(path):
    save_state(build_crossbar(2, 2, DeviceVariationSpec(), seed=0), path)
    return json.loads(path.read_text())


def _without_thresholds(state):
    for row in state["devices"]:
        for device in row:
            del device["set_threshold"], device["reset_threshold"]
    return state


def _set(path, value):
    def mangle(state):
        target = state
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return state
    return mangle


def _impossible_devices(state):
    devices = state["devices"]
    devices[0][0].update(formed=False, pristine_resistance=0.0)
    devices[1][0].update(formed=False, pristine_resistance=-5.0)
    devices[0][1]["g_min"] = 200e-6
    return state


# What MlpNetwork says of layer grids of other shapes than the topology's.
MISFIT = "do not match the topology's ((20, 17), (8, 11))"


class TestCli:
    def test_form_then_tune_then_infer_flow(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["--out", out, "--seed", "5", "form"]) == 0
        assert os.path.exists(os.path.join(out, "forming_report.json"))
        assert os.path.exists(os.path.join(out, "crossbar_state.json"))

        targets = str(tmp_path / "targets.csv")
        rng = np.random.default_rng(0)
        export_grid(rng.uniform(15e-6, 95e-6, (20, 20)), targets)
        assert main(["--out", out, "--seed", "5", "tune", "--targets", targets]) == 0
        assert os.path.exists(os.path.join(out, "error_grid.csv"))
        assert os.path.exists(os.path.join(out, "error_histogram.json"))

    def test_tune_without_snapshot_is_config_error(self, tmp_path):
        targets = str(tmp_path / "targets.csv")
        export_grid(np.full((4, 4), 50e-6), targets)
        code = main(["--out", str(tmp_path / "nothing"), "tune", "--targets", targets])
        assert code == 2

    def test_malformed_config_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["--config", str(bad), "--out", str(tmp_path), "scale"]) == 2

    def test_form_artifacts_deterministic(self, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out_a, out_b):
            assert main(["--out", out, "--seed", "11", "form"]) == 0
        for name in ("forming_report.json", "crossbar_state.json"):
            a = open(os.path.join(out_a, name), "rb").read()
            b = open(os.path.join(out_b, name), "rb").read()
            assert a == b

    def test_scale_outputs(self, tmp_path):
        out = str(tmp_path / "scale")
        assert main(["--out", out, "scale"]) == 0
        table = open(os.path.join(out, "max_dimensions.csv")).read().splitlines()
        assert table[0] == "preset,scheme,transition,drop_budget,n_max,note"
        rows = {tuple(line.split(",")[:3]): line.split(",") for line in table[1:]}
        n_exp_v3 = int(rows[("experiment-like", "V_third", "set")][4])
        n_cu_v3 = int(rows[("copper", "V_third", "set")][4])
        assert abs(n_exp_v3 - 70) <= 5
        assert abs(n_cu_v3 - 400) <= 25

    def test_infer_single_pattern(self, tmp_path):
        out = str(tmp_path / "net")
        # pair maps are enough for inference
        os.makedirs(out)
        rng = np.random.default_rng(1)
        export_grid(rng.uniform(10e-6, 100e-6, (20, 17)),
                    os.path.join(out, "layer1_pairs.csv"))
        export_grid(rng.uniform(10e-6, 100e-6, (8, 11)),
                    os.path.join(out, "layer2_pairs.csv"))
        pattern_file = tmp_path / "one.txt"
        pattern_file.write_text("0110100111111001 A\n")
        res = str(tmp_path / "res")
        assert main(["--out", res, "infer", "--network", out,
                     "--patterns", str(pattern_file)]) == 0
        lines = open(os.path.join(res, "outputs.csv")).read().strip().splitlines()
        assert len(lines) == 2          # header + one row

    def test_in_situ_training_writes_fidelity(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"manhattan": {"epochs": 20}}))
        out = str(tmp_path / "insitu")
        assert main(["--config", str(cfg), "--out", out, "train", "--mode", "in-situ"]) == 0
        report = json.load(open(os.path.join(out, "fidelity.json")))
        assert report["mode"] == "in-situ"
        assert 0.0 <= report["final_fidelity"] <= 1.0
        assert report["pulses_issued"] > 0
        curve = open(os.path.join(out, "insitu_error_curve.csv")).read().splitlines()
        assert len(curve) == 21             # header + one row per epoch

    def test_ex_situ_training_is_the_library_run_at_its_seed(self, tmp_path):
        out = tmp_path / "aware"
        assert main(["--seed", "3", "--out", str(out), "train", "--mode", "ex-situ-aware"]) == 0
        result = run_ex_situ_pipeline(3, True)
        written = json.loads((out / "fidelity.json").read_text())
        assert written.pop("mode") == "ex-situ-aware"
        assert written == {name: getattr(result, name) for name in written}
        for k, xbar in enumerate(result.crossbars, 1):
            save_state(xbar, tmp_path / "library.json")
            assert ((out / f"crossbar{k}_state.json").read_bytes()
                    == (tmp_path / "library.json").read_bytes())

    def test_sweep_baseline_trains_from_the_run_seed(self, tmp_path, monkeypatch):
        seeds = []

        def record_seed(patterns, cfg):
            seeds.append(cfg.seed)
            return None, 0.5

        monkeypatch.setattr(cli, "train_single_layer", record_seed)
        weights = tmp_path / "weights"
        weights.mkdir()
        export_grid(np.full((20, 17), 50e-6), weights / "layer1_pairs.csv")
        export_grid(np.full((8, 11), 50e-6), weights / "layer2_pairs.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"benchmark": {"noise_sigmas": [0.0], "runs": 1}}))
        assert main(["--config", str(cfg), "--seed", "8", "--out", str(tmp_path / "sweep"),
                     "sweep", "--weights", str(weights)]) == 0
        assert seeds == [derive_seed(8, "training-init")]

    def test_out_that_is_a_file_is_config_error_before_any_work(self, tmp_path,
                                                                monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr(cli, "run_ex_situ_pipeline", no_run)
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        assert main(["--out", str(out), "train", "--mode", "ex-situ-aware"]) == 2
        assert out.read_text() == "not a directory\n"

    def test_ex_situ_training_reads_through_configured_lines(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"crossbar": {"line_model": "wire_resistive",
                                                "wire_segment_resistance": "200ohm"}}))
        ideal, wired = str(tmp_path / "ideal"), str(tmp_path / "wired")
        assert main(["--out", ideal, "train", "--mode", "ex-situ-aware"]) == 0
        assert main(["--config", str(cfg), "--out", wired, "train",
                     "--mode", "ex-situ-aware"]) == 0

        def read(out, name):
            return json.load(open(os.path.join(out, name)))
        fid_ideal, fid_wired = read(ideal, "fidelity.json"), read(wired, "fidelity.json")
        assert fid_wired != fid_ideal
        # Only the hardware readout goes through the lines.
        for key in ("software_train_fidelity", "software_test_fidelity",
                    "defective_fraction", "import_error_max"):
            assert fid_wired[key] == fid_ideal[key]
        for name in ("crossbar1_state.json", "crossbar2_state.json"):
            state = read(wired, name)
            assert state["line_model"] == "wire_resistive"
            assert state["wire_segment_resistance"] == 200.0
            assert state["devices"] == read(ideal, name)["devices"]

    @pytest.mark.parametrize("r_w, code", [("200ohm", 2), ("0ohm", 0)])
    def test_in_situ_training_rejects_resistive_lines(self, tmp_path, r_w, code):
        # Zero-ohm wire-resistive lines read exactly as ideal ones, so they run.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"crossbar": {"line_model": "wire_resistive",
                                                "wire_segment_resistance": r_w},
                                   "manhattan": {"epochs": 2}}))
        out = tmp_path / "insitu"
        assert main(["--config", str(cfg), "--out", str(out), "train",
                     "--mode", "in-situ"]) == code
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("manhattan", [{"pulse_width": "0us"},
                                           {"bias_scheme": "V_quarter"}])
    def test_bad_manhattan_config_is_config_error(self, tmp_path, manhattan):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"manhattan": manhattan}))
        out = tmp_path / "insitu"
        assert main(["--config", str(cfg), "--out", str(out), "train",
                     "--mode", "in-situ"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("mode, raw", [
        ("ex-situ-oblivious", {"training": {"learning_rate": float("inf")}}),
        ("ex-situ-aware", {"training": {"init_scale": "1e400uS"}}),
        ("ex-situ-oblivious", {"training": {"target_level": "1e400V"}}),
        ("in-situ", {"manhattan": {"amplitude": "1e400V"}}),
        ("in-situ", {"manhattan": {"pulse_width": "1e400s"}}),
        ("ex-situ-oblivious", {"training": {"init_scale": "-4uS"}}),
        ("ex-situ-oblivious", {"training": {"target_level": "0V"}}),
        ("ex-situ-oblivious", {"training": {"target_level": "-1V"}}),
        # In-situ updates read G linearly, so a nonlinear device has no effect there.
        ("in-situ", {"insitu_device": {"nonlinearity_alpha": 0.5}})],
        ids=["learning_rate", "init_scale", "target_level", "amplitude", "pulse_width",
             "negative-init_scale", "zero-target_level", "negative-target_level",
             "insitu-nonlinearity_alpha"])
    def test_bad_training_knob_is_config_error(self, tmp_path, mode, raw):
        # json.dumps writes an infinite float as Infinity; 1e400 overflows to it.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "train"
        assert main(["--config", str(cfg), "--out", str(out), "train", "--mode", mode]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("raw, command", [
        ({"manhattan": {"amplitude": "300V"}}, ["train", "--mode", "in-situ"]),
        ({"insitu_device": {"kinetics_voltage_scale": "1e-6V"}}, ["train", "--mode", "in-situ"]),
        ({"forming": {"V_reset": "-1e4V"}}, ["form"]),
        ({"tuning": {"set_amplitude_range": ["0.8V", "1e4V"], "amplitude_step": "100V"}},
         ["train", "--mode", "ex-situ-oblivious"])],
        ids=["manhattan-amplitude", "kinetics_voltage_scale", "V_reset", "set_amplitude"])
    def test_overdriven_pulse_is_config_error(self, tmp_path, capsys, raw, command):
        # exp(overvoltage / kinetics_voltage_scale) overflows a float.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), *command]) == 2
        assert "kinetics_voltage_scale" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("raw", [
        {"device": 5}, [], {"scale": {"wire_presets": 5}},
        {"benchmark": {"noise_sigmas": 5}}, {"seed": -1},
        {"training": {"fill_range": "false"}}, {"training": {"seed": 3}},
        {"manhattan": {"classes": "AQ"}}, {"manhattan": {"classes": ""}},
        {"scale": {"conductance_v_half": {"set": "20uS"}}},
        {"training": {"learning_rate": 10**400}},
        {"crossbar": {"wire_segment_resistance": "1e400ohm"}},
        {"tuning": {"refine_passes": 0}}, {"tuning": {"refine_passes": -3}},
        {"device": {"nonlinearity_alpha": -100.0}},
        {"insitu_device": {"nonlinearity_alpha": -0.5}},
        {"training": {"fill_fraction": 1.5}}, {"training": {"fill_fraction": -1.0}},
        {"training": {"fill_fraction": 0.0}},
        {"training": {"learning_rate": 0.0}}, {"training": {"learning_rate": -1.0}},
        {"scale": {"ladder_lengths": [1, 0]}}, {"scale": {"ladder_lengths": [-4]}},
        {"scale": {"conductance_v_third": {"set": "-30uS", "reset": "50uS"}}},
        {"scale": {"conductance_v_half": {"set": "20uS", "reset": "-33uS"}}},
        {"scale": {"wire_presets": {"copper": "-0.185ohm"}}},
        {"scale": {"wire_presets": {"copper": "1e400ohm"}}},
        {"tuning": {"pulse_width": "0s"}},
        # Past ~1e18 ohm the nodal solve drifts; at 1e300 ohm its factor is singular.
        {"crossbar": {"wire_segment_resistance": "1e24ohm"}},
        {"crossbar": {"wire_segment_resistance": "1e300ohm"}},
        # At 1e-308 ohm the nodal solve is all wrong; at 5e-324 ohm its factor is singular.
        {"crossbar": {"wire_segment_resistance": "1e-308ohm"}},
        {"crossbar": {"wire_segment_resistance": "5e-324ohm"}},
        # 1/G overflows, so the ladder would have no finite load impedance.
        {"scale": {"conductance_v_third": {"set": "5e-324S", "reset": "50uS"}}},
        {"scale": {"ladder_lengths": [100001]}},
        {"benchmark": {"noise_sigmas": [-0.5, 0.1]}},
        {"device": {"kinetics_rate_range": ["-0.05uS", "-0.02uS"]}},
        # The write budget divides by |max| and needs |min| <= |max|.
        {"scale": {"set_threshold_max": "0V"}}, {"scale": {"reset_threshold_max": "0V"}},
        {"scale": {"set_threshold_min": "-5V"}},
        # A negative pristine threshold or sweep ceiling.
        {"forming": {"R_TH": "-1ohm"}}, {"forming": {"I_start": "-100uA"}},
        # A set range that reaches 0 V or below, a reset range that reaches 0 V or above.
        {"tuning": {"set_amplitude_range": ["-1.2V", "1.5V"]}},
        {"tuning": {"reset_amplitude_range": ["-1.8V", "1.2V"]}},
        # One case per spec check that no other input reaches.
        {"device": {"g_min": "200uS"}},
        {"forming": {"max_attempts": 0}}, {"forming": {"max_rounds": 0}},
        {"tuning": {"max_pulses": 0}},
        # No g_bias sits inside a reversed clip interval, so the g_bias check
        # rejects it too; a zero low end reaches the clip check alone.
        {"training": {"clip_interval": ["100uS", "10uS"]}},
        {"training": {"clip_interval": ["0uS", "100uS"]}}, {"training": {"g_bias": "5uS"}},
        {"training": {"epochs": -1}}, {"training": {"finetune_epochs": -1}},
        {"benchmark": {"runs": 0}}, {"tuning": {"v_read": "1.2.3V"}},
        # Past int64 the write loops' pulse budgets became object arrays.
        {"tuning": {"max_pulses": 10**20}},
        # Past the cell bound xbarsim form would sample until killed.
        {"crossbar": {"rows": 10**20}}, {"crossbar": {"rows": MAX_CELLS + 1, "cols": 1}},
        *_non_finite_configs()])
    def test_malformed_config_values_are_config_error(self, tmp_path, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "scale"
        assert main(["--config", str(cfg), "--out", str(out), "scale"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("rows, cols", [(MAX_CELLS, 1), (1, MAX_CELLS), (512, 512)])
    def test_array_at_the_cell_bound_is_valid(self, tmp_path, rows, cols):
        # Validation only: nothing samples the array.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"crossbar": {"rows": rows, "cols": cols}}))
        xc = load_config(cfg).crossbar
        assert (xc.rows, xc.cols) == (rows, cols)

    def test_init_config_writes_the_defaults(self, tmp_path, capsys):
        path = tmp_path / "xbarsim.json"
        assert main(["init-config", "--path", str(path)]) == 0
        assert capsys.readouterr().out == f"wrote {path}\n"
        assert load_config(path) == load_config(None) == ExperimentConfig()

    def test_negative_seed_flag_is_config_error(self, tmp_path):
        out = tmp_path / "scale"
        assert main(["--seed", "-1", "--out", str(out), "scale"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("mangle", [
        lambda state: {}, lambda state: [1], _without_thresholds,
        _set(["rows"], 3), _set(["devices", 1], []), _set(["line_model"], "copper"),
        _set(["devices", 0, 0, "stuck"], 0), _set(["devices", 0, 0, "conductance"], "5uS"),
        _set(["devices", 0, 0, "set_threshold"], -1.0), _impossible_devices])
    def test_malformed_snapshot_is_config_error(self, tmp_path, mangle):
        out = tmp_path / "run"
        out.mkdir()
        mangled = mangle(_two_by_two_snapshot(out / "crossbar_state.json"))
        state = json.dumps(mangled)
        (out / "crossbar_state.json").write_text(state)
        # Targets match the declared shape, so only load_state can object.
        rows = mangled.get("rows", 2) if isinstance(mangled, dict) else 2
        targets = str(tmp_path / "targets.csv")
        export_grid(np.full((rows, 2), 50e-6), targets)
        assert main(["--out", str(out), "tune", "--targets", targets]) == 2
        assert os.listdir(out) == ["crossbar_state.json"]
        assert (out / "crossbar_state.json").read_text() == state

    def test_well_formed_snapshot_tunes(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        _two_by_two_snapshot(out / "crossbar_state.json")
        targets = str(tmp_path / "targets.csv")
        export_grid(np.full((2, 2), 50e-6), targets)
        assert main(["--out", str(out), "tune", "--targets", targets]) in (0, 3)
        assert (out / "error_grid.csv").exists()

    @pytest.mark.parametrize("v_read, target", [
        ("0V", 50e-6), ("3V", 50e-6), ("-3V", 50e-6), ("1.5V", 50e-6),
        ("0.2V", 0.0), ("0.2V", -50e-6)])
    def test_bad_read_or_target_is_config_error(self, tmp_path, v_read, target):
        out = tmp_path / "run"
        out.mkdir()
        _two_by_two_snapshot(out / "crossbar_state.json")
        state = (out / "crossbar_state.json").read_text()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tuning": {"v_read": v_read}}))
        targets = str(tmp_path / "targets.csv")
        export_grid(np.array([[50e-6, target], [50e-6, 50e-6]]), targets)
        assert main(["--config", str(cfg), "--out", str(out), "tune",
                     "--targets", targets]) == 2
        assert (out / "crossbar_state.json").read_text() == state
        assert not (out / "error_grid.csv").exists()

    def test_sweep_clips_to_the_configured_range(self, tmp_path):
        weights = tmp_path / "weights"
        weights.mkdir()
        rng = np.random.default_rng(1)
        export_grid(rng.uniform(10e-6, 100e-6, (20, 17)), weights / "layer1_pairs.csv")
        export_grid(rng.uniform(10e-6, 100e-6, (8, 11)), weights / "layer2_pairs.csv")
        sweeps = []
        for clip in (["10uS", "100uS"], ["50uS", "60uS"]):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({
                "training": {"clip_interval": clip, "epochs": 5},
                "benchmark": {"noise_sigmas": [0.0, 0.1], "runs": 3}}))
            out = tmp_path / clip[0]
            assert main(["--config", str(cfg), "--out", str(out), "sweep",
                         "--weights", str(weights)]) == 0
            sweeps.append((out / "test_sweep.csv").read_text())
        assert sweeps[0] != sweeps[1]

    @pytest.mark.parametrize("text, message", [
        ("\n", "no patterns in"), ("0000000000000000 Q\n", "unknown class 'Q'"),
        ("0000000000000000\n", "bad pattern line"), ("000000000000000 A\n", "bad pixel field")],
        ids=["empty", "unknown-class", "no-label", "15-pixels"])
    def test_bad_pattern_file_is_config_error(self, tmp_path, capsys, text, message):
        net = tmp_path / "net"
        net.mkdir()
        export_grid(np.full((20, 17), 50e-6), net / "layer1_pairs.csv")
        export_grid(np.full((8, 11), 50e-6), net / "layer2_pairs.csv")
        patterns = tmp_path / "patterns.txt"
        patterns.write_text(text)
        out = tmp_path / "res"
        assert main(["--out", str(out), "infer", "--network", str(net),
                     "--patterns", str(patterns)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, layers, message", [
        ("infer", [((2, 2), 50e-6)] * 2, MISFIT),
        ("infer", [((8, 11), 50e-6), ((20, 17), 50e-6)], MISFIT),
        ("infer", "form", MISFIT), ("sweep", [((2, 2), 50e-6)] * 2, MISFIT),
        # Right shapes, but conductances no device can hold.
        ("infer", [((20, 17), -50e-6), ((8, 11), 50e-6)], "> 0 S"),
        ("sweep", [((20, 17), 50e-6), ((8, 11), 0.0)], "> 0 S"),
        # A pair grid of an odd row count; no network files at all.
        ("infer", [((19, 17), 50e-6), ((8, 11), 50e-6)], "even number of rows"),
        ("sweep", [], "no pair-map CSVs")],
        ids=["infer-2x2-maps", "infer-swapped-maps", "infer-form-snapshots", "sweep-2x2-maps",
             "infer-negative-maps", "sweep-zero-maps", "infer-odd-rows", "sweep-no-maps"])
    def test_network_that_misfits_the_topology_is_config_error(self, tmp_path, capsys, command,
                                                               layers, message):
        net = tmp_path / "net"
        if layers == "form":
            # Two copies of the 20x20 array 'form' writes stand in for the 20x17 and 8x11.
            assert main(["--out", str(net), "form"]) == 0
            for k in (1, 2):
                (net / f"crossbar{k}_state.json").write_bytes(
                    (net / "crossbar_state.json").read_bytes())
        else:
            net.mkdir()
            for k, (shape, siemens) in enumerate(layers, 1):
                export_grid(np.full(shape, siemens), net / f"layer{k}_pairs.csv")
        patterns = tmp_path / "one.txt"
        patterns.write_text("0110100111111001 A\n")
        out = tmp_path / "res"
        argv = (["infer", "--network", str(net), "--patterns", str(patterns)]
                if command == "infer" else ["sweep", "--weights", str(net)])
        assert main(["--out", str(out), *argv]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_divergence_writes_nothing(self, tmp_path, monkeypatch):
        grads = training._grads

        def nan_loss(*args, **kwargs):
            _, *rest = grads(*args, **kwargs)
            return (math.nan, *rest)

        monkeypatch.setattr(training, "_grads", nan_loss)
        out = tmp_path / "train"
        assert main(["--out", str(out), "train", "--mode", "ex-situ-aware"]) == 3
        assert not out.exists()

    def test_infer_failing_at_its_second_pattern_writes_nothing(self, tmp_path,
                                                                 monkeypatch):
        calls, infer = [], cli.infer

        def fail_second(net, pixels):
            calls.append(pixels)
            if len(calls) == 2:
                raise ConfigurationError("unreadable second pattern")
            return infer(net, pixels)

        monkeypatch.setattr(cli, "infer", fail_second)
        net = tmp_path / "net"
        net.mkdir()
        export_grid(np.full((20, 17), 50e-6), net / "layer1_pairs.csv")
        export_grid(np.full((8, 11), 50e-6), net / "layer2_pairs.csv")
        patterns = tmp_path / "two.txt"
        patterns.write_text("0110100111111001 A\n0110100111111001 A\n")
        out = tmp_path / "res"
        assert main(["--out", str(out), "infer", "--network", str(net),
                     "--patterns", str(patterns)]) == 2
        assert len(calls) == 2
        assert not out.exists()

    def test_unconverged_tune_still_writes(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        _two_by_two_snapshot(out / "crossbar_state.json")
        before = (out / "crossbar_state.json").read_text()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tuning": {"max_pulses": 30, "tolerance": 1e-6}}))
        targets = str(tmp_path / "targets.csv")
        export_grid(np.full((2, 2), 50e-6), targets)
        assert main(["--config", str(cfg), "--out", str(out), "tune",
                     "--targets", targets]) == 3
        assert import_grid(out / "error_grid.csv").shape == (2, 2)
        assert (out / "error_histogram.json").exists()
        assert (out / "crossbar_state.json").read_text() != before

    def test_tune_on_an_all_stuck_array(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"crossbar": {"rows": 2, "cols": 2},
                                   "device": {"stuck_probability": 1.0}}))
        out = str(tmp_path / "run")
        assert main(["--config", str(cfg), "--out", out, "form"]) == 0
        targets = str(tmp_path / "targets.csv")
        export_grid(np.full((2, 2), 50e-6), targets)
        capsys.readouterr()
        assert main(["--config", str(cfg), "--out", out, "tune", "--targets", targets]) == 0
        assert capsys.readouterr().out == (
            "tuned 0 cells; max error 0.0000; 0 above tolerance\n")

    def test_infer_on_a_singular_wire_snapshot_is_config_error(self, tmp_path):
        net = tmp_path / "net"
        net.mkdir()
        for k, shape in enumerate([(20, 17), (8, 11)], 1):
            xb = build_crossbar(*shape, DeviceVariationSpec(), seed=k)
            xb.line_model, xb.wire_segment_resistance = "wire_resistive", 1e300
            save_state(xb, net / f"crossbar{k}_state.json")
        patterns = tmp_path / "one.txt"
        patterns.write_text("0110100111111001 A\n")
        out = tmp_path / "res"
        assert main(["--out", str(out), "infer", "--network", str(net),
                     "--patterns", str(patterns)]) == 2
        assert not out.exists()

    def test_export_patterns(self, tmp_path):
        out = str(tmp_path / "pats")
        assert main(["--out", out, "export-patterns"]) == 0
        train = open(os.path.join(out, "training_patterns.txt")).read().splitlines()
        test = open(os.path.join(out, "test_patterns.txt")).read().splitlines()
        assert len(train) == 40 and len(test) == 640


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "rows.csv"


@given(st.lists(st.lists(st.floats(), max_size=6), max_size=6))
def test_write_csv_of_floats_is_the_nine_digit_join(csv_path, rows):
    write_csv(rows, csv_path)
    assert csv_path.read_text() == "".join(
        ",".join(f"{x:.9g}" for x in row) + "\n" for row in rows)


def _reject_constant(token):
    raise AssertionError(f"non-standard JSON constant {token}")


def _without_version(state):
    del state["schema_version"]
    return state


class TestArtifacts:
    def test_form_snapshot_is_strict_json(self, tmp_path):
        out = tmp_path / "form"
        assert main(["--out", str(out), "form"]) == 0
        for name in ("crossbar_state.json", "forming_report.json"):
            json.loads((out / name).read_text(), parse_constant=_reject_constant)
        state = json.loads((out / "crossbar_state.json").read_text())
        assert state["schema_version"] == 1
        never_form = [d for row in state["devices"] for d in row
                      if d["forming_current"] is None]
        assert never_form and all(d["stuck"] for d in never_form)

    def test_snapshot_load_then_save_is_byte_identical(self, tmp_path):
        out = tmp_path / "form"
        assert main(["--out", str(out), "form"]) == 0
        first = out / "crossbar_state.json"
        again = tmp_path / "again.json"
        save_state(load_state(first), again)
        assert again.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("mangle", [
        _without_version, _set(["schema_version"], 2), _set(["schema_version"], "1"),
        _set(["schema_version"], 1.0), _set(["schema_version"], None)])
    def test_snapshot_version_is_required(self, tmp_path, mangle):
        out = tmp_path / "run"
        out.mkdir()
        state = json.dumps(mangle(_two_by_two_snapshot(out / "crossbar_state.json")))
        (out / "crossbar_state.json").write_text(state)
        targets = str(tmp_path / "targets.csv")
        export_grid(np.full((2, 2), 50e-6), targets)
        assert main(["--out", str(out), "tune", "--targets", targets]) == 2
        assert os.listdir(out) == ["crossbar_state.json"]
        assert (out / "crossbar_state.json").read_text() == state

    def test_non_standard_constant_in_snapshot_is_config_error(self, tmp_path):
        path = tmp_path / "state.json"
        _two_by_two_snapshot(path)
        text = path.read_text()
        assert '"wire_segment_resistance": 0.0' in text
        # Every other check would accept an infinite wire resistance.
        path.write_text(text.replace('"wire_segment_resistance": 0.0',
                                     '"wire_segment_resistance": Infinity'))
        with pytest.raises(ConfigurationError, match="Infinity"):
            load_state(path)

    def test_overflowing_snapshot_field_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        _two_by_two_snapshot(out / "crossbar_state.json")
        text = (out / "crossbar_state.json").read_text()
        # json reads the literal 1e400 as inf; no JSON token check sees it.
        state = re.sub(r'"kinetics_rate": [^,}]+', '"kinetics_rate": 1e400', text, count=1)
        assert '"kinetics_rate": 1e400' in state
        (out / "crossbar_state.json").write_text(state)
        targets = str(tmp_path / "targets.csv")
        export_grid(np.full((2, 2), 50e-6), targets)
        assert main(["--out", str(out), "tune", "--targets", targets]) == 2
        assert "device (0, 0) kinetics_rate must be finite" in capsys.readouterr().err
        assert os.listdir(out) == ["crossbar_state.json"]
        assert (out / "crossbar_state.json").read_text() == state

    def test_impossible_snapshot_device_names_file_and_cell(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        path = out / "crossbar_state.json"
        state = json.dumps(_set(["devices", 1, 0, "g_min"], 1.0)(_two_by_two_snapshot(path)))
        path.write_text(state)
        message = f"{path}: device (1, 0): need 0 < g_min <= g_max"
        with pytest.raises(ConfigurationError) as exc:
            load_state(path)
        assert str(exc.value) == message
        targets = str(tmp_path / "targets.csv")
        export_grid(np.full((2, 2), 50e-6), targets)
        assert main(["--out", str(out), "tune", "--targets", targets]) == 2
        assert message in capsys.readouterr().err
        assert os.listdir(out) == ["crossbar_state.json"]
        assert path.read_text() == state

    @pytest.mark.parametrize("text, message", [
        *((f"1e-5,{token}\n1e-5,1e-5\n", "bad.csv")
          for token in ["abc", "nan", "inf", "-Infinity", ""]),
        ("\n", "empty grid file"), ("1e-5,1e-5\n1e-5\n", "ragged grid file")],
        ids=["abc", "nan", "inf", "-Infinity", "", "empty-file", "ragged-file"])
    def test_bad_target_token_is_config_error(self, tmp_path, text, message):
        out = tmp_path / "run"
        out.mkdir()
        _two_by_two_snapshot(out / "crossbar_state.json")
        targets = tmp_path / "bad.csv"
        targets.write_text(text)
        assert main(["--out", str(out), "tune", "--targets", str(targets)]) == 2
        with pytest.raises(ConfigurationError, match=message):
            import_grid(targets)


@pytest.mark.parametrize("name", ["config", "snapshot", "targets", "patterns", "network"])
def test_unreadable_input_is_config_error(tmp_path, name):
    out, net = tmp_path / "out", tmp_path / "net"
    out.mkdir()
    net.mkdir()
    _two_by_two_snapshot(out / "crossbar_state.json")
    paths = {"config": None, "targets": tmp_path / "targets.csv",
             "patterns": tmp_path / "one.txt"}
    export_grid(np.full((2, 2), 50e-6), paths["targets"])
    paths["patterns"].write_text("0110100111111001 A\n")
    export_grid(np.full((20, 17), 50e-6), net / "layer1_pairs.csv")
    export_grid(np.full((8, 11), 50e-6), net / "layer2_pairs.csv")
    # The named input is a directory where a file belongs.
    if name == "snapshot":
        (out / "crossbar_state.json").unlink()
        (out / "crossbar_state.json").mkdir()
    elif name == "network":
        for k in (1, 2):
            (net / f"crossbar{k}_state.json").mkdir()
    else:
        paths[name] = tmp_path / "blocked"
        paths[name].mkdir()
    argv = ["--config", str(paths["config"])] if paths["config"] else []
    argv += ["--out", str(out)]
    if name in ("patterns", "network"):
        argv += ["infer", "--network", str(net), "--patterns", str(paths["patterns"])]
    else:
        argv += ["tune", "--targets", str(paths["targets"])]
    assert main(argv) == 2
