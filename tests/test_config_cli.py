import json
import os

import numpy as np
import pytest

from xbarsim.cli import main
from xbarsim.config import DEFAULT_CONFIG, load_config, write_default_config
from xbarsim.crossbar import export_grid
from xbarsim.errors import ConfigurationError
from xbarsim.units import format_quantity, parse_quantity


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

    def test_wrong_unit_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_quantity("1.3V", "A")
        with pytest.raises(ConfigurationError):
            parse_quantity("50xS", "S")

    def test_format_round_trip(self):
        text = format_quantity(55e-6, "S", "u")
        assert text == "55uS"
        assert parse_quantity(text, "S") == pytest.approx(55e-6)


class TestConfig:
    def test_defaults_load(self):
        cfg = load_config(None)
        assert cfg.seed == 42
        assert cfg.device.set_mu == pytest.approx(1.0)
        assert cfg.tuning.tolerance == pytest.approx(0.30)
        assert cfg.rows == cfg.cols == 20

    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_default_config(path)
        cfg = load_config(path)
        assert cfg.training.g_bias == pytest.approx(55e-6)

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

    @pytest.mark.parametrize("manhattan", [{"pulse_width": "0us"},
                                           {"bias_scheme": "V_quarter"}])
    def test_bad_manhattan_config_is_config_error(self, tmp_path, manhattan):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"manhattan": manhattan}))
        out = tmp_path / "insitu"
        assert main(["--config", str(cfg), "--out", str(out), "train",
                     "--mode", "in-situ"]) == 2
        assert not out.exists()

    def test_export_patterns(self, tmp_path):
        out = str(tmp_path / "pats")
        assert main(["--out", out, "export-patterns"]) == 0
        train = open(os.path.join(out, "training_patterns.txt")).read().splitlines()
        test = open(os.path.join(out, "test_patterns.txt")).read().splitlines()
        assert len(train) == 40 and len(test) == 640
