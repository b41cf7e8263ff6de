import numpy as np
import pytest

from xbarsim.crossbar import build_crossbar
from xbarsim.device import DeviceVariationSpec, MemristorDevice
from xbarsim.errors import ConfigurationError
from xbarsim.tuning import (TuningSpec, error_histogram, import_conductance_map,
                            import_with_refinement, tune_device, tuning_error)

CLEAN = DeviceVariationSpec(stuck_probability=0.0)


def smiley_levels():
    # 256 gray levels spanning the 84 kOhm .. 7 kOhm pixel range
    return np.linspace(1.0 / 84e3, 1.0 / 7e3, 256)


class TestTuningError:
    def test_exact_match(self):
        assert tuning_error(50e-6, 50e-6) == 0.0

    def test_thirty_percent(self):
        assert tuning_error(50e-6, 65e-6) == pytest.approx(0.30, rel=1e-12)

    def test_small_error_regime(self):
        assert tuning_error(11.9e-6, 12.4e-6) == pytest.approx(0.042, abs=0.001)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(ValueError):
            tuning_error(0.0, 1e-6)


class TestTuneDevice:
    def test_already_on_target_uses_no_pulses(self):
        xb = build_crossbar(1, 1, CLEAN, seed=1)
        d = xb.device(0, 0)
        result = tune_device(xb, 0, 0, d.conductance, TuningSpec(tolerance=0.05))
        assert result.converged and result.pulses_used == 0

    def test_upward_tune_at_thirty_percent(self):
        xb = build_crossbar(1, 1, CLEAN, seed=2)
        xb.cells["conductance"][0, 0] = 10e-6
        result = tune_device(xb, 0, 0, 50e-6, TuningSpec(tolerance=0.30))
        assert result.converged
        assert 0 < result.pulses_used < 10000
        assert 35e-6 <= result.final_conductance <= 65e-6

    def test_amplitudes_stay_inside_ranges(self, monkeypatch):
        spec = TuningSpec(tolerance=0.02)
        seen = []
        original = MemristorDevice.apply_pulse

        def recording(self, amplitude, width=500e-6):
            seen.append(amplitude)
            return original(self, amplitude, width)

        monkeypatch.setattr(MemristorDevice, "apply_pulse", recording)
        xb = build_crossbar(2, 2, CLEAN, seed=3)
        import_conductance_map(xb, np.full((2, 2), 70e-6), spec)
        assert seen
        for amp in seen:
            if amp > 0:
                assert spec.set_amplitude_range[0] <= amp <= spec.set_amplitude_range[1]
            else:
                assert spec.reset_amplitude_range[0] <= amp <= spec.reset_amplitude_range[1]

    def test_stuck_device_reported_not_pulsed(self):
        spec = DeviceVariationSpec(stuck_probability=1.0)
        xb = build_crossbar(1, 1, spec, seed=4)
        frozen = xb.device(0, 0).conductance
        result = tune_device(xb, 0, 0, frozen * 2, TuningSpec(tolerance=0.05))
        assert result.skipped_stuck
        assert not result.converged
        assert xb.device(0, 0).conductance == frozen

    def test_only_target_cell_changes(self):
        xb = build_crossbar(4, 4, CLEAN, seed=5)
        before = xb.conductances()
        tune_device(xb, 2, 1, 90e-6, TuningSpec(tolerance=0.05))
        after = xb.conductances()
        mask = np.ones((4, 4), dtype=bool)
        mask[2, 1] = False
        np.testing.assert_array_equal(before[mask], after[mask])

    def test_convergence_sweep_random_targets(self):
        # Reachable targets: devices whose thresholds sit inside the pulse
        # amplitude ranges can move both directions.
        spec = TuningSpec(tolerance=0.01, max_pulses=10000)
        converged = attempted = 0
        rng = np.random.default_rng(0)
        for seed in range(200):
            xb = build_crossbar(1, 1, CLEAN, seed=1000 + seed)
            d = xb.device(0, 0)
            if d.set_threshold > spec.set_amplitude_range[1]:
                continue
            if d.reset_threshold < spec.reset_amplitude_range[0]:
                continue
            target = float(rng.uniform(4e-6, 148e-6))
            result = tune_device(xb, 0, 0, target, spec)
            attempted += 1
            converged += result.converged
        assert attempted > 150
        assert converged == attempted


class TestImportMap:
    def test_identity_import_is_no_op(self):
        xb = build_crossbar(3, 3, CLEAN, seed=6)
        before = xb.conductances()
        errors = import_conductance_map(xb, before, TuningSpec(tolerance=0.05))
        # read-back g*v/v costs at most one ulp
        assert errors.max() < 1e-12
        np.testing.assert_array_equal(xb.conductances(), before)

    def test_smiley_map_at_five_percent(self):
        xb = build_crossbar(20, 20, CLEAN, seed=7)
        rng = np.random.default_rng(1)
        targets = rng.choice(smiley_levels(), size=(20, 20))
        errors = import_conductance_map(xb, targets, TuningSpec(tolerance=0.05))
        assert errors.max() <= 0.05 + 1e-12
        hist = error_histogram(errors)
        assert hist["bin_edges"][-1] <= 0.05 + 1e-9
        assert sum(hist["counts"]) == 400

    def test_network_shape_imports_at_thirty_percent(self):
        spec = TuningSpec(tolerance=0.30)
        for shape, seed in (((20, 17), 8), ((8, 11), 9)):
            xb = build_crossbar(*shape, CLEAN, seed=seed)
            rng = np.random.default_rng(seed)
            targets = rng.uniform(10e-6, 100e-6, shape)
            errors = import_conductance_map(xb, targets, spec)
            assert errors.max() <= 0.30 + 1e-12

    def test_stuck_cells_report_frozen_error(self):
        spec = DeviceVariationSpec(stuck_probability=0.15)
        xb = build_crossbar(6, 6, spec, seed=10)
        rng = np.random.default_rng(2)
        targets = rng.uniform(10e-6, 100e-6, (6, 6))
        errors = import_conductance_map(xb, targets, TuningSpec(tolerance=0.10))
        stuck = xb.stuck_map()
        assert stuck.any()
        g = xb.conductances()
        for r, c in np.argwhere(stuck):
            expected = abs(g[r, c] - targets[r, c]) / targets[r, c]
            assert errors[r, c] == pytest.approx(expected, rel=1e-12)
        assert (errors[~stuck] <= 0.10 + 1e-12).all()

    def test_error_grid_matches_readback(self):
        xb = build_crossbar(5, 5, CLEAN, seed=11)
        rng = np.random.default_rng(3)
        targets = rng.uniform(10e-6, 100e-6, (5, 5))
        errors = import_conductance_map(xb, targets, TuningSpec(tolerance=0.08))
        g = xb.conductances()
        np.testing.assert_allclose(errors, np.abs(g - targets) / targets, rtol=1e-12)

    def test_order_does_not_matter(self):
        rng = np.random.default_rng(4)
        targets = rng.uniform(10e-6, 100e-6, (4, 4))
        xa = build_crossbar(4, 4, CLEAN, seed=12)
        xb = build_crossbar(4, 4, CLEAN, seed=12)
        import_conductance_map(xa, targets, TuningSpec(tolerance=0.05))
        for r in reversed(range(4)):            # reversed manual order
            for c in reversed(range(4)):
                tune_device(xb, r, c, targets[r, c], TuningSpec(tolerance=0.05))
        np.testing.assert_array_equal(xa.conductances(), xb.conductances())

    def test_shape_mismatch_rejected(self):
        xb = build_crossbar(3, 3, CLEAN, seed=13)
        with pytest.raises(ConfigurationError):
            import_conductance_map(xb, np.zeros((2, 3)), TuningSpec())

    def test_refinement_centers_the_landing(self):
        rng = np.random.default_rng(5)
        targets = rng.uniform(10e-6, 100e-6, (6, 6))
        low = DeviceVariationSpec(stuck_probability=0.0, g_init_range=(2e-6, 3e-6))
        xa = build_crossbar(6, 6, low, seed=14)
        xb = build_crossbar(6, 6, low, seed=14)
        plain = import_conductance_map(xa, targets, TuningSpec(tolerance=0.30))
        refined = import_with_refinement(xb, targets, TuningSpec(tolerance=0.30), passes=2)
        # One-sided approach lands near the band edge; the measurement-feedback
        # pass recenters on the target.
        assert np.median(plain) > 0.25
        assert refined.max() < 0.05
