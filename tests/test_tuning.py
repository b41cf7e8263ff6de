import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xbarsim import tuning
from xbarsim.benchmark import canonical_training_set
from xbarsim.config import ExperimentConfig, TuningSection
from xbarsim.crossbar import Crossbar, build_crossbar
from xbarsim.device import DeviceVariationSpec, MemristorDevice, device_fields
from xbarsim.errors import ConfigurationError
from xbarsim.forming import FormingSpec
from xbarsim.mlp import ConductancePairMap
from xbarsim.pipeline import (build_network_crossbars, derive_seed, form_network, import_network,
                              run_ex_situ_pipeline)
from xbarsim.training import DefectMap, TrainingConfig, TrainingOutcome, train_ex_situ
from xbarsim.tuning import (PROGRESS_FRACTION, TuningSpec, _EFFECT_EPS, error_histogram,
                            import_conductance_map, import_with_refinement, tuning_error)

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


def tune_cell(xb, row, col, target, spec):
    """Tune one cell through a 1x1 view of ``xb``; returns its error."""
    view = Crossbar(xb.cells[row:row + 1, col:col + 1])
    return import_conductance_map(view, [[target]], spec)[0, 0]


@pytest.fixture
def verify_reads(monkeypatch):
    """Counts array read-backs: one before tuning, then one per round."""
    calls = []
    original = Crossbar.conductances

    def counting(self):
        calls.append(self.cells.shape)
        return original(self)

    monkeypatch.setattr(Crossbar, "conductances", counting)
    return calls


class TestTuneDevice:
    def test_already_on_target_uses_no_pulses(self, verify_reads):
        xb = build_crossbar(1, 1, CLEAN, seed=1)
        before = xb.cells.copy()
        error = tune_cell(xb, 0, 0, xb.cells["conductance"][0, 0], TuningSpec(tolerance=0.05))
        assert error <= 0.05
        assert len(verify_reads) == 1
        assert xb.cells.tobytes() == before.tobytes()

    def test_upward_tune_at_thirty_percent(self, verify_reads):
        xb = build_crossbar(1, 1, CLEAN, seed=2)
        xb.cells["conductance"][0, 0] = 10e-6
        error = tune_cell(xb, 0, 0, 50e-6, TuningSpec(tolerance=0.30))
        assert error <= 0.30
        assert 0 < len(verify_reads) - 1 < 10000
        assert 35e-6 <= xb.cells["conductance"][0, 0] <= 65e-6

    def test_amplitudes_stay_inside_ranges(self, monkeypatch):
        spec = TuningSpec(tolerance=0.02)
        seen = []
        original = tuning.switching_steps

        def recording(cells, amplitude, width):
            seen.extend(np.ravel(amplitude).tolist())
            return original(cells, amplitude, width)

        monkeypatch.setattr(tuning, "switching_steps", recording)
        xb = build_crossbar(2, 2, CLEAN, seed=3)
        import_conductance_map(xb, np.full((2, 2), 70e-6), spec)
        assert seen
        for amp in seen:
            if amp > 0:
                assert spec.set_amplitude_range[0] <= amp <= spec.set_amplitude_range[1]
            else:
                assert spec.reset_amplitude_range[0] <= amp <= spec.reset_amplitude_range[1]

    def test_stuck_device_reported_not_pulsed(self, verify_reads):
        spec = DeviceVariationSpec(stuck_probability=1.0)
        xb = build_crossbar(1, 1, spec, seed=4)
        before = xb.cells.copy()
        frozen = xb.cells["conductance"][0, 0]
        error = tune_cell(xb, 0, 0, frozen * 2, TuningSpec(tolerance=0.05))
        assert error == pytest.approx(0.5, rel=1e-12)
        assert len(verify_reads) == 1
        assert xb.cells.tobytes() == before.tobytes()

    def test_only_target_cell_changes(self):
        xb = build_crossbar(4, 4, CLEAN, seed=5)
        before = xb.cells.copy()
        assert tune_cell(xb, 2, 1, 90e-6, TuningSpec(tolerance=0.05)) <= 0.05
        mask = np.ones((4, 4), dtype=bool)
        mask[2, 1] = False
        assert xb.cells[mask].tobytes() == before[mask].tobytes()
        assert xb.cells["conductance"][2, 1] != before["conductance"][2, 1]

    def test_convergence_sweep_random_targets(self):
        # Reachable targets: devices whose thresholds sit inside the pulse
        # amplitude ranges can move both directions.
        spec = TuningSpec(tolerance=0.01, max_pulses=10000)
        converged = attempted = 0
        rng = np.random.default_rng(0)
        for seed in range(200):
            xb = build_crossbar(1, 1, CLEAN, seed=1000 + seed)
            if xb.cells["set_threshold"][0, 0] > spec.set_amplitude_range[1]:
                continue
            if xb.cells["reset_threshold"][0, 0] < spec.reset_amplitude_range[0]:
                continue
            target = float(rng.uniform(4e-6, 148e-6))
            attempted += 1
            converged += tune_cell(xb, 0, 0, target, spec) <= spec.tolerance
        assert attempted > 150
        assert converged == attempted


def reference_tune(xbar, row, col, target, spec):
    """One cell's staircase, pulse by pulse, on a ``MemristorDevice`` copy of
    the cell; returns its error.  The lockstep import must match it."""
    spec.validate()
    device = MemristorDevice(*xbar.cells.item(row, col))
    g = device.read_conductance(spec.v_read)
    err = tuning_error(target, g)
    if device.stuck:
        return err

    set_lo, set_hi = spec.set_amplitude_range
    reset_lo, reset_hi = spec.reset_amplitude_range   # reset_hi is the gentle end
    direction = 0
    amplitude = 0.0
    pulses = 0
    stalls = 0
    while err > spec.tolerance and pulses < spec.max_pulses:
        want = 1 if target > g else -1
        if want != direction:                     # polarity flip: restart ladder
            direction = want
            amplitude = set_lo if want > 0 else reset_hi
        before = g
        device.apply_pulse(amplitude, spec.pulse_width)
        pulses += 1
        g = device.read_conductance(spec.v_read)
        moved = abs(g - before)
        gap = abs(target - before)
        if moved < max(_EFFECT_EPS, PROGRESS_FRACTION * gap):
            at_cap = amplitude >= set_hi if direction > 0 else amplitude <= reset_lo
            if at_cap:
                if moved < _EFFECT_EPS:
                    stalls += 1
                    if stalls >= 3:               # untunable direction or rail
                        break
            elif direction > 0:
                amplitude = min(amplitude + spec.amplitude_step, set_hi)
            else:
                amplitude = max(amplitude - spec.amplitude_step, reset_lo)
        else:
            stalls = 0
        err = tuning_error(target, g)
    xbar.cells[row, col] = device_fields(device)
    return err


@functools.cache
def _formed_chip(seed):
    xb1, xb2 = build_network_crossbars(seed, DeviceVariationSpec())
    form_network(xb1, xb2, FormingSpec())
    return xb1.cells.copy(), xb2.cells.copy()


def assert_matches_reference(cells, targets, spec):
    lockstep, reference = Crossbar(cells.copy()), Crossbar(cells.copy())
    errors = import_conductance_map(lockstep, targets, spec)
    expected = np.array([[reference_tune(reference, r, c, targets[r, c], spec)
                          for c in range(reference.cols)] for r in range(reference.rows)])
    assert errors.tobytes() == expected.tobytes()
    assert lockstep.cells.tobytes() == reference.cells.tobytes()
    return errors


class TestLockstepOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    @pytest.mark.parametrize("tolerance", [0.30, 0.05, 0.01])
    def test_formed_chip(self, seed, tolerance):
        rng = np.random.default_rng(seed)
        for cells in _formed_chip(seed):
            targets = rng.uniform(10e-6, 100e-6, cells.shape)
            assert_matches_reference(cells, targets, TuningSpec(tolerance=tolerance))

    def test_pristine_array(self):
        cells = build_crossbar(5, 6, CLEAN, seed=20, pristine=True).cells
        targets = np.random.default_rng(20).uniform(10e-6, 100e-6, cells.shape)
        errors = assert_matches_reference(cells, targets, TuningSpec(tolerance=0.05))
        assert (errors > 0.05).any()

    def test_stuck_cells(self):
        spec = DeviceVariationSpec(stuck_probability=0.3)
        cells = build_crossbar(8, 11, spec, seed=21).cells
        assert cells["stuck"].any()
        targets = np.random.default_rng(21).uniform(10e-6, 100e-6, cells.shape)
        assert_matches_reference(cells, targets, TuningSpec(tolerance=0.05))

    def test_pulse_budget(self):
        cells = build_crossbar(8, 11, CLEAN, seed=22).cells
        targets = np.random.default_rng(22).uniform(10e-6, 100e-6, cells.shape)
        errors = assert_matches_reference(cells, targets,
                                          TuningSpec(tolerance=0.01, max_pulses=5))
        assert (errors > 0.01).any()

    def test_polarity_flips(self):
        # Steps wider than the tolerance band overshoot, so cells flip
        # polarity and restart at the gentle end of the other ladder.
        fast = DeviceVariationSpec(stuck_probability=0.0, kinetics_rate_range=(0.5e-6, 1e-6))
        cells = build_crossbar(8, 11, fast, seed=24).cells
        targets = np.random.default_rng(24).uniform(10e-6, 100e-6, cells.shape)
        assert_matches_reference(cells, targets, TuningSpec(tolerance=0.01))

    def test_creeping_cells_stall_out(self):
        # Pulses at the cap that move a cell by less than _EFFECT_EPS are
        # stalls; the third ends the cell with its error from before it.
        slow = DeviceVariationSpec(stuck_probability=0.0, kinetics_rate_range=(1e-16, 1e-15))
        cells = build_crossbar(4, 5, slow, seed=25).cells
        targets = np.random.default_rng(25).uniform(10e-6, 100e-6, cells.shape)
        errors = assert_matches_reference(cells, targets, TuningSpec(tolerance=0.05))
        assert (errors > 0.05).any()

    def test_stall_at_the_amplitude_cap(self):
        cells = build_crossbar(8, 11, CLEAN, seed=23).cells
        assert (cells["set_threshold"] > 0.9).any()
        targets = np.full(cells.shape, 140e-6)
        errors = assert_matches_reference(
            cells, targets, TuningSpec(tolerance=0.01, set_amplitude_range=(0.8, 0.9)))
        assert (errors > 0.01).any()

    # Compaction: once at most half of a round's cells still tune, the others
    # are stored and the rounds go on over a flat copy of the tuning ones.

    def test_rates_across_three_decades(self, verify_reads):
        # Cells finish over hundreds of rounds, so the live set halves again
        # and again in one pass; each halving reads a shorter flat copy.
        cells = _three_decade_chip()[1]
        targets = np.random.default_rng(27).uniform(10e-6, 100e-6, cells.shape)
        assert_matches_reference(cells, targets, TuningSpec(tolerance=0.05))
        assert len({shape for shape in verify_reads if len(shape) == 1}) >= 3

    def test_one_by_one_view(self):
        # A view of one cell inside a larger array: only that cell may change.
        lockstep, reference = (Crossbar(_formed_chip(2)[0].copy()) for _ in range(2))
        view = Crossbar(lockstep.cells[7:8, 4:5])
        errors = import_conductance_map(view, [[85e-6]], TuningSpec(tolerance=0.01))
        assert errors.shape == (1, 1)
        assert errors[0, 0] == reference_tune(reference, 7, 4, 85e-6, TuningSpec(tolerance=0.01))
        assert lockstep.cells.tobytes() == reference.cells.tobytes()

    def test_all_stuck_array(self, verify_reads):
        cells = build_crossbar(8, 11, DeviceVariationSpec(stuck_probability=1.0), seed=26).cells
        targets = np.random.default_rng(26).uniform(10e-6, 100e-6, cells.shape)
        errors = assert_matches_reference(cells, targets, TuningSpec(tolerance=0.05))
        assert (errors > 0.05).any()
        assert verify_reads == [cells.shape]

    def test_pass_that_needs_no_round(self, verify_reads):
        cells = _formed_chip(7)[1]
        targets = Crossbar(cells).conductances()
        assert_matches_reference(cells, targets, TuningSpec(tolerance=0.05))
        assert verify_reads.count(cells.shape) == 2      # the read above and the pass's

    # Blocks: a round takes each cell through a run of pulses at its level,
    # up to its first event; these pin the edges of a block.

    def test_conductance_outside_its_range(self, monkeypatch):
        # Cells above g_max or below g_min, pulsed further out or back toward
        # their range: each pulse is apply_pulse's from the state the array
        # holds, as for a device that skips the constructor's clamp.
        monkeypatch.setattr(MemristorDevice, "__post_init__", lambda device: None)
        cells = _formed_chip(1)[1].copy()
        rng = np.random.default_rng(41)
        high = rng.random(cells.shape) < 0.5
        cells["conductance"] = np.where(
            high, cells["g_max"] + rng.uniform(0.01e-6, 20e-6, cells.shape),
            cells["g_min"] * rng.uniform(0.2, 0.99, cells.shape))
        targets = np.where(rng.random(cells.shape) < 0.5, rng.uniform(10e-6, 100e-6, cells.shape),
                           np.where(high, 200e-6, 1e-6))
        lockstep = Crossbar(cells.copy())
        assert_matches_reference(cells, targets, TuningSpec(tolerance=0.05))
        import_conductance_map(lockstep, targets, TuningSpec(tolerance=0.05))
        moved = lockstep.cells["conductance"] != cells["conductance"]
        for side in (cells["conductance"] > cells["g_max"], cells["conductance"] < cells["g_min"]):
            assert (side & moved & (lockstep.cells["conductance"] != cells["g_max"])
                    & (lockstep.cells["conductance"] != cells["g_min"])).any()

    def test_cells_reach_a_rail_mid_block(self):
        # Fast cells with targets beyond g_max or below g_min climb in long
        # quiet runs, and the clip binds on a pulse inside a block.
        fast = DeviceVariationSpec(stuck_probability=0.0, kinetics_rate_range=(0.5e-6, 2e-6))
        cells = build_crossbar(8, 11, fast, seed=42).cells
        rng = np.random.default_rng(42)
        targets = np.where(rng.random(cells.shape) < 0.5, 160e-6, 1.5e-6)
        lockstep = Crossbar(cells.copy())
        assert_matches_reference(cells, targets, TuningSpec(tolerance=0.01))
        import_conductance_map(lockstep, targets, TuningSpec(tolerance=0.01))
        g = lockstep.cells["conductance"]
        assert (g == cells["g_max"]).any() and (g == cells["g_min"]).any()

    @pytest.mark.parametrize("max_pulses", [1, 37, 513])
    def test_budgets_that_end_mid_block(self, max_pulses):
        cells = _formed_chip(2)[1]
        targets = np.random.default_rng(43).uniform(10e-6, 100e-6, cells.shape)
        errors = assert_matches_reference(cells, targets,
                                          TuningSpec(tolerance=0.005, max_pulses=max_pulses))
        assert (errors > 0.005).any()

    def test_weak_pulses_at_the_cap_that_still_move(self, verify_reads):
        # Slow cells reach the cap of a short ladder within a few pulses, then
        # crawl: each pulse moves them by more than _EFFECT_EPS but by less
        # than PROGRESS_FRACTION of the gap.  Such pulses change nothing but
        # the state, so the crawl takes long blocks, not one round a pulse.
        slow = DeviceVariationSpec(stuck_probability=0.0, set_mu=1.0, set_sigma=0.05,
                                   kinetics_rate_range=(1e-10, 2e-10))
        cells = build_crossbar(3, 4, slow, seed=44).cells
        targets = np.full(cells.shape, 140e-6)
        spec = TuningSpec(tolerance=0.01, set_amplitude_range=(1.3, 1.4), max_pulses=600)
        lockstep = Crossbar(cells.copy())
        errors = import_conductance_map(lockstep, targets, spec)
        rounds = len(verify_reads) - 1
        assert (errors > 0.01).all()
        assert (lockstep.cells["conductance"] - cells["conductance"] > 100 * _EFFECT_EPS).all()
        assert rounds < 30
        assert_matches_reference(cells, targets, spec)

    def test_stalls_between_moving_pulses(self):
        # A cap pulse that asks for exactly _EFFECT_EPS moves a cell by a hair
        # more or less than that, so stalls and moving pulses come in turn; a
        # third stall after moving pulses keeps the error they left.
        cells = build_crossbar(4, 5, CLEAN, seed=46).cells
        cells["set_threshold"] = 1.4
        cells["kinetics_rate"] = _EFFECT_EPS
        spec = TuningSpec(tolerance=0.01, set_amplitude_range=(1.3, 1.4), max_pulses=2000)
        errors = assert_matches_reference(cells, np.full(cells.shape, 140e-6), spec)
        assert (errors > 0.01).all()

    def test_slow_cell_takes_a_round_per_block(self, monkeypatch, verify_reads):
        # One slow cell at 1% tolerance: the reference pulses it hundreds of
        # times; the lockstep reads it back at most once per four pulses.
        pulses = []
        original = MemristorDevice.apply_pulse

        def counting(self, amplitude, width):
            pulses.append(amplitude)
            return original(self, amplitude, width)

        xb = build_crossbar(1, 1, CLEAN, seed=45)
        xb.cells["conductance"] = 10e-6
        spec = TuningSpec(tolerance=0.01)
        lockstep, reference = Crossbar(xb.cells.copy()), Crossbar(xb.cells.copy())
        error = import_conductance_map(lockstep, [[120e-6]], spec)[0, 0]
        rounds = len(verify_reads) - 1
        monkeypatch.setattr(MemristorDevice, "apply_pulse", counting)
        assert error == reference_tune(reference, 0, 0, 120e-6, spec) <= 0.01
        assert lockstep.cells.tobytes() == reference.cells.tobytes()
        assert len(pulses) >= 100
        assert 4 * rounds <= len(pulses)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 3), cols=st.integers(1, 4),
           log_rate=st.floats(-11, -5.5), tolerance=st.floats(0.002, 0.5),
           amplitude_step=st.floats(0.005, 0.3), max_pulses=st.integers(1, 400))
    def test_any_small_array(self, seed, rows, cols, log_rate, tolerance, amplitude_step,
                             max_pulses):
        spec = DeviceVariationSpec(stuck_probability=0.1,
                                   kinetics_rate_range=(10.0 ** log_rate, 10.0 ** (log_rate + 1)))
        cells = build_crossbar(rows, cols, spec, seed=seed).cells
        targets = np.random.default_rng(seed).uniform(1e-6, 160e-6, cells.shape)
        assert_matches_reference(cells, targets, TuningSpec(
            tolerance=tolerance, amplitude_step=amplitude_step, max_pulses=max_pulses))


@functools.cache
def _three_decade_chip():
    """Seed 3's formed chip with kinetics rates log-uniform over 1e-8..1e-5 S."""
    rng = np.random.default_rng(26)
    chip = tuple(c.copy() for c in _formed_chip(3))
    for cells in chip:
        cells["kinetics_rate"] = 10.0 ** rng.uniform(-8, -5, cells.shape)
    return chip


@functools.cache
def _trained_maps(seed, aware):
    cells1, cells2 = _formed_chip(seed)
    defects = DefectMap.from_crossbars(Crossbar(cells1), Crossbar(cells2)) if aware else None
    cfg = TrainingConfig(seed=derive_seed(seed, "training-init"))
    return train_ex_situ(canonical_training_set(), cfg, defects=defects).pair_maps


def reference_refinement(xbar, targets, spec, passes):
    """``import_with_refinement`` as one ``import_conductance_map`` call per
    pass, retargeting between passes."""
    import_conductance_map(xbar, targets, spec)
    g_min, g_max = xbar.cells["g_min"], xbar.cells["g_max"]
    headroom = 0.05 * (g_max - g_min)
    for _ in range(passes - 1):
        retarget = np.clip(targets * targets / np.maximum(xbar.conductances(), 1e-12),
                           g_min + headroom, g_max - headroom)
        import_conductance_map(xbar, retarget, spec)
    return tuning_error(targets, xbar.conductances())


def assert_network_import_matches(cells, pair_maps, spec, passes):
    """``import_network``'s one lockstep over both arrays against per-array
    refinement, through ``import_with_refinement`` and through the reference;
    returns the merged run's arrays."""
    merged = [Crossbar(c.copy()) for c in cells]
    outcome = TrainingOutcome(weights=None, pair_maps=pair_maps, curve=[], train_fidelity=0.0)
    errors = import_network(*merged, outcome, spec, passes)
    for xb, c, error, pair_map in zip(merged, cells, errors, pair_maps):
        single, reference = Crossbar(c.copy()), Crossbar(c.copy())
        expected = reference_refinement(reference, pair_map.to_grid(), spec, passes)
        assert import_with_refinement(single, pair_map.to_grid(), spec,
                                      passes).tobytes() == expected.tobytes()
        assert error.shape == expected.shape and error.tobytes() == expected.tobytes()
        assert xb.cells.tobytes() == single.cells.tobytes() == reference.cells.tobytes()
    return merged


class TestNetworkImportOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    @pytest.mark.parametrize("aware", [True, False])
    @pytest.mark.parametrize("passes", [1, 3])
    def test_trained_chip(self, seed, aware, passes):
        cells = _formed_chip(seed)
        merged = assert_network_import_matches(cells, _trained_maps(seed, aware),
                                               TuningSpec(tolerance=0.30), passes)
        assert all(xb.cells.tobytes() != c.tobytes() for xb, c in zip(merged, cells))

    def test_rates_across_three_decades(self):
        # The fastest cells step past the 5% band, so passes run out of
        # pulse budget with only a few cells left in the round.
        maps = tuple(ConductancePairMap.from_grid(
            np.random.default_rng(33).uniform(10e-6, 100e-6, c.shape)) for c in _formed_chip(3))
        assert_network_import_matches(_three_decade_chip(), maps,
                                      TuningSpec(tolerance=0.05, max_pulses=1000), 3)

    def test_all_stuck_arrays(self):
        spec = DeviceVariationSpec(stuck_probability=1.0)
        cells = tuple(build_crossbar(*shape, spec, seed=34 + k).cells
                      for k, shape in enumerate(((20, 17), (8, 11))))
        maps = tuple(ConductancePairMap.from_grid(
            np.random.default_rng(34).uniform(10e-6, 100e-6, c.shape)) for c in cells)
        merged = assert_network_import_matches(cells, maps, TuningSpec(tolerance=0.30), 3)
        assert all(xb.cells.tobytes() == c.tobytes() for xb, c in zip(merged, cells))

    def test_passes_that_need_no_round(self, verify_reads):
        # Formed cells inside the retarget headroom, each on its own target.
        rng = np.random.default_rng(35)
        cells = tuple(build_crossbar(*shape, CLEAN, seed=35 + k).cells
                      for k, shape in enumerate(((20, 17), (8, 11))))
        for c in cells:
            c["conductance"] = rng.uniform(20e-6, 100e-6, c.shape)
        maps = tuple(ConductancePairMap.from_grid(c["conductance"].copy()) for c in cells)
        merged = assert_network_import_matches(cells, maps, TuningSpec(tolerance=0.05), 3)
        assert all(xb.cells.tobytes() == c.tobytes() for xb, c in zip(merged, cells))
        assert verify_reads.count((1, 20 * 17 + 8 * 11)) == 2 * 3   # no round read

    def test_retargets_clip_to_the_headroom(self):
        # Targets across the whole device range push retargets past g_min and
        # g_max less 5% headroom, where the clip binds.
        rng = np.random.default_rng(32)
        maps = tuple(ConductancePairMap.from_grid(rng.uniform(2.5e-6, 149e-6, c.shape))
                     for c in _formed_chip(1))
        assert_network_import_matches(_formed_chip(1), maps, TuningSpec(tolerance=0.30), 2)

    @pytest.mark.parametrize("passes", [1, 2, 3])
    def test_array_inside_tolerance_is_left_alone(self, verify_reads, passes):
        # The 8x11 array starts on target, so alone it takes no pulse round;
        # in the shared lockstep it rides along the 20x17 array's rounds.
        xb1, xb2 = build_crossbar(20, 17, CLEAN, seed=30), build_crossbar(8, 11, CLEAN, seed=31)
        xb2.cells["conductance"] = np.random.default_rng(31).uniform(20e-6, 100e-6, (8, 11))
        maps = (ConductancePairMap.from_grid(
                    np.random.default_rng(30).uniform(10e-6, 100e-6, (20, 17))),
                ConductancePairMap.from_grid(xb2.cells["conductance"].copy()))
        merged = assert_network_import_matches((xb1.cells, xb2.cells), maps,
                                               TuningSpec(tolerance=0.05), passes)
        # Each of the two per-array paths reads 2 * passes times and pulses never.
        assert verify_reads.count((8, 11)) == 2 * 2 * passes
        assert verify_reads.count((1, 20 * 17 + 8 * 11)) > 2 * passes
        assert merged[1].cells.tobytes() == xb2.cells.tobytes()

    def test_disturbing_read_changes_neither_array(self):
        cells1, cells2 = (c.copy() for c in _formed_chip(0))
        r, c = np.argwhere(cells2["formed"])[0]
        cells2["set_threshold"][r, c] = 0.15             # below the 0.2 V read
        xb1, xb2 = Crossbar(cells1.copy()), Crossbar(cells2.copy())
        outcome = TrainingOutcome(weights=None, pair_maps=_trained_maps(0, False), curve=[],
                                  train_fidelity=0.0)
        with pytest.raises(ConfigurationError):
            import_network(xb1, xb2, outcome, TuningSpec(tolerance=0.30))
        assert xb1.cells.tobytes() == cells1.tobytes()
        assert xb2.cells.tobytes() == cells2.tobytes()

    def test_swapped_arrays_are_rejected(self):
        # Both orders hold 428 cells, so only the per-array shapes tell them apart.
        xb1, xb2 = (Crossbar(c.copy()) for c in _formed_chip(0))
        outcome = TrainingOutcome(weights=None, pair_maps=_trained_maps(0, False), curve=[],
                                  train_fidelity=0.0)
        with pytest.raises(ConfigurationError):
            import_network(xb2, xb1, outcome, TuningSpec(tolerance=0.30))
        assert [xb.cells.tobytes() for xb in (xb1, xb2)] == [c.tobytes() for c in _formed_chip(0)]


class TestPassCount:
    """Fewer than one write-and-verify pass is an error before any pulse."""

    @pytest.mark.parametrize("passes", [0, -3])
    def test_import_with_refinement(self, passes):
        xb = Crossbar(_formed_chip(0)[1].copy())
        targets = np.random.default_rng(40).uniform(10e-6, 100e-6, xb.cells.shape)
        with pytest.raises(ConfigurationError, match="pass"):
            import_with_refinement(xb, targets, TuningSpec(tolerance=0.30), passes=passes)
        assert xb.cells.tobytes() == _formed_chip(0)[1].tobytes()

    def test_import_network(self):
        xb1, xb2 = (Crossbar(c.copy()) for c in _formed_chip(0))
        outcome = TrainingOutcome(weights=None, pair_maps=_trained_maps(0, False), curve=[],
                                  train_fidelity=0.0)
        with pytest.raises(ConfigurationError, match="pass"):
            import_network(xb1, xb2, outcome, TuningSpec(tolerance=0.30), refine_passes=0)
        assert [xb.cells.tobytes() for xb in (xb1, xb2)] == [c.tobytes() for c in _formed_chip(0)]

    def test_pipeline(self):
        cfg = ExperimentConfig(training=TrainingConfig(epochs=5, finetune_epochs=5),
                               tuning=TuningSection(refine_passes=0))
        with pytest.raises(ConfigurationError, match="pass"):
            run_ex_situ_pipeline(0, aware=False, cfg=cfg)


class TestPerCellAmplitude:
    """Each cell keeps only its present amplitude: no ladder is built up front."""

    def test_fine_steps_allocate_no_ladder(self):
        # 0.2 V ranges at 1e-5 V steps: each ladder would hold max_pulses =
        # 10,000 levels, a (20,000 x 9) float table of 1.44 MB.  The ranges
        # sit past every threshold and the rates are fast, so cells move at once.
        fast = DeviceVariationSpec(stuck_probability=0.0, kinetics_rate_range=(1e-6, 2e-6))
        xb = build_crossbar(3, 3, fast, seed=7)
        spec = TuningSpec(tolerance=0.05, set_amplitude_range=(1.3, 1.5),
                          reset_amplitude_range=(-1.8, -1.6), amplitude_step=1e-5)
        assert 0.2 / spec.amplitude_step >= spec.max_pulses == 10_000
        table = 2 * spec.max_pulses * xb.cells.size * 8
        targets = np.random.default_rng(7).uniform(10e-6, 100e-6, xb.cells.shape)
        tracemalloc.start()
        try:
            errors = import_conductance_map(xb, targets, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (errors <= spec.tolerance).all()
        assert peak < table / 4

    @pytest.mark.parametrize("max_pulses", [10_000, 1])
    def test_overflowing_cap_raises_before_any_pulse(self, max_pulses):
        # exp(overvoltage / 0.5 mV) overflows past ~0.355 V of overvoltage: the
        # gentle ends (0.3 V over) move every cell, the caps (1.0 V over) do not
        # fit a float.  The cap is checked even when max_pulses stops short of it.
        cells = build_crossbar(2, 2, CLEAN, seed=8).cells
        cells["set_threshold"], cells["reset_threshold"] = 0.5, -0.5
        cells["kinetics_voltage_scale"], cells["kinetics_rate"] = 5e-4, 1e-270
        xb, before = Crossbar(cells.copy()), cells.copy()
        spec = TuningSpec(max_pulses=max_pulses)
        with pytest.raises(ConfigurationError, match="kinetics_voltage_scale"):
            import_conductance_map(xb, np.full(cells.shape, 60e-6), spec)
        assert xb.cells.tobytes() == before.tobytes()


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
                tune_cell(xb, r, c, targets[r, c], TuningSpec(tolerance=0.05))
        assert xa.cells.tobytes() == xb.cells.tobytes()

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
