import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from xbarsim.device import (CELL_DTYPE, DeviceVariationSpec, MemristorDevice,
                            currents, device_fields, draw_cells, pulse_runs,
                            sample_device, switching_steps,
                            FORMING_CURRENT_MU, FORMING_CURRENT_SIGMA,
                            POST_FORMING_CONDUCTANCE_RANGE, PREFORMED_PROBABILITY,
                            PREFORMED_RESISTANCE_RANGE, PRISTINE_RESISTANCE_RANGE,
                            PULSE_WIDTH_REF, SAFE_READ_VOLTAGE,
                            _MIN_FORMING_CURRENT, _MIN_THRESHOLD, _spread)
from xbarsim.errors import ConfigurationError
from xbarsim.rng import stream, streams


def make_device(**kw):
    base = dict(conductance=50e-6, set_threshold=1.0, reset_threshold=-1.2)
    base.update(kw)
    return MemristorDevice(**base)


def reference_uniform(rng, bounds):
    """``float(rng.uniform(lo, hi))`` bit for bit, the expression numpy's
    ``random_uniform`` evaluates; a degenerate range makes no draw."""
    lo, hi = map(float, bounds)
    if lo == hi:
        return lo
    return lo + (hi - lo) * rng.random()


def reference_cell(spec, rng, pristine=False):
    """One device's fields in ``CELL_DTYPE`` order, drawn one scalar call at a
    time in the documented order, with Python's ``max``/``min`` clamps."""
    set_th = max(_MIN_THRESHOLD, float(rng.normal(spec.set_mu, spec.set_sigma)))
    reset_th = min(-_MIN_THRESHOLD, float(rng.normal(spec.reset_mu, spec.reset_sigma)))
    stuck = rng.random() < spec.stuck_probability
    stuck_value = reference_uniform(rng, spec.stuck_conductance_range)
    g_init = reference_uniform(rng, spec.g_init_range)
    rate = reference_uniform(rng, spec.kinetics_rate_range)
    preformed = rng.random() < PREFORMED_PROBABILITY and not stuck
    pristine_r = reference_uniform(
        rng, PREFORMED_RESISTANCE_RANGE if preformed else PRISTINE_RESISTANCE_RANGE)
    if stuck:
        forming_i = math.inf
    else:
        forming_i = max(_MIN_FORMING_CURRENT,
                        float(rng.normal(FORMING_CURRENT_MU, FORMING_CURRENT_SIGMA)))
    post_g = reference_uniform(rng, POST_FORMING_CONDUCTANCE_RANGE)
    conductance = min(max(stuck_value if stuck else g_init, spec.g_min), spec.g_max)
    return (conductance, set_th, reset_th, spec.g_min, spec.g_max,
            spec.nonlinearity_alpha, rate, spec.kinetics_voltage_scale, stuck,
            not pristine, pristine_r, forming_i, post_g, stuck_value)


@st.composite
def variation_specs(draw):
    """Specs whose ranges are each degenerate or not, with sigmas that may be 0
    and a stuck probability of 0, 1 or in between."""
    def bounds(lo, hi):
        a = draw(st.floats(lo, hi))
        return (a, a) if draw(st.booleans()) else tuple(sorted((a, draw(st.floats(lo, hi)))))
    g_min = draw(st.floats(1e-6, 60e-6))
    return DeviceVariationSpec(
        set_mu=draw(st.floats(-0.5, 2.0)), set_sigma=draw(st.just(0.0) | st.floats(0.0, 0.5)),
        reset_mu=draw(st.floats(-2.0, 0.5)), reset_sigma=draw(st.just(0.0) | st.floats(0.0, 0.5)),
        stuck_probability=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        stuck_conductance_range=bounds(0.0, 200e-6), g_init_range=bounds(0.0, 200e-6),
        g_min=g_min, g_max=draw(st.floats(g_min, 200e-6)),
        kinetics_rate_range=bounds(0.0, 0.3e-6)).validate()


class TestSampling:
    def test_threshold_statistics_match_population(self):
        spec = DeviceVariationSpec(stuck_probability=0.0)
        draws = [sample_device(spec, stream(0, "stat", i)).set_threshold
                 for i in range(10000)]
        assert abs(np.mean(draws) - 1.0) < 0.01
        assert abs(np.std(draws) - 0.13) < 0.01

    def test_degenerate_sigmas_give_exact_thresholds(self):
        spec = DeviceVariationSpec(set_sigma=0.0, reset_sigma=0.0,
                                   stuck_probability=0.0)
        for i in range(20):
            d = sample_device(spec, stream(1, i))
            assert d.set_threshold == spec.set_mu
            assert d.reset_threshold == spec.reset_mu

    def test_stuck_count_binomial(self):
        # 400 devices at p=0.025: mean stuck count 10, se of the mean over
        # 300 seeds is sqrt(400*p*(1-p)/300) ~ 0.18.
        spec = DeviceVariationSpec(stuck_probability=0.025)
        counts = []
        for seed in range(300):
            gens = streams(seed, [("stuck", i) for i in range(400)])
            count = sum(sample_device(spec, gen).stuck for gen in gens)
            counts.append(count)
        assert abs(np.mean(counts) - 10.0) < 0.8

    def test_same_seed_same_device(self):
        spec = DeviceVariationSpec()
        a = sample_device(spec, stream(3, "x"))
        b = sample_device(spec, stream(3, "x"))
        assert a == b

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            DeviceVariationSpec(stuck_probability=1.5).validate()
        with pytest.raises(ConfigurationError):
            DeviceVariationSpec(set_sigma=-0.1).validate()
        with pytest.raises(ConfigurationError):
            DeviceVariationSpec(g_init_range=(5e-6, 1e-6)).validate()
        # A spec whose devices could not exist: negative rates.
        with pytest.raises(ConfigurationError):
            DeviceVariationSpec(kinetics_rate_range=(-0.05e-6, -0.02e-6)).validate()

    @pytest.mark.parametrize("bounds", [(0.0, math.inf), (-1e308, 1e308), (math.nan, 1.0)])
    def test_range_of_unbounded_width_rejected(self, bounds):
        with pytest.raises(ConfigurationError):
            DeviceVariationSpec(g_init_range=bounds).validate()

    @pytest.mark.parametrize("bounds", [(10e-6, 100e-6), (-2.5, 7), (0.0, 1.0)])
    def test_uniform_draw_equals_generator_uniform(self, bounds):
        ours, numpys, ref = (stream(9, "uniform") for _ in range(3))
        want = [float(numpys.uniform(*bounds)) for _ in range(2000)]
        assert _spread(tuple(map(float, bounds)), ours.random(2000)).tolist() == want
        assert [reference_uniform(ref, bounds) for _ in range(2000)] == want
        assert ours.bit_generator.state == numpys.bit_generator.state == ref.bit_generator.state

    def test_degenerate_range_makes_no_draw(self):
        rng = stream(9, "uniform")
        before = rng.bit_generator.state
        assert reference_uniform(rng, (3e-6, 3e-6)) == 3e-6
        assert rng.bit_generator.state == before

    @settings(max_examples=150, deadline=None)
    @given(spec=variation_specs(), seed=st.integers(0, 2**40), pristine=st.booleans())
    @example(spec=DeviceVariationSpec(g_init_range=(50e-6, 50e-6)), seed=3, pristine=False)
    def test_draw_cells_equal_scalar_reference(self, spec, seed, pristine):
        labels = [("cell", i) for i in range(12)]
        gens = list(streams(seed, labels))
        refs = [stream(seed, *address) for address in labels]
        want = np.array([reference_cell(spec, rng, pristine) for rng in refs], dtype=CELL_DTYPE)
        assert draw_cells(spec, gens, pristine).tobytes() == want.tobytes()
        # Each stream is left where the scalar draws leave it.
        assert [g.random() for g in gens] == [rng.random() for rng in refs]

    @pytest.mark.parametrize("spec", [
        DeviceVariationSpec(), DeviceVariationSpec(stuck_probability=1.0),
        DeviceVariationSpec(set_sigma=0.0, g_init_range=(50e-6, 50e-6),
                            kinetics_rate_range=(0.03e-6, 0.03e-6))],
        ids=["default", "always-stuck", "degenerate"])
    @pytest.mark.parametrize("pristine", [False, True])
    def test_sample_device_equals_scalar_reference(self, spec, pristine):
        for i in range(40):
            got = sample_device(spec, stream(50, i), pristine)
            want = reference_cell(spec, stream(50, i), pristine)
            assert (np.array(device_fields(got), dtype=CELL_DTYPE).tobytes()
                    == np.array(want, dtype=CELL_DTYPE).tobytes())


class TestStaticIV:
    def test_ohms_law_at_zero_alpha(self):
        d = make_device(conductance=50e-6, nonlinearity_alpha=0.0)
        assert d.current(0.2) == pytest.approx(10e-6, rel=1e-12)

    def test_zero_voltage_zero_current(self):
        assert make_device().current(0.0) == 0.0

    def test_cubic_correction(self):
        d = make_device(conductance=50e-6, nonlinearity_alpha=1.0)
        assert d.current(0.6) == pytest.approx(50e-6 * 0.6 * 1.36, rel=1e-12)

    def test_safe_bound_enforced(self):
        with pytest.raises(ValueError):
            make_device().current(2.6)

    def test_read_conductance_at_bias(self):
        d = make_device(conductance=11.9e-6)
        assert d.read_conductance(0.2) == pytest.approx(11.9e-6, rel=1e-12)
        assert 1.0 / d.read_conductance(0.2) == pytest.approx(84034, rel=1e-3)

    def test_read_independent_of_bias_when_linear(self):
        d = make_device(conductance=37e-6)
        assert d.read_conductance(0.2) == pytest.approx(d.read_conductance(0.1), rel=1e-12)

    def test_read_bias_dependence_with_alpha(self):
        d = make_device(conductance=40e-6, nonlinearity_alpha=2.0)
        ratio = d.read_conductance(0.2) / d.read_conductance(0.1)
        assert ratio == pytest.approx((1 + 2.0 * 0.04) / (1 + 2.0 * 0.01), rel=1e-12)

    def test_zero_read_voltage_rejected(self):
        with pytest.raises(ValueError):
            make_device().read_conductance(0.0)

    def test_disturbing_read_rejected(self):
        # A formed device (the default) switches at set_threshold = 1.0 V.
        with pytest.raises(ValueError, match="would disturb"):
            make_device().read_conductance(1.1)

    def test_reads_are_side_effect_free(self):
        d = make_device(conductance=42e-6)
        values = {d.read_conductance(0.2) for _ in range(10)}
        assert len(values) == 1


class TestCurrents:
    """``currents`` is ``MemristorDevice.current`` of a grid of formed devices."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 4), cols=st.integers(1, 4),
           v=st.sampled_from([0.1, 0.2, -0.2, SAFE_READ_VOLTAGE])
           | st.floats(-SAFE_READ_VOLTAGE, SAFE_READ_VOLTAGE).filter(bool),
           set_threshold=st.floats(0.05, 2.0), reset_threshold=st.floats(-2.0, -0.05))
    def test_equals_current_bit_for_bit(self, data, rows, cols, v, set_threshold,
                                        reset_threshold):
        cells = st.lists(st.tuples(st.floats(2e-6, 150e-6), st.floats(0.0, 5.0)),
                         min_size=rows * cols, max_size=rows * cols)
        g, alpha = np.array(data.draw(cells)).reshape(rows, cols, 2).transpose(2, 0, 1)
        devs = [make_device(conductance=gi, nonlinearity_alpha=ai, set_threshold=set_threshold,
                            reset_threshold=reset_threshold)
                for gi, ai in zip(g.ravel().tolist(), alpha.ravel().tolist())]
        i = currents(g, alpha, v)
        assert i.shape == (rows, cols)
        assert i.tobytes() == np.array([d.current(v) for d in devs]).tobytes()
        if abs(v) <= min(set_threshold, -reset_threshold):
            read = np.array([d.read_conductance(v) for d in devs])
            assert (i / v).tobytes() == read.tobytes()


class TestPulses:
    def test_subthreshold_pulse_ignored(self):
        d = make_device(set_threshold=0.8)
        before = d.conductance
        d.apply_pulse(0.5)
        assert d.conductance == before

    def test_above_threshold_increases(self):
        d = make_device(set_threshold=1.0, conductance=20e-6)
        d.apply_pulse(1.3)
        assert d.conductance > 20e-6

    def test_update_magnitude_formula(self):
        d = make_device(set_threshold=1.0, conductance=20e-6,
                        kinetics_rate=0.05e-6, kinetics_voltage_scale=0.3)
        d.apply_pulse(1.3, width=PULSE_WIDTH_REF)
        expected = 20e-6 + 0.05e-6 * math.exp(0.3 / 0.3)
        assert d.conductance == pytest.approx(expected, rel=1e-12)

    def test_width_scales_update(self):
        a = make_device(conductance=20e-6)
        b = make_device(conductance=20e-6)
        a.apply_pulse(1.2, width=PULSE_WIDTH_REF)
        b.apply_pulse(1.2, width=2 * PULSE_WIDTH_REF)
        da = a.conductance - 20e-6
        db = b.conductance - 20e-6
        assert db == pytest.approx(2 * da, rel=1e-12)

    def test_repeated_set_pulses_reach_fixed_point(self):
        d = make_device(conductance=20e-6, kinetics_rate=5e-6)
        for _ in range(200):
            d.apply_pulse(1.5)
        assert d.conductance == d.g_max
        d.apply_pulse(1.5)
        assert d.conductance == d.g_max

    def test_negative_pulse_decreases(self):
        d = make_device(conductance=50e-6)
        d.apply_pulse(-1.5)
        assert d.conductance < 50e-6

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            make_device().apply_pulse(1.2, width=0.0)


class TestProperties:
    def test_random_pulse_trains_respect_bounds_and_monotonicity(self):
        spec = DeviceVariationSpec(stuck_probability=0.0)
        rng = np.random.default_rng(11)
        for i in range(500):
            d = sample_device(spec, stream(20, i))
            for _ in range(20):
                amp = float(rng.uniform(-2.2, 2.2))
                before = d.conductance
                d.apply_pulse(amp, width=float(rng.uniform(1e-4, 2e-3)))
                assert d.g_min <= d.conductance <= d.g_max
                if amp >= 0:
                    assert d.conductance >= before
                else:
                    assert d.conductance <= before

    def test_stuck_devices_never_move(self):
        spec = DeviceVariationSpec(stuck_probability=1.0)
        rng = np.random.default_rng(7)
        for i in range(50):
            d = sample_device(spec, stream(30, i))
            frozen = d.conductance
            for _ in range(50):
                d.apply_pulse(float(rng.uniform(-2.4, 2.4)))
            assert d.conductance == frozen

    def test_unformed_devices_ignore_pulses(self):
        spec = DeviceVariationSpec(stuck_probability=0.0)
        d = sample_device(spec, stream(40, 0), pristine=True)
        g = d.effective_conductance()
        d.apply_pulse(2.0)
        assert d.effective_conductance() == g
        assert g == pytest.approx(1.0 / d.pristine_resistance, rel=1e-12)


devices = st.builds(
    MemristorDevice,
    conductance=st.floats(2e-6, 150e-6),
    set_threshold=st.floats(0.05, 2.0),
    reset_threshold=st.floats(-2.0, -0.05),
    kinetics_rate=st.floats(0.0, 5e-6),
    kinetics_voltage_scale=st.floats(0.05, 1.0),
    stuck=st.booleans(),
    formed=st.booleans(),
)


class TestSwitchingStep:
    @settings(max_examples=300, deadline=None)
    @given(dev=devices, amplitude=st.floats(-2.4, 2.4), width=st.floats(1e-6, 1e-2))
    def test_apply_pulse_adds_clamped_step(self, dev, amplitude, width):
        g = dev.conductance
        step = dev.switching_step(amplitude, width)
        dev.apply_pulse(amplitude, width)
        assert dev.conductance == min(max(g + step, dev.g_min), dev.g_max)
        if dev.stuck or not dev.formed or dev.reset_threshold < amplitude < dev.set_threshold:
            assert step == 0.0
        elif amplitude > 0:
            assert step >= 0.0
        else:
            assert step <= 0.0

    @settings(max_examples=50, deadline=None)
    @given(dev=devices, amplitude=st.floats(-2.4, 2.4), width=st.floats(-1.0, 0.0))
    def test_non_positive_width_raises(self, dev, amplitude, width):
        with pytest.raises(ValueError):
            dev.switching_step(amplitude, width)
        with pytest.raises(ValueError):
            dev.apply_pulse(amplitude, width)


def _cells(devs):
    return np.array([device_fields(d) for d in devs], dtype=CELL_DTYPE).reshape(1, -1)


@st.composite
def amplitude_for(draw, devs):
    """Any amplitude, or one that sits exactly on a device's threshold."""
    at_threshold = st.sampled_from([t for d in devs
                                    for t in (d.set_threshold, d.reset_threshold)])
    return draw(st.floats(-2.4, 2.4) | at_threshold)


class TestSwitchingSteps:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), devs=st.lists(devices, min_size=1, max_size=12),
           width=st.sampled_from([PULSE_WIDTH_REF, 1e-6, 100e-6, 1e-3]) | st.floats(1e-6, 1e-2))
    def test_equals_switching_step_bit_for_bit(self, data, devs, width):
        amplitude = data.draw(amplitude_for(devs))
        expected = np.array([[d.switching_step(amplitude, width) for d in devs]])
        assert switching_steps(_cells(devs), amplitude, width).tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), devs=st.lists(devices, min_size=1, max_size=12),
           width=st.floats(1e-6, 1e-2))
    def test_amplitudes_broadcast_against_cells(self, data, devs, width):
        # One amplitude per cell, often on one of that cell's thresholds.
        amplitudes = np.array([[data.draw(amplitude_for([d])) for d in devs]])
        expected = np.array([[d.switching_step(a, width)
                              for d, a in zip(devs, amplitudes[0].tolist())]])
        steps = switching_steps(_cells(devs), amplitudes, width)
        assert steps.tobytes() == expected.tobytes()
        # A column of two amplitudes, as the Manhattan trainer asks: one row each.
        a, cells = data.draw(amplitude_for(devs)), _cells(devs).ravel()
        rows = switching_steps(cells, [[a], [-a]], width)
        expected = np.stack([switching_steps(cells, a, width), switching_steps(cells, -a, width)])
        assert rows.shape == (2, len(devs)) and rows.tobytes() == expected.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(devs=st.lists(devices, min_size=1, max_size=4),
           amplitude=st.floats(-2.4, 2.4), width=st.floats(-1.0, 0.0))
    def test_non_positive_width_raises(self, devs, amplitude, width):
        with pytest.raises(ValueError):
            switching_steps(_cells(devs), amplitude, width)


@st.composite
def ranged_devices(draw):
    """A device of any state in a range of its own, often one its pulses cross."""
    g_min = draw(st.floats(1e-6, 50e-6))
    g_max = g_min + draw(st.just(0.0) | st.floats(0.0, 150e-6))
    return MemristorDevice(
        conductance=draw(st.floats(g_min, g_max)), g_min=g_min, g_max=g_max,
        set_threshold=draw(st.floats(0.05, 2.0)), reset_threshold=draw(st.floats(-2.0, -0.05)),
        kinetics_rate=draw(st.floats(0.0, 5e-6)),
        kinetics_voltage_scale=draw(st.floats(0.05, 1.0)),
        stuck=draw(st.booleans()), formed=draw(st.booleans()))


def _pulse_trains(devs, amplitudes, n):
    """Each device's conductance after 0..n ``apply_pulse`` calls, rows first."""
    rows = []
    for _ in range(n + 1):
        rows.append([d.conductance for d in devs])
        for d, a in zip(devs, amplitudes):
            d.apply_pulse(a)
    return np.array(rows)


def _runs(devs, amplitudes, longest, shape):
    cells = _cells(devs).reshape(shape)
    step = np.array([d.switching_step(a) for d, a in zip(devs, amplitudes)]).reshape(shape)
    return pulse_runs(cells["conductance"], step, cells["g_min"], cells["g_max"], longest)


class TestPulseRuns:
    """Row j of ``pulse_runs`` is j ``MemristorDevice.apply_pulse`` calls."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 4), cols=st.integers(1, 4),
           longest=st.integers(1, 64))
    def test_row_j_is_j_pulses_bit_for_bit(self, data, rows, cols, longest):
        # Formed, stuck and unformed cells; set, reset and sub-threshold pulses.
        devs = data.draw(st.lists(ranged_devices(), min_size=rows * cols,
                                  max_size=rows * cols))
        amplitudes = [data.draw(amplitude_for([d])) for d in devs]
        run = _runs(devs, amplitudes, longest, (rows, cols))
        # At most 16 cells move, so the block is twice the longest run.
        assert run.shape == (2 * longest + 1, rows, cols)
        expected = _pulse_trains(devs, amplitudes, 2 * longest)
        assert run.tobytes() == expected.reshape(run.shape).tobytes()

    def test_runs_stop_on_the_rails(self):
        devs = [make_device(conductance=120e-6, kinetics_rate=2e-6),
                make_device(conductance=30e-6, kinetics_rate=2e-6),
                make_device(conductance=60e-6, kinetics_rate=2e-6, formed=False),
                make_device(conductance=60e-6, kinetics_rate=2e-6, stuck=True)]
        amplitudes = [1.5, -1.7, 1.5, -1.7]
        run = _runs(devs, amplitudes, 4, (2, 2))
        expected = _pulse_trains(devs, amplitudes, 8)
        assert run.tobytes() == expected.reshape(run.shape).tobytes()
        assert run[-1].ravel().tolist() == [150e-6, 2e-6, 60e-6, 60e-6]
        assert run[2, 0, 0] < 150e-6 and run[2, 0, 1] > 2e-6   # reached mid-block

    @pytest.mark.parametrize("moving, longest, length", [
        (0, 1000, 512), (1, 1000, 512), (4, 1000, 512), (100, 1000, 20), (300, 1000, 8),
        (1000, 1000, 8), (100, 3, 6), (1, 1, 2)])
    def test_block_length(self, moving, longest, length):
        # About 2048 pulses over the moving cells, 8..512 each, at most 2 * longest.
        g = np.full(1000, 50e-6)
        step = np.where(np.arange(1000) < moving, 1e-9, 0.0)
        assert pulse_runs(g, step, 2e-6, 150e-6, longest).shape == (length + 1, 1000)
