import json

import numpy as np
import pytest

from xbarsim.crossbar import build_crossbar
from xbarsim.device import CELL_DTYPE, DeviceVariationSpec, MemristorDevice, device_fields
from xbarsim.errors import ConfigurationError
from xbarsim.forming import (ESCALATION, LOW_CONDUCTANCE_TARGET, PRISTINE_READ_V,
                             RESET_AMPLITUDE_FLOOR, RESET_AMPLITUDE_STEP, RESET_PULSE_BUDGET,
                             RESET_PULSE_WIDTH, FormingSpec, form_all,
                             STATUS_DEFECTIVE, STATUS_FORMED, STATUS_PREFORMED)

CLEAN = DeviceVariationSpec(stuck_probability=0.0)


def pristine_crossbar(rows=4, cols=4, spec=CLEAN, seed=0):
    return build_crossbar(rows, cols, spec, seed=seed, pristine=True)


def cell(xb, row, col):
    return MemristorDevice(*xb.cells.item(row, col))


def form_cell(xb, row, col, spec):
    """Form the whole array; returns the cell's report entry and device."""
    report = form_all(xb, spec)
    return report["devices"][row * xb.cols + col], cell(xb, row, col)


class TestFormDevice:
    def test_preformed_device_skips_sweeps(self):
        xb = pristine_crossbar()
        xb.cells["pristine_resistance"][0, 0] = 4e4   # below the pristine threshold
        out, d = form_cell(xb, 0, 0, FormingSpec())
        assert out["status"] == STATUS_PREFORMED
        assert out["attempts"] == 0
        assert d.formed
        assert d.conductance <= LOW_CONDUCTANCE_TARGET

    def test_first_ceiling_success(self):
        xb = pristine_crossbar()
        xb.cells["pristine_resistance"][0, 1] = 5e6
        xb.cells["forming_current"][0, 1] = 100e-6    # below I_start
        out, d = form_cell(xb, 0, 1, FormingSpec())
        assert out["status"] == STATUS_FORMED
        assert out["attempts"] == 1
        assert d.formed
        assert d.conductance <= LOW_CONDUCTANCE_TARGET

    def test_unformable_device_exhausts_both_rounds(self):
        xb = pristine_crossbar()
        xb.cells["forming_current"][1, 1] = float("inf")
        spec = FormingSpec(max_attempts=5, max_rounds=2)
        out, d = form_cell(xb, 1, 1, spec)
        assert out["status"] == STATUS_DEFECTIVE
        assert out["attempts"] == 10         # max_attempts * max_rounds
        assert len(out["trace"]) == 10
        assert d.stuck

    def test_sweep_ceilings_escalate_between_rounds(self):
        xb = pristine_crossbar()
        # Formable only with the round-2 escalated ceiling.
        xb.cells["forming_current"][2, 2] = FormingSpec().I_stop * 1.1
        out, _ = form_cell(xb, 2, 2, FormingSpec())
        assert out["status"] == STATUS_FORMED
        assert out["attempts"] > FormingSpec().max_attempts

    def test_attempts_never_exceed_budget(self):
        spec = FormingSpec(max_attempts=7, max_rounds=3)
        for seed in range(10):
            report = form_all(pristine_crossbar(seed=seed), spec)
            assert all(e["attempts"] <= spec.max_attempts * spec.max_rounds
                       for e in report["devices"])


class TestFormAll:
    def test_two_percent_stuck_population(self):
        spec = DeviceVariationSpec(stuck_probability=0.02)
        fractions = []
        for seed in range(12):
            xb = build_crossbar(20, 20, spec, seed=seed, pristine=True)
            report = form_all(xb, FormingSpec())
            fractions.append(report["defective_fraction"])
        assert abs(np.mean(fractions) - 0.02) < 0.01

    def test_report_lists_every_cell_in_row_major_order(self):
        xb = pristine_crossbar(3, 5)
        report = form_all(xb, FormingSpec())
        assert [(e["row"], e["col"]) for e in report["devices"]] == [
            (r, c) for r in range(3) for c in range(5)]
        assert all(type(e["row"]) is int and type(e["col"]) is int
                   for e in report["devices"])

    def test_formed_devices_end_low_and_defective_are_stuck(self):
        spec = DeviceVariationSpec(stuck_probability=0.05)
        xb = build_crossbar(10, 10, spec, seed=3, pristine=True)
        fspec = FormingSpec()
        report = form_all(xb, fspec)
        for entry in report["devices"]:
            d = cell(xb, entry["row"], entry["col"])
            if entry["status"] == STATUS_DEFECTIVE:
                assert d.stuck
            else:
                assert d.formed and not d.stuck
                assert d.conductance <= LOW_CONDUCTANCE_TARGET * 1.001

    def test_rerun_is_rejected(self):
        xb = pristine_crossbar(6, 6, seed=4)
        fspec = FormingSpec()
        form_all(xb, fspec)
        state = xb.cells.copy()
        with pytest.raises(ConfigurationError, match="pristine"):
            form_all(xb, fspec)
        assert xb.cells.tobytes() == state.tobytes()

    def test_overflowing_reset_floor_raises(self):
        # Every reset threshold is -1.2 V: the first reset pulse (-1.3 V, 0.1 V
        # over) takes a cell to the target at once, while the floor (0.7 V
        # over) overflows exp(overvoltage / 0.5 mV).  The floor is checked anyway.
        spec = DeviceVariationSpec(stuck_probability=0.0, reset_sigma=0.0,
                                   kinetics_voltage_scale=5e-4)
        xb = pristine_crossbar(4, 4, spec, seed=5)
        before = xb.cells.copy()
        with pytest.raises(ConfigurationError, match="kinetics_voltage_scale"):
            form_all(xb, FormingSpec())
        assert xb.cells.tobytes() == before.tobytes()


def _reset_to_low(device: MemristorDevice, spec: FormingSpec):
    """Drive a formed device into a low-conductance state with reset pulses.

    The flow uses a fixed V_reset, but a device whose reset threshold lies
    below |V_reset| would never move, so the amplitude escalates whenever a
    pulse has no effect.
    """
    if device.stuck or not device.formed:
        return
    amplitude = spec.V_reset
    for _ in range(RESET_PULSE_BUDGET):
        if device.conductance <= LOW_CONDUCTANCE_TARGET:
            return
        before = device.conductance
        device.apply_pulse(amplitude, RESET_PULSE_WIDTH)
        if device.conductance >= before:            # ineffective: escalate
            if amplitude <= RESET_AMPLITUDE_FLOOR:
                return
            amplitude = max(amplitude - RESET_AMPLITUDE_STEP,
                            RESET_AMPLITUDE_FLOOR)


def _sweep(device: MemristorDevice, ceiling: float):
    """One current-controlled forming sweep up to ``ceiling``.

    In this model a pristine device forms as soon as the ceiling reaches its
    latent forming current; formed and stuck devices are unaffected.
    """
    if device.formed or device.stuck:
        return
    if ceiling >= device.forming_current:
        device.formed = True
        device.conductance = min(max(device.post_forming_conductance, device.g_min),
                                 device.g_max)


def reference_form_all(xb, targets, spec):
    """The forming flow on a grid of device objects, every device formed in
    place, with round 2's reset pass over every cell of the array.

    Returns (report, cells) for comparison with form_all on ``xb``, which it
    leaves unchanged.
    """
    grid = [[cell(xb, r, c) for c in range(xb.cols)] for r in range(xb.rows)]
    entries, n_defective = [], 0
    for row, col in targets:
        device = grid[row][col]
        trace, attempts, status = [], 0, None
        if PRISTINE_READ_V / device.current(PRISTINE_READ_V) < spec.R_TH:
            device.formed = True
            _reset_to_low(device, spec)
            status = STATUS_PREFORMED
        else:
            i_before = device.current(PRISTINE_READ_V)
            for round_idx in range(spec.max_rounds):
                scale = ESCALATION ** round_idx
                ceiling, stop = spec.I_start * scale, spec.I_stop * scale
                for _ in range(spec.max_attempts):
                    attempts += 1
                    _sweep(device, ceiling)
                    ratio = device.current(PRISTINE_READ_V) / i_before
                    trace.append([ceiling, ratio])
                    if ratio >= spec.R_min_ratio:
                        _reset_to_low(device, spec)
                        status = STATUS_FORMED
                        break
                    ceiling = min(ceiling + spec.I_step * scale, stop)
                if status:
                    break
                if round_idx + 1 < spec.max_rounds:
                    for other in (d for grid_row in grid for d in grid_row):
                        _reset_to_low(other, spec)
            if not status:
                device.stuck = device.formed = True
                device.conductance = min(max(device.stuck_value, device.g_min),
                                         device.g_max)
                status = STATUS_DEFECTIVE
                n_defective += 1
        entries.append({"row": row, "col": col, "status": status,
                        "attempts": attempts, "trace": trace})
    report = {"devices": entries, "defective_count": n_defective,
              "defective_fraction": n_defective / len(targets) if targets else 0.0}
    cells = np.array([device_fields(d) for grid_row in grid for d in grid_row],
                     dtype=CELL_DTYPE).reshape(xb.cells.shape)
    return report, cells


def _mid_sweep_former(seed):
    # Cell (1, 2) forms on its first sweep but its current ratio stays below
    # R_min_ratio, so it is formed and above the low target while round 2's
    # reset pass runs over the array.
    xb = build_crossbar(4, 5, DeviceVariationSpec(stuck_probability=0.2), seed=seed,
                        pristine=True)
    for name, value in (("stuck", False), ("pristine_resistance", 7e5),
                        ("forming_current", 100e-6), ("post_forming_conductance", 5e-6)):
        xb.cells[name][1, 2] = value
    return xb


def _preformed_heavy(seed):
    # Every other non-stuck cell already conducts, well below the pristine
    # threshold R_TH, so it is pre-formed rather than swept.
    xb = build_crossbar(8, 11, DeviceVariationSpec(stuck_probability=0.1), seed=seed,
                        pristine=True)
    r, c = np.indices(xb.cells.shape)
    preformed = ((r + c) % 2 == 0) & ~xb.cells["stuck"]
    xb.cells["pristine_resistance"][preformed] = np.linspace(2e4, 8e4, preformed.sum())
    return xb


SLOW_RESET = DeviceVariationSpec(kinetics_rate_range=(1e-10, 5e-9))


class TestFormingOracle:
    @pytest.mark.parametrize("make, spec", [
        (lambda: build_crossbar(20, 17, DeviceVariationSpec(), seed=11, pristine=True),
         FormingSpec()),
        (lambda: build_crossbar(6, 7, DeviceVariationSpec(stuck_probability=0.3), seed=12,
                                pristine=True), FormingSpec()),
        (lambda: _preformed_heavy(13), FormingSpec()),
        (lambda: _mid_sweep_former(14), FormingSpec()),
        (lambda: build_crossbar(10, 10, SLOW_RESET, seed=15, pristine=True), FormingSpec()),
        (lambda: build_crossbar(10, 10, SLOW_RESET, seed=16, pristine=True),
         FormingSpec(max_rounds=3, max_attempts=4)),
        (lambda: build_crossbar(20, 17, DeviceVariationSpec(), seed=11, pristine=True),
         FormingSpec(max_rounds=1)),
        (lambda: build_crossbar(8, 9, DeviceVariationSpec(reset_mu=-1.8, reset_sigma=0.3,
                                                           g_min=4e-6), seed=17, pristine=True),
         FormingSpec()),
        # Runs that cross block boundaries and end on the budget, many times over.
        (lambda: build_crossbar(20, 20, SLOW_RESET, seed=19, pristine=True),
         FormingSpec(R_min_ratio=400)),
        (lambda: build_crossbar(20, 20, SLOW_RESET, seed=19, pristine=True),
         FormingSpec(max_rounds=4, max_attempts=1)),
    ], ids=["20x17", "stuck-heavy", "preformed-heavy", "formed-mid-sweep", "slow-reset",
            "slow-reset-3-rounds", "one-round", "floor-stopped", "slow-reset-ratio-400",
            "slow-reset-4-rounds"])
    def test_form_all_matches_full_reset_pass(self, make, spec):
        xb = make()
        targets = [(r, c) for r in range(xb.rows) for c in range(xb.cols)]
        want_report, want_cells = reference_form_all(xb, targets, spec)
        report = form_all(xb, spec)
        # Some cell reaches the last round.
        assert any(e["attempts"] > spec.max_attempts * (spec.max_rounds - 1)
                   for e in report["devices"])
        assert json.dumps(report) == json.dumps(want_report)
        assert xb.cells.tobytes() == want_cells.tobytes()

    def test_slow_reset_leaves_formed_cells_above_target(self):
        # One reset run leaves some formed cell above the target, so the
        # runs that later cells' failed rounds add still move it.
        xb = build_crossbar(10, 10, SLOW_RESET, seed=15, pristine=True)
        pristine = [cell(xb, r, c) for r in range(xb.rows) for c in range(xb.cols)]
        report = form_all(xb, FormingSpec())
        above = 0
        for entry, device in zip(report["devices"], pristine):
            if entry["status"] == STATUS_FORMED:
                _sweep(device, float("inf"))
                _reset_to_low(device, FormingSpec())
                above += device.conductance > LOW_CONDUCTANCE_TARGET
        assert above

    def test_preformed_heavy_array_is_mostly_preformed(self):
        report = form_all(_preformed_heavy(13), FormingSpec())
        statuses = [e["status"] for e in report["devices"]]
        assert statuses.count(STATUS_PREFORMED) >= 0.3 * len(statuses)

    def test_mid_sweep_former_is_reset_by_round_two(self):
        xb = _mid_sweep_former(14)
        out, _ = form_cell(xb, 1, 2, FormingSpec())
        assert out["status"] == STATUS_DEFECTIVE
        assert out["trace"][FormingSpec().max_attempts][1] < out["trace"][0][1]
