import json

import numpy as np
import pytest

from xbarsim.crossbar import build_crossbar
from xbarsim.device import CELL_DTYPE, DeviceVariationSpec, device_fields
from xbarsim.forming import (ESCALATION, LOW_CONDUCTANCE_TARGET, PRISTINE_READ_V,
                             FormingSpec, _reset_to_low, _sweep, form_all, form_device,
                             STATUS_DEFECTIVE, STATUS_FORMED, STATUS_PREFORMED)

CLEAN = DeviceVariationSpec(stuck_probability=0.0)


def pristine_crossbar(rows=4, cols=4, spec=CLEAN, seed=0):
    return build_crossbar(rows, cols, spec, seed=seed, pristine=True)


class TestFormDevice:
    def test_preformed_device_skips_sweeps(self):
        xb = pristine_crossbar()
        xb.cells["pristine_resistance"][0, 0] = 4e4   # below the pristine threshold
        out = form_device(xb, 0, 0, FormingSpec())
        d = xb.device(0, 0)
        assert out.status == STATUS_PREFORMED
        assert out.attempts_used == 0
        assert d.formed
        assert d.conductance <= LOW_CONDUCTANCE_TARGET

    def test_first_ceiling_success(self):
        xb = pristine_crossbar()
        xb.cells["pristine_resistance"][0, 1] = 5e6
        xb.cells["forming_current"][0, 1] = 100e-6    # below I_start
        out = form_device(xb, 0, 1, FormingSpec())
        d = xb.device(0, 1)
        assert out.status == STATUS_FORMED
        assert out.attempts_used == 1
        assert d.formed
        assert d.conductance <= LOW_CONDUCTANCE_TARGET

    def test_unformable_device_exhausts_both_rounds(self):
        xb = pristine_crossbar()
        xb.cells["forming_current"][1, 1] = float("inf")
        spec = FormingSpec(max_attempts=5, max_rounds=2)
        out = form_device(xb, 1, 1, spec)
        d = xb.device(1, 1)
        assert out.status == STATUS_DEFECTIVE
        assert out.attempts_used == 10       # max_attempts * max_rounds
        assert len(out.trace) == 10
        assert d.stuck

    def test_sweep_ceilings_escalate_between_rounds(self):
        xb = pristine_crossbar()
        # Formable only with the round-2 escalated ceiling.
        xb.cells["forming_current"][2, 2] = FormingSpec().I_stop * 1.1
        out = form_device(xb, 2, 2, FormingSpec())
        assert out.status == STATUS_FORMED
        assert out.attempts_used > FormingSpec().max_attempts

    def test_attempts_never_exceed_budget(self):
        spec = FormingSpec(max_attempts=7, max_rounds=3)
        for seed in range(10):
            xb = pristine_crossbar(seed=seed)
            out = form_device(xb, 0, 0, spec)
            assert out.attempts_used <= spec.max_attempts * spec.max_rounds


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
            d = xb.device(entry["row"], entry["col"])
            if entry["status"] == STATUS_DEFECTIVE:
                assert d.stuck
            else:
                assert d.formed and not d.stuck
                assert d.conductance <= LOW_CONDUCTANCE_TARGET * 1.001

    def test_rerun_is_idempotent(self):
        xb = pristine_crossbar(6, 6, seed=4)
        fspec = FormingSpec()
        form_all(xb, fspec)
        state = xb.cells.copy()
        report = form_all(xb, fspec)
        assert all(e["status"] == STATUS_PREFORMED for e in report["devices"])
        assert xb.cells.tobytes() == state.tobytes()


def reference_form_all(xb, targets, spec):
    """The forming flow on a grid of device objects, every device formed in
    place, with round 2's reset pass over every cell of the array.

    Returns (report, cells) for comparison with form_all on ``xb``, which it
    leaves unchanged.
    """
    grid = [[xb.device(r, c) for c in range(xb.cols)] for r in range(xb.rows)]
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


class TestFormingOracle:
    @pytest.mark.parametrize("make", [
        lambda: build_crossbar(20, 17, DeviceVariationSpec(), seed=11, pristine=True),
        lambda: build_crossbar(6, 7, DeviceVariationSpec(stuck_probability=0.3), seed=12,
                               pristine=True),
        lambda: _preformed_heavy(13),
        lambda: _mid_sweep_former(14),
    ], ids=["20x17", "stuck-heavy", "preformed-heavy", "formed-mid-sweep"])
    def test_form_all_matches_full_reset_pass(self, make):
        xb = make()
        targets = [(r, c) for r in range(xb.rows) for c in range(xb.cols)]
        spec = FormingSpec()
        want_report, want_cells = reference_form_all(xb, targets, spec)
        report = form_all(xb, spec)
        assert any(e["attempts"] > spec.max_attempts for e in report["devices"])
        assert json.dumps(report) == json.dumps(want_report)
        assert xb.cells.tobytes() == want_cells.tobytes()

    def test_preformed_heavy_array_is_mostly_preformed(self):
        report = form_all(_preformed_heavy(13), FormingSpec())
        statuses = [e["status"] for e in report["devices"]]
        assert statuses.count(STATUS_PREFORMED) >= 0.3 * len(statuses)

    def test_mid_sweep_former_is_reset_by_round_two(self):
        xb = _mid_sweep_former(14)
        out = form_device(xb, 1, 2, FormingSpec())
        assert out.status == STATUS_DEFECTIVE
        assert out.trace[FormingSpec().max_attempts][1] < out.trace[0][1]
