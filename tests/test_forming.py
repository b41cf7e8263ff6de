import numpy as np
import pytest

from xbarsim.crossbar import build_crossbar
from xbarsim.device import DeviceVariationSpec
from xbarsim.errors import ConfigurationError
from xbarsim.forming import (LOW_CONDUCTANCE_TARGET, FormingSpec, form_all, form_device,
                             STATUS_DEFECTIVE, STATUS_FORMED, STATUS_PREFORMED)

CLEAN = DeviceVariationSpec(stuck_probability=0.0)


def pristine_crossbar(rows=4, cols=4, spec=CLEAN, seed=0):
    return build_crossbar(rows, cols, spec, seed=seed, pristine=True)


class TestFormDevice:
    def test_preformed_device_skips_sweeps(self):
        xb = pristine_crossbar()
        d = xb.devices[0][0]
        d.pristine_resistance = 4e4          # below the pristine threshold
        out = form_device(xb, 0, 0, FormingSpec())
        assert out.status == STATUS_PREFORMED
        assert out.attempts_used == 0
        assert d.formed
        assert d.conductance <= LOW_CONDUCTANCE_TARGET

    def test_first_ceiling_success(self):
        xb = pristine_crossbar()
        d = xb.devices[0][1]
        d.pristine_resistance = 5e6
        d.forming_current = 100e-6           # below I_start
        out = form_device(xb, 0, 1, FormingSpec())
        assert out.status == STATUS_FORMED
        assert out.attempts_used == 1
        assert d.formed
        assert d.conductance <= LOW_CONDUCTANCE_TARGET

    def test_unformable_device_exhausts_both_rounds(self):
        xb = pristine_crossbar()
        d = xb.devices[1][1]
        d.forming_current = float("inf")
        spec = FormingSpec(max_attempts=5, max_rounds=2)
        out = form_device(xb, 1, 1, spec)
        assert out.status == STATUS_DEFECTIVE
        assert out.attempts_used == 10       # max_attempts * max_rounds
        assert len(out.trace) == 10
        assert d.stuck

    def test_sweep_ceilings_escalate_between_rounds(self):
        xb = pristine_crossbar()
        d = xb.devices[2][2]
        # Formable only with the round-2 escalated ceiling.
        d.forming_current = FormingSpec().I_stop * 1.1
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
    def all_cells(self, xb):
        return [(r, c) for r in range(xb.rows) for c in range(xb.cols)]

    def test_two_percent_stuck_population(self):
        spec = DeviceVariationSpec(stuck_probability=0.02)
        fractions = []
        for seed in range(12):
            xb = build_crossbar(20, 20, spec, seed=seed, pristine=True)
            report = form_all(xb, self.all_cells(xb), FormingSpec())
            fractions.append(report["defective_fraction"])
        assert abs(np.mean(fractions) - 0.02) < 0.01

    def test_empty_targets(self):
        xb = pristine_crossbar()
        report = form_all(xb, [], FormingSpec())
        assert report["devices"] == []
        assert report["defective_fraction"] == 0.0

    def test_report_order_matches_input(self):
        xb = pristine_crossbar()
        targets = [(1, 2), (0, 0), (3, 3)]
        report = form_all(xb, targets, FormingSpec())
        assert [(e["row"], e["col"]) for e in report["devices"]] == targets

    def test_duplicate_targets_rejected(self):
        xb = pristine_crossbar()
        with pytest.raises(ConfigurationError):
            form_all(xb, [(0, 0), (0, 0)], FormingSpec())

    def test_formed_devices_end_low_and_defective_are_stuck(self):
        spec = DeviceVariationSpec(stuck_probability=0.05)
        xb = build_crossbar(10, 10, spec, seed=3, pristine=True)
        fspec = FormingSpec()
        report = form_all(xb, self.all_cells(xb), fspec)
        for entry in report["devices"]:
            d = xb.devices[entry["row"]][entry["col"]]
            if entry["status"] == STATUS_DEFECTIVE:
                assert d.stuck
            else:
                assert d.formed and not d.stuck
                assert d.conductance <= LOW_CONDUCTANCE_TARGET * 1.001

    def test_rerun_is_idempotent(self):
        xb = pristine_crossbar(6, 6, seed=4)
        fspec = FormingSpec()
        form_all(xb, self.all_cells(xb), fspec)
        state = [[d.copy() for d in row] for row in xb.devices]
        report = form_all(xb, self.all_cells(xb), fspec)
        assert all(e["status"] == STATUS_PREFORMED for e in report["devices"])
        for r in range(6):
            for c in range(6):
                assert xb.devices[r][c] == state[r][c]
