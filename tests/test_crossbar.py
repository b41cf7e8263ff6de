import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xbarsim.crossbar import (MAX_CELLS, MAX_NODAL_DIM, MAX_SEARCH_DIM, BiasScheme,
                              _FACTOR_CACHE_SIZE, _nodal_factor, _nodal_matrix, build_crossbar,
                              export_grid, import_grid,
                              ladder_drops, ladder_worst_case_drop, load_state,
                              max_crossbar_dimension, save_state, vmm, vmm_ideal,
                              vmm_wire_resistive, write_drop_budget)
from xbarsim.config import INSITU_DEVICE_SPEC
from xbarsim.device import (CELL_DTYPE, DEVICE_FIELDS, DeviceVariationSpec, MemristorDevice,
                            device_fields)
from xbarsim.errors import ConfigurationError
from xbarsim.forming import FormingSpec, form_all
from xbarsim.rng import stream
from test_device import reference_cell

SPEC = DeviceVariationSpec(stuck_probability=0.0)


def dense_nodal_oracle(xbar, v):
    """Independent dense assembly of the wire-resistive nodal system."""
    rows, cols = xbar.rows, xbar.cols
    g_w = 1.0 / xbar.wire_segment_resistance
    g = xbar.conductances()
    n = rows * cols
    col_node = lambda r, c: r * cols + c
    row_node = lambda r, c: n + r * cols + c
    A = np.zeros((2 * n, 2 * n))
    b = np.zeros(2 * n)
    for r in range(rows):
        for c in range(cols):
            cn, rn = col_node(r, c), row_node(r, c)
            A[cn, cn] += g[r, c]; A[rn, rn] += g[r, c]
            A[cn, rn] -= g[r, c]; A[rn, cn] -= g[r, c]
            if r == 0:
                A[cn, cn] += g_w
                b[cn] += g_w * v[c]
            if r < rows - 1:
                nn = col_node(r + 1, c)
                A[cn, cn] += g_w; A[nn, nn] += g_w
                A[cn, nn] -= g_w; A[nn, cn] -= g_w
            if c < cols - 1:
                nn = row_node(r, c + 1)
                A[rn, rn] += g_w; A[nn, nn] += g_w
                A[rn, nn] -= g_w; A[nn, rn] -= g_w
            else:
                A[rn, rn] += g_w
    sol = np.linalg.solve(A, b)
    return np.array([sol[row_node(r, cols - 1)] * g_w for r in range(rows)])


def reference_nodal(xbar, v):
    """The wire-resistive solver before factor caching: a Python stamp loop
    assembles the nodal matrix and every input vector takes its own
    spsolve.  Returns the CSC matrix and the row currents, shape (..., rows)."""
    rows, cols = xbar.rows, xbar.cols
    g_w = 1.0 / xbar.wire_segment_resistance
    g_dev = xbar.conductances()
    n = rows * cols
    col_node = lambda r, c: r * cols + c
    row_node = lambda r, c: n + r * cols + c
    data, ii, jj = [], [], []

    def stamp(a, b, g):
        data.append(g); ii.append(a); jj.append(a)
        if b >= 0:
            data.append(g); ii.append(b); jj.append(b)
            data.append(-g); ii.append(a); jj.append(b)
            data.append(-g); ii.append(b); jj.append(a)

    for r in range(rows):
        for c in range(cols):
            cn, rn = col_node(r, c), row_node(r, c)
            stamp(cn, rn, g_dev[r, c])
            if r == 0:
                stamp(cn, -1, g_w)
            if r < rows - 1:
                stamp(cn, col_node(r + 1, c), g_w)
            if c < cols - 1:
                stamp(rn, row_node(r, c + 1), g_w)
            else:
                stamp(rn, -1, g_w)

    mat = scipy.sparse.coo_matrix((data, (ii, jj)), shape=(2 * n, 2 * n)).tocsc()
    v = np.asarray(v, dtype=float)
    out = np.empty(v.shape[:-1] + (rows,))
    for idx in np.ndindex(v.shape[:-1]):
        rhs = np.zeros(2 * n)
        rhs[col_node(0, 0):col_node(0, cols)] = g_w * v[idx]
        sol = scipy.sparse.linalg.spsolve(mat, rhs)
        out[idx] = sol[row_node(0, cols - 1)::cols] * g_w
    return mat, out


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def wired_crossbar(rows, cols, seed, r_w=5.6):
    xb = build_crossbar(rows, cols, DeviceVariationSpec(), seed=seed)
    xb.line_model, xb.wire_segment_resistance = "wire_resistive", r_w
    return xb


class TestNodalOracle:
    """The vectorized assembly and cached factor against reference_nodal,
    byte for byte."""

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 6), (6, 1), (7, 9),
                                            (20, 17), (8, 11)])
    def test_matrix_and_currents(self, rows, cols):
        xb = wired_crossbar(rows, cols, seed=rows * 100 + cols)
        v = np.random.default_rng(cols).uniform(-0.2, 0.2, cols)
        mat, want = reference_nodal(xb, v)
        got = _nodal_matrix(xb.conductances(), xb.wire_segment_resistance)
        for part in ("indptr", "indices", "data"):
            assert_same_bytes(getattr(got, part), getattr(mat, part))
        assert_same_bytes(vmm_wire_resistive(xb, v), want)

    def test_largest_array(self):
        xb = wired_crossbar(MAX_NODAL_DIM, MAX_NODAL_DIM, seed=5)
        v = np.random.default_rng(5).uniform(-0.2, 0.2, MAX_NODAL_DIM)
        assert_same_bytes(vmm_wire_resistive(xb, v), reference_nodal(xb, v)[1])
        too_big = wired_crossbar(1, MAX_NODAL_DIM + 1, seed=5)
        with pytest.raises(ConfigurationError):
            vmm_wire_resistive(too_big, np.zeros(MAX_NODAL_DIM + 1))

    def test_batched_inputs_equal_per_vector_calls(self):
        xb = wired_crossbar(20, 17, seed=21)
        v = np.random.default_rng(21).uniform(-0.2, 0.2, (3, 5, 17))
        batched = vmm_wire_resistive(xb, v)
        assert batched.shape == (3, 5, 20)
        for idx in np.ndindex(3, 5):
            assert_same_bytes(batched[idx], vmm_wire_resistive(xb, v[idx]))
        assert_same_bytes(batched, reference_nodal(xb, v)[1])

    def test_unchanged_array_reuses_its_factor(self):
        xb = wired_crossbar(8, 11, seed=22)
        v = np.full(11, 0.2)
        vmm(xb, v)
        before = _nodal_factor.cache_info()
        vmm(xb, v)
        after = _nodal_factor.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_device_edit_is_a_new_matrix(self):
        xb = wired_crossbar(8, 11, seed=23)
        v = np.random.default_rng(23).uniform(-0.2, 0.2, 11)
        first = vmm_wire_resistive(xb, v)
        dev = MemristorDevice(*xb.cells.item(3, 4))
        dev.conductance *= 1.5
        xb.cells[3, 4] = device_fields(dev)
        second = vmm_wire_resistive(xb, v)
        assert not np.array_equal(first, second)
        assert_same_bytes(second, reference_nodal(xb, v)[1])

    def test_set_conductances_is_a_new_matrix(self):
        xb = wired_crossbar(8, 11, seed=24)
        v = np.random.default_rng(24).uniform(-0.2, 0.2, 11)
        first = vmm_wire_resistive(xb, v)
        xb.cells["conductance"] = 40e-6
        second = vmm_wire_resistive(xb, v)
        assert not np.array_equal(first, second)
        assert_same_bytes(second, reference_nodal(xb, v)[1])

    def test_wire_resistance_change_is_a_new_matrix(self):
        xb = wired_crossbar(8, 11, seed=25)
        v = np.random.default_rng(25).uniform(-0.2, 0.2, 11)
        first = vmm_wire_resistive(xb, v)
        xb.wire_segment_resistance = 50.0
        second = vmm_wire_resistive(xb, v)
        assert not np.array_equal(first, second)
        assert_same_bytes(second, reference_nodal(xb, v)[1])

    def test_more_arrays_than_the_cache_holds(self):
        arrays = [wired_crossbar(6, 7, seed=30 + k) for k in range(_FACTOR_CACHE_SIZE + 2)]
        v = np.random.default_rng(30).uniform(-0.2, 0.2, 7)
        want = [reference_nodal(xb, v)[1] for xb in arrays]
        for _ in range(3):
            for xb, expected in zip(arrays, want):
                assert_same_bytes(vmm_wire_resistive(xb, v), expected)


def reference_cells(rows, cols, spec, seed, pristine):
    """The cells drawn one stream at a time, each seeded by numpy's SeedSequence
    and drawn one scalar call at a time."""
    return np.array([reference_cell(spec, stream(seed, "cell", r, c), pristine)
                     for r in range(rows) for c in range(cols)],
                    dtype=CELL_DTYPE).reshape(rows, cols)


DEGENERATE_SPEC = DeviceVariationSpec(stuck_conductance_range=(40e-6, 40e-6),
                                      g_init_range=(60e-6, 60e-6),
                                      kinetics_rate_range=(0.03e-6, 0.03e-6))


class TestBuild:
    @pytest.mark.parametrize("spec, pristine", [
        (DeviceVariationSpec(), False),
        (DeviceVariationSpec(), True),
        (INSITU_DEVICE_SPEC, True),
        (DEGENERATE_SPEC, True),
        (DeviceVariationSpec(g_init_range=(50e-6, 50e-6)), False),
        (DeviceVariationSpec(stuck_probability=0.0), True),
        (DeviceVariationSpec(stuck_probability=1.0), False),
    ], ids=["default", "default-pristine", "insitu", "degenerate-ranges",
            "degenerate-g-init", "never-stuck", "always-stuck"])
    @pytest.mark.parametrize("seed", [0, 3, 2**33 + 1])
    def test_cells_equal_per_stream_reference(self, spec, pristine, seed):
        got = build_crossbar(8, 11, spec, seed=seed, pristine=pristine).cells
        assert_same_bytes(got, reference_cells(8, 11, spec, seed, pristine))

    def test_20x20_all_functional(self):
        xb = build_crossbar(20, 20, SPEC, seed=1)
        assert xb.rows == xb.cols == 20
        assert not xb.stuck_map().any()

    def test_single_cell(self):
        xb = build_crossbar(1, 1, SPEC, seed=2)
        assert xb.conductances().shape == (1, 1)

    def test_determinism(self):
        a = build_crossbar(6, 5, SPEC, seed=3)
        b = build_crossbar(6, 5, SPEC, seed=3)
        assert np.array_equal(a.conductances(), b.conductances())
        assert a.cells.tobytes() == b.cells.tobytes()

    def test_zero_dimension_rejected(self):
        with pytest.raises(ConfigurationError):
            build_crossbar(0, 4, SPEC, seed=0)

    def test_more_cells_than_the_bound_rejected(self):
        with pytest.raises(ConfigurationError, match=f"at most {MAX_CELLS} cells"):
            build_crossbar(MAX_CELLS + 1, 1, SPEC, seed=0)


def device_voltage_map(xbar, sel_row: int, sel_col: int, bias: BiasScheme,
                       v_w: float) -> np.ndarray:
    """Voltage magnitude across every cell during a write of V_w, ideal lines:
    the R_w = 0 oracle of the write margins.

    Selected cell sees V_w; half-selected cells (sharing the selected row or
    column) see V_w/2 or V_w/3 per scheme; unselected cells see 0 (V_half)
    or the worst-case V_w/3 (V_third).
    """
    if not (0 <= sel_row < xbar.rows and 0 <= sel_col < xbar.cols):
        raise IndexError(f"({sel_row}, {sel_col}) outside {xbar.rows}x{xbar.cols} crossbar")
    half = v_w * bias.half_select_fraction()
    unsel = 0.0 if bias.scheme == "V_half" else v_w / 3.0
    out = np.full((xbar.rows, xbar.cols), unsel)
    out[sel_row, :] = half
    out[:, sel_col] = half
    out[sel_row, sel_col] = v_w
    return out


class TestVoltageMap:
    def test_cell_index_checked(self):
        xb = build_crossbar(3, 4, SPEC, seed=3)
        with pytest.raises(IndexError):
            device_voltage_map(xb, 3, 0, BiasScheme(), 2.1)
        with pytest.raises(IndexError):
            device_voltage_map(xb, 0, -1, BiasScheme(), 2.1)

    def test_v_half_map(self):
        xb = build_crossbar(4, 4, SPEC, seed=4)
        vm = device_voltage_map(xb, 1, 2, BiasScheme("V_half"), 2.6)
        assert vm[1, 2] == pytest.approx(2.6)
        assert vm[1, 0] == pytest.approx(1.3)
        assert vm[3, 2] == pytest.approx(1.3)
        assert vm[0, 0] == 0.0

    def test_v_third_map(self):
        xb = build_crossbar(4, 4, SPEC, seed=4)
        vm = device_voltage_map(xb, 0, 0, BiasScheme("V_third"), 2.1)
        assert vm[0, 0] == pytest.approx(2.1)
        assert vm[0, 3] == pytest.approx(0.7)
        assert vm[2, 2] == pytest.approx(0.7)

    def test_zero_write_voltage(self):
        xb = build_crossbar(3, 3, SPEC, seed=4)
        vm = device_voltage_map(xb, 1, 1, BiasScheme("V_half"), 0.0)
        assert (vm == 0).all()

    def test_no_cell_reaches_full_write_voltage(self):
        xb = build_crossbar(5, 7, SPEC, seed=5)
        for scheme in ("V_half", "V_third"):
            vm = device_voltage_map(xb, 2, 3, BiasScheme(scheme), 2.0)
            vm[2, 3] = 0.0
            assert (vm < 2.0).all()


@pytest.mark.parametrize("call, error, message", [
    (lambda xb: vmm(xb, np.zeros(xb.cols + 1)), ValueError, "expected 4 column voltages"),
    (lambda xb: write_drop_budget(0.7, 1.3, "V_quarter"), ConfigurationError,
     "unknown bias scheme 'V_quarter'")],
    ids=["vmm-extra-voltage", "budget-unknown-scheme"])
def test_bad_argument_is_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call(build_crossbar(3, 4, SPEC, seed=3))


class TestVmmIdeal:
    def test_zero_inputs(self):
        xb = build_crossbar(4, 6, SPEC, seed=6)
        assert (vmm_ideal(xb, np.zeros(6)) == 0).all()

    def test_single_device_sum(self):
        xb = build_crossbar(3, 3, SPEC, seed=7)
        xb.cells["conductance"] = xb.cells["g_min"]
        xb.cells["conductance"][1, 0] = 40e-6
        v = np.array([0.2, 0.0, 0.0])
        i = vmm_ideal(xb, v)
        assert i[1] == pytest.approx(0.2 * 40e-6, rel=1e-9)

    def test_matches_double_loop_oracle(self):
        xb = build_crossbar(17, 20, SPEC, seed=8)
        rng = np.random.default_rng(0)
        v = rng.uniform(-0.2, 0.2, 20)
        got = vmm_ideal(xb, v)
        g = xbar_matrix = xb.conductances()
        want = np.array([sum(g[r, c] * v[c] for c in range(20)) for r in range(17)])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_linearity(self):
        xb = build_crossbar(6, 9, SPEC, seed=9)
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=9) * 0.1, rng.normal(size=9) * 0.1
        lhs = vmm_ideal(xb, 2.0 * x + 0.3 * y)
        rhs = 2.0 * vmm_ideal(xb, x) + 0.3 * vmm_ideal(xb, y)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-18)

    def test_sneak_path_free(self):
        xb = build_crossbar(5, 5, SPEC, seed=10)
        v = np.array([0.2, 0.0, 0.1, 0.0, -0.2])
        before = vmm_ideal(xb, v)
        xb.cells["conductance"][3, 1] = 140e-6   # column at 0 V
        after = vmm_ideal(xb, v)
        mask = np.ones(5, dtype=bool)
        np.testing.assert_allclose(before[mask], after[mask], rtol=0, atol=0)


class TestVmmWireResistive:
    def test_rw_zero_equals_ideal(self):
        xb = build_crossbar(16, 20, SPEC, seed=11)
        rng = np.random.default_rng(2)
        v = rng.uniform(-0.2, 0.2, 20)
        np.testing.assert_allclose(vmm_wire_resistive(xb, v), vmm_ideal(xb, v),
                                   rtol=1e-12)

    def test_two_by_two_hand_nodal(self):
        # 2x2 crossbar (8 unknown nodes) against the independently hand-built
        # dense system.
        xb = build_crossbar(2, 2, SPEC, seed=12)
        xb.wire_segment_resistance = 50.0
        v = np.array([0.2, -0.15])
        got = vmm_wire_resistive(xb, v)
        want = dense_nodal_oracle(xb, v)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_matches_dense_oracle_random(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            xb = build_crossbar(7, 9, SPEC, seed=100 + seed)
            xb.wire_segment_resistance = float(rng.uniform(0.5, 20.0))
            v = rng.uniform(-0.2, 0.2, 9)
            np.testing.assert_allclose(vmm_wire_resistive(xb, v),
                                       dense_nodal_oracle(xb, v), rtol=1e-9)

    def test_wire_resistance_only_lowers_positive_currents(self):
        xb = build_crossbar(6, 6, SPEC, seed=13)
        xb.cells["conductance"] = 60e-6
        v = np.full(6, 0.2)
        ideal = vmm_ideal(xb, v)
        xb.wire_segment_resistance = 10.0
        wired = vmm_wire_resistive(xb, v)
        assert (wired <= ideal + 1e-15).all()
        assert (wired > 0).all()

    def test_converges_to_ideal_as_rw_shrinks(self):
        xb = build_crossbar(5, 5, SPEC, seed=14)
        v = np.linspace(-0.2, 0.2, 5)
        ideal = vmm_ideal(xb, v)
        errs = []
        for rw in (10.0, 1.0, 0.1, 0.01):
            xb.wire_segment_resistance = rw
            errs.append(np.abs(vmm_wire_resistive(xb, v) - ideal).max())
        assert all(a > b for a, b in zip(errs, errs[1:]))


class TestLadder:
    def test_zero_rw_no_drop(self):
        for n in (1, 7, 100):
            assert ladder_worst_case_drop(n, 0.0, 50e-6) == 0.0

    def test_single_segment_divider(self):
        drop = ladder_worst_case_drop(1, 100.0, 1e-4)   # R_w*G = 0.01
        assert drop == pytest.approx(0.01 / 1.01, rel=1e-12)

    def test_monotone_in_all_parameters(self):
        assert (ladder_worst_case_drop(10, 1.0, 50e-6)
                < ladder_worst_case_drop(20, 1.0, 50e-6))
        assert (ladder_worst_case_drop(10, 1.0, 50e-6)
                < ladder_worst_case_drop(10, 2.0, 50e-6))
        assert (ladder_worst_case_drop(10, 1.0, 50e-6)
                < ladder_worst_case_drop(10, 1.0, 80e-6))

    def test_matches_dense_solve(self):
        # Direct nodal solve of the loaded ladder as an independent oracle.
        def oracle(n, r_w, g):
            A = np.zeros((n, n))
            b = np.zeros(n)
            g_w = 1.0 / r_w
            for k in range(n):
                A[k, k] += g
                A[k, k] += g_w
                if k == 0:
                    b[k] += g_w * 1.0
                else:
                    A[k, k - 1] -= g_w
                if k < n - 1:
                    A[k, k] += g_w
                    A[k, k + 1] -= g_w
            vn = np.linalg.solve(A, b)[-1]
            return 1.0 - vn
        for n in (1, 2, 3, 5, 17, 64, 200, 512):
            got = ladder_worst_case_drop(n, 5.6, 30e-6)
            assert got == pytest.approx(oracle(n, 5.6, 30e-6), abs=1e-9)

    @pytest.mark.parametrize("r_w, g", [(5.6, -30e-6), (-5.6, 30e-6), (5.6, 5e-324),
                                        (0.0, 5e-324), (math.inf, 30e-6), (5.6, math.nan),
                                        (math.nan, 30e-6), (5.6, math.inf)])
    def test_bad_line_or_load_is_rejected(self, r_w, g):
        # 1/5e-324 overflows, so a denormal load has no finite impedance; an
        # infinite or NaN line or load would make the drops NaN.
        with pytest.raises(ConfigurationError):
            ladder_worst_case_drop(4, r_w, g)
        with pytest.raises(ConfigurationError):
            ladder_drops([1, 8], r_w, g)
        # 0.4 V / 1.3 V leaves no safe write window; the line is checked first.
        for v_th_min in (0.7, 0.4):
            with pytest.raises(ConfigurationError):
                max_crossbar_dimension(v_th_min, 1.3, g, r_w, BiasScheme())

    def test_drops_of_many_lengths_read_one_walk(self):
        lengths = [512, 1, 64, 64, 2, 7]
        assert ladder_drops(lengths, 5.6, 30e-6) == [ladder_worst_case_drop(n, 5.6, 30e-6)
                                                     for n in lengths]
        assert ladder_drops([], 5.6, 30e-6) == []
        with pytest.raises(ConfigurationError, match="segment"):
            ladder_drops([3, 0], 5.6, 30e-6)


class TestMaxDimension:
    def test_budget_formula(self):
        assert write_drop_budget(0.7, 1.3, "V_third") == pytest.approx(0.30769, abs=1e-4)
        assert write_drop_budget(0.7, 1.3, "V_half") == pytest.approx(0.07692, abs=1e-4)

    def test_calibrated_presets(self):
        b3 = BiasScheme("V_third")
        b2 = BiasScheme("V_half")
        assert abs(max_crossbar_dimension(0.7, 1.3, 30e-6, 5.6, b3) - 70) <= 5
        assert abs(max_crossbar_dimension(0.7, 1.3, 30e-6, 0.185, b3) - 400) <= 25
        assert abs(max_crossbar_dimension(0.7, 1.3, 20e-6, 5.6, b2) - 40) <= 5
        assert abs(max_crossbar_dimension(0.7, 1.3, 20e-6, 0.185, b2) - 200) <= 15

    def test_no_safe_window(self):
        bias = BiasScheme("V_third")
        assert max_crossbar_dimension(0.4, 1.3, 30e-6, 5.6, bias) == 0

    def test_zero_budget_without_wires(self):
        # With R_w = 0 every drop is 0.0, within a zero budget, yet no write is safe.
        assert write_drop_budget(0.65, 1.3, "V_half") == 0.0
        assert max_crossbar_dimension(0.65, 1.3, 20e-6, 0.0, BiasScheme("V_half")) == 0
        assert max_crossbar_dimension(0.4, 1.3, 30e-6, 0.0, BiasScheme()) == 0

    @pytest.mark.parametrize("r_w", [0.0, 1e-6])
    def test_returns_the_cap(self, r_w):
        assert ladder_worst_case_drop(MAX_SEARCH_DIM, r_w, 30e-6) <= write_drop_budget(
            0.7, 1.3, "V_third")
        assert max_crossbar_dimension(0.7, 1.3, 30e-6, r_w, BiasScheme()) == MAX_SEARCH_DIM

    @settings(max_examples=100, deadline=None)
    @given(r_w=st.floats(0.01, 100.0), g=st.floats(1e-6, 1e-3),
           v_th_min=st.floats(0.4, 1.3), scheme=st.sampled_from(["V_third", "V_half"]))
    def test_largest_side_within_budget(self, r_w, g, v_th_min, scheme):
        budget = write_drop_budget(v_th_min, 1.3, scheme)
        n = max_crossbar_dimension(v_th_min, 1.3, g, r_w, BiasScheme(scheme))
        if 0 < n < MAX_SEARCH_DIM:
            assert ladder_worst_case_drop(n, r_w, g) <= budget < ladder_worst_case_drop(
                n + 1, r_w, g)
        elif n == 0 and budget > 0:
            assert budget < ladder_worst_case_drop(1, r_w, g)


class TestGridIO:
    def test_round_trip_nine_digits(self, tmp_path):
        rng = np.random.default_rng(4)
        grid = rng.uniform(2e-6, 150e-6, (8, 5))
        path = tmp_path / "grid.csv"
        export_grid(grid, path)
        back = import_grid(path)
        # 9 significant digits quantize at 0.5e-8 relative
        np.testing.assert_allclose(back, grid, rtol=5e-9)

    def test_reexport_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        grid = rng.uniform(2e-6, 150e-6, (4, 4))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_grid(grid, p1)
        export_grid(import_grid(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_state_snapshot_round_trip(self, tmp_path):
        xb = build_crossbar(3, 4, DeviceVariationSpec(stuck_probability=0.3), seed=6)
        path = tmp_path / "state.json"
        save_state(xb, path)
        back = load_state(path)
        assert back.rows == 3 and back.cols == 4
        assert back.cells.tobytes() == xb.cells.tobytes()


GOLDEN_STATE = Path(__file__).parent / "data" / "crossbar_state_v1.json"


def golden_crossbar():
    """The formed 4x5 array snapshotted in data/crossbar_state_v1.json."""
    xb = build_crossbar(4, 5, DeviceVariationSpec(stuck_probability=0.3), seed=1,
                        pristine=True)
    form_all(xb, FormingSpec())
    return xb


class TestGoldenSnapshot:
    def test_golden_holds_never_forming_devices(self):
        devices = json.loads(GOLDEN_STATE.read_text())["devices"]
        assert any(d["forming_current"] is None for row in devices for d in row)

    def test_save_state_is_the_golden_file(self, tmp_path):
        save_state(golden_crossbar(), tmp_path / "state.json")
        assert (tmp_path / "state.json").read_bytes() == GOLDEN_STATE.read_bytes()

    def test_load_then_save_is_the_golden_file(self, tmp_path):
        save_state(load_state(GOLDEN_STATE), tmp_path / "state.json")
        assert (tmp_path / "state.json").read_bytes() == GOLDEN_STATE.read_bytes()

    def test_loaded_cells_are_the_built_cells(self):
        assert load_state(GOLDEN_STATE).cells.tobytes() == golden_crossbar().cells.tobytes()


_FLOAT_FIELDS = [name for name, kind in DEVICE_FIELDS.items() if kind is float]


@pytest.mark.parametrize("fields", [
    {"g_min": 0.0}, {"g_min": -2e-6}, {"g_min": 200e-6},
    {"formed": False, "pristine_resistance": 0.0},
    {"formed": False, "pristine_resistance": -5.0},
    {"pristine_resistance": 1e-320}, {"kinetics_rate": -0.04e-6},
    {"kinetics_voltage_scale": 0.0}, {"kinetics_voltage_scale": -0.3},
    *({name: math.inf} for name in _FLOAT_FIELDS), {"reset_threshold": -math.inf}],
    ids=["zero-g_min", "negative-g_min", "g_min-above-g_max", "zero-pristine_resistance",
         "negative-pristine_resistance", "overflowing-pristine_conductance",
         "negative-kinetics_rate", "zero-kinetics_voltage_scale",
         "negative-kinetics_voltage_scale", *(f"{name}=1e400" for name in _FLOAT_FIELDS),
         "reset_threshold=-1e400"])
def test_snapshot_of_a_device_that_cannot_exist_is_config_error(tmp_path, fields):
    state = json.loads(GOLDEN_STATE.read_text())
    state["devices"][1][2].update(fields)
    path = tmp_path / "state.json"
    # json writes an infinite float as Infinity, which the snapshot parser
    # rejects as a token; the literal 1e400 parses to inf and reaches the
    # field checks.
    path.write_text(json.dumps(state).replace("Infinity", "1e400"))
    with pytest.raises(ConfigurationError):
        load_state(path)


# --- load_state fuzz: mutations of a valid snapshot --------------------------

_TOKEN = "\x00token\x00"
_BASE_STATE = json.loads(GOLDEN_STATE.read_text())
_CELLS = st.tuples(st.integers(0, 3), st.integers(0, 4))
_ODD_VALUES = st.sampled_from([None, "1", [], {}, True, 0, 1, -1.5, 10 ** 400, 1e300])
_TOP_KEYS = st.sampled_from(sorted(_BASE_STATE))
_DEVICE_KEYS = st.sampled_from(sorted(DEVICE_FIELDS))


def _drop_top(key):
    def mutate(state):
        state.pop(key, None)
    return mutate


def _set_top(key, value):
    def mutate(state):
        state[key] = value
    return mutate


def _device(state, cell):
    try:
        return state["devices"][cell[0]][cell[1]]
    except (KeyError, IndexError, TypeError):
        return None


def _set_field(cell, name, value):
    def mutate(state):
        device = _device(state, cell)
        if isinstance(device, dict):
            device[name] = value
    return mutate


def _drop_field(cell, name):
    def mutate(state):
        device = _device(state, cell)
        if isinstance(device, dict):
            device.pop(name, None)
    return mutate


def _swap_type(cell, name):
    # A bool field gets a number and a number field a bool.
    def mutate(state):
        device = _device(state, cell)
        if isinstance(device, dict) and name in device:
            value = device[name]
            device[name] = int(value) if isinstance(value, bool) else bool(value)
    return mutate


def _wrong_sign(cell, name):
    def mutate(state):
        device = _device(state, cell)
        if isinstance(device, dict):
            device[name] = 0.9 if name == "reset_threshold" else -0.9
    return mutate


def _reshape(kind, index):
    def mutate(state):
        grid = state.get("devices")
        if not isinstance(grid, list) or not grid:
            return
        row = grid[index % len(grid)]
        if kind == "drop_cell" and isinstance(row, list) and row:
            row.pop()
        elif kind == "add_cell" and isinstance(row, list):
            row.append(dict(row[0]) if row else {})
        elif kind == "drop_row":
            grid.pop(index % len(grid))
        elif kind == "add_row":
            grid.append(list(row) if isinstance(row, list) else row)
    return mutate


MUTATIONS = st.one_of(
    _TOP_KEYS.map(_drop_top),
    st.builds(_set_top, _TOP_KEYS | st.just("extra"), _ODD_VALUES),
    st.builds(_set_top, st.sampled_from(["rows", "cols"]), st.integers(-1, 6)),
    st.builds(_set_field, _CELLS, _DEVICE_KEYS | st.just("extra"), _ODD_VALUES),
    st.builds(_set_field, _CELLS, _DEVICE_KEYS, st.just(_TOKEN)),
    st.builds(_drop_field, _CELLS, _DEVICE_KEYS),
    st.builds(_swap_type, _CELLS, _DEVICE_KEYS),
    st.builds(_wrong_sign, _CELLS, st.sampled_from(["set_threshold", "reset_threshold"])),
    st.builds(_reshape, st.sampled_from(["drop_cell", "add_cell", "drop_row", "add_row"]),
              st.integers(0, 5)),
)


@pytest.fixture(scope="module")
def fuzz_state_path(tmp_path_factory):
    return tmp_path_factory.mktemp("state-fuzz") / "state.json"


@settings(max_examples=300, deadline=None)
@example(mutations=[_set_top("wire_segment_resistance", 10 ** 400)], token="NaN")
@example(mutations=[_set_field((2, 3), "set_threshold", 10 ** 400)], token="NaN")
@example(mutations=[_set_field((0, 1), "conductance", _TOKEN)], token="Infinity")
@example(mutations=[_set_field((1, 2), "g_min", 0), _set_field((1, 2), "conductance", -1.5)],
         token="NaN")
@given(mutations=st.lists(MUTATIONS, min_size=1, max_size=3),
       token=st.sampled_from(["NaN", "Infinity", "-Infinity"]))
def test_mutated_snapshot_raises_only_configuration_error(fuzz_state_path, mutations,
                                                          token):
    state = json.loads(json.dumps(_BASE_STATE))
    for mutate in mutations:
        mutate(state)
    text = json.dumps(state).replace(json.dumps(_TOKEN), token)
    fuzz_state_path.write_text(text)
    try:
        xb = load_state(fuzz_state_path)
    except ConfigurationError:
        return
    assert xb.cells.shape == (xb.rows, xb.cols) == (state["rows"], state["cols"])
    assert math.isfinite(xb.wire_segment_resistance)
    conductances = xb.conductances()
    assert np.isfinite(conductances).all() and (conductances > 0).all()
