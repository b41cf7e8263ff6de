import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xbarsim.benchmark import (canonical_training_set, generate_test_set, label_vector,
                               pixel_matrix)
from xbarsim.crossbar import build_crossbar
from xbarsim.device import DeviceVariationSpec
from xbarsim.errors import ConfigurationError
from xbarsim.mlp import (ConductancePairMap, MlpNetwork, NetworkTopology,
                         encode_batch, encode_pixels, fidelity, forward, infer,
                         layer_forward)
from xbarsim.pipeline import (build_network_crossbars, hardware_fidelity, read_back_network,
                              run_ex_situ_pipeline)
from xbarsim.rng import stream

CLEAN = DeviceVariationSpec(stuck_probability=0.0)


def random_network(seed=0, scale=40e-6):
    rng = stream(seed, "net")
    l1 = ConductancePairMap(rng.uniform(10e-6, 100e-6, (10, 17)),
                            rng.uniform(10e-6, 100e-6, (10, 17)))
    l2 = ConductancePairMap(rng.uniform(10e-6, 100e-6, (4, 11)),
                            rng.uniform(10e-6, 100e-6, (4, 11)))
    return MlpNetwork(l1, l2)


def single_pair(delta_current):
    """1x1 pair map that turns a 1 V input into I+ - I- = ``delta_current``."""
    return ConductancePairMap([[max(delta_current, 0.0)]], [[max(-delta_current, 0.0)]])


def neuron(delta_current, kind):
    return layer_forward(single_pair(delta_current), [1.0], kind)[0]


class TestNeurons:
    def test_hidden_odd_and_saturating(self):
        assert neuron(0.0, "hidden") == 0.0
        assert neuron(8e-6, "hidden") == pytest.approx(0.2 * math.tanh(8), rel=1e-12)
        assert neuron(-8e-6, "hidden") == pytest.approx(-0.2 * math.tanh(8), rel=1e-12)

    def test_output_linear(self):
        assert neuron(0.0, "output") == 0.0
        assert neuron(1e-6, "output") == pytest.approx(1.0, rel=1e-12)
        assert neuron(-2.5e-6, "output") == pytest.approx(-2.5, rel=1e-12)


class TestLayerForward:
    def test_balanced_pairs_give_zero(self):
        g = np.full((6, 5), 50e-6)
        layer = ConductancePairMap(g, g.copy())
        out = layer_forward(layer, np.full(5, 0.2), "hidden")
        np.testing.assert_array_equal(out, np.zeros(6))

    def test_single_pair_hand_value(self):
        plus = np.full((1, 1), 50e-6)
        minus = np.full((1, 1), 10e-6)
        layer = ConductancePairMap(plus, minus)
        out = layer_forward(layer, np.array([0.2]), "hidden")
        assert out[0] == pytest.approx(0.2 * math.tanh(0.2 * 40e-6 * 1e6), rel=1e-12)

    def test_matches_dense_reference(self):
        rng = stream(5, "ref")
        plus = rng.uniform(10e-6, 100e-6, (4, 7))
        minus = rng.uniform(10e-6, 100e-6, (4, 7))
        x = rng.uniform(-0.2, 0.2, 7)
        got = layer_forward(ConductancePairMap(plus, minus), x, "output")
        want = 1e6 * ((plus - minus) @ x)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_crossbar_and_map_agree(self):
        net = random_network(7)
        xb = build_crossbar(20, 17, CLEAN, seed=70)
        xb.cells["conductance"] = net.layer1.to_grid()
        x = stream(8, "x").uniform(-0.2, 0.2, 17)
        via_map = layer_forward(net.layer1, x, "hidden")
        via_xbar = layer_forward(xb, x, "hidden")
        np.testing.assert_allclose(via_xbar, via_map, rtol=1e-12)


class TestInfer:
    def test_balanced_network_ties_to_class_zero(self):
        g1 = np.full((10, 17), 50e-6)
        g2 = np.full((4, 11), 50e-6)
        net = MlpNetwork(ConductancePairMap(g1, g1.copy()),
                         ConductancePairMap(g2, g2.copy()))
        cls, volts = infer(net, [0, 1] * 8)
        assert cls == 0
        np.testing.assert_array_equal(volts, np.zeros(4))

    def test_deterministic(self):
        net = random_network(9)
        pixels = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1]
        a = infer(net, pixels)
        b = infer(net, pixels)
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])

    def test_pixel_encoding_levels(self):
        x = encode_pixels([1] * 8 + [0] * 8)
        assert (x[:8] == 0.2).all() and (x[8:] == -0.2).all()

    def test_hidden_saturation_bound(self):
        rng = stream(10, "sat")
        for _ in range(200):
            net = random_network(int(rng.integers(1 << 30)))
            pixels = rng.integers(0, 2, 16)
            x = np.concatenate([encode_pixels(pixels), [0.2]])
            hidden = layer_forward(net.layer1, x, "hidden")
            assert (np.abs(hidden) <= 0.2).all()

    def test_swap_antisymmetry(self):
        # Swapping plus and minus negates a layer's response exactly (both
        # activation kinds are odd in the differential current).
        net = random_network(11)
        rng = stream(11, "swapin")
        x17 = rng.uniform(-0.2, 0.2, 17)
        for layer, kind, x in ((net.layer1, "hidden", x17),
                               (net.layer2, "output", rng.uniform(-0.2, 0.2, 11))):
            swapped = ConductancePairMap(layer.minus, layer.plus)
            np.testing.assert_allclose(layer_forward(swapped, x, kind),
                                       -layer_forward(layer, x, kind),
                                       rtol=1e-12, atol=1e-15)
        # At network level an output-layer swap negates the 4 voltages.
        pixels = [0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 0]
        _, v = infer(net, pixels)
        half_swap = MlpNetwork(net.layer1,
                               ConductancePairMap(net.layer2.minus, net.layer2.plus))
        _, v_half = infer(half_swap, pixels)
        np.testing.assert_allclose(v_half, -v, rtol=1e-12)

    def test_output_scaling_preserves_argmax(self):
        net = random_network(12)
        pixels = [1, 1, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1]
        cls, v = infer(net, pixels)
        scaled = MlpNetwork(net.layer1,
                            ConductancePairMap(3.0 * net.layer2.plus,
                                               3.0 * net.layer2.minus))
        cls_scaled, v_scaled = infer(scaled, pixels)
        assert cls_scaled == cls
        np.testing.assert_allclose(v_scaled, 3.0 * v, rtol=1e-12)

    def test_crossbar_network_equals_map_network(self):
        net = random_network(13)
        xb1 = build_crossbar(20, 17, CLEAN, seed=130)
        xb2 = build_crossbar(8, 11, CLEAN, seed=131)
        xb1.cells["conductance"] = net.layer1.to_grid()
        xb2.cells["conductance"] = net.layer2.to_grid()
        hw = MlpNetwork(xb1, xb2)
        pixels = [1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1, 0, 0]
        cls_a, v_a = infer(net, pixels)
        cls_b, v_b = infer(hw, pixels)
        assert cls_a == cls_b
        np.testing.assert_allclose(v_b, v_a, rtol=1e-12)


PIXELS = np.array(canonical_training_set()[0].pixels, dtype=float)


@pytest.mark.parametrize("call, error, message", [
    (lambda net: ConductancePairMap(net.layer1.plus, net.layer1.minus[:9]),
     ConfigurationError, "plus/minus shapes differ"),
    (lambda net: forward(net.layer1.to_grid().tolist(), net.layer2, encode_batch(PIXELS)),
     TypeError, "unsupported layer type list"),
    (lambda net: layer_forward(net.layer1, encode_batch(PIXELS), "relu"),
     ValueError, "unknown activation kind 'relu'"),
    (lambda net: encode_pixels(PIXELS[:15]), ValueError, "expected 16 pixels per pattern"),
    (lambda net: infer(net, np.stack([PIXELS, PIXELS])), ValueError, "classifies one pattern")],
    ids=["mismatched-pair-sides", "forward-on-a-list", "relu-layer", "15-pixels",
         "infer-on-a-batch"])
def test_bad_argument_is_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call(random_network(19))


class TestPairGrid:
    def test_grid_round_trip(self):
        net = random_network(14)
        grid = net.layer1.to_grid()
        assert grid.shape == (20, 17)
        back = ConductancePairMap.from_grid(grid)
        np.testing.assert_array_equal(back.plus, net.layer1.plus)
        np.testing.assert_array_equal(back.minus, net.layer1.minus)


TEST_SET = generate_test_set(canonical_training_set())


def crossbar_network(net, seed, topology=NetworkTopology(), R_w=0.0):
    """The pair maps of ``net`` written onto two clean crossbars."""
    layers = []
    for k, layer in enumerate((net.layer1, net.layer2)):
        grid = layer.to_grid()
        xb = build_crossbar(*grid.shape, CLEAN, seed=seed + k, R_w=R_w,
                            line_model="wire_resistive" if R_w else "ideal")
        xb.cells["conductance"] = grid
        layers.append(xb)
    return MlpNetwork(*layers, topology=topology)


def small_network(seed, topology):
    rng = stream(seed, "small")
    shapes = ((topology.n_hidden, topology.n_inputs + 1),
              (topology.n_outputs, topology.n_hidden + 1))
    return MlpNetwork(*(ConductancePairMap(rng.uniform(10e-6, 100e-6, shape),
                                           rng.uniform(10e-6, 100e-6, shape))
                        for shape in shapes), topology=topology)


def layers(net):
    return net.layer1, net.layer2


class TestShapeContract:
    """MlpNetwork takes only layers whose pair grids have the topology's shapes."""

    def test_default_shapes_are_accepted(self):
        net = random_network(15)
        assert (net.layer1.grid_shape, net.layer2.grid_shape) == ((20, 17), (8, 11))
        MlpNetwork(*layers(crossbar_network(net, seed=150)))

    @pytest.mark.parametrize("misfit", [
        lambda net, xbars: (net.layer2, net.layer1),
        lambda net, xbars: (net.layer1, ConductancePairMap(net.layer2.plus[:3],
                                                           net.layer2.minus[:3])),
        lambda net, xbars: (ConductancePairMap(net.layer1.plus[:, :16],
                                               net.layer1.minus[:, :16]), net.layer2),
        lambda net, xbars: xbars[::-1],
        lambda net, xbars: (build_crossbar(20, 20, CLEAN, seed=0), xbars[1]),
        lambda net, xbars: (xbars[0], net.layer1)],
        ids=["swapped maps", "3-neuron output map", "16-input hidden map",
             "swapped arrays", "20x20 hidden array", "hidden map as output"])
    def test_misfit_layers_are_rejected(self, misfit):
        net = random_network(16)
        xbars = layers(crossbar_network(net, seed=160))
        # The message names the shapes found and the topology's (20, 17), (8, 11).
        with pytest.raises(ConfigurationError, match=r"\(20, 17\), \(8, 11\)\)$"):
            MlpNetwork(*misfit(net, xbars))

    @pytest.mark.parametrize("cells, siemens", [
        (np.s_[:], 0.0), (np.s_[3, 7], -5e-6), (np.s_[3, 7], math.nan)],
        ids=["zero map", "negative cell", "nan cell"])
    def test_pair_map_of_conductances_not_above_zero_is_rejected(self, cells, siemens):
        net = random_network(18)
        minus = net.layer2.minus.copy()
        minus[cells] = siemens
        with pytest.raises(ConfigurationError, match="> 0 S"):
            MlpNetwork(net.layer1, ConductancePairMap(net.layer2.plus, minus))

    def test_custom_topology(self):
        topo = NetworkTopology(n_inputs=5, n_hidden=3, n_outputs=2)
        net = small_network(17, topo)
        assert (net.layer1.grid_shape, net.layer2.grid_shape) == ((6, 6), (4, 4))
        MlpNetwork(*layers(crossbar_network(net, seed=170, topology=topo)), topology=topo)
        with pytest.raises(ConfigurationError):
            MlpNetwork(*layers(net))
        with pytest.raises(ConfigurationError):
            MlpNetwork(*layers(random_network(17)), topology=topo)


class TestCellVector:
    """``cells`` copies both crossbars' cells into one flat vector, layer 1
    first, row-major; ``store`` writes back its conductance field and no other."""

    def network(self):
        return MlpNetwork(*build_network_crossbars(21, DeviceVariationSpec(), pristine=False))

    def test_layout_is_layer_one_first_row_major(self):
        net = self.network()
        cells = net.cells()
        n1 = net.layer1.cells.size
        assert cells.shape == (n1 + net.layer2.cells.size,)
        assert cells[:n1].reshape(20, 17).tobytes() == net.layer1.cells.tobytes()
        assert cells[n1:].reshape(8, 11).tobytes() == net.layer2.cells.tobytes()

    def test_storing_a_fresh_copy_leaves_the_crossbars_byte_equal(self):
        net = self.network()
        before = [layer.cells.tobytes() for layer in layers(net)]
        net.store(net.cells())
        assert [layer.cells.tobytes() for layer in layers(net)] == before

    def test_only_the_conductance_field_is_stored(self):
        net = self.network()
        before = [layer.cells.copy() for layer in layers(net)]
        cells = net.cells()
        for name in cells.dtype.names:
            cells[name] = ~cells[name] if cells.dtype[name] == bool else 2 * cells[name] + 1
        G = cells["conductance"].copy()
        net.store(cells)
        for layer, old, grid in zip(layers(net), before, net.grids(G)):
            assert layer.cells["conductance"].tobytes() == grid.tobytes()
            for name in cells.dtype.names:
                if name != "conductance":
                    assert layer.cells[name].tobytes() == old[name].tobytes(), name
        assert G[:340].reshape(20, 17).tobytes() == net.layer1.cells["conductance"].tobytes()


LABELS = label_vector(canonical_training_set())

# Output stacks drawn from a few levels, so rows often tie at their maximum.
OUTPUT_STACKS = st.tuples(st.integers(1, 40), st.integers(1, 5)).flatmap(
    lambda shape: st.tuples(
        hnp.arrays(float, shape, elements=st.sampled_from([-1.0, -0.2, 0.0, 0.2, 1.0])),
        hnp.arrays(np.int64, shape[:1], elements=st.integers(0, shape[1] - 1))))


class TestFidelity:
    @settings(max_examples=300, deadline=None)
    @given(stack=OUTPUT_STACKS)
    def test_is_the_argmax_hit_rate_as_a_float(self, stack):
        Y, y = stack
        v = fidelity(Y, y)
        assert type(v) is float
        assert v == float((Y.argmax(1) == y).mean())

    # One-hot outputs of the labels are all correct; all-zero outputs tie in
    # every row, so every pattern is called class 0, a quarter of the set.
    @pytest.mark.parametrize("outputs, expected", [
        (np.eye(4)[LABELS], 1.0), (np.zeros((len(LABELS), 4)), 0.25)],
        ids=["one-hot-labels", "all-tied"])
    def test_canonical_set(self, outputs, expected):
        assert fidelity(outputs, LABELS) == expected


class TestBatchedForward:
    """One batched forward over the 640 test patterns equals per-pattern infer."""

    def check(self, net, patterns=TEST_SET):
        topo = net.topology
        _, _, volts = forward(net.layer1, net.layer2,
                              encode_batch(pixel_matrix(patterns), topo), topo)
        classes, one_by_one = zip(*(infer(net, p.pixels) for p in patterns))
        np.testing.assert_array_equal(volts.argmax(1), classes)
        # Batched and single-vector products sum in different orders; outputs
        # that nearly cancel keep only an absolute agreement at the output scale.
        np.testing.assert_allclose(volts, np.array(one_by_one), rtol=1e-12,
                                   atol=1e-12 * np.abs(volts).max())

    def test_pair_maps(self):
        self.check(random_network(21))

    def test_ideal_crossbars(self):
        self.check(crossbar_network(random_network(22), seed=220))

    def test_small_wire_resistive_crossbars(self):
        topo = NetworkTopology(n_hidden=3)
        net = crossbar_network(small_network(23, topo), seed=230, topology=topo, R_w=5.6)
        self.check(net)

    def test_leading_batch_shape(self):
        net = random_network(24)
        Xe = encode_batch(pixel_matrix(TEST_SET[:12]))
        flat = forward(net.layer1, net.layer2, Xe)
        stacked = forward(net.layer1, net.layer2, Xe.reshape(3, 4, 17))
        for a, b in zip(flat, stacked):
            np.testing.assert_array_equal(b.reshape(a.shape), a)


class TestForwardInto:
    """``forward(..., out=...)`` fills a caller's buffers with the values it returns
    anew, and stacked batches keep ``@``'s per-slice products."""

    def weights(self, seed):
        rng = stream(seed, "forward-into")
        return rng.uniform(-5, 5, (10, 17)), rng.uniform(-5, 5, (4, 11))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_dirty_buffers_equal_fresh_arrays(self, seed):
        u1, u2 = self.weights(seed)
        Xe = encode_batch(pixel_matrix(TEST_SET[:40]))
        bufs = tuple(np.full(shape, np.nan) for shape in ((40, 10), (40, 11), (40, 4)))
        got = forward(u1, u2, Xe, out=bufs)
        assert all(g is b for g, b in zip(got, bufs))
        for g, want in zip(got, forward(u1, u2, Xe)):
            assert g.tobytes() == want.tobytes()

    def test_stacked_batch_equals_per_slice_products(self):
        u1, u2 = self.weights(2)
        Xe = encode_batch(pixel_matrix(TEST_SET[:60])).reshape(5, 12, 17)
        tanh_a, hidden, Y = forward(u1, u2, Xe)
        for k, X in enumerate(Xe):
            t = np.tanh(X @ u1.T)
            h = np.concatenate([0.2 * t, np.full((12, 1), 0.2)], axis=1)
            for got, want in zip((tanh_a[k], hidden[k], Y[k]), (t, h, h @ u2.T)):
                assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def aware_chip():
    return run_ex_situ_pipeline(0, aware=True).crossbars


def test_read_back_network_pairs_each_array(aware_chip):
    net = read_back_network(*aware_chip)
    for layer, xb in zip((net.layer1, net.layer2), aware_chip):
        want = ConductancePairMap.from_grid(xb.conductances())
        assert layer.plus.tobytes() == want.plus.tobytes()
        assert layer.minus.tobytes() == want.minus.tobytes()
        assert layer.to_grid().tobytes() == xb.conductances().tobytes()


def test_hardware_fidelity_reads_through_the_line_model(aware_chip):
    xb1, xb2 = aware_chip
    train = canonical_training_set()
    ideal = hardware_fidelity(xb1, xb2, train)
    for xb in (xb1, xb2):
        xb.line_model, xb.wire_segment_resistance = "wire_resistive", 200.0
    try:
        net = MlpNetwork(xb1, xb2)
        per_pattern = np.mean([infer(net, p.pixels)[0] == p.label_index for p in train])
        # At 200 ohm per segment the line drops flip a training pattern, so
        # an ideal-line readout would give a different answer.
        assert per_pattern != ideal
        assert hardware_fidelity(xb1, xb2, train) == per_pattern
    finally:
        for xb in (xb1, xb2):
            xb.line_model, xb.wire_segment_resistance = "ideal", 0.0
