"""Differential-pair two-layer perceptron: the network's transfer function.

Each signed weight is a pair of devices on adjacent crossbar rows: row 2j
carries G+ and row 2j+1 carries G- for neuron j, columns are inputs.  The
hidden neuron saturates (0.2 V rail), the output neuron is a linear
transimpedance stage, both with the 1e6 V/A gain of the board:

    V_hidden = 0.2 * tanh(1e6 * (I+ - I-))
    V_out    = 1e6 * (I+ - I-)

Pixels map to +/-0.2 V inputs (1 -> +0.2 V), and both layers carry a fixed
+0.2 V bias input appended after the data inputs.

``forward`` is that transfer function, written once: ex-situ training and its
gradients, in-situ Manhattan updates, software and hardware fidelity and
per-pattern ``infer`` all run through it, on any leading batch shape.  A
layer is a ConductancePairMap, a Crossbar (read through ``vmm``, so its line
model applies) or signed weights in gain-normalized units (gain * (G+ - G-),
so their product with the input volts is the pre-activation in volts).
``forward(..., out=...)`` writes into a caller's buffers instead of new
arrays, and a weight array's product with a 2-D batch is ``np.dot`` (the
same BLAS call as ``@``, at less overhead; other ranks keep ``@``).
``fidelity``, the share of patterns whose largest output is their label's, is
the one definition of classification fidelity.  Write loops run over a
network's cell vector, ``MlpNetwork.cells``: both crossbars' cells, flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .crossbar import Crossbar, vmm
from .errors import ConfigurationError


@dataclass
class NetworkTopology:
    n_inputs: int = 16
    n_hidden: int = 10
    n_outputs: int = 4
    input_level: float = 0.2
    bias_level: float = 0.2
    transimpedance_gain: float = 1e6
    hidden_saturation: float = 0.2

    @property
    def layer1_shape(self):
        """(grid rows, grid cols) of the first-layer pair grid."""
        return 2 * self.n_hidden, self.n_inputs + 1

    @property
    def layer2_shape(self):
        return 2 * self.n_outputs, self.n_hidden + 1


DEFAULT_TOPOLOGY = NetworkTopology()


@dataclass
class ConductancePairMap:
    """Differential-pair conductances of one layer, in siemens.

    ``plus`` and ``minus`` have shape (neurons, inputs); the corresponding
    crossbar grid interleaves them on adjacent rows.
    """

    plus: np.ndarray
    minus: np.ndarray

    def __post_init__(self):
        self.plus = np.asarray(self.plus, dtype=float)
        self.minus = np.asarray(self.minus, dtype=float)
        if self.plus.shape != self.minus.shape:
            raise ConfigurationError("plus/minus shapes differ")

    @property
    def grid_shape(self):
        """(grid rows, grid cols): two rows per neuron, one column per input."""
        return 2 * self.plus.shape[0], self.plus.shape[1]

    def to_grid(self) -> np.ndarray:
        grid = np.empty(self.grid_shape)
        grid[0::2] = self.plus
        grid[1::2] = self.minus
        return grid

    @classmethod
    def from_grid(cls, grid) -> "ConductancePairMap":
        grid = np.asarray(grid, dtype=float)
        if grid.shape[0] % 2:
            raise ConfigurationError("pair grid needs an even number of rows")
        return cls(plus=grid[0::2].copy(), minus=grid[1::2].copy())


def _split(vector, shape1, shape2):
    """The two layers' grids as views of one flat vector, layer 1 first."""
    n = shape1[0] * shape1[1]
    return vector[:n].reshape(shape1), vector[n:].reshape(shape2)


def pair_sides(grid1, grid2) -> tuple:
    """Every weight's G+ (row 2j) and G- (row 2j+1) entry of two layers' pair
    grids, as two flat vectors, layer 1 first, each grid row-major."""
    return tuple(np.concatenate((grid1[k::2], grid2[k::2]), axis=None) for k in (0, 1))


def _pair_cells(shapes) -> tuple:
    """``pair_sides``' positions in a flat vector of pair grids of ``shapes``
    laid end to end."""
    return pair_sides(*_split(np.arange(sum(r * c for r, c in shapes)), *shapes))


def _preactivation(layer, X, topology: NetworkTopology, out=None):
    """gain * (I+ - I-) of every neuron of ``layer`` for input rows X (..., n_in),
    written into ``out`` when given."""
    if isinstance(layer, np.ndarray):
        return np.dot(X, layer.T, out=out) if X.ndim == 2 else np.matmul(X, layer.T, out=out)
    gain = topology.transimpedance_gain
    if isinstance(layer, ConductancePairMap):
        return np.multiply(gain, X @ layer.plus.T - X @ layer.minus.T, out=out)
    if isinstance(layer, Crossbar):
        currents = vmm(layer, X)
        return np.multiply(gain, currents[..., 0::2] - currents[..., 1::2], out=out)
    raise TypeError(f"unsupported layer type {type(layer).__name__}")


def forward(layer1, layer2, Xe, topology: NetworkTopology = DEFAULT_TOPOLOGY, out=None):
    """The network's transfer function on encoded inputs Xe (..., n_inputs + 1).

    Returns (tanh of the hidden pre-activation, hidden volts with the bias
    input appended, output volts); gradients need the first two.  ``out``, a
    (tanh_a, hidden, Y) triple of arrays of those shapes, receives them instead
    of new arrays: a training loop then allocates nothing per epoch.  Every
    entry of ``out`` is written, the bias column included.  A weight-array
    layer multiplies a 2-D batch with ``np.dot`` (the same BLAS call as ``@``,
    at less overhead) and any other rank with ``@``: ``np.dot`` sums stacked
    batches in another order.
    """
    tanh_a, hidden, Y = (None, None, None) if out is None else out
    tanh_a = np.tanh(_preactivation(layer1, Xe, topology, tanh_a), out=tanh_a)
    if hidden is None:
        hidden = np.empty(tanh_a.shape[:-1] + (tanh_a.shape[-1] + 1,))
    hidden[..., -1] = topology.bias_level
    np.multiply(topology.hidden_saturation, tanh_a, out=hidden[..., :-1])
    return tanh_a, hidden, _preactivation(layer2, hidden, topology, Y)


def layer_forward(layer, inputs, kind: str, topology: NetworkTopology = DEFAULT_TOPOLOGY):
    """Run one differential-pair layer on input volts (..., n_inputs); kind is
    'hidden' or 'output'."""
    if kind not in ("hidden", "output"):
        raise ValueError(f"unknown activation kind {kind!r}")
    a = _preactivation(layer, np.asarray(inputs, dtype=float), topology)
    return topology.hidden_saturation * np.tanh(a) if kind == "hidden" else a


@dataclass
class MlpNetwork:
    """Two layers whose pair grids fit the topology: crossbars, or pair maps > 0 S."""

    layer1: object
    layer2: object
    topology: NetworkTopology = field(default_factory=NetworkTopology)

    def __post_init__(self):
        shapes = tuple(layer.grid_shape if isinstance(layer, ConductancePairMap)
                       else layer.cells.shape for layer in (self.layer1, self.layer2))
        wanted = self.topology.layer1_shape, self.topology.layer2_shape
        if shapes != wanted:
            raise ConfigurationError(f"layer grids {shapes} do not match the topology's {wanted}")
        if not all((layer.to_grid() > 0).all() for layer in (self.layer1, self.layer2)
                   if isinstance(layer, ConductancePairMap)):
            raise ConfigurationError("pair maps must hold conductances > 0 S")

    def cells(self) -> np.ndarray:
        """A flat copy of both crossbars' cells, the network's cell vector:
        layer 1 first, each grid row-major (``_pair_cells`` finds the pairs)."""
        return np.concatenate((self.layer1.cells, self.layer2.cells), axis=None)

    def grids(self, vector):
        """The two layers' grids as views of a flat network vector."""
        return _split(vector, self.topology.layer1_shape, self.topology.layer2_shape)

    def store(self, cells):
        """Write the ``conductance`` field of a ``cells()`` copy to the crossbars."""
        for layer, grid in zip((self.layer1, self.layer2), self.grids(cells["conductance"])):
            layer.cells["conductance"] = grid


def encode_pixels(pixels, topology: NetworkTopology = DEFAULT_TOPOLOGY) -> np.ndarray:
    """Map binary pixels (..., n_inputs) to +/-input_level volts (1 -> +, 0 -> -)."""
    px = np.asarray(pixels, dtype=float)
    if px.shape[-1:] != (topology.n_inputs,):
        raise ValueError(f"expected {topology.n_inputs} pixels per pattern, "
                         f"got shape {px.shape}")
    return np.where(px > 0.5, topology.input_level, -topology.input_level)


def encode_batch(pixels, topology: NetworkTopology = DEFAULT_TOPOLOGY) -> np.ndarray:
    """The network's encoded inputs: pixel volts with the bias input appended."""
    X = encode_pixels(pixels, topology)
    Xb = np.empty(X.shape[:-1] + (X.shape[-1] + 1,))
    Xb[..., :-1], Xb[..., -1] = X, topology.bias_level
    return Xb


def fidelity(Y, y) -> float:
    """Share of output rows Y (n, classes) whose argmax (ties: lowest index) is y (n,)."""
    return float(np.count_nonzero(Y.argmax(-1) == y) / len(y))


def infer(net: MlpNetwork, pixels) -> tuple:
    """Classify one pattern; returns (class index, output voltages).

    Ties break toward the lowest class index.
    """
    if np.ndim(pixels) != 1:
        raise ValueError("infer classifies one pattern; use forward for batches")
    _, _, outputs = forward(net.layer1, net.layer2, encode_batch(pixels, net.topology),
                            net.topology)
    return int(np.argmax(outputs)), outputs
