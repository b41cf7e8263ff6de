"""Training paths: ex-situ backpropagation and in-situ Manhattan-rule.

Ex-situ training runs full-batch gradient descent on mean-square error
through the network's transfer function, ``mlp.forward`` (0.2 V inputs,
saturating 0.2*tanh hidden stage, 1e6 V/A gain), keeping every weight
representable as a differential conductance pair inside the working range.
The hardware-aware variant additionally freezes defective devices at their
measured conductances and routes the remaining updates around them.
``_backward`` backpropagates through that one forward for both training
paths.  Both layers' parameters live in one flat vector, and so do the G+
and G- sides of the pairs (``mlp.pair_sides``), so pinning stuck devices
and every epoch's update are one step over flat vectors.  Each loop's epochs
write into one reused ``_Workspace``, so an epoch allocates no arrays.

In-situ training drives the simulated crossbars directly: inference on the
hardware, update signs from backpropagation on read-back conductances, and
one fixed-amplitude pulse per device.  The hardware applies the pulses one
crossbar row at a time in two polarity steps; because ideal-line writes do
not couple cells, the simulator applies each epoch's schedule as one masked
increase and one masked decrease over both arrays' cells in pair-sides
order: gathered once from ``MlpNetwork.cells``, every G+ cell and then every
G- cell (``_pair_cells``), so an epoch's weights are the difference of two
halves and its pulse masks the gradient's signs side by side.  The
conductances go back to the crossbars once training ends
(``MlpNetwork.store``).  A wire-resistive write model would need the row
loop back.

Weights at every interface are in siemens.  Learning rates are quoted in
gain-normalized units (1 unit = 1 uS of differential conductance), which is
the natural scale at which the 1e6 V/A gain cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .benchmark import label_vector, pixel_matrix
from .crossbar import BiasScheme, Crossbar, write_csv
from .device import switching_steps
from .errors import ConfigurationError, DivergenceError
from .mlp import (DEFAULT_TOPOLOGY, ConductancePairMap, MlpNetwork, _pair_cells, _split,
                  encode_batch, fidelity, forward, pair_sides)
from .rng import stream
from .units import quantity

_U = 1.0 / DEFAULT_TOPOLOGY.transimpedance_gain   # gain-normalized weight unit (siemens)


@dataclass
class TrainingConfig:
    learning_rate: float = 1.0
    epochs: int = 6000
    seed: int = 0
    init_scale: float = quantity(4e-6, "S")   # uniform +/- initial weights
    target_level: float = quantity(1.0, "V")  # MSE target for the winning class
    clip_interval: tuple[float, float] = quantity((10e-6, 100e-6), "S")
    g_bias: float = quantity(55e-6, "S")
    fill_range: bool = True           # scale trained weights into the pair range
    fill_fraction: float = 2.0 / 3.0  # fraction of the representable range to use
    finetune_epochs: int = 2000       # constrained polish in hardware-aware mode

    def validate(self):
        lo, hi = self.clip_interval
        if not 0 < lo < hi:
            raise ConfigurationError("clip interval must be positive and ordered")
        if not lo <= self.g_bias <= hi:
            raise ConfigurationError("g_bias must sit inside the clip interval")
        if self.epochs < 0 or self.finetune_epochs < 0:
            raise ConfigurationError("epoch counts must be non-negative")
        for name in ("learning_rate", "init_scale", "target_level"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite")
        if not 0 < self.fill_fraction <= 1:
            raise ConfigurationError("fill_fraction must be in (0, 1]")
        return self

    @property
    def weight_limit(self) -> float:
        lo, hi = self.clip_interval
        return 2.0 * min(self.g_bias - lo, hi - self.g_bias)


@dataclass
class DefectMap:
    """Stuck devices on the two pair grids, values in siemens."""

    layer1_stuck: np.ndarray
    layer1_values: np.ndarray
    layer2_stuck: np.ndarray
    layer2_values: np.ndarray

    @classmethod
    def from_crossbars(cls, xb1: Crossbar, xb2: Crossbar) -> "DefectMap":
        return cls(xb1.stuck_map(), xb1.conductances(),
                   xb2.stuck_map(), xb2.conductances())


def forward_batch(w1, w2, pixels_matrix, topology=DEFAULT_TOPOLOGY) -> np.ndarray:
    """Output voltages for a batch of patterns; weights in siemens."""
    return forward(np.asarray(w1) / _U, np.asarray(w2) / _U,
                   encode_batch(pixels_matrix, topology), topology)[2]


class _Workspace:
    """One batch's buffers for ``_grads`` and ``_backward``: ``forward``'s
    (tanh_a, hidden, Y) triple, the error terms and one flat gradient vector
    D, both layers' gradients, whose layer views d1 and d2 ``_backward`` fills."""

    def __init__(self, n, shape1, shape2):
        (h, _), (k, _) = shape1, shape2
        self.fwd = np.empty((n, h)), np.empty((n, h + 1)), np.empty((n, k))
        self.err, self.dY, self.sq = np.empty((3, n, k))
        self.dH, self.factor = np.empty((2, n, h))
        self.D = np.empty(shape1[0] * shape1[1] + shape2[0] * shape2[1])
        self.d1, self.d2 = _split(self.D, shape1, shape2)


def _backward(u2, Xe, tanh_a, Ha, dY, topology, ws):
    """Both layers' gradients from dY, the loss's gradient in the outputs, and
    ``forward``'s tanh_a and hidden volts Ha, written into the workspace's D;
    returns its views (d1, d2)."""
    np.dot(dY.T, Ha, out=ws.d2)
    dH = np.multiply(np.dot(dY, u2[:, :-1], out=ws.dH), topology.hidden_saturation, out=ws.dH)
    factor = np.subtract(1.0, np.square(tanh_a, out=ws.factor), out=ws.factor)
    np.dot(np.multiply(dH, factor, out=dH).T, Xe, out=ws.d1)
    return ws.d1, ws.d2


def _grads(u1, u2, Xe, T, topology=DEFAULT_TOPOLOGY, ws=None):
    """MSE gradients in gain-normalized units; returns (loss, Y, d1, d2).  Y, d1
    and d2 are buffers of the workspace ``ws`` (a new one when None), which its
    next use overwrites."""
    ws = _Workspace(len(Xe), u1.shape, u2.shape) if ws is None else ws
    tanh_a, Ha, Y = forward(u1, u2, Xe, topology, out=ws.fwd)
    err = np.subtract(Y, T, out=ws.err)
    d1, d2 = _backward(u2, Xe, tanh_a, Ha, np.divide(err, T.size / 2.0, out=ws.dY),
                       topology, ws)
    loss = float(np.add.reduce(np.multiply(err, err, out=ws.sq), axis=None)) / err.size
    return loss, Y, d1, d2


# Epochs whose output argmaxes are buffered before their fidelities are taken.
_FIDELITY_CHUNK = 200


def _argmax_rows(epochs, y, fids):
    """Yield one row per epoch for its output argmaxes; once a chunk of rows
    is written, append their fidelities against ``y`` to ``fids``."""
    hits = np.empty((min(epochs, _FIDELITY_CHUNK), len(y)), dtype=np.intp)
    for start in range(0, epochs, _FIDELITY_CHUNK):
        yield from (chunk := hits[:epochs - start])
        # fidelity(), chunk by chunk: the same int / int division
        fids += (np.count_nonzero(chunk == y, axis=1) / len(y)).tolist()


def _descend(epochs, step, y, first_epoch, where):
    """Run ``step`` ``epochs`` times; each call returns the loss and outputs Y
    at the parameters it then updates.  Returns the curve rows (epoch, loss,
    fidelity of Y), epochs numbered from ``first_epoch``.  A non-finite loss
    raises DivergenceError naming the epoch, ``where`` saying which loop's."""
    losses, fids = [], []
    for epoch, row in enumerate(_argmax_rows(epochs, y, fids)):
        loss, Y = step()
        if not math.isfinite(loss):
            raise DivergenceError(f"non-finite loss {where} {epoch}")
        losses.append(loss)
        Y.argmax(-1, out=row)
    return list(zip(range(first_epoch, first_epoch + epochs), losses, fids))


def _targets(y, n_outputs, level):
    T = np.full((len(y), n_outputs), -level)
    T[np.arange(len(y)), y] = level
    return T


@dataclass
class TrainingOutcome:
    weights: tuple                 # (w1, w2) in siemens
    pair_maps: tuple               # (layer1, layer2) ConductancePairMap
    curve: list                    # (epoch, mse, train fidelity) rows
    train_fidelity: float
    range_scale: float = 1.0       # factor applied by the range fill


def train_ex_situ(patterns, cfg: TrainingConfig,
                  defects: DefectMap | None = None) -> TrainingOutcome:
    """Full-batch backpropagation on the canonical topology (16-10-4 + biases).

    Stage 1 trains signed weights with per-step clipping to the pair range.
    The result is then normalized onto the full conductance range (weight
    import is a fixed-precision analog write, so dynamic range is margin)
    and split into differential pairs.  With a defect map, stuck devices are
    pinned at their measured conductances, their pair partners re-solved for
    the wanted weights, and a constrained fine-tune polishes the network
    with the stuck entries excluded from every update.
    """
    cfg.validate()
    topo = DEFAULT_TOPOLOGY
    Xe = encode_batch(pixel_matrix(patterns), topo)
    y = label_vector(patterns)
    T = _targets(y, topo.n_outputs, cfg.target_level)
    limit_u = cfg.weight_limit / _U
    lr = cfg.learning_rate

    rng = stream(cfg.seed, "training-init")
    init_u = cfg.init_scale / _U
    u1 = rng.uniform(-init_u, init_u, (topo.n_hidden, topo.n_inputs + 1))
    u2 = rng.uniform(-init_u, init_u, (topo.n_outputs, topo.n_hidden + 1))
    shapes = u1.shape, u2.shape
    U = np.concatenate((u1, u2), axis=None)     # both layers; u1, u2 are its views
    u1, u2 = _split(U, *shapes)
    ws = _Workspace(len(Xe), *shapes)

    def step():
        loss, Y, _, _ = _grads(u1, u2, Xe, T, topo, ws)
        np.subtract(U, np.multiply(lr, ws.D, out=ws.D), out=U)
        np.minimum(np.maximum(U, -limit_u, out=U), limit_u, out=U)
        return loss, Y

    curve = _descend(cfg.epochs, step, y, 0, "at epoch")

    # Normalize into the representable range: classification is invariant to
    # a common positive scale, and larger conductance contrasts buy import
    # headroom against tuning error and stuck cells.  A third of the range is
    # kept in reserve so a single defective pair cannot dominate a neuron.
    beta = 1.0
    peak = np.abs(U).max()
    if cfg.fill_range and peak > 0:
        beta = cfg.fill_fraction * limit_u / peak
        U = U * beta

    g_bias_u = cfg.g_bias / _U
    P, M = g_bias_u + U / 2.0, g_bias_u - U / 2.0
    if defects is not None:
        free_p, free_m = _pin_and_solve(P, M, U, defects, cfg)
        _finetune_pairs(P, M, free_p, free_m, shapes, Xe, y, cfg, beta, curve, topo)

    (p1, p2), (m1, m2) = _split(P, *shapes), _split(M, *shapes)
    w1, w2 = (p1 - m1) * _U, (p2 - m2) * _U
    maps = (ConductancePairMap(p1 * _U, m1 * _U),
            ConductancePairMap(p2 * _U, m2 * _U))
    fid = fidelity(forward_batch(w1, w2, pixel_matrix(patterns), topo), y)
    return TrainingOutcome(weights=(w1, w2), pair_maps=maps, curve=curve,
                           train_fidelity=fid, range_scale=beta)


def _pin_and_solve(P, M, U, defects, cfg):
    """Pin the stuck devices of the flat pair vectors P, M at their measured
    conductances and re-solve their free partners for the weights U, in
    place; returns the (G+, G-) masks of the free devices."""
    lo_u, hi_u = cfg.clip_interval[0] / _U, cfg.clip_interval[1] / _U
    sp, sm = pair_sides(defects.layer1_stuck, defects.layer2_stuck)
    vp, vm = pair_sides(defects.layer1_values, defects.layer2_values)
    P[sp], M[sm] = vp[sp] / _U, vm[sm] / _U
    fix_m, fix_p = sp & ~sm, sm & ~sp
    M[fix_m] = np.clip(P[fix_m] - U[fix_m], lo_u, hi_u)
    P[fix_p] = np.clip(M[fix_p] + U[fix_p], lo_u, hi_u)
    return ~sp, ~sm


def _finetune_pairs(P, M, free_p, free_m, shapes, Xe, y, cfg, beta, curve, topo):
    """Constrained polish of the flat pair vectors P, M (weights of ``shapes``)
    in place: stuck entries get exactly zero update."""
    lo_u, hi_u = cfg.clip_interval[0] / _U, cfg.clip_interval[1] / _U
    # Targets and step size follow the range normalization so the polish
    # starts at equilibrium instead of undoing the scale.
    T = _targets(y, topo.n_outputs, cfg.target_level * beta)
    lr = cfg.learning_rate / beta ** 2
    W = np.empty_like(P)                        # P - M; u1, u2 are its views
    u1, u2 = _split(W, *shapes)
    ws, step_p = _Workspace(len(Xe), *shapes), np.empty_like(P)   # step_p: D * a free mask

    def step():
        np.subtract(P, M, out=W)
        loss, Y, _, _ = _grads(u1, u2, Xe, T, topo, ws)
        D = np.multiply(lr, ws.D, out=ws.D)
        np.subtract(P, np.multiply(D, free_p, out=step_p), out=P)
        np.minimum(np.maximum(P, lo_u, out=P), hi_u, out=P)
        np.add(M, np.multiply(D, free_m, out=step_p), out=M)
        np.minimum(np.maximum(M, lo_u, out=M), hi_u, out=M)
        return loss, Y

    curve += _descend(cfg.finetune_epochs, step, y, len(curve), "in fine-tune epoch")


def train_single_layer(patterns, cfg: TrainingConfig) -> tuple:
    """Single-layer argmax baseline (16+bias -> 4); returns (weights, best fidelity).

    Used for the capacity comparison against the MLP; on a non-separable set
    its best training fidelity stays below 100%.
    """
    cfg.validate()
    topo = DEFAULT_TOPOLOGY
    Xe = encode_batch(pixel_matrix(patterns), topo)
    y = label_vector(patterns)
    T = _targets(y, topo.n_outputs, cfg.target_level)
    limit_u = cfg.weight_limit / _U
    rng = stream(cfg.seed, "training-init", "single-layer")
    w = rng.uniform(-cfg.init_scale / _U, cfg.init_scale / _U,
                    (topo.n_outputs, topo.n_inputs + 1))

    def step():
        Y = Xe @ w.T
        err = Y - T
        np.clip(w - cfg.learning_rate * ((err / (T.size / 2.0)).T @ Xe), -limit_u, limit_u,
                out=w)
        return float(np.add.reduce(err * err, axis=None)) / err.size, Y

    curve = _descend(cfg.epochs, step, y, 0, "at single-layer epoch")
    return w * _U, max([fid for _, _, fid in curve] + [fidelity(Xe @ w.T, y)])


# --- In-situ Manhattan-rule training ----------------------------------------

# MSE target voltage of the winning class in Manhattan training.
MANHATTAN_TARGET_LEVEL = 1.0

# Share of the fidelity curve averaged into the reported final fidelity.
TAIL_FRACTION = 0.25


@dataclass
class ManhattanConfig:
    amplitude: float = quantity(1.3, "V")     # fixed for every update pulse
    pulse_width: float = quantity(500e-6, "s")
    bias_scheme: str = "V_half"
    epochs: int = 400

    def validate(self):
        if not 0 < self.amplitude < math.inf:
            raise ConfigurationError("pulse amplitude must be positive and finite")
        if not 0 < self.pulse_width < math.inf:
            raise ConfigurationError("pulse width must be positive and finite")
        if self.epochs < 1:
            raise ConfigurationError("need at least one epoch")
        BiasScheme(self.bias_scheme)
        return self


@dataclass
class ManhattanResult:
    error_curve: list                  # per-epoch training error rate
    final_fidelity: float              # mean fidelity over the tail window
    last_fidelity: float               # fidelity of the end state
    disturb_risk_count: int            # devices switchable at half-select bias
    pulses_issued: int                 # non-zero update signs over all epochs


def _half_select_risk(cells, cfg: ManhattanConfig) -> int:
    """Devices of ``cells`` a half-selected write under ``cfg.bias_scheme`` could switch."""
    v_half = BiasScheme(cfg.bias_scheme).half_select_fraction() * cfg.amplitude
    return int(np.count_nonzero(
        np.minimum(cells["set_threshold"], -cells["reset_threshold"]) < v_half))


def train_in_situ_manhattan(xb1: Crossbar, xb2: Crossbar, patterns,
                            cfg: ManhattanConfig) -> ManhattanResult:
    """Hardware-in-the-loop training with fixed-amplitude update pulses.

    Each epoch: run inference for the whole batch on the simulated hardware,
    compute update signs by backpropagation on the read-back conductances,
    then pulse every device once, positive polarity first, under half-select
    biasing (applied as the module docstring describes).  A cell that is not
    live (unformed or stuck) gets zero steps and infinite clamps, so a pulse
    leaves it as it is.  Classes are restricted to the labels present in the
    dataset.  Every device must be linear (``nonlinearity_alpha`` 0) and no
    array may read through its wires (``Crossbar.reads_through_wires``), since
    the updates read ``G`` linearly as ideal lines see it.
    """
    cfg.validate()
    net = MlpNetwork(xb1, xb2)                  # raises unless the arrays fit its topology
    topo = net.topology
    Xe = encode_batch(pixel_matrix(patterns), topo)
    y = label_vector(patterns)
    class_idx = np.unique(y)                    # the labels in play, sorted
    y_local = np.searchsorted(class_idx, y)
    T = _targets(y, topo.n_outputs, MANHATTAN_TARGET_LEVEL)

    cells = net.cells()
    if (cells["nonlinearity_alpha"] > 0).any():
        raise ConfigurationError("in-situ training reads conductances linearly; "
                                 "set the devices' nonlinearity_alpha to 0")
    if xb1.reads_through_wires or xb2.reads_through_wires:
        raise ConfigurationError("in-situ training models ideal lines only; set the "
                                 "line model to 'ideal' or the wire resistance to 0")
    disturb = _half_select_risk(cells, cfg)
    # Per-cell arrays in pair-sides order: every G+ cell, then every G- cell.
    sides = np.concatenate(_pair_cells((topo.layer1_shape, topo.layer2_shape)))
    pairs = cells[sides]
    G, live = Crossbar(pairs).conductances(), pairs["formed"] & ~pairs["stuck"]
    up, down = switching_steps(pairs, [[cfg.amplitude], [-cfg.amplitude]], cfg.pulse_width)
    lo, hi = np.where(live, pairs["g_min"], -np.inf), np.where(live, pairs["g_max"], np.inf)
    (Gp, Gm), W, step = np.split(G, 2), np.empty(G.size // 2), np.empty(G.size)
    layers = (topo.n_hidden, topo.n_inputs + 1), (topo.n_outputs, topo.n_hidden + 1)
    u1, u2 = _split(W, *layers)
    # B = (D < 0, D > 0, D < 0): inc is (G+ up, G- up), dec its mirror (G+ down, G- down).
    B = np.empty((3, W.size), dtype=bool)
    inc, dec = B[:2].reshape(-1), B[1:].reshape(-1)
    fids, pulses = [], 0

    # Gradients run over the full 4-output head with error only on the
    # classes in play: an unused output's error is divided by inf, a zero of
    # either sign, so it gets no pulse under the strict masks below.
    scale = np.full(topo.n_outputs, np.inf)
    scale[class_idx] = len(y) * len(class_idx) / 2.0
    ws, Ysub = _Workspace(len(y), *layers), np.empty((len(y), len(class_idx)))
    for epoch, row in enumerate(_argmax_rows(cfg.epochs + 1, y_local, fids)):
        np.divide(np.subtract(Gp, Gm, out=W), _U, out=W)
        tanh_a, Ha, Y = forward(u1, u2, Xe, topo, out=ws.fwd)
        Y.take(class_idx, axis=1, out=Ysub).argmax(-1, out=row)
        if epoch == cfg.epochs:
            continue                # the end state's row: not break, so its chunk is counted
        dY = np.divide(np.subtract(Y, T, out=ws.err), scale, out=ws.dY)
        _backward(u2, Xe, tanh_a, Ha, dY, topo, ws)
        np.less(ws.D, 0, out=B[0])
        np.greater(ws.D, 0, out=B[1])
        B[2] = B[0]
        pulses += 2 * np.count_nonzero(inc)
        np.copyto(G, np.minimum(np.add(G, up, out=step), hi, out=step), where=inc)
        np.copyto(G, np.maximum(np.add(G, down, out=step), lo, out=step), where=dec)

    cells["conductance"][sides[live]] = G[live]
    net.store(cells)
    tail = max(1, int(round(TAIL_FRACTION * len(fids))))
    return ManhattanResult(error_curve=[1.0 - fid for fid in fids[:-1]],
                           final_fidelity=float(np.mean(fids[-tail:])),
                           last_fidelity=fids[-1],
                           disturb_risk_count=disturb,
                           pulses_issued=int(pulses))


def save_curve(curve, path):
    """Training curve as CSV: epoch, mse, fidelity."""
    write_csv([("epoch", "mse", "fidelity"), *curve], path)
