"""Behavioral model of a single metal-oxide memristor crosspoint.

One device is a handful of sampled parameters: switching thresholds, analog
switching kinetics, conductance bounds, and optional defect state.  Voltage
pulses above threshold move the conductance gradually; everything below
threshold is read-only.  Conductance is in siemens, voltages in volts,
currents in amperes, times in seconds throughout.

Sampling draws each device from its own Generator in a fixed order, given in
``draw_cells``; the array expressions it evaluates are numpy's scalar normal
and uniform draws, one rounded IEEE operation each, so they match bit for bit.
"""

from __future__ import annotations

import math
import operator
import typing
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .units import quantity

# Reference pulse width: switching-rate parameters are quoted per pulse of
# this width, and scale linearly with actual width.
PULSE_WIDTH_REF = 500e-6

# Largest voltage magnitude current() accepts before flagging a domain error.
SAFE_READ_VOLTAGE = 2.5

# Thresholds are clamped away from zero so a degenerate spec cannot produce
# a device that switches at 0 V.
_MIN_THRESHOLD = 0.05

_MIN_FORMING_CURRENT = 1e-6

# Pristine population, set by the fabricated chip: the share that needs no
# forming and its resistance, the others' resistance, the forming current
# (normal, in amperes) and the conductance once formed.
PREFORMED_PROBABILITY = 0.05
PREFORMED_RESISTANCE_RANGE = (2e4, 8e4)
PRISTINE_RESISTANCE_RANGE = (1e6, 1e7)
FORMING_CURRENT_MU = 400e-6
FORMING_CURRENT_SIGMA = 80e-6
POST_FORMING_CONDUCTANCE_RANGE = (30e-6, 120e-6)


@dataclass
class DeviceVariationSpec:
    """Population statistics for sampling devices.

    Threshold voltages are normal; initial/stuck conductances and switching
    rates are uniform over the given ranges.  The pristine population, its
    pre-formed share included, is a property of the chip, set by the module
    constants.  A pristine device conducts only through its pristine
    resistance until a current sweep with ceiling >= its sampled forming
    current activates it.
    """

    set_mu: float = quantity(1.0, "V")
    set_sigma: float = quantity(0.13, "V")
    reset_mu: float = quantity(-1.2, "V")
    reset_sigma: float = quantity(0.15, "V")
    stuck_probability: float = 0.02
    stuck_conductance_range: tuple[float, float] = quantity((10e-6, 100e-6), "S")
    g_init_range: tuple[float, float] = quantity((10e-6, 100e-6), "S")
    g_min: float = quantity(2e-6, "S")
    g_max: float = quantity(150e-6, "S")
    nonlinearity_alpha: float = 0.0
    kinetics_rate_range: tuple[float, float] = quantity((0.02e-6, 0.06e-6), "S")
    kinetics_voltage_scale: float = quantity(0.3, "V")

    def validate(self):
        if not (0 <= self.set_sigma < math.inf and 0 <= self.reset_sigma < math.inf):
            raise ConfigurationError("threshold sigmas must be non-negative and finite")
        if not 0.0 <= self.stuck_probability <= 1.0:
            raise ConfigurationError("stuck_probability must be in [0, 1]")
        for name in ("stuck_conductance_range", "g_init_range", "kinetics_rate_range"):
            lo, hi = getattr(self, name)
            if not 0 <= hi - lo < math.inf:
                raise ConfigurationError(f"{name} must be ordered (lo <= hi) and finite")
        if not self.kinetics_rate_range[0] >= 0:
            raise ConfigurationError("kinetics_rate_range must be non-negative")
        if not 0 < self.g_min <= self.g_max:
            raise ConfigurationError("need 0 < g_min <= g_max")
        if not 0 < self.kinetics_voltage_scale < math.inf:
            raise ConfigurationError("kinetics_voltage_scale must be positive and finite")
        if not self.nonlinearity_alpha >= 0:
            raise ConfigurationError("nonlinearity_alpha must be non-negative")
        return self


@dataclass
class MemristorDevice:
    """State and sampled parameters of one crosspoint device.

    ``conductance`` is the live analog state, always inside [g_min, g_max].
    A stuck device never changes state.  An unformed device conducts through
    ``pristine_resistance`` and ignores voltage pulses until formed.  The
    simulator keeps a crossbar's devices as a ``CELL_DTYPE`` array; its array
    forms are tested against these scalar methods: ``currents``, ``switching_steps``
    and ``pulse_runs`` against ``current``, ``switching_step`` and ``apply_pulse``.
    """

    conductance: float
    set_threshold: float
    reset_threshold: float
    g_min: float = 2e-6
    g_max: float = 150e-6
    nonlinearity_alpha: float = 0.0
    kinetics_rate: float = 0.04e-6
    kinetics_voltage_scale: float = 0.3
    stuck: bool = False
    # Latent forming state.
    formed: bool = True
    pristine_resistance: float = 5e6
    forming_current: float = 400e-6
    post_forming_conductance: float = 80e-6
    stuck_value: float = 50e-6

    def __post_init__(self):
        if self.set_threshold <= 0 or self.reset_threshold >= 0:
            raise ConfigurationError("need set_threshold > 0 and reset_threshold < 0")
        if not 0 < self.g_min <= self.g_max:
            raise ConfigurationError("need 0 < g_min <= g_max")
        if not (self.pristine_resistance > 0 and 1.0 / self.pristine_resistance < math.inf):
            raise ConfigurationError("pristine_resistance must be positive, its inverse finite")
        if not (self.kinetics_rate >= 0 and self.kinetics_voltage_scale > 0):
            raise ConfigurationError("need kinetics_rate >= 0 and kinetics_voltage_scale > 0")
        self.conductance = min(max(self.conductance, self.g_min), self.g_max)

    def effective_conductance(self) -> float:
        """Low-voltage conductance seen by the circuit (pristine path if unformed)."""
        if not self.formed:
            return 1.0 / self.pristine_resistance
        return self.conductance

    def current(self, voltage: float) -> float:
        """Static I(V) = G*V*(1 + alpha*V^2); alpha = 0 is the linear model."""
        if abs(voltage) > SAFE_READ_VOLTAGE:
            raise ValueError(f"|{voltage} V| exceeds safe read bound {SAFE_READ_VOLTAGE} V")
        g = self.effective_conductance()
        return g * voltage * (1.0 + self.nonlinearity_alpha * voltage * voltage)

    def read_conductance(self, v_read: float = 0.2) -> float:
        """Non-destructive conductance read: current(v_read) / v_read."""
        if v_read == 0.0:
            raise ValueError("read voltage must be nonzero")
        if self.formed and abs(v_read) > min(self.set_threshold, -self.reset_threshold):
            raise ValueError(f"read at {v_read} V would disturb the device state")
        return self.current(v_read) / v_read

    def switching_step(self, amplitude: float, width: float = PULSE_WIDTH_REF) -> float:
        """Signed conductance change one pulse asks for, before clamping.

        The update is threshold-gated and exponential in overvoltage:
        |dG| = rate * (width/500us) * exp(overvoltage / voltage_scale), positive
        for pulses at or above the set threshold and negative at or below the
        reset threshold.  Sub-threshold pulses and stuck or unformed devices
        give 0.
        """
        if width <= 0:
            raise ValueError("pulse width must be positive")
        if self.stuck or not self.formed:
            return 0.0
        scale = width / PULSE_WIDTH_REF
        if amplitude >= self.set_threshold:
            over = amplitude - self.set_threshold
            return self.kinetics_rate * scale * math.exp(over / self.kinetics_voltage_scale)
        if amplitude <= self.reset_threshold:
            over = self.reset_threshold - amplitude
            return -self.kinetics_rate * scale * math.exp(over / self.kinetics_voltage_scale)
        return 0.0

    def apply_pulse(self, amplitude: float, width: float = PULSE_WIDTH_REF) -> "MemristorDevice":
        """Apply one voltage pulse: add ``switching_step`` and clamp to [g_min, g_max].

        Returns the device for chaining.
        """
        step = self.switching_step(amplitude, width)
        if step > 0:
            self.conductance = min(self.conductance + step, self.g_max)
        elif step < 0:
            self.conductance = max(self.conductance + step, self.g_min)
        return self


# One crossbar cell per record: the device's fields, in declaration order,
# with the types the dataclass declares (float or bool).
DEVICE_FIELDS = typing.get_type_hints(MemristorDevice)
CELL_DTYPE = np.dtype(list(DEVICE_FIELDS.items()))
device_fields = operator.attrgetter(*CELL_DTYPE.names)


def currents(g, alpha, v):
    """``MemristorDevice.current`` for arrays, bit for bit and without its bound
    check: G*V*(1 + alpha*V^2) over broadcast conductances, alphas and voltages."""
    return g * v * (1.0 + alpha * v * v)


def switching_steps(cells: np.ndarray, amplitude: float | np.ndarray,
                    width: float = PULSE_WIDTH_REF) -> np.ndarray:
    """``MemristorDevice.switching_step`` of every cell of a ``CELL_DTYPE``
    array, bit for bit: ``math.exp`` runs only on the cells that move, since
    ``np.exp`` may differ in the last bit.  The amplitude broadcasts against
    the cells by numpy's rules: one for all, one per cell, or a column such as
    ``[[a], [-a]]`` for one row of steps per amplitude."""
    if width <= 0:
        raise ValueError("pulse width must be positive")
    live = cells["formed"] & ~cells["stuck"]
    up = live & (amplitude >= cells["set_threshold"])
    down = live & (amplitude <= cells["reset_threshold"])
    move = up | down
    over = np.abs(amplitude - np.where(up, cells["set_threshold"], cells["reset_threshold"]))[move]
    scale = np.broadcast_to(cells["kinetics_voltage_scale"], move.shape)[move]
    over /= scale
    try:
        exps = np.fromiter(map(math.exp, memoryview(over)), float, over.size)
    except OverflowError:
        i = over.argmax()
        raise ConfigurationError(f"a {np.broadcast_to(amplitude, move.shape)[move][i]:g} V pulse "
                                 f"overflows exp(overvoltage / kinetics_voltage_scale) at "
                                 f"kinetics_voltage_scale {scale[i]:g} V") from None
    steps = np.zeros(move.shape)
    steps[move] = np.broadcast_to(cells["kinetics_rate"], move.shape)[move] * (
        width / PULSE_WIDTH_REF) * exps
    return np.negative(steps, out=steps, where=down)


def pulse_runs(g, step, lo, hi, longest: int) -> np.ndarray:
    """``MemristorDevice.apply_pulse`` for arrays, bit for bit: row j holds each
    conductance of ``g`` after j pulses of its ``step``, summed left to right and
    clamped on the side the step moves to.  A block gives its moving cells about
    2048 pulses, 8 to 512 each and at most twice the last round's ``longest``
    run, so busy rounds stay short and the tail of a few slow cells runs long."""
    moving = max(np.count_nonzero(step), 1)
    run = np.empty((min(max(2048 // moving, 8), 512, 2 * longest) + 1,) + g.shape)
    run[0], run[1:] = g, step
    np.add.accumulate(run, out=run)
    np.clip(run[1:], np.where(step < 0, lo, -np.inf), np.where(step > 0, hi, np.inf),
            out=run[1:])
    return run


def _spread(bounds, u):
    """numpy's ``random_uniform`` over the draws ``u``: lo + (hi - lo) * u."""
    return bounds[0] + (bounds[1] - bounds[0]) * u


def draw_cells(spec: DeviceVariationSpec, gens, pristine: bool = False) -> np.ndarray:
    """One ``CELL_DTYPE`` record per Generator of the sized iterable ``gens``,
    drawn from a validated ``spec``.  Each Generator gives, in order: two
    standard normals (set, reset threshold); one uniform each for the stuck
    flag, each range of the spec that is not degenerate (stuck conductance,
    initial conductance, rate), the pre-formed flag and the pristine resistance;
    a standard normal for the forming current unless stuck; one uniform for
    the post-forming conductance.  The loop makes only these calls, and each
    field is one array expression over all cells: ``mu + sigma * z`` (numpy's
    ``random_normal``), ``lo + (hi - lo) * u`` (its ``random_uniform``) and
    clamps that give Python's ``max``/``min`` results, NaN included."""
    ranges = [tuple(map(float, getattr(spec, name))) for name in
              ("stuck_conductance_range", "g_init_range", "kinetics_rate_range")]
    n, p = len(gens), spec.stuck_probability
    Z, R = np.empty((n, 2)), np.empty((n, sum(lo != hi for lo, hi in ranges) + 3))
    F, P = [], []
    for gen, z, r in zip(gens, Z, R):
        gen.standard_normal(out=z)
        gen.random(out=r)
        F.append(0.0 if r[0] < p else gen.standard_normal())
        P.append(gen.random())
    u = iter(R.T)
    stuck = next(u) < p
    stuck_value, g_init, rate = (_spread(b, next(u)) if b[0] != b[1] else b[0] for b in ranges)
    preformed = (next(u) < PREFORMED_PROBABILITY) & ~stuck
    cells = np.empty(n, CELL_DTYPE)
    cells["conductance"] = np.clip(np.where(stuck, stuck_value, g_init), spec.g_min, spec.g_max)
    cells["set_threshold"] = np.fmax(_MIN_THRESHOLD, spec.set_mu + spec.set_sigma * Z[:, 0])
    cells["reset_threshold"] = np.fmin(-_MIN_THRESHOLD, spec.reset_mu + spec.reset_sigma * Z[:, 1])
    for name in ("g_min", "g_max", "nonlinearity_alpha", "kinetics_voltage_scale"):
        cells[name] = getattr(spec, name)
    cells["kinetics_rate"], cells["stuck"], cells["formed"] = rate, stuck, not pristine
    cells["pristine_resistance"] = np.where(
        preformed, _spread(PREFORMED_RESISTANCE_RANGE, R[:, -1]),
        _spread(PRISTINE_RESISTANCE_RANGE, R[:, -1]))
    cells["forming_current"] = np.where(stuck, math.inf, np.fmax(
        _MIN_FORMING_CURRENT, FORMING_CURRENT_MU + FORMING_CURRENT_SIGMA * np.array(F)))
    cells["post_forming_conductance"] = _spread(POST_FORMING_CONDUCTANCE_RANGE, np.array(P))
    cells["stuck_value"] = stuck_value
    return cells


def sample_device(spec: DeviceVariationSpec, rng: np.random.Generator,
                  pristine: bool = False) -> MemristorDevice:
    """Draw one device from the population described by ``spec``.

    With ``pristine=True`` the device starts unformed (high-resistance) and
    must go through the forming procedure before it responds to pulses.
    """
    return MemristorDevice(*draw_cells(spec.validate(), [rng], pristine)[0].item())
