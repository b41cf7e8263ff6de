"""Write-and-verify conductance tuning.

A device is pulsed toward its target with a staircase amplitude schedule:
start gentle, escalate while pulses are ineffective (sub-threshold or
negligible progress), and restart the ladder on every polarity flip so
overshoots are corrected with the smallest available steps.  Error is always
the normalized absolute difference |actual - target| / target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crossbar import Crossbar
from .errors import ConfigurationError
from .units import quantity

# A pulse whose measured effect is below this is treated as ineffective.
_EFFECT_EPS = 1e-12

# Escalate when a pulse moves the state by less than this fraction of the
# remaining gap; keeps large excursions from crawling at the threshold rate.
PROGRESS_FRACTION = 0.02


@dataclass
class TuningSpec:
    tolerance: float = 0.05
    v_read: float = quantity(0.2, "V")
    set_amplitude_range: tuple[float, float] = quantity((0.8, 1.5), "V")
    reset_amplitude_range: tuple[float, float] = quantity((-1.8, -0.8), "V")
    pulse_width: float = quantity(500e-6, "s")
    max_pulses: int = 10000
    amplitude_step: float = quantity(0.02, "V")

    def validate(self):
        if self.tolerance <= 0:
            raise ConfigurationError("tolerance must be positive")
        if not self.set_amplitude_range[0] <= self.set_amplitude_range[1]:
            raise ConfigurationError("set_amplitude_range must be ordered")
        if not self.reset_amplitude_range[0] <= self.reset_amplitude_range[1]:
            raise ConfigurationError("reset_amplitude_range must be ordered")
        if self.max_pulses < 1:
            raise ConfigurationError("max_pulses must be >= 1")
        if self.amplitude_step <= 0:
            raise ConfigurationError("amplitude_step must be positive")
        return self


@dataclass
class TuningResult:
    final_conductance: float
    pulses_used: int
    converged: bool
    error: float
    skipped_stuck: bool = False


def tuning_error(target: float, actual: float) -> float:
    """Normalized absolute difference |actual - target| / target."""
    if target <= 0:
        raise ValueError("target conductance must be positive")
    return abs(actual - target) / target


def tune_device(xbar: Crossbar, row: int, col: int, target: float,
                spec: TuningSpec) -> TuningResult:
    """Tune one device to ``target`` within spec.tolerance.

    Stuck devices are reported unconverged without pulsing; exhaustion of the
    pulse budget (or a stall at the amplitude cap) reports converged=False.
    The staircase runs on a copy of the cell, written back when it ends.
    """
    spec.validate()
    device = xbar.device(row, col)
    g = device.read_conductance(spec.v_read)
    err = tuning_error(target, g)
    if device.stuck:
        return TuningResult(g, 0, err <= spec.tolerance, err, skipped_stuck=True)

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
    xbar.put_device(row, col, device)
    return TuningResult(g, pulses, err <= spec.tolerance, err)


def import_conductance_map(xbar: Crossbar, targets, spec: TuningSpec) -> np.ndarray:
    """Tune the whole grid to ``targets`` (row-major order); returns the
    per-device error grid.

    Stuck cells are never pulsed; their entries report the error of the
    frozen state against the target.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (xbar.rows, xbar.cols):
        raise ConfigurationError(
            f"target grid shape {targets.shape} != ({xbar.rows}, {xbar.cols})")
    errors = np.empty_like(targets)
    for r, c in np.ndindex(targets.shape):
        errors[r, c] = tune_device(xbar, r, c, targets[r, c], spec).error
    return errors


def import_with_refinement(xbar: Crossbar, targets, spec: TuningSpec,
                           passes: int = 2) -> np.ndarray:
    """Map import with measurement-feedback retargeting between passes.

    Write-and-verify approaches each device from one side and stops at the
    first read inside the tolerance band, so a whole-map import lands with a
    systematic offset toward the near band edge.  Each extra pass measures
    the landing ratio per device and retargets by it (new target T*T/G_read),
    centering the final conductances on the true targets using read data
    only.  Reported errors are against the true targets.
    """
    targets = np.asarray(targets, dtype=float)
    import_conductance_map(xbar, targets, spec)
    g_min, g_max = xbar.cells["g_min"], xbar.cells["g_max"]
    headroom = 0.05 * (g_max - g_min)
    lo, hi = g_min + headroom, g_max - headroom
    for _ in range(max(0, passes - 1)):
        read = xbar.conductances()
        retarget = np.clip(targets * targets / np.maximum(read, 1e-12), lo, hi)
        stuck = xbar.stuck_map()
        retarget[stuck] = targets[stuck]
        import_conductance_map(xbar, retarget, spec)
    final = xbar.conductances()
    return np.abs(final - targets) / targets


def error_histogram(errors, bins=20, upper=None) -> dict:
    """Histogram summary of an error grid, JSON-ready (bin edges + counts)."""
    errors = np.asarray(errors, dtype=float).ravel()
    if upper is None:
        upper = max(float(errors.max()), 1e-6)
    edges = np.linspace(0.0, upper, bins + 1)
    counts, _ = np.histogram(errors, bins=edges)
    return {"bin_edges": [float(e) for e in edges],
            "counts": [int(c) for c in counts]}
