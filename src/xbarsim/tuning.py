"""Write-and-verify conductance tuning.

A device is pulsed toward its target with a staircase amplitude schedule:
start gentle, escalate while pulses are ineffective (sub-threshold or
negligible progress), and restart the ladder on every polarity flip so
overshoots are corrected with the smallest available steps.  Error is always
the normalized absolute difference |actual - target| / target.  Cells climb
in lockstep over an array or both of ``pipeline.import_network``; cells do
not couple, so each tunes as if alone.  A round takes every cell through a
block of pulses at its present amplitude (``device.pulse_runs``, as forming's
resets), up to the first pulse that changes more than its state (an
escalation, a stall, a read inside the tolerance, an overshoot or the last
of its ``max_pulses``), and ends with one read-back.
Whenever at most half of a round's cells still tune, the finished ones are
stored and the rounds go on over a flat copy of the rest, so a pass's long
tail of slow cells costs rounds over a few cells, not over the whole array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .crossbar import Crossbar
from .device import SAFE_READ_VOLTAGE, currents, pulse_runs, switching_steps
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
        if not 0 < self.tolerance < math.inf:
            raise ConfigurationError("tolerance must be positive and finite")
        if not 0 < abs(self.v_read) <= SAFE_READ_VOLTAGE:
            raise ConfigurationError(f"need 0 < |v_read| <= {SAFE_READ_VOLTAGE} V")
        if not 0 < self.set_amplitude_range[0] <= self.set_amplitude_range[1]:
            raise ConfigurationError("set_amplitude_range must be ordered and positive")
        if not self.reset_amplitude_range[0] <= self.reset_amplitude_range[1] < 0:
            raise ConfigurationError("reset_amplitude_range must be ordered and negative")
        # The write loops count pulses in int64 arrays.
        if not 1 <= self.max_pulses <= np.iinfo(np.int64).max:
            raise ConfigurationError(f"max_pulses must lie in [1, {np.iinfo(np.int64).max}]")
        if not 0 < self.amplitude_step < math.inf:
            raise ConfigurationError("amplitude_step must be positive and finite")
        if not 0 < self.pulse_width < math.inf:
            raise ConfigurationError("pulse_width must be positive and finite")
        return self


def tuning_error(target, actual):
    """Normalized absolute difference |actual - target| / target, elementwise."""
    if not np.all(np.greater(target, 0)):
        raise ConfigurationError("target conductance must be positive")
    return abs(actual - target) / target


def import_conductance_map(xbar: Crossbar, targets, spec: TuningSpec) -> np.ndarray:
    """Tune every cell to ``targets``; returns the per-cell error grid.

    A cell stops inside the tolerance, at its third stall at an amplitude cap
    (keeping its error from before that pulse) or after ``max_pulses`` pulses.
    Stuck cells are never pulsed.  A 1x1 view, ``Crossbar(xb.cells[r:r+1,
    c:c+1])``, tunes one cell of ``xb``.  Bad targets, or a read that would
    switch a formed cell, raise ConfigurationError before any pulse."""
    return _staircase(xbar, targets, spec, passes=1)


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
    _staircase(xbar, targets, spec, passes)
    return tuning_error(np.asarray(targets, dtype=float), xbar.conductances())


def _staircase(xbar: Crossbar, targets, spec: TuningSpec, passes: int) -> np.ndarray:
    """Both imports' staircase: ``passes`` passes, each cell at its own amplitude."""
    spec.validate()
    if passes < 1:
        raise ConfigurationError(f"need at least one pass, got {passes}")
    targets = np.asarray(targets, dtype=float)
    if targets.shape != xbar.cells.shape:
        raise ConfigurationError(f"target grid shape {targets.shape} != {xbar.cells.shape}")
    cells, v = xbar.cells, spec.v_read
    if np.any(cells["formed"] & (abs(v) > np.minimum(cells["set_threshold"],
                                                     -cells["reset_threshold"]))):
        raise ConfigurationError(f"read at {v} V would disturb a formed device")

    # A cell's amplitude starts at its side's gentle end, the set range's low
    # end or the reset range's high end, and climbs one step per weak pulse to
    # the side's cap.  The caps are the hardest pulses, so a step that
    # overflows raises here, before any pulse.
    set_lo, set_hi = spec.set_amplitude_range
    reset_lo, reset_hi = spec.reset_amplitude_range
    switching_steps(cells[..., None], [set_hi, reset_lo], spec.pulse_width)
    offsets = np.arange(targets.size).reshape(targets.shape)
    conductance, g_min, g_max = cells["conductance"], cells["g_min"], cells["g_max"]
    alpha = cells["nonlinearity_alpha"]
    headroom = 0.05 * (g_max - g_min)
    errors = np.empty(targets.shape)
    for n in range(passes):
        goal = targets if n == 0 else np.clip(targets * targets / np.maximum(
            xbar.conductances(), 1e-12), g_min + headroom, g_max - headroom)
        raw = xbar.conductances()
        g = currents(raw, alpha, v) / v             # read_conductance, elementwise
        err = tuning_error(goal, g)
        up = goal > g                               # each cell's side: set or reset
        amp = np.where(up, set_lo, reset_hi)
        stalls = np.zeros(goal.shape, dtype=int)
        left, longest = np.full(goal.shape, spec.max_pulses), 1  # each cell's budget
        tuning = ~cells["stuck"] & (err > spec.tolerance)
        # The round's cells: all of them in the grid's shape, then, whenever at
        # most half of them still tune, a flat copy of those that do, with
        # their flat positions ``at`` and their indices ``col`` in the copy.
        live, at, col = xbar, offsets, offsets
        while True:
            count = np.count_nonzero(tuning)
            if 2 * count <= tuning.size:
                conductance.flat[at] = live.cells["conductance"]
                errors.flat[at] = err
                if not count:
                    break
                live = Crossbar(live.cells[tuning])
                at, goal, raw, g, up, amp, stalls, left, err = (
                    a[tuning] for a in (at, goal, raw, g, up, amp, stalls, left, err))
                col, tuning = np.arange(count), np.ones(count, bool)
            was, up = up, goal > g                  # a polarity flip restarts gently
            amp = np.where(up == was, amp, np.where(up, set_lo, reset_hi))
            capped = amp == np.where(up, set_hi, reset_lo)
            # Row j: each raw read after j pulses; unformed and idle cells stay.
            step = np.where(tuning, switching_steps(live.cells, amp, spec.pulse_width), 0.0)
            run = pulse_runs(raw, step, live.cells["g_min"], live.cells["g_max"], longest)
            reads = currents(run, live.cells["nonlinearity_alpha"], v) / v
            gaps = abs(reads - goal)                # before the first pulse, then after each
            errs = gaps / goal                      # tuning_error
            # A weak pulse escalates below the cap; at the cap only one that
            # moves less than _EFFECT_EPS counts, as a stall.  A cell's block
            # ends at its first weak pulse, read inside the tolerance or
            # overshoot (the amplitude restarts), or at its block's or budget's
            # last pulse; the pulses before it change only its conductance
            # and error.  The round's read-back follows its last pulse.
            weak = abs(reads[1:] - reads[:-1]) < np.maximum(
                np.where(capped, 0.0, PROGRESS_FRACTION) * gaps[:-1], _EFFECT_EPS)
            event = weak | (errs[1:] <= spec.tolerance) | ((goal > reads[1:]) != up)
            event[-1] = True
            last = event.argmax(axis=0)
            np.minimum(last, left - 1, out=last, where=tuning)
            left -= last + 1
            longest = last.max() + 1
            pulse = last * goal.size + col          # the last pulse's flat index
            np.copyto(live.cells["conductance"], run.take(pulse + goal.size),
                      where=live.cells["formed"])
            raw, g = live.conductances(), reads.take(pulse + goal.size)
            weak = tuning & weak.take(pulse)
            err = np.where(tuning, errs.take(pulse), err)   # what a third stall keeps
            stalls += weak & capped                 # a stall repeats: no reset
            amp = np.where(weak, np.where(up, np.minimum(amp + spec.amplitude_step, set_hi),
                                          np.maximum(amp - spec.amplitude_step, reset_lo)), amp)
            tuning &= stalls < 3                    # untunable direction or rail
            err = np.where(tuning, errs.take(pulse + goal.size), err)
            tuning &= (err > spec.tolerance) & (left > 0)
    return errors


def error_histogram(errors, bins=20, upper=None) -> dict:
    """Histogram summary of an error grid, JSON-ready (bin edges + counts)."""
    errors = np.asarray(errors, dtype=float).ravel()
    if upper is None:
        upper = max(float(errors.max()), 1e-6)
    edges = np.linspace(0.0, upper, bins + 1)
    counts, _ = np.histogram(errors, bins=edges)
    return {"bin_edges": [float(e) for e in edges],
            "counts": [int(c) for c in counts]}
