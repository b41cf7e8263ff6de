"""Automated one-device-at-a-time electroforming over a pristine crossbar.

The procedure per device: read the pristine resistance at 0.1 V; devices
already conducting below the pristine threshold are counted as pre-formed.
Otherwise current sweeps with increasing ceilings are applied until the
low-voltage current ratio confirms forming.  Devices that exhaust the
attempt budget get a second round (after resetting every formed device in
the array, with an escalated ceiling); devices failing both rounds are
recorded defective and flagged stuck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .crossbar import Crossbar
from .device import MemristorDevice
from .errors import ConfigurationError
from .units import quantity

PRISTINE_READ_V = 0.1

STATUS_PREFORMED = "preformed"
STATUS_FORMED = "formed"
STATUS_DEFECTIVE = "defective"


# Round r's ceiling ladder is scaled by ESCALATION**(r-1).
ESCALATION = 1.25

# Reset-to-low-state: long pulses, amplitude escalated in steps down to the
# floor when a device's reset threshold sits below |V_reset|, until the device
# reads at or below the target or the pulse budget runs out.
RESET_PULSE_WIDTH = 0.05
RESET_AMPLITUDE_FLOOR = -1.9
RESET_AMPLITUDE_STEP = 0.05
RESET_PULSE_BUDGET = 200
LOW_CONDUCTANCE_TARGET = 3e-6


@dataclass
class FormingSpec:
    """Parameters of the forming state machine.

    The ceiling ladder in round r runs from I_start to I_stop (both scaled by
    ESCALATION**(r-1)) in I_step increments, at most max_attempts sweeps per
    round.  Success requires the post/pre current ratio at 0.1 V to reach
    R_min_ratio.  After success (or for pre-formed devices) the device is
    driven to a low-conductance state with V_reset pulses.
    """

    I_start: float = quantity(180e-6, "A")
    I_stop: float = quantity(540e-6, "A")
    I_step: float = quantity(20e-6, "A")
    R_min_ratio: float = 5.0
    V_reset: float = quantity(-1.3, "V")
    R_TH: float = quantity(6e5, "ohm")
    max_attempts: int = 19
    max_rounds: int = 2

    def validate(self):
        if self.I_start > self.I_stop:
            raise ConfigurationError("need I_start <= I_stop")
        if not 0 < self.I_step < math.inf:
            raise ConfigurationError("I_step must be positive and finite")
        if not 1 < self.R_min_ratio < math.inf:
            raise ConfigurationError("R_min_ratio must exceed 1 and be finite")
        if not -math.inf < self.V_reset < 0:
            raise ConfigurationError("V_reset must be negative and finite")
        if self.max_attempts < 1 or self.max_rounds < 1:
            raise ConfigurationError("max_attempts and max_rounds must be >= 1")
        return self


@dataclass
class FormingOutcome:
    status: str
    attempts_used: int
    trace: list = field(default_factory=list)   # (sweep ceiling A, current ratio)


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


def _reset_array(xbar: Crossbar, spec: FormingSpec):
    """``_reset_to_low`` on every cell in row-major order, skipping the cells
    it would leave at once (resets do not couple cells)."""
    cells = xbar.cells
    for r, c in np.argwhere(cells["formed"] & ~cells["stuck"]
                            & (cells["conductance"] > LOW_CONDUCTANCE_TARGET)):
        device = xbar.device(r, c)
        _reset_to_low(device, spec)
        xbar.put_device(r, c, device)


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


def form_device(xbar: Crossbar, row: int, col: int, spec: FormingSpec) -> FormingOutcome:
    """Run the forming flow on a copy of one cell, written back when it ends;
    never raises on failure."""
    spec.validate()
    device = xbar.device(row, col)
    try:
        i_before = device.current(PRISTINE_READ_V)
        if PRISTINE_READ_V / i_before < spec.R_TH:
            # Already conducting: effectively pre-formed (e.g. by annealing).
            device.formed = True
            _reset_to_low(device, spec)
            return FormingOutcome(STATUS_PREFORMED, attempts_used=0)

        trace, attempts = [], 0
        for round_idx in range(spec.max_rounds):
            scale = ESCALATION ** round_idx
            ceiling = spec.I_start * scale
            stop = spec.I_stop * scale
            for _ in range(spec.max_attempts):
                attempts += 1
                _sweep(device, ceiling)
                ratio = device.current(PRISTINE_READ_V) / i_before
                trace.append((ceiling, ratio))
                if ratio >= spec.R_min_ratio:
                    _reset_to_low(device, spec)
                    return FormingOutcome(STATUS_FORMED, attempts, trace)
                ceiling = min(ceiling + spec.I_step * scale, stop)
            if round_idx + 1 < spec.max_rounds:
                # Leakage through already-on neighbours can mask forming; retry
                # after pulling every formed device back to its low state.
                xbar.put_device(row, col, device)
                _reset_array(xbar, spec)
                device = xbar.device(row, col)

        # Give up: the cell is stuck at some mid-range conductance.
        device.stuck = True
        device.formed = True
        device.conductance = min(max(device.stuck_value, device.g_min), device.g_max)
        return FormingOutcome(STATUS_DEFECTIVE, attempts, trace)
    finally:
        xbar.put_device(row, col, device)


def form_all(xbar: Crossbar, spec: FormingSpec) -> dict:
    """Form every cell, one at a time in row-major order; returns the report dict.

    The report maps directly onto the JSON artifact: per-device outcomes in
    forming order plus the aggregate defective fraction.
    """
    entries = []
    for row, col in np.ndindex(xbar.cells.shape):
        outcome = form_device(xbar, row, col, spec)
        entries.append({"row": row, "col": col, "status": outcome.status,
                        "attempts": outcome.attempts_used,
                        "trace": [[c, r] for c, r in outcome.trace]})
    n_defective = sum(entry["status"] == STATUS_DEFECTIVE for entry in entries)
    return {"devices": entries, "defective_count": n_defective,
            "defective_fraction": n_defective / len(entries)}
