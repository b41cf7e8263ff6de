"""Automated one-device-at-a-time electroforming over a pristine crossbar.

Devices form one after another in row-major order.  Per device: read the
pristine resistance at 0.1 V; devices already conducting below the pristine
threshold are counted as pre-formed.  Otherwise current sweeps with
increasing ceilings are applied until the low-voltage current ratio confirms
forming.  Devices that exhaust the attempt budget get a second round (after
resetting every formed device in the array, with an escalated ceiling);
devices failing both rounds are recorded defective and flagged stuck.

Devices do not couple and a pristine one ignores resets, so on a pristine
array, the only kind ``form_all`` accepts, each outcome follows from the
device alone and the array resets only add reset runs: a formed, non-stuck
device takes one of its own plus one per round a later device fails, and one
that forms below the required ratio takes one before each of its later rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .crossbar import Crossbar
from .device import currents, pulse_runs, switching_steps
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
        if not 0 < self.I_start <= self.I_stop:
            raise ConfigurationError("need 0 < I_start <= I_stop")
        if not self.R_TH > 0:
            raise ConfigurationError("R_TH must be positive")
        if not 0 < self.I_step < math.inf:
            raise ConfigurationError("I_step must be positive and finite")
        if not 1 < self.R_min_ratio < math.inf:
            raise ConfigurationError("R_min_ratio must exceed 1 and be finite")
        if not -math.inf < self.V_reset < 0:
            raise ConfigurationError("V_reset must be negative and finite")
        if self.max_attempts < 1 or self.max_rounds < 1:
            raise ConfigurationError("max_attempts and max_rounds must be >= 1")
        return self


def _reset_to_low(cells: np.ndarray, runs: np.ndarray, spec: FormingSpec):
    """``runs[i]`` reset runs on cell i of a flat ``CELL_DTYPE`` array, one after
    another, all cells in lockstep.  A run pulses until the cell reads at or
    below the target or the budget runs out; since a cell whose reset threshold
    lies below |V_reset| would never move, the amplitude escalates on each
    ineffective pulse, down to the floor, where such a pulse ends the run.  A
    round pulses each cell in a ``device.pulse_runs`` block, as the tuner does,
    up to its first event: the target, an ineffective pulse or its run's last."""
    at = np.flatnonzero(runs)
    live = cells[at]
    switching_steps(live, min(spec.V_reset, RESET_AMPLITUDE_FLOOR), RESET_PULSE_WIDTH)
    g, lo, hi = live["conductance"], live["g_min"], live["g_max"]
    runs = runs[at].astype(int)
    amp, col = np.full(at.size, spec.V_reset), np.arange(at.size)
    left, longest = np.full_like(runs, RESET_PULSE_BUDGET), 1    # each run's budget
    while True:
        on = (runs > 0) & (g > LOW_CONDUCTANCE_TARGET)
        if not on.any():
            break
        step = np.where(on, switching_steps(live, amp, RESET_PULSE_WIDTH), 0.0)
        run = pulse_runs(g, step, lo, hi, longest)
        stall = run[1:] >= run[:-1]
        event = stall | (run[1:] <= LOW_CONDUCTANCE_TARGET)
        event[-1] = True
        last = np.minimum(event.argmax(axis=0), left - 1)
        longest = last.max() + 1
        g = run[last + 1, col]
        left -= on * (last + 1)
        stalled = on & stall[last, col]
        floor = amp <= RESET_AMPLITUDE_FLOOR
        amp = np.where(stalled & ~floor,
                       np.maximum(amp - RESET_AMPLITUDE_STEP, RESET_AMPLITUDE_FLOOR), amp)
        ended = (stalled & floor) | (left == 0)
        runs -= ended
        amp[ended], left[ended] = spec.V_reset, RESET_PULSE_BUDGET
    cells["conductance"][at] = g


def form_all(xbar: Crossbar, spec: FormingSpec) -> dict:
    """Form every cell of a pristine array; returns the report dict, which maps
    directly onto the JSON artifact: per-device outcomes in forming order plus
    the aggregate defective fraction.

    The flow runs on a flat copy of the cells, written back at the end.  A
    round's ceilings never fall, so a cell forms on the first sweep whose
    ceiling reaches its forming current; its current ratio reads 1.0 before.
    Raises ConfigurationError, changing nothing, on an array with a formed cell.
    """
    spec.validate()
    if xbar.cells["formed"].any():
        raise ConfigurationError("forming needs a pristine array; this one holds formed cells")
    cells = xbar.cells.flatten()
    formed, g_min, g_max = cells["formed"], cells["g_min"], cells["g_max"]
    alpha = cells["nonlinearity_alpha"]
    i_before = currents(1.0 / cells["pristine_resistance"], alpha, PRISTINE_READ_V)
    # Already conducting: effectively pre-formed (e.g. by annealing).
    preformed = PRISTINE_READ_V / i_before < spec.R_TH
    formed |= preformed
    forming_current = np.where(cells["stuck"], np.inf, cells["forming_current"])

    sweeping, passed = ~preformed, np.zeros(cells.size, bool)
    attempts = np.zeros(cells.size, int)
    traces = [[] for _ in range(cells.size)]
    for round_idx in range(spec.max_rounds):
        if not sweeping.any():
            break
        # Leakage through already-on neighbours can mask forming, so a cell's
        # next round follows a reset of every formed device in the array: its
        # own run is here, the runs it gives earlier cells are counted below.
        redo = sweeping & formed
        if redo.any():
            _reset_to_low(cells, redo, spec)
        scale = ESCALATION ** round_idx
        ladder, stop = [spec.I_start * scale], spec.I_stop * scale
        while len(ladder) < spec.max_attempts:
            ladder.append(min(ladder[-1] + spec.I_step * scale, stop))
        first = np.searchsorted(ladder, forming_current)
        new = sweeping & ~formed & (first < spec.max_attempts)
        formed |= new
        cells["conductance"][new] = np.clip(cells["post_forming_conductance"][new],
                                            g_min[new], g_max[new])
        ratio = currents(cells["conductance"], alpha, PRISTINE_READ_V) / i_before
        ok = sweeping & formed & (ratio >= spec.R_min_ratio)
        split = np.where(new, first, np.where(formed, 0, spec.max_attempts))
        end = np.where(ok, split + 1, spec.max_attempts)
        ratios = ratio.tolist()
        for i in np.flatnonzero(sweeping):
            traces[i] += [[c, 1.0] for c in ladder[:split[i]]]
            traces[i] += [[c, ratios[i]] for c in ladder[split[i]:end[i]]]
        attempts[sweeping] += end[sweeping]
        passed |= ok
        sweeping &= ~ok

    # Every round of a cell's but its last ends in an array reset.
    resets = np.maximum(attempts - 1, 0) // spec.max_attempts
    later = np.cumsum(resets[::-1])[::-1] - resets
    _reset_to_low(cells, np.where((passed | preformed) & ~cells["stuck"], 1 + later, 0), spec)
    # Give up: the cell is stuck at some mid-range conductance.
    cells["stuck"] |= sweeping
    formed |= sweeping
    cells["conductance"][sweeping] = np.clip(cells["stuck_value"][sweeping],
                                             g_min[sweeping], g_max[sweeping])
    xbar.cells[...] = cells.reshape(xbar.cells.shape)

    status = np.where(preformed, STATUS_PREFORMED,
                      np.where(passed, STATUS_FORMED, STATUS_DEFECTIVE)).tolist()
    entries = [{"row": row, "col": col, "status": s, "attempts": a, "trace": t}
               for (row, col), s, a, t in zip(np.ndindex(xbar.cells.shape), status,
                                             attempts.tolist(), traces)]
    n_defective = int(sweeping.sum())
    return {"devices": entries, "defective_count": n_defective,
            "defective_fraction": n_defective / len(entries)}
