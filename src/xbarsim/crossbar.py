"""Passive crossbar circuit: device grid, biasing, readout, and line parasitics.

Geometry convention: input voltages drive the columns, output currents are
collected on the rows, which sit at virtual ground.  In the wire-resistive
model each line is a ladder of per-segment resistances R_w; columns are
driven at their row-0 end and rows are terminated into virtual ground past
their last column.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .device import (CELL_DTYPE, DEVICE_FIELDS, DeviceVariationSpec, MemristorDevice,
                     device_fields, draw_cells)
from .errors import ConfigurationError
from .rng import streams
from .units import convert

LINE_MODELS = ("ideal", "wire_resistive")

# Largest array side for the wire-resistive nodal solve; beyond it use the
# resistor-ladder abstraction.  Factoring grows fast with the side: on a
# 2-core x86 host (scipy 1.17) 64x64 took 41 ms and ~7 MB, 128x128 0.25 s and
# ~35 MB, 256x256 1.3 s and ~170 MB.
MAX_NODAL_DIM = 128

# Largest wire segment resistance.  The nodal solve stays accurate to ~1e16
# ohm on a 20x17 array; past ~1e18 ohm its currents drift, past ~1e24 ohm they
# go negative and at 1e300 ohm the factor is singular.  Real lines are a few
# ohm per segment (5.6 ohm in the source paper, 0.185 ohm for copper).
MAX_WIRE_RESISTANCE = 1e6

# Smallest non-zero wire segment resistance.  On a 20x17 array the nodal solve
# stays accurate to ~1e-14 down to 1e-305 ohm and to 9e-12 at 2.3e-308 ohm; at
# 1e-308 ohm 1/R_w overflows and its currents are all wrong, and below that
# the factor is singular.  R_w = 0 (ideal lines) stays valid.
MIN_WIRE_RESISTANCE = 1e-300

# Longest ladder max_crossbar_dimension walks, so the largest side it returns.
MAX_SEARCH_DIM = 100000

# Most cells one array may hold.  Sampling is ~6 us and ~450 bytes per cell:
# on a 2-core x86 host (numpy 2.4) a 512x512 array, at the bound, took 1.4 s
# and ~120 MB at its peak.
MAX_CELLS = 512 * 512


@dataclass
class BiasScheme:
    """Write biasing scheme: 'V_half' or 'V_third' with write voltage V_w.

    V_half drives selected lines at +/-V_w/2 and grounds the rest, exposing
    half-selected cells to V_w/2.  V_third drives the remaining lines at
    +/-V_w/6, bounding every non-selected cell at V_w/3.
    """

    scheme: str = "V_third"

    def __post_init__(self):
        if self.scheme not in ("V_half", "V_third"):
            raise ConfigurationError(f"unknown bias scheme {self.scheme!r}")

    def half_select_fraction(self) -> float:
        return 0.5 if self.scheme == "V_half" else 1.0 / 3.0


@dataclass(eq=False)
class Crossbar:
    """A crossbar's device state and line wiring.

    ``cells`` is a (rows, cols) record array with one ``CELL_DTYPE`` field per
    ``MemristorDevice`` field, so reads, forming, tuning and in-situ pulses
    are field expressions.
    """

    cells: np.ndarray
    wire_segment_resistance: float = 0.0
    line_model: str = "ideal"

    @property
    def rows(self) -> int:
        return self.cells.shape[0]

    @property
    def cols(self) -> int:
        return self.cells.shape[1]

    @property
    def reads_through_wires(self) -> bool:
        """Whether reads go through the nodal solve: resistive lines, R_w > 0."""
        return self.line_model == "wire_resistive" and self.wire_segment_resistance > 0

    def conductances(self) -> np.ndarray:
        """Effective low-voltage conductance of every cell, shape (rows, cols):
        the pristine path of an unformed device, else its conductance."""
        cells = self.cells
        return np.where(cells["formed"], cells["conductance"],
                        1.0 / cells["pristine_resistance"])

    def stuck_map(self) -> np.ndarray:
        return self.cells["stuck"].copy()


def check_geometry(rows: int, cols: int, R_w: float = 0.0, line_model: str = "ideal"):
    """Raise ConfigurationError unless an array of this shape and wiring can exist."""
    if rows < 1 or cols < 1:
        raise ConfigurationError("crossbar dimensions must be >= 1")
    if rows * cols > MAX_CELLS:
        raise ConfigurationError(f"a crossbar holds at most {MAX_CELLS} cells, got {rows}x{cols}")
    if not (R_w == 0 or MIN_WIRE_RESISTANCE <= R_w <= MAX_WIRE_RESISTANCE):
        raise ConfigurationError(f"wire segment resistance must be 0 or lie in "
                                 f"[{MIN_WIRE_RESISTANCE:g}, {MAX_WIRE_RESISTANCE:g}] ohm")
    if line_model not in LINE_MODELS:
        raise ConfigurationError(f"unknown line model {line_model!r}")


def build_crossbar(rows: int, cols: int, spec: DeviceVariationSpec, R_w: float = 0.0,
                   seed: int = 0, pristine: bool = False,
                   line_model: str = "ideal") -> Crossbar:
    """Populate a rows x cols grid with independently sampled devices.

    Every cell draws from its own stream, ``stream(seed, "cell", r, c)``, so
    the grid is reproducible and insensitive to sampling order.  The streams
    are seeded in one batch (``rng.streams``), and each cell's Generator is
    built only as its turn comes.
    """
    check_geometry(rows, cols, R_w, line_model)
    spec.validate()
    gens = streams(seed, [("cell", r, c) for r in range(rows) for c in range(cols)])
    return Crossbar(draw_cells(spec, gens, pristine).reshape(rows, cols),
                    wire_segment_resistance=R_w, line_model=line_model)


def _column_voltages(xbar: Crossbar, column_voltages) -> np.ndarray:
    v = np.asarray(column_voltages, dtype=float)
    if v.shape[-1:] != (xbar.cols,):
        raise ValueError(f"expected {xbar.cols} column voltages per row, got shape {v.shape}")
    return v


def vmm_ideal(xbar: Crossbar, column_voltages) -> np.ndarray:
    """Row currents with ideal lines, I_row = sum_col V_col * G[row, col], for
    input vectors of shape (..., cols)."""
    return _column_voltages(xbar, column_voltages) @ xbar.conductances().T


def vmm(xbar: Crossbar, column_voltages) -> np.ndarray:
    """Row currents under the crossbar's configured line model."""
    if xbar.reads_through_wires:
        return vmm_wire_resistive(xbar, column_voltages)
    return vmm_ideal(xbar, column_voltages)


def vmm_wire_resistive(xbar: Crossbar, column_voltages) -> np.ndarray:
    """Row currents from the full nodal solve with per-segment resistance R_w.

    Each line is a resistor ladder; every crosspoint couples its column node
    to its row node through the device conductance.  Columns are driven at
    the row-0 periphery, rows terminate into virtual ground after the last
    column.  R_w = 0 reduces exactly to the ideal product.

    The conductances are read on every call, and the nodal matrix they give
    is factored once: the SuperLU factor is cached on the array's content
    (shape, R_w and conductance bytes), so repeated reads of an unchanged
    array only solve, and any device change is a new key.  Input vectors of
    shape (..., cols) are solved together as the columns of one right-hand
    side.
    """
    v = _column_voltages(xbar, column_voltages)
    r_w = xbar.wire_segment_resistance
    if r_w == 0.0:
        return vmm_ideal(xbar, v)
    if max(xbar.rows, xbar.cols) > MAX_NODAL_DIM:
        raise ConfigurationError(
            f"wire-resistive solve capped at {MAX_NODAL_DIM}x{MAX_NODAL_DIM}; "
            "use ladder_worst_case_drop for scaling analysis")

    rows, cols = xbar.rows, xbar.cols
    n = rows * cols
    g_w = 1.0 / r_w
    lu = _nodal_factor(rows, cols, r_w, xbar.conductances().tobytes())
    drives = v.reshape(-1, cols)
    rhs = np.zeros((2 * n, len(drives)), order="F")
    rhs[:cols] = g_w * drives.T                          # driven row-0 column nodes
    sol = lu.solve(rhs)
    currents = sol[n + cols - 1::cols] * g_w             # last row node of every row
    return currents.T.reshape(v.shape[:-1] + (rows,))


# Distinct arrays whose factors are kept: four networks' worth, so reading a
# few chips in turn does not refactor them.  A 20x17 factor holds ~0.2 MB;
# the worst case, eight arrays at MAX_NODAL_DIM, ~280 MB.
_FACTOR_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def _nodal_factor(rows: int, cols: int, r_w: float, g_bytes: bytes):
    g_dev = np.frombuffer(g_bytes).reshape(rows, cols)
    return scipy.sparse.linalg.splu(_nodal_matrix(g_dev, r_w))


def _nodal_matrix(g_dev: np.ndarray, r_w: float) -> scipy.sparse.csc_matrix:
    """The (2n, 2n) nodal conductance matrix of a rows x cols array.

    Node r*cols + c is the column line at cell (r, c) and n + r*cols + c the
    row line there.  Every cell has 14 fixed slots, in order: its device
    (4 entries), the column drive at row 0 (1), the column segment to the
    next row (4), and the row segment to the next column (4) or, in the last
    column, the row's ground termination (1).  Slots that do not apply are
    masked out and the rest flattened cell by cell, so duplicate entries sum
    in a fixed order.
    """
    rows, cols = g_dev.shape
    n = rows * cols
    cn = np.arange(n)
    rn = n + cn
    r, c = np.divmod(cn, cols)
    g, g_w = g_dev.reshape(n), np.full(n, 1.0 / r_w)

    def stamp(a, b, cond, applies):
        # Conductance between nodes a and b; b = None is a fixed rail, whose
        # current goes to the right-hand side.
        if b is None:
            return [(a, a, cond, applies)]
        return [(a, a, cond, applies), (b, b, cond, applies),
                (a, b, -cond, applies), (b, a, -cond, applies)]

    slots = (stamp(cn, rn, g, np.ones(n, bool)) + stamp(cn, None, g_w, r == 0)
             + stamp(cn, cn + cols, g_w, r < rows - 1)
             + stamp(rn, rn + 1, g_w, c < cols - 1) + stamp(rn, None, g_w, c == cols - 1))
    ii, jj, data, keep = (np.stack(part, axis=1) for part in zip(*slots))
    return scipy.sparse.coo_matrix((data[keep], (ii[keep], jj[keep])),
                                   shape=(2 * n, 2 * n)).tocsc()


def _check_line(R_w: float, G: float):
    """Raise unless the ladder's R_w and G are finite and >= 0 and a load G > 0
    has a finite impedance 1/G."""
    if not (0.0 <= R_w < math.inf and 0.0 <= G < math.inf):
        raise ConfigurationError(f"R_w and G must be finite and non-negative, "
                                 f"got {R_w:g} ohm and {G:g} S")
    if G > 0 and 1.0 / G == math.inf:
        raise ConfigurationError(f"load conductance {G:g} S has no finite inverse")


def _ladder_ratios(R_w: float, G: float):
    """V_far/V of the loaded ladder of 1, 2, 3, ... segments (1.0 if R_w or G is 0),
    for a line ``_check_line`` accepts.

    Counted from the far end, a node's input impedance does not depend on the
    ladder's length, so each ladder is the one before behind one more divider
    at its driven end, and the ratios are one running product.
    """
    if R_w == 0.0 or G == 0.0:
        yield from itertools.repeat(1.0)
        return
    z = 1.0 / G
    ratio = 1.0
    while True:
        ratio *= z / (R_w + z)
        yield ratio
        downstream = R_w + z
        z = downstream / (1.0 + G * downstream)


def ladder_drops(lengths, R_w: float, G: float) -> list:
    """Relative voltage drop (V - V_far)/V along a loaded resistor ladder of
    each of ``lengths`` segments, all read from one walk down the ladder.

    A ladder has n series segments of R_w; after each segment the node is
    loaded by conductance G to ground.  This is the worst-case line model
    for a fully loaded crossbar row or column.
    """
    _check_line(R_w, G)
    if not all(n >= 1 for n in lengths):
        raise ConfigurationError("ladder needs at least one segment")
    ratios, walked, drop = _ladder_ratios(R_w, G), 0, {}
    for n in sorted(set(lengths)):
        drop[n] = 1.0 - next(itertools.islice(ratios, n - 1 - walked, None))
        walked = n
    return [drop[n] for n in lengths]


def ladder_worst_case_drop(n_segments: int, R_w: float, G: float) -> float:
    """``ladder_drops`` of one ladder of n_segments."""
    return ladder_drops([n_segments], R_w, G)[0]


def write_drop_budget(v_th_min: float, v_th_max: float, scheme: str) -> float:
    """Largest allowable relative line drop before a write becomes unsafe.

    V_third budget: (3*v_th_min - v_th_max)/v_th_max/2, the factor 2 covering
    the drop on both selected lines.  V_half budget: (2*v_th_min - v_th_max)/
    v_th_max.
    """
    if scheme == "V_third":
        return (3.0 * v_th_min - v_th_max) / v_th_max / 2.0
    if scheme == "V_half":
        return (2.0 * v_th_min - v_th_max) / v_th_max
    raise ConfigurationError(f"unknown bias scheme {scheme!r}")


def max_crossbar_dimension(v_th_min: float, v_th_max: float, G_at_third: float,
                           R_w: float, bias: BiasScheme) -> int:
    """Largest square dimension, at most MAX_SEARCH_DIM, whose worst-case write
    drop stays in budget.

    Returns 0 when no safe write window exists (budget <= 0).
    """
    _check_line(R_w, G_at_third)
    budget = write_drop_budget(abs(v_th_min), abs(v_th_max), bias.scheme)
    if budget <= 0.0:
        return 0
    ratios = itertools.islice(_ladder_ratios(R_w, G_at_third), MAX_SEARCH_DIM)
    return sum(1 for _ in itertools.takewhile(lambda r: 1.0 - r <= budget, ratios))


# --- Grid and state file formats -------------------------------------------

def write_csv(rows, path):
    """Write rows as CSV lines: a float to 9 significant digits with a '.'
    decimal separator, any other value as str() (a header is a row of str)."""
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(f"{v:.9g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def export_grid(grid: np.ndarray, path):
    """Write a float grid as CSV: one crossbar row per line, no header."""
    write_csv(np.atleast_2d(np.asarray(grid, dtype=float)).tolist(), path)


def import_grid(path) -> np.ndarray:
    """Read a grid written by export_grid; every token must be a finite number."""
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    try:
        rows = [[float(tok) for tok in line.split(",")] for line in lines]
    except ValueError as exc:
        raise ConfigurationError(f"grid file {path}: {exc}") from None
    if not rows:
        raise ConfigurationError(f"empty grid file {path}")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ConfigurationError(f"ragged grid file {path}")
    grid = np.array(rows, dtype=float)
    if not np.isfinite(grid).all():
        raise ConfigurationError(f"non-finite value in grid file {path}")
    return grid


def write_json(payload, path):
    """Write an artifact as strict JSON: sorted keys, no NaN or Infinity."""
    text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


# Snapshot format version; load_state reads only this one.
SCHEMA_VERSION = 1


def save_state(xbar: Crossbar, path):
    """Snapshot the full crossbar (all device fields) as deterministic JSON.

    A device that can never form (forming_current = inf) is written as null.
    """
    names = xbar.cells.dtype.names
    devices = [[dict(zip(names, cell)) for cell in row] for row in xbar.cells.tolist()]
    for r, c in np.argwhere(xbar.cells["forming_current"] == math.inf):
        devices[r][c]["forming_current"] = None
    write_json({
        "schema_version": SCHEMA_VERSION,
        "rows": xbar.rows,
        "cols": xbar.cols,
        "wire_segment_resistance": xbar.wire_segment_resistance,
        "line_model": xbar.line_model,
        "devices": devices,
    }, path)


_STATE_FIELDS = {"rows": int, "cols": int, "wire_segment_resistance": float, "line_model": str}
_STATE_KEYS = {"schema_version", "devices", *_STATE_FIELDS}


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def load_state(path) -> Crossbar:
    """Read a snapshot written by save_state; anything malformed is a
    ConfigurationError."""
    with open(path) as fh:
        try:
            payload = json.load(fh, parse_constant=_reject_constant)
        except ValueError as exc:
            raise ConfigurationError(f"malformed crossbar snapshot {path}: {exc}") from exc
    version = payload.get("schema_version") if isinstance(payload, dict) else None
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigurationError(f"crossbar snapshot {path} has schema_version "
                                 f"{version!r}, expected {SCHEMA_VERSION}")
    if set(payload) != _STATE_KEYS:
        raise ConfigurationError(
            f"crossbar snapshot {path} must hold exactly the keys {sorted(_STATE_KEYS)}")
    rows, cols, r_w, line_model = (convert(payload[name], hint, None, f"{path}: {name}")
                                   for name, hint in _STATE_FIELDS.items())
    check_geometry(rows, cols, r_w, line_model)
    grid = payload["devices"]
    if not (isinstance(grid, list) and len(grid) == rows
            and all(isinstance(row, list) and len(row) == cols for row in grid)):
        raise ConfigurationError(f"{path}: device grid is not {rows}x{cols}")
    cells = []
    for r, row in enumerate(grid):
        for c, entry in enumerate(row):
            where = f"{path}: device ({r}, {c})"
            if not isinstance(entry, dict) or set(entry) != set(DEVICE_FIELDS):
                raise ConfigurationError(
                    f"{where} must hold exactly the keys {sorted(DEVICE_FIELDS)}")
            # save_state writes a device that can never form as null.
            d = {name: math.inf if name == "forming_current" and value is None
                 else convert(value, DEVICE_FIELDS[name], None, f"{where} {name}")
                 for name, value in entry.items()}
            try:
                cells.append(device_fields(MemristorDevice(**d)))
            except ConfigurationError as exc:
                raise ConfigurationError(f"{where}: {exc}") from None
    return Crossbar(np.array(cells, dtype=CELL_DTYPE).reshape(rows, cols),
                    wire_segment_resistance=r_w, line_model=line_model)
