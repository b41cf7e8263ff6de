"""The 4-class letter benchmark and fidelity/robustness evaluation.

40 training patterns (10 stylized variants each of A, T, V, X on a 4x4
binary grid) ship as frozen data; the 640-pattern test set is every
single-pixel flip of every training pattern, inheriting the parent label.
The classes are deliberately not linearly separable: the set embeds a
4-pattern XOR-style quad between V and X (two V members and two X members
whose pixel sums coincide), which also makes several V/X test patterns
nearly indistinguishable.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field

import numpy as np

from .crossbar import write_csv
from .errors import ConfigurationError
from .mlp import fidelity
from .rng import streams

CLASS_NAMES = ("A", "T", "V", "X")


@dataclass(frozen=True)
class Pattern:
    pixels: tuple       # 16 binary values, 4x4 row-major
    label: str

    def __post_init__(self):
        if len(self.pixels) != 16 or any(p not in (0, 1) for p in self.pixels):
            raise ConfigurationError("pattern needs 16 binary pixels")
        if self.label not in CLASS_NAMES:
            raise ConfigurationError(f"unknown class {self.label!r}")

    @property
    def label_index(self) -> int:
        return CLASS_NAMES.index(self.label)

    def flipped(self, pixel: int) -> "Pattern":
        px = list(self.pixels)
        px[pixel] = 1 - px[pixel]
        return Pattern(tuple(px), self.label)

    def to_line(self) -> str:
        return "".join(str(p) for p in self.pixels) + " " + self.label


def parse_pattern_line(line: str) -> Pattern:
    try:
        bits, label = line.split()
    except ValueError as exc:
        raise ConfigurationError(f"bad pattern line {line!r}") from exc
    if len(bits) != 16 or set(bits) - {"0", "1"}:
        raise ConfigurationError(f"bad pixel field in {line!r}")
    return Pattern(tuple(int(b) for b in bits), label)


def load_patterns(path) -> list:
    with open(path) as fh:
        patterns = [parse_pattern_line(line) for line in fh if line.strip()]
    if not patterns:
        raise ConfigurationError(f"no patterns in {path}")
    return patterns


def save_patterns(patterns, path):
    with open(path, "w") as fh:
        for p in patterns:
            fh.write(p.to_line() + "\n")


def canonical_training_set() -> list:
    """The repository's frozen 40-pattern training set (10 per class)."""
    text = importlib.resources.files("xbarsim.data").joinpath(
        "training_patterns.txt").read_text()
    return [parse_pattern_line(line) for line in text.splitlines() if line.strip()]


def generate_test_set(training) -> list:
    """All 640 single-pixel-flip variants, labels inherited from parents."""
    return [parent.flipped(i) for parent in training for i in range(16)]


def pixel_matrix(patterns) -> np.ndarray:
    if not patterns:
        raise ConfigurationError("empty pattern set")
    return np.array([p.pixels for p in patterns], dtype=float)


def label_vector(patterns) -> np.ndarray:
    return np.array([p.label_index for p in patterns], dtype=int)


@dataclass
class SweepStats:
    """Fidelity statistics per noise level: median, quartiles, extremes."""

    sigmas: list = field(default_factory=list)
    median: list = field(default_factory=list)
    p25: list = field(default_factory=list)
    p75: list = field(default_factory=list)
    minimum: list = field(default_factory=list)
    maximum: list = field(default_factory=list)

    def append(self, sigma, fidelities):
        f = np.asarray(fidelities, dtype=float)
        self.sigmas.append(float(sigma))
        self.median.append(float(np.median(f)))
        self.p25.append(float(np.percentile(f, 25)))
        self.p75.append(float(np.percentile(f, 75)))
        self.minimum.append(float(f.min()))
        self.maximum.append(float(f.max()))

    def rows(self):
        return list(zip(self.sigmas, self.median, self.p25, self.p75,
                        self.minimum, self.maximum))

    def save_csv(self, path):
        write_csv([("sigma", "median", "p25", "p75", "min", "max"), *self.rows()], path)


def precision_sweep(weights, noise_sigmas, runs: int = 100, seed: int = 0,
                    weight_limit: float | None = None) -> dict:
    """Monte Carlo of classification fidelity vs weight-import noise.

    Every weight is perturbed by N(0, sigma * w_scale) where w_scale is the
    largest trained weight magnitude, then clipped back to the representable
    range +/- ``weight_limit`` (default: ``TrainingConfig().weight_limit``).
    Common random numbers across sigma levels: run r uses the same
    normalized draw at every noise level, so medians trend monotonically.
    Returns {"train": SweepStats, "test": SweepStats} on the canonical sets.
    """
    from .training import TrainingConfig, forward_batch     # cycle-free import

    if runs < 1:
        raise ConfigurationError("need at least one run")
    limit = TrainingConfig().weight_limit if weight_limit is None else weight_limit
    w1, w2 = weights
    scale = max(np.abs(w1).max(), np.abs(w2).max())
    patterns = canonical_training_set()
    test_patterns = generate_test_set(patterns)
    Xtr, ytr = pixel_matrix(patterns), label_vector(patterns)
    Xte, yte = pixel_matrix(test_patterns), label_vector(test_patterns)
    draws = [(gen.normal(size=w1.shape), gen.normal(size=w2.shape))
             for gen in streams(seed, [("sweep", r) for r in range(runs)])]
    stats = {"train": SweepStats(), "test": SweepStats()}
    for sigma in noise_sigmas:
        train_f, test_f = [], []
        for z1, z2 in draws:
            n1 = np.clip(w1 + sigma * scale * z1, -limit, limit)
            n2 = np.clip(w2 + sigma * scale * z2, -limit, limit)
            train_f.append(fidelity(forward_batch(n1, n2, Xtr), ytr))
            test_f.append(fidelity(forward_batch(n1, n2, Xte), yte))
        stats["train"].append(sigma, train_f)
        stats["test"].append(sigma, test_f)
    return stats
