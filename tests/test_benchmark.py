import numpy as np
import pytest
from scipy.optimize import linprog

from xbarsim.benchmark import (CLASS_NAMES, Pattern, canonical_training_set,
                               generate_test_set, load_patterns,
                               parse_pattern_line, pixel_matrix, precision_sweep,
                               save_patterns, label_vector)
from xbarsim.errors import ConfigurationError
from xbarsim.rng import stream
from xbarsim.training import TrainingConfig, train_ex_situ

TRAIN = canonical_training_set()
TEST = generate_test_set(TRAIN)


def linear_separability_check(patterns) -> bool:
    """True iff a single-layer argmax model can reach 100% train fidelity.

    Decided by LP feasibility of the pairwise class-margin constraints
    (w_true - w_other) . x >= 1 over all patterns and wrong classes.
    """
    X = pixel_matrix(patterns)
    y = label_vector(patterns)
    n_cls = len(CLASS_NAMES)
    aug = np.hstack([X, np.ones((len(X), 1))])
    d = aug.shape[1]
    rows = []
    for i in range(len(X)):
        for k in range(n_cls):
            if k == y[i]:
                continue
            row = np.zeros(n_cls * d)
            row[y[i] * d:(y[i] + 1) * d] = -aug[i]
            row[k * d:(k + 1) * d] = aug[i]
            rows.append(row)
    res = linprog(np.zeros(n_cls * d), A_ub=np.array(rows),
                  b_ub=-np.ones(len(rows)), bounds=[(None, None)] * (n_cls * d),
                  method="highs")
    return res.status == 0


class TestCanonicalSet:
    def test_forty_patterns_ten_per_class(self):
        assert len(TRAIN) == 40
        for cls in CLASS_NAMES:
            assert sum(p.label == cls for p in TRAIN) == 10

    def test_all_distinct(self):
        assert len({p.pixels for p in TRAIN}) == 40

    def test_not_linearly_separable_by_lp(self):
        assert linear_separability_check(TRAIN) is False

    def test_embedded_xor_quad(self):
        # Two V patterns and two X patterns with identical pixel sums make a
        # margin-based linear separation infeasible (sum the four margin
        # inequalities: the left side cancels while the right stays positive).
        V = pixel_matrix([p for p in TRAIN if p.label == "V"])
        X = pixel_matrix([p for p in TRAIN if p.label == "X"])
        found = False
        for i in range(len(V)):
            for j in range(i + 1, len(V)):
                s = V[i] + V[j]
                for k in range(len(X)):
                    for l in range(k + 1, len(X)):
                        if np.array_equal(s, X[k] + X[l]):
                            found = True
        assert found

    def test_perceptron_oracle_agrees(self):
        # Multiclass perceptron never reaches zero training errors on a
        # non-separable set (it would converge if separable).
        X = np.hstack([pixel_matrix(TRAIN), np.ones((40, 1))])
        y = label_vector(TRAIN)
        w = np.zeros((4, 17))
        best_errors = 40
        for _ in range(4000):
            errors = 0
            for i in range(40):
                pred = int(np.argmax(w @ X[i]))
                if pred != y[i]:
                    errors += 1
                    w[y[i]] += X[i]
                    w[pred] -= X[i]
            best_errors = min(best_errors, errors)
            if errors == 0:
                break
        assert best_errors > 0


class TestSeparabilityCheck:
    def test_orthogonal_one_hot_separable(self):
        a = Pattern(tuple([1] + [0] * 15), "A")
        b = Pattern(tuple([0, 1] + [0] * 14), "T")
        assert linear_separability_check([a, b]) is True

    def test_xor_style_set_not_separable(self):
        base = [0] * 14
        pats = [Pattern(tuple([0, 0] + base), "A"),
                Pattern(tuple([1, 1] + base), "A"),
                Pattern(tuple([0, 1] + base), "T"),
                Pattern(tuple([1, 0] + base), "T")]
        assert linear_separability_check(pats) is False


class TestTestSet:
    def test_count_and_hamming_distance(self):
        assert len(TEST) == 640
        for idx, t in enumerate(TEST):
            parent = TRAIN[idx // 16]
            dist = sum(a != b for a, b in zip(t.pixels, parent.pixels))
            assert dist == 1
            assert t.label == parent.label

    def test_flip_is_involution(self):
        p = TRAIN[0]
        assert p.flipped(5).flipped(5) == p

    def test_provenance_keys_unique(self):
        keys = {(idx // 16, idx % 16) for idx in range(len(TEST))}
        assert len(keys) == 640


@pytest.mark.parametrize("make, message", [
    (lambda: Pattern((0,) * 15, "A"), "16 binary pixels"),
    (lambda: Pattern((2,) + (0,) * 15, "A"), "16 binary pixels"),
    (lambda: precision_sweep((np.ones((10, 17)), np.ones((4, 11))), [0.0], runs=0),
     "at least one run")],
    ids=["15-pixels", "pixel-of-2", "sweep-without-runs"])
def test_bad_input_is_config_error(make, message):
    with pytest.raises(ConfigurationError, match=message):
        make()


class TestPatternIO:
    def test_line_round_trip(self):
        p = TRAIN[17]
        assert parse_pattern_line(p.to_line()) == p

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "pats.txt"
        save_patterns(TRAIN, path)
        assert load_patterns(path) == TRAIN


@pytest.fixture(scope="module")
def weights():
    return train_ex_situ(TRAIN, TrainingConfig(seed=0)).weights


class TestPrecisionSweep:

    def test_zero_sigma_has_zero_width(self, weights):
        stats = precision_sweep(weights, [0.0], runs=20, seed=1)
        tr = stats["train"]
        assert tr.p25[0] == tr.p75[0] == tr.median[0] == tr.minimum[0] == tr.maximum[0]

    def test_stats_ordering_invariant(self, weights):
        stats = precision_sweep(weights, [0.0, 0.1, 0.3], runs=40, seed=2)
        for s in (stats["train"], stats["test"]):
            for i in range(len(s.sigmas)):
                assert (s.minimum[i] <= s.p25[i] <= s.median[i]
                        <= s.p75[i] <= s.maximum[i])

    def test_median_nonincreasing_with_common_random_numbers(self, weights):
        sigmas = [0.0, 0.05, 0.1, 0.2, 0.4]
        stats = precision_sweep(weights, sigmas, runs=60, seed=3)
        med = stats["train"].median
        assert all(a >= b - 1e-12 for a, b in zip(med, med[1:]))

    def test_sweep_csv_format(self, weights, tmp_path):
        stats = precision_sweep(weights, [0.0, 0.1], runs=10, seed=4)
        path = tmp_path / "sweep.csv"
        stats["train"].save_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sigma,median,p25,p75,min,max"
        assert len(lines) == 3
