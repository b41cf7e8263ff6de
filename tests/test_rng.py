import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xbarsim.rng import stream, streams

ROOT_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, int("7" * 100)]
LABEL_ROWS = [(), ("cell",), (3,), ("cell", 4, 11), ("sweep", 0),
              ("a", 1, "b", 2), (0, "x", 2**40, "", "y")]


def assert_same_generators(got, root_seed, label_rows):
    got = list(got)
    assert len(got) == len(label_rows)
    for gen, labels in zip(got, label_rows):
        ref = stream(root_seed, *labels)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert gen.random(3).tobytes() == ref.random(3).tobytes()
        assert gen.normal(size=2).tobytes() == ref.normal(size=2).tobytes()


@pytest.mark.parametrize("root_seed", ROOT_SEEDS)
def test_each_generator_is_its_stream(root_seed):
    assert_same_generators(streams(root_seed, LABEL_ROWS), root_seed, LABEL_ROWS)


def test_rows_of_one_width_and_no_rows():
    rows = [("cell", r, c) for r in range(3) for c in range(4)]
    assert_same_generators(streams(5, rows), 5, rows)
    assert list(streams(5, [])) == []


label = st.one_of(st.text(max_size=6), st.integers(min_value=-2**40, max_value=2**70))


@settings(max_examples=60, deadline=None)
@given(root_seed=st.integers(min_value=0, max_value=2**200),
       label_rows=st.lists(st.lists(label, max_size=5).map(tuple), max_size=6))
def test_streams_equal_stream_on_any_address(root_seed, label_rows):
    assert_same_generators(streams(root_seed, label_rows), root_seed, label_rows)


@pytest.mark.parametrize("make", [lambda: stream(-1, "cell", 0, 0),
                                  lambda: streams(-1, [("cell", 0, 0)])],
                         ids=["stream", "streams"])
def test_negative_root_seed_is_rejected_on_both_paths(make):
    with pytest.raises(ValueError, match="non-negative"):
        make()
