"""Property tests for shift_round, the one rounding rule of the encoders."""

from fractions import Fraction

import numpy as np
from hypothesis import given, strategies as st

from repro.bitops import shift_round


def _exact(tail: int, drop: int, high: int) -> int:
    """high + tail / 2**drop, rounded half to even by exact arithmetic."""
    return round(high + Fraction(tail, 1 << drop))


@st.composite
def _operands(draw, min_high=0):
    """(tail, drop, high) with high's bits above tail >> drop, in int64."""
    drop = draw(st.integers(0, 62))
    # Leave high at least one bit of room above the kept tail bits.
    width = draw(st.integers(drop, min(62, drop + 61)))
    # Random tails rarely land on a tie, so also build ties and their
    # neighbours explicitly.
    kept = draw(st.integers(0, (1 << (width - drop)) - 1))
    half = (1 << drop) >> 1
    rest = draw(
        st.one_of(
            st.integers(0, (1 << drop) - 1),
            st.sampled_from([half, max(half - 1, 0), min(half + 1, (1 << drop) - 1)]),
        )
    )
    tail = kept << drop | rest
    high = draw(st.integers(min_high, (1 << (62 - width + drop)) - 1)) << (width - drop)
    return tail, drop, high


@given(_operands())
def test_matches_exact_round_half_even(operands):
    tail, drop, high = operands
    got = shift_round(np.int64(tail), drop, np.int64(high))
    assert int(got) == _exact(tail, drop, high)


@given(_operands(min_high=1))
def test_nonzero_high_takes_the_carry(operands):
    tail, drop, high = operands
    got = shift_round(np.array([tail], dtype=np.int64), drop, np.array([high], dtype=np.int64))
    assert int(got[0]) == _exact(tail, drop, high)


@given(st.lists(_operands(), min_size=1, max_size=40))
def test_array_valued_drop(rows):
    tail, drop, high = (np.array(column, dtype=np.int64) for column in zip(*rows))
    got = shift_round(tail, drop, high)
    assert got.dtype == np.int64
    assert got.tolist() == [_exact(*row) for row in rows]


def test_ties_go_to_even():
    # 2.5 -> 2, 3.5 -> 4, 2.25 -> 2, 2.75 -> 3; drop 0 keeps everything.
    tails = np.array([0b1010, 0b1110, 0b1001, 0b1011, 0b1011], dtype=np.int64)
    drops = np.array([2, 2, 2, 2, 0])
    assert shift_round(tails, drops).tolist() == [2, 4, 2, 3, 11]
