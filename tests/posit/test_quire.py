"""Tests for the quire exact accumulator."""

from fractions import Fraction

import numpy as np

from repro.posit._reference import decode_exact, encode_exact
from repro.posit.arithmetic import negate
from repro.posit.config import POSIT8, POSIT16, POSIT32
from repro.posit.encode import encode
from repro.posit.quire import Quire, dot, total


def _patterns(values, config):
    return np.asarray(encode(np.asarray(values, dtype=np.float64), config))


class TestQuire:
    def test_exact_sum(self):
        quire = Quire(POSIT32)
        for value in (1.0, 2.0, 3.0):
            quire.add_posit(int(encode(np.float64(value), POSIT32)))
        assert quire.value_exact() == 6
        assert decode_exact(quire.to_posit(), POSIT32) == 6

    def test_add_product(self):
        quire = Quire(POSIT32)
        a = int(encode(np.float64(1.5), POSIT32))
        b = int(encode(np.float64(2.0), POSIT32))
        quire.add_product(a, b).add_product(a, int(negate(a, POSIT32)))
        assert quire.value_exact() == Fraction(3) - Fraction(9, 4)

    def test_nar_poisons(self):
        quire = Quire(POSIT32)
        quire.add_posit(int(encode(np.float64(1.0), POSIT32)))
        quire.add_posit(POSIT32.nar_pattern)
        assert quire.is_nar
        assert quire.value_exact() is None
        assert quire.to_posit() == POSIT32.nar_pattern

    def test_clear(self):
        quire = Quire(POSIT32)
        quire.add_posit(POSIT32.nar_pattern)
        quire.clear()
        assert not quire.is_nar
        assert quire.value_exact() == 0
        assert quire.to_posit() == 0

    def test_quire_beats_sequential_rounding(self):
        # In posit8, summing 1 + many tiny values sequentially loses the
        # tiny values to rounding; the quire keeps them.
        config = POSIT8
        one = int(encode(np.float64(1.0), config))
        tiny = int(encode(np.float64(2.0**-6), config))
        count = 16

        sequential = one
        for _ in range(count):
            value = decode_exact(sequential, config) + decode_exact(tiny, config)
            sequential = encode_exact(value, config)

        quire = Quire(config)
        quire.add_posit(one)
        for _ in range(count):
            quire.add_posit(tiny)
        fused = quire.to_posit()

        exact = 1 + count * Fraction(2) ** -6
        assert decode_exact(fused, config) == encode_and_decode(exact, config)
        # And the sequential result drifted (it rounds each step).
        assert decode_exact(sequential, config) != decode_exact(fused, config)


def encode_and_decode(value, config):
    return decode_exact(encode_exact(value, config), config)


class TestDotAndTotal:
    def test_dot_exact(self):
        a = _patterns([1.0, 2.0, 3.0], POSIT16)
        b = _patterns([4.0, 5.0, 6.0], POSIT16)
        result = dot(a, b, POSIT16)
        assert decode_exact(result, POSIT16) == 32

    def test_dot_shape_mismatch(self):
        import pytest

        with pytest.raises(ValueError):
            dot(_patterns([1.0], POSIT16), _patterns([1.0, 2.0], POSIT16), POSIT16)

    def test_total(self):
        values = _patterns([0.5, 0.25, 0.125], POSIT32)
        assert decode_exact(total(values, POSIT32), POSIT32) == Fraction(7, 8)

    def test_dot_with_cancellation(self):
        # Catastrophic cancellation case: naive float summation order
        # matters, the quire does not care.
        a = _patterns([2.0**40, 1.0, -(2.0**40)], POSIT32)
        b = _patterns([1.0, 1.0, 1.0], POSIT32)
        assert decode_exact(dot(a, b, POSIT32), POSIT32) == 1
