"""``round_to_posit`` on its own, against ``decode(encode(x))``."""

import numpy as np
import pytest

from repro.posit import POSIT8, POSIT32, POSIT64, decode, encode
from repro.posit.rounding import round_to_posit


@pytest.mark.parametrize("config", [POSIT8, POSIT32, POSIT64], ids=str)
def test_matches_decode_of_encode(config, rng):
    inputs = np.concatenate([
        rng.standard_normal(2001) * np.exp2(rng.integers(-200, 201, 2001)),
        np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                  1.7976931348623157e308, -1.7976931348623157e308]),
    ]).reshape(2, -1)
    got = round_to_posit(inputs, config)
    expected = decode(encode(inputs, config), config)
    assert got.shape == inputs.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
