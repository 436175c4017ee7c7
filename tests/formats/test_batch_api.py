"""The batched codec surface: broadcast and row-wise flips, table policy.

Identity tests run over *every* registered format and every bit
position: the batch operations must reproduce the scalar API results
exactly, since the campaign pipeline substitutes one for the other and
the run directories are compared byte-for-byte.
"""

import numpy as np
import pytest

from repro.formats import (
    available_formats,
    flip_patterns,
    get_format,
    resolve,
)
from repro.inject import FieldPipeline


def _dataset(rng, size=512):
    return np.concatenate(
        [rng.normal(50, 20, size // 2), rng.lognormal(-2, 2, size // 2)]
    ).astype(np.float32)


class TestDecodeFlips:
    @pytest.mark.parametrize("name", sorted(available_formats()))
    def test_matches_per_bit_decode_every_bit(self, name, rng):
        fmt = get_format(name)
        values = _dataset(rng, 256)
        bits = np.asarray(fmt.to_bits(values))
        bit_list = np.arange(fmt.nbits, dtype=np.int64)
        batched = fmt.decode_flips(bits, bit_list)
        assert batched.shape == (fmt.nbits, values.size)
        one = np.ones((), dtype=bits.dtype)
        for row, bit in enumerate(bit_list.tolist()):
            reference = fmt.from_bits(bits ^ (one << np.asarray(bit, dtype=bits.dtype)))
            assert np.array_equal(
                batched[row].view(np.uint64), np.asarray(reference).view(np.uint64)
            ), (name, bit)

    def test_row_wise_input(self, rng):
        fmt = get_format("posit16")
        values = _dataset(rng, 128)
        bits = np.asarray(fmt.to_bits(values))
        rows = np.stack([bits, bits[::-1]])
        out = fmt.decode_flips(rows, [3, 9])
        assert np.array_equal(out[0], fmt.decode_flips(bits, [3])[0])
        assert np.array_equal(out[1], fmt.decode_flips(bits[::-1], [9])[0])

    @pytest.mark.parametrize("name", ["posit16", "posit32"])
    def test_out_of_range_bit_rejected(self, name):
        fmt = get_format(name)
        bits = np.asarray(fmt.to_bits(np.array([1.0, -3.5])))
        for bit in (fmt.nbits, -1, fmt.nbits + 8):
            with pytest.raises(ValueError, match="bit_index must be in"):
                fmt.decode_flips(bits, [bit])
            with pytest.raises(ValueError, match="bit_index must be in"):
                fmt.decode_flips(bits, [0, bit])

    def test_flip_patterns_helper(self):
        bits = np.array([0b0000, 0b1111], dtype=np.uint16)
        flipped = flip_patterns(bits, [0, 3], np.uint16)
        assert flipped.tolist() == [[0b0001, 0b1110], [0b1000, 0b0111]]


class TestBatchBackendPolicy:
    """The field pipeline's one format instance builds tables only where
    decoding is software arithmetic."""

    @staticmethod
    def _backend(name):
        return FieldPipeline(resolve(name), np.linspace(-4, 4, 16)).target.backend_name

    def test_width_tiers(self):
        assert self._backend("posit16") == "lut"
        assert self._backend("posit8") == "lut"
        assert self._backend("binary(6,9)") == "lut"
        assert self._backend("posit32") == "direct"
        assert self._backend("binary(8,16)") == "direct"
        assert self._backend("posit64") == "direct"

    @pytest.mark.parametrize("name", ["ieee16", "bfloat16", "ieee32", "ieee64"])
    def test_hardware_layouts_decode_direct(self, name):
        assert self._backend(name) == "direct"

    def test_batch_instances_share_registry_cache(self):
        assert resolve("posit16") is resolve("posit16")
