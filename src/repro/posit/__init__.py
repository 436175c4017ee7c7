"""Pure-Python/NumPy posit number system (Posit Standard 2022).

This package replaces the paper's SoftPosit dependency.  It provides
bit-exact float <-> posit conversion with round-to-nearest-even, per-value
field decomposition (sign / regime / R_k / exponent / fraction — the
vocabulary of the paper's analysis), correctly rounded arithmetic, and an
exact quire accumulator, for any width from 3 to 64 bits.  Posits of up
to 32 bits also decode and classify through a table-free run-length codec
(:mod:`repro.posit.lean`), checked bit for bit against ``decompose``.
"""

from repro.posit._reference import (
    decode_exact,
    decode_exact_twos_complement,
    decode_float,
    encode_exact,
)
from repro.posit.arithmetic import (
    absolute,
    add,
    compare,
    divide,
    fma,
    multiply,
    negate,
    sqrt,
    subtract,
)
from repro.posit.config import (
    POSIT8,
    POSIT16,
    POSIT32,
    POSIT64,
    PositConfig,
    standard_config,
)
from repro.posit.decode import decode
from repro.posit.encode import encode
from repro.posit.fields import (
    COARSE_FIELD_OF,
    FieldDecomposition,
    PositField,
    classify_all_bits,
    classify_bit,
    decompose,
    layout_string,
    regime_k,
)
from repro.posit.lean import LEAN_MAX_BITS, lean_classify, lean_decode, lean_regime
from repro.posit.quire import Quire, dot, total
from repro.posit.special import is_nar, is_zero, maxpos, minpos, nar, zero
from repro.posit.ulp import next_down, next_up, relative_spacing_at, spacing_at, ulp

__all__ = [
    "COARSE_FIELD_OF",
    "FieldDecomposition",
    "LEAN_MAX_BITS",
    "POSIT16",
    "POSIT32",
    "POSIT64",
    "POSIT8",
    "PositConfig",
    "PositField",
    "Quire",
    "absolute",
    "add",
    "classify_all_bits",
    "classify_bit",
    "compare",
    "decode",
    "decode_exact",
    "decode_exact_twos_complement",
    "decode_float",
    "decompose",
    "divide",
    "dot",
    "encode",
    "encode_exact",
    "fma",
    "is_nar",
    "is_zero",
    "layout_string",
    "lean_classify",
    "lean_decode",
    "lean_regime",
    "maxpos",
    "minpos",
    "multiply",
    "nar",
    "negate",
    "next_down",
    "next_up",
    "relative_spacing_at",
    "spacing_at",
    "ulp",
    "regime_k",
    "sqrt",
    "standard_config",
    "subtract",
    "total",
    "zero",
]
