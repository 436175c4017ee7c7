"""Unified number-format stack: protocol, spec grammar, registry.

:func:`resolve` is the one entry point for picking a format.  The
format fixes its codec: software layouts of at most 16 bits decode by
exhaustive table gathers (``lut``), hardware layouts and wider formats
by their raw codec (``direct``).

>>> from repro.formats import resolve
>>> resolve("posit16es1").nbits
16
>>> resolve("binary(8,23)").name
'ieee32'
>>> resolve("fixedposit(16,es=2,r=3)").backend_name
'lut'
>>> resolve("posit32").backend_name
'direct'
>>> resolve("ieee16").backend_name
'direct'
"""

from repro.formats.base import LUT_MAX_BITS, NumberFormat, flip_patterns
from repro.formats.fixedposit import FixedPositConfig, FixedPositTarget
from repro.formats.ieee import IEEETarget
from repro.formats.posit import PositTarget
from repro.formats.registry import (
    DEFAULT_FORMATS,
    available_formats,
    format_known,
    get_format,
    register_format,
    resolve,
)
from repro.formats.spec import FormatSpecError, canonical_spec, normalize_spec, parse_spec

__all__ = [
    "DEFAULT_FORMATS",
    "FixedPositConfig",
    "FixedPositTarget",
    "FormatSpecError",
    "IEEETarget",
    "LUT_MAX_BITS",
    "NumberFormat",
    "PositTarget",
    "available_formats",
    "canonical_spec",
    "flip_patterns",
    "format_known",
    "get_format",
    "normalize_spec",
    "parse_spec",
    "register_format",
    "resolve",
]
