"""Unified number-format stack: protocol, spec grammar, registry, backends.

:func:`resolve` is the one entry point for picking a format *and* its
codec backend — explicit ``backend=`` wins, then ``REPRO_FORMAT_BACKEND``,
then the automatic policy.

>>> from repro.formats import resolve
>>> resolve("posit16es1").nbits
16
>>> resolve("binary(8,23)").name
'ieee32'
>>> resolve("fixedposit(16,es=2,r=3)").backend_name
'lut'
>>> resolve("posit32", backend="composed").backend_name
'composed'
"""

from repro.formats.backends import (
    BACKEND_ENV_VAR,
    LUT_MAX_BITS,
    CodecBackend,
    DirectBackend,
    LUTBackend,
    batch_backend_name,
    flip_patterns,
    make_backend,
    resolve_backend_name,
)
from repro.formats.base import NumberFormat
from repro.formats.composed import COMPOSED_MAX_BITS, ComposedLUTBackend
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
    "BACKEND_ENV_VAR",
    "COMPOSED_MAX_BITS",
    "CodecBackend",
    "ComposedLUTBackend",
    "DEFAULT_FORMATS",
    "DirectBackend",
    "FixedPositConfig",
    "FixedPositTarget",
    "FormatSpecError",
    "IEEETarget",
    "LUTBackend",
    "LUT_MAX_BITS",
    "NumberFormat",
    "PositTarget",
    "available_formats",
    "batch_backend_name",
    "canonical_spec",
    "flip_patterns",
    "format_known",
    "get_format",
    "make_backend",
    "normalize_spec",
    "parse_spec",
    "register_format",
    "resolve",
    "resolve_backend_name",
]
