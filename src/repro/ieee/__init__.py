"""IEEE-754 bit-level substrate: formats, views, fields, analytic model."""

from repro.ieee.analytic import (
    AnalyticPrediction,
    expected_error_profile,
    predict_flip,
    relative_error_bound,
)
from repro.ieee.bits import (
    assemble,
    bits_to_float,
    extract_exponent,
    extract_fraction,
    extract_sign,
    flip_bit,
    flip_float_bit,
    float_to_bits,
    is_hardware_layout,
)
from repro.ieee.fields import IEEEField, classify_bit, field_map, field_of_bit, layout_string
from repro.ieee.formats import (
    BFLOAT16,
    BINARY16,
    BINARY32,
    BINARY64,
    FORMATS,
    IEEEFormat,
    format_by_name,
)
from repro.ieee.special import is_finite, is_inf, is_nan, is_subnormal, is_zero

__all__ = [
    "AnalyticPrediction",
    "BFLOAT16",
    "BINARY16",
    "BINARY32",
    "BINARY64",
    "FORMATS",
    "IEEEField",
    "IEEEFormat",
    "assemble",
    "bits_to_float",
    "classify_bit",
    "expected_error_profile",
    "extract_exponent",
    "extract_fraction",
    "extract_sign",
    "field_map",
    "field_of_bit",
    "flip_bit",
    "flip_float_bit",
    "float_to_bits",
    "format_by_name",
    "is_finite",
    "is_hardware_layout",
    "is_inf",
    "is_nan",
    "is_subnormal",
    "is_zero",
    "layout_string",
    "predict_flip",
    "relative_error_bound",
]
