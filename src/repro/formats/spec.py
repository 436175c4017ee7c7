"""The format spec grammar: every format round-trips through a string.

A *spec* is a short string naming a (possibly parameterized) number
format.  Canonical specs double as registry names, so any format — not
just the eight the paper uses — can be named on the CLI, logged in a
campaign CSV, and rehydrated on the far side of a process pool.

Grammar (case-insensitive, whitespace ignored)::

    posit<N>            standard posit, es = 2      posit32, posit8
    posit<N>es<E>       posit with explicit es      posit16es1
    ieee16|32|64        native IEEE widths          ieee32
    binary16|32|64      aliases of the above        binary32 -> ieee32
    bfloat16            brain float
    binary(<E>,<F>)     custom IEEE layout with E exponent and F
                        fraction bits               binary(8,23) -> ieee32
    fixedposit(<N>[,es=<E>][,r=<R>])
                        fixed-posit (Gohil et al.)  fixedposit(32,es=2,r=5)

``binary(E,F)`` layouts matching a native width canonicalize onto it
(``binary(8,23)`` *is* ``ieee32``); anything else is served by the
software codec.  ``parse_spec`` returns a fresh, unregistered
:class:`NumberFormat` — :func:`repro.formats.get_format` adds caching
and user-registered names on top.
"""

from __future__ import annotations

import re

from repro.formats.base import NumberFormat


class FormatSpecError(ValueError):
    """A spec string that does not parse or describes an invalid format."""


_POSIT = re.compile(r"^posit(\d+)(?:es(\d+))?$")
_IEEE_NATIVE = re.compile(r"^(?:ieee|binary)(16|32|64)$")
_BINARY = re.compile(r"^binary\((\d+),(\d+)\)$")
_FIXEDPOSIT = re.compile(r"^fixedposit\((\d+)((?:,(?:es|r)=\d+)*)\)$")

#: (exponent_bits, fraction_bits) -> native format name.
_NATIVE_LAYOUTS = {
    (5, 10): "binary16",
    (8, 23): "binary32",
    (11, 52): "binary64",
    (8, 7): "bfloat16",
}


def normalize_spec(spec: str) -> str:
    """Lowercase and strip all whitespace (the grammar ignores both)."""
    return re.sub(r"\s+", "", str(spec).lower())


def parse_spec(spec: str) -> NumberFormat:
    """Build the :class:`NumberFormat` a spec string describes.

    Raises :class:`FormatSpecError` for strings outside the grammar and
    for grammatical specs with invalid parameters (e.g. ``posit128``).
    """
    from repro.formats.fixedposit import FixedPositConfig, FixedPositTarget
    from repro.formats.ieee import IEEETarget
    from repro.formats.posit import PositTarget
    from repro.ieee.formats import FORMATS as IEEE_FORMATS, IEEEFormat
    from repro.posit.config import PositConfig

    text = normalize_spec(spec)

    match = _POSIT.match(text)
    if match:
        nbits = int(match.group(1))
        es = int(match.group(2)) if match.group(2) is not None else 2
        return PositTarget(_build(PositConfig, spec, nbits=nbits, es=es))

    match = _IEEE_NATIVE.match(text)
    if match:
        return IEEETarget(IEEE_FORMATS[f"binary{match.group(1)}"])

    if text == "bfloat16":
        return IEEETarget(IEEE_FORMATS["bfloat16"])

    match = _BINARY.match(text)
    if match:
        exponent_bits, fraction_bits = int(match.group(1)), int(match.group(2))
        native = _NATIVE_LAYOUTS.get((exponent_bits, fraction_bits))
        if native is not None:
            return IEEETarget(IEEE_FORMATS[native])
        if not 2 <= exponent_bits <= 11 or not 1 <= fraction_bits <= 52:
            raise FormatSpecError(
                f"binary({exponent_bits},{fraction_bits}) is outside the software "
                f"codec's range (2..11 exponent bits, 1..52 fraction bits)"
            )
        fmt = IEEEFormat(
            name=f"binary({exponent_bits},{fraction_bits})",
            exponent_bits=exponent_bits,
            fraction_bits=fraction_bits,
            float_dtype=None,
        )
        return IEEETarget(fmt)

    match = _FIXEDPOSIT.match(text)
    if match:
        kwargs = {"nbits": int(match.group(1))}
        for key, value in re.findall(r"(es|r)=(\d+)", match.group(2)):
            kwargs[key] = int(value)
        return FixedPositTarget(_build(FixedPositConfig, spec, **kwargs))

    raise FormatSpecError(
        f"spec {spec!r} does not match the format grammar "
        "(posit<N>[es<E>], ieee16/32/64, bfloat16, binary(<E>,<F>), "
        "fixedposit(<N>[,es=<E>][,r=<R>]))"
    )


def canonical_spec(spec: str) -> str:
    """The canonical name a spec resolves to (parses it fully)."""
    return parse_spec(spec).name


def _build(config_cls, spec: str, **kwargs):
    """Instantiate a config, converting validation errors to spec errors."""
    try:
        return config_cls(**kwargs)
    except ValueError as error:
        raise FormatSpecError(f"invalid spec {spec!r}: {error}") from error
