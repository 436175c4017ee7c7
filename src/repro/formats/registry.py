"""The format registry: names and specs resolve to shared instances.

The registry is the single lookup point for every consumer — injection
targets, the CLI, experiments, application kernels and pool workers all
go through :func:`resolve` (:func:`get_format` is the underlying
registry lookup it wraps).  Resolution order:

1. explicitly registered names (:func:`register_format`), letting
   projects install formats outside the spec grammar;
2. the spec grammar (:mod:`repro.formats.spec`), which covers every
   parameterized posit / IEEE / fixed-posit layout.

Instances are cached per canonical name, which matters beyond speed:
decode tables live on the instance, so repeated lookups of
``"posit16"`` share one set of tables.
"""

from __future__ import annotations

from typing import Callable

from repro.formats.base import NumberFormat
from repro.formats.spec import FormatSpecError, normalize_spec, parse_spec

#: The paper's formats plus the future-work widths: always registered,
#: listed by :func:`available_formats`.
DEFAULT_FORMATS = (
    "bfloat16",
    "ieee16",
    "ieee32",
    "ieee64",
    "posit8",
    "posit16",
    "posit32",
    "posit64",
)

_FACTORIES: dict[str, Callable[[], NumberFormat]] = {}
_INSTANCES: dict[str, NumberFormat] = {}

#: What the removed ``backend`` keyword of :func:`resolve` raises.
_BACKEND_REMOVED = (
    "resolve(spec, backend=...) was removed: the codec is fixed by the format "
    "(exhaustive 'lut' tables for posits, fixed-posits and software binary(e,f) "
    "layouts of at most 16 bits, the 'direct' raw codec otherwise; see "
    "NumberFormat.backend_name), so call resolve(spec)"
)


def register_format(
    name: str, factory: Callable[[], NumberFormat], *, listed: bool = True
) -> None:
    """Register a named format factory.

    ``factory`` is called (lazily, once) to build the
    instance; its result's ``name`` need not equal ``name``, which acts
    as an alias.  ``listed=False`` registers a resolvable alias that
    :func:`available_formats` does not advertise.
    """
    key = normalize_spec(name)
    if not key:
        raise ValueError("format name must be non-empty")
    _FACTORIES[key] = factory
    if not listed:
        _UNLISTED.add(key)
    _INSTANCES.clear()


_UNLISTED: set[str] = set()


def get_format(spec: str) -> NumberFormat:
    """Resolve a name or spec string to a (cached) format instance.

    Raises :class:`FormatSpecError` when the string neither names a
    registered format nor parses under the spec grammar.
    """
    if isinstance(spec, NumberFormat):
        return spec
    key = normalize_spec(spec)
    cached = _INSTANCES.get(key)
    if cached is not None:
        return cached
    factory = _FACTORIES.get(key)
    instance = factory() if factory is not None else parse_spec(key)
    # Cache under both the requested and the canonical key so
    # get_format("binary(8,23)") and get_format("ieee32") share tables —
    # preferring an instance already cached under the canonical name.
    canonical = normalize_spec(instance.name)
    instance = _INSTANCES.setdefault(canonical, instance)
    _INSTANCES[key] = instance
    return instance


def resolve(spec: str | NumberFormat, **removed) -> NumberFormat:
    """Resolve a name, spec string, or format instance to a format.

    *The* entry point for picking a format — every consumer (injection
    engine, runner, CLI, apps, tests) should call this and nothing
    else.  ``spec`` is a registered name, any spec grammar string
    (``posit32``, ``binary(8,23)``, ``fixedposit(16,es=2,r=3)``), or an
    existing instance (returned untouched).  The format fixes its own
    codec (:attr:`NumberFormat.backend_name`); the removed ``backend``
    keyword raises a :class:`ValueError` that names the migration.

    Instances are cached per canonical name, so repeated lookups share
    decode tables.  Raises :class:`FormatSpecError` for anything
    unresolvable.
    """
    if "backend" in removed:
        raise ValueError(_BACKEND_REMOVED)
    if removed:
        raise TypeError(f"resolve() got unexpected keyword arguments {sorted(removed)}")
    return get_format(spec)


def available_formats() -> list[str]:
    """All advertised format names: defaults plus registered ones."""
    names = set(DEFAULT_FORMATS)
    names.update(key for key in _FACTORIES if key not in _UNLISTED)
    return sorted(names)


def format_known(spec: str) -> bool:
    """Whether ``spec`` resolves (registered name or valid spec string)."""
    try:
        get_format(spec)
    except (FormatSpecError, ValueError):
        return False
    return True
