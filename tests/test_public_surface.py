"""Every exported name resolves, and removed entry points stay removed.

``PositArray``, posit width conversion and the software IEEE
arithmetic module had no caller outside their own tests and were
deleted, with a handful of unused members.  ``docs/api_overview.md``
names each replacement; these tests pin the removal.
"""

import importlib
import pkgutil

import pytest

import repro


def _modules_with_all():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(info.name)
        if hasattr(module, "__all__"):
            yield module


def test_every_exported_name_resolves():
    missing = [
        f"{module.__name__}.{name}"
        for module in _modules_with_all()
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert missing == []


@pytest.mark.parametrize(
    "module", ["repro.posit.array", "repro.posit.convert", "repro.ieee.arithmetic"]
)
def test_deleted_modules_are_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


@pytest.mark.parametrize(
    "module, owner, name",
    [
        ("repro.posit", None, "PositArray"),
        ("repro.posit", None, "convert"),
        ("repro.posit", None, "is_widening_exact"),
        ("repro.posit", None, "round_trip_is_identity"),
        ("repro.posit", None, "STANDARD_CONFIGS"),
        ("repro.posit", None, "is_negative"),
        ("repro.posit.special", None, "is_negative"),
        ("repro.telemetry", None, "set_default_telemetry"),
        ("repro.posit", "Quire", "subtract_product"),
        ("repro.posit", "PositConfig", "storage_bits"),
        ("repro.posit", "PositConfig", "is_standard"),
        ("repro.inject", "SuiteResult", "all_records"),
        ("repro.detect.temporal", "DetectionOutcome", "latency"),
        ("repro.metrics.fast", "FaultMetrics", "as_dict"),
        ("repro.reporting.series", "Series", "max_point"),
    ],
)
def test_deleted_names_are_gone(module, owner, name):
    target = importlib.import_module(module)
    if owner is not None:
        target = getattr(target, owner)
    with pytest.raises(AttributeError):
        getattr(target, name)
    assert name not in getattr(target, "__all__", ())
