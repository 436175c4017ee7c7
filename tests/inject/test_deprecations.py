"""Removed entry points stay removed.

The ``repro.inject.targets`` forwarding shims (``target_by_name``,
``InjectionTarget``, ``available_targets``) completed their deprecation
cycle and were deleted alongside the batched-codec API redesign; these
tests pin the removal and that the canonical replacements work without
warnings.  (The ``run_campaign_parallel`` wrapper's absence is pinned
in ``tests/inject/test_parallel.py``.)
"""

import warnings

import pytest


class TestTargetsRemoved:
    def test_targets_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.inject.targets  # noqa: F401

    def test_package_level_aliases_are_gone(self):
        import repro.inject as inject

        for name in ("target_by_name", "InjectionTarget", "available_targets"):
            with pytest.raises(AttributeError):
                getattr(inject, name)
            assert name not in inject.__all__

    def test_importing_package_stays_quiet(self):
        import importlib

        import repro.inject as inject

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            importlib.reload(inject)

    def test_resolve_is_the_canonical_path(self):
        from repro.formats import NumberFormat, available_formats, resolve

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert resolve("posit32").nbits == 32
            assert resolve("binary(8,23)").nbits == 32
            assert isinstance(resolve("posit32"), NumberFormat)
            assert "posit32" in available_formats()

    def test_resolve_backend_is_keyword_only(self):
        from repro.formats import resolve

        with pytest.raises(TypeError):
            resolve("posit16", "direct")  # noqa: too-many-function-args
        # The keyword survives only to name the migration.
        with pytest.raises(ValueError, match="was removed"):
            resolve("posit16", backend="direct")
