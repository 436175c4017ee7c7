"""Invariant checks: clean on real codecs, loud on deliberately-broken ones."""

import numpy as np
import pytest

from repro.conformance import BUDGETS
from repro.conformance.invariants import (
    check_idempotence,
    check_lowery_exponent,
    check_metrics_metamorphic,
    check_negation_symmetry,
    check_posit_monotonic,
    check_rne_ties,
)
from repro.conformance.oracle import OracleContext
from repro.formats import resolve


@pytest.fixture
def ctx(tmp_path):
    return OracleContext(
        level="smoke", budget=BUDGETS["smoke"], seed=3, golden_dir=tmp_path
    )


ROSTER = ("posit8", "posit16", "posit32", "ieee16", "ieee32", "bfloat16")


class TestCleanOnRealCodecs:
    @pytest.mark.parametrize("spec", ROSTER)
    def test_idempotence(self, ctx, spec):
        result = check_idempotence(ctx, resolve(spec))
        assert result.ok, [f.message for f in result.findings]
        assert result.checked > 0

    @pytest.mark.parametrize("spec", ROSTER)
    def test_rne_ties(self, ctx, spec):
        result = check_rne_ties(ctx, resolve(spec))
        assert result.ok, [f.message for f in result.findings]

    @pytest.mark.parametrize("spec", ("posit8", "posit16", "posit32", "posit64"))
    def test_posit_monotonic(self, ctx, spec):
        result = check_posit_monotonic(ctx, resolve(spec))
        assert result.ok, [f.message for f in result.findings]
        assert result.checked > 0

    @pytest.mark.parametrize("spec", ROSTER)
    def test_negation_symmetry(self, ctx, spec):
        result = check_negation_symmetry(ctx, resolve(spec))
        assert result.ok, [f.message for f in result.findings]

    @pytest.mark.parametrize("spec", ROSTER + ("ieee64", "posit64"))
    def test_lowery_closed_forms(self, ctx, spec):
        result = check_lowery_exponent(ctx, resolve(spec))
        assert result.ok, [f.message for f in result.findings]

    def test_metrics_metamorphic(self, ctx):
        result = check_metrics_metamorphic(ctx)
        assert result.ok, [f.message for f in result.findings]
        assert result.checked > 0

    def test_monotonic_skips_ieee(self, ctx):
        result = check_posit_monotonic(ctx, resolve("ieee32"))
        assert result.skipped


def _broken_decode(spec: str, *, poison_pattern: int, poison_value: float):
    """A fresh format instance whose decode corrupts one pattern.

    Patched on the instance (not a proxy) so ``isinstance`` checks inside
    the invariants still see a real PositTarget/IEEETarget.
    """
    from repro.formats import parse_spec

    fmt = parse_spec(spec)
    true_from_bits = fmt.from_bits

    def from_bits(patterns):
        values = np.array(true_from_bits(patterns), dtype=np.float64, copy=True)
        hit = np.asarray(patterns).astype(np.uint64) == np.uint64(poison_pattern)
        values[hit] = poison_value
        return values

    fmt.from_bits = from_bits
    return fmt


class TestDetection:
    def test_poisoned_decode_breaks_idempotence(self, ctx):
        broken = _broken_decode("posit8", poison_pattern=0x42, poison_value=7.75)
        result = check_idempotence(ctx, broken)
        assert not result.ok
        assert any("0x42" in f.message for f in result.findings)

    def test_poisoned_decode_breaks_monotonicity(self, ctx):
        broken = _broken_decode("posit8", poison_pattern=0x42, poison_value=1e20)
        result = check_posit_monotonic(ctx, broken)
        assert not result.ok

    def test_poisoned_decode_breaks_negation_symmetry(self, ctx):
        broken = _broken_decode("posit8", poison_pattern=0x42, poison_value=-3.0)
        result = check_negation_symmetry(ctx, broken)
        assert not result.ok

    def test_finding_names_the_format_and_check(self, ctx):
        broken = _broken_decode("posit8", poison_pattern=0x42, poison_value=7.75)
        result = check_idempotence(ctx, broken)
        assert result.check == "idempotence"
        assert result.subject == "posit8"
        assert all("posit8" in f.message for f in result.findings)


class TestLoweryWidths:
    def test_ieee64_high_exponent_bits_do_not_crash(self, ctx):
        # 2**(2**j) overflows float64 from j=10 up; the check must treat
        # those flips as out-of-closed-form rather than raising.
        result = check_lowery_exponent(ctx, resolve("ieee64"))
        assert result.ok
        assert result.checked > 0

    def test_posit_es0_skips(self, ctx):
        result = check_lowery_exponent(ctx, resolve("posit8es0"))
        assert result.skipped
