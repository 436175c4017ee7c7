"""Differential checks: every codec against an independent implementation.

Three cross-checks, each a pure function from an
:class:`~repro.conformance.oracle.OracleContext` and a format to a
:class:`~repro.conformance.report.CheckResult`:

* ``codec-ref-decode`` / ``codec-ref-encode`` — the vectorized codec
  against the scalar reference (:mod:`repro.conformance.references`):
  struct-based IEEE, exact-``Fraction`` posits;
* ``backend-agreement`` — the LUT backend against the direct backend,
  exhaustively over the pattern space for every format narrow enough to
  tabulate;
* ``composed-agreement`` — the composed-table backend (two 16-bit
  gathers per 32-bit pattern) against the direct backend: exhaustive
  for widths the oracle can exhaust, stratified-sampled plus
  NaR/NaN/Inf/signed-zero corner patterns at 32 bits;
* ``metrics-fast-vs-full`` — the campaign's O(1) single-fault metric
  shortcut against the full-array reference reduction, over seeded
  faults including NaN/Inf/zero corners.
"""

from __future__ import annotations

import numpy as np

from repro.conformance.references import (
    float_bits,
    pattern_sample,
    reference_for,
    same_float,
    value_sample,
)
from repro.conformance.report import CheckResult, FindingCollector
from repro.formats import (
    COMPOSED_MAX_BITS,
    LUT_MAX_BITS,
    NumberFormat,
    parse_spec,
)


def check_reference_decode(ctx, fmt: NumberFormat) -> CheckResult:
    """Vectorized decode vs the independent scalar reference."""
    reference = reference_for(fmt)
    collector = FindingCollector("codec-ref-decode", fmt.name)
    if reference is None:
        result = collector.finish(0)
        result.skipped = True
        return result
    patterns = pattern_sample(
        fmt, ctx.budget.patterns, exhaustive_max_bits=ctx.budget.exhaustive_max_bits,
        seed=ctx.seed,
    )
    decoded = fmt.from_bits(patterns.astype(fmt.dtype))
    for pattern, got in zip(patterns.tolist(), decoded.tolist()):
        expected = reference.decode(pattern)
        if not same_float(got, expected):
            collector.error(
                f"{fmt.name} decode of pattern 0x{pattern:x} gives {got!r}, "
                f"reference {reference.name} gives {expected!r}"
            )
    return collector.finish(len(patterns))


def check_reference_encode(ctx, fmt: NumberFormat) -> CheckResult:
    """Vectorized encode vs the independent scalar reference."""
    reference = reference_for(fmt)
    collector = FindingCollector("codec-ref-encode", fmt.name)
    if reference is None:
        result = collector.finish(0)
        result.skipped = True
        return result
    values = value_sample(fmt, ctx.budget.values, seed=ctx.seed)
    # Overflow-range inputs are deliberate; numpy warns on the cast.
    with np.errstate(over="ignore", invalid="ignore"):
        encoded = fmt.to_bits(values)
    for value, got in zip(values.tolist(), np.asarray(encoded).tolist()):
        expected = reference.encode(value)
        if int(got) != int(expected):
            collector.error(
                f"{fmt.name} encode of {value!r} gives 0x{int(got):x}, "
                f"reference {reference.name} gives 0x{int(expected):x}"
            )
    return collector.finish(len(values))


def check_backend_agreement(ctx, fmt: NumberFormat) -> CheckResult:
    """LUT and direct backends must be bit-identical on every operation."""
    collector = FindingCollector("backend-agreement", fmt.name)
    if fmt.nbits > LUT_MAX_BITS:
        result = collector.finish(0)
        result.skipped = True
        return result
    # Fresh instances so neither shares the registry-cached backend state.
    direct = parse_spec(fmt.name, "direct")
    lut = parse_spec(fmt.name, "lut")
    patterns = np.arange(1 << fmt.nbits, dtype=np.uint64).astype(fmt.dtype)
    checked = 0

    direct_values = direct.from_bits(patterns)
    lut_values = lut.from_bits(patterns)
    mismatch = np.nonzero(float_bits(direct_values) != float_bits(lut_values))[0]
    checked += patterns.size
    for idx in mismatch[:8].tolist():
        collector.error(
            f"{fmt.name} from_bits(0x{int(patterns[idx]):x}) differs: "
            f"direct={direct_values[idx]!r} lut={lut_values[idx]!r}"
        )

    values = value_sample(fmt, ctx.budget.values, seed=ctx.seed)
    with np.errstate(over="ignore", invalid="ignore"):
        direct_bits = np.asarray(direct.to_bits(values))
        lut_bits = np.asarray(lut.to_bits(values))
    mismatch = np.nonzero(direct_bits != lut_bits)[0]
    checked += values.size
    for idx in mismatch[:8].tolist():
        collector.error(
            f"{fmt.name} to_bits({values[idx]!r}) differs: "
            f"direct=0x{int(direct_bits[idx]):x} lut=0x{int(lut_bits[idx]):x}"
        )

    bits_to_check = (
        range(fmt.nbits)
        if ctx.level == "full"
        else sorted({0, 1, fmt.nbits // 2, fmt.nbits - 2, fmt.nbits - 1})
    )
    for bit in bits_to_check:
        direct_fields = direct.classify_bits(patterns, bit)
        lut_fields = lut.classify_bits(patterns, bit)
        mismatch = np.nonzero(np.asarray(direct_fields) != np.asarray(lut_fields))[0]
        checked += patterns.size
        for idx in mismatch[:4].tolist():
            collector.error(
                f"{fmt.name} classify_bits(0x{int(patterns[idx]):x}, bit={bit}) "
                f"differs: direct={int(direct_fields[idx])} lut={int(lut_fields[idx])}"
            )
    mismatch = np.nonzero(
        np.asarray(direct.regime_sizes(patterns)) != np.asarray(lut.regime_sizes(patterns))
    )[0]
    checked += patterns.size
    for idx in mismatch[:4].tolist():
        collector.error(
            f"{fmt.name} regime_sizes(0x{int(patterns[idx]):x}) differs between backends"
        )
    return collector.finish(checked)


def _check_alternate_backend(ctx, fmt: NumberFormat, backend: str, check: str) -> CheckResult:
    """An alternate backend vs direct, bit-exact on every codec operation.

    Pattern coverage is exhaustive when the oracle budget can exhaust
    the width, otherwise a seeded stratified sample augmented with the
    special-value corner patterns (NaR / NaN / +-Inf / signed zeros /
    +-1) that the tables must not mishandle.
    """
    collector = FindingCollector(check, fmt.name)
    direct = parse_spec(fmt.name, "direct")
    other = parse_spec(fmt.name, backend)
    sampled = pattern_sample(
        fmt, ctx.budget.patterns, exhaustive_max_bits=ctx.budget.exhaustive_max_bits,
        seed=ctx.seed,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        corner_bits = np.asarray(
            direct.to_bits(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0]))
        ).astype(np.uint64)
    patterns = np.unique(np.concatenate([sampled, corner_bits])).astype(fmt.dtype)
    checked = 0

    direct_values = direct.from_bits(patterns)
    other_values = other.from_bits(patterns)
    mismatch = np.nonzero(float_bits(direct_values) != float_bits(other_values))[0]
    checked += patterns.size
    for idx in mismatch[:8].tolist():
        collector.error(
            f"{fmt.name} from_bits(0x{int(patterns[idx]):x}) differs: "
            f"direct={direct_values[idx]!r} {backend}={other_values[idx]!r}"
        )

    values = value_sample(fmt, ctx.budget.values, seed=ctx.seed)
    with np.errstate(over="ignore", invalid="ignore"):
        direct_bits = np.asarray(direct.to_bits(values))
        other_bits = np.asarray(other.to_bits(values))
    mismatch = np.nonzero(direct_bits != other_bits)[0]
    checked += values.size
    for idx in mismatch[:8].tolist():
        collector.error(
            f"{fmt.name} to_bits({values[idx]!r}) differs: "
            f"direct=0x{int(direct_bits[idx]):x} {backend}=0x{int(other_bits[idx]):x}"
        )

    bits_to_check = (
        range(fmt.nbits)
        if ctx.level == "full"
        else sorted({0, 1, fmt.nbits // 2, fmt.nbits - 2, fmt.nbits - 1})
    )
    for bit in bits_to_check:
        direct_fields = direct.classify_bits(patterns, bit)
        other_fields = other.classify_bits(patterns, bit)
        mismatch = np.nonzero(np.asarray(direct_fields) != np.asarray(other_fields))[0]
        checked += patterns.size
        for idx in mismatch[:4].tolist():
            collector.error(
                f"{fmt.name} classify_bits(0x{int(patterns[idx]):x}, bit={bit}) "
                f"differs: direct={int(direct_fields[idx])} {backend}={int(other_fields[idx])}"
            )
    mismatch = np.nonzero(
        np.asarray(direct.regime_sizes(patterns)) != np.asarray(other.regime_sizes(patterns))
    )[0]
    checked += patterns.size
    for idx in mismatch[:4].tolist():
        collector.error(
            f"{fmt.name} regime_sizes(0x{int(patterns[idx]):x}) differs between backends"
        )

    # The batched surface: row-wise flip+decode must agree with the
    # direct per-bit reference on the same rows.
    bit_list = np.asarray(sorted(bits_to_check), dtype=np.int64)
    rows = np.broadcast_to(patterns, (bit_list.size, patterns.size))
    direct_flips = direct.decode_flips(rows, bit_list)
    other_flips = other.decode_flips(rows, bit_list)
    bad_rows, bad_cols = np.nonzero(float_bits(direct_flips) != float_bits(other_flips))
    checked += rows.size
    for row, col in list(zip(bad_rows.tolist(), bad_cols.tolist()))[:4]:
        collector.error(
            f"{fmt.name} decode_flips(0x{int(patterns[col]):x}, bit={int(bit_list[row])}) "
            f"differs: direct={direct_flips[row, col]!r} {backend}={other_flips[row, col]!r}"
        )
    return collector.finish(checked)


def check_composed_agreement(ctx, fmt: NumberFormat) -> CheckResult:
    """Composed-table and direct backends must be bit-identical."""
    collector = FindingCollector("composed-agreement", fmt.name)
    if fmt.nbits > COMPOSED_MAX_BITS:
        result = collector.finish(0)
        result.skipped = True
        return result
    return _check_alternate_backend(ctx, fmt, "composed", "composed-agreement")


#: Metric row keys compared between the fast path and the reference.
_METRIC_ROW_RTOL = 1e-9


def check_metrics_fast_vs_full(ctx) -> CheckResult:
    """O(1) single-fault metrics vs the full-array reference reduction.

    Looked up through the module (``fast.single_fault_metrics``) at call
    time, so a perturbed fast path is caught even when monkeypatched.
    """
    from repro.metrics import fast, pointwise
    from repro.metrics.summary import SummaryStats

    collector = FindingCollector("metrics-fast-vs-full", "metrics")
    rng = np.random.default_rng([ctx.seed, 97])
    cases = 64 if ctx.level == "smoke" else 256
    base = np.concatenate([
        rng.normal(50.0, 20.0, 40),
        rng.lognormal(-2, 4, 16),
        np.zeros(4),
        np.array([1.0, -1.0, 1e-300, 1e300]),
    ])
    baseline = SummaryStats.from_array(base)
    specials = [np.nan, np.inf, -np.inf, 0.0]
    checked = 0
    for case in range(cases):
        index = int(rng.integers(0, base.size))
        if case % 8 == 0:
            new_value = float(specials[(case // 8) % len(specials)])
        else:
            new_value = float(base[index] + rng.normal(0, 100))
        faulty = base.copy()
        faulty[index] = new_value
        fast_row = fast.single_fault_metrics(baseline, float(base[index]), new_value).as_row()
        full_row = pointwise.compare_arrays(base, faulty).as_row()
        checked += 1
        for key, fast_value in fast_row.items():
            full_value = full_row[key]
            if np.isnan(fast_value) and np.isnan(full_value):
                continue
            if fast_value == full_value:
                continue
            if (
                np.isfinite(fast_value)
                and np.isfinite(full_value)
                and abs(fast_value - full_value)
                <= _METRIC_ROW_RTOL * max(abs(fast_value), abs(full_value))
            ):
                continue
            collector.error(
                f"single-fault metric {key!r} diverges from compare_arrays: "
                f"fast={fast_value!r} full={full_value!r} "
                f"(index {index}, old={base[index]!r}, new={new_value!r})"
            )
    return collector.finish(checked)
