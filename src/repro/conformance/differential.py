"""Differential checks: every codec against an independent implementation.

Five cross-checks, each a pure function from an
:class:`~repro.conformance.oracle.OracleContext` and a format to a
:class:`~repro.conformance.report.CheckResult`:

* ``codec-ref-decode`` / ``codec-ref-encode`` — the vectorized codec
  against the scalar reference (:mod:`repro.conformance.references`):
  struct-based IEEE, exact-``Fraction`` posits;
* ``backend-agreement`` — a format's table gathers against its raw
  codec (``decode_raw``/``classify_raw``/``regime_raw``), exhaustively
  over the pattern space, for every format that decodes by tables;
* ``lean-agreement`` — the table-free posit codec (:mod:`repro.posit.lean`)
  against :func:`repro.posit.fields.decompose`, on decode, classify and
  regime, for each posit of at most 32 bits at every ``es`` in 0..4;
  at ``full`` every pattern of the format goes through decode and
  regime;
* ``round-trip-agreement`` — posit ``round_trip``, which rounds in the
  float domain, against the value each lattice point and same-block
  midpoint must store as, derived from the patterns themselves, and
  against the bit path ``from_bits(to_bits(x))`` everywhere else;
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
from repro.formats import NumberFormat, PositTarget, parse_spec
from repro.posit.config import PositConfig
from repro.posit.decode import decode_fields
from repro.posit.fields import classify_bit_from_fields, decompose
from repro.posit.lean import LEAN_MAX_BITS, lean_classify, lean_decode, lean_regime

#: Patterns per chunk of the exhaustive ``round-trip-agreement`` and
#: ``lean-agreement`` walks at ``full`` (~100 MB of working arrays).
ROUND_TRIP_CHUNK = 1 << 20

#: Exponent widths the lean codec is checked at, for each posit width.
LEAN_CHECK_ES = (0, 1, 2, 3, 4)


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
    """A format's table gathers must equal its raw codec on every pattern."""
    collector = FindingCollector("backend-agreement", fmt.name)
    # A fresh instance, so its tables are built here from the raw codec.
    tabled = parse_spec(fmt.name)
    if tabled.backend_name != "lut":
        result = collector.finish(0)
        result.skipped = True
        return result
    patterns = np.arange(1 << fmt.nbits, dtype=np.uint64).astype(fmt.dtype)
    checked = 0

    want_values = tabled.decode_raw(patterns)
    got_values = tabled.from_bits(patterns)
    mismatch = np.nonzero(float_bits(want_values) != float_bits(got_values))[0]
    checked += patterns.size
    for idx in mismatch[:8].tolist():
        collector.error(
            f"{fmt.name} from_bits(0x{int(patterns[idx]):x}) differs: "
            f"raw={want_values[idx]!r} table={got_values[idx]!r}"
        )

    bits_to_check = (
        range(fmt.nbits)
        if ctx.level == "full"
        else sorted({0, 1, fmt.nbits // 2, fmt.nbits - 2, fmt.nbits - 1})
    )
    for bit in bits_to_check:
        want_fields = np.asarray(tabled.classify_raw(patterns, bit))
        got_fields = np.asarray(tabled.classify_bits(patterns, bit))
        mismatch = np.nonzero(want_fields != got_fields)[0]
        checked += patterns.size
        for idx in mismatch[:4].tolist():
            collector.error(
                f"{fmt.name} classify_bits(0x{int(patterns[idx]):x}, bit={bit}) "
                f"differs: raw={int(want_fields[idx])} table={int(got_fields[idx])}"
            )
    mismatch = np.nonzero(
        np.asarray(tabled.regime_raw(patterns)) != np.asarray(tabled.regime_sizes(patterns))
    )[0]
    checked += patterns.size
    for idx in mismatch[:4].tolist():
        collector.error(
            f"{fmt.name} regime_sizes(0x{int(patterns[idx]):x}) differs from the raw codec"
        )
    return collector.finish(checked)


def _run_length_sample(config: PositConfig, per_length: int, rng) -> np.ndarray:
    """Patterns with every regime run length, both polarities, both signs.

    Classification depends on the run length and the bit alone, so this
    sample reaches every field layout a width can have.
    """
    width = config.nbits - 1
    body_mask = (1 << width) - 1
    patterns = []
    for length in range(width + 1):
        terminator = 1 << length >> 1
        tails = rng.integers(0, max(terminator, 1), size=per_length, dtype=np.uint64)
        normalized = np.uint64(terminator) | tails if length else np.zeros(1, np.uint64)
        for body in (normalized, normalized ^ np.uint64(body_mask)):
            patterns += [body, body | np.uint64(1 << width)]
    return np.unique(np.concatenate(patterns))


def _compare_lean(collector, config: PositConfig, patterns, bits) -> int:
    """Lean decode, regime and classify at ``bits`` vs the decomposition."""
    label = f"posit{config.nbits}es{config.es}"
    fields = decompose(patterns, config)
    want = decode_fields(fields, config)
    got = lean_decode(patterns, config)
    for idx in np.flatnonzero(float_bits(got) != float_bits(want))[:8].tolist():
        collector.error(
            f"{label} lean decode of 0x{int(patterns[idx]):x} gives {got[idx]!r}, "
            f"decompose gives {want[idx]!r}"
        )
    run = lean_regime(patterns, config)
    for idx in np.flatnonzero(run != fields.run)[:4].tolist():
        collector.error(
            f"{label} lean regime of 0x{int(patterns[idx]):x} is {int(run[idx])}, "
            f"decompose gives {int(fields.run[idx])}"
        )
    for bit in bits:
        got_fields = lean_classify(patterns, bit, config)
        want_fields = classify_bit_from_fields(fields, bit, config)
        for idx in np.flatnonzero(got_fields != want_fields)[:4].tolist():
            collector.error(
                f"{label} lean classify of 0x{int(patterns[idx]):x} at bit {bit} is "
                f"{int(got_fields[idx])}, decompose gives {int(want_fields[idx])}"
            )
    return patterns.size * (2 + len(bits))


def check_lean_agreement(ctx, fmt: NumberFormat) -> CheckResult:
    """The table-free posit codec against ``decompose``, bit for bit.

    For a posit of at most 32 bits, the lean decode, regime run and
    every bit's classification must equal the decomposition's at the
    format's width and every ``es`` in :data:`LEAN_CHECK_ES`, on the
    stratified pattern sample (exhaustive up to the budget's width) plus
    a sample of every run length.  At ``full`` every pattern of the
    format itself is also walked through decode and regime, in chunks
    of :data:`ROUND_TRIP_CHUNK`; classification is a function of run
    length and bit alone, so the run-length sample covers it.
    """
    collector = FindingCollector("lean-agreement", fmt.name)
    if not isinstance(fmt, PositTarget) or fmt.nbits > LEAN_MAX_BITS:
        result = collector.finish(0)
        result.skipped = True
        return result
    rng = np.random.default_rng([ctx.seed, fmt.nbits])
    sampled = pattern_sample(
        fmt, ctx.budget.patterns, exhaustive_max_bits=ctx.budget.exhaustive_max_bits,
        seed=ctx.seed,
    )
    checked = 0
    for es in LEAN_CHECK_ES:
        config = PositConfig(fmt.nbits, es)
        runs = _run_length_sample(config, ctx.budget.pairs // 8, rng)
        patterns = np.unique(np.concatenate([sampled, runs]))
        checked += _compare_lean(collector, config, patterns, range(fmt.nbits))
    if ctx.level == "full" and fmt.nbits > ctx.budget.exhaustive_max_bits:
        for start in range(0, 1 << fmt.nbits, ROUND_TRIP_CHUNK):
            chunk = np.arange(start, min(start + ROUND_TRIP_CHUNK, 1 << fmt.nbits),
                              dtype=np.uint64)
            checked += _compare_lean(collector, fmt.config, chunk, ())
    return collector.finish(checked)


def _lattice_cases(decoder: NumberFormat, patterns: np.ndarray):
    """Round-trip cases from positive ``patterns`` (each ``p + 1 <= maxpos``).

    Returns ``(inputs, expected, crossing)``: lattice points and
    same-fraction-block upper midpoints, both signs, with the value each
    must store as (``decode(p)``; for the midpoint of ``(p, p+1)`` the
    decode of whichever pattern is even), and the both-sign midpoints of
    pairs that cross a block, whose ties only the bit path defines.
    """
    low = decoder.from_bits(patterns.astype(decoder.dtype))
    high = decoder.from_bits((patterns + np.uint64(1)).astype(decoder.dtype))
    midpoints = (low + high) / 2
    # p and p+1 share a fraction block exactly when they share a binade.
    block = np.frexp(low)[1] == np.frexp(high)[1]
    even = np.where(patterns % np.uint64(2) == 0, low, high)
    inputs = np.concatenate([low, midpoints[block]])
    expected = np.concatenate([low, even[block]])
    crossing = midpoints[~block]
    return (
        np.concatenate([inputs, -inputs]),
        np.concatenate([expected, -expected]),
        np.concatenate([crossing, -crossing]),
    )


def _compare_round_trip(collector, fmt, inputs, expected, source: str) -> int:
    got = fmt.round_trip(inputs)
    for idx in np.flatnonzero(float_bits(got) != float_bits(expected))[:8].tolist():
        collector.error(
            f"{fmt.name} round_trip({inputs[idx]!r}) gives {got[idx]!r}, "
            f"{source} gives {expected[idx]!r}"
        )
    return inputs.size


def check_round_trip_agreement(ctx, fmt: NumberFormat) -> CheckResult:
    """Posit ``round_trip`` against the patterns and against the bit path.

    ``round_trip`` rounds posits in the float domain
    (:mod:`repro.posit.rounding`); this check gates that shortcut.
    Lattice points and same-fraction-block upper midpoints, both signs,
    must store as the value their patterns give.  Those expectations
    need an exact float64 decode, so posits wider than 32 bits check the
    same inputs against the bit path ``from_bits(to_bits(x))`` instead,
    as every posit does for the midpoints that cross a block, the
    specials, the float64 neighbours of all those inputs and a value
    sample.  The pattern sample is seeded and scaled by the budget; at
    ``full`` every positive pattern of a posit up to 32 bits is also
    walked, in chunks of :data:`ROUND_TRIP_CHUNK`.
    """
    collector = FindingCollector("round-trip-agreement", fmt.name)
    if not isinstance(fmt, PositTarget):
        result = collector.finish(0)
        result.skipped = True
        return result

    def bit_path(values):
        return fmt.from_bits(fmt.to_bits(values))

    exact_decode = fmt.nbits <= LEAN_MAX_BITS
    exhaustive = ctx.level == "full" and exact_decode
    top = (1 << (fmt.nbits - 1)) - 1  # maxpos pattern
    # The stratified sample, folded onto the positive half, plus the
    # longest regimes at both ends, where exponent bits are truncated.
    sampled = pattern_sample(
        fmt, ctx.budget.patterns, exhaustive_max_bits=ctx.budget.exhaustive_max_bits,
        seed=ctx.seed,
    ) & np.uint64(top)
    ends = np.arange(ctx.budget.pairs, dtype=np.uint64)
    sampled = np.concatenate([sampled, ends + np.uint64(1), np.uint64(top - 1) - ends])
    sampled = np.unique(sampled[(sampled >= 1) & (sampled < top)])
    inputs, expected, crossing = _lattice_cases(fmt, sampled)
    checked = 0
    if exact_decode:
        checked += _compare_round_trip(collector, fmt, inputs, expected, "its pattern")
    else:
        checked += _compare_round_trip(collector, fmt, inputs, bit_path(inputs), "bit path")

    probes = np.concatenate([inputs, crossing])
    edges = np.array([fmt.config.minpos, fmt.config.maxpos])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    others = np.concatenate([
        crossing,
        np.nextafter(probes, 0.0),
        np.nextafter(probes, np.inf),
        edges,
        -edges,
        np.array([5e-324, -5e-324]),
        value_sample(fmt, ctx.budget.values, seed=ctx.seed),
    ])
    checked += _compare_round_trip(collector, fmt, others, bit_path(others), "bit path")

    if exhaustive:
        for start in range(1, top, ROUND_TRIP_CHUNK):
            chunk = np.arange(start, min(start + ROUND_TRIP_CHUNK, top), dtype=np.uint64)
            inputs, expected, crossing = _lattice_cases(fmt, chunk)
            checked += _compare_round_trip(collector, fmt, inputs, expected, "its pattern")
            checked += _compare_round_trip(
                collector, fmt, crossing, bit_path(crossing), "bit path"
            )
    return collector.finish(checked)


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
