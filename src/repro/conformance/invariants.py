"""Metamorphic and algebraic invariants over codecs and metrics.

Each check asserts a property that must hold for *every* conforming
codec, without reference to a second implementation:

* ``idempotence`` — re-encoding a decoded pattern reproduces the pattern
  (NaN payloads excepted: formats canonicalize them by design);
* ``rne-ties`` — the exact midpoint of two adjacent representable values
  rounds to the pattern with an even (zero) last bit;
* ``posit-monotonic`` — posit decode is strictly increasing over the
  two's-complement order of the pattern ring (NaR excluded), the
  property that makes posit comparison integer comparison;
* ``negation-symmetry`` — negating the pattern (two's complement for
  posits, sign-bit XOR for IEEE) negates the value;
* ``lowery-exponent`` — Lowery's closed form (arXiv:1304.4292): a flip
  of exponent bit j of a normal IEEE value that lands on another normal
  value has relative error exactly ``|1 - 2**(±2**j)|``, and a fraction
  bit i flip is bounded by ``2**(i - F)``; posit exponent-bit flips hit
  the analogous ``|1 - 2**(±2**i)|`` lattice (i < es);
* ``metrics-metamorphic`` — the reference metric reduction is invariant
  under joint permutation and sign flip, and equivariant under exact
  power-of-two scaling.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from repro.conformance.references import pattern_sample, value_sample
from repro.conformance.report import CheckResult, FindingCollector
from repro.formats import FixedPositTarget, IEEETarget, NumberFormat, PositTarget

#: Tolerance for closed-form relative-error identities: the measured
#: ratio is one float64 division away from exact.
_CLOSED_FORM_RTOL = 1e-12


def _sample(ctx, fmt: NumberFormat) -> np.ndarray:
    return pattern_sample(
        fmt, ctx.budget.patterns, exhaustive_max_bits=ctx.budget.exhaustive_max_bits,
        seed=ctx.seed,
    )


def check_idempotence(ctx, fmt: NumberFormat) -> CheckResult:
    """to_bits(from_bits(p)) == p for every canonical pattern.

    Exact for every format whose decode is lossless in float64 (all IEEE
    layouts, posits up to 32 bits).  Wider posits pack more fraction
    bits than float64 holds, so several patterns share one decoded
    float; there the invariant weakens to *nearest-pattern optimality*:
    the re-encoded pattern's exact value must be at least as close to
    the decoded float as the original pattern's.
    """
    collector = FindingCollector("idempotence", fmt.name)
    patterns = _sample(ctx, fmt)
    typed = patterns.astype(fmt.dtype)
    values = fmt.from_bits(typed)
    reencoded = np.asarray(fmt.to_bits(values)).astype(np.uint64)
    mismatch = reencoded != patterns
    if isinstance(fmt, IEEETarget):
        # IEEE NaN payloads canonicalize on encode; every other pattern
        # (including -0.0, subnormals, infinities) must round-trip.
        mismatch &= ~np.isnan(values)
    lossy_decode = isinstance(fmt, PositTarget) and fmt.nbits > 32
    for idx in np.nonzero(mismatch)[0].tolist()[: 64 if lossy_decode else 8]:
        if lossy_decode and _nearest_pattern_ok(
            fmt, int(patterns[idx]), int(reencoded[idx]), float(values[idx])
        ):
            continue
        collector.error(
            f"{fmt.name} pattern 0x{int(patterns[idx]):x} decodes to "
            f"{values[idx]!r} but re-encodes to 0x{int(reencoded[idx]):x}"
        )
    return collector.finish(patterns.size)


def _nearest_pattern_ok(fmt: PositTarget, original: int, reencoded: int, decoded: float) -> bool:
    """Whether ``reencoded`` is an exact-arithmetic-justified answer for
    ``decoded``: no farther from it than ``original`` is."""
    from repro.posit._reference import decode_exact

    if not math.isfinite(decoded):
        return False
    target = Fraction(decoded)
    exact_original = decode_exact(original, fmt.config)
    exact_reencoded = decode_exact(reencoded, fmt.config)
    if exact_original is None or exact_reencoded is None:
        return False
    return abs(exact_reencoded - target) <= abs(exact_original - target)


def _positive_finite_neighbors(fmt: NumberFormat, count: int, seed: int) -> np.ndarray:
    """Adjacent positive pattern pairs (p, p+1), both finite nonzero."""
    if isinstance(fmt, IEEETarget):
        # Positive finite patterns: 1 .. (inf pattern - 2), so p+1 stays finite.
        top = (fmt.format.exponent_all_ones << fmt.format.fraction_bits) - 2
    else:
        # Positive (fixed-)posit patterns: 1 .. maxpos-1, so p+1 stays below NaR.
        top = (1 << (fmt.nbits - 1)) - 2
    if top < 1:
        return np.empty(0, dtype=np.uint64)
    rng = np.random.default_rng([seed, fmt.nbits, 1717])
    if top <= count:
        return np.arange(1, top + 1, dtype=np.uint64)
    return np.unique(rng.integers(1, top + 1, size=count, dtype=np.uint64))


def check_rne_ties(ctx, fmt: NumberFormat) -> CheckResult:
    """Exact midpoints of adjacent values round to the even pattern.

    Only formats whose neighbor midpoints are exact float64 values can
    be driven through the float64 protocol; wider formats skip.  A
    fixed-posit's positive patterns count up like IEEE's, fraction then
    scale, so every neighbor midpoint is a tie.
    """
    collector = FindingCollector("rne-ties", fmt.name)
    if not isinstance(fmt, (IEEETarget, PositTarget, FixedPositTarget)) or fmt.nbits > 32:
        result = collector.finish(0)
        result.skipped = True
        return result
    patterns = _positive_finite_neighbors(fmt, ctx.budget.pairs, ctx.seed)
    typed = patterns.astype(fmt.dtype)
    low = fmt.from_bits(typed)
    high = fmt.from_bits((patterns + 1).astype(fmt.dtype))
    checked = 0
    is_posit = isinstance(fmt, PositTarget)
    if is_posit:
        from repro.posit._reference import _split_fields
    for pattern, a, b in zip(patterns.tolist(), low.tolist(), high.tolist()):
        if not (math.isfinite(a) and math.isfinite(b)) or a == 0 or b == 0 or a >= b:
            continue
        if is_posit:
            _, _, _, m, f_int = _split_fields(pattern, fmt.config)
            if m < 1 or f_int == (1 << m) - 1:
                # p and p+1 straddle a regime/exponent boundary; the
                # pattern<->value map is exponential across it, so the
                # value midpoint is not the rounding tie (the correct
                # breakpoint is the even-pattern lattice in *ideal
                # pattern* space, which encode_exact honors).  Only
                # same-fraction-block neighbors tie at the midpoint.
                continue
        midpoint = (Fraction(a) + Fraction(b)) / 2
        mid_float = float(midpoint)
        if Fraction(mid_float) != midpoint:
            continue  # the tie itself is not a float64; cannot be driven exactly
        expected = pattern if pattern % 2 == 0 else pattern + 1
        got = int(np.asarray(fmt.to_bits(np.float64(mid_float))).reshape(-1)[0])
        checked += 1
        if got != expected:
            collector.error(
                f"{fmt.name} tie {mid_float!r} between 0x{pattern:x} and "
                f"0x{pattern + 1:x} rounds to 0x{got:x}, RNE demands the even "
                f"pattern 0x{expected:x}"
            )
    return collector.finish(checked)


def check_posit_monotonic(ctx, fmt: NumberFormat) -> CheckResult:
    """Posit decode is strictly increasing in two's-complement order."""
    collector = FindingCollector("posit-monotonic", fmt.name)
    if not isinstance(fmt, PositTarget):
        result = collector.finish(0)
        result.skipped = True
        return result
    patterns = _sample(ctx, fmt)
    nar = np.uint64(1 << (fmt.nbits - 1))
    patterns = patterns[patterns != nar]
    signed = patterns.astype(np.int64)
    if fmt.nbits < 64:
        width = np.int64(1 << fmt.nbits)
        signed = np.where(signed >= np.int64(1 << (fmt.nbits - 1)), signed - width, signed)
    order = np.argsort(signed, kind="stable")
    values = fmt.from_bits(patterns[order].astype(fmt.dtype))
    deltas = np.diff(values)
    bad = np.nonzero(~(deltas > 0))[0]
    for idx in bad[:8].tolist():
        collector.error(
            f"{fmt.name} decode not strictly increasing: pattern "
            f"0x{int(patterns[order][idx]):x} -> {values[idx]!r} but "
            f"0x{int(patterns[order][idx + 1]):x} -> {values[idx + 1]!r}"
        )
    return collector.finish(patterns.size)


def check_negation_symmetry(ctx, fmt: NumberFormat) -> CheckResult:
    """decode(-p) == -decode(p): two's complement (posit) / sign XOR (IEEE)."""
    collector = FindingCollector("negation-symmetry", fmt.name)
    if not isinstance(fmt, (IEEETarget, PositTarget)):
        result = collector.finish(0)
        result.skipped = True
        return result
    patterns = _sample(ctx, fmt)
    mask = np.uint64((1 << fmt.nbits) - 1) if fmt.nbits < 64 else np.uint64(2**64 - 1)
    if isinstance(fmt, PositTarget):
        negated = (np.uint64(0) - patterns) & mask
    else:
        negated = patterns ^ np.uint64(1 << (fmt.nbits - 1))
    values = fmt.from_bits(patterns.astype(fmt.dtype))
    neg_values = fmt.from_bits(negated.astype(fmt.dtype))
    with np.errstate(invalid="ignore"):
        mismatch = ~((neg_values == -values) | (np.isnan(values) & np.isnan(neg_values)))
    for idx in np.nonzero(mismatch)[0][:8].tolist():
        collector.error(
            f"{fmt.name} negation broken: decode(0x{int(patterns[idx]):x}) = "
            f"{values[idx]!r} but decode(0x{int(negated[idx]):x}) = "
            f"{neg_values[idx]!r}, expected {-values[idx]!r}"
        )
    return collector.finish(patterns.size)


def _closed_form_lattice(es: int) -> np.ndarray:
    """|1 - 2**(±2**i)| for i < es: every posit exponent-flip rel error."""
    deltas = [2**i for i in range(es)] + [-(2**i) for i in range(es)]
    return np.array(sorted({abs(1.0 - 2.0**d) for d in deltas}))


def check_lowery_exponent(ctx, fmt: NumberFormat) -> CheckResult:
    """Closed-form relative error of exponent/fraction bit flips.

    IEEE (Lowery, arXiv:1304.4292): normal-to-normal exponent-bit-j
    flips satisfy rel == |1 - 2**(±2**j)| exactly; fraction-bit-i flips
    of a normal value satisfy rel <= 2**(i - F).  Posits: a flip landing
    in the exponent field leaves the regime intact, so rel must sit on
    the |1 - 2**(±2**i)| lattice (i < es).
    """
    collector = FindingCollector("lowery-exponent", fmt.name)
    if not isinstance(fmt, (IEEETarget, PositTarget)):
        result = collector.finish(0)
        result.skipped = True
        return result
    values = value_sample(fmt, ctx.budget.values, seed=ctx.seed)
    # The sample sweeps past the format's range on purpose; numpy warns
    # about the saturating casts.
    with np.errstate(over="ignore", invalid="ignore"):
        stored = fmt.round_trip(values)
        bits = fmt.to_bits(stored)
    finite = np.isfinite(stored) & (stored != 0)
    checked = 0
    if isinstance(fmt, IEEETarget):
        spec = fmt.format
        exp_of = (np.asarray(bits).astype(np.uint64) >> np.uint64(spec.fraction_bits)) & np.uint64(
            (1 << spec.exponent_bits) - 1
        )
        normal = finite & (exp_of >= 1) & (exp_of < spec.exponent_all_ones)
        for j in range(spec.exponent_bits):
            flipped = np.asarray(bits) ^ np.asarray(bits).dtype.type(
                1 << (spec.fraction_bits + j)
            )
            faulty = fmt.from_bits(flipped)
            exp_faulty = (flipped.astype(np.uint64) >> np.uint64(spec.fraction_bits)) & np.uint64(
                (1 << spec.exponent_bits) - 1
            )
            both_normal = normal & (exp_faulty >= 1) & (exp_faulty < spec.exponent_all_ones)
            if not np.any(both_normal):
                continue
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                rel = np.abs(stored - faulty) / np.abs(stored)
            bit_was_set = (exp_of >> np.uint64(j)) & np.uint64(1)
            # 2**(2**j) overflows float64 for j >= 10 (ieee64's top
            # exponent bits); np.exp2 saturates to inf, which the
            # isfinite(expected) guard below then filters out.
            with np.errstate(over="ignore"):
                flip_up = float(np.abs(1.0 - np.exp2(np.float64(2**j))))
            expected = np.where(bit_was_set == 1, abs(1.0 - 2.0 ** -(2.0**j)), flip_up)
            usable = both_normal & np.isfinite(rel) & np.isfinite(expected)
            with np.errstate(invalid="ignore"):
                deviation = np.abs(rel - expected) > _CLOSED_FORM_RTOL * np.maximum(expected, 1.0)
            checked += int(np.sum(usable))
            for idx in np.nonzero(usable & deviation)[0][:4].tolist():
                collector.error(
                    f"{fmt.name} exponent bit {j} flip of {stored[idx]!r}: rel err "
                    f"{rel[idx]!r} off Lowery's closed form {expected[idx]!r}"
                )
        # Fraction-bit bound: rel <= 2**(i - F) for normal originals.
        for i in (0, spec.fraction_bits // 2, spec.fraction_bits - 1):
            flipped = np.asarray(bits) ^ np.asarray(bits).dtype.type(1 << i)
            faulty = fmt.from_bits(flipped)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                rel = np.abs(stored - faulty) / np.abs(stored)
            bound = 2.0 ** (i - spec.fraction_bits)
            usable = normal & np.isfinite(rel)
            checked += int(np.sum(usable))
            over = usable & (rel > bound * (1 + _CLOSED_FORM_RTOL))
            for idx in np.nonzero(over)[0][:4].tolist():
                collector.error(
                    f"{fmt.name} fraction bit {i} flip of {stored[idx]!r}: rel err "
                    f"{rel[idx]!r} exceeds Lowery's bound {bound!r}"
                )
    else:
        es = fmt.config.es
        if es == 0:
            result = collector.finish(0)
            result.skipped = True
            return result
        lattice = _closed_form_lattice(es)
        from repro.posit.fields import PositField

        typed = np.asarray(bits)
        for bit in range(fmt.nbits - 1):
            fields = np.asarray(fmt.classify_bits(typed, bit))
            in_exponent = (fields == int(PositField.EXPONENT)) & finite
            if not np.any(in_exponent):
                continue
            faulty = fmt.from_bits(typed ^ typed.dtype.type(1 << bit))
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                rel = np.abs(stored - faulty) / np.abs(stored)
            usable = in_exponent & np.isfinite(rel)
            checked += int(np.sum(usable))
            distance = np.min(
                np.abs(rel[usable, None] - lattice[None, :]), axis=1, initial=np.inf
            ) if np.any(usable) else np.empty(0)
            offenders = np.nonzero(usable)[0][distance > _CLOSED_FORM_RTOL * 4]
            for idx in offenders[:4].tolist():
                collector.error(
                    f"{fmt.name} exponent-field flip of bit {bit} in "
                    f"{stored[idx]!r}: rel err {rel[idx]!r} off the "
                    f"|1 - 2**(±2**i)| lattice"
                )
    return collector.finish(checked)


def check_metrics_metamorphic(ctx) -> CheckResult:
    """Permutation/sign invariance and scaling equivariance of metrics."""
    from repro.metrics import pointwise

    collector = FindingCollector("metrics-metamorphic", "metrics")
    rng = np.random.default_rng([ctx.seed, 31])
    cases = 16 if ctx.level == "smoke" else 64
    checked = 0
    for case in range(cases):
        size = int(rng.integers(8, 128))
        a = rng.normal(0, 10, size) * np.exp2(rng.integers(-8, 8, size))
        b = a.copy()
        for _ in range(int(rng.integers(1, 4))):
            b[rng.integers(0, size)] += rng.normal(0, 50)
        base = pointwise.compare_arrays(a, b).as_row()

        perm = rng.permutation(size)
        permuted = pointwise.compare_arrays(a[perm], b[perm]).as_row()
        _compare_rows(collector, "permutation", base, permuted, rtol=1e-12)

        negated = pointwise.compare_arrays(-a, -b).as_row()
        _compare_rows(collector, "sign-flip", base, negated, rtol=1e-12)

        scale = 2.0 ** int(rng.integers(-20, 20))
        scaled = pointwise.compare_arrays(scale * a, scale * b).as_row()
        expected = dict(base)
        for key in ("max_abs_err", "mean_abs_err", "rmse", "l2_err", "linf_err"):
            expected[key] *= scale
        expected["mse"] *= scale * scale
        _compare_rows(collector, f"scale-by-{scale!r}", expected, scaled, rtol=1e-9)
        checked += 3
    return collector.finish(checked)


def _compare_rows(collector, relation: str, expected: dict, got: dict, *, rtol: float) -> None:
    for key, want in expected.items():
        have = got[key]
        if np.isnan(want) and np.isnan(have):
            continue
        if want == have:
            continue
        if (
            np.isfinite(want)
            and np.isfinite(have)
            and abs(want - have) <= rtol * max(abs(want), abs(have))
        ):
            continue
        collector.error(
            f"compare_arrays not {relation}-invariant on {key!r}: "
            f"expected {want!r}, got {have!r}"
        )
