"""Differential & metamorphic conformance oracle for the number stack.

The paper's claims rest on bit-exact float↔posit conversion and
QCAT-style error metrics; this package is the continuous gate that keeps
them honest.  Three layers of checking (see :mod:`repro.conformance.oracle`):

* **differential** — every registered codec against an independent
  reference (struct-based IEEE, exact-``Fraction`` posits, table
  gathers vs the raw codec);
* **metamorphic** — algebraic invariants no conforming codec may break
  (idempotence, RNE ties, monotonicity, negation symmetry, Lowery's
  closed-form flip errors) plus metric invariances;
* **golden** — regression locks: codec lattices and small seeded
  campaign statistics under ``tests/golden/``, refreshed via
  ``repro conformance bless``.

CLI: ``repro conformance run [--format SPEC] [--level smoke|full]`` and
``repro conformance bless``.  Exit codes mirror ``campaign verify``.
"""

from repro.conformance.golden import (
    CAMPAIGN_FIXTURES,
    CODEC_FIXTURE_FORMATS,
    GOLDEN_DIR_ENV_VAR,
    bless,
    build_codec_fixture,
    build_campaign_fixture,
    campaign_fixture_path,
    codec_fixture_path,
    compute_campaign_stats,
    default_golden_dir,
    load_fixture,
    write_fixture,
)
from repro.conformance.oracle import (
    DEFAULT_CHECK_FORMATS,
    OracleContext,
    run_conformance,
)
from repro.conformance.references import ORACLE_SEED, reference_for
from repro.conformance.report import (
    BUDGETS,
    LEVELS,
    CheckResult,
    ConformanceReport,
    SampleBudget,
)

__all__ = [
    "BUDGETS",
    "CAMPAIGN_FIXTURES",
    "CODEC_FIXTURE_FORMATS",
    "CheckResult",
    "ConformanceReport",
    "DEFAULT_CHECK_FORMATS",
    "GOLDEN_DIR_ENV_VAR",
    "LEVELS",
    "ORACLE_SEED",
    "OracleContext",
    "SampleBudget",
    "bless",
    "build_campaign_fixture",
    "build_codec_fixture",
    "campaign_fixture_path",
    "codec_fixture_path",
    "compute_campaign_stats",
    "default_golden_dir",
    "load_fixture",
    "reference_for",
    "run_conformance",
    "write_fixture",
]
