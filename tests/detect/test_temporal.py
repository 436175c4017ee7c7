"""Tests for the impact-driven SDC detector."""

import numpy as np

from repro.apps.stencil import PoissonProblem
from repro.detect.temporal import (
    LinearExtrapolationDetector,
    detection_sweep,
    evaluate_on_jacobi,
)

PROBLEM = PoissonProblem(grid=10)
CENTER = (PROBLEM.grid // 2) * PROBLEM.grid + PROBLEM.grid // 2


class TestDetectorCore:
    def test_no_flags_on_smooth_sequence(self):
        detector = LinearExtrapolationDetector(theta=8.0)
        state = np.zeros(16)
        for step in range(20):
            state = state + 0.1 * (1.0 - state)  # smooth relaxation
            flags = detector.observe(state)
            assert not np.any(flags), step

    def test_flags_a_jump(self):
        detector = LinearExtrapolationDetector(theta=8.0)
        state = np.zeros(16)
        for _ in range(6):
            state = state + 0.1 * (1.0 - state)
            detector.observe(state)
        corrupted = state.copy()
        corrupted[5] += 100.0
        flags = detector.observe(corrupted)
        assert flags[5]
        assert np.sum(flags) == 1

    def test_flags_non_finite_always(self):
        detector = LinearExtrapolationDetector()
        state = np.zeros(4)
        detector.observe(state)
        detector.observe(state)
        bad = state.copy()
        bad[2] = np.nan
        assert detector.observe(bad)[2]

    def test_reset(self):
        detector = LinearExtrapolationDetector()
        detector.observe(np.zeros(4))
        detector.reset()
        assert not np.any(detector.observe(np.full(4, 100.0)))

    def test_warmup_suppresses_early_flags(self):
        detector = LinearExtrapolationDetector(theta=0.1, warmup=10)
        state = np.zeros(8)
        for step in range(5):
            state = state + np.sin(step)  # erratic early motion
            assert not np.any(detector.observe(state))


class TestOnJacobi:
    def test_large_flip_detected_at_injection(self):
        outcome = evaluate_on_jacobi(PROBLEM, "ieee32", 10, CENTER, 30)
        assert outcome.detected
        assert outcome.detection_iteration == outcome.injected_iteration
        assert outcome.detection_index_correct
        assert outcome.false_positives_before == 0

    def test_tiny_flip_not_flagged(self):
        outcome = evaluate_on_jacobi(PROBLEM, "ieee32", 10, CENTER, 0)
        assert not outcome.detected

    def test_posit_regime_flip_detected(self):
        outcome = evaluate_on_jacobi(PROBLEM, "posit32", 10, CENTER, 29)
        assert outcome.detected

    def test_sweep_recall_tracks_impact(self):
        outcomes = detection_sweep(
            PROBLEM, "ieee32", iteration=10, bits=range(32), theta=8.0
        )
        assert len(outcomes) == 32
        detected_bits = {o.bit for o in outcomes if o.detected}
        missed_bits = {o.bit for o in outcomes if not o.detected}
        # Impact-driven detection catches the high-impact bits and is
        # blind to the negligible ones — by design.
        assert 30 in detected_bits
        assert 0 in missed_bits
        # No false positives on the clean prefix of any run.
        assert all(o.false_positives_before == 0 for o in outcomes)

    def test_detection_tradeoff_posit_vs_ieee(self):
        # Posit flips cause less damage, so fewer of them cross an
        # impact threshold: detection recall is lower, but the *missed*
        # flips are precisely the low-impact ones.
        ieee = detection_sweep(PROBLEM, "ieee32", iteration=10, bits=range(20, 31))
        posit = detection_sweep(PROBLEM, "posit32", iteration=10, bits=range(20, 31))
        ieee_recall = np.mean([o.detected for o in ieee])
        posit_recall = np.mean([o.detected for o in posit])
        assert ieee_recall >= posit_recall
