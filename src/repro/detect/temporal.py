"""Impact-driven SDC detection for iterative application state.

The paper's related work includes adaptive impact-driven detection (Di &
Cappello): in an iterative solver, each element's next value is highly
predictable from its recent history, so a value that jumps far outside
its predicted range betrays a soft error — no replication needed.

This module implements that idea in its standard form:

* predict each element by linear extrapolation from its last two states,
  ``pred = 2 x[t-1] - x[t-2]``;
* maintain an adaptive per-sweep scale — the maximum observed update
  magnitude, smoothed — and flag elements whose prediction residual
  exceeds ``theta`` times it.

The detector is deliberately application-agnostic: it sees only the
sequence of state arrays, exactly like a memory-side checker would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class LinearExtrapolationDetector:
    """Per-element linear-history SDC detector.

    Parameters
    ----------
    theta:
        Sensitivity: residuals above ``theta * scale`` are flagged.
        Larger is more tolerant (fewer false positives, later detection).
    smoothing:
        Exponential smoothing factor for the adaptive scale in (0, 1];
        1 means "use the current sweep's max update only".
    warmup:
        Observations before any flagging (history must fill first, and
        early iterates move fast).
    """

    theta: float = 8.0
    smoothing: float = 0.5
    warmup: int = 3

    _previous: np.ndarray | None = field(default=None, repr=False)
    _before_previous: np.ndarray | None = field(default=None, repr=False)
    _scale: float = field(default=0.0, repr=False)
    _seen: int = field(default=0, repr=False)

    def reset(self) -> None:
        """Forget all history."""
        self._previous = None
        self._before_previous = None
        self._scale = 0.0
        self._seen = 0

    def observe(self, state) -> np.ndarray:
        """Feed one state snapshot; returns the per-element flag mask."""
        current = np.asarray(state, dtype=np.float64).reshape(-1).copy()
        flags = np.zeros(current.shape, dtype=bool)

        if self._previous is not None and self._before_previous is not None:
            predicted = 2.0 * self._previous - self._before_previous
            residual = np.abs(current - predicted)
            # Non-finite values are always suspicious.
            non_finite = ~np.isfinite(current)
            if self._seen >= self.warmup and self._scale > 0:
                flags = (residual > self.theta * self._scale) | non_finite
            else:
                flags = non_finite
            update = np.abs(current - self._previous)
            finite_updates = update[np.isfinite(update)]
            sweep_scale = float(np.max(finite_updates)) if finite_updates.size else 0.0
            self._scale = (
                sweep_scale
                if self._scale == 0.0
                else (1 - self.smoothing) * self._scale + self.smoothing * sweep_scale
            )
        self._before_previous = self._previous
        self._previous = current
        self._seen += 1
        return flags


@dataclass(frozen=True)
class DetectionOutcome:
    """Result of evaluating a detector against one injected fault."""

    injected_iteration: int
    injected_index: int
    bit: int
    detected: bool
    detection_iteration: int | None
    detection_index_correct: bool
    false_positives_before: int


def evaluate_on_jacobi(
    problem,
    target,
    iteration: int,
    flat_index: int,
    bit: int,
    detector: LinearExtrapolationDetector | None = None,
    max_iterations: int = 600,
    tolerance: float = 1e-7,
) -> DetectionOutcome:
    """Run a faulty Jacobi solve with the detector watching the state.

    Bit ``bit`` of state element ``flat_index`` flips after sweep
    ``iteration``, through :func:`repro.apps.campaign.mask_injector`; the
    detector observes every post-sweep state (after the fault hook, like
    a memory scrubber would see it).
    """
    from repro.apps.campaign import mask_injector
    from repro.apps.stencil import jacobi_solve
    from repro.formats import resolve
    from repro.inject.faults import FaultMasks

    if isinstance(target, str):
        target = resolve(target)
    if detector is None:
        detector = LinearExtrapolationDetector()
    detector.reset()

    flipper = mask_injector(
        iteration, flat_index, FaultMasks(xor=1 << bit, set=0, clear=0), target
    )
    detection: dict = {"iteration": None, "index_correct": False, "false_before": 0}

    def hook(step: int, state: np.ndarray) -> np.ndarray:
        corrupted = flipper(step, state)
        flags = detector.observe(corrupted)
        if np.any(flags):
            if step < iteration:
                detection["false_before"] += int(np.sum(flags))
            elif detection["iteration"] is None:
                detection["iteration"] = step
                detection["index_correct"] = bool(flags[flat_index])
        return corrupted

    jacobi_solve(problem, target, max_iterations, tolerance, fault_hook=hook)
    return DetectionOutcome(
        injected_iteration=iteration,
        injected_index=flat_index,
        bit=bit,
        detected=detection["iteration"] is not None,
        detection_iteration=detection["iteration"],
        detection_index_correct=detection["index_correct"],
        false_positives_before=detection["false_before"],
    )


def detection_sweep(
    problem,
    target,
    iteration: int,
    bits,
    flat_index: int | None = None,
    theta: float = 8.0,
    max_iterations: int = 600,
    tolerance: float = 1e-7,
) -> list[DetectionOutcome]:
    """Evaluate detection across a set of bit positions (one fault each)."""
    if flat_index is None:
        flat_index = (problem.grid // 2) * problem.grid + problem.grid // 2
    return [
        evaluate_on_jacobi(
            problem, target, iteration, flat_index, int(bit),
            LinearExtrapolationDetector(theta=theta),
            max_iterations, tolerance,
        )
        for bit in bits
    ]
