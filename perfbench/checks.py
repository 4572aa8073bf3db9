"""Output checks.  Each returns ``None`` when the output is correct, or a
one-line reason; a reason marks its op failed."""

from __future__ import annotations

import math

import numpy as np

from repro.core import evaluate_solution
from repro.core.pkb import fill_for_target_density
from repro.layout.diff import diff_layouts, dilate_mask


def feasible(problem, fill: np.ndarray) -> str | None:
    if fill.shape != problem.lower.shape:
        return f"fill shape {fill.shape} != layout shape {problem.lower.shape}"
    if not np.all(np.isfinite(fill)):
        return "fill has non-finite entries"
    if np.any(fill < problem.lower) or np.any(fill > problem.upper):
        return "fill leaves the feasible box"
    return None


def rescore(problem, fill: np.ndarray, simulator) -> tuple[float | None, str | None]:
    """Simulator-verified quality of ``fill``; fails on an infeasible
    fill or a score outside (0, 1]."""
    reason = feasible(problem, fill)
    if reason:
        return None, reason
    quality = evaluate_solution(problem, fill, "check", simulator).quality
    if not (math.isfinite(quality) and 0.0 < quality <= 1.0):
        return None, f"simulator quality {quality!r} outside (0, 1]"
    return quality, None


def pkb_guard(problem, result, simulator, quality: float) -> str | None:
    """NeurFill (PKB) keeps the SQP result only if the simulator says it
    beats the PKB start; re-derive the start and hold it to that."""
    targets = np.asarray(result.extras["pkb_targets"], dtype=float)
    start = fill_for_target_density(problem.layout, targets)
    start_quality = evaluate_solution(problem, start, "check", simulator).quality
    if quality < start_quality:
        return (f"simulator quality {quality!r} below the PKB start's "
                f"{start_quality!r}")
    return None


def eco_outside_halo(parent_layout, edited_layout, parent_fill: np.ndarray,
                     eco_fill: np.ndarray, halo: int, min_frozen: int = 0) -> str | None:
    """Recompute the free set from the two layouts and require the ECO
    fill to equal the parent fill bit for bit everywhere else; fail if
    fewer than ``min_frozen`` windows are left to compare."""
    if eco_fill.shape != parent_fill.shape:
        return "eco fill shape differs from the parent's"
    free = dilate_mask(diff_layouts(parent_layout, edited_layout).dirty, halo)
    if int(np.sum(~free)) < min_frozen:
        return f"only {int(np.sum(~free))} windows frozen outside a halo of {halo}"
    frozen = ~np.broadcast_to(free, eco_fill.shape)
    if not np.array_equal(eco_fill[frozen], parent_fill[frozen]):
        moved = int(np.sum(eco_fill[frozen] != parent_fill[frozen]))
        return f"{moved} frozen windows moved outside the halo"
    return None


def bitwise_equal(name: str, served: np.ndarray, reference: np.ndarray) -> str | None:
    if served.shape != reference.shape:
        return f"{name}: shape {served.shape} != one-shot {reference.shape}"
    if not np.array_equal(served, reference):
        diff = float(np.max(np.abs(served - reference)))
        return f"{name}: differs from the one-shot run (max |d| = {diff:.3g})"
    return None
