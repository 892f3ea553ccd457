"""Convex blending of stale history rows with incomplete fresh updates.

Each halo node i gets a coefficient beta_i = score(x_i) * alpha where
x_i = deg_local(i) / deg_global(i) and deg_local counts i's neighbors inside
core + halo1.  x measures how much of the node's neighborhood the incomplete
update actually saw; score maps it to a trust weight in [0, 1].  Both
degrees are read off the conv step's batch view: a halo row lists its
self-loop and its in-pool neighbors and prunes the rest, so
deg_local = listed - 1 and deg_global = listed + pruned - 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels import LocalAdjView

Array = np.ndarray

SCORE_KINDS = ("x2", "2x-x2", "x", "one")


def _score(kind: str, x: Array) -> Array:
    if kind == "x2":
        return x * x
    if kind == "2x-x2":
        return 2.0 * x - x * x
    if kind == "x":
        return x
    if kind == "one":
        return np.ones_like(x)
    raise ValueError(f"unknown score kind {kind!r}; choose from {SCORE_KINDS}")


@dataclass(frozen=True)
class BlendSchedule:
    """alpha in [0, 1] times a score of the local-degree ratio."""

    alpha: float = 0.4
    score: str = "2x-x2"

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if self.score not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {self.score!r}")


ZERO_SCHEDULE = BlendSchedule(alpha=0.0, score="one")


def blend_weights(view: LocalAdjView, n_core: int,
                  schedule: BlendSchedule) -> Array:
    """Per-halo1-node beta vector, in halo1 order, for a view whose targets
    are core then halo1 and whose listed pool is core + halo1."""
    listed = np.diff(view.src_indptr[n_core:])
    if schedule.alpha == 0.0 or len(listed) == 0:
        return np.zeros(len(listed))
    pruned = np.diff(view.prn_indptr[n_core:])
    x = (listed - 1) / (listed + pruned - 1)
    beta = _score(schedule.score, x) * schedule.alpha
    return np.clip(beta, 0.0, 1.0)


def blend_rows(stale: Array, fresh: Array, beta: Array) -> Array:
    """(1-beta) * stale + beta * fresh, row-wise, with the endpoints returned
    bit-exactly (beta 0 -> stale row bits, beta 1 -> fresh row bits)."""
    out = (1.0 - beta)[:, None] * stale + beta[:, None] * fresh
    at0 = beta == 0.0
    if at0.any():
        out[at0] = stale[at0]
    at1 = beta == 1.0
    if at1.any():
        out[at1] = fresh[at1]
    return out
