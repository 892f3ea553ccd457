"""Per-step training reports, the locality counters they carry, and the
wrapper that gives every training step the same bookkeeping."""
from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass


@dataclass
class OpCounter:
    """Monotone per-step work counters, reset at every step boundary.

    All fields count quantities local to the batch (rows actually read or
    written, aggregate targets and source entries), never anything sized by
    the full graph, which is what the locality checks assert.
    """

    embed_rows_written: int = 0
    aux_rows_written: int = 0
    rows_read: int = 0
    agg_targets: int = 0
    agg_entries: int = 0

    def reset(self) -> None:
        self.embed_rows_written = 0
        self.aux_rows_written = 0
        self.rows_read = 0
        self.agg_targets = 0
        self.agg_entries = 0

    def count_view(self, view) -> None:
        self.agg_targets += view.n_targets
        self.agg_entries += view.n_listed + view.n_pruned

    @property
    def touched_rows(self) -> int:
        """Embedding-history rows written this step (n*L on a full-batch
        layered step, |core| on a recurrent step)."""
        return self.embed_rows_written


@dataclass
class StepReport:
    """Flat record of one optimization step."""

    step: int
    loss: float
    grad_norm: float
    touched_rows: int
    wall_ms: float
    fwd_iters: int | None = None
    bwd_iters: int | None = None
    grads: object | None = None  # estimator GradSet, never serialized


def training_step(body):
    """Decorate a step body with what every training step shares.

    The body takes `params`, `lr`, the step index `step` and an OpCounter
    `counter`, and returns its gradient estimate as (loss, grads) or
    (loss, grads, fwd_iters, bwd_iters).  The wrapper keeps the body's
    signature, resets the counter (a fresh one when the caller passes none),
    applies the SGD update, times both and builds the StepReport, so after
    the call the counter holds exactly this step's counts.
    """
    signature = inspect.signature(body)

    @functools.wraps(body)
    def step_fn(*args, **kwargs):
        t0 = time.perf_counter()
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        counter = call.arguments["counter"]
        if counter is None:
            counter = call.arguments["counter"] = OpCounter()
        counter.reset()
        loss, grads, *iters = body(*call.args, **call.kwargs)
        call.arguments["params"].apply_grads(grads, call.arguments["lr"])
        fwd_iters, bwd_iters = iters or (None, None)
        return StepReport(step=call.arguments["step"], loss=loss,
                          grad_norm=grads.norm(),
                          touched_rows=counter.touched_rows,
                          wall_ms=(time.perf_counter() - t0) * 1e3,
                          fwd_iters=fwd_iters, bwd_iters=bwd_iters,
                          grads=grads)

    return step_fn
