"""Subgraph-wise training steps for the layered model.

Three estimators share one pipeline:

* the compensated step (`lmc_conv_step`): core rows are recomputed layer by
  layer; halo rows enter the aggregation as a convex blend of their stale
  history with an incomplete fresh update whose out-of-scope (2-hop-only)
  neighbors are dropped.  The backward pass mirrors this exactly on the
  pullback histories, so discarded boundary gradients are compensated.
* the historical-only step (`gas_conv_step`): blend weights identically zero
  and the halo rows entering the backward aggregation replaced by zeros.
  Same pipeline, two flags.
* the induced-subgraph step (`cluster_step`): drops every edge leaving the
  core and renormalizes with local degrees; no history at all.

`backward_sgd_grads` is the unbiased estimator that reads exact full-batch
quantities on batch rows (`backward_sgd_step` trains with it); the
compensated step is its practical sibling with histories standing in for
the exact values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..convnet import (ConvGrads, ConvParams, ForwardCache, backward_full,
                       contract_conv_grads, count_full_pass, forward_full,
                       full_gradients)
from ..graph import (Graph, MiniBatch, NormalizedAdjacency, _csr_gather,
                     _lookup, _row_pointer, normalized_adjacency)
from ..kernels import (LocalAdjView, aggregate, build_local_view, masked_rows,
                       matmul, relu, relu_mask, softmax_xent)
from ..report import OpCounter, StepReport, training_step
from .blend import ZERO_SCHEDULE, BlendSchedule, blend_rows, blend_weights
from .history import ConvHistory

Array = np.ndarray


@dataclass
class ConvBatchContext:
    """Per-batch structures shared by forward and backward."""

    batch: MiniBatch
    view: LocalAdjView          # targets = sources = core then halo1
    beta: Array                 # blend weights in halo1 order


def build_conv_context(adj: NormalizedAdjacency, batch: MiniBatch,
                       schedule: BlendSchedule) -> ConvBatchContext:
    inside = np.concatenate([batch.core, batch.halo1])
    view = build_local_view(adj, inside, inside)
    return ConvBatchContext(batch, view,
                            blend_weights(view, batch.n_core, schedule))


@dataclass
class ConvStepCache:
    agg_core: list    # (A H)_core rows per layer, index 0 unused
    mask_core: list   # relu masks of the refreshed core rows
    mask_halo: list   # relu masks of the incomplete halo updates


def lmc_conv_forward(ctx: ConvBatchContext, X: Array, params: ConvParams,
                     hist: ConvHistory, counter: OpCounter) -> ConvStepCache:
    """Forward sweep: refresh core history rows layer by layer; form blended
    halo temporaries (never written back)."""
    batch, view, beta = ctx.batch, ctx.view, ctx.beta
    nc, nh = batch.n_core, len(batch.halo1)
    L = params.n_layers
    core_rows = np.asarray(X, dtype=np.float64)[batch.core]
    halo_rows = np.asarray(X, dtype=np.float64)[batch.halo1]
    counter.rows_read += nc + nh
    agg_core = [None]
    mask_core = [None]
    mask_halo = [None]
    for l in range(1, L + 1):
        agg = aggregate(view, np.concatenate([core_rows, halo_rows]),
                        drop_pruned=True)
        counter.count_view(view)
        w = params.weights[l - 1]
        z_core = matmul(agg[:nc], w)
        core_rows = relu(z_core)
        hist.embed[l][batch.core] = core_rows
        counter.embed_rows_written += nc
        z_halo = matmul(agg[nc:], w)
        stale = hist.embed[l][batch.halo1]
        counter.rows_read += nh
        halo_rows = blend_rows(stale, relu(z_halo), beta)
        agg_core.append(agg[:nc])
        mask_core.append(relu_mask(z_core))
        mask_halo.append(relu_mask(z_halo))
    return ConvStepCache(agg_core, mask_core, mask_halo)


def lmc_conv_backward(ctx: ConvBatchContext, params: ConvParams,
                      hist: ConvHistory, cache: ConvStepCache,
                      dlogits_hist: Array, counter: OpCounter, *,
                      zero_comp: bool = False) -> list:
    """Backward sweep mirroring the forward: refresh core pullback history
    rows, blend halo pullback temporaries (with the same out-of-scope
    pruning), and return the masked core pullbacks per layer for the
    gradient contractions.

    zero_comp replaces every halo contribution to the core updates by zero,
    which is the historical-only restriction.  The top-layer halo pullback
    starts at zero: halo nodes contribute no loss terms of their own.
    """
    batch, view, beta = ctx.batch, ctx.view, ctx.beta
    nc, nh = batch.n_core, len(batch.halo1)
    L = params.n_layers
    v_core = matmul(dlogits_hist, params.w_out.T)
    hist.aux[L][batch.core] = v_core
    counter.aux_rows_written += nc
    vhat = np.zeros((nh, params.weights[L - 1].shape[1]))
    masked = [None] * (L + 1)
    for l in range(L - 1, 0, -1):
        m_core = masked_rows(cache.mask_core[l + 1], v_core)
        masked[l + 1] = m_core
        if zero_comp:
            m_halo = np.zeros_like(vhat)
        else:
            m_halo = masked_rows(cache.mask_halo[l + 1], vhat)
        agg = aggregate(view, np.concatenate([m_core, m_halo]),
                        drop_pruned=True)
        counter.count_view(view)
        w_next = params.weights[l]  # W^{l+1}
        v_core = matmul(agg[:nc], w_next.T)
        hist.aux[l][batch.core] = v_core
        counter.aux_rows_written += nc
        vtilde = matmul(agg[nc:], w_next.T)
        stale = hist.aux[l][batch.halo1]
        counter.rows_read += nh
        vhat = blend_rows(stale, vtilde, beta)
    masked[1] = masked_rows(cache.mask_core[1], v_core)
    return masked


def _batch_labels(labels: Array, batch: MiniBatch) -> Array:
    return np.asarray(labels, dtype=np.int64)[batch.core]


@training_step
def lmc_conv_step(adj: NormalizedAdjacency, g: Graph, X: Array, labels: Array,
                  n_labeled_total: int, batch: MiniBatch, params: ConvParams,
                  hist: ConvHistory, schedule: BlendSchedule, lr: float,
                  step: int = 0, *, zero_backward: bool = False,
                  counter: OpCounter | None = None):
    """One compensated training step: forward refresh, batch loss, backward
    refresh, reweighted gradients, SGD update."""
    ctx = build_conv_context(adj, batch, schedule)
    cache = lmc_conv_forward(ctx, X, params, hist, counter)
    L = params.n_layers
    nc = batch.n_core
    h_top = hist.embed[L][batch.core]
    logits = matmul(h_top, params.w_out)
    lab_core = _batch_labels(labels, batch)
    n_lc = len(batch.labeled_core)
    if n_lc == 0:
        raise ValueError("batch has no labeled core nodes")
    loss, dlog_mb = softmax_xent(logits, lab_core, weight=batch.w_loss)
    _, dlog_hist = softmax_xent(logits, lab_core, weight=n_lc / n_labeled_total)
    masked = lmc_conv_backward(ctx, params, hist, cache, dlog_hist, counter,
                               zero_comp=zero_backward)
    grads = contract_conv_grads(cache.agg_core, masked, h_top, dlog_mb,
                                batch.w_grad * (adj.n / nc))
    hist.last_refresh[batch.core] = step
    return loss, grads


def gas_conv_step(adj: NormalizedAdjacency, g: Graph, X: Array, labels: Array,
                  n_labeled_total: int, batch: MiniBatch, params: ConvParams,
                  hist: ConvHistory, lr: float, step: int = 0,
                  counter: OpCounter | None = None) -> StepReport:
    """Historical-embedding step: the compensated pipeline restricted to
    zero blend weights and zero backward compensation."""
    return lmc_conv_step(adj, g, X, labels, n_labeled_total, batch, params,
                         hist, ZERO_SCHEDULE, lr, step,
                         zero_backward=True, counter=counter)


def induced_subgraph(g: Graph, core: Array):
    """Core-induced subgraph with nodes relabeled 0..|core|-1 (core sorted).

    The kept CSR entries of the core rows already form the subgraph's CSR:
    rows in core order, relabeled neighbors ascending inside each row."""
    pos, seg, _ = _csr_gather(g.indptr, core)
    local, keep = _lookup(core, g.indices[pos])
    return Graph(len(core), _row_pointer(seg[keep], len(core)), local[keep])


@training_step
def cluster_step(g: Graph, X: Array, labels: Array, batch: MiniBatch,
                 params: ConvParams, lr: float, step: int = 0,
                 counter: OpCounter | None = None):
    """Induced-subgraph step: local-degree renormalization, no history, no
    halo.  Cut edges simply vanish for the duration of the step."""
    core = batch.core
    sadj = normalized_adjacency(induced_subgraph(g, core))
    cache = forward_full(sadj, np.asarray(X, dtype=np.float64)[core], params)
    loss, dlog = softmax_xent(cache.logits, _batch_labels(labels, batch),
                              weight=batch.w_loss)
    cg = backward_full(sadj, cache, dlog, params)
    counter.rows_read += batch.n_core
    count_full_pass(counter, sadj, params.n_layers)
    return loss, cg.grads


def backward_sgd_grads(batch: MiniBatch, cache: ForwardCache, cg: ConvGrads,
                       params: ConvParams, labels: Array):
    """Unbiased estimator from exact full-batch quantities on batch rows.

    Loss gradient: w_loss times the mean over labeled core nodes.  Layer
    gradients: w_grad * (n/|core|) times the core-row contraction, so the
    expectation over uniformly sampled batches is the full gradient.
    Returns (batch loss, GradSet).
    """
    core = batch.core
    n = cache.H[0].shape[0]
    L = params.n_layers
    loss, dlog_mb = softmax_xent(cache.logits[core], _batch_labels(labels, batch),
                                 weight=batch.w_loss)
    agg = [None] + [cache.agg[l][core] for l in range(1, L + 1)]
    masked = [None] + [masked_rows(cache.mask[l][core], cg.V[l][core])
                       for l in range(1, L + 1)]
    return loss, contract_conv_grads(agg, masked, cache.H[L][core], dlog_mb,
                                     batch.w_grad * (n / batch.n_core))


@training_step
def backward_sgd_step(adj: NormalizedAdjacency, X: Array, labels: Array,
                      batch: MiniBatch, params: ConvParams, lr: float,
                      step: int = 0, counter: OpCounter | None = None):
    """One step of the unbiased estimator: an exact full-graph forward and
    backward pass, with the gradient read on the batch's core rows."""
    _, _, cache, cg = full_gradients(adj, X, labels, params)
    counter.rows_read += adj.n * (params.n_layers + 1)
    count_full_pass(counter, adj, params.n_layers)
    return backward_sgd_grads(batch, cache, cg, params, labels)
