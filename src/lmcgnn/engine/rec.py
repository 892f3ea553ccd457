"""Subgraph-wise training steps for the fixed-point model.

One step on a batch runs, in order:

(a) a single application of the equilibrium map to the core history rows
    (their pre-activations are cached alongside, halo rows untouched),
(b) a Picard solve of the core-local equilibrium whose halo neighbors enter
    through a frozen compensation term read from the embedding history,
(c) a single application of the adjoint map to the core pullback history
    rows, using the cached pre-activation masks,
(d) a Picard solve of the core-local adjoint equation with a gradient
    compensation term assembled once from halo history pullbacks, halo
    history embeddings, and the solved core embeddings (this reaches the
    2-hop halo through the halo nodes' own neighborhoods), then
(e) reweighted gradients from the solved pair and an SGD update with
    re-projection of the recurrence weight.

The historical-only restriction (`gas_rec_step`) replaces the backward
compensation with zero; the forward side is unchanged.
`rec_backward_sgd_step` trains with the unbiased estimator on exact
full-graph equilibria instead.
"""
from __future__ import annotations

import numpy as np

from ..graph import Graph, MiniBatch, NormalizedAdjacency
from ..kernels import (aggregate, aggregate_listed, aggregate_pruned,
                       build_local_view, masked_rows, matmul, relu,
                       softmax_xent)
from ..recnet import (DEFAULT_MAX_ITER, DEFAULT_TOL, RecAux, RecParams,
                      RecState, contract_rec_grads, count_full_solve, picard,
                      picard_forward, solve_backward, solve_forward)
from ..report import OpCounter, StepReport, training_step
from .history import RecHistory

Array = np.ndarray


@training_step
def lmc_rec_step(adj: NormalizedAdjacency, g: Graph, X: Array, labels: Array,
                 n_labeled_total: int, batch: MiniBatch, params: RecParams,
                 hist: RecHistory, lr: float, step: int = 0,
                 tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                 *, zero_backward: bool = False,
                 counter: OpCounter | None = None):
    core, halo1, halo2 = batch.core, batch.halo1, batch.halo2
    nc, nh1 = len(core), len(halo1)
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    lab_core = labels[core]
    n_lc = len(batch.labeled_core)
    if n_lc == 0:
        raise ValueError("batch has no labeled core nodes")

    inside = np.concatenate([core, halo1])
    refresh_view = build_local_view(adj, core, inside)
    core_view = build_local_view(adj, core, core, fallback_ids=halo1)
    bias_core = matmul(X[core], params.P) + params.c

    # (a) one-pass core refresh from the pre-step snapshot
    src = hist.embed[inside]
    z_ref = matmul(aggregate(refresh_view, src), params.W) + bias_core
    hist.preact[core] = z_ref
    hist.embed[core] = relu(z_ref)
    counter.count_view(refresh_view)
    counter.rows_read += len(inside)
    counter.embed_rows_written += nc

    # (b) core-local equilibrium with frozen halo compensation
    c_fwd = aggregate_pruned(core_view, hist.embed[halo1])
    counter.rows_read += nh1
    eff_bias = matmul(c_fwd, params.W) + bias_core
    h_hat, z_hat, agg_listed_h, fwd_res, fwd_iters, _ = picard_forward(
        lambda cur: aggregate_listed(core_view, cur), params.W, eff_bias,
        hist.embed[core], tol, max_iter, True, "batch forward solve")
    counter.agg_targets += fwd_iters * core_view.n_targets
    counter.agg_entries += fwd_iters * core_view.n_listed
    mask_hat = z_hat > 0.0

    # (c) one-pass adjoint refresh using cached pre-activation masks
    m_src = masked_rows(hist.preact[inside] > 0.0, hist.aux[inside])
    counter.rows_read += len(inside)
    _, dlog_ref = softmax_xent(matmul(hist.embed[core], params.w_out),
                               lab_core, weight=n_lc / n_labeled_total)
    hist.aux[core] = (matmul(aggregate(refresh_view, m_src), params.W.T)
                      + matmul(dlog_ref, params.w_out.T))
    counter.count_view(refresh_view)
    counter.aux_rows_written += nc

    # (d) core-local adjoint solve; compensation assembled once and reused
    if zero_backward:
        c_bwd = np.zeros((nc, params.dim))
    else:
        union_h12 = np.concatenate([halo1, halo2])
        halo_view = build_local_view(adj, halo1, core, fallback_ids=union_h12)
        z_halo = (matmul(aggregate(halo_view, h_hat, hist.embed[union_h12]),
                         params.W)
                  + matmul(X[halo1], params.P) + params.c)
        m_halo = masked_rows(z_halo > 0.0, hist.aux[halo1])
        c_bwd = matmul(aggregate_pruned(core_view, m_halo), params.W.T)
        counter.count_view(halo_view)
        counter.rows_read += len(union_h12) + nh1
        counter.agg_entries += core_view.n_pruned
    logits_hat = matmul(h_hat, params.w_out)
    loss, dlog_mb = softmax_xent(logits_hat, lab_core, weight=batch.w_loss)
    _, dlog_hat = softmax_xent(logits_hat, lab_core,
                               weight=n_lc / n_labeled_total)
    const = c_bwd + matmul(dlog_hat, params.w_out.T)
    v_hat, bwd_res, bwd_iters, _ = picard(
        lambda v: matmul(aggregate_listed(core_view, masked_rows(mask_hat, v)),
                         params.W.T) + const,
        hist.aux[core], tol, max_iter, True, "batch adjoint solve")
    counter.agg_targets += bwd_iters * core_view.n_targets
    counter.agg_entries += bwd_iters * core_view.n_listed

    # (e) reweighted gradients at the solved pair
    grads = contract_rec_grads(agg_listed_h + c_fwd, X[core],
                               masked_rows(mask_hat, v_hat), h_hat, dlog_mb,
                               batch.w_grad * (adj.n / nc))
    hist.last_refresh[core] = step
    return loss, grads, fwd_iters, bwd_iters


def gas_rec_step(adj: NormalizedAdjacency, g: Graph, X: Array, labels: Array,
                 n_labeled_total: int, batch: MiniBatch, params: RecParams,
                 hist: RecHistory, lr: float, step: int = 0,
                 tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                 counter: OpCounter | None = None) -> StepReport:
    """Historical-embedding restriction: zero backward compensation."""
    return lmc_rec_step(adj, g, X, labels, n_labeled_total, batch, params,
                        hist, lr, step, tol, max_iter,
                        zero_backward=True, counter=counter)


def rec_backward_sgd_grads(batch: MiniBatch, X: Array, state: RecState,
                           aux: RecAux, params: RecParams, labels: Array):
    """Unbiased estimator from exact full-graph equilibria on core rows.

    Same reweighting as the convolutional variant: w_loss on the labeled
    core mean, w_grad * (n/|core|) on the per-node gradient terms.
    Returns (batch loss, GradSet).
    """
    core = batch.core
    n = state.H.shape[0]
    labels = np.asarray(labels, dtype=np.int64)
    loss, dlog_mb = softmax_xent(matmul(state.H[core], params.w_out),
                                 labels[core], weight=batch.w_loss)
    return loss, contract_rec_grads(
        state.agg[core], np.asarray(X, dtype=np.float64)[core],
        masked_rows(state.mask[core], aux.V[core]), state.H[core], dlog_mb,
        batch.w_grad * (n / batch.n_core))


@training_step
def rec_backward_sgd_step(adj: NormalizedAdjacency, X: Array, labels: Array,
                          batch: MiniBatch, params: RecParams, lr: float,
                          step: int = 0, tol: float = DEFAULT_TOL,
                          max_iter: int = DEFAULT_MAX_ITER,
                          counter: OpCounter | None = None):
    """One step of the unbiased estimator: exact full-graph solves, with the
    gradient read on the batch's core rows."""
    state = solve_forward(adj, X, params, tol, max_iter)
    _, dlog = softmax_xent(matmul(state.H, params.w_out), labels, 1.0)
    aux = solve_backward(adj, state, matmul(dlog, params.w_out.T), params,
                         tol, max_iter)
    loss, grads = rec_backward_sgd_grads(batch, X, state, aux, params, labels)
    count_full_solve(counter, adj.n)
    return loss, grads, state.iters, aux.iters
