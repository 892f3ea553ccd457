"""Compensated subgraph steps for the layered model.

The main oracle is `_naive_step`: a from-scratch dense re-derivation of one
compensated step (forward refresh with blended halo temporaries, mirrored
backward refresh with the top halo pullback pinned to zero, reweighted
gradient contractions).  Histories are warmed with garbage so any stale-row
read or unintended write shows up as a mismatch.
"""
import numpy as np
import pytest

from conftest import clique_edges, dense_adj, path_graph, random_graph
from lmcgnn.convnet import full_gradients, gd_step, init_conv_params, loss_full, backward_full
from lmcgnn.engine import (ZERO_SCHEDULE, BlendSchedule, ConvHistory,
                           backward_sgd_grads, blend_weights, cluster_step,
                           gas_conv_step, induced_subgraph, lmc_conv_step)
from lmcgnn.graph import (Partition, batch_from_parts, build_graph,
                          normalized_adjacency, partition_random)
from lmcgnn.kernels import full_view, softmax_xent


def _setup(seed, n=18, L=3, d=3, k=2, parts=6):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, 0.2)
    adj = normalized_adjacency(g)
    X = np.asarray(rng.standard_normal((n, d)), dtype=np.float64)
    labels = rng.integers(0, k, size=n).astype(np.int64)
    labels[rng.permutation(n)[: n // 4]] = -1  # some unlabeled rows
    params = init_conv_params(rng, d, [d + 1] * L, k)
    part = partition_random(g, parts, seed=seed)
    return rng, g, adj, X, labels, params, part


def _garbage_history(rng, X, params):
    hist = ConvHistory.init(X, params.dims)
    for l in range(1, params.n_layers + 1):
        hist.embed[l][:] = rng.standard_normal(hist.embed[l].shape)
        hist.aux[l][:] = rng.standard_normal(hist.aux[l].shape)
    return hist


def _naive_step(D, g, X, labels, n_lab, batch, params, hist, schedule, lr,
                zero_backward=False):
    """Dense re-derivation of one compensated step.  Mutates params/hist the
    same way the engine step does and returns (loss, grads dict)."""
    core, halo = batch.core, batch.halo1
    nc, L = len(core), params.n_layers
    pool = np.concatenate([core, halo])
    beta = blend_weights(batch, g, schedule)
    Dp = D.copy()
    outside = np.setdiff1d(np.arange(g.n), pool)
    Dp[:, outside] = 0.0  # out-of-scope sources are dropped, not read

    rows = {int(u): X[u].copy() for u in pool}
    agg_core, mask_core, mask_halo = [None], [None], [None]
    for l in range(1, L + 1):
        agg = {int(t): sum(Dp[t, j] * rows[int(j)] for j in pool)
               for t in pool}
        a_core = np.stack([agg[int(t)] for t in core])
        z_core = a_core @ params.weights[l - 1]
        z_halo = (np.stack([agg[int(t)] for t in halo])
                  @ params.weights[l - 1] if len(halo) else
                  np.zeros((0, params.weights[l - 1].shape[1])))
        hist.embed[l][core] = np.maximum(z_core, 0.0)
        stale = hist.embed[l][halo]
        fresh = np.maximum(z_halo, 0.0)
        blended = ((1 - beta)[:, None] * stale + beta[:, None] * fresh
                   if len(halo) else fresh)
        rows = {int(u): hist.embed[l][u] for u in core}
        rows.update({int(u): blended[i] for i, u in enumerate(halo)})
        agg_core.append(a_core)
        mask_core.append(z_core > 0.0)
        mask_halo.append(z_halo > 0.0)

    h_top = hist.embed[L][core]
    logits = h_top @ params.w_out
    loss, dlog_mb = softmax_xent(logits, labels[core], weight=batch.w_loss)
    n_lc = len(batch.labeled_core)
    _, dlog_hist = softmax_xent(logits, labels[core], weight=n_lc / n_lab)

    v_core = dlog_hist @ params.w_out.T
    hist.aux[L][core] = v_core
    vhat = np.zeros((len(halo), params.weights[L - 1].shape[1]))
    masked = [None] * (L + 1)
    for l in range(L - 1, 0, -1):
        m = {int(t): mask_core[l + 1][i] * v_core[i]
             for i, t in enumerate(core)}
        m.update({int(t): (np.zeros_like(vhat[i]) if zero_backward
                           else mask_halo[l + 1][i] * vhat[i])
                  for i, t in enumerate(halo)})
        masked[l + 1] = np.stack([m[int(t)] for t in core])
        agg = {int(t): sum(Dp[t, j] * m[int(j)] for j in pool) for t in pool}
        v_core = np.stack([agg[int(t)] for t in core]) @ params.weights[l].T
        vtilde = (np.stack([agg[int(t)] for t in halo]) @ params.weights[l].T
                  if len(halo) else vhat)
        stale = hist.aux[l][halo]
        hist.aux[l][core] = v_core
        vhat = ((1 - beta)[:, None] * stale + beta[:, None] * vtilde
                if len(halo) else vtilde)
    masked[1] = mask_core[1] * v_core

    scale = batch.w_grad * (g.n / nc)
    grads = {f"W{l}": agg_core[l].T @ masked[l] * scale for l in range(1, L + 1)}
    grads["Wout"] = h_top.T @ dlog_mb
    for l in range(1, L + 1):
        params.weights[l - 1] -= lr * grads[f"W{l}"]
    params.w_out -= lr * grads["Wout"]
    return loss, grads


@pytest.mark.parametrize("seed,score", [(0, "2x-x2"), (1, "x2"), (2, "x"),
                                        (3, "one")])
def test_step_matches_naive_reference(seed, score):
    rng, g, adj, X, labels, params, part = _setup(seed)
    schedule = BlendSchedule(alpha=0.6, score=score)
    batch = batch_from_parts(g, part, [0, 2], labeled_mask=labels >= 0)
    n_lab = int((labels >= 0).sum())
    hist = _garbage_history(rng, X, params)

    hist_ref = ConvHistory([h.copy() if l else h for l, h in enumerate(hist.embed)],
                           [None] + [a.copy() for a in hist.aux[1:]],
                           hist.last_refresh.copy())
    params_ref = params.copy()
    loss_ref, grads_ref = _naive_step(dense_adj(adj), g, X, labels, n_lab,
                                      batch, params_ref, hist_ref, schedule,
                                      lr=0.1)

    rep = lmc_conv_step(adj, g, X, labels, n_lab, batch, params, hist,
                        schedule, lr=0.1, step=5)
    assert rep.loss == pytest.approx(loss_ref, rel=1e-12)
    for name, want in grads_ref.items():
        assert np.max(np.abs(rep.grads[name] - want)) <= 1e-12
    for got, want in zip(params.blocks().values(), params_ref.blocks().values()):
        assert np.max(np.abs(got - want)) <= 1e-12
    for l in range(1, params.n_layers + 1):
        assert np.max(np.abs(hist.embed[l] - hist_ref.embed[l])) <= 1e-12
        assert np.max(np.abs(hist.aux[l] - hist_ref.aux[l])) <= 1e-12
    assert np.all(hist.last_refresh[batch.core] == 5)


def test_zero_backward_matches_naive_reference():
    rng, g, adj, X, labels, params, part = _setup(4)
    batch = batch_from_parts(g, part, [1, 3], labeled_mask=labels >= 0)
    n_lab = int((labels >= 0).sum())
    hist = _garbage_history(rng, X, params)
    hist_ref = ConvHistory([h.copy() if l else h for l, h in enumerate(hist.embed)],
                           [None] + [a.copy() for a in hist.aux[1:]],
                           hist.last_refresh.copy())
    params_ref = params.copy()
    loss_ref, grads_ref = _naive_step(dense_adj(adj), g, X, labels, n_lab,
                                      batch, params_ref, hist_ref,
                                      ZERO_SCHEDULE, lr=0.05,
                                      zero_backward=True)
    rep = gas_conv_step(adj, g, X, labels, n_lab, batch, params, hist, lr=0.05)
    assert rep.loss == pytest.approx(loss_ref, rel=1e-12)
    for name, want in grads_ref.items():
        assert np.max(np.abs(rep.grads[name] - want)) <= 1e-12


def test_gas_is_the_restricted_step():
    # zero schedule + zero backward compensation, same pipeline
    rng, g, adj, X, labels, params, part = _setup(5)
    batch = batch_from_parts(g, part, [0, 4], labeled_mask=labels >= 0)
    n_lab = int((labels >= 0).sum())
    hist_a = _garbage_history(np.random.default_rng(99), X, params)
    hist_b = ConvHistory([h.copy() if l else h for l, h in enumerate(hist_a.embed)],
                         [None] + [a.copy() for a in hist_a.aux[1:]],
                         hist_a.last_refresh.copy())
    rep_a = gas_conv_step(adj, g, X, labels, n_lab, batch, params.copy(),
                          hist_a, lr=0.1)
    rep_b = lmc_conv_step(adj, g, X, labels, n_lab, batch, params.copy(),
                          hist_b, ZERO_SCHEDULE, lr=0.1, zero_backward=True)
    assert rep_a.loss == rep_b.loss
    for name, val in rep_a.grads:
        assert np.array_equal(val, rep_b.grads[name])
    for l in range(1, params.n_layers + 1):
        assert np.array_equal(hist_a.embed[l], hist_b.embed[l])
        assert np.array_equal(hist_a.aux[l], hist_b.aux[l])


def test_full_batch_collapses_to_gradient_descent():
    rng, g, adj, X, labels, params, part = _setup(6)
    batch = batch_from_parts(g, part, range(part.B), labeled_mask=labels >= 0)
    assert len(batch.halo1) == 0  # nothing outside the core
    n_lab = int((labels >= 0).sum())
    hist = ConvHistory.init(X, params.dims)
    params_gd = params.copy()
    rep = lmc_conv_step(adj, g, X, labels, n_lab, batch, params, hist,
                        BlendSchedule(), lr=0.1)
    rep_gd = gd_step(adj, X, labels, params_gd, lr=0.1)
    assert rep.loss == pytest.approx(rep_gd.loss, rel=1e-13)
    for name, val in rep_gd.grads:
        assert np.max(np.abs(rep.grads[name] - val)) <= 1e-13


def test_cluster_step_leaves_parent_view_alone():
    rng, g, adj, X, labels, params, part = _setup(9)
    view = full_view(adj)
    batch = batch_from_parts(g, part, (0,), labeled_mask=labels >= 0)
    assert batch.n_core < g.n
    cluster_step(g, X, labels, batch, params, lr=0.1)
    assert full_view(adj) is view and view.n_targets == g.n


def test_cluster_full_batch_equals_gradient_descent():
    rng, g, adj, X, labels, params, part = _setup(7)
    batch = batch_from_parts(g, part, range(part.B), labeled_mask=labels >= 0)
    params_gd = params.copy()
    rep = cluster_step(g, X, labels, batch, params, lr=0.1)
    rep_gd = gd_step(adj, X, labels, params_gd, lr=0.1)
    assert rep.loss == pytest.approx(rep_gd.loss, rel=1e-12)
    for name, val in rep_gd.grads:
        assert np.max(np.abs(rep.grads[name] - val)) <= 1e-12


def test_backward_sgd_full_batch_is_exact():
    rng, g, adj, X, labels, params, part = _setup(8)
    batch = batch_from_parts(g, part, range(part.B), labeled_mask=labels >= 0)
    _, dlog, cache = loss_full(adj, X, labels, params)
    cg = backward_full(adj, cache, dlog, params)
    loss, grads = backward_sgd_grads(batch, cache, cg, params, labels)
    _, _, _, cg_full = full_gradients(adj, X, labels, params)
    assert grads.rel_err(cg_full.grads) <= 1e-13


# ---------------------------------------------------------------------------
# blending


def test_blend_weights_path_example():
    # core {0} on a 3-path: halo node 1 sees 1 of its 2 neighbors
    g = path_graph(3)
    p = Partition(3, [np.array([i]) for i in range(3)], np.arange(3))
    batch = batch_from_parts(g, p, [0])
    assert batch.halo1.tolist() == [1]
    beta = blend_weights(batch, g, BlendSchedule(alpha=0.4, score="2x-x2"))
    assert beta.tolist() == [pytest.approx(0.75 * 0.4)]
    assert blend_weights(batch, g, BlendSchedule(0.4, "x2")).tolist() == \
        [pytest.approx(0.25 * 0.4)]
    assert blend_weights(batch, g, BlendSchedule(0.4, "x")).tolist() == \
        [pytest.approx(0.5 * 0.4)]
    assert blend_weights(batch, g, BlendSchedule(0.4, "one")).tolist() == \
        [pytest.approx(0.4)]
    assert blend_weights(batch, g, ZERO_SCHEDULE).tolist() == [0.0]


def test_blend_schedule_validation():
    with pytest.raises(ValueError, match="alpha"):
        BlendSchedule(alpha=1.5)
    with pytest.raises(ValueError, match="score"):
        BlendSchedule(score="linear")


# ---------------------------------------------------------------------------
# history safety


def test_step_never_touches_rows_outside_core():
    rng, g, adj, X, labels, params, part = _setup(9)
    batch = batch_from_parts(g, part, [0, 1], labeled_mask=labels >= 0)
    n_lab = int((labels >= 0).sum())
    hist = _garbage_history(rng, X, params)
    before_e = [None] + [h.copy() for h in hist.embed[1:]]
    before_a = [None] + [a.copy() for a in hist.aux[1:]]
    lmc_conv_step(adj, g, X, labels, n_lab, batch, params, hist,
                  BlendSchedule(alpha=0.9), lr=0.1)
    assert hist.embed[0] is X  # input features are pinned, never copied
    outside = np.setdiff1d(np.arange(g.n), batch.core)
    for l in range(1, params.n_layers + 1):
        assert np.array_equal(hist.embed[l][outside], before_e[l][outside])
        assert np.array_equal(hist.aux[l][outside], before_a[l][outside])
        assert not np.array_equal(hist.embed[l][batch.core],
                                  before_e[l][batch.core])


def test_step_requires_labeled_core():
    rng, g, adj, X, labels, params, part = _setup(10)
    none = np.full(g.n, -1, dtype=np.int64)
    batch = batch_from_parts(g, part, [0], labeled_mask=none >= 0)
    hist = ConvHistory.init(X, params.dims)
    with pytest.raises(ValueError, match="no labeled core"):
        lmc_conv_step(adj, g, X, none, 1, batch, params, hist,
                      BlendSchedule(), lr=0.1)


# ---------------------------------------------------------------------------
# induced subgraphs


def test_induced_subgraph_keeps_internal_edges_only():
    edges = clique_edges(4) + clique_edges(4, offset=4) + [(0, 4), (1, 5)]
    g = build_graph(8, edges)
    sub = induced_subgraph(g, np.arange(4))
    assert sub.n == 4
    assert sub.n_edges == 6  # the clique survives, the cut edges vanish
    assert sub.degrees.tolist() == [3, 3, 3, 3]
    mid = induced_subgraph(path_graph(6), np.array([2, 3, 4]))
    assert mid.n == 3 and mid.n_edges == 2
