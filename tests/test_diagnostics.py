"""Finite differences, batch enumeration, history-error metrics, counters."""
import csv

import numpy as np
import pytest

from conftest import path_graph, random_graph
from lmcgnn.convnet import full_gradients, init_conv_params
from lmcgnn.diagnostics import (ENUM_LIMIT, ErrorTrace, elementwise_fd_err,
                                enumerate_batches, finite_diff,
                                history_errors, random_conv_instance)
from lmcgnn.engine import ConvHistory, RecHistory
from lmcgnn.gradset import GradSet
from lmcgnn.graph import normalized_adjacency, partition_random
from lmcgnn.recnet import full_rec_gradients, init_rec_params
from lmcgnn.report import OpCounter, StepReport


def test_finite_diff_exact_on_quadratics():
    # central differences have no truncation error on quadratics
    w = np.array([[1.0, -2.0], [0.5, 3.0]])
    b = np.array([0.3, -0.7])
    blocks = {"w": w, "b": b}

    def loss_fn():
        return float(np.sum(w * w) + b @ np.array([2.0, 1.0]))

    fd = finite_diff(loss_fn, blocks)
    assert np.max(np.abs(fd["w"] - 2.0 * w)) <= 1e-9
    assert np.max(np.abs(fd["b"] - np.array([2.0, 1.0]))) <= 1e-9
    # the probe restores every entry
    assert np.array_equal(w, np.array([[1.0, -2.0], [0.5, 3.0]]))


def test_elementwise_fd_err():
    a = GradSet({"w": np.array([1.0, 2.0])})
    assert elementwise_fd_err(a, a) == 0.0
    b = GradSet({"w": np.array([1.1, 2.0])})
    assert elementwise_fd_err(b, a) == pytest.approx(0.1, rel=1e-9)


def test_enumerate_batches_weighting_identity():
    """grad_fn returning w_grad * (n/|core|) * core-indicator must average to
    the all-ones vector: the exact coefficient identity behind unbiasedness."""
    rng = np.random.default_rng(0)
    g = random_graph(rng, 12, 0.3)
    p = partition_random(g, 4, seed=0)

    def grad_fn(batch):
        ind = np.zeros(g.n)
        ind[batch.core] = 1.0
        return GradSet({"ind": ind * batch.w_grad * (g.n / batch.n_core)})

    mean, count = enumerate_batches(g, p, 2, grad_fn)
    assert count == 6
    assert np.max(np.abs(mean["ind"] - 1.0)) <= 1e-12


def test_enumerate_batches_guard():
    g = path_graph(60)
    p = partition_random(g, 40, seed=0)
    with pytest.raises(ValueError, match="enumeration guard"):
        enumerate_batches(g, p, 20, lambda b: GradSet({"x": np.zeros(1)}))
    assert ENUM_LIMIT == 100_000


def test_error_trace_csv_round_trip(tmp_path):
    trace = ErrorTrace()
    trace.append(step=0, loss=0.1, grad_rel_err=1e-17, d_h=float("nan"),
                 d_v=0.25, touched_rows=7, wall_ms=3.5)
    trace.append(step=1, loss=1.0 / 3.0, grad_rel_err=0.5, d_h=2.0,
                 d_v=1e-300, touched_rows=8, wall_ms=0.0)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == ErrorTrace.COLUMNS
        back = list(reader)
    assert len(back) == 2
    for col in ErrorTrace.COLUMNS:
        np.testing.assert_array_equal([float(r[col]) for r in back],
                                      trace.column(col))


def test_conv_history_errors_zero_at_exact_values():
    _, adj, X, labels, params = random_conv_instance(seed=0, n=12)
    _, _, cache, cg = full_gradients(adj, X, labels, params)
    hist = ConvHistory.init(X, params.dims)
    L = params.n_layers
    for l in range(1, L + 1):
        hist.embed[l][:] = cache.H[l]
        hist.aux[l][:] = cg.V[l]
    # against a fresh exact solve at the same parameters
    _, _, cache, cg = full_gradients(adj, X, labels, params)
    d_h, d_v = history_errors(hist.embed[1:], hist.aux[1:], cache.H[1:],
                              cg.V[1:])
    assert d_h == 0.0 and d_v == 0.0
    # a uniform relative perturbation is reported exactly
    for l in range(1, L + 1):
        hist.embed[l][:] = cache.H[l] * 1.01
    d_h, _ = history_errors(hist.embed[1:], hist.aux[1:], cache.H[1:],
                            cg.V[1:])
    assert d_h == pytest.approx(0.01, rel=1e-9)


def test_rec_history_errors_zero_at_exact_values():
    rng = np.random.default_rng(1)
    adj = normalized_adjacency(random_graph(rng, 10, 0.3))
    X = rng.standard_normal((10, 3))
    labels = rng.integers(0, 2, size=10).astype(np.int64)
    params = init_rec_params(rng, 3, 4, 2)
    _, _, state, aux = full_rec_gradients(adj, X, labels, params, 1e-12, 2000)
    hist = RecHistory.init(10, 4)
    hist.embed[:] = state.H
    hist.aux[:] = aux.V
    # against a fresh exact solve at the same parameters
    _, _, state, aux = full_rec_gradients(adj, X, labels, params, 1e-12, 2000)
    d_h, d_v = history_errors([hist.embed], [hist.aux], [state.H], [aux.V])
    assert d_h <= 1e-9 and d_v <= 1e-9


def test_random_instances_respect_conditioning_guards():
    from lmcgnn.diagnostics import GRAD_GUARD, KINK_MARGIN, _nonzero_grad_floor
    _, adj, X, labels, params = random_conv_instance(seed=3)
    _, _, cache, cg = full_gradients(adj, X, labels, params)
    zmin = min(float(np.min(np.abs(cache.agg[l] @ params.weights[l - 1])))
               for l in range(1, params.n_layers + 1))
    assert zmin >= KINK_MARGIN
    assert _nonzero_grad_floor(cg.grads) >= GRAD_GUARD


def test_op_counter_and_step_report():
    counter = OpCounter()
    counter.embed_rows_written += 5
    counter.aux_rows_written += 2
    assert counter.touched_rows == 5
    counter.reset()
    assert counter.embed_rows_written == 0
    rep = StepReport(step=3, loss=0.5, grad_norm=1.0, touched_rows=5,
                     wall_ms=2.0, grads=GradSet({"w": np.ones(2)}))
    assert rep.step == 3 and rep.loss == 0.5
