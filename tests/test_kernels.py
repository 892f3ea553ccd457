"""Dense kernels, loss, and sparse aggregation tests."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_adj, path_graph, random_graph
from lmcgnn.graph import build_graph, normalized_adjacency
from lmcgnn.kernels import (aggregate, aggregate_listed, aggregate_pruned,
                            build_local_view, fro_norm, full_view,
                            inf_norm_rows, masked_rows, matmul, rel_err, relu,
                            relu_backward, relu_mask, softmax_xent)

# ---------------------------------------------------------------------------
# dense primitives


def test_matmul_matches_loops():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal((3, 4))
    want = np.zeros((5, 4))
    for i in range(5):
        for j in range(4):
            for k in range(3):
                want[i, j] += a[i, k] * b[k, j]
    assert np.max(np.abs(matmul(a, b) - want)) <= 1e-14


def test_matmul_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        matmul(np.zeros((2, 3)), np.zeros((2, 3)))


def test_relu_family_zero_subgradient():
    z = np.array([[-1.0, 0.0, 2.0]])
    assert relu(z).tolist() == [[0.0, 0.0, 2.0]]
    # the kink uses the zero branch: mask is strict positivity
    assert relu_mask(z).tolist() == [[False, False, True]]
    up = np.array([[5.0, 5.0, 5.0]])
    assert relu_backward(z, up).tolist() == [[0.0, 0.0, 5.0]]
    assert masked_rows(relu_mask(z), up).tolist() == [[0.0, 0.0, 5.0]]


def test_norms_and_rel_err():
    a = np.array([[3.0, 4.0]])
    assert fro_norm(a) == 5.0
    assert inf_norm_rows(np.array([[1.0, -2.0], [0.5, 0.5]])) == 3.0
    assert rel_err(np.zeros(2), np.zeros(2)) == 0.0
    assert rel_err(np.ones(2), np.zeros(2)) == float("inf")
    assert rel_err(np.array([1.1]), np.array([1.0])) == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# softmax cross entropy


def test_xent_uniform_logits_is_log_k():
    for k in (2, 3, 7):
        logits = np.zeros((4, k))
        labels = np.zeros(4, dtype=np.int64)
        loss, dlog = softmax_xent(logits, labels)
        assert loss == pytest.approx(np.log(k), abs=1e-15)
        # gradient rows: (uniform - onehot)/n
        want = np.full((4, k), 1.0 / (k * 4))
        want[:, 0] -= 1.0 / 4
        assert np.max(np.abs(dlog - want)) <= 1e-15


def test_xent_large_margin_value():
    logits = np.array([[20.0, 0.0]])
    loss, _ = softmax_xent(logits, np.array([0]))
    assert loss == pytest.approx(2.0611536181902037e-9, rel=1e-12)


def test_xent_shift_invariance_and_stability():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((6, 3))
    labels = rng.integers(0, 3, size=6)
    base = softmax_xent(logits, labels)
    shifted = softmax_xent(logits + 123.0, labels)
    assert shifted[0] == pytest.approx(base[0], rel=1e-12)
    assert np.max(np.abs(shifted[1] - base[1])) <= 1e-14
    huge, dhuge = softmax_xent(logits + 1e4, labels)
    assert np.isfinite(huge) and np.all(np.isfinite(dhuge))


def test_xent_unlabeled_rows_and_weight():
    logits = np.array([[1.0, -1.0], [0.3, 0.6], [2.0, 0.0]])
    labels = np.array([0, -1, 1])
    loss1, dlog1 = softmax_xent(logits, labels)
    assert np.all(dlog1[1] == 0.0)
    loss3, dlog3 = softmax_xent(logits, labels, weight=3.0)
    assert loss3 == pytest.approx(3.0 * loss1)
    assert np.max(np.abs(dlog3 - 3.0 * dlog1)) <= 1e-15


def test_xent_gradient_matches_finite_difference():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((5, 4))
    labels = np.array([0, 2, -1, 3, 1])
    _, dlog = softmax_xent(logits, labels, weight=1.7)
    eps = 1e-6
    for i, j in [(0, 0), (1, 3), (2, 1), (4, 2)]:
        probe = logits.copy()
        probe[i, j] += eps
        up = softmax_xent(probe, labels, weight=1.7)[0]
        probe[i, j] -= 2 * eps
        dn = softmax_xent(probe, labels, weight=1.7)[0]
        assert (up - dn) / (2 * eps) == pytest.approx(dlog[i, j], abs=1e-9)


def test_xent_errors():
    with pytest.raises(ValueError, match="no labeled rows"):
        softmax_xent(np.zeros((2, 2)), np.array([-1, -1]))
    with pytest.raises(ValueError, match="exceeds class count"):
        softmax_xent(np.zeros((2, 2)), np.array([0, 2]))
    with pytest.raises(ValueError, match="expected"):
        softmax_xent(np.zeros((2, 2)), np.array([0]))


# ---------------------------------------------------------------------------
# sparse aggregation


def test_full_view_aggregate_matches_dense():
    rng = np.random.default_rng(3)
    adj = normalized_adjacency(random_graph(rng, 15, 0.25))
    H = rng.standard_normal((15, 6))
    first = aggregate(full_view(adj), H)
    assert np.max(np.abs(first - dense_adj(adj) @ H)) <= 1e-13
    # later calls reuse the view kept on the adjacency, bit for bit
    assert full_view(adj) is full_view(adj)
    assert np.array_equal(aggregate(full_view(adj), H), first)


@pytest.mark.parametrize("g", [
    random_graph(np.random.default_rng(6), 20, 0.2),
    build_graph(6, [(0, 1), (1, 2), (4, 5)]),     # node 3 is isolated
    build_graph(3, np.empty((0, 2), dtype=np.int64)),
])
def test_full_view_equals_local_view_of_all_nodes(g):
    adj = normalized_adjacency(g)
    ids = np.arange(g.n, dtype=np.int64)
    want, got = build_local_view(adj, ids, ids), full_view(adj)
    for name in ("targets", "src_indptr", "src_ids", "src_w", "prn_indptr",
                 "prn_ids", "prn_w"):
        a, b = getattr(want, name), getattr(got, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_full_view_is_kept_per_adjacency():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 12, 0.3)
    a, b = normalized_adjacency(g), normalized_adjacency(g)
    c = normalized_adjacency(path_graph(7))
    views = [full_view(a), full_view(b), full_view(c)]
    assert len({id(v) for v in views}) == 3
    assert [v.n_targets for v in views] == [12, 12, 7]
    assert full_view(a) is views[0] and full_view(c) is views[2]


def test_local_view_with_fallback_matches_dense():
    rng = np.random.default_rng(4)
    g = random_graph(rng, 14, 0.3)
    adj = normalized_adjacency(g)
    D = dense_adj(adj)
    H = rng.standard_normal((14, 5))
    targets = np.array([2, 5, 11])
    sources = np.array([2, 5, 6, 11])
    pruned_ids = np.setdiff1d(g.neighbors_of(targets), sources)
    fallback = np.union1d(pruned_ids, targets)  # superset is fine
    view = build_local_view(adj, targets, sources, fallback_ids=fallback)
    got = aggregate(view, H[sources], H[fallback])
    assert np.max(np.abs(got - D[targets] @ H)) <= 1e-13
    # listed + pruned split reassembles the same rows
    split = (aggregate_listed(view, H[sources])
             + aggregate_pruned(view, H[fallback]))
    assert np.max(np.abs(split - got)) <= 1e-15


def test_drop_pruned_zeroes_outside_columns():
    rng = np.random.default_rng(5)
    g = path_graph(6)
    adj = normalized_adjacency(g)
    D = dense_adj(adj)
    H = rng.standard_normal((6, 3))
    targets = np.array([1, 2])
    sources = np.array([1, 2, 3])
    view = build_local_view(adj, targets, sources)
    got = aggregate(view, H[sources], drop_pruned=True)
    Dz = D.copy()
    Dz[:, [0]] = 0.0  # node 0 is the only pruned neighbor
    assert np.max(np.abs(got - Dz[targets] @ H)) <= 1e-14


def test_aggregate_requires_fallback_when_pruned():
    adj = normalized_adjacency(path_graph(4))
    view = build_local_view(adj, np.array([1]), np.array([1, 2]))
    with pytest.raises(ValueError, match="pruned neighbors"):
        aggregate(view, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="outside the fallback pool"):
        aggregate(view, np.zeros((2, 2)), np.zeros((0, 2)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(5, 20), st.integers(1, 5))
def test_local_view_consistency(seed, n, d):
    """Any target/source split agrees with the dense product once the
    pruned part is supplied from the full matrix."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, 0.25)
    adj = normalized_adjacency(g)
    D = dense_adj(adj)
    H = rng.standard_normal((n, d))
    targets = np.sort(rng.permutation(n)[: rng.integers(1, n + 1)])
    sources = np.union1d(targets, rng.permutation(n)[: rng.integers(0, n)])
    view = build_local_view(adj, targets, sources, fallback_ids=np.arange(n))
    got = aggregate(view, H[sources], H)  # fallback indexed over all nodes
    assert np.max(np.abs(got - D[targets] @ H)) <= 1e-12
