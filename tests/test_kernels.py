"""Dense kernels, loss, and sparse aggregation tests."""
import ast
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (assert_same_arrays, dense_adj, path_graph, random_graph,
                      ref_build_local_view, ref_segment_sum, sparse_graph)
import lmcgnn
from lmcgnn import kernels
from lmcgnn.graph import build_graph, normalized_adjacency
from lmcgnn.kernels import (aggregate, aggregate_listed, aggregate_pruned,
                            build_local_view, fro_norm, full_view,
                            masked_rows, matmul, relu, relu_mask, softmax_xent)

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
    assert masked_rows(relu_mask(z), up).tolist() == [[0.0, 0.0, 5.0]]


def test_fro_norm():
    a = np.array([[3.0, 4.0]])
    assert fro_norm(a) == 5.0


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
    # the view is the adjacency's own arrays, so later calls agree bit for bit
    view = full_view(adj)
    assert (view.src_indptr is adj.indptr and view.src_ids is adj.indices
            and view.src_w is adj.weights)
    assert np.array_equal(aggregate(full_view(adj), H), first)


VIEW_ARRAYS = ("targets", "src_indptr", "src_ids", "src_w", "prn_indptr",
               "prn_ids", "prn_w")
LAYOUT_COLUMNS = ("col_ptr", "col_ids", "col_w")


@pytest.mark.parametrize("g", [
    random_graph(np.random.default_rng(6), 20, 0.2),
    build_graph(6, [(0, 1), (1, 2), (4, 5)]),     # node 3 is isolated
    build_graph(3, np.empty((0, 2), dtype=np.int64)),
    build_graph(1, np.empty((0, 2), dtype=np.int64)),
])
def test_full_view_equals_local_view_of_all_nodes(g):
    adj = normalized_adjacency(g)
    ids = np.arange(g.n, dtype=np.int64)
    assert_same_arrays(ref_build_local_view(adj, ids, ids), full_view(adj),
                       VIEW_ARRAYS)


def test_full_view_is_kept_per_adjacency():
    """Each adjacency's full view is that adjacency's arrays, its
    jagged-diagonal layout included, not a copy and not another
    adjacency's; summing through the view builds no layout."""
    rng = np.random.default_rng(5)
    g = random_graph(rng, 12, 0.3)
    a, b = normalized_adjacency(g), normalized_adjacency(g)
    c = normalized_adjacency(path_graph(7))
    for adj in (a, b, c):
        view = full_view(adj)
        assert view.src_indptr is adj.indptr
        assert view.src_ids is adj.indices
        assert view.src_w is adj.weights
        assert view.n_pruned == 0
        aggregate(view, rng.standard_normal((adj.n, 2)))
        assert view.listed_layout is adj.layout
        for name in ("perm",) + LAYOUT_COLUMNS:
            assert getattr(view.listed_layout, name) is getattr(adj.layout,
                                                                name)
    assert not np.shares_memory(full_view(a).src_w, b.weights)
    assert not np.shares_memory(full_view(a).listed_layout.col_w,
                                b.layout.col_w)
    assert [full_view(x).n_targets for x in (a, b, c)] == [12, 12, 7]


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
    with pytest.raises(ValueError, match="outside the fallback pool"):
        aggregate_pruned(view, np.zeros((0, 2)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(5, 20), st.integers(1, 5))
def test_local_view_consistency(seed, n, d):
    """Any target/source split agrees with the dense product once the
    pruned part is supplied from the full matrix, and aggregate is bit for
    bit the listed sum plus the pruned sum."""
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
    split = aggregate_listed(view, H[sources]) + aggregate_pruned(view, H)
    assert got.tobytes() == split.tobytes()


def _pool(rng, n, kind):
    """An id pool: empty, everything, or a random subset, sorted or not."""
    if kind == "empty":
        return np.empty(0, dtype=np.int64)
    if kind == "all":
        return np.arange(n, dtype=np.int64)
    subset = rng.permutation(n)[: rng.integers(0, n + 1)]
    return np.sort(subset) if kind == "subset" else subset


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 18),
       st.sampled_from([0.0, 0.1, 0.3]),
       st.sampled_from(["empty", "all", "subset", "shuffled"]),
       st.sampled_from(["none", "empty", "all", "subset", "shuffled"]))
def test_local_view_equals_loop_reference(seed, n, p_edge, src_kind, fb_kind):
    """The vectorized gather builds the loop's view array for array, dtypes
    included: isolated nodes and edgeless graphs, unsorted targets (core,
    then halo), unsorted and empty pools, and neighbors in neither pool
    (id -1)."""
    rng = np.random.default_rng(seed)
    adj = normalized_adjacency(sparse_graph(rng, n, p_edge))
    targets = rng.permutation(n)[: rng.integers(0, n + 1)]
    sources = _pool(rng, n, src_kind)
    fallback = None if fb_kind == "none" else _pool(rng, n, fb_kind)
    assert_same_arrays(ref_build_local_view(adj, targets, sources, fallback),
                       build_local_view(adj, targets, sources, fallback),
                       VIEW_ARRAYS)


@pytest.mark.parametrize("iters", [0, 1, 40])
def test_spectral_radius_does_one_product_per_iteration(monkeypatch, iters):
    """Reusing A x for the next iterate gives bit for bit the value and
    residual of the loop that applies the operator twice per iteration."""
    adj = normalized_adjacency(random_graph(np.random.default_rng(9), 25,
                                            0.15))
    view = full_view(adj)
    x = np.full((adj.n, 1), 1.0 / np.sqrt(adj.n))
    lam = 0.0
    for _ in range(iters):
        y = aggregate(view, x)
        x = y / float(np.linalg.norm(y))
        lam = float(np.vdot(x, aggregate(view, x)))
    want = (lam, float(np.linalg.norm(aggregate(view, x) - lam * x)))

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return aggregate(*args, **kwargs)

    monkeypatch.setattr(kernels, "aggregate", counted)
    assert kernels.spectral_radius(adj, iters) == want
    assert len(calls) == iters + 1


def test_operator_has_one_summation_kernel():
    """Every sum over a row of the operator goes through
    kernels._segment_sum: the package calls no reduceat, and only
    _segment_sum reads the column arrays of a jagged-diagonal layout."""
    root = pathlib.Path(lmcgnn.__file__).parent
    reads, kernel_reads = {}, 0
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        assert not re.search(r"\breduceat\(", text), path
        tree = ast.parse(text)
        reads[str(path.relative_to(root))] = sum(
            isinstance(node, ast.Attribute) and node.attr in LAYOUT_COLUMNS
            for node in ast.walk(tree))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name == "_segment_sum":
                kernel_reads += sum(
                    isinstance(node, ast.Attribute)
                    and node.attr in LAYOUT_COLUMNS for node in ast.walk(fn))
    assert kernel_reads == len(LAYOUT_COLUMNS)
    assert sum(reads.values()) == kernel_reads, reads


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 18),
       st.sampled_from([0.0, 0.1, 0.3, 0.7]), st.integers(1, 4),
       st.sampled_from(["empty", "all", "subset", "shuffled"]),
       st.sampled_from(["none", "empty", "all", "subset", "shuffled"]))
def test_products_sum_rows_left_to_right(seed, n, p_edge, width, src_kind,
                                         fb_kind):
    """aggregate, aggregate_listed, aggregate_pruned and full-view products
    equal, bit for bit, the loop that sums each row left to right from zero
    (the listed sum first, then the pruned sum added to it): isolated
    nodes, edgeless graphs, empty pools, unsorted targets and pools."""
    rng = np.random.default_rng(seed)
    adj = normalized_adjacency(sparse_graph(rng, n, p_edge))
    H = rng.standard_normal((n, width))
    ids = np.arange(n)
    full = ref_build_local_view(adj, ids, ids)
    assert np.array_equal(aggregate(full_view(adj), H),
                          ref_segment_sum(full.src_indptr, full.src_ids,
                                          full.src_w, H))

    targets = rng.permutation(n)[: rng.integers(0, n + 1)]
    sources = _pool(rng, n, src_kind)
    fallback = None if fb_kind == "none" else _pool(rng, n, fb_kind)
    ref = ref_build_local_view(adj, targets, sources, fallback)
    view = build_local_view(adj, targets, sources, fallback)
    S = H[sources]
    listed = ref_segment_sum(ref.src_indptr, ref.src_ids, ref.src_w, S)
    assert np.array_equal(aggregate_listed(view, S), listed)
    assert np.array_equal(aggregate(view, S, drop_pruned=True), listed)
    if fallback is not None and np.all(ref.prn_ids >= 0):
        F = H[fallback]
        pruned = ref_segment_sum(ref.prn_indptr, ref.prn_ids, ref.prn_w, F)
        assert np.array_equal(aggregate_pruned(view, F), pruned)
        assert np.array_equal(aggregate(view, S, F), listed + pruned)
