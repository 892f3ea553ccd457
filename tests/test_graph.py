"""Graph container, normalization, partitioning, and mini-batch tests."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (clique_edges, dense_adj, path_graph, random_graph,
                      ref_bfs_distances, ref_cut_edges, ref_neighbors_of,
                      sparse_graph)
from lmcgnn.kernels import build_local_view, spectral_radius
from lmcgnn.graph import (Partition, _bfs_distances, batch_from_parts,
                          build_graph, cut_edges, epoch_batches,
                          load_partition, normalized_adjacency,
                          partition_clustered, partition_random,
                          read_edge_list, sample_minibatch, save_partition,
                          write_edge_list)

# ---------------------------------------------------------------------------
# construction and validation


def test_build_graph_basic():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert g.n_edges == 2
    assert g.degrees.tolist() == [1, 2, 1]
    assert g.neighbors(1).tolist() == [0, 2]
    assert g.neighbors_of(np.array([0, 2])).tolist() == [1]


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError, match="self loops"):
        build_graph(3, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate edge"):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="out of range"):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError, match="at least one node"):
        build_graph(0, [])


def test_edge_list_round_trip(tmp_path):
    g = build_graph(5, [(0, 1), (0, 4), (2, 3)])
    path = tmp_path / "edges.tsv"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back.n == 5  # inferred from the largest endpoint
    assert back.indptr.tolist() == g.indptr.tolist()
    assert back.indices.tolist() == g.indices.tolist()


def test_edge_list_comments_and_errors(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("# header\n0\t1\n\n1\t2\n")
    g = read_edge_list(path, n=4)
    assert g.n == 4 and g.n_edges == 2
    bad = tmp_path / "bad.tsv"
    bad.write_text("0 1\n")
    with pytest.raises(ValueError, match="expected"):
        read_edge_list(bad)


# ---------------------------------------------------------------------------
# normalized adjacency


def test_normalized_path3_entries():
    # degrees 1,2,1; weight(u,v) = 1/sqrt((d_u+1)(d_v+1))
    adj = normalized_adjacency(path_graph(3))
    # each row of A+I starts with its self-loop entry
    first = adj.indptr[:-1]
    assert adj.indices[first].tolist() == [0, 1, 2]
    assert adj.weights[first] == pytest.approx([0.5, 1.0 / 3.0, 0.5], abs=1e-15)
    view = build_local_view(adj, [0], [0, 1])
    ids, w = view.src_ids, view.src_w  # positions in [0, 1] are node ids
    assert ids[0] == 0  # self entry first
    assert w[0] == pytest.approx(0.5, abs=1e-15)
    assert ids[1] == 1
    assert w[1] == pytest.approx(0.4082482904638631, abs=1e-16)


def test_dense_mirror_symmetric():
    rng = np.random.default_rng(1)
    adj = normalized_adjacency(random_graph(rng, 12, 0.3))
    D = dense_adj(adj)
    assert np.array_equal(D, D.T)


def test_spectral_radius_is_one():
    # self-loop normalization pins the Perron value at exactly 1
    rng = np.random.default_rng(2)
    for n in (3, 9, 20):
        adj = normalized_adjacency(random_graph(rng, n, 0.25))
        lam, resid = spectral_radius(adj)
        assert abs(lam - 1.0) <= 1e-7
        assert resid <= 1e-6


# ---------------------------------------------------------------------------
# partitions


def test_partition_random_sizes_and_coverage():
    g = path_graph(10)
    p = partition_random(g, 3, seed=0)
    assert sorted(len(part) for part in p.parts) == [3, 3, 4]
    seen = np.sort(np.concatenate(p.parts))
    assert seen.tolist() == list(range(10))
    for b, part in enumerate(p.parts):
        assert np.all(p.part_of[part] == b)


def test_partition_random_deterministic():
    g = path_graph(40)
    a = partition_random(g, 7, seed=3)
    b = partition_random(g, 7, seed=3)
    assert np.array_equal(a.part_of, b.part_of)


def test_partition_clustered_two_cliques_zero_cut():
    edges = clique_edges(5) + clique_edges(5, offset=5)
    g = build_graph(10, edges)
    p = partition_clustered(g, 2, seed=0)
    assert cut_edges(g, p) == 0
    assert sorted(len(part) for part in p.parts) == [5, 5]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 25),
       st.sampled_from([0.0, 0.1, 0.4]), st.integers(1, 6))
def test_cut_edges_and_neighbors_of_equal_loop_reference(seed, n, p_edge, B):
    rng = np.random.default_rng(seed)
    g = sparse_graph(rng, n, p_edge)
    p = partition_random(g, min(B, n), seed=rng)
    assert cut_edges(g, p) == ref_cut_edges(g, p)
    for nodes in (rng.permutation(n)[: rng.integers(0, n + 1)],
                  np.empty(0, dtype=np.int64)):
        want, got = ref_neighbors_of(g, nodes), g.neighbors_of(nodes)
        assert want.dtype == got.dtype and np.array_equal(want, got)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 25),
       st.sampled_from([0.0, 0.05, 0.1, 0.4]), st.integers(0, 4))
def test_bfs_distances_equal_loop_reference(seed, n, p_edge, n_src):
    # sparse graphs are often disconnected, leaving nodes unreached (-1)
    rng = np.random.default_rng(seed)
    g = sparse_graph(rng, n, p_edge)
    sources = rng.permutation(n)[: min(n_src, n)].astype(np.int64)
    want, got = ref_bfs_distances(g, sources), _bfs_distances(g, sources)
    assert want.dtype == got.dtype and np.array_equal(want, got)


def test_partition_clustered_respects_cap():
    rng = np.random.default_rng(4)
    g = random_graph(rng, 23, 0.2)
    for seed in range(3):
        p = partition_clustered(g, 4, seed=seed)
        cap = -(-g.n // p.B) + 1
        assert max(len(part) for part in p.parts) <= cap
        assert np.sort(np.concatenate(p.parts)).tolist() == list(range(g.n))


def test_partition_file_round_trip(tmp_path):
    g = path_graph(9)
    p = partition_clustered(g, 3, seed=1)
    path = tmp_path / "parts.tsv"
    save_partition(p, path)
    q = load_partition(path)
    assert q.B == p.B
    assert np.array_equal(q.part_of, p.part_of)


def test_load_partition_rejects_gaps(tmp_path):
    path = tmp_path / "parts.tsv"
    path.write_text("0\t0\n2\t1\n")  # node 1 missing
    with pytest.raises(ValueError, match="cover"):
        load_partition(path)
    path.write_text("-1\t0\n1\t0\n")  # node 0 missing, id -1 given
    with pytest.raises(ValueError, match="cover"):
        load_partition(path)


# ---------------------------------------------------------------------------
# mini-batches


def _halo_sets(g, core):
    ring1 = set()
    for u in core:
        ring1.update(g.neighbors(int(u)).tolist())
    ring1 -= set(core.tolist())
    ring2 = set()
    for u in ring1:
        ring2.update(g.neighbors(int(u)).tolist())
    ring2 -= set(core.tolist()) | ring1
    return ring1, ring2


def test_batch_from_parts_two_cliques():
    edges = clique_edges(4) + clique_edges(4, offset=4) + [(0, 4)]
    g = build_graph(8, edges)
    parts = [np.arange(4), np.arange(4, 8)]
    p = Partition(2, parts, np.repeat([0, 1], 4))
    batch = batch_from_parts(g, p, [0])
    assert batch.core.tolist() == [0, 1, 2, 3]
    assert batch.halo1.tolist() == [4]
    assert batch.halo2.tolist() == [5, 6, 7]
    # all 8 nodes labeled: w_loss = B|LC|/(c n) = 2*4/(1*8) = 1, same as w_grad
    assert batch.w_loss == pytest.approx(1.0)
    assert batch.w_grad == pytest.approx(1.0)
    assert batch.n_core == 4


def test_batch_rejects_duplicate_cluster():
    g = path_graph(6)
    p = partition_random(g, 3, seed=0)
    with pytest.raises(ValueError, match="duplicate cluster"):
        batch_from_parts(g, p, [1, 1])


def test_batch_weights_with_labeled_mask():
    g = path_graph(8)
    p = Partition(4, [np.arange(2 * b, 2 * b + 2) for b in range(4)],
                  np.repeat(np.arange(4), 2))
    mask = np.zeros(8, dtype=bool)
    mask[[0, 5, 6]] = True
    batch = batch_from_parts(g, p, [0, 3], labeled_mask=mask)
    # core {0,1,6,7}, labeled core {0,6}: w_loss = 4*2/(2*3)
    assert set(batch.labeled_core.tolist()) == {0, 6}
    assert batch.w_loss == pytest.approx(4 * 2 / (2 * 3))
    assert batch.w_grad == pytest.approx(4 * 4 / (2 * 8))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batch_halos_exact(data):
    seed = data.draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(4, 24))
    g = random_graph(rng, n, 0.2)
    B = data.draw(st.integers(1, min(6, n)))
    c = data.draw(st.integers(1, B))
    p = partition_random(g, B, seed=seed)
    ids = sorted(rng.permutation(B)[:c].tolist())
    batch = batch_from_parts(g, p, ids)
    ring1, ring2 = _halo_sets(g, batch.core)
    assert set(batch.halo1.tolist()) == ring1
    assert set(batch.halo2.tolist()) == ring2
    assert np.all(np.diff(batch.core) > 0)
    assert batch.w_grad == pytest.approx(B * batch.n_core / (c * n))


def test_sample_minibatch_uniform_pairs():
    # every 2-subset of 6 parts should appear with frequency ~1/15
    g = path_graph(12)
    p = partition_random(g, 6, seed=0)
    rng = np.random.default_rng(7)
    counts = {pair: 0 for pair in itertools.combinations(range(6), 2)}
    draws = 20_000
    for _ in range(draws):
        batch = sample_minibatch(g, p, 2, rng)
        counts[tuple(batch.part_ids)] += 1
    prob = 1.0 / len(counts)
    bound = 4.0 * np.sqrt(prob * (1 - prob) / draws)
    for got in counts.values():
        assert abs(got / draws - prob) <= bound


def test_sample_minibatch_validates_c():
    g = path_graph(6)
    p = partition_random(g, 3, seed=0)
    with pytest.raises(ValueError, match="1 <= c <= B"):
        sample_minibatch(g, p, 4, np.random.default_rng(0))


def test_epoch_batches_cover_each_part_once():
    g = path_graph(20)
    p = partition_random(g, 5, seed=2)
    rng = np.random.default_rng(3)
    batches = list(epoch_batches(g, p, 2, rng))
    assert [len(b.part_ids) for b in batches] == [2, 2, 1]
    seen = np.sort(np.concatenate([b.part_ids for b in batches]))
    assert seen.tolist() == list(range(5))
    # the odd tail batch is weighted by its actual cluster count
    tail = batches[-1]
    assert tail.w_grad == pytest.approx(5 * tail.n_core / (1 * 20))


def test_epoch_batches_deterministic_per_rng_state():
    g = path_graph(20)
    p = partition_random(g, 4, seed=0)
    a = [tuple(b.part_ids)
         for b in epoch_batches(g, p, 2, np.random.default_rng(11))]
    b = [tuple(b.part_ids)
         for b in epoch_batches(g, p, 2, np.random.default_rng(11))]
    assert a == b
