"""Shared helpers: tiny graph builders, a dense mirror of the normalized
adjacency (an independent oracle for the sparse aggregation paths),
per-node loop versions of the vectorized graph slicing and of the
summation order, and the all-pairs two-cluster generator, which the tests
compare against array for array."""
import numpy as np

from lmcgnn.engine.blend import _score
from lmcgnn.graph import NormalizedAdjacency, build_graph
from lmcgnn.kernels import LocalAdjView
from lmcgnn.trainer.data import Dataset, _random_split


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def clique_edges(n, offset=0):
    return [(offset + u, offset + v) for u in range(n) for v in range(u + 1, n)]


def path_graph(n):
    return build_graph(n, path_edges(n))


def dense_adj(adj: NormalizedAdjacency) -> np.ndarray:
    """Dense n x n matrix with the same entries as the CSR rows of A+I."""
    n = adj.n
    out = np.zeros((n, n))
    for i in range(n):
        ids, w = ref_row_entries(adj, i)
        out[i, ids] = w
    return out


def random_graph(rng, n, p_edge):
    """Connected random graph: spanning path plus Bernoulli extras."""
    edges = set(path_edges(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p_edge:
                edges.add((u, v))
    return build_graph(n, sorted(edges))


def sparse_graph(rng, n, p_edge):
    """Bernoulli edges only: may leave isolated nodes, or no edge at all."""
    u, v = np.triu_indices(n, 1)
    keep = rng.random(u.size) < p_edge
    return build_graph(n, np.stack([u[keep], v[keep]], axis=1))


# ---------------------------------------------------------------------------
# loop reference implementations of the vectorized graph slicing


def ref_row_entries(adj: NormalizedAdjacency, i: int):
    """Row i of A+I: the self-loop entry (exactly one) first, then the
    neighbors in CSR order."""
    s, e = adj.indptr[i], adj.indptr[i + 1]
    ids, w = adj.indices[s:e], adj.weights[s:e]
    self_loop = ids == i
    assert int(self_loop.sum()) == 1
    return (np.concatenate((ids[self_loop], ids[~self_loop])),
            np.concatenate((w[self_loop], w[~self_loop])))


def ref_lookup(pool, ids):
    """Position of each id in `pool` (any order), -1 when absent."""
    at = {} if pool is None else {int(v): k for k, v in enumerate(pool)}
    return np.array([at.get(int(v), -1) for v in ids], dtype=np.int64)


def ref_build_local_view(adj, targets, source_ids, fallback_ids=None):
    """One Python iteration per target row; same contract as
    kernels.build_local_view."""
    targets = np.asarray(targets, dtype=np.int64)
    src_indptr = np.zeros(len(targets) + 1, dtype=np.int64)
    prn_indptr = np.zeros(len(targets) + 1, dtype=np.int64)
    src_ids_out, src_w_out, prn_ids_out, prn_w_out = [], [], [], []
    for t, node in enumerate(targets):
        ids, w = ref_row_entries(adj, int(node))
        pos = ref_lookup(source_ids, ids)
        listed = pos >= 0
        src_ids_out.append(pos[listed])
        src_w_out.append(w[listed])
        prn_ids_out.append(ref_lookup(fallback_ids, ids[~listed]))
        prn_w_out.append(w[~listed])
        src_indptr[t + 1] = src_indptr[t] + int(listed.sum())
        prn_indptr[t + 1] = prn_indptr[t] + int((~listed).sum())

    cat = lambda chunks, dt: (np.concatenate(chunks).astype(dt) if chunks
                              else np.empty(0, dtype=dt))
    return LocalAdjView(
        targets,
        src_indptr, cat(src_ids_out, np.int64), cat(src_w_out, np.float64),
        prn_indptr, cat(prn_ids_out, np.int64), cat(prn_w_out, np.float64),
    )


def ref_segment_sum(indptr, ids, w, rows):
    """One Python iteration per row: each row of the CSR pool summed left
    to right from zero, the order kernels._segment_sum pins."""
    out = np.zeros((len(indptr) - 1, rows.shape[1]))
    for t in range(len(indptr) - 1):
        acc = np.zeros(rows.shape[1])
        for k in range(indptr[t], indptr[t + 1]):
            acc = acc + w[k] * rows[ids[k]]
        out[t] = acc
    return out


def ref_blend_weights(batch, g, schedule):
    """One Python iteration per halo node; same contract as
    engine.blend.blend_weights."""
    if schedule.alpha == 0.0 or len(batch.halo1) == 0:
        return np.zeros(len(batch.halo1))
    inside = np.sort(np.concatenate([batch.core, batch.halo1]))
    x = np.empty(len(batch.halo1))
    for k, node in enumerate(batch.halo1):
        nbrs = g.neighbors(int(node))
        pos = np.searchsorted(inside, nbrs)
        pos_c = np.minimum(pos, len(inside) - 1)
        local = int(np.sum(inside[pos_c] == nbrs))
        x[k] = local / len(nbrs)
    beta = _score(schedule.score, x) * schedule.alpha
    return np.clip(beta, 0.0, 1.0)


def ref_neighbors_of(g, nodes):
    if len(nodes) == 0:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate([g.neighbors(u) for u in nodes]))


def ref_induced_subgraph(g, core):
    edges = []
    for local, u in enumerate(core):
        nbrs = g.neighbors(int(u))
        pos = np.searchsorted(core, nbrs)
        pos_c = np.minimum(pos, len(core) - 1)
        keep = core[pos_c] == nbrs
        for q in pos[keep]:
            if local < q:
                edges.append((local, int(q)))
    return build_graph(len(core), np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def ref_bfs_distances(g, sources):
    """Node-by-node BFS; same contract as graph._bfs_distances."""
    dist = np.full(g.n, -1, dtype=np.int64)
    frontier = list(sources)
    for s in frontier:
        dist[s] = 0
    d = 0
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.neighbors(u):
                if dist[v] < 0:
                    dist[v] = d + 1
                    nxt.append(v)
        frontier = nxt
        d += 1
    return dist


def ref_cut_edges(g, p):
    count = 0
    for u in range(g.n):
        nbrs = g.neighbors(u)
        count += int(np.sum(p.part_of[nbrs[nbrs > u]] != p.part_of[u]))
    return count


def ref_gen_two_cluster(n, d_x, seed, *, deg_in=8.0, deg_out=1.0, sep=1.0,
                        noise=1.0, flip=0.0):
    """All n(n-1)/2 pair draws at once over np.triu_indices; same contract
    as trainer.data.gen_two_cluster for valid arguments."""
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int64)
    labels[n // 2:] = 1
    iu, ju = np.triu_indices(n, k=1)
    same = labels[iu] == labels[ju]
    p_in = min(1.0, deg_in / max(1, n // 2 - 1))
    p_out = min(1.0, deg_out / max(1, n - n // 2))
    p = np.where(same, p_in, p_out)
    keep = rng.random(p.shape) < p
    edges = np.stack([iu[keep], ju[keep]], axis=1)
    mu = sep / np.sqrt(d_x)
    X = noise * rng.standard_normal((n, d_x))
    X[labels == 0] += mu
    X[labels == 1] -= mu
    if flip > 0.0:
        hit = rng.permutation(n)[: int(round(flip * n))]
        labels[hit] = 1 - labels[hit]
    train, val, test = _random_split(n, rng)
    return Dataset(build_graph(n, edges), X, labels, train, val, test)


def assert_same_arrays(want, got, names):
    """Array for array and dtype for dtype equality of named attributes."""
    for name in names:
        a, b = getattr(want, name), getattr(got, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
