"""Graph storage, symmetric normalization, partitioning, and mini-batch sampling.

Undirected simple graphs in CSR form, node ids 0..n-1, without self loops.
The normalized operator stores the rows of A+I instead: each row's self-loop
first, then its neighbors in CSR order, the order every sum over the row
uses.  All float work is float64 and all id arrays are int64 so that runs
are reproducible bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _csr_gather(indptr: Array, rows: Array):
    """Locate the CSR entries of `rows`, in the given row order.

    Returns (pos, seg, ptr): pos holds the flat positions of the entries,
    row after row and CSR order inside each row; seg[k] is the index into
    `rows` of the row entry k belongs to; ptr is the segment pointer
    (entries of rows[i] are pos[ptr[i]:ptr[i+1]]).  Rows need not be
    sorted or unique.  The cost is linear in len(rows) plus the entries
    gathered; nothing is sized by the node count.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    seg = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
    pos = np.arange(ptr[-1], dtype=np.int64) + (starts - ptr[:-1])[seg]
    return pos, seg, ptr


def _lookup(pool, ids: Array):
    """Positions of `ids` in the id `pool` (any order, no repeats; None
    counts as empty) and whether each id is there."""
    if pool is None or len(pool) == 0:
        return np.zeros(len(ids), dtype=np.int64), np.zeros(len(ids), dtype=bool)
    pool = np.asarray(pool, dtype=np.int64)
    order = np.argsort(pool, kind="stable")
    ranked = pool[order]
    at = np.minimum(np.searchsorted(ranked, ids), len(pool) - 1)
    return order[at], ranked[at] == ids


def _row_pointer(row: Array, n_rows: int) -> Array:
    """CSR row pointer of entries tagged with their (ascending) row ids."""
    ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n_rows), out=ptr[1:])
    return ptr


# ---------------------------------------------------------------------------
# graph container


@dataclass
class Graph:
    """Symmetric CSR adjacency without self loops.

    Attributes
    ----------
    n : int
        Node count.
    indptr, indices : int64 arrays
        CSR structure; both directions of every edge are stored and each
        neighbor list is sorted ascending.
    """

    n: int
    indptr: Array
    indices: Array

    @property
    def degrees(self) -> Array:
        return np.diff(self.indptr)

    @property
    def n_edges(self) -> int:
        return int(self.indices.size // 2)

    def neighbors(self, u: int) -> Array:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def neighbors_of(self, nodes: Array) -> Array:
        """Sorted unique union of N(v) over the given nodes (self excluded
        unless reached through an edge)."""
        pos, _, _ = _csr_gather(self.indptr, nodes)
        return np.unique(self.indices[pos])


def build_graph(n: int, edges) -> Graph:
    """Build a Graph from an (m, 2) edge list.

    Rejects self loops, duplicate edges (in either orientation), and
    out-of-range endpoints.
    """
    if n < 1:
        raise ValueError("need at least one node")
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if e.size:
        if e.min() < 0 or e.max() >= n:
            raise ValueError("edge endpoint out of range")
        if np.any(e[:, 0] == e[:, 1]):
            raise ValueError("self loops are not allowed")
        lo = np.minimum(e[:, 0], e[:, 1])
        hi = np.maximum(e[:, 0], e[:, 1])
        key = lo * n + hi
        if np.unique(key).size != key.size:
            raise ValueError("duplicate edge")
        src = np.concatenate([e[:, 0], e[:, 1]])
        dst = np.concatenate([e[:, 1], e[:, 0]])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        return Graph(n, _row_pointer(src, n), dst)
    return Graph(n, np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))


def _read_int_pairs(path, expected: str) -> list:
    """(a, b) integer pairs of a tab-separated two-column file, one per
    line; '#' starts a comment.  `expected` names the format in the error
    raised for a line without exactly two fields."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected '{expected}'")
            pairs.append((int(parts[0]), int(parts[1])))
    return pairs


def read_edge_list(path, n: int | None = None) -> Graph:
    """Read a tab-separated "u<TAB>v" edge file.  '#' starts a comment.

    When n is omitted it is inferred as max id + 1.
    """
    edges = _read_int_pairs(path, "u<TAB>v")
    if n is None:
        n = 1 + max((max(u, v) for u, v in edges), default=-1)
        if n == 0:
            raise ValueError(f"{path}: empty edge list and no node count given")
    return build_graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for u in range(g.n):
            for v in g.neighbors(u):
                if u < v:
                    fh.write(f"{u}\t{v}\n")


# ---------------------------------------------------------------------------
# normalized operator


@dataclass
class JaggedDiagonal:
    """Jagged-diagonal layout of a CSR pool, the order its rows are summed in.

    `perm` lists the rows that hold an entry, longest first (ties keep row
    order).  Column k, `col_ids`/`col_w[col_ptr[k]:col_ptr[k+1]]`, holds
    the k-th entry of each row that has one: the rows `perm[:m_k]`, in that
    order.  Rows with no entry appear in no column.
    """

    n_rows: int
    perm: Array
    col_ptr: Array
    col_ids: Array
    col_w: Array


def jagged_diagonal(indptr: Array, ids: Array, w: Array) -> JaggedDiagonal:
    """Lay out the CSR pool (indptr, ids, w) by columns with one scatter."""
    n_rows = len(indptr) - 1
    counts = np.diff(indptr)
    order = np.argsort(-counts, kind="stable")
    rank = np.empty(n_rows, dtype=np.int64)
    rank[order] = np.arange(n_rows, dtype=np.int64)
    # m_k = rows with more than k entries = n_rows - rows with at most k
    width = int(counts.max(initial=0))
    col_ptr = np.zeros(width + 1, dtype=np.int64)
    np.cumsum(n_rows - np.cumsum(np.bincount(counts, minlength=width))[:width],
              out=col_ptr[1:])
    row = np.repeat(np.arange(n_rows, dtype=np.int64), counts)
    k = np.arange(len(ids), dtype=np.int64) - indptr[row]
    dest = col_ptr[k] + rank[row]
    col_ids = np.empty_like(ids)
    col_ids[dest] = ids
    col_w = np.empty_like(w)
    col_w[dest] = w
    return JaggedDiagonal(n_rows, order[:np.count_nonzero(counts)], col_ptr,
                          col_ids, col_w)


@dataclass
class NormalizedAdjacency:
    """(D+I)^(-1/2) (A+I) (D+I)^(-1/2), stored twice: in CSR form and as the
    jagged-diagonal `layout` every product with it reads.

    Row i holds its self-loop first, then the Graph's CSR neighbors of i in
    order, and a product sums each row in that order, left to right.
    Entries are 1/sqrt((d_i+1)(d_j+1)); the Perron value of the operator
    is 1 on every graph.  Both forms hold n + nnz ids and weights, and a
    product allocates (n x width) arrays only, never (nnz x width).  The
    arrays are never changed after the operator is built.
    """

    n: int
    indptr: Array
    indices: Array
    weights: Array
    layout: JaggedDiagonal


def normalized_adjacency(g: Graph) -> NormalizedAdjacency:
    inv = 1.0 / np.sqrt(g.degrees.astype(np.float64) + 1.0)
    indptr = g.indptr + np.arange(g.n + 1, dtype=np.int64)
    row = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(indptr))
    indices = np.insert(g.indices, g.indptr[:-1], np.arange(g.n, dtype=np.int64))
    weights = inv[row] * inv[indices]
    return NormalizedAdjacency(g.n, indptr, indices, weights,
                               jagged_diagonal(indptr, indices, weights))


# ---------------------------------------------------------------------------
# partitioning


@dataclass
class Partition:
    """Disjoint cover of the node set by B non-empty parts."""

    B: int
    parts: list
    part_of: Array


def _parts_from_assignment(part_of: Array, B: int) -> Partition:
    parts = [np.flatnonzero(part_of == b).astype(np.int64) for b in range(B)]
    if any(len(p) == 0 for p in parts):
        raise ValueError("empty part")
    return Partition(B, parts, part_of.astype(np.int64))


def partition_random(g: Graph, B: int, seed) -> Partition:
    """Seeded shuffle split into B parts whose sizes differ by at most one."""
    if not (1 <= B <= g.n):
        raise ValueError("need 1 <= B <= n")
    rng = _as_rng(seed)
    perm = rng.permutation(g.n)
    base, rem = divmod(g.n, B)
    part_of = np.empty(g.n, dtype=np.int64)
    start = 0
    for b in range(B):
        size = base + (1 if b < rem else 0)
        part_of[perm[start:start + size]] = b
        start += size
    return _parts_from_assignment(part_of, B)


def _bfs_distances(g: Graph, sources: Array) -> Array:
    """Hop distance from the nearest source, -1 where unreached; one
    gather over the whole frontier per BFS level."""
    dist = np.full(g.n, -1, dtype=np.int64)
    frontier = np.asarray(sources, dtype=np.int64)
    dist[frontier] = 0
    d = 0
    while frontier.size:
        pos, _, _ = _csr_gather(g.indptr, frontier)
        nbrs = np.unique(g.indices[pos])
        frontier = nbrs[dist[nbrs] < 0]
        d += 1
        dist[frontier] = d
    return dist


def partition_clustered(g: Graph, B: int, seed) -> Partition:
    """Greedy BFS region growing from farthest-point-seeded roots.

    Seeds: the first root is drawn from the rng, each further root maximizes
    BFS distance to the chosen set (unreached nodes count as infinitely far;
    ties break to the smallest id).  Growth: parts claim one unassigned
    neighbor per round-robin turn, capped at ceil(n/B)+1 nodes per part.
    When all frontiers stall while nodes remain (disconnected graphs), the
    smallest unassigned id is handed to the smallest part below the cap.
    """
    if not (1 <= B <= g.n):
        raise ValueError("need 1 <= B <= n")
    rng = _as_rng(seed)
    seeds = [int(rng.integers(g.n))]
    while len(seeds) < B:
        dist = _bfs_distances(g, np.array(seeds, dtype=np.int64))
        # unreached nodes sort first by getting distance n (larger than any
        # finite BFS distance), argmax then picks the smallest such id
        score = np.where(dist < 0, g.n, dist)
        score[np.array(seeds)] = -1
        seeds.append(int(np.argmax(score)))

    cap = -(-g.n // B) + 1
    part_of = np.full(g.n, -1, dtype=np.int64)
    sizes = [0] * B
    queues = [[s] for s in seeds]
    heads = [0] * B
    for b, s in enumerate(seeds):
        part_of[s] = b
        sizes[b] = 1
    assigned = B

    while assigned < g.n:
        progress = False
        for b in range(B):
            if sizes[b] >= cap:
                continue
            claimed = False
            while heads[b] < len(queues[b]):
                u = queues[b][heads[b]]
                for v in g.neighbors(u):
                    if part_of[v] < 0:
                        part_of[v] = b
                        sizes[b] += 1
                        queues[b].append(int(v))
                        assigned += 1
                        claimed = True
                        break
                if claimed:
                    break
                heads[b] += 1
            if claimed:
                progress = True
                if assigned == g.n:
                    break
        if not progress and assigned < g.n:
            u = int(np.flatnonzero(part_of < 0)[0])
            order = sorted(range(B), key=lambda b: (sizes[b], b))
            b = next(bb for bb in order if sizes[bb] < cap)
            part_of[u] = b
            sizes[b] += 1
            queues[b].append(u)
            assigned += 1
    return _parts_from_assignment(part_of, B)


def cut_edges(g: Graph, p: Partition) -> int:
    """Number of edges whose endpoints land in different parts."""
    _, src, _ = _csr_gather(g.indptr, np.arange(g.n))
    up = src < g.indices
    return int(np.count_nonzero(p.part_of[src[up]] != p.part_of[g.indices[up]]))


def save_partition(p: Partition, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for u, b in enumerate(p.part_of):
            fh.write(f"{u}\t{int(b)}\n")


def load_partition(path) -> Partition:
    rows = _read_int_pairs(path, "node_id<TAB>part_id")
    if not rows:
        raise ValueError(f"{path}: empty partition file")
    ids = np.array([r[0] for r in rows], dtype=np.int64)
    assign = np.array([r[1] for r in rows], dtype=np.int64)
    n = int(ids.max()) + 1
    if ids.min() != 0 or np.unique(ids).size != n or ids.size != n:
        raise ValueError(f"{path}: node ids must cover 0..n-1 exactly once")
    part_of = np.empty(n, dtype=np.int64)
    part_of[ids] = assign
    B = int(assign.max()) + 1
    if np.unique(assign).size != B or assign.min() != 0:
        raise ValueError(f"{path}: part ids must cover 0..B-1")
    return _parts_from_assignment(part_of, B)


# ---------------------------------------------------------------------------
# mini-batches


@dataclass
class MiniBatch:
    """A sampled batch: core nodes plus one- and two-hop halos.

    core       sorted union of the sampled clusters
    halo1      N(core) \\ core, sorted
    halo2      N(halo1) \\ (core + halo1), sorted
    labeled_core   the labeled subset of core (sorted)
    w_loss     B * |labeled_core| / (c * |labeled total|)
    w_grad     B * |core| / (c * n)
    """

    part_ids: tuple
    core: Array
    halo1: Array
    halo2: Array
    labeled_core: Array
    w_loss: float
    w_grad: float

    @property
    def n_core(self) -> int:
        return len(self.core)


def batch_from_parts(g: Graph, p: Partition, part_ids, labeled_mask=None) -> MiniBatch:
    """Deterministically assemble the MiniBatch for the given cluster ids."""
    part_ids = tuple(int(b) for b in part_ids)
    if len(set(part_ids)) != len(part_ids):
        raise ValueError("duplicate cluster id in batch")
    core = np.unique(np.concatenate([p.parts[b] for b in part_ids]))
    nb_core = g.neighbors_of(core)
    halo1 = np.setdiff1d(nb_core, core, assume_unique=True)
    nb_halo = g.neighbors_of(halo1)
    halo2 = np.setdiff1d(nb_halo, np.concatenate([core, halo1]),
                         assume_unique=True)
    n = g.n
    c = len(part_ids)
    if labeled_mask is None:
        labeled_core = core.copy()
        n_labeled = n
    else:
        labeled_mask = np.asarray(labeled_mask, dtype=bool)
        labeled_core = core[labeled_mask[core]]
        n_labeled = int(labeled_mask.sum())
    B = p.B
    w_loss = (B * len(labeled_core)) / (c * n_labeled) if n_labeled else 0.0
    w_grad = (B * len(core)) / (c * n)
    return MiniBatch(part_ids, core, halo1, halo2, labeled_core,
                     float(w_loss), float(w_grad))


def sample_minibatch(g: Graph, p: Partition, c: int, rng, labeled_mask=None) -> MiniBatch:
    """Draw c distinct clusters uniformly and build their MiniBatch."""
    if not (1 <= c <= p.B):
        raise ValueError("need 1 <= c <= B")
    rng = _as_rng(rng)
    ids = np.sort(rng.choice(p.B, size=c, replace=False))
    return batch_from_parts(g, p, ids, labeled_mask)


def epoch_batches(g: Graph, p: Partition, c: int, rng, labeled_mask=None):
    """Without-replacement schedule: shuffle clusters, chunk into groups of c.

    Yields ceil(B/c) batches; the last one may carry fewer clusters, and the
    normalization weights use the actual count.
    """
    rng = _as_rng(rng)
    order = rng.permutation(p.B)
    for start in range(0, p.B, c):
        ids = np.sort(order[start:start + c])
        yield batch_from_parts(g, p, ids, labeled_mask)
