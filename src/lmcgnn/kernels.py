"""Dense numeric kernels with pinned operand layouts and summation order.

Embedding matrices are node-major: row i is node i's vector.  Every product
with the normalized operator, batch-local or full-graph, goes through one
summation kernel, `_segment_sum`, on a LocalAdjView: the view keeps, per
target row, the operator's stored entry order (self-loop first, then CSR
neighbor order), and the kernel sums each row left to right from zero in
that order, which is the order of a CSR sparse-times-dense product.  It
reads each pool in jagged-diagonal layout (`graph.JaggedDiagonal`) and
adds one column of entries at a time, so full-batch and mini-batch code
paths reduce in the same order and repeated runs are bit-identical.  The
power iteration `spectral_radius` applies the operator the same way.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (JaggedDiagonal, NormalizedAdjacency, _csr_gather, _lookup,
                    _row_pointer, jagged_diagonal)

Array = np.ndarray


def matmul(a: Array, b: Array) -> Array:
    """Plain float64 matrix product (BLAS-backed)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    return a @ b


def relu(z: Array) -> Array:
    return np.maximum(z, 0.0)


def relu_mask(z: Array) -> Array:
    """Subgradient mask with the z = 0 branch set to 0."""
    return z > 0.0


def masked_rows(mask: Array, rows: Array) -> Array:
    return np.where(mask, rows, 0.0)


def softmax_xent(logits: Array, labels: Array, weight: float = 1.0):
    """Mean cross entropy over labeled rows, with its logit pullback.

    labels is int64 with -1 marking rows excluded from the loss.  Returns
    (loss, dlogits) with loss = weight * mean_{labeled} ce(row) and
    dlogits = weight * (softmax - onehot) / rowcount on labeled rows,
    zero elsewhere.  Row-wise max subtraction keeps the exp stable.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ValueError("logits (n, K) and labels (n,) expected")
    sel = labels >= 0
    count = int(sel.sum())
    if count == 0:
        raise ValueError("no labeled rows")
    if labels[sel].max() >= logits.shape[1]:
        raise ValueError("label id exceeds class count")
    z = logits[sel]
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    denom = ez.sum(axis=1, keepdims=True)
    p = ez / denom
    rows = np.arange(count)
    logp = (z - zmax)[rows, labels[sel]] - np.log(denom[:, 0])
    loss = weight * float(-logp.mean())
    dsel = p
    dsel[rows, labels[sel]] -= 1.0
    dsel = (dsel / count) * weight
    dlogits = np.zeros_like(logits)
    dlogits[sel] = dsel
    return loss, dlogits


def fro_norm(a: Array) -> float:
    return float(np.sqrt(np.sum(np.asarray(a, dtype=np.float64) ** 2)))


# ---------------------------------------------------------------------------
# local adjacency views


@dataclass
class LocalAdjView:
    """Frozen per-target slices of the normalized operator.

    Per target row the neighbors are split into a listed pool (resolved into
    the `source_rows` matrix handed to aggregate) and a pruned pool (resolved
    into `fallback_rows` when one is supplied, dropped otherwise).  Entry
    order per target: self-loop first, then CSR order; listed/pruned keep
    their relative order inside each pool.  Each pool is kept in CSR form
    and, from its first sum on, in the jagged-diagonal layout the summation
    kernel reads.
    """

    targets: Array
    src_indptr: Array
    src_ids: Array
    src_w: Array
    prn_indptr: Array
    prn_ids: Array
    prn_w: Array
    src_jd: JaggedDiagonal | None = None
    prn_jd: JaggedDiagonal | None = None

    @property
    def n_targets(self) -> int:
        return len(self.targets)

    @property
    def n_pruned(self) -> int:
        return int(self.prn_ids.size)

    @property
    def n_listed(self) -> int:
        return int(self.src_ids.size)

    @property
    def listed_layout(self) -> JaggedDiagonal:
        if self.src_jd is None:
            self.src_jd = jagged_diagonal(self.src_indptr, self.src_ids,
                                          self.src_w)
        return self.src_jd

    @property
    def pruned_layout(self) -> JaggedDiagonal:
        if self.prn_jd is None:
            self.prn_jd = jagged_diagonal(self.prn_indptr, self.prn_ids,
                                          self.prn_w)
        return self.prn_jd


def build_local_view(adj: NormalizedAdjacency, targets, source_ids,
                     fallback_ids=None) -> LocalAdjView:
    """Restrict adj rows to `targets`, resolving neighbors against the id
    pools `source_ids` (listed) and `fallback_ids` (pruned).

    Pools and targets may come in any order; a pool's positions become the
    local row ids.  Per target the entries keep the order of the
    operator's row (self-loop first, then CSR order), and listed and pruned
    entries keep their relative order inside each row.  Neighbors in
    neither pool are recorded as pruned with id -1; aggregate refuses to
    resolve them against a fallback matrix, they can only be dropped.  All
    target rows are gathered at once; no array is sized by the node count.
    """
    targets = np.asarray(targets, dtype=np.int64)
    pos, row, _ = _csr_gather(adj.indptr, targets)
    ids, w = adj.indices[pos], adj.weights[pos]
    src_pos, listed = _lookup(source_ids, ids)
    pruned = ~listed
    fb_pos, in_fb = _lookup(fallback_ids, ids[pruned])
    n_t = len(targets)
    return LocalAdjView(
        targets,
        _row_pointer(row[listed], n_t), src_pos[listed], w[listed],
        _row_pointer(row[pruned], n_t), np.where(in_fb, fb_pos, -1), w[pruned],
    )


def _segment_sum(jd: JaggedDiagonal, rows: Array) -> Array:
    """The one summation kernel: out[t] = sum_k w[k] * rows[ids[k]] over the
    entries of pool row t, into a fresh zeroed array.

    Each row is summed left to right from zero, in entry order, as a CSR
    product does: column k of the jagged-diagonal layout adds the k-th
    entry of every row that has one, `acc[:m_k] += w_k * rows[ids_k]`, so
    no (entries x width) temporary is made.  Rows without entries stay
    zero."""
    rows = np.asarray(rows, dtype=np.float64)
    out = np.zeros((jd.n_rows, rows.shape[1]))
    if jd.perm.size:
        acc = np.zeros((jd.perm.size, rows.shape[1]))
        ptr = jd.col_ptr.tolist()
        for s, e in zip(ptr[:-1], ptr[1:]):
            acc[:e - s] += jd.col_w[s:e, None] * rows[jd.col_ids[s:e]]
        out[jd.perm] = acc
    return out


def aggregate(view: LocalAdjView, source_rows: Array,
              fallback_rows: Array | None = None, *,
              drop_pruned: bool = False) -> Array:
    """Weighted neighborhood sums for every view target.

    out[t] = sum_listed w * source_rows[id] + sum_pruned w * fallback_rows[id],
    the listed sum first.  Pruned entries are dropped when no fallback is
    given, which must be acknowledged with drop_pruned=True.
    """
    if view.n_pruned and fallback_rows is None and not drop_pruned:
        raise ValueError("view has pruned neighbors; pass fallback_rows or "
                         "drop_pruned=True")
    out = _segment_sum(view.listed_layout, source_rows)
    if view.n_pruned and fallback_rows is not None:
        out += aggregate_pruned(view, fallback_rows)
    return out


def aggregate_listed(view: LocalAdjView, source_rows: Array) -> Array:
    """Listed-pool part of aggregate only (pruned neighbors ignored)."""
    return _segment_sum(view.listed_layout, source_rows)


def aggregate_pruned(view: LocalAdjView, fallback_rows: Array) -> Array:
    """Pruned-pool part of aggregate only (compensation terms).  Every
    pruned neighbor must sit in the view's fallback pool."""
    if np.any(view.prn_ids < 0):
        raise ValueError("pruned neighbor outside the fallback pool")
    return _segment_sum(view.pruned_layout, fallback_rows)


def full_view(adj: NormalizedAdjacency) -> LocalAdjView:
    """build_local_view(adj, ids, ids) for ids = 0..n-1: every node is a
    target and every neighbor is listed, so aggregate on it equals the dense
    normalized product.  The listed pool, CSR arrays and layout alike, is
    the adjacency's own; nothing is copied or built."""
    return LocalAdjView(
        np.arange(adj.n, dtype=np.int64),
        adj.indptr, adj.indices, adj.weights,
        np.zeros(adj.n + 1, dtype=np.int64), np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64), src_jd=adj.layout,
    )


def spectral_radius(adj: NormalizedAdjacency, iters: int = 500):
    """Power-iteration estimate of the dominant eigenvalue of the operator,
    applied as aggregate on its full view, one product per iteration.

    Returns (value, residual) where residual = ||A x - value * x||_2 for the
    final unit iterate.  The start vector is all-ones, which has positive
    overlap with the Perron vector of a nonnegative operator.
    """
    view = full_view(adj)
    x = np.full((adj.n, 1), 1.0 / np.sqrt(adj.n))
    y = aggregate(view, x)
    lam = 0.0
    for _ in range(iters):
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0, 0.0
        x = y / norm
        y = aggregate(view, x)      # A x: this Rayleigh quotient and the next y
        lam = float(np.vdot(x, y))
    resid = float(np.linalg.norm(y - lam * x))
    return lam, resid
