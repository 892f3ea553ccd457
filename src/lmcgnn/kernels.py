"""Dense numeric kernels with pinned operand layouts and summation order.

Embedding matrices are node-major: row i is node i's vector.  The aggregate
kernel consumes LocalAdjView objects that freeze, per target row, the exact
entry order of the weighted sum (self-loop first, then CSR neighbor order),
so that full-batch and mini-batch code paths reduce in the same order and
repeated runs are bit-identical.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import NormalizedAdjacency

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


def relu_backward(z: Array, grad: Array) -> Array:
    """Mask an incoming pullback through relu; exact zeros (never -0.0)
    where the unit was inactive."""
    return np.where(z > 0.0, grad, 0.0)


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


def inf_norm_rows(a: Array) -> float:
    """Max row abs-sum (the induced infinity norm for 2-d input)."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    return float(np.abs(a).sum(axis=1).max())


def rel_err(approx: Array, exact: Array) -> float:
    """||approx - exact||_F / ||exact||_F, with a 0/0 guard returning 0."""
    denom = fro_norm(exact)
    diff = fro_norm(np.asarray(approx) - np.asarray(exact))
    if denom == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / denom


# ---------------------------------------------------------------------------
# local adjacency views


@dataclass
class LocalAdjView:
    """Frozen per-target slices of the normalized operator.

    Per target row the neighbors are split into a listed pool (resolved into
    the `source_rows` matrix handed to aggregate) and a pruned pool (resolved
    into `fallback_rows` when one is supplied, dropped otherwise).  Entry
    order per target: self-loop first, then CSR order; listed/pruned keep
    their relative order inside each pool.
    """

    targets: Array
    src_indptr: Array
    src_ids: Array
    src_w: Array
    prn_indptr: Array
    prn_ids: Array
    prn_w: Array

    @property
    def n_targets(self) -> int:
        return len(self.targets)

    @property
    def n_pruned(self) -> int:
        return int(self.prn_ids.size)

    @property
    def n_listed(self) -> int:
        return int(self.src_ids.size)


def build_local_view(adj: NormalizedAdjacency, targets, source_ids,
                     fallback_ids=None) -> LocalAdjView:
    """Restrict adj rows to `targets`, resolving neighbors against the sorted
    id pools `source_ids` (listed) and `fallback_ids` (pruned).

    Neighbors in neither pool are recorded as pruned with id -1; aggregate
    refuses to resolve them against a fallback matrix, they can only be
    dropped.  Both pools must be sorted ascending (positions become local
    row ids).
    """
    targets = np.asarray(targets, dtype=np.int64)
    source_ids = np.asarray(source_ids, dtype=np.int64)
    fb = None if fallback_ids is None else np.asarray(fallback_ids, dtype=np.int64)

    src_indptr = np.zeros(len(targets) + 1, dtype=np.int64)
    prn_indptr = np.zeros(len(targets) + 1, dtype=np.int64)
    src_ids_out, src_w_out, prn_ids_out, prn_w_out = [], [], [], []
    for t, node in enumerate(targets):
        ids, w = adj.row_entries(int(node))
        pos = np.searchsorted(source_ids, ids)
        pos_c = np.minimum(pos, len(source_ids) - 1) if len(source_ids) else pos * 0
        listed = (len(source_ids) > 0) & (source_ids[pos_c] == ids) if len(source_ids) \
            else np.zeros(len(ids), dtype=bool)
        src_ids_out.append(pos[listed])
        src_w_out.append(w[listed])
        rest_ids, rest_w = ids[~listed], w[~listed]
        if fb is not None and len(fb):
            fpos = np.searchsorted(fb, rest_ids)
            fpos_c = np.minimum(fpos, len(fb) - 1)
            infb = fb[fpos_c] == rest_ids
            resolved = np.where(infb, fpos, -1)
        else:
            resolved = np.full(len(rest_ids), -1, dtype=np.int64)
        prn_ids_out.append(resolved)
        prn_w_out.append(rest_w)
        src_indptr[t + 1] = src_indptr[t] + int(listed.sum())
        prn_indptr[t + 1] = prn_indptr[t] + len(rest_ids)

    cat = lambda chunks, dt: (np.concatenate(chunks).astype(dt) if chunks
                              else np.empty(0, dtype=dt))
    return LocalAdjView(
        targets,
        src_indptr, cat(src_ids_out, np.int64), cat(src_w_out, np.float64),
        prn_indptr, cat(prn_ids_out, np.int64), cat(prn_w_out, np.float64),
    )


def _segment_sum(prod: Array, indptr: Array, out: Array) -> Array:
    """Row-segment sums in fixed left-to-right order (reduceat is sequential
    inside each segment).  Empty segments stay zero."""
    counts = np.diff(indptr)
    nonempty = counts > 0
    if prod.shape[0]:
        starts = indptr[:-1][nonempty]
        out[nonempty] += np.add.reduceat(prod, starts, axis=0)
    return out


def aggregate(view: LocalAdjView, source_rows: Array,
              fallback_rows: Array | None = None, *,
              drop_pruned: bool = False) -> Array:
    """Weighted neighborhood sums for every view target.

    out[t] = sum_listed w * source_rows[id] + sum_pruned w * fallback_rows[id].
    Pruned entries are dropped when no fallback is given, which must be
    acknowledged with drop_pruned=True.
    """
    source_rows = np.asarray(source_rows, dtype=np.float64)
    d = source_rows.shape[1]
    out = np.zeros((view.n_targets, d))
    _segment_sum(view.src_w[:, None] * source_rows[view.src_ids],
                 view.src_indptr, out)
    if view.n_pruned:
        if fallback_rows is None:
            if not drop_pruned:
                raise ValueError(
                    "view has pruned neighbors; pass fallback_rows or "
                    "drop_pruned=True")
        else:
            if np.any(view.prn_ids < 0):
                raise ValueError("pruned neighbor outside the fallback pool")
            out = aggregate_pruned(view, fallback_rows, out=out)
    return out


def aggregate_listed(view: LocalAdjView, source_rows: Array) -> Array:
    """Listed-pool part of aggregate only (pruned neighbors ignored)."""
    source_rows = np.asarray(source_rows, dtype=np.float64)
    out = np.zeros((view.n_targets, source_rows.shape[1]))
    return _segment_sum(view.src_w[:, None] * source_rows[view.src_ids],
                        view.src_indptr, out)


def aggregate_pruned(view: LocalAdjView, fallback_rows: Array,
                     out: Array | None = None) -> Array:
    """Pruned-pool part of aggregate only (compensation terms)."""
    fallback_rows = np.asarray(fallback_rows, dtype=np.float64)
    if out is None:
        out = np.zeros((view.n_targets, fallback_rows.shape[1]))
    if view.n_pruned:
        ids = view.prn_ids
        keep = ids >= 0
        if keep.all():
            prod = view.prn_w[:, None] * fallback_rows[ids]
            _segment_sum(prod, view.prn_indptr, out)
        else:
            prod = np.where(keep[:, None],
                            view.prn_w[:, None] * fallback_rows[np.maximum(ids, 0)],
                            0.0)
            _segment_sum(prod, view.prn_indptr, out)
    return out


def full_view(adj: NormalizedAdjacency) -> LocalAdjView:
    """View with every node as target and every node listed; aggregate on it
    equals the dense normalized product.  Built on the first call for an
    adjacency and kept on it, so later calls return the same object.

    Equals build_local_view(adj, ids, ids) for ids = 0..n-1, but is read
    off the CSR arrays without a Python loop over rows: row i holds its
    self-loop at src_indptr[i] and its CSR neighbors after it."""
    if adj.full_view_memo is None:
        n = adj.n
        indptr = np.asarray(adj.indptr, dtype=np.int64)
        rows = np.arange(n, dtype=np.int64)
        src_indptr = indptr + np.arange(n + 1, dtype=np.int64)
        nbr_pos = (np.arange(indptr[-1], dtype=np.int64)
                   + np.repeat(rows, np.diff(indptr)) + 1)
        src_ids = np.empty(src_indptr[-1], dtype=np.int64)
        src_w = np.empty(src_indptr[-1], dtype=np.float64)
        src_ids[src_indptr[:-1]] = rows
        src_w[src_indptr[:-1]] = adj.diag
        src_ids[nbr_pos] = adj.indices
        src_w[nbr_pos] = adj.weights
        adj.full_view_memo = LocalAdjView(
            rows, src_indptr, src_ids, src_w, np.zeros(n + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    return adj.full_view_memo
