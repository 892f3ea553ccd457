"""Dataset directory format, loaders, and synthetic generators.

A dataset directory holds four plain-text files, no headers:

* ``edges.tsv``      one undirected edge per line, ``u<TAB>v``
* ``features.csv``   one node per line, comma-separated floats
* ``labels.csv``     ``node,class`` for every labeled node
* ``split.csv``      ``node,train|val|test``

Node ids are row indices into features.csv.  Nodes missing from
labels.csv are unlabeled; nodes missing from split.csv belong to no
split.  The loss is taken over labeled nodes in the train split.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..graph import Graph, build_graph, read_edge_list, write_edge_list
from .config import ConfigError

Array = np.ndarray

SPLIT_TAGS = ("train", "val", "test")


@dataclass
class Dataset:
    graph: Graph
    X: Array
    labels: Array          # (n,) int64, -1 where unlabeled
    train_mask: Array
    val_mask: Array
    test_mask: Array

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def d_x(self) -> int:
        return self.X.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def train_labels(self) -> Array:
        """Labels restricted to the train split, -1 elsewhere."""
        out = np.where(self.train_mask, self.labels, -1)
        return out.astype(np.int64)

    @property
    def n_labeled_train(self) -> int:
        return int(np.count_nonzero(self.train_labels >= 0))

    def accuracy(self, pred: Array, mask: Array) -> float:
        """Fraction of labeled nodes under `mask` predicted correctly."""
        sel = mask & (self.labels >= 0)
        if not np.any(sel):
            return float("nan")
        return float(np.mean(pred[sel] == self.labels[sel]))


def _read_features(path: str) -> Array:
    rows = []
    width = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: non-numeric feature") from None
            if width < 0:
                width = len(row)
            elif len(row) != width:
                raise ConfigError(f"{path}:{lineno}: ragged feature row")
            rows.append(row)
    if not rows:
        raise ConfigError(f"{path}: no feature rows")
    return np.asarray(rows, dtype=np.float64)


def _read_pairs(path: str, n: int, what: str):
    """Yield (node, token) int/str pairs from a two-column csv."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ConfigError(f"{path}:{lineno}: expected node,{what}")
            try:
                node = int(parts[0])
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad node id") from None
            if not 0 <= node < n:
                raise ConfigError(f"{path}:{lineno}: node id out of range")
            out.append((lineno, node, parts[1].strip()))
    return out


def load_dataset(path: str) -> Dataset:
    for name in ("edges.tsv", "features.csv", "labels.csv", "split.csv"):
        if not os.path.isfile(os.path.join(path, name)):
            raise ConfigError(f"dataset {path} is missing {name}")
    X = _read_features(os.path.join(path, "features.csv"))
    n = X.shape[0]
    try:
        graph = read_edge_list(os.path.join(path, "edges.tsv"), n=n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    labels = np.full(n, -1, dtype=np.int64)
    seen = set()
    lpath = os.path.join(path, "labels.csv")
    for lineno, node, tok in _read_pairs(lpath, n, "class"):
        try:
            cls = int(tok)
        except ValueError:
            raise ConfigError(f"{lpath}:{lineno}: bad class id") from None
        if cls < 0:
            raise ConfigError(f"{lpath}:{lineno}: class id must be >= 0")
        if node in seen:
            raise ConfigError(f"{lpath}:{lineno}: duplicate label for node {node}")
        seen.add(node)
        labels[node] = cls

    masks = {tag: np.zeros(n, dtype=bool) for tag in SPLIT_TAGS}
    seen = set()
    spath = os.path.join(path, "split.csv")
    for lineno, node, tok in _read_pairs(spath, n, "split"):
        if tok not in SPLIT_TAGS:
            raise ConfigError(f"{spath}:{lineno}: unknown split tag {tok!r}")
        if node in seen:
            raise ConfigError(f"{spath}:{lineno}: duplicate split for node {node}")
        seen.add(node)
        masks[tok][node] = True

    ds = Dataset(graph, X, labels, masks["train"], masks["val"], masks["test"])
    if labels.max() < 1:
        raise ConfigError(f"dataset {path} needs at least two classes")
    if ds.n_labeled_train == 0:
        raise ConfigError(f"dataset {path} has no labeled train nodes")
    return ds


def save_dataset(path: str, ds: Dataset) -> None:
    os.makedirs(path, exist_ok=True)
    write_edge_list(ds.graph, os.path.join(path, "edges.tsv"))
    with open(os.path.join(path, "features.csv"), "w", encoding="utf-8") as fh:
        for row in ds.X:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    with open(os.path.join(path, "labels.csv"), "w", encoding="utf-8") as fh:
        for node in np.flatnonzero(ds.labels >= 0):
            fh.write(f"{node},{ds.labels[node]}\n")
    with open(os.path.join(path, "split.csv"), "w", encoding="utf-8") as fh:
        for tag, mask in (("train", ds.train_mask), ("val", ds.val_mask),
                          ("test", ds.test_mask)):
            for node in np.flatnonzero(mask):
                fh.write(f"{node},{tag}\n")


# ---------------------------------------------------------------------------
# synthetic datasets


def _random_split(n: int, rng) -> tuple:
    """50/25/25 train/val/test over a seeded permutation."""
    perm = rng.permutation(n)
    n_tr = n // 2
    n_va = n // 4
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    train[perm[:n_tr]] = True
    val[perm[n_tr:n_tr + n_va]] = True
    test[perm[n_tr + n_va:]] = True
    return train, val, test


# Node pairs per block of rows that gen_two_cluster draws at once.
_PAIR_BLOCK = 1 << 20


def _upper_pair_blocks(n: int):
    """The pairs (i, j), i < j < n, in the row-major order of
    np.triu_indices(n, k=1), as (iu, ju) blocks of whole rows holding about
    _PAIR_BLOCK pairs each (a longer row is a block of its own)."""
    ends = np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64))
    r0 = 0
    while r0 < n - 1:
        start = int(ends[r0 - 1]) if r0 else 0
        r1 = max(r0 + 1, int(np.searchsorted(ends, start + _PAIR_BLOCK,
                                             side="right")))
        rows = np.arange(r0, r1, dtype=np.int64)
        counts = n - 1 - rows
        iu = np.repeat(rows, counts)
        # row i's pairs start at block offset first[i], with j = i + 1 there
        first = np.cumsum(counts) - counts
        ju = np.arange(iu.size, dtype=np.int64) + np.repeat(rows + 1 - first,
                                                            counts)
        yield iu, ju
        r0 = r1


def gen_two_cluster(n: int, d_x: int, seed: int, *, deg_in: float = 8.0,
                    deg_out: float = 1.0, sep: float = 1.0,
                    noise: float = 1.0, flip: float = 0.0) -> Dataset:
    """Two communities, label = community.

    Intra-community edge probability targets mean degree `deg_in`,
    inter-community `deg_out`.  Features are the community mean
    (+-sep/sqrt(d_x) per coordinate) plus isotropic noise.  `flip`
    mislabels that fraction of nodes, putting a floor under the
    attainable training loss.

    Every node pair draws one uniform, in the row-major order of the upper
    triangle.  The pairs are walked in blocks of rows, so peak memory
    grows with n + edges + _PAIR_BLOCK, not with n^2, while the draws and
    the dataset are those of drawing all n(n-1)/2 uniforms at once.
    """
    if n < 4:
        raise ConfigError("two-cluster needs n >= 4")
    if not 0.0 <= flip < 0.5:
        raise ConfigError("flip must lie in [0, 0.5)")
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int64)
    labels[n // 2:] = 1
    p_in = min(1.0, deg_in / max(1, n // 2 - 1))
    p_out = min(1.0, deg_out / max(1, n - n // 2))
    edges = []
    for iu, ju in _upper_pair_blocks(n):
        p = np.where(labels[iu] == labels[ju], p_in, p_out)
        keep = rng.random(p.shape) < p
        edges.append(np.stack([iu[keep], ju[keep]], axis=1))
    edges = np.concatenate(edges)
    mu = sep / np.sqrt(d_x)
    X = noise * rng.standard_normal((n, d_x))
    X[labels == 0] += mu
    X[labels == 1] -= mu
    if flip > 0.0:
        hit = rng.permutation(n)[: int(round(flip * n))]
        labels[hit] = 1 - labels[hit]
    train, val, test = _random_split(n, rng)
    return Dataset(build_graph(n, edges), X, labels, train, val, test)


def gen_chain_label(n: int, d_x: int, seed: int, *, chain_len: int = 8,
                    amp: float = 3.0, noise: float = 0.1,
                    flip: float = 0.0) -> Dataset:
    """Disjoint path graphs; only the head node of each chain carries the
    class signal, every node inherits the chain's label.

    Classifying tail nodes requires propagating information farther than
    a shallow receptive field reaches, so fixed-depth models plateau near
    chance on them while equilibrium models do not.  `flip` mislabels
    that fraction of whole chains (head features keep the true class),
    putting a floor under the attainable training loss.
    """
    if d_x < 2:
        raise ConfigError("chain-label needs d_x >= 2")
    if chain_len < 2:
        raise ConfigError("chain-label needs chain_len >= 2")
    if n < 2 * chain_len:
        raise ConfigError("chain-label needs at least two chains")
    if not 0.0 <= flip < 0.5:
        raise ConfigError("flip must lie in [0, 0.5)")
    rng = np.random.default_rng(seed)
    edges = []
    labels = np.zeros(n, dtype=np.int64)
    heads = []
    spans = []
    chain = 0
    start = 0
    while start < n:
        stop = min(n, start + chain_len)
        heads.append(start)
        spans.append((start, stop))
        labels[start:stop] = chain % 2
        for u in range(start, stop - 1):
            edges.append((u, u + 1))
        chain += 1
        start = stop
    X = noise * rng.standard_normal((n, d_x))
    for h in heads:
        X[h, labels[h]] += amp
    if flip > 0.0:
        hit = rng.permutation(len(spans))[: int(round(flip * len(spans)))]
        for k in hit:
            lo, hi = spans[k]
            labels[lo:hi] = 1 - labels[lo:hi]
    train, val, test = _random_split(n, rng)
    return Dataset(build_graph(n, np.asarray(edges, dtype=np.int64)),
                   X, labels, train, val, test)


GEN_KINDS = ("two-cluster", "chain-label")


def gen_synthetic(kind: str, n: int, d_x: int, seed: int, **knobs) -> Dataset:
    if kind == "two-cluster":
        return gen_two_cluster(n, d_x, seed, **knobs)
    if kind == "chain-label":
        return gen_chain_label(n, d_x, seed, **knobs)
    raise ConfigError(f"unknown synthetic kind {kind!r}")
