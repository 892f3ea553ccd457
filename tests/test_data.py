"""Synthetic dataset generators, disk format, loader validation."""
import filecmp

import numpy as np
import pytest

from conftest import ref_gen_two_cluster
from lmcgnn.trainer import data
from lmcgnn.trainer.config import ConfigError
from lmcgnn.trainer.data import (Dataset, gen_chain_label, gen_synthetic,
                                 gen_two_cluster, load_dataset, save_dataset)


def test_split_is_half_quarter_quarter():
    ds = gen_two_cluster(101, 4, seed=0)
    assert int(ds.train_mask.sum()) == 50
    assert int(ds.val_mask.sum()) == 25
    assert int(ds.test_mask.sum()) == 101 - 50 - 25
    # masks cover every node exactly once
    total = (ds.train_mask.astype(int) + ds.val_mask.astype(int)
             + ds.test_mask.astype(int))
    assert np.array_equal(total, np.ones(101, dtype=int))


def test_generators_are_seed_deterministic(tmp_path):
    a = gen_two_cluster(60, 3, seed=5)
    b = gen_two_cluster(60, 3, seed=5)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.graph.indices, b.graph.indices)
    save_dataset(tmp_path / "a", a)
    save_dataset(tmp_path / "b", b)
    for name in ("edges.tsv", "features.csv", "labels.csv", "split.csv"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False)


def _assert_same_dataset(want, got):
    assert want.graph.n == got.graph.n
    for name in ("indptr", "indices"):
        a, b = getattr(want.graph, name), getattr(got.graph, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in ("X", "labels", "train_mask", "val_mask", "test_mask"):
        a, b = getattr(want, name), getattr(got, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("n, block", [(4, None), (5, None), (64, None),
                                      (1500, None), (64, 1), (64, 100),
                                      (37, 35)])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_two_cluster_blocks_match_all_pairs_draw(monkeypatch, n, block, seed):
    """Drawing the pairs in row blocks gives the all-pairs dataset bit for
    bit (edges, features, labels, splits): one block, n = 1500 past the
    first block edge, a block per row, rows longer than a block."""
    if block is not None:
        monkeypatch.setattr(data, "_PAIR_BLOCK", block)
    knobs = dict(deg_in=3.0, deg_out=2.0, flip=0.1)
    _assert_same_dataset(ref_gen_two_cluster(n, 3, seed, **knobs),
                         gen_two_cluster(n, 3, seed, **knobs))


def test_two_cluster_flip_count():
    base = gen_two_cluster(200, 4, seed=1)
    flipped = gen_two_cluster(200, 4, seed=1, flip=0.15)
    assert np.array_equal(base.X, flipped.X)
    assert int((base.labels != flipped.labels).sum()) == round(0.15 * 200)


def test_flip_range_is_validated():
    for bad in (0.5, 0.7, -0.01):
        with pytest.raises(ConfigError, match="flip"):
            gen_two_cluster(40, 3, seed=0, flip=bad)
        with pytest.raises(ConfigError, match="flip"):
            gen_chain_label(40, 3, seed=0, flip=bad)


def test_chain_graph_is_disjoint_paths():
    ds = gen_chain_label(48, 4, seed=2, chain_len=8)
    g = ds.graph
    assert g.n_edges == 48 - 48 // 8  # path edges per chain
    assert g.degrees.max() == 2
    # labels constant along each chain
    for lo in range(0, 48, 8):
        assert len(set(ds.labels[lo:lo + 8].tolist())) == 1


def test_chain_flip_flips_whole_chains():
    base = gen_chain_label(64, 4, seed=3, chain_len=8)
    flipped = gen_chain_label(64, 4, seed=3, chain_len=8, flip=0.25)
    diff = base.labels != flipped.labels
    assert int(diff.sum()) == 8 * round(0.25 * 8)  # 2 of 8 chains
    for lo in range(0, 64, 8):
        assert diff[lo:lo + 8].all() or not diff[lo:lo + 8].any()


def test_gen_synthetic_dispatch():
    ds = gen_synthetic("two-cluster", 30, 3, 0, deg_in=5.0)
    assert isinstance(ds, Dataset) and ds.n == 30
    with pytest.raises(ConfigError, match="unknown synthetic kind"):
        gen_synthetic("ring", 30, 3, 0)


def test_dataset_round_trip(tmp_path):
    ds = gen_chain_label(40, 3, seed=4, chain_len=4)
    save_dataset(tmp_path / "d", ds)
    back = load_dataset(str(tmp_path / "d"))
    assert np.array_equal(back.X, ds.X)  # repr round-trips floats exactly
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.train_mask, ds.train_mask)
    assert np.array_equal(back.val_mask, ds.val_mask)
    assert np.array_equal(back.test_mask, ds.test_mask)
    assert np.array_equal(back.graph.indptr, ds.graph.indptr)
    assert np.array_equal(back.graph.indices, ds.graph.indices)


def _write_dataset(root, features="0.0,1.0\n1.0,0.0\n0.5,0.5\n",
                   edges="0\t1\n1\t2\n", labels="0,0\n1,1\n2,1\n",
                   split="0,train\n1,train\n2,val\n"):
    root.mkdir(exist_ok=True)
    (root / "features.csv").write_text(features)
    (root / "edges.tsv").write_text(edges)
    (root / "labels.csv").write_text(labels)
    (root / "split.csv").write_text(split)
    return str(root)


def test_loader_happy_path(tmp_path):
    ds = load_dataset(_write_dataset(tmp_path / "d"))
    assert ds.n == 3 and ds.n_classes == 2
    assert ds.train_labels.tolist() == [0, 1, -1]


def test_loader_error_cases(tmp_path):
    with pytest.raises(ConfigError, match="missing features.csv"):
        root = tmp_path / "m"
        root.mkdir()
        (root / "edges.tsv").write_text("")
        load_dataset(str(root))
    cases = [
        (dict(features="0.0,x\n1.0,0.0\n0.5,0.5\n"), "non-numeric feature"),
        (dict(features="0.0\n1.0,0.0\n0.5,0.5\n"), "ragged feature row"),
        (dict(labels="0,0\n7,1\n"), "node id out of range"),
        (dict(labels="0,0\n0,1\n2,1\n"), "duplicate label"),
        (dict(labels="0,0\nbad,1\n"), "bad node id"),
        (dict(labels="0,0\n1,oops\n"), "bad class id"),
        (dict(split="0,train\n1,holdout\n"), "unknown split tag"),
        (dict(labels="0,0\n1,0\n2,0\n"), "at least two classes"),
        (dict(split="0,val\n1,val\n2,val\n"), "no labeled train"),
        (dict(edges="0\t1\n1\t2\n0\t1\n"), "duplicate edge"),
    ]
    for idx, (kw, msg) in enumerate(cases):
        root = _write_dataset(tmp_path / f"c{idx}", **kw)
        with pytest.raises(ConfigError, match=msg):
            load_dataset(root)


def test_accuracy_respects_mask():
    ds = gen_two_cluster(40, 3, seed=6)
    pred = ds.labels.copy()
    assert ds.accuracy(pred, np.ones(40, dtype=bool)) == 1.0
    wrong = 1 - ds.labels
    assert ds.accuracy(wrong, ds.test_mask) == 0.0
