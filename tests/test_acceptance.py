"""End-to-end acceptance checks for the compensated training engine.

Each test prints one summary line (visible with pytest -s) and asserts the
frozen tolerance.  Budgets are wall-clock seconds on a stock container.
"""
import dataclasses
import time

import numpy as np

from conftest import random_graph
from lmcgnn.convnet import full_gradients, init_conv_params, loss_full
from lmcgnn.diagnostics import (elementwise_fd_err, enumerate_batches,
                                finite_diff, random_conv_instance,
                                random_rec_instance)
from lmcgnn.engine import (ZERO_SCHEDULE, BlendSchedule, ConvHistory,
                           backward_sgd_grads, gas_conv_step, lmc_conv_step)
from lmcgnn.graph import (Partition, batch_from_parts, build_graph,
                          normalized_adjacency, partition_random,
                          sample_minibatch)
from lmcgnn.kernels import matmul, softmax_xent
from lmcgnn.recnet import (DEFAULT_MAX_ITER, full_rec_gradients,
                           init_rec_params, project_wellposed, solve_forward)
from lmcgnn.report import OpCounter
from lmcgnn.trainer.config import RunConfig
from lmcgnn.trainer.data import gen_chain_label, gen_two_cluster
from lmcgnn.trainer.loop import init_model, run_diagnose, run_training


def _line(name, ok, detail):
    print(f"{name}: {detail} -> {'PASS' if ok else 'FAIL'}")


def test_conv_gradients_match_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        _, adj, X, labels, params = random_conv_instance(seed)
        _, _, _, cg = full_gradients(adj, X, labels, params)

        def loss_fn():
            return loss_full(adj, X, labels, params)[0]

        fd = finite_diff(loss_fn, params.blocks())
        worst = max(worst, elementwise_fd_err(fd, cg.grads))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dt < 10.0
    _line("conv gradient fd check", ok,
          f"worst elementwise rel err {worst:.3e} (bound 1e-05) in {dt:.1f}s")
    assert worst <= 1e-5
    assert dt < 10.0


def test_rec_gradients_match_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        _, adj, X, labels, params = random_rec_instance(seed)
        _, grads, _, _ = full_rec_gradients(adj, X, labels, params, 1e-12,
                                            DEFAULT_MAX_ITER * 4)

        def loss_fn():
            st = solve_forward(adj, X, params, 1e-12, DEFAULT_MAX_ITER * 4)
            return softmax_xent(matmul(st.H, params.w_out), labels, 1.0)[0]

        fd = finite_diff(loss_fn, params.blocks())
        worst = max(worst, elementwise_fd_err(fd, grads))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-3 and dt < 30.0
    _line("rec gradient fd check", ok,
          f"worst elementwise rel err {worst:.3e} (bound 1e-03) in {dt:.1f}s")
    assert worst <= 1e-3
    assert dt < 30.0


def test_minibatch_estimator_is_unbiased():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    g = random_graph(rng, 12, 0.3)
    adj = normalized_adjacency(g)
    X = rng.standard_normal((12, 3))
    labels = rng.integers(0, 3, size=12).astype(np.int64)
    labels[rng.permutation(12)[:3]] = -1
    params = init_conv_params(rng, 3, [4, 4], 3)
    part = partition_random(g, 4, seed=0)
    _, dlog, cache = loss_full(adj, X, labels, params)
    from lmcgnn.convnet import backward_full
    cg = backward_full(adj, cache, dlog, params)

    def grad_fn(batch):
        return backward_sgd_grads(batch, cache, cg, params, labels)[1]

    mean, count = enumerate_batches(g, part, 2, grad_fn, labels >= 0)
    diffs = mean.max_abs_diff(cg.grads)
    worst = max(diffs.values())
    dt = time.perf_counter() - t0
    ok = count == 6 and worst <= 1e-10 and dt < 5.0
    _line("estimator unbiasedness", ok,
          f"{count} batches, worst block diff {worst:.3e} (bound 1e-10) "
          f"in {dt:.1f}s")
    assert count == 6
    assert worst <= 1e-10
    assert dt < 5.0


def test_full_batch_collapse():
    t0 = time.perf_counter()
    ds = gen_two_cluster(60, 3, seed=0)
    base = dict(layers=2, hidden=8, lr=0.1, epochs=5, parts=4, clusters=4,
                partition="random", seed=0, tol=1e-10)

    def final_params(method, model=""):
        cfg = RunConfig(method=method, model=model, **base).finalize()
        return run_training(cfg, ds).params

    ref = final_params("gd")
    bitwise = all(np.array_equal(v, final_params("lmc-conv").blocks()[k])
                  for k, v in ref.blocks().items())
    gas_diff = max(np.abs(v - final_params("gas-conv").blocks()[k]).max()
                   for k, v in ref.blocks().items())
    clu_diff = max(np.abs(v - final_params("cluster").blocks()[k]).max()
                   for k, v in ref.blocks().items())
    rec_ref = final_params("gd", model="recgcn")
    rec_diff = max(np.abs(v - final_params("lmc-rec").blocks()[k]).max()
                   for k, v in rec_ref.blocks().items())
    dt = time.perf_counter() - t0
    ok = (bitwise and gas_diff <= 1e-10 and clu_diff <= 1e-10
          and rec_diff <= 1e-6 and dt < 10.0)
    _line("full-batch collapse", ok,
          f"lmc-conv bitwise={bitwise}, gas {gas_diff:.2e} and cluster "
          f"{clu_diff:.2e} (bound 1e-10), lmc-rec {rec_diff:.2e} "
          f"(bound 1e-06) in {dt:.1f}s")
    assert bitwise
    assert gas_diff <= 1e-10
    assert clu_diff <= 1e-10
    assert rec_diff <= 1e-6
    assert dt < 10.0


def _warm_conv_hist(seed, X, dims):
    rng = np.random.default_rng(seed)
    hist = ConvHistory.init(np.asarray(X, dtype=np.float64), dims)
    for l in range(1, len(hist.embed)):
        hist.embed[l][:] = rng.standard_normal(hist.embed[l].shape)
        hist.aux[l][:] = rng.standard_normal(hist.aux[l].shape)
    return hist


def test_zero_blend_restriction_reproduces_gas():
    identical = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        ds = gen_two_cluster(30, 3, seed=seed)
        g, adj = ds.graph, normalized_adjacency(ds.graph)
        labels = ds.train_labels
        n_lab = int((labels >= 0).sum())
        part = partition_random(g, 6, seed=seed)
        batch = sample_minibatch(g, part, 2, rng, labels >= 0)
        params_a = init_conv_params(rng, 3, [5, 5], 2)
        params_b = params_a.copy()
        hist_a = _warm_conv_hist(seed, ds.X, params_a.dims)
        hist_b = _warm_conv_hist(seed, ds.X, params_b.dims)
        rep_a = gas_conv_step(adj, g, ds.X, labels, n_lab, batch, params_a,
                              hist_a, lr=0.05, step=seed)
        rep_b = lmc_conv_step(adj, g, ds.X, labels, n_lab, batch, params_b,
                              hist_b, ZERO_SCHEDULE, lr=0.05, step=seed,
                              zero_backward=True)
        same = rep_a.loss == rep_b.loss
        same &= max(rep_a.grads.max_abs_diff(rep_b.grads).values()) == 0.0
        same &= all(np.array_equal(a, b)
                    for a, b in zip(hist_a.embed, hist_b.embed))
        same &= all(np.array_equal(a, b)
                    for a, b in zip(hist_a.aux[1:], hist_b.aux[1:]))
        same &= all(np.array_equal(v, params_b.blocks()[k])
                    for k, v in params_a.blocks().items())
        identical += bool(same)
    ok = identical == 20
    _line("gas restriction identity", ok,
          f"{identical}/20 random steps bitwise identical")
    assert identical == 20


def test_compensation_shrinks_gradient_bias():
    t0 = time.perf_counter()
    ds = gen_two_cluster(400, 8, 1, noise=1.0, flip=0.15)
    base = dict(layers=4, hidden=8, lr=0.035, epochs=200, parts=8,
                clusters=2, partition="random", seed=1)
    diag_cfg = RunConfig(method="gd", model="gcn", **base).finalize()
    lmc_err = np.nanmean(run_diagnose(diag_cfg, ds, "lmc-conv")
                         .column("grad_rel_err"))
    gas_err = np.nanmean(run_diagnose(diag_cfg, ds, "gas-conv")
                         .column("grad_rel_err"))
    ratio = float(lmc_err / gas_err)

    adj = normalized_adjacency(ds.graph)

    def train_loss(method):
        cfg = RunConfig(method=method, **base).finalize()
        res = run_training(cfg, ds)
        return loss_full(adj, ds.X, ds.train_labels, res.params)[0]

    l_lmc = train_loss("lmc-conv")
    l_gd = train_loss("gd")
    gap = abs(l_lmc - l_gd) / l_gd
    dt = time.perf_counter() - t0
    ok = ratio <= 0.9 and gap <= 0.02 and dt < 180.0
    _line("compensation bias decay", ok,
          f"mean rel grad err ratio lmc/gas {ratio:.4f} (bound 0.9), "
          f"final loss gap {gap:.4f} (bound 0.02) in {dt:.0f}s")
    assert ratio <= 0.9
    assert gap <= 0.02
    assert dt < 180.0


def test_rec_history_error_tracks_step_size():
    t0 = time.perf_counter()
    ds = gen_chain_label(200, 4, 3, chain_len=4, amp=1.0, noise=0.05,
                         flip=0.49)

    def trace(lr):
        cfg = RunConfig(method="gd", model="recgcn", hidden=16, lr=lr,
                        epochs=200, parts=8, clusters=2,
                        partition="clustered", seed=3).finalize()
        return run_diagnose(cfg, ds, "lmc-rec")

    tr_big, tr_small = trace(0.12), trace(0.06)

    def epoch_bins(tr, col):
        vals = tr.column(col)
        n = vals.size // 4 * 4  # 4 steps per epoch
        return vals[:n].reshape(-1, 4).mean(axis=1)

    def plateau(bins):
        return float(bins[-(len(bins) // 4):].mean())

    ratios = {}
    rises_ok = True
    for col in ("d_h", "d_v"):
        big, small = epoch_bins(tr_big, col), epoch_bins(tr_small, col)
        ratios[col] = plateau(big) / plateau(small)
        for bins in (big, small):
            rises_ok &= float(np.diff(bins[1:]).max()) <= 0.1 * bins.max()
    dt = time.perf_counter() - t0
    ok = (all(1.5 <= r <= 3.0 for r in ratios.values()) and rises_ok
          and dt < 180.0)
    _line("rec history error vs step size", ok,
          f"halving lr shrinks plateaus by d_h {ratios['d_h']:.2f} / "
          f"d_v {ratios['d_v']:.2f} (bounds [1.5, 3.0]), "
          f"nonincreasing={rises_ok} in {dt:.0f}s")
    for r in ratios.values():
        assert 1.5 <= r <= 3.0
    assert rises_ok
    assert dt < 180.0


def test_projection_guarantees_convergence():
    worst_ratio = 0.0
    worst_iters = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 30))
        g = random_graph(rng, n, 0.2)
        adj = normalized_adjacency(g)
        X = rng.standard_normal((n, 3))
        params = init_rec_params(rng, 3, 6, 2, kappa=0.95)
        params.W[:] = rng.standard_normal(params.W.shape) * 3.0
        params.W[:] = project_wellposed(params.W, 0.95)
        st = solve_forward(adj, X, params, 1e-10, 500)
        assert st.converged
        worst_iters = max(worst_iters, st.iters)
        res = np.asarray(st.residuals)
        if res.size >= 4:
            tail = res[2:]
            good = tail[:-1] > 0
            worst_ratio = max(worst_ratio,
                              float((tail[1:][good] / tail[:-1][good]).max()))
    ok = worst_iters <= 500 and worst_ratio <= 0.96
    _line("projected solves converge", ok,
          f"50 instances, max iters {worst_iters} (bound 500), worst decay "
          f"ratio {worst_ratio:.3f} (bound 0.96)")
    assert worst_iters <= 500
    assert worst_ratio <= 0.96


def test_training_reaches_stationarity():
    worst_conv = 0.0
    for seed in range(5):
        ds = gen_two_cluster(200, 8, seed, noise=0.3)
        cfg = RunConfig(method="lmc-conv", layers=2, hidden=16, lr=0.1,
                        epochs=300, parts=8, clusters=2, partition="random",
                        seed=seed).finalize()
        adj = normalized_adjacency(ds.graph)
        params0, _ = init_model(cfg, ds)
        g0 = full_gradients(adj, ds.X, ds.train_labels, params0)[3].grads.norm()
        res = run_training(cfg, ds)
        g1 = full_gradients(adj, ds.X, ds.train_labels,
                            res.params)[3].grads.norm()
        worst_conv = max(worst_conv, g1 / g0)

    worst_rec = 0.0
    for seed in range(5):
        ds = gen_chain_label(200, 4, seed, chain_len=4, amp=4.0, noise=0.05)
        cfg = RunConfig(method="lmc-rec", hidden=16, lr=0.2, epochs=300,
                        parts=8, clusters=2, partition="clustered",
                        seed=seed).finalize()
        adj = normalized_adjacency(ds.graph)
        params0, _ = init_model(cfg, ds)

        def gnorm(params):
            return full_rec_gradients(adj, ds.X, ds.train_labels, params,
                                      1e-12, DEFAULT_MAX_ITER * 4)[1].norm()

        g0 = gnorm(params0)
        res = run_training(cfg, ds)
        worst_rec = max(worst_rec, gnorm(res.params) / g0)
    ok = worst_conv <= 0.05 and worst_rec <= 0.05
    _line("training reaches stationarity", ok,
          f"worst final/initial grad norm conv {worst_conv:.4f}, "
          f"rec {worst_rec:.4f} (bound 0.05, 5 seeds each)")
    assert worst_conv <= 0.05
    assert worst_rec <= 0.05


def test_step_cost_is_local_to_batch():
    ds = gen_two_cluster(40, 4, seed=0)
    g0 = ds.graph
    edges = [(i, int(j)) for i in range(g0.n) for j in g0.neighbors(i)
             if j > i]
    pad = 10 * g0.n
    g1 = build_graph(g0.n + pad, np.asarray(edges, dtype=np.int64))
    rng = np.random.default_rng(1)
    X1 = np.vstack([ds.X, rng.standard_normal((pad, 4))])
    labels0 = ds.train_labels
    labels1 = np.concatenate([labels0, np.full(pad, -1, dtype=np.int64)])
    n_lab = int((labels0 >= 0).sum())

    p0 = partition_random(g0, 4, seed=0)
    part_of1 = np.concatenate([p0.part_of,
                               np.full(pad, 4, dtype=np.int64)])
    p1 = Partition(5, [np.flatnonzero(part_of1 == b) for b in range(5)],
                   part_of1)
    b0 = batch_from_parts(g0, p0, (0, 1), labels0 >= 0)
    b1 = batch_from_parts(g1, p1, (0, 1), labels1 >= 0)
    assert np.array_equal(b0.core, b1.core)
    assert np.array_equal(b0.halo1, b1.halo1)

    sched = BlendSchedule(0.4, "2x-x2")

    def run(adj, g, X, labels, batch, steps=30):
        rng = np.random.default_rng(2)
        params = init_conv_params(rng, 4, [8, 8], 2)
        hist = ConvHistory.init(np.asarray(X, dtype=np.float64), params.dims)
        counter = OpCounter()
        counts, times = [], []
        for t in range(steps):
            t0 = time.perf_counter()
            lmc_conv_step(adj, g, X, labels, n_lab, batch, params, hist,
                          sched, lr=0.05, step=t, counter=counter)
            times.append(time.perf_counter() - t0)
            counts.append(dataclasses.asdict(counter))
        return counts, times

    counts0, times0 = run(normalized_adjacency(g0), g0, ds.X, labels0, b0)
    counts1, times1 = run(normalized_adjacency(g1), g1, X1, labels1, b1)
    differing = sorted({f for a, b in zip(counts0, counts1)
                        for f in a if a[f] != b[f]})
    ratio = float(np.median(times1[3:]) / np.median(times0[3:]))
    ok = not differing and ratio <= 1.25
    _line("per-step cost is local", ok,
          f"10x padding: OpCounter fields differing {differing or 'none'} "
          f"(bound none), wall ratio {ratio:.2f} (bound 1.25)")
    assert counts0[0]["embed_rows_written"] > 0
    assert counts0 == counts1
    assert ratio <= 1.25


def test_small_batches_stay_accurate():
    t0 = time.perf_counter()
    medians = {}
    for method in ("lmc-conv", "gas-conv", "cluster"):
        accs = []
        for seed in range(5):
            ds = gen_two_cluster(400, 8, seed, deg_in=6.0, deg_out=4.0,
                                 noise=2.0)
            cfg = RunConfig(method=method, layers=2, hidden=16, lr=0.1,
                            epochs=100, parts=8, clusters=1,
                            partition="clustered", seed=seed).finalize()
            accs.append(run_training(cfg, ds).accs["test"])
        medians[method] = float(np.median(accs))
    dt = time.perf_counter() - t0
    ok = (medians["lmc-conv"] >= medians["gas-conv"]
          and medians["lmc-conv"] >= medians["cluster"] + 0.02
          and dt < 300.0)
    _line("single-part batches stay accurate", ok,
          f"median test acc lmc {medians['lmc-conv']:.3f} vs gas "
          f"{medians['gas-conv']:.3f} and cluster {medians['cluster']:.3f} "
          f"(+0.02 margin) in {dt:.0f}s")
    assert medians["lmc-conv"] >= medians["gas-conv"]
    assert medians["lmc-conv"] >= medians["cluster"] + 0.02
    assert dt < 300.0
