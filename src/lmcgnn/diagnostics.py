"""Verification instruments: finite differences, exhaustive batch
enumeration, history-error tracking, and random well-conditioned instances.

These are the oracles the tests and the CLI check subcommands lean on; they
only ever go through public model surfaces.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .convnet import full_gradients, init_conv_params
from .gradset import GradSet
from .graph import Graph, Partition, batch_from_parts, build_graph, normalized_adjacency
from .kernels import fro_norm
from .recnet import DEFAULT_MAX_ITER, full_rec_gradients, init_rec_params

Array = np.ndarray

FD_EPS = 1e-5
KINK_GUARD = 1e-6
# Sampler guards.  A +-FD_EPS probe shifts pre-activations by up to about
# FD_EPS times an O(1) activation, so masks stay fixed only with a kink
# margin comfortably above that; and central differences carry ~1e-11
# absolute noise, so relative comparisons need nonzero gradient entries
# clear of that floor.  (Exact zeros are fine: with frozen masks their
# finite difference is exactly zero too.)
KINK_MARGIN = 1e-4
GRAD_GUARD = 2e-5
ENUM_LIMIT = 100_000


def finite_diff(loss_fn, blocks: dict, eps: float = FD_EPS) -> GradSet:
    """Central finite differences of loss_fn() through every entry of every
    parameter block (perturbed in place and restored)."""
    out = {}
    for name, arr in blocks.items():
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = loss_fn()
            flat[i] = orig - eps
            f_minus = loss_fn()
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * eps)
        out[name] = g
    return GradSet(out)


def elementwise_fd_err(fd: GradSet, analytic: GradSet, floor: float = 1e-12) -> float:
    """max over entries of |fd - analytic| / (|analytic| + floor)."""
    worst = 0.0
    for name, a in analytic:
        f = fd[name]
        worst = max(worst, float(np.max(np.abs(f - a) / (np.abs(a) + floor))))
    return worst


# ---------------------------------------------------------------------------
# random well-conditioned instances (pre-activations kept away from the
# relu kink so +-eps probes cannot flip masks)


def _random_graph(rng: np.random.Generator, n: int, p_edge: float) -> Graph:
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p_edge:
                edges.add((u, v))
    for u in range(n - 1):  # spanning path keeps the instance connected
        edges.add((u, u + 1))
    return build_graph(n, np.asarray(sorted(edges), dtype=np.int64))


def random_conv_instance(seed: int, n: int = 20, L: int = 3, d: int = 4,
                         n_classes: int = 3, p_edge: float = 0.25,
                         max_tries: int = 50):
    """Random connected graph + features + labels + params with every
    pre-activation at least KINK_MARGIN from the relu kink and every
    nonzero gradient entry at least GRAD_GUARD in magnitude (resampled
    otherwise)."""
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        g = _random_graph(rng, n, p_edge)
        adj = normalized_adjacency(g)
        X = rng.standard_normal((n, d))
        labels = rng.integers(0, n_classes, size=n).astype(np.int64)
        params = init_conv_params(rng, d, [d] * L, n_classes)
        _, _, cache, cg = full_gradients(adj, X, labels, params)
        zmin = min(float(np.min(np.abs(cache.agg[l] @ params.weights[l - 1])))
                   for l in range(1, L + 1))
        if zmin >= KINK_MARGIN and _nonzero_grad_floor(cg.grads) >= GRAD_GUARD:
            return g, adj, X, labels, params
    raise RuntimeError("could not sample a well-conditioned instance")


def _nonzero_grad_floor(grads: GradSet) -> float:
    nonzero = [np.abs(v[v != 0.0]) for _, v in grads]
    return min((float(a.min()) for a in nonzero if a.size),
               default=float("inf"))


def random_rec_instance(seed: int, n: int = 10, d: int = 4, n_classes: int = 2,
                        d_in: int = 3, kappa: float = 0.8, p_edge: float = 0.3,
                        tol: float = 1e-12, max_tries: int = 50):
    """Random instance for the fixed-point model with pre-activations at the
    solved equilibrium clear of the relu kink and nonzero gradient entries
    clear of the finite-difference noise floor."""
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        g = _random_graph(rng, n, p_edge)
        adj = normalized_adjacency(g)
        X = rng.standard_normal((n, d_in))
        labels = rng.integers(0, n_classes, size=n).astype(np.int64)
        params = init_rec_params(rng, d_in, d, n_classes, kappa)
        params.c = rng.standard_normal(d) * 0.3
        _, grads, state, _ = full_rec_gradients(adj, X, labels, params, tol,
                                                DEFAULT_MAX_ITER * 4)
        if (float(np.min(np.abs(state.Z))) >= KINK_MARGIN
                and _nonzero_grad_floor(grads) >= GRAD_GUARD):
            return g, adj, X, labels, params
    raise RuntimeError("could not sample a well-conditioned instance")


# ---------------------------------------------------------------------------
# exhaustive batch enumeration


def enumerate_batches(g: Graph, p: Partition, c: int, grad_fn,
                      labeled_mask=None):
    """Mean GradSet of grad_fn(batch) over all C(B, c) cluster subsets.

    Guarded at ENUM_LIMIT combinations.  Every subset receives the same
    weight, matching uniform without-replacement sampling.
    """
    total = math.comb(p.B, c)
    if total > ENUM_LIMIT:
        raise ValueError(f"{total} batches exceed the enumeration guard "
                         f"({ENUM_LIMIT})")
    mean: GradSet | None = None
    count = 0
    for ids in itertools.combinations(range(p.B), c):
        batch = batch_from_parts(g, p, ids, labeled_mask)
        gs = grad_fn(batch)
        if mean is None:
            mean = GradSet.zeros_like(gs)
        mean.add_scaled(gs, 1.0)
        count += 1
    assert mean is not None and count == total
    mean.scale(1.0 / count)
    return mean, count


# ---------------------------------------------------------------------------
# history-error tracking


@dataclass
class ErrorTrace:
    """Per-step diagnostic rows written by the paired error runs."""

    rows: list = field(default_factory=list)

    COLUMNS = ("step", "loss", "grad_rel_err", "d_h", "d_v",
               "touched_rows", "wall_ms")

    def append(self, step: int, loss: float, grad_rel_err: float, d_h: float,
               d_v: float, touched_rows: int, wall_ms: float) -> None:
        self.rows.append({"step": step, "loss": loss,
                          "grad_rel_err": grad_rel_err, "d_h": d_h,
                          "d_v": d_v, "touched_rows": touched_rows,
                          "wall_ms": wall_ms})

    def column(self, name: str) -> np.ndarray:
        return np.array([row[name] for row in self.rows], dtype=np.float64)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.DictWriter(fh, fieldnames=self.COLUMNS)
            w.writeheader()
            for row in self.rows:
                w.writerow({k: repr(row[k]) if isinstance(row[k], float)
                            else row[k] for k in self.COLUMNS})


def _stacked_rel_err(approx_list, exact_list) -> float:
    num = math.sqrt(sum(fro_norm(a - e) ** 2 for a, e in zip(approx_list, exact_list)))
    den = math.sqrt(sum(fro_norm(e) ** 2 for e in exact_list))
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


def history_errors(embed, aux, embed_exact, aux_exact) -> tuple:
    """(d_h, d_v): stacked relative errors of per-layer embedding and
    pullback rows against their exact values."""
    return (_stacked_rel_err(embed, embed_exact),
            _stacked_rel_err(aux, aux_exact))
