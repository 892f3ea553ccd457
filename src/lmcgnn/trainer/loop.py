"""Training and diagnostic loops shared by the CLI and the tests.

The loop owns model init, the partition, the batch schedule, metric rows,
and full-graph evaluation.  One metrics row is written per optimization
step and carries the latest evaluation; the model is evaluated before the
first step, after the last step of every `eval_every`-th epoch and after
the last step.  Diagnostic runs additionally compare every step's
gradient estimate and history state against exact full-graph references
computed at the pre-update parameters.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ..convnet import (backward_full, forward_full, full_gradients,
                       init_conv_params)
from ..diagnostics import ErrorTrace, history_errors
from ..engine import BlendSchedule, ConvHistory, RecHistory, induced_subgraph
from ..graph import (epoch_batches, normalized_adjacency, partition_clustered,
                     partition_random, sample_minibatch)
from ..kernels import matmul, softmax_xent
from ..recnet import full_rec_gradients, init_rec_params, solve_forward
from ..report import OpCounter
from .config import METHOD_TABLE, ConfigError, RunConfig
from .data import Dataset

Array = np.ndarray

METRIC_COLUMNS = ("epoch", "step", "loss", "train_acc", "val_acc",
                  "grad_norm", "fwd_iters", "bwd_iters", "wall_ms")

# Exact references for the recurrent model run at a tolerance well below
# any training tolerance.
REF_TOL = 1e-12


class NumericAbort(RuntimeError):
    """Loss or parameters left the representable range."""


@dataclass
class TrainResult:
    params: object
    hist: object
    rows: list
    accs: dict
    skipped: int = 0

    @property
    def final_loss(self) -> float:
        return self.rows[-1]["loss"] if self.rows else float("nan")


def build_partition(ds: Dataset, cfg: RunConfig):
    if cfg.parts > ds.n:
        raise ConfigError(f"parts ({cfg.parts}) exceeds the node count "
                          f"({ds.n})")
    if cfg.partition == "random":
        return partition_random(ds.graph, cfg.parts, cfg.seed)
    return partition_clustered(ds.graph, cfg.parts, cfg.seed)


def init_model(cfg: RunConfig, ds: Dataset):
    """Seeded parameter + history init for the configured model."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.model == "gcn":
        params = init_conv_params(rng, ds.d_x, [cfg.hidden] * cfg.layers,
                                  ds.n_classes)
        hist = ConvHistory.init(np.asarray(ds.X, dtype=np.float64), params.dims)
    else:
        params = init_rec_params(rng, ds.d_x, cfg.hidden, ds.n_classes,
                                 cfg.kappa)
        hist = RecHistory.init(ds.n, cfg.hidden)
    return params, hist


def predict(cfg: RunConfig, ds: Dataset, adj, params) -> Array:
    """Full-graph argmax predictions at the current parameters."""
    if cfg.model == "gcn":
        logits = forward_full(adj, ds.X, params).logits
    else:
        state = solve_forward(adj, ds.X, params, cfg.tol, cfg.max_iter)
        logits = matmul(state.H, params.w_out)
    return np.argmax(logits, axis=1)


def _accuracies(cfg, ds, adj, params) -> dict:
    pred = predict(cfg, ds, adj, params)
    return {"train": ds.accuracy(pred, ds.train_mask),
            "val": ds.accuracy(pred, ds.val_mask),
            "test": ds.accuracy(pred, ds.test_mask)}


def make_step_fn(cfg: RunConfig, ds: Dataset, adj, params, hist,
                 counter: OpCounter | None = None):
    """Bind the configured method to a (batch, step) -> StepReport closure
    through its `METHOD_TABLE` entry.

    The full-batch method ignores its batch argument.
    """
    if cfg.method not in METHOD_TABLE:
        raise ValueError(f"unknown method {cfg.method!r}")
    bound = METHOD_TABLE[cfg.method].steps[cfg.model]
    s = SimpleNamespace(
        adj=adj, g=ds.graph, X=np.asarray(ds.X, dtype=np.float64),
        labels=ds.train_labels, n_labeled=ds.n_labeled_train, params=params,
        hist=hist, schedule=BlendSchedule(alpha=cfg.alpha, score=cfg.score),
        lr=cfg.lr, tol=cfg.tol, max_iter=cfg.max_iter, counter=counter)
    return lambda batch, step: bound(s, batch, step)


def _schedule(cfg: RunConfig, ds: Dataset, part, labeled_mask):
    """Yield (epoch, batch) pairs for the configured sampling mode.

    Full-batch descent takes one step per epoch; the batch is unused.
    """
    if METHOD_TABLE[cfg.method].full_batch:
        for epoch in range(cfg.epochs):
            yield epoch, None
        return
    rng = np.random.default_rng(cfg.seed + 1)
    if cfg.iid:
        for step in range(cfg.steps):
            yield step * cfg.clusters // max(1, cfg.parts), sample_minibatch(
                ds.graph, part, cfg.clusters, rng, labeled_mask)
        return
    for epoch in range(cfg.epochs):
        for batch in epoch_batches(ds.graph, part, cfg.clusters, rng,
                                   labeled_mask):
            yield epoch, batch


def run_training(cfg: RunConfig, ds: Dataset, on_step=None) -> TrainResult:
    adj = normalized_adjacency(ds.graph)
    part = build_partition(ds, cfg)
    params, hist = init_model(cfg, ds)
    labeled_mask = ds.train_labels >= 0
    counter = OpCounter()
    step_fn = make_step_fn(cfg, ds, adj, params, hist, counter)

    rows = []
    skipped = 0

    def evaluate() -> dict:
        """Full-graph accuracies at the current parameters, written into
        the row of the step that produced them."""
        accs = _accuracies(cfg, ds, adj, params)
        if rows:
            rows[-1]["train_acc"] = accs["train"]
            rows[-1]["val_acc"] = accs["val"]
        return accs

    accs = evaluate()
    step = 0
    last_epoch = 0
    for epoch, batch in _schedule(cfg, ds, part, labeled_mask):
        # an epoch that completes a multiple of eval_every epochs has ended
        if epoch // cfg.eval_every > last_epoch // cfg.eval_every:
            accs = evaluate()
        last_epoch = epoch
        if batch is not None and len(batch.labeled_core) == 0:
            skipped += 1
            continue
        rep = step_fn(batch, step)
        if not np.isfinite(rep.loss):
            raise NumericAbort(f"non-finite loss at step {step}")
        rows.append({"epoch": epoch, "step": step, "loss": rep.loss,
                     "train_acc": accs["train"], "val_acc": accs["val"],
                     "grad_norm": rep.grad_norm, "fwd_iters": rep.fwd_iters,
                     "bwd_iters": rep.bwd_iters, "wall_ms": rep.wall_ms})
        if on_step is not None:
            on_step(rep)
        step += 1
    return TrainResult(params, hist, rows, evaluate(), skipped)


def write_metrics(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(METRIC_COLUMNS) + "\n")
        for row in rows:
            cells = []
            for col in METRIC_COLUMNS:
                val = row.get(col)
                if val is None:
                    cells.append("")
                elif isinstance(val, float):
                    cells.append(repr(val))
                else:
                    cells.append(str(val))
            fh.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# paired diagnostic runs


def _cluster_history_errors(ds, X, batch, params, cache_e, cg_e):
    """Local embeddings/pullbacks of an induced-subgraph step against the
    exact full-graph rows (cache_e, cg_e) on the same core, at matching loss
    scale."""
    core = batch.core
    sadj = normalized_adjacency(induced_subgraph(ds.graph, core))
    cache = forward_full(sadj, X[core], params)
    _, dlog = softmax_xent(cache.logits, ds.train_labels[core],
                           weight=len(batch.labeled_core) / ds.n_labeled_train)
    cg = backward_full(sadj, cache, dlog, params)
    return history_errors(cache.H[1:], cg.V[1:],
                          [h[core] for h in cache_e.H[1:]],
                          [v[core] for v in cg_e.V[1:]])


def _exact_reference(cfg, ds, adj, batch, params, hist):
    """Exact full-graph gradients at `params`, and the (d_h, d_v) errors of
    the step's local state against the same exact solve (nan where the
    method keeps none)."""
    X = np.asarray(ds.X, dtype=np.float64)
    labels = ds.train_labels
    kept = METHOD_TABLE[cfg.method].history
    no_errors = (float("nan"), float("nan"))
    if cfg.model == "gcn":
        _, _, cache, cg = full_gradients(adj, X, labels, params)
        if kept:
            return cg.grads, history_errors(hist.embed[1:], hist.aux[1:],
                                            cache.H[1:], cg.V[1:])
        if cfg.method == "cluster":
            return cg.grads, _cluster_history_errors(ds, X, batch, params,
                                                     cache, cg)
        return cg.grads, no_errors
    _, grads, state, aux = full_rec_gradients(adj, X, labels, params, REF_TOL,
                                              4 * cfg.max_iter)
    if kept:
        return grads, history_errors([hist.embed], [hist.aux], [state.H],
                                     [aux.V])
    return grads, no_errors


def run_diagnose(cfg: RunConfig, ds: Dataset, method: str) -> ErrorTrace:
    """Train `method` under cfg while tracing per-step estimator error and
    history staleness against exact full-graph references."""
    sub_cfg = RunConfig(**{**cfg.__dict__, "method": method, "model": ""})
    sub_cfg.finalize()
    adj = normalized_adjacency(ds.graph)
    part = build_partition(ds, sub_cfg)
    params, hist = init_model(sub_cfg, ds)
    labeled_mask = ds.train_labels >= 0
    step_fn = make_step_fn(sub_cfg, ds, adj, params, hist)

    trace = ErrorTrace()
    step = 0
    for _, batch in _schedule(sub_cfg, ds, part, labeled_mask):
        if batch is not None and len(batch.labeled_core) == 0:
            continue
        snap = params.copy()
        rep = step_fn(batch, step)
        exact, (d_h, d_v) = _exact_reference(sub_cfg, ds, adj, batch, snap,
                                             hist)
        trace.append(step=step, loss=rep.loss,
                     grad_rel_err=rep.grads.rel_err(exact), d_h=d_h, d_v=d_v,
                     touched_rows=rep.touched_rows, wall_ms=rep.wall_ms)
        step += 1
    return trace
