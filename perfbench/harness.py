"""Workloads, the closed training loop the benchmark times, and its metrics.

A run of one workload repeats *rounds* until its time is up.  A round is one
complete training job, scheduled exactly as `trainer.loop.run_training`
schedules it: set-up (generate, normalize, partition, init), a fixed number
of epochs of steps, and a full-graph evaluation every `eval_every` epochs
and after the last.  Every
round of a run uses the same seed, so all of them must give bitwise the same
per-step losses; that, a finite final loss and a validation-accuracy floor
are the correctness gate.

The program is only called through its public functions, looked up on
their modules at call time, so the tracer's wrappers see every call.
"""
from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from lmcgnn import graph, report
from lmcgnn.trainer import config, data, loop

from tracer import Tracer, fold_spans

# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str              # synthetic dataset kind for gen_synthetic
    n: int
    d: int
    config: dict           # RunConfig fields other than seed and epochs
    epochs: int            # epochs per round
    eval_every: int        # epochs between evaluations; the last one always
    val_floor: float       # lowest accepted final validation accuracy

    def run_config(self, seed: int):
        cfg = config.RunConfig(**self.config, epochs=self.epochs, seed=seed)
        return cfg.finalize()


_GCN = {"model": "gcn", "layers": 2, "hidden": 32}

WORKLOADS = {wl.name: wl for wl in (
    Workload(
        "conv-lmc",
        "compensated GCN steps on a dense two-cluster graph with small "
        "batches; the only workload that blends halo rows",
        "two-cluster", 8000, 16,
        {**_GCN, "method": "lmc-conv", "parts": 32, "clusters": 2},
        epochs=3, eval_every=1, val_floor=0.9),
    Workload(
        "rec-lmc",
        "fixed-point model on the sparsest, largest graph: many small "
        "aggregate calls inside Picard solves, cold full-graph solves to "
        "evaluate",
        "chain-label", 16000, 8,
        {"model": "recgcn", "hidden": 16, "method": "lmc-rec", "parts": 32,
         "clusters": 2},
        epochs=6, eval_every=2, val_floor=0.55),
    Workload(
        "full-gd",
        "exact full-graph descent: few large aggregates and a full view "
        "rebuilt every step; bypasses batches, halos, blend and histories",
        "two-cluster", 4000, 16,
        {**_GCN, "method": "gd"},
        epochs=30, eval_every=10, val_floor=0.9),
    Workload(
        "conv-cluster",
        "induced-subgraph steps of about 35 ms, where Python overhead "
        "shows; the only workload that runs induced_subgraph",
        "two-cluster", 4000, 16,
        {**_GCN, "method": "cluster", "parts": 16, "clusters": 2},
        epochs=4, eval_every=1, val_floor=0.9),
)}

# A run has at least this many rounds, so the loss sequences of two rounds
# can be compared and a traced run has an untraced round to compare with.
MIN_ROUNDS = 2

# Node count of the untimed warm-up round that pays first-call costs
# (imports, allocator growth) before the first timed round.
WARMUP_N = 512

# ---------------------------------------------------------------------------
# metrics

# (name, unit, better).  Printed with --trace 0.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("step_ms_p50", "ms", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("eval_ms_p50", "ms", "lower"),
    ("total_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("val_acc", "ratio", "higher"),
)

# (name, unit).  Written to the result file only, because no bound can be
# set on them: on a shared 2-core machine, bursts of outside load move the
# p90 step by 15-20% from run to run, and the final loss is exact for a
# seed but differs by 30% between seeds.
INFORMATIONAL = (
    ("step_ms_p90", "ms"),
    ("final_loss", "nats"),
)

# Traced functions, by the phase they are reported under.  Setup totals are
# per set-up, step totals per step, eval totals per evaluation.
PHASE_FUNCTIONS = {
    "setup": (
        "trainer.data.gen_synthetic",
        "graph.normalized_adjacency",
        "graph.partition_clustered",
    ),
    "step": (
        "graph.batch_from_parts",
        "graph.normalized_adjacency",
        "kernels.build_local_view",
        "kernels.full_view",
        "kernels.aggregate",
        "kernels.aggregate_listed",
        "kernels.aggregate_pruned",
        "kernels.matmul",
        "kernels.softmax_xent",
        "engine.blend.blend_weights",
        "engine.blend.blend_rows",
        "engine.conv.build_conv_context",
        "engine.conv.lmc_conv_forward",
        "engine.conv.lmc_conv_backward",
        "engine.conv.induced_subgraph",
        "engine.rec.lmc_rec_step",
        "convnet.forward_full",
        "convnet.backward_full",
    ),
    "eval": (
        "trainer.loop.predict",
        "convnet.forward_full",
        "recnet.solve_forward",
        "kernels.full_view",
        "kernels.build_local_view",
        "kernels.aggregate",
        "kernels.matmul",
    ),
}
TRACED = tuple(sorted({f for fns in PHASE_FUNCTIONS.values() for f in fns}))

COUNTER_FIELDS = ("embed_rows_written", "aux_rows_written", "rows_read",
                  "agg_targets", "agg_entries")

# (name, unit, better, kind).  Exact counts repeat bit for bit for a seed;
# a computed value is arithmetic on exact counts, not a measurement.
COUNTS = (
    *((f"report.{f}", "count", "lower", "exact") for f in COUNTER_FIELDS),
    ("recnet.fwd_iters", "count", "lower", "exact"),
    ("recnet.bwd_iters", "count", "lower", "exact"),
    ("recnet.eval_iters", "count", "lower", "exact"),
    ("graph.core_rows", "count", "lower", "exact"),
    ("graph.halo1_rows", "count", "lower", "exact"),
    ("graph.halo2_rows", "count", "lower", "exact"),
    ("graph.cut_edges", "count", "lower", "exact"),
    ("engine.blend.beta_mean", "ratio", "higher", "exact"),
    ("engine.history.halo_age_p50", "steps", "lower", "exact"),
    ("engine.history.halo_age_max", "steps", "lower", "exact"),
    ("kernels.gathered_mb", "MB", "lower", "computed"),
    ("trace.overhead_s", "s", "lower", "measured"),
)


def per_layer_specs():
    """(name, unit, better, kind) of every metric printed with --trace 1."""
    specs = []
    for phase, fns in PHASE_FUNCTIONS.items():
        specs.append((f"{phase}.ms", "ms", "lower", "measured"))
        specs.append((f"{phase}.self_ms", "ms", "lower", "measured"))
        for fn in fns:
            specs.append((f"{phase}.{fn}.calls", "count", "lower", "exact"))
            specs.append((f"{phase}.{fn}.ms", "ms", "lower", "measured"))
            specs.append((f"{phase}.{fn}.self_ms", "ms", "lower", "measured"))
    specs.extend(COUNTS)
    return specs


def _gathered(entries: str):
    """Bytes an aggregate call gathers: entries x width x 8."""
    def probe(args, kwargs, result):
        view = args[0]
        return {"gathered_bytes": getattr(view, entries) * result.shape[1] * 8}
    return probe


PROBES = {
    # aggregate gathers its pruned pool through aggregate_pruned, which
    # the tracer sees as a call of its own.
    "kernels.aggregate": _gathered("n_listed"),
    "kernels.aggregate_listed": _gathered("n_listed"),
    "kernels.aggregate_pruned": _gathered("n_pruned"),
    "engine.blend.blend_weights": lambda args, kwargs, beta: {
        "beta_sum": float(np.sum(beta)), "beta_rows": len(beta)},
    "recnet.solve_forward": lambda args, kwargs, state: {
        "solve_iters": state.iters},
}

# ---------------------------------------------------------------------------
# one round


@dataclass
class Round:
    traced: bool
    setup_s: float = 0.0
    total_s: float = 0.0
    step_ms: list = field(default_factory=list)
    eval_ms: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    val_acc: float = float("nan")
    failed: int = 0
    errors: list = field(default_factory=list)
    params: object = None
    cut_edges: int = 0
    last_epoch_steps: int = 0
    counts: dict = field(default_factory=dict)   # summed over steps / evals

    @property
    def final_loss(self) -> float:
        """Mean step loss over the last epoch: one batch's loss alone
        varies too much from seed to seed to compare runs by."""
        if not self.last_epoch_steps:
            return float("nan")
        return float(np.mean(self.losses[-self.last_epoch_steps:]))

    @property
    def loss_hash(self) -> str:
        raw = np.asarray(self.losses, dtype=np.float64).tobytes()
        return hashlib.sha256(raw).hexdigest()[:16]

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


def run_round(wl: Workload, seed: int, tracer: Tracer | None = None) -> Round:
    """One training job of `wl`.  With a tracer, also gather the counts
    named in COUNTS (outside the timed spans)."""
    span = tracer.span if tracer is not None else lambda name: nullcontext()
    clock = time.perf_counter
    cfg = wl.run_config(seed)
    rnd = Round(traced=tracer is not None)

    t_start = clock()
    with span("setup"):
        ds = data.gen_synthetic(wl.kind, wl.n, wl.d, seed)
        adj = graph.normalized_adjacency(ds.graph)
        part = loop.build_partition(ds, cfg)
        params, hist = loop.init_model(cfg, ds)
        counter = report.OpCounter()
        step_fn = loop.make_step_fn(cfg, ds, adj, params, hist, counter)
    rnd.setup_s = clock() - t_start
    rnd.params = params
    if tracer is not None:
        rnd.cut_edges = graph.cut_edges(ds.graph, part)

    labeled = ds.train_labels >= 0
    rng = np.random.default_rng(cfg.seed + 1)
    full_batch = cfg.method == "gd"
    with_history = cfg.method.startswith(("lmc-", "gas-"))
    step = 0
    for epoch in range(cfg.epochs):
        if full_batch:
            batches, n_batches = iter([None]), 1
        else:
            batches = graph.epoch_batches(ds.graph, part, cfg.clusters, rng,
                                          labeled)
            n_batches = -(-part.B // cfg.clusters)
        rnd.last_epoch_steps = 0
        for _ in range(n_batches):
            loss = float("nan")
            rep = None
            t0 = clock()
            with span("step"):
                batch = next(batches)
                if batch is not None and len(batch.labeled_core) == 0:
                    continue    # run_training skips these without a step
                try:
                    rep = step_fn(batch, step)
                    loss = rep.loss
                except Exception:  # noqa: BLE001 - a failed step is counted
                    rnd.errors.append(traceback.format_exc(limit=3))
            rnd.step_ms.append((clock() - t0) * 1e3)
            rnd.losses.append(loss)
            rnd.last_epoch_steps += 1
            if not math.isfinite(loss):
                rnd.failed += 1
            if tracer is not None:
                _count_step(rnd, tracer, counter, rep, batch, ds.n, hist,
                            step if with_history else None)
            step += 1
        if (epoch + 1) % wl.eval_every and epoch + 1 < cfg.epochs:
            continue

        t0 = clock()
        try:
            with span("eval"):
                pred = loop.predict(cfg, ds, adj, params)
            rnd.val_acc = ds.accuracy(pred, ds.val_mask)
        except Exception:  # noqa: BLE001 - reported as a failed run
            rnd.errors.append(traceback.format_exc(limit=3))
            rnd.val_acc = float("nan")
        rnd.eval_ms.append((clock() - t0) * 1e3)
        if tracer is not None:
            for key, amount in tracer.take_counts().items():
                rnd.add(f"eval.{key}", amount)
    rnd.total_s = clock() - t_start
    return rnd


def _count_step(rnd, tracer, counter, rep, batch, n, hist, step) -> None:
    probed = tracer.take_counts()
    if rep is None:
        return          # the step raised; its counts are incomplete
    for key, amount in probed.items():
        rnd.add(key, amount)
    for f in COUNTER_FIELDS:
        rnd.add(f"report.{f}", getattr(counter, f))
    rnd.add("recnet.fwd_iters", rep.fwd_iters or 0)
    rnd.add("recnet.bwd_iters", rep.bwd_iters or 0)
    if batch is None:
        rnd.add("graph.core_rows", n)
    else:
        rnd.add("graph.core_rows", len(batch.core))
        rnd.add("graph.halo1_rows", len(batch.halo1))
        rnd.add("graph.halo2_rows", len(batch.halo2))
    # The step writes last_refresh on core rows only, so the halo rows
    # still hold the values the step read.
    if step is not None and len(batch.halo1):
        age = step - hist.last_refresh[batch.halo1]
        rnd.add("age_p50", float(np.median(age)))
        rnd.add("age_max", int(age.max()))
        rnd.add("age_steps", 1)


# ---------------------------------------------------------------------------
# a run: rounds until the time is up


@dataclass
class RunResult:
    workload: str
    seed: int
    rounds: list
    e2e: dict
    per_layer: dict
    checks: dict
    attempted: int
    failed: int
    missing: list
    span_sample: list

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def run_workload(wl: Workload, seed: int, seconds: float,
                 trace: bool) -> RunResult:
    """Repeat rounds of `wl` for about `seconds`.  With `trace`, every other
    round runs under the tracer and the per-layer metrics come from those."""
    deadline = time.perf_counter() + seconds
    run_round(replace(wl, n=WARMUP_N, epochs=1), seed)
    tracer = Tracer(TRACED, PROBES) if trace else None
    rounds = []
    totals, roots = {}, {}
    sample = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tracer.install()
            try:
                rnd = run_round(wl, seed, tracer)
            finally:
                tracer.uninstall()
            spans = tracer.take_spans()
            if not sample:
                sample = _first_step(spans)
            folded, counted = fold_spans(spans)
            for key, row in folded.items():
                acc = totals.get(key, (0, 0, 0))
                totals[key] = [x + y for x, y in zip(acc, row)]
            for key, count in counted.items():
                roots[key] = roots.get(key, 0) + count
        else:
            rnd = run_round(wl, seed)
        rounds.append(rnd)
        typical = statistics.median(r.total_s for r in rounds)
        if (len(rounds) >= MIN_ROUNDS
                and time.perf_counter() + typical > deadline):
            break

    plain = [r for r in rounds if not r.traced]
    checks, failed = _check(wl, rounds)
    attempted = sum(len(r.losses) for r in rounds)
    per_layer = {}
    if trace:
        per_layer = _per_layer(totals, roots,
                               [r for r in rounds if r.traced], plain)
    return RunResult(wl.name, seed, rounds, _end_to_end(plain), per_layer,
                     checks, attempted, failed,
                     list(tracer.missing) if trace else [], sample)


def _check(wl: Workload, rounds):
    """Correctness gate.  Returns (checks, failed steps), where every step
    of a round that breaks a check counts as failed."""
    ref = rounds[0].loss_hash
    failed = 0
    ok = {"losses_identical_across_rounds": True, "final_loss_finite": True,
          "val_acc_above_floor": True, "no_failed_steps": True}
    for r in rounds:
        same = r.loss_hash == ref
        finite = math.isfinite(r.final_loss)
        above = r.val_acc >= wl.val_floor      # False for nan
        clean = r.failed == 0 and not r.errors
        ok["losses_identical_across_rounds"] &= same
        ok["final_loss_finite"] &= finite
        ok["val_acc_above_floor"] &= above
        ok["no_failed_steps"] &= clean
        failed += len(r.losses) if not (same and finite and above) else r.failed
    return ok, failed


def _end_to_end(rounds) -> dict:
    steps = np.concatenate([r.step_ms for r in rounds])
    evals = np.concatenate([r.eval_ms for r in rounds])
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "step_ms_p50": float(np.percentile(steps, 50)),
        "step_ms_p90": float(np.percentile(steps, 90)),
        "steps_per_s": len(steps) / (float(steps.sum()) / 1e3),
        "eval_ms_p50": float(np.median(evals)),
        "total_s": statistics.median(r.total_s for r in rounds),
        "peak_rss_mb": rss_kib * 1024 / 1e6,
        "final_loss": rounds[0].final_loss,
        "val_acc": rounds[0].val_acc,
    }


def _per_layer(totals, roots, traced, plain) -> dict:
    per = {phase: max(1, roots.get(phase, 0)) for phase in PHASE_FUNCTIONS}
    out = {}
    for phase, fns in PHASE_FUNCTIONS.items():
        _, ns, self_ns = totals.get((phase, phase), (0, 0, 0))
        out[f"{phase}.ms"] = ns / 1e6 / per[phase]
        out[f"{phase}.self_ms"] = self_ns / 1e6 / per[phase]
        for fn in fns:
            calls, ns, self_ns = totals.get((phase, fn), (0, 0, 0))
            out[f"{phase}.{fn}.calls"] = calls / per[phase]
            out[f"{phase}.{fn}.ms"] = ns / 1e6 / per[phase]
            out[f"{phase}.{fn}.self_ms"] = self_ns / 1e6 / per[phase]

    counts = {}
    for r in traced:
        for key, amount in r.counts.items():
            counts[key] = counts.get(key, 0) + amount
    steps = max(1, sum(len(r.step_ms) for r in traced))
    evals = max(1, sum(len(r.eval_ms) for r in traced))
    for f in COUNTER_FIELDS:
        out[f"report.{f}"] = counts.get(f"report.{f}", 0) / steps
    for key in ("recnet.fwd_iters", "recnet.bwd_iters", "graph.core_rows",
                "graph.halo1_rows", "graph.halo2_rows"):
        out[key] = counts.get(key, 0) / steps
    out["recnet.eval_iters"] = counts.get("eval.solve_iters", 0) / evals
    out["graph.cut_edges"] = traced[0].cut_edges
    out["engine.blend.beta_mean"] = (counts.get("beta_sum", 0.0)
                                     / max(1, counts.get("beta_rows", 0)))
    aged = max(1, counts.get("age_steps", 0))
    out["engine.history.halo_age_p50"] = counts.get("age_p50", 0) / aged
    out["engine.history.halo_age_max"] = counts.get("age_max", 0) / aged
    out["kernels.gathered_mb"] = counts.get("gathered_bytes", 0) / 1e6 / steps
    out["trace.overhead_s"] = (statistics.median(r.total_s for r in traced)
                               - statistics.median(r.total_s for r in plain))
    return out


def _first_step(spans, limit: int = 400) -> list:
    """The spans of the first step, as [name, start_us, duration_us,
    parent] relative to that step, at most `limit` of them."""
    first = next((i for i, s in enumerate(spans)
                  if s[0] == "step" and s[3] < 0), None)
    if first is None:
        return []
    t0 = spans[first][1]
    out = [["step", 0.0, (spans[first][2] - t0) / 1e3, -1]]
    index = {first: 0}
    for i in range(first + 1, len(spans)):
        name, start, end, parent = spans[i]
        if parent not in index or len(out) >= limit:
            break
        index[i] = len(out)
        out.append([name, (start - t0) / 1e3, (end - start) / 1e3,
                    index[parent]])
    return out
