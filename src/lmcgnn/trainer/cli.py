"""Command-line entry point.

Subcommands: gen, partition, train, diagnose, gradcheck, enumerate.
Exit codes: 0 success, 2 configuration error, 3 numeric divergence,
4 solver non-convergence, 5 failed verification check.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .. import __version__
from ..convnet import full_gradients, init_conv_params, loss_full
from ..diagnostics import (ENUM_LIMIT, elementwise_fd_err, enumerate_batches,
                           finite_diff, random_conv_instance,
                           random_rec_instance)
from ..engine import backward_sgd_grads
from ..graph import cut_edges, normalized_adjacency, save_partition
from ..kernels import matmul, softmax_xent
from ..recnet import (DEFAULT_MAX_ITER, SolverDiverged, SolverStalled,
                      full_rec_gradients, solve_forward)
from .checkpoint import CheckpointError, save_checkpoint
from .config import (METHOD_TABLE, METHODS, MODELS, PARTITIONS, ConfigError,
                     RunConfig, build_config, parse_config_file)
from .data import GEN_KINDS, gen_synthetic, load_dataset, save_dataset
from .loop import (NumericAbort, build_partition, run_diagnose, run_training,
                   write_metrics)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NOCONV = 4
EXIT_CHECK = 5

# Elementwise finite-difference bounds checked by gradcheck.
FD_BOUND = {"gcn": 1e-5, "recgcn": 1e-3}
ENUM_BOUND = 1e-10


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    """Flags mirroring RunConfig; None means "not given" so file values
    and defaults survive the merge."""
    sub.add_argument("--config", default=None, metavar="FILE")
    sub.add_argument("--method", choices=METHODS, default=None)
    sub.add_argument("--model", choices=MODELS, default=None)
    sub.add_argument("--data", default=None, metavar="DIR")
    sub.add_argument("--out", default=None, metavar="DIR")
    sub.add_argument("--layers", type=int, default=None)
    sub.add_argument("--hidden", type=int, default=None)
    sub.add_argument("--lr", type=float, default=None)
    sub.add_argument("--epochs", type=int, default=None)
    sub.add_argument("--steps", type=int, default=None)
    sub.add_argument("--iid", action="store_const", const=True, default=None)
    sub.add_argument("--parts", type=int, default=None)
    sub.add_argument("--clusters", type=int, default=None)
    sub.add_argument("--partition", choices=PARTITIONS, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--score", default=None)
    sub.add_argument("--kappa", type=float, default=None)
    sub.add_argument("--tol", type=float, default=None)
    sub.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    sub.add_argument("--eval-every", dest="eval_every", type=int, default=None)


def _cfg_from_args(args) -> RunConfig:
    file_vals = parse_config_file(args.config) if args.config else None
    flag_vals = {name: getattr(args, name)
                 for name in RunConfig.__dataclass_fields__
                 if hasattr(args, name)}
    return build_config(file_vals, flag_vals)


def _require_data(cfg: RunConfig):
    if not cfg.data:
        raise ConfigError("a dataset directory is required (--data)")
    return load_dataset(cfg.data)


def cmd_gen(args) -> int:
    knobs = {}
    for name in ("noise", "sep", "deg_in", "deg_out", "chain_len", "amp",
                 "flip"):
        val = getattr(args, name)
        if val is not None:
            knobs[name] = val
    try:
        ds = gen_synthetic(args.kind, args.n, args.d, args.seed, **knobs)
    except TypeError:
        raise ConfigError(f"a knob does not apply to kind {args.kind!r}") from None
    save_dataset(args.out, ds)
    print(f"wrote {args.out}: n={ds.n} d={ds.d_x} classes={ds.n_classes} "
          f"edges={ds.graph.n_edges} train={int(ds.train_mask.sum())} "
          f"val={int(ds.val_mask.sum())} test={int(ds.test_mask.sum())}")
    return EXIT_OK


def cmd_partition(args) -> int:
    cfg = _cfg_from_args(args)
    ds = _require_data(cfg)
    part = build_partition(ds, cfg)
    if args.save:
        save_partition(part, args.save)
    sizes = sorted(len(p) for p in part.parts)
    print(f"parts={part.B} kind={cfg.partition} sizes={sizes[0]}..{sizes[-1]} "
          f"cut_edges={cut_edges(ds.graph, part)}/{ds.graph.n_edges}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _cfg_from_args(args)
    ds = _require_data(cfg)
    res = run_training(cfg, ds)
    os.makedirs(cfg.out, exist_ok=True)
    write_metrics(os.path.join(cfg.out, "metrics.csv"), res.rows)
    hist = res.hist if METHOD_TABLE[cfg.method].history else None
    save_checkpoint(os.path.join(cfg.out, "checkpoint.bin"), cfg.model,
                    res.params, hist)
    print(f"method={cfg.method} model={cfg.model} steps={len(res.rows)} "
          f"skipped={res.skipped} loss={res.final_loss:.6f} "
          f"train_acc={res.accs['train']:.4f} val_acc={res.accs['val']:.4f} "
          f"test_acc={res.accs['test']:.4f}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    cfg = _cfg_from_args(args)
    ds = _require_data(cfg)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigError("no methods to diagnose")
    for method in methods:
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r}")
    for method in methods:
        trace = run_diagnose(cfg, ds, method)
        os.makedirs(cfg.out, exist_ok=True)
        path = os.path.join(cfg.out, f"trace_{method}.csv")
        trace.write_csv(path)
        err = trace.column("grad_rel_err")
        mean = float(np.nanmean(err)) if err.size else float("nan")
        print(f"{method}: steps={len(trace.rows)} "
              f"mean_grad_rel_err={mean:.6e} -> {path}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    bound = FD_BOUND[args.model]
    worst = 0.0
    for i in range(args.instances):
        seed = args.seed + i
        if args.model == "gcn":
            _, adj, X, labels, params = random_conv_instance(seed)
            _, _, _, cg = full_gradients(adj, X, labels, params)
            analytic = cg.grads

            def loss_fn():
                return loss_full(adj, X, labels, params)[0]
        else:
            _, adj, X, labels, params = random_rec_instance(seed)
            _, analytic, _, _ = full_rec_gradients(adj, X, labels, params,
                                                   1e-12,
                                                   DEFAULT_MAX_ITER * 4)

            def loss_fn():
                st = solve_forward(adj, X, params, 1e-12,
                                   DEFAULT_MAX_ITER * 4)
                return softmax_xent(matmul(st.H, params.w_out), labels, 1.0)[0]
        fd = finite_diff(loss_fn, params.blocks())
        err = elementwise_fd_err(fd, analytic)
        worst = max(worst, err)
        tag = "ok" if err <= bound else "FAIL"
        print(f"instance {i}: max_elementwise_err={err:.3e} ({tag})")
    print(f"worst={worst:.3e} bound={bound:.0e}")
    return EXIT_OK if worst <= bound else EXIT_CHECK


def cmd_enumerate(args) -> int:
    cfg = _cfg_from_args(args)
    total = math.comb(cfg.parts, cfg.clusters)
    if total > ENUM_LIMIT:
        raise ConfigError(f"{total} batches exceed the enumeration guard "
                          f"({ENUM_LIMIT})")
    ds = _require_data(cfg)
    adj = normalized_adjacency(ds.graph)
    part = build_partition(ds, cfg)
    rng = np.random.default_rng(cfg.seed)
    params = init_conv_params(rng, ds.d_x, [cfg.hidden] * cfg.layers,
                              ds.n_classes)
    labels = ds.train_labels
    X = np.asarray(ds.X, dtype=np.float64)
    _, _, cache, cg = full_gradients(adj, X, labels, params)

    def grad_fn(batch):
        return backward_sgd_grads(batch, cache, cg, params, labels)[1]

    mean, count = enumerate_batches(ds.graph, part, cfg.clusters, grad_fn,
                                    labels >= 0)
    diffs = mean.max_abs_diff(cg.grads)
    worst = max(diffs.values())
    for name, val in diffs.items():
        print(f"{name}: max_abs_diff={val:.3e}")
    print(f"batches={count} worst={worst:.3e} bound={ENUM_BOUND:.0e}")
    return EXIT_OK if worst <= ENUM_BOUND else EXIT_CHECK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmcgnn",
        description="Subgraph-wise GNN training with compensated message "
                    "passing on both forward and backward passes.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="write a synthetic dataset directory")
    gen.add_argument("--kind", choices=GEN_KINDS, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=int, default=4)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, metavar="DIR")
    gen.add_argument("--noise", type=float, default=None)
    gen.add_argument("--sep", type=float, default=None)
    gen.add_argument("--deg-in", dest="deg_in", type=float, default=None)
    gen.add_argument("--deg-out", dest="deg_out", type=float, default=None)
    gen.add_argument("--chain-len", dest="chain_len", type=int, default=None)
    gen.add_argument("--amp", type=float, default=None)
    gen.add_argument("--flip", type=float, default=None)
    gen.set_defaults(func=cmd_gen)

    part = subs.add_parser("partition", help="partition a dataset graph")
    _add_config_flags(part)
    part.add_argument("--save", default=None, metavar="FILE")
    part.set_defaults(func=cmd_partition)

    train = subs.add_parser("train", help="train a model")
    _add_config_flags(train)
    train.set_defaults(func=cmd_train)

    diag = subs.add_parser("diagnose",
                           help="trace per-step gradient/history errors")
    _add_config_flags(diag)
    diag.add_argument("--methods", default="lmc-conv,gas-conv,cluster")
    diag.set_defaults(func=cmd_diagnose)

    gc = subs.add_parser("gradcheck",
                         help="finite-difference check of exact gradients")
    gc.add_argument("--model", choices=MODELS, default="gcn")
    gc.add_argument("--instances", type=int, default=5)
    gc.add_argument("--seed", type=int, default=0)
    gc.set_defaults(func=cmd_gradcheck)

    enum = subs.add_parser("enumerate",
                           help="exhaustively verify estimator unbiasedness")
    _add_config_flags(enum)
    enum.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericAbort, SolverDiverged) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SolverStalled as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NOCONV


if __name__ == "__main__":
    sys.exit(main())
