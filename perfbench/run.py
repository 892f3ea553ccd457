"""Training benchmark for lmcgnn.

Run from the repository root:

    python3 perfbench/run.py --workload conv-lmc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One workload runs in this process; `all` runs every workload, each in a
fresh process so that peak memory is per workload, and prints a table.
With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics, with `--trace 1` one with the per-layer metrics
from a traced run.  Each run also writes a result file with an environment
stamp into `--out`.  The exit code is 0 only when every correctness check
passed, 2 when the arguments or the source tree are unusable.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("conv-lmc", "rec-lmc", "full-gd", "conv-cluster")

# One BLAS thread: the matrices are at most n x 32, too small to gain from
# threads, and a single thread keeps timings steadier on a shared machine.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(ROOT / "perfbench" / "out"),
                    help="directory for result files")
    return ap.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD commit read from the .git directory, or 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(args) -> dict:
    import numpy
    return {
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(args) -> int:
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy as np  # after the BLAS variables are set

    import harness

    wl = harness.WORKLOADS[args.workload]
    res = harness.run_workload(wl, args.seed, args.seconds, bool(args.trace))
    e2e = {name: {"value": res.e2e[name], "unit": unit}
           for name, unit, _ in harness.END_TO_END}
    extra = {name: {"value": res.e2e[name], "unit": unit}
             for name, unit in harness.INFORMATIONAL}
    layers = {name: {"value": res.per_layer[name], "unit": unit, "kind": kind}
              for name, unit, _, kind in harness.per_layer_specs()
              if name in res.per_layer}

    record = {
        "stamp": env_stamp(args),
        "workload": {"name": wl.name, "why": wl.why, "kind": wl.kind,
                     "n": wl.n, "d": wl.d, "epochs": wl.epochs,
                     "eval_every": wl.eval_every,
                     "val_floor": wl.val_floor, **wl.config},
        "correct": res.correct,
        "checks": res.checks,
        "attempted": res.attempted,
        "failed": res.failed,
        "failed_step_frac": res.failed / max(1, res.attempted),
        "end_to_end": e2e,
        "informational": extra,
        "per_layer": layers,
        "missing_functions": res.missing,
        "rounds": [{"traced": r.traced, "setup_s": r.setup_s,
                    "total_s": r.total_s, "steps": len(r.step_ms),
                    "step_ms_p50": float(np.median(r.step_ms)),
                    "evals": len(r.eval_ms),
                    "eval_ms_p50": float(np.median(r.eval_ms)),
                    "loss_hash": r.loss_hash,
                    "final_loss": r.final_loss,
                    "val_acc": r.val_acc, "errors": r.errors}
                   for r in res.rounds],
        "span_sample": res.span_sample,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    shown = layers if args.trace else e2e
    for name, m in (layers if args.trace else {**e2e, **extra}).items():
        print(f"{wl.name} {name} {m['value']:.6g} {m['unit']}")
    for name in res.missing:
        print(f"{wl.name} missing function {name}")
    for name, ok in res.checks.items():
        print(f"{wl.name} check {name} {'pass' if ok else 'FAIL'}")
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in shown.items()},
    }))
    return 0 if res.correct else 1


def run_all(args) -> int:
    """Every workload in a fresh process, then one table of the metrics."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", args.out]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
        if lines:
            try:
                results[name] = json.loads(lines[-1])
            except json.JSONDecodeError:
                status = 1
    metrics = []
    for res in results.values():
        metrics.extend(m for m in res["metrics"] if m not in metrics)
    names = list(results)
    print(f"{'metric':<44}{'unit':>7}" + "".join(f"{n:>15}" for n in names))
    for m in metrics:
        unit = next(r["metrics"][m]["unit"] for r in results.values()
                    if m in r["metrics"])
        cells = "".join(
            f"{results[n]['metrics'][m]['value']:>15.6g}"
            if m in results[n]["metrics"] else f"{'-':>15}" for n in names)
        print(f"{m:<44}{unit:>7}{cells}")
    print(f"{'correct':<51}" + "".join(f"{str(results[n]['correct']):>15}"
                                        for n in names))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lmcgnn" / "__init__.py").is_file():
        print(f"perfbench: no lmcgnn package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
