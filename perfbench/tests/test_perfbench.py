"""Self-tests of the training benchmark.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
import run  # noqa: E402
from lmcgnn.trainer import data, loop  # noqa: E402
from tracer import Tracer  # noqa: E402

# Small versions of every workload: same generator, model and method.
SMALL = {"conv-lmc": 400, "rec-lmc": 512, "full-gd": 200, "conv-cluster": 300}


def small(name, epochs=2):
    """Too short to reach the full workload's accuracy floor."""
    return replace(harness.WORKLOADS[name], n=SMALL[name], epochs=epochs,
                   val_floor=0.0)


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def same_params(a, b):
    return all(bits(x) == bits(y)
               for x, y in zip(a.blocks().values(), b.blocks().values()))


def lmcgnn_bindings():
    return {(name, key): value
            for name, mod in list(sys.modules.items())
            if mod is not None and name.split(".")[0] == "lmcgnn"
            for key, value in vars(mod).items()}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_round_matches_run_training(name):
    wl = small(name)
    rnd = harness.run_round(wl, seed=3)
    ds = data.gen_synthetic(wl.kind, wl.n, wl.d, 3)
    ref = loop.run_training(wl.run_config(3), ds)
    assert len(rnd.losses) == len(ref.rows) > 0
    assert bits(rnd.losses) == bits([row["loss"] for row in ref.rows])
    assert same_params(rnd.params, ref.params)
    assert rnd.val_acc == ref.accs["val"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_round_matches_untraced(name):
    wl = small(name)
    plain = harness.run_round(wl, seed=5)
    tracer = Tracer(harness.TRACED, harness.PROBES)
    tracer.install()
    try:
        traced = harness.run_round(wl, seed=5, tracer=tracer)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert bits(traced.losses) == bits(plain.losses)
    assert same_params(traced.params, plain.params)
    assert any(s[0] == "kernels.aggregate" for s in tracer.spans)


def test_tracer_wraps_every_binding_and_restores_them():
    before = lmcgnn_bindings()
    import lmcgnn.engine.conv as conv
    import lmcgnn.kernels as kernels
    original = kernels.aggregate
    tracer = Tracer(harness.TRACED, harness.PROBES)
    tracer.install()
    try:
        assert kernels.aggregate is not original
        assert conv.aggregate is kernels.aggregate
        assert not any(value is original
                       for value in lmcgnn_bindings().values())
    finally:
        tracer.uninstall()
    after = lmcgnn_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_missing_function_is_reported_and_run_continues():
    tracer = Tracer(["kernels.no_such_function", "kernels.matmul"])
    tracer.install()
    try:
        rnd = harness.run_round(small("full-gd", epochs=1), seed=1,
                                tracer=tracer)
    finally:
        tracer.uninstall()
    assert tracer.missing == ["kernels.no_such_function"]
    assert np.isfinite(rnd.losses[-1])


def test_traced_run_reports_every_per_layer_metric():
    res = harness.run_workload(small("conv-lmc"), seed=2, seconds=0,
                               trace=True)
    assert res.correct, res.checks
    names = [spec[0] for spec in harness.per_layer_specs()]
    assert sorted(res.per_layer) == sorted(names)
    assert res.per_layer["step.engine.blend.blend_weights.calls"] == 1
    assert res.per_layer["step.kernels.build_local_view.calls"] > 0
    assert [r.traced for r in res.rounds] == [False, True]


def test_gate_fails_below_accuracy_floor():
    wl = replace(small("full-gd"), val_floor=1.01)
    res = harness.run_workload(wl, seed=1, seconds=0, trace=False)
    assert not res.correct
    assert not res.checks["val_acc_above_floor"]
    assert res.failed == res.attempted > 0


def test_gate_counts_a_raising_step_as_failed(monkeypatch):
    make_step_fn = loop.make_step_fn

    def failing_make_step_fn(*args, **kwargs):
        step_fn = make_step_fn(*args, **kwargs)

        def fn(batch, step):
            if step == 1:
                raise RuntimeError("solver stalled")
            return step_fn(batch, step)
        return fn

    monkeypatch.setattr(loop, "make_step_fn", failing_make_step_fn)
    res = harness.run_workload(small("conv-cluster"), seed=1, seconds=0,
                               trace=False)
    assert not res.correct
    assert not res.checks["no_failed_steps"]
    assert res.failed == len(res.rounds) > 0
    assert "solver stalled" in res.rounds[0].errors[0]


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    e2e = [(n, u, b) for n, u, b in harness.END_TO_END]
    layers = [(n, u, b) for n, u, b, _ in harness.per_layer_specs()]
    names = [n for n, _, _ in e2e + layers]
    assert all(pattern.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == e2e
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == layers
    assert ([w["name"] for w in spec["workloads"]]
            == list(harness.WORKLOADS) == list(run.WORKLOAD_NAMES))
