"""Run configuration, checkpoint format, and the training loop."""
import numpy as np
import pytest

from lmcgnn.convnet import init_conv_params
from lmcgnn.engine import ConvHistory, RecHistory
from lmcgnn.recnet import init_rec_params
from lmcgnn.trainer.checkpoint import (CheckpointError, load_checkpoint,
                                       save_checkpoint)
from lmcgnn.trainer.config import (METHODS, MODELS, ConfigError, RunConfig,
                                   build_config, parse_config_file)
from lmcgnn.trainer.data import gen_two_cluster
from lmcgnn.trainer.loop import (METRIC_COLUMNS, NumericAbort, TrainResult,
                                 init_model, make_step_fn, predict,
                                 run_diagnose, run_training, write_metrics)


def _cfg(**kw):
    base = dict(method="lmc-conv", layers=2, hidden=4, lr=0.1, epochs=2,
                parts=4, clusters=2, partition="random", seed=0)
    base.update(kw)
    return RunConfig(**base).finalize()


# -- configuration ----------------------------------------------------------

def test_model_is_inferred_from_method():
    assert RunConfig(method="lmc-rec").finalize().model == "recgcn"
    assert RunConfig(method="gas-rec").finalize().model == "recgcn"
    assert RunConfig(method="lmc-conv").finalize().model == "gcn"
    assert RunConfig(method="gd", model="recgcn").finalize().model == "recgcn"


def test_blend_schedule_defaults_follow_batch_fraction():
    small = RunConfig(method="lmc-conv", parts=8, clusters=2).finalize()
    assert small.alpha == 0.4 and small.score == "2x-x2"
    large = RunConfig(method="lmc-conv", parts=8, clusters=4).finalize()
    assert large.alpha == 1.0 and large.score == "one"
    explicit = RunConfig(method="lmc-conv", parts=8, clusters=2,
                         alpha=0.7, score="x").finalize()
    assert explicit.alpha == 0.7 and explicit.score == "x"


@pytest.mark.parametrize("kw,msg", [
    (dict(method="adam"), "unknown method"),
    (dict(model="mlp"), "unknown model"),
    (dict(method="lmc-conv", model="recgcn"), "requires model gcn"),
    (dict(method="lmc-rec", model="gcn"), "requires model recgcn"),
    (dict(partition="metis"), "unknown partition"),
    (dict(layers=0), "layers must be >= 1"),
    (dict(lr=-0.1), "lr must be >= 0"),
    (dict(clusters=9, parts=8), r"clusters must be in \[1, parts\]"),
    (dict(clusters=0), r"clusters must be in \[1, parts\]"),
    (dict(iid=True, steps=0), "iid sampling needs steps >= 1"),
    (dict(epochs=0), "epochs must be >= 1"),
    (dict(alpha=1.5), r"alpha must be in \[0, 1\]"),
    (dict(score="cubic"), "unknown score"),
    (dict(kappa=1.0), r"kappa must be in \(0, 1\)"),
    (dict(tol=0.0), "tol must be > 0"),
    (dict(max_iter=0), "max_iter must be >= 1"),
    (dict(eval_every=0), "eval_every must be >= 1"),
])
def test_config_validation(kw, msg):
    with pytest.raises(ConfigError, match=msg):
        RunConfig(**kw).finalize()


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nmethod = lmc-rec\n\nlr=0.05  # inline\n"
                    "epochs = 7\niid = yes\n")
    vals = parse_config_file(str(path))
    assert vals == {"method": "lmc-rec", "lr": 0.05, "epochs": 7, "iid": True}


@pytest.mark.parametrize("text,msg", [
    ("method lmc-conv\n", "expected key = value"),
    ("optimizer = sgd\n", "unknown key"),
    ("epochs = soon\n", "bad value for epochs"),
    ("iid = maybe\n", "bad value for iid"),
])
def test_config_file_errors(tmp_path, text, msg):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=msg):
        parse_config_file(str(path))


def test_missing_config_file():
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config_file("/nonexistent/run.cfg")


def test_build_config_precedence():
    cfg = build_config({"lr": 0.5, "epochs": 9}, {"lr": 0.25, "seed": None})
    assert cfg.lr == 0.25          # flag beats file
    assert cfg.epochs == 9         # file beats default
    assert cfg.seed == 0           # None flags are ignored
    with pytest.raises(ConfigError, match="unknown key"):
        build_config(None, {"momentum": 0.9})


# -- checkpoints ------------------------------------------------------------

def test_conv_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    params = init_conv_params(rng, 3, [4, 4], 2)
    hist = ConvHistory.init(rng.normal(size=(6, 3)), params.dims)
    hist.embed[1][:] = rng.normal(size=hist.embed[1].shape)
    hist.aux[1][:] = rng.normal(size=hist.aux[1].shape)
    hist.last_refresh[:] = 3
    path = str(tmp_path / "c.bin")
    save_checkpoint(path, "gcn", params, hist)
    kind, back, bhist = load_checkpoint(path)
    assert kind == "gcn"
    for name, val in params.blocks().items():
        assert np.array_equal(back.blocks()[name], val)
    for l in range(len(hist.embed)):
        assert np.array_equal(bhist.embed[l], hist.embed[l])
    for l in range(1, len(hist.aux)):
        assert np.array_equal(bhist.aux[l], hist.aux[l])
    assert np.array_equal(bhist.last_refresh, hist.last_refresh)

    save_checkpoint(path, "gcn", params, None)
    _, _, nohist = load_checkpoint(path)
    assert nohist is None


def test_rec_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    params = init_rec_params(rng, 3, 5, 2, 0.83)
    hist = RecHistory.init(7, 5)
    hist.embed[:] = rng.normal(size=hist.embed.shape)
    hist.preact[:] = rng.normal(size=hist.preact.shape)
    path = str(tmp_path / "r.bin")
    save_checkpoint(path, "recgcn", params, hist)
    kind, back, bhist = load_checkpoint(path)
    assert kind == "recgcn"
    assert back.kappa == 0.83
    for name, val in params.blocks().items():
        assert np.array_equal(back.blocks()[name], val)
    for name in ("embed", "aux", "preact", "last_refresh"):
        assert np.array_equal(getattr(bhist, name), getattr(hist, name))


def test_checkpoint_corruption(tmp_path):
    rng = np.random.default_rng(2)
    params = init_conv_params(rng, 3, [4], 2)
    path = tmp_path / "c.bin"
    save_checkpoint(str(path), "gcn", params)
    raw = path.read_bytes()

    (tmp_path / "magic.bin").write_bytes(b"NOTACKPT" + raw[8:])
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(str(tmp_path / "magic.bin"))

    (tmp_path / "short.bin").write_bytes(raw[:-9])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(str(tmp_path / "short.bin"))

    (tmp_path / "long.bin").write_bytes(raw + b"\x00")
    with pytest.raises(CheckpointError, match="trailing bytes"):
        load_checkpoint(str(tmp_path / "long.bin"))

    with pytest.raises(CheckpointError, match="unknown model kind"):
        save_checkpoint(str(tmp_path / "k.bin"), "mlp", params)


# -- training loop ----------------------------------------------------------

def test_run_training_step_accounting():
    ds = gen_two_cluster(60, 3, seed=0)
    res = run_training(_cfg(), ds)
    assert len(res.rows) + res.skipped == 2 * 2  # epochs * ceil(parts/c)
    assert set(res.rows[0]) == {"epoch", "step", "loss", "train_acc",
                                "val_acc", "grad_norm", "fwd_iters",
                                "bwd_iters", "wall_ms"}
    assert res.final_loss == res.rows[-1]["loss"]
    assert set(res.accs) == {"train", "val", "test"}
    assert TrainResult(None, None, [], {}).final_loss != res.final_loss


# Per-step losses of three steps on a fixed tiny dataset, recorded before the
# method dispatch was rewritten as a table; the rewrite moved no arithmetic.
PINNED_LOSSES = {
    ("gd", "gcn"):
        [0.6565591944892694, 0.6543609653387001, 0.6520524757216228],
    ("gd", "recgcn"):
        [0.6920069872452604, 0.6832106613766866, 0.674726893047481],
    ("backward-sgd", "gcn"):
        [0.7162591278011207, 0.7329837758346971, 0.7792278429399798],
    ("backward-sgd", "recgcn"):
        [0.7574920623559894, 0.7657664598497359, 0.782702970083379],
    ("lmc-conv", "gcn"):
        [0.7162591278011207, 0.7346359501293926, 0.779654874050874],
    ("lmc-rec", "recgcn"):
        [0.7488482786532351, 0.7599593910744197, 0.7827012610791562],
    ("gas-conv", "gcn"):
        [0.7330851464399794, 0.7396766551737256, 0.7812712290118653],
    ("gas-rec", "recgcn"):
        [0.7488482786532351, 0.7599593910744197, 0.7826924835221831],
    ("cluster", "gcn"):
        [0.7192234944487513, 0.7383909267692268, 0.7823438958142269],
}


def _trains(method, model):
    try:
        RunConfig(method=method, model=model).finalize()
    except ConfigError:
        return False
    return True


ALLOWED = [(m, f) for m in METHODS for f in MODELS if _trains(m, f)]


def test_every_allowed_pair_is_pinned():
    assert sorted(ALLOWED) == sorted(PINNED_LOSSES)


@pytest.mark.parametrize("method,model", ALLOWED)
def test_method_losses_are_pinned(method, model):
    ds = gen_two_cluster(40, 4, seed=0)
    cfg = _cfg(method=method, model=model, epochs=3, steps=3, iid=True)
    losses = [row["loss"] for row in run_training(cfg, ds).rows]
    assert losses == pytest.approx(PINNED_LOSSES[(method, model)],
                                   rel=1e-12, abs=0.0)


def test_unknown_method_raises():
    ds = gen_two_cluster(40, 4, seed=0)
    cfg = _cfg()
    params, hist = init_model(cfg, ds)
    cfg.method = "adam"
    from lmcgnn.graph import normalized_adjacency
    with pytest.raises(ValueError, match="unknown method"):
        make_step_fn(cfg, ds, normalized_adjacency(ds.graph), params, hist)


def test_run_training_is_deterministic():
    ds = gen_two_cluster(60, 3, seed=1)
    a = run_training(_cfg(method="lmc-rec", partition="clustered"), ds)
    b = run_training(_cfg(method="lmc-rec", partition="clustered"), ds)
    assert [r["loss"] for r in a.rows] == [r["loss"] for r in b.rows]
    for name, val in a.params.blocks().items():
        assert np.array_equal(b.params.blocks()[name], val)


def test_singleton_parts_skip_unlabeled_batches():
    ds = gen_two_cluster(24, 3, seed=2)
    cfg = _cfg(parts=24, clusters=1, epochs=1)
    res = run_training(cfg, ds)
    n_labeled = int((ds.train_labels >= 0).sum())
    assert len(res.rows) == n_labeled
    assert res.skipped == 24 - n_labeled


def test_eval_every_holds_accuracies_between_refreshes():
    ds = gen_two_cluster(60, 3, seed=3)
    res = run_training(_cfg(epochs=3, eval_every=3), ds)
    rows = res.rows
    assert rows[1]["train_acc"] == rows[0]["train_acc"]
    assert rows[1]["val_acc"] == rows[0]["val_acc"]


def test_iid_sampling_runs_requested_steps():
    ds = gen_two_cluster(60, 3, seed=4)
    res = run_training(_cfg(iid=True, steps=5, epochs=1), ds)
    assert len(res.rows) + res.skipped == 5


def test_non_finite_loss_aborts():
    ds = gen_two_cluster(40, 3, seed=5)
    ds.X[0, 0] = np.nan
    with pytest.raises(NumericAbort, match="non-finite loss"):
        run_training(_cfg(method="gd", lr=0.1, epochs=2), ds)


def test_predict_shape_and_range():
    ds = gen_two_cluster(40, 3, seed=6)
    cfg = _cfg(method="gd", epochs=1)
    res = run_training(cfg, ds)
    from lmcgnn.graph import normalized_adjacency
    pred = predict(cfg, ds, normalized_adjacency(ds.graph), res.params)
    assert pred.shape == (40,)
    assert set(np.unique(pred)) <= {0, 1}


def test_write_metrics_round_trip(tmp_path):
    ds = gen_two_cluster(40, 3, seed=7)
    res = run_training(_cfg(epochs=1), ds)
    path = tmp_path / "metrics.csv"
    write_metrics(str(path), res.rows)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(METRIC_COLUMNS)
    assert len(lines) == 1 + len(res.rows)
    first = dict(zip(METRIC_COLUMNS, lines[1].split(",")))
    assert float(first["loss"]) == res.rows[0]["loss"]  # repr round-trips


def test_diagnose_trace_shapes():
    ds = gen_two_cluster(40, 3, seed=8)
    cfg = _cfg(method="gd", epochs=2)
    lmc = run_diagnose(cfg, ds, "lmc-conv")
    assert len(lmc.rows) == len(run_training(_cfg(epochs=2), ds).rows)
    err = lmc.column("grad_rel_err")
    assert np.all(np.isfinite(err)) and err.min() >= 0.0
    assert np.all(np.isfinite(lmc.column("d_h")))
    sgd = run_diagnose(cfg, ds, "backward-sgd")
    assert np.all(np.isnan(sgd.column("d_h")))
    assert np.all(np.isnan(sgd.column("d_v")))
    assert np.all(np.isfinite(sgd.column("grad_rel_err")))
