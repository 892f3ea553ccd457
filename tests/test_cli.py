"""Command line interface: outputs, exit codes, config merging."""
import filecmp

import numpy as np
import pytest

from lmcgnn.graph import load_partition
from lmcgnn.trainer.checkpoint import load_checkpoint
from lmcgnn.trainer.cli import main
from lmcgnn.trainer.data import load_dataset


def _gen(tmp_path, name="data", kind="two-cluster", n=40, extra=()):
    out = str(tmp_path / name)
    assert main(["gen", "--kind", kind, "--n", str(n), "--d", "3",
                 "--seed", "0", "--out", out, *extra]) == 0
    return out


def test_gen_writes_loadable_dataset(tmp_path, capsys):
    data = _gen(tmp_path, extra=("--flip", "0.1"))
    assert capsys.readouterr().out.startswith(f"wrote {data}: n=40 d=3")
    ds = load_dataset(data)
    assert ds.n == 40 and ds.n_classes == 2


def test_gen_rejects_wrong_knob(tmp_path, capsys):
    code = main(["gen", "--kind", "two-cluster", "--n", "40",
                 "--out", str(tmp_path / "d"), "--chain-len", "4"])
    assert code == 2
    assert "does not apply" in capsys.readouterr().err


def test_gen_rejects_bad_flip(tmp_path, capsys):
    code = main(["gen", "--kind", "two-cluster", "--n", "40",
                 "--out", str(tmp_path / "d"), "--flip", "0.6"])
    assert code == 2
    assert "flip must lie" in capsys.readouterr().err


def test_partition_command(tmp_path, capsys):
    data = _gen(tmp_path)
    save = str(tmp_path / "parts.txt")
    assert main(["partition", "--data", data, "--parts", "4",
                 "--save", save]) == 0
    assert "parts=4 kind=clustered" in capsys.readouterr().out
    assert load_partition(save).B == 4


def test_train_writes_metrics_and_checkpoint(tmp_path, capsys):
    data = _gen(tmp_path)
    out = str(tmp_path / "run_gd")
    assert main(["train", "--data", data, "--method", "gd", "--epochs", "3",
                 "--parts", "4", "--out", out]) == 0
    assert "method=gd model=gcn steps=3" in capsys.readouterr().out
    lines = (tmp_path / "run_gd" / "metrics.csv").read_text().splitlines()
    assert len(lines) == 1 + 3
    kind, _, hist = load_checkpoint(str(tmp_path / "run_gd" / "checkpoint.bin"))
    assert kind == "gcn" and hist is None

    out = str(tmp_path / "run_lmc")
    assert main(["train", "--data", data, "--method", "lmc-conv",
                 "--epochs", "2", "--parts", "4", "--clusters", "2",
                 "--out", out]) == 0
    kind, _, hist = load_checkpoint(str(tmp_path / "run_lmc" / "checkpoint.bin"))
    assert kind == "gcn" and hist is not None


def test_train_rec_checkpoint(tmp_path):
    data = _gen(tmp_path, kind="chain-label")
    out = str(tmp_path / "run_rec")
    assert main(["train", "--data", data, "--method", "lmc-rec",
                 "--epochs", "2", "--parts", "4", "--clusters", "2",
                 "--hidden", "8", "--out", out]) == 0
    kind, params, hist = load_checkpoint(str(tmp_path / "run_rec" /
                                              "checkpoint.bin"))
    assert kind == "recgcn" and hist is not None
    assert params.kappa == 0.95


def test_train_runs_are_deterministic(tmp_path):
    data = _gen(tmp_path)
    args = ["train", "--data", data, "--method", "lmc-conv", "--epochs", "2",
            "--parts", "4", "--clusters", "2", "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert filecmp.cmp(tmp_path / "a" / "checkpoint.bin",
                       tmp_path / "b" / "checkpoint.bin", shallow=False)
    heads, *rows_a = (tmp_path / "a" / "metrics.csv").read_text().splitlines()
    _, *rows_b = (tmp_path / "b" / "metrics.csv").read_text().splitlines()
    skip = heads.split(",").index("wall_ms")  # timing is not deterministic
    for ra, rb in zip(rows_a, rows_b):
        ca, cb = ra.split(","), rb.split(",")
        del ca[skip], cb[skip]
        assert ca == cb


def test_config_file_merges_under_flags(tmp_path):
    data = _gen(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = gd\nepochs = 5\nparts = 4\n")
    out = str(tmp_path / "run_cfg")
    assert main(["train", "--data", data, "--config", str(cfg),
                 "--epochs", "2", "--out", out]) == 0
    lines = (tmp_path / "run_cfg" / "metrics.csv").read_text().splitlines()
    assert len(lines) == 1 + 2  # flag epochs wins over the file's 5


def test_missing_data_exits_config_error(capsys):
    assert main(["train", "--method", "gd"]) == 2
    assert "dataset directory is required" in capsys.readouterr().err


def test_bad_config_file_exits_config_error(tmp_path, capsys):
    data = _gen(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("optimizer = sgd\n")
    assert main(["train", "--data", data, "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_non_finite_data_exits_numeric_error(tmp_path, capsys):
    root = tmp_path / "nan_data"
    root.mkdir()
    (root / "edges.tsv").write_text("0\t1\n1\t2\n2\t3\n")
    (root / "features.csv").write_text("nan,0.0\n1.0,0.0\n0.0,1.0\n1.0,1.0\n")
    (root / "labels.csv").write_text("0,0\n1,1\n2,1\n3,0\n")
    (root / "split.csv").write_text("0,train\n1,train\n2,val\n3,test\n")
    code = main(["train", "--data", str(root), "--method", "gd",
                 "--parts", "2", "--clusters", "1", "--epochs", "2"])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


def test_stalled_solver_exits_noconv(tmp_path, capsys):
    data = _gen(tmp_path, kind="chain-label")
    code = main(["train", "--data", data, "--method", "lmc-rec",
                 "--parts", "4", "--clusters", "2", "--epochs", "1",
                 "--max-iter", "1"])
    assert code == 4
    assert "solver did not converge" in capsys.readouterr().err


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--model", "gcn", "--instances", "1"]) == 0
    out = capsys.readouterr().out
    assert "instance 0: max_elementwise_err=" in out
    assert "worst=" in out and "bound=1e-05" in out


def test_enumerate_command(tmp_path, capsys):
    data = _gen(tmp_path, n=24)
    assert main(["enumerate", "--data", data, "--parts", "4",
                 "--clusters", "2", "--hidden", "4"]) == 0
    out = capsys.readouterr().out
    assert "batches=6" in out and "bound=1e-10" in out


@pytest.mark.parametrize("command", ["train", "partition", "diagnose",
                                     "enumerate"])
def test_parts_above_node_count_exits_config_error(tmp_path, capsys, command):
    data = _gen(tmp_path)
    capsys.readouterr()
    code = main([command, "--data", data, "--parts", "41",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceeds the node count (40)" in err
    assert not (tmp_path / "out").exists()


def test_diagnose_unknown_method_exits_before_training(tmp_path, capsys):
    data = _gen(tmp_path)
    capsys.readouterr()
    code = main(["diagnose", "--data", data, "--methods", "lmc-conv,bogus",
                 "--epochs", "1", "--parts", "4", "--out",
                 str(tmp_path / "out")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "'bogus'" in captured.err
    assert not (tmp_path / "out").exists()


def test_enumerate_past_guard_exits_config_error(tmp_path, capsys):
    data = _gen(tmp_path)
    capsys.readouterr()
    code = main(["enumerate", "--data", data, "--parts", "40",
                 "--clusters", "20"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "enumeration guard (100000)" in err


def test_diagnose_command(tmp_path, capsys):
    data = _gen(tmp_path)
    out = str(tmp_path / "diag")
    assert main(["diagnose", "--data", data, "--methods",
                 "lmc-conv,gas-conv", "--epochs", "2", "--parts", "4",
                 "--clusters", "2", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "lmc-conv:" in text and "gas-conv:" in text
    assert (tmp_path / "diag" / "trace_lmc-conv.csv").exists()
    assert (tmp_path / "diag" / "trace_gas-conv.csv").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
