"""Run configuration: the method table, typed fields, flat config files,
flag overrides.

Config files are plain text, one ``key = value`` per line, ``#`` starts a
comment.  Command-line flags override file values, which override the
defaults below.  Unknown keys and malformed values are configuration
errors (exit code 2 at the CLI).
"""
from __future__ import annotations

from dataclasses import dataclass, fields

from .. import convnet, recnet
from ..engine import conv, rec
from ..engine.blend import SCORE_KINDS


@dataclass(frozen=True)
class Method:
    """A training method: the model families it trains, whether it keeps
    history caches, and how it binds its step function.

    A bound step is called as step(s, batch, step_index), where `s` carries
    what `trainer.loop.make_step_fn` binds: adj, g, X, labels, n_labeled,
    params, hist, schedule, lr, tol, max_iter and counter.  Every entry
    looks its step up on the step's module at call time, not when the table
    is built, so a wrapper installed on that module attribute (a tracer, a
    profiler) sees every call.
    """

    history: bool   # keeps history caches, which checkpoints save
    steps: dict     # model family -> bound step

    @property
    def models(self) -> tuple:
        """Model families the method trains; the first is the default."""
        return tuple(self.steps)


METHOD_TABLE = {
    "gd": Method(False, {
        "gcn": lambda s, batch, step: convnet.gd_step(
            s.adj, s.X, s.labels, s.params, s.lr, step, counter=s.counter),
        "recgcn": lambda s, batch, step: recnet.gd_rec_step(
            s.adj, s.X, s.labels, s.params, s.lr, step, s.tol, s.max_iter,
            counter=s.counter),
    }),
    "backward-sgd": Method(False, {
        "gcn": lambda s, batch, step: conv.backward_sgd_step(
            s.adj, s.X, s.labels, batch, s.params, s.lr, step,
            counter=s.counter),
        "recgcn": lambda s, batch, step: rec.rec_backward_sgd_step(
            s.adj, s.X, s.labels, batch, s.params, s.lr, step, s.tol,
            s.max_iter, counter=s.counter),
    }),
    "lmc-conv": Method(True, {
        "gcn": lambda s, batch, step: conv.lmc_conv_step(
            s.adj, s.g, s.X, s.labels, s.n_labeled, batch, s.params, s.hist,
            s.schedule, s.lr, step, counter=s.counter),
    }),
    "lmc-rec": Method(True, {
        "recgcn": lambda s, batch, step: rec.lmc_rec_step(
            s.adj, s.g, s.X, s.labels, s.n_labeled, batch, s.params, s.hist,
            s.lr, step, s.tol, s.max_iter, counter=s.counter),
    }),
    "gas-conv": Method(True, {
        "gcn": lambda s, batch, step: conv.gas_conv_step(
            s.adj, s.g, s.X, s.labels, s.n_labeled, batch, s.params, s.hist,
            s.lr, step, counter=s.counter),
    }),
    "gas-rec": Method(True, {
        "recgcn": lambda s, batch, step: rec.gas_rec_step(
            s.adj, s.g, s.X, s.labels, s.n_labeled, batch, s.params, s.hist,
            s.lr, step, s.tol, s.max_iter, counter=s.counter),
    }),
    "cluster": Method(False, {
        "gcn": lambda s, batch, step: conv.cluster_step(
            s.g, s.X, s.labels, batch, s.params, s.lr, step,
            counter=s.counter),
    }),
}

METHODS = tuple(METHOD_TABLE)
MODELS = ("gcn", "recgcn")
PARTITIONS = ("random", "clustered")

# Blend schedule defaults flip to plain full-strength compensation once a
# batch covers at least this fraction of the parts.
LARGE_BATCH_FRACTION = 0.4


class ConfigError(ValueError):
    """Invalid configuration value, file, or combination."""


@dataclass
class RunConfig:
    method: str = "gd"
    model: str = ""            # empty: inferred from method
    data: str = ""
    out: str = "out"
    layers: int = 2
    hidden: int = 16
    lr: float = 0.1
    epochs: int = 50
    steps: int = 0             # only used with iid sampling
    iid: bool = False
    parts: int = 8
    clusters: int = 2
    partition: str = "clustered"
    seed: int = 0
    alpha: float = -1.0        # negative: schedule default by batch fraction
    score: str = ""            # empty: schedule default by batch fraction
    kappa: float = 0.95
    tol: float = 1e-8
    max_iter: int = 500
    eval_every: int = 1

    def finalize(self) -> "RunConfig":
        """Fill inferred fields, then validate.  Returns self."""
        if not self.model and self.method in METHOD_TABLE:
            self.model = METHOD_TABLE[self.method].models[0]
        large = self.clusters >= LARGE_BATCH_FRACTION * self.parts
        if self.alpha < 0.0:
            self.alpha = 1.0 if large else 0.4
        if not self.score:
            self.score = "one" if large else "2x-x2"
        self.validate()
        return self

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        families = METHOD_TABLE[self.method].models
        if self.model not in families:
            raise ConfigError(f"method {self.method} requires model "
                              f"{' or '.join(families)}")
        if self.partition not in PARTITIONS:
            raise ConfigError(f"unknown partition kind {self.partition!r}")
        if self.layers < 1:
            raise ConfigError("layers must be >= 1")
        if self.hidden < 1:
            raise ConfigError("hidden must be >= 1")
        if self.lr < 0.0:
            raise ConfigError("lr must be >= 0")
        if self.parts < 1:
            raise ConfigError("parts must be >= 1")
        if not 1 <= self.clusters <= self.parts:
            raise ConfigError("clusters must be in [1, parts]")
        if self.iid:
            if self.steps < 1:
                raise ConfigError("iid sampling needs steps >= 1")
        elif self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must be in [0, 1]")
        if self.score not in SCORE_KINDS:
            raise ConfigError(f"unknown score {self.score!r}")
        if not 0.0 < self.kappa < 1.0:
            raise ConfigError("kappa must be in (0, 1)")
        if self.tol <= 0.0:
            raise ConfigError("tol must be > 0")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")


_FIELDS = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELDS[key]
    raw = raw.strip()
    try:
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None


def parse_config_file(path: str) -> dict:
    """Read a flat key = value file into a dict of typed values."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def build_config(file_vals: dict | None, flag_vals: dict) -> RunConfig:
    """Merge defaults, file values, then flags (flags win)."""
    cfg = RunConfig()
    for source in (file_vals or {}, flag_vals):
        for key, val in source.items():
            if val is None:
                continue
            if key not in _FIELDS:
                raise ConfigError(f"unknown key {key!r}")
            setattr(cfg, key, val)
    return cfg.finalize()
