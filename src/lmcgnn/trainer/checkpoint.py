"""Binary checkpoints: model parameters plus optional history caches.

Layout (all integers little-endian):

* 8-byte magic, u32 format version
* u8 kind length + kind string ("gcn" or "recgcn")
* u32 param block count, then per block: u16 name length + name,
  u8 dtype code (0 = float64, 1 = int64), u8 ndim, u32 per dimension
* u32 history block count (0 when no history), same block headers
* raw array payloads in declared order

Arrays round-trip bitwise, so a reloaded model reproduces forward
outputs exactly.
"""
from __future__ import annotations

import struct

import numpy as np

from ..convnet import ConvParams
from ..engine.history import ConvHistory, RecHistory
from ..recnet import RecParams

Array = np.ndarray

MAGIC = b"LMCGNNCK"
VERSION = 1

_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<i8")}
_CODES = {np.dtype(np.float64): 0, np.dtype(np.int64): 1}


class CheckpointError(ValueError):
    """Malformed or truncated checkpoint file."""


def _block_header(name: str, arr: Array) -> bytes:
    code = _CODES.get(arr.dtype)
    if code is None:
        raise CheckpointError(f"block {name}: unsupported dtype {arr.dtype}")
    raw = name.encode("utf-8")
    out = [struct.pack("<H", len(raw)), raw,
           struct.pack("<BB", code, arr.ndim)]
    out.extend(struct.pack("<I", d) for d in arr.shape)
    return b"".join(out)


def _write_blocks(fh, blocks: dict) -> None:
    fh.write(struct.pack("<I", len(blocks)))
    for name, arr in blocks.items():
        fh.write(_block_header(name, np.ascontiguousarray(arr)))
    for name, arr in blocks.items():
        code = _CODES[np.asarray(arr).dtype]
        fh.write(np.ascontiguousarray(arr).astype(_DTYPES[code]).tobytes())


def _param_blocks(kind: str, params) -> dict:
    blocks = dict(params.blocks())
    if kind == "recgcn":
        blocks["kappa"] = np.asarray(params.kappa, dtype=np.float64)
    return blocks


def _hist_blocks(kind: str, hist) -> dict:
    if kind == "gcn":
        out = {f"embed{l}": hist.embed[l] for l in range(len(hist.embed))}
        out.update({f"aux{l}": hist.aux[l] for l in range(1, len(hist.aux))})
    else:
        out = {"embed": hist.embed, "aux": hist.aux, "preact": hist.preact}
    out["last_refresh"] = hist.last_refresh
    return out


def save_checkpoint(path: str, kind: str, params, hist=None) -> None:
    if kind not in ("gcn", "recgcn"):
        raise CheckpointError(f"unknown model kind {kind!r}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        raw = kind.encode("utf-8")
        fh.write(struct.pack("<B", len(raw)))
        fh.write(raw)
        _write_blocks(fh, _param_blocks(kind, params))
        if hist is None:
            fh.write(struct.pack("<I", 0))
        else:
            _write_blocks(fh, _hist_blocks(kind, hist))


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.buf):
            raise CheckpointError("truncated checkpoint")
        out = self.buf[self.pos:self.pos + count]
        self.pos += count
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _read_headers(r: _Reader):
    (count,) = r.unpack("<I")
    headers = []
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        name = r.take(name_len).decode("utf-8")
        code, ndim = r.unpack("<BB")
        if code not in _DTYPES:
            raise CheckpointError(f"block {name}: unknown dtype code {code}")
        shape = tuple(r.unpack("<" + "I" * ndim)) if ndim else ()
        headers.append((name, code, shape))
    return headers


def _read_payload(r: _Reader, headers) -> dict:
    out = {}
    for name, code, shape in headers:
        dt = _DTYPES[code]
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        arr = np.frombuffer(r.take(count * dt.itemsize), dtype=dt)
        out[name] = arr.reshape(shape).astype(dt.newbyteorder("="))
    return out


def _conv_params_from(blocks: dict) -> ConvParams:
    weights = []
    l = 1
    while f"W{l}" in blocks:
        weights.append(blocks[f"W{l}"])
        l += 1
    if not weights or "Wout" not in blocks:
        raise CheckpointError("checkpoint is missing parameter blocks")
    return ConvParams(weights, blocks["Wout"])


def _rec_params_from(blocks: dict) -> RecParams:
    try:
        return RecParams(blocks["W"], blocks["P"], blocks["c"],
                         blocks["Wout"], float(blocks["kappa"].reshape(())))
    except KeyError as exc:
        raise CheckpointError(f"checkpoint is missing block {exc}") from None


def _conv_hist_from(blocks: dict) -> ConvHistory:
    embed = []
    l = 0
    while f"embed{l}" in blocks:
        embed.append(blocks[f"embed{l}"])
        l += 1
    if not embed or "last_refresh" not in blocks:
        raise CheckpointError("checkpoint is missing history blocks")
    try:
        aux = [None] + [blocks[f"aux{k}"] for k in range(1, l)]
    except KeyError as exc:
        raise CheckpointError(f"checkpoint is missing block {exc}") from None
    return ConvHistory(embed, aux, blocks["last_refresh"])


def _rec_hist_from(blocks: dict) -> RecHistory:
    try:
        return RecHistory(blocks["embed"], blocks["aux"], blocks["preact"],
                          blocks["last_refresh"])
    except KeyError as exc:
        raise CheckpointError(f"checkpoint is missing block {exc}") from None


def load_checkpoint(path: str):
    """Returns (kind, params, hist-or-None); arrays are fresh copies."""
    with open(path, "rb") as fh:
        r = _Reader(fh.read())
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: bad magic")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    (kind_len,) = r.unpack("<B")
    kind = r.take(kind_len).decode("utf-8")
    if kind not in ("gcn", "recgcn"):
        raise CheckpointError(f"{path}: unknown model kind {kind!r}")
    param_headers = _read_headers(r)
    param_blocks = _read_payload(r, param_headers)
    hist_headers = _read_headers(r)
    hist_blocks = _read_payload(r, hist_headers)
    if r.pos != len(r.buf):
        raise CheckpointError(f"{path}: trailing bytes")
    if kind == "gcn":
        params = _conv_params_from(param_blocks)
        hist = _conv_hist_from(hist_blocks) if hist_blocks else None
    else:
        params = _rec_params_from(param_blocks)
        hist = _rec_hist_from(hist_blocks) if hist_blocks else None
    return kind, params, hist
