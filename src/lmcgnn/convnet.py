"""Layered graph-convolution network with explicit backward message passing.

Forward, node-major:   H^0 = X,   H^l = relu((A H^{l-1}) W^l),
logits = H^L W_out, mean cross entropy over labeled rows.

The backward pass materializes the per-layer loss pullbacks
V^l = dLoss/dH^l via the reverse recursion

    V^L = dlogits W_out^T
    V^l = A (mask^{l+1} o V^{l+1}) W^{l+1,T}

and the weight gradients dW^l = (A H^{l-1})^T (mask^l o V^l),
dW_out = (H^L)^T dlogits.  No biases anywhere; relu'(0) = 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradset import GradSet
from .graph import NormalizedAdjacency
from .kernels import (aggregate, full_view, masked_rows, matmul, relu,
                      relu_mask, softmax_xent)
from .report import OpCounter, training_step

Array = np.ndarray


@dataclass
class ConvParams:
    """Per-layer weights W^1..W^L plus the linear output head."""

    weights: list
    w_out: Array

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def dims(self) -> list:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def n_classes(self) -> int:
        return self.w_out.shape[1]

    def blocks(self) -> dict:
        out = {f"W{l + 1}": self.weights[l] for l in range(self.n_layers)}
        out["Wout"] = self.w_out
        return out

    def copy(self) -> "ConvParams":
        return ConvParams([w.copy() for w in self.weights], self.w_out.copy())

    def apply_grads(self, grads: GradSet, lr: float) -> None:
        for l in range(self.n_layers):
            self.weights[l] -= lr * grads[f"W{l + 1}"]
        self.w_out -= lr * grads["Wout"]


def init_conv_params(rng: np.random.Generator, d_in: int, hidden: list,
                     n_classes: int) -> ConvParams:
    """Scaled-normal init, sqrt(2 / (fan_in + fan_out)) per block."""
    dims = [d_in] + list(hidden)
    ws = []
    for a, b in zip(dims[:-1], dims[1:]):
        ws.append(rng.standard_normal((a, b)) * np.sqrt(2.0 / (a + b)))
    w_out = rng.standard_normal((dims[-1], n_classes)) * np.sqrt(2.0 / (dims[-1] + n_classes))
    return ConvParams(ws, w_out)


@dataclass
class ForwardCache:
    """Everything the backward pass reuses: per-layer aggregated inputs
    (A H^{l-1}), relu masks, activations, and the logits."""

    H: list          # H[0]=X .. H[L], node-major
    agg: list        # agg[l] = (A H^{l-1}) rows, l = 1..L (index 0 unused)
    mask: list       # boolean relu masks, same indexing
    logits: Array


def forward_full(adj: NormalizedAdjacency, X: Array,
                 params: ConvParams) -> ForwardCache:
    view = full_view(adj)
    H = [np.asarray(X, dtype=np.float64)]
    agg = [None]
    mask = [None]
    for l in range(params.n_layers):
        a = aggregate(view, H[l])
        z = matmul(a, params.weights[l])
        agg.append(a)
        mask.append(relu_mask(z))
        H.append(relu(z))
    logits = matmul(H[-1], params.w_out)
    return ForwardCache(H, agg, mask, logits)


def loss_full(adj: NormalizedAdjacency, X: Array, labels: Array,
              params: ConvParams, weight: float = 1.0):
    """Full-graph loss; returns (loss, dlogits, cache)."""
    cache = forward_full(adj, X, params)
    loss, dlogits = softmax_xent(cache.logits, labels, weight)
    return loss, dlogits, cache


@dataclass
class ConvGrads:
    grads: GradSet
    V: list  # V[l] for l = 1..L (index 0 unused)


def backward_full(adj: NormalizedAdjacency, cache: ForwardCache,
                  dlogits: Array, params: ConvParams) -> ConvGrads:
    view = full_view(adj)
    L = params.n_layers
    blocks = {"Wout": matmul(cache.H[L].T, dlogits)}
    V = [None] * (L + 1)
    V[L] = matmul(dlogits, params.w_out.T)
    for l in range(L, 0, -1):
        m = masked_rows(cache.mask[l], V[l])
        blocks[f"W{l}"] = matmul(cache.agg[l].T, m)
        if l > 1:
            # V^{l-1} = A (mask^l o V^l) W^{l,T}; weights[l-1] is W^l
            V[l - 1] = matmul(aggregate(view, m), params.weights[l - 1].T)
    ordered = {f"W{l + 1}": blocks[f"W{l + 1}"] for l in range(L)}
    ordered["Wout"] = blocks["Wout"]
    return ConvGrads(GradSet(ordered), V)


def full_gradients(adj: NormalizedAdjacency, X: Array, labels: Array,
                   params: ConvParams):
    """Loss + exact gradients + caches in one call."""
    loss, dlogits, cache = loss_full(adj, X, labels, params)
    cg = backward_full(adj, cache, dlogits, params)
    return loss, dlogits, cache, cg


def count_full_pass(counter: OpCounter, adj: NormalizedAdjacency,
                    n_layers: int) -> None:
    """Count one forward and backward sweep over every node of adj: L
    aggregates forward, L - 1 backward, and every layer's rows written."""
    counter.embed_rows_written += adj.n * n_layers
    counter.aux_rows_written += adj.n * n_layers
    for _ in range(2 * n_layers - 1):
        counter.count_view(full_view(adj))


@training_step
def gd_step(adj: NormalizedAdjacency, X: Array, labels: Array,
            params: ConvParams, lr: float, step: int = 0,
            counter: OpCounter | None = None):
    """One full-batch gradient-descent step (in-place parameter update)."""
    loss, _, _, cg = full_gradients(adj, X, labels, params)
    counter.rows_read += adj.n * (params.n_layers + 1)
    count_full_pass(counter, adj, params.n_layers)
    return loss, cg.grads
