"""Persistent per-node history stores for subgraph-wise training.

Histories live on the full node set; a step may only write the core rows of
its batch.  Embedding histories at depth 0 are pinned to the feature matrix
itself and are never written.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


@dataclass
class ConvHistory:
    """Per-layer embedding histories Hbar^0..Hbar^L and pullback histories
    Vbar^1..Vbar^L (index 0 unused).  Hbar^0 is the feature matrix object."""

    embed: list
    aux: list
    last_refresh: Array

    @classmethod
    def init(cls, X: Array, dims: list) -> "ConvHistory":
        """dims = [d_x, d_1, .., d_L]; layers >= 1 start as zeros."""
        n = X.shape[0]
        if X.shape[1] != dims[0]:
            raise ValueError("feature width does not match dims[0]")
        embed = [X] + [np.zeros((n, d)) for d in dims[1:]]
        aux = [None] + [np.zeros((n, d)) for d in dims[1:]]
        return cls(embed, aux, np.full(n, -1, dtype=np.int64))

    @property
    def n_layers(self) -> int:
        return len(self.embed) - 1


@dataclass
class RecHistory:
    """Single history triple for the recurrent model: embeddings Hbar,
    pullbacks Vbar, and the pre-activations Zbar cached alongside (a row of
    Zbar is refreshed exactly when its Hbar row is)."""

    embed: Array
    aux: Array
    preact: Array
    last_refresh: Array

    @classmethod
    def init(cls, n: int, d: int) -> "RecHistory":
        return cls(np.zeros((n, d)), np.zeros((n, d)), np.zeros((n, d)),
                   np.full(n, -1, dtype=np.int64))
