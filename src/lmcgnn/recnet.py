"""Recurrent fixed-point graph network solved by Picard iteration.

Equilibrium, node-major:

    H* = relu(A H* W + X P + 1 c^T),      logits = H* W_out.

Well-posedness is enforced by projecting W so that the column abs-sums stay
at or below kappa < 1 (equivalently inf_norm_rows(W^T) <= kappa).  Together
with the unit Perron value of A this makes the iteration map a contraction
with rate at most kappa, so the forward and backward solves both converge
geometrically from any start.

The backward pass solves the adjoint fixed point

    V* = A (relu'(Z*) o V*) W^T + dH,     dH = dlogits W_out^T,

after which the implicit gradients are local expressions in (H*, Z*, V*):

    dW = (A H*)^T (relu'(Z*) o V*)
    dP = X^T (relu'(Z*) o V*)
    dc = column sums of (relu'(Z*) o V*)
    dW_out = H*^T dlogits.

The raw iterations live in picard_forward/picard_backward so that the
full-graph solvers here and the batch-local solvers in the training engine
share one residual definition: ||x_{k+1} - x_k||_F / (1 + ||x_k||_F).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradset import GradSet
from .graph import NormalizedAdjacency
from .kernels import (aggregate, fro_norm, full_view, masked_rows, matmul,
                      relu, softmax_xent)
from .report import OpCounter, training_step

Array = np.ndarray

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 500


class SolverDiverged(RuntimeError):
    """Raised when an iterate stops being finite."""


class SolverStalled(RuntimeError):
    """Raised when the residual tolerance is not met within max_iter."""


@dataclass
class RecParams:
    """Recurrence weight W (d x d), input map P (d_x x d), offset c (d),
    output head W_out (d x K), and the contraction bound kappa."""

    W: Array
    P: Array
    c: Array
    w_out: Array
    kappa: float = 0.95

    @property
    def dim(self) -> int:
        return self.W.shape[0]

    def blocks(self) -> dict:
        return {"W": self.W, "P": self.P, "c": self.c, "Wout": self.w_out}

    def copy(self) -> "RecParams":
        return RecParams(self.W.copy(), self.P.copy(), self.c.copy(),
                         self.w_out.copy(), self.kappa)

    def apply_grads(self, grads: GradSet, lr: float) -> None:
        """SGD update followed by re-projection of W onto the contraction
        ball, so well-posedness survives training."""
        self.W -= lr * grads["W"]
        self.P -= lr * grads["P"]
        self.c -= lr * grads["c"]
        self.w_out -= lr * grads["Wout"]
        np.copyto(self.W, project_wellposed(self.W, self.kappa))


def project_wellposed(W: Array, kappa: float) -> Array:
    """Scale any column of W whose abs-sum s exceeds kappa by kappa/s.

    The recurrence right-multiplies by W, so the relevant induced norm is
    the row norm of W^T, i.e. column abs-sums here.  kappa must sit in (0,1).
    """
    if not (0.0 < kappa < 1.0):
        raise ValueError("kappa must be in (0, 1)")
    W = np.asarray(W, dtype=np.float64).copy()
    sums = np.abs(W).sum(axis=0)
    over = sums > kappa
    if np.any(over):
        W[:, over] *= kappa / sums[over]
    return W


def init_rec_params(rng: np.random.Generator, d_in: int, d: int,
                    n_classes: int, kappa: float = 0.95) -> RecParams:
    W = project_wellposed(rng.standard_normal((d, d)) / np.sqrt(d), kappa)
    P = rng.standard_normal((d_in, d)) * np.sqrt(2.0 / (d_in + d))
    c = np.zeros(d)
    w_out = rng.standard_normal((d, n_classes)) * np.sqrt(2.0 / (d + n_classes))
    return RecParams(W, P, c, w_out, kappa)


@dataclass
class RecState:
    """Converged forward solve: equilibrium H, its pre-activation Z, the
    aggregated rows A H, residual history, and convergence metadata."""

    H: Array
    Z: Array
    agg: Array
    residuals: list
    iters: int
    converged: bool

    @property
    def mask(self) -> Array:
        return self.Z > 0.0


@dataclass
class RecAux:
    """Converged adjoint solve."""

    V: Array
    residuals: list
    iters: int
    converged: bool


def _relative_residual(new: Array, old: Array) -> float:
    return fro_norm(new - old) / (1.0 + fro_norm(old))


def picard_forward(agg_fn, W: Array, bias: Array, warm: Array, tol: float,
                   max_iter: int, raise_on_stall: bool, what: str):
    """Iterate H <- relu(agg_fn(H) @ W + bias) from `warm`.

    Returns (H, Z, aggH, residuals, iters, converged) with Z and aggH
    evaluated at the returned H, so (H, Z) is a consistent linearization
    point for the adjoint pass."""
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    H = np.array(warm, dtype=np.float64)
    residuals = []
    agg = agg_fn(H)
    Z = matmul(agg, W) + bias
    converged = False
    iters = 0
    for k in range(max_iter):
        H_new = relu(Z)
        if not np.all(np.isfinite(H_new)):
            raise SolverDiverged(f"{what}: iterate not finite at iter {k}")
        r = _relative_residual(H_new, H)
        residuals.append(r)
        H = H_new
        iters = k + 1
        agg = agg_fn(H)
        Z = matmul(agg, W) + bias
        if r <= tol:
            converged = True
            break
    if not converged and raise_on_stall:
        raise SolverStalled(
            f"{what}: residual {residuals[-1]:.3e} > tol {tol:.1e} "
            f"after {max_iter} iterations")
    return H, Z, agg, residuals, iters, converged


def picard_backward(aggm_fn, W_t: Array, const: Array, mask: Array,
                    warm: Array, tol: float, max_iter: int,
                    raise_on_stall: bool, what: str):
    """Iterate V <- aggm_fn(mask o V) @ W_t + const from `warm`."""
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    V = np.array(warm, dtype=np.float64)
    residuals = []
    converged = False
    iters = 0
    for k in range(max_iter):
        V_new = matmul(aggm_fn(masked_rows(mask, V)), W_t) + const
        if not np.all(np.isfinite(V_new)):
            raise SolverDiverged(f"{what}: iterate not finite at iter {k}")
        r = _relative_residual(V_new, V)
        residuals.append(r)
        V = V_new
        iters = k + 1
        if r <= tol:
            converged = True
            break
    if not converged and raise_on_stall:
        raise SolverStalled(
            f"{what}: residual {residuals[-1]:.3e} > tol {tol:.1e} "
            f"after {max_iter} iterations")
    return V, residuals, iters, converged


def solve_forward(adj: NormalizedAdjacency, X: Array, params: RecParams,
                  tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                  warm_start: Array | None = None,
                  raise_on_stall: bool = True) -> RecState:
    """Picard-iterate H <- relu(A H W + X P + 1 c^T) to relative tolerance
    ||H_{k+1} - H_k||_F / (1 + ||H_k||_F) <= tol."""
    view = full_view(adj)
    X = np.asarray(X, dtype=np.float64)
    bias = matmul(X, params.P) + params.c
    warm = np.zeros((X.shape[0], params.dim)) if warm_start is None else warm_start
    H, Z, agg, residuals, iters, converged = picard_forward(
        lambda cur: aggregate(view, cur), params.W, bias, warm,
        tol, max_iter, raise_on_stall, "forward solve")
    return RecState(H, Z, agg, residuals, iters, converged)


def solve_backward(adj: NormalizedAdjacency, state: RecState, dH: Array,
                   params: RecParams, tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER,
                   warm_start: Array | None = None,
                   raise_on_stall: bool = True) -> RecAux:
    """Picard-iterate V <- A (relu'(Z*) o V) W^T + dH (same tolerance
    semantics as the forward solve)."""
    view = full_view(adj)
    warm = np.zeros_like(dH) if warm_start is None else warm_start
    V, residuals, iters, converged = picard_backward(
        lambda rows: aggregate(view, rows), params.W.T, dH, state.mask, warm,
        tol, max_iter, raise_on_stall, "backward solve")
    return RecAux(V, residuals, iters, converged)


def rec_grads(X: Array, state: RecState, aux: RecAux, params: RecParams,
              dlogits: Array) -> GradSet:
    """Implicit gradients at the solved pair (state, aux)."""
    M = masked_rows(state.mask, aux.V)
    return GradSet({
        "W": matmul(state.agg.T, M),
        "P": matmul(np.asarray(X, dtype=np.float64).T, M),
        "c": M.sum(axis=0),
        "Wout": matmul(state.H.T, dlogits),
    })


def full_rec_gradients(adj: NormalizedAdjacency, X: Array, labels: Array,
                       params: RecParams, tol: float = DEFAULT_TOL,
                       max_iter: int = DEFAULT_MAX_ITER):
    """Exact loss and implicit gradients on the whole graph."""
    state = solve_forward(adj, X, params, tol, max_iter)
    logits = matmul(state.H, params.w_out)
    loss, dlogits = softmax_xent(logits, labels, 1.0)
    dH = matmul(dlogits, params.w_out.T)
    aux = solve_backward(adj, state, dH, params, tol, max_iter)
    grads = rec_grads(X, state, aux, params, dlogits)
    return loss, grads, state, aux


def count_full_solve(counter: OpCounter, n: int) -> None:
    """Count one pair of full-graph solves: every node's embedding and
    pullback written, every feature row read."""
    counter.embed_rows_written += n
    counter.aux_rows_written += n
    counter.rows_read += n


@training_step
def gd_rec_step(adj: NormalizedAdjacency, X: Array, labels: Array,
                params: RecParams, lr: float, step: int = 0,
                tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                counter: OpCounter | None = None):
    """One full-batch step through the implicit gradients."""
    loss, grads, state, aux = full_rec_gradients(adj, X, labels, params,
                                                 tol, max_iter)
    count_full_solve(counter, adj.n)
    return loss, grads, state.iters, aux.iters
