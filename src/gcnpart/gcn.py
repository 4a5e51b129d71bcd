"""Single-process reference GCN: feedforward, loss, backprop, updates.

Layer k computes Z^k = A H^{k-1} W^k and H^k = sigma(Z^k) with A the
normalized adjacency. Backpropagation recurses S^k = A G^k (W^k)^T,
G^{k-1} = S^k * sigma'(Z^{k-1}), with weight gradients
dW^k = (H^{k-1})^T (A G^k) and the plain update W^k <- W^k - eta dW^k.
The caller passes A^T as the backprop operand; it is A itself only when A
is symmetric, as the symmetric normalization of an undirected graph is.

This module is the numerical oracle the distributed runtime is checked
against, so it is deliberately plain: pure functions over immutable
values, float64, no fused tricks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .sparse import CsrMatrix, dense, spmm

ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True)
class GcnModel:
    """Layer dimensions d_0..d_L, weights W^k (d_{k-1} x d_k), activation, eta."""

    dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    activation: str = "relu"
    learning_rate: float = 0.1

    def __post_init__(self):
        if len(self.dims) < 2:
            raise ValueError("need at least one layer (dims = d_0..d_L)")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        check_learning_rate(self.learning_rate)
        ws = tuple(dense(w) for w in self.weights)
        if len(ws) != self.n_layers:
            raise ValueError("need one weight matrix per layer")
        for k, w in enumerate(ws, start=1):
            want = (self.dims[k - 1], self.dims[k])
            if w.shape != want:
                raise ValueError(f"W^{k} has shape {w.shape}, expected {want}")
            w.setflags(write=False)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1


def check_learning_rate(eta: float) -> None:
    if not (eta > 0 and np.isfinite(eta)):
        raise ValueError("learning rate must be positive and finite")


def init_model(dims, seed: int, learning_rate: float = 0.1) -> GcnModel:
    """Seeded uniform init in [-1/sqrt(d_{k-1}), +1/sqrt(d_{k-1})]."""
    rng = np.random.default_rng([int(seed), 0x57])
    ws = []
    for k in range(1, len(dims)):
        bound = 1.0 / np.sqrt(dims[k - 1])
        ws.append(rng.uniform(-bound, bound, size=(dims[k - 1], dims[k])))
    return GcnModel(tuple(dims), tuple(ws), learning_rate=learning_rate)


@dataclass(frozen=True)
class ForwardTrace:
    """Pre-activations z[k] and activations h[k] for k=0..L (z[0] is None)."""

    z: tuple
    h: tuple


@dataclass(frozen=True)
class LabelSet:
    """Class labels for the labeled subset of vertices."""

    labeled_ids: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        ids = np.asarray(self.labeled_ids, dtype=np.int64)
        lab = np.asarray(self.labels, dtype=np.int64)
        if len(ids) != len(lab):
            raise ValueError("labeled_ids and labels must have equal length")
        if np.any(np.diff(np.sort(ids)) == 0):
            raise ValueError("labeled_ids must be distinct")
        if len(lab) and (lab.min() < 0 or lab.max() >= self.n_classes):
            raise ValueError("label out of range")
        object.__setattr__(self, "labeled_ids", ids)
        object.__setattr__(self, "labels", lab)
        ids.setflags(write=False)
        lab.setflags(write=False)

    def __len__(self) -> int:
        return len(self.labeled_ids)


def activate(name: str, z: np.ndarray, derivative: bool = False) -> np.ndarray:
    """The activation at z, or with derivative=True its derivative (relu's is 0 at 0)."""
    z = dense(z)
    if name == "relu":
        return (z > 0).astype(np.float64) if derivative else np.maximum(z, 0.0)
    if name == "identity":
        return np.ones_like(z) if derivative else z.copy()
    raise ValueError(f"unknown activation {name!r}")


def feedforward(model: GcnModel, a_hat: CsrMatrix, h0: np.ndarray) -> ForwardTrace:
    h0 = dense(h0)
    if a_hat.n_rows != a_hat.n_cols:
        raise ValueError("a_hat must be square")
    if h0.shape != (a_hat.n_rows, model.dims[0]):
        raise ValueError(f"h0 has shape {h0.shape}, expected ({a_hat.n_rows}, {model.dims[0]})")
    z: list = [None]
    h: list = [h0]
    for k in range(1, model.n_layers + 1):
        zk = spmm(a_hat, h[k - 1]) @ model.weights[k - 1]
        z.append(zk)
        h.append(activate(model.activation, zk))
    return ForwardTrace(tuple(z), tuple(h))


def _log_softmax(rows: np.ndarray) -> np.ndarray:
    shifted = rows - rows.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def nll_loss_and_grad(h_last: np.ndarray, labels: LabelSet) -> tuple[float, np.ndarray]:
    """Mean negative log likelihood over labeled rows, and d loss / d H^L.

    Unlabeled rows get zero gradient rows.
    """
    h_last = dense(h_last)
    if len(labels) == 0:
        raise ValueError("label set is empty")
    if h_last.shape[1] != labels.n_classes:
        raise ValueError("output width must equal the class count")
    ids, y = labels.labeled_ids, labels.labels
    logp = _log_softmax(h_last[ids])
    loss = float(-logp[np.arange(len(ids)), y].mean())
    grad = np.zeros_like(h_last)
    softmax = np.exp(logp)
    softmax[np.arange(len(ids)), y] -= 1.0
    grad[ids] = softmax / len(ids)
    return loss, grad


def backprop(
    model: GcnModel,
    a_back: CsrMatrix,
    trace: ForwardTrace,
    grad_last: np.ndarray,
) -> tuple[list[np.ndarray], list]:
    """Weight gradients dW^k and the gradient chain G^k (g[0] is None).

    a_back is the transpose of the forward operand: for a directed graph,
    or a row-mean operand D^-1 (A+I), it differs from the operand itself.
    """
    L = model.n_layers
    grad_last = dense(grad_last)
    if grad_last.shape != trace.z[L].shape:
        raise ValueError(f"grad_last has shape {grad_last.shape}, expected {trace.z[L].shape}")
    g: list = [None] * (L + 1)
    g[L] = grad_last * activate(model.activation, trace.z[L], derivative=True)
    grads_w: list = [None] * L
    for k in range(L, 0, -1):
        aggregated = spmm(a_back, g[k])
        grads_w[k - 1] = trace.h[k - 1].T @ aggregated
        if k > 1:
            s = aggregated @ model.weights[k - 1].T
            g[k - 1] = s * activate(model.activation, trace.z[k - 1], derivative=True)
    return grads_w, g


def apply_update(model: GcnModel, grads_w) -> GcnModel:
    """W^k <- W^k - eta dW^k, returning a new model."""
    if len(grads_w) != model.n_layers:
        raise ValueError("need one gradient per layer")
    new_ws = []
    for w, gw in zip(model.weights, grads_w):
        gw = dense(gw)
        if gw.shape != w.shape:
            raise ValueError(f"gradient shape {gw.shape} != weight shape {w.shape}")
        new_ws.append(w - model.learning_rate * gw)
    return replace(model, weights=tuple(new_ws))


def train_serial(
    model: GcnModel,
    a_hat: CsrMatrix,
    a_back: CsrMatrix,
    h0: np.ndarray,
    labels: LabelSet,
    epochs: int,
) -> tuple[GcnModel, list[float], ForwardTrace]:
    """Full-batch gradient descent; returns final model, per-epoch losses,
    and a forward trace of the final model (for prediction checks)."""
    losses = []
    for _ in range(epochs):
        trace = feedforward(model, a_hat, h0)
        loss, grad = nll_loss_and_grad(trace.h[model.n_layers], labels)
        grads_w, _ = backprop(model, a_back, trace, grad)
        model = apply_update(model, grads_w)
        losses.append(loss)
    return model, losses, feedforward(model, a_hat, h0)
