"""Deterministic simulated distributed-memory GCN training runtime.

p logical processors execute parallel feedforward and backpropagation over
1D row-partitioned matrices. Rows move between ranks only through
SimNetwork's per-pair FIFO channels, and weight gradients through the
scheduler's rank-ordered allreduce-sum. Every payload is counted (rows x
cols words), giving exact communication accounting per epoch, phase, and
layer.

Each rank's work is written once, as a generator (the rank program). It
yields at two kinds of sync point:

* ``None``, a send barrier: the rank has posted this layer's sends and
  next receives what its plan promises.
* an array, an allreduce contribution: the rank's local loss sum or dW
  part. The rank-ordered sum of all contributions is sent back into it.

Two schedulers drive the same rank programs:

* "round": single-threaded; steps every program to its next sync point in
  rank order, so all sends of a layer are posted before any receive.
* "threads": one worker per rank with blocking receives; the scheduler
  holds the barrier its allreduce waits at, and a send barrier needs no
  action there.

Both receive in ascending sender rank and reduce in ascending rank order,
so results are bit-identical across schedulers and reruns. (Nothing forces
a receive order on a real network; fixing one trades away out-of-order
receipt for reproducible floating point.)
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .comm import CommPlan, build_comm_plan
from .gcn import GcnModel, LabelSet, activation_and_derivative
from .models import MiniBatchSpec, Partition, induced_pattern
from .sparse import (
    CsrMatrix,
    RowBlock,
    dense,
    gather_rows,
    normalize_adjacency,
    restrict,
    spmm,
    transpose_sparse,
)

SCHEDULERS = ("round", "threads")
# Longest a "threads" rank blocks on one receive or barrier; the workers of
# one call get twice that to finish before they count as hung.
WAIT_S = 60.0


class CommError(RuntimeError):
    """A rank did not receive a message its plan promised, or got a bad one."""


@dataclass(frozen=True)
class MessageRecord:
    epoch: int
    step: int
    phase: str  # "fwd" or "bwd"
    layer: int
    src: int
    dst: int
    rows: int
    cols: int

    @property
    def words(self) -> int:
        return self.rows * self.cols


class SimNetwork:
    """Per-pair FIFO channels with full send accounting.

    Channels are unbounded; a rank blocks only on receiving an expected
    message, and only while the "threads" scheduler sets blocking (the
    round scheduler never needs to block because sends are globally
    ordered before receives).
    """

    def __init__(self, p: int):
        self.p = p
        self._queues = {(s, d): queue.Queue() for s in range(p) for d in range(p) if s != d}
        self.log: list[MessageRecord] = []
        self._by_epoch: dict[int, list[MessageRecord]] = {}  # the log split by epoch
        self._log_lock = threading.Lock()
        self.blocking = False

    def send(self, src: int, dst: int, payload: np.ndarray, tag) -> None:
        if src == dst:
            raise CommError("a rank never messages itself")
        rec = MessageRecord(*tag, src=src, dst=dst, rows=payload.shape[0], cols=payload.shape[1])
        with self._log_lock:
            self.log.append(rec)
            self._by_epoch.setdefault(rec.epoch, []).append(rec)
        self._queues[(src, dst)].put((tag, payload))

    def recv(self, dst: int, src: int, tag, expect_shape) -> np.ndarray:
        try:
            got_tag, payload = self._queues[(src, dst)].get(
                block=self.blocking, timeout=WAIT_S if self.blocking else None
            )
        except queue.Empty:
            raise CommError(
                f"rank {dst} expected a message from rank {src} at {tag} but none arrived"
            ) from None
        if got_tag != tag:
            raise CommError(f"rank {dst} got message tagged {got_tag}, expected {tag}")
        if payload.shape != expect_shape:
            raise CommError(
                f"payload from {src} to {dst} has shape {payload.shape}, expected {expect_shape}"
            )
        return payload

    def records(self, epoch: int | None = None, step: int | None = None) -> list[MessageRecord]:
        """The log's records, in log order, of one epoch and step if given;
        an epoch's records are copied from its own list, not the log."""
        with self._log_lock:
            recs = list(self.log if epoch is None else self._by_epoch.get(epoch, ()))
        if step is not None:
            recs = [r for r in recs if r.step == step]
        return recs


def allreduce_sum(contributions) -> np.ndarray:
    """Elementwise sum accumulated in ascending rank order."""
    mats = [dense(c) for c in contributions]
    shape = mats[0].shape
    for c in mats[1:]:
        if c.shape != shape:
            raise ValueError(f"allreduce shape mismatch: {c.shape} vs {shape}")
    out = mats[0].copy()
    for c in mats[1:]:
        out += c
    return out


@dataclass
class ProcState:
    """Everything one simulated processor stores.

    Row blocks follow the partition. Each phase has one halo operand
    A_ext = A[rows, ext], where ext lists the rank's own rows, then each
    sender's send list to it in ascending sender rank; its columns index
    the rows of [own block; payloads in that order]. send_fwd/send_bwd map
    each destination to the local positions of the rows sent there.
    Weight replicas are private copies, kept identical across ranks by the
    deterministic allreduce.
    """

    rank: int
    global_rows: np.ndarray
    plan_fwd: CommPlan
    plan_bwd: CommPlan
    a_fwd: CsrMatrix
    a_bwd: CsrMatrix
    send_fwd: dict[int, np.ndarray]
    send_bwd: dict[int, np.ndarray]
    dims: tuple[int, ...]
    activation: str
    learning_rate: float
    weights: list[np.ndarray]
    h0: np.ndarray
    h: list = field(default_factory=list)
    z: list = field(default_factory=list)
    g: list = field(default_factory=list)

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1


@dataclass(frozen=True)
class EpochMetrics:
    total_words: int
    max_words_per_proc: int
    avg_words_per_proc: float
    total_msgs: int
    max_msgs_per_proc: int
    wallclock: float
    loss: float


def _halo_operand(a: CsrMatrix, plan: CommPlan, m: int, rows: np.ndarray) -> CsrMatrix:
    """A[rows, ext] for rank m, ext = its own rows, then each sender's send
    list to m (ascending sender); column j is position j of ext."""
    ext = np.concatenate([rows] + [plan.send[n][m] for n in plan.recv_from[m]])
    order = np.argsort(ext)
    sub = restrict(a, rows, ext[order])
    cols = order[sub.col_indices]
    row_of = np.repeat(np.arange(sub.n_rows), sub.row_nnz())
    within = np.argsort(row_of * len(ext) + cols, kind="stable")
    return CsrMatrix(sub.n_rows, len(ext), sub.row_offsets, cols[within], sub.values[within])


def _send_positions(plan: CommPlan, m: int, rows: np.ndarray) -> dict[int, np.ndarray]:
    """Local positions of rank m's send lists, by destination; gather_rows
    raises KeyError for a listed row that m does not own."""
    index = RowBlock(rows, np.arange(len(rows)).reshape(-1, 1))
    return {dst: gather_rows(index, ids)[:, 0] for dst, ids in enumerate(plan.send[m]) if len(ids)}


def scatter(
    a_hat: CsrMatrix,
    h0: np.ndarray,
    pi: "Partition | np.ndarray",
    model: GcnModel,
    directed: bool = False,
    p: int | None = None,
) -> list[ProcState]:
    """Distribute row blocks per the partition and replicate the weights.
    An undirected input shares one plan and halo operand between the two
    phases, so plan_bwd is plan_fwd exactly when directed is false."""
    h0 = dense(h0)
    if h0.shape != (a_hat.n_rows, model.dims[0]):
        raise ValueError(f"h0 has shape {h0.shape}, expected ({a_hat.n_rows}, {model.dims[0]})")
    plan_fwd = build_comm_plan(a_hat, pi, p)
    a_bwd = transpose_sparse(a_hat) if directed else a_hat
    plan_bwd = build_comm_plan(a_bwd, pi, p) if directed else plan_fwd
    states = []
    for m in range(plan_fwd.p):
        rows = plan_fwd.rows_of(m)
        a_fwd = _halo_operand(a_hat, plan_fwd, m, rows)
        send_fwd = _send_positions(plan_fwd, m, rows)
        states.append(
            ProcState(
                rank=m,
                global_rows=rows,
                plan_fwd=plan_fwd,
                plan_bwd=plan_bwd,
                a_fwd=a_fwd,
                a_bwd=_halo_operand(a_bwd, plan_bwd, m, rows) if directed else a_fwd,
                send_fwd=send_fwd,
                send_bwd=_send_positions(plan_bwd, m, rows) if directed else send_fwd,
                dims=model.dims,
                activation=model.activation,
                learning_rate=model.learning_rate,
                weights=[w.copy() for w in model.weights],
                h0=h0[rows].copy(),
            )
        )
    return states


# ---------------------------------------------------------------------------
# per-rank helpers: array locals live here, not in the suspended rank program


def _send_rows(st: ProcState, net: SimNetwork, send: dict, values: np.ndarray, tag) -> None:
    for dst, pos in send.items():
        net.send(st.rank, dst, values[pos], tag)


def _halo(st: ProcState, net: SimNetwork, x: np.ndarray, tag) -> np.ndarray:
    """[x; payload of each sender in ascending rank], the operand that the
    phase's A_ext multiplies. The phase in tag picks the plan."""
    plan = st.plan_fwd if tag[2] == "fwd" else st.plan_bwd
    payloads = [
        net.recv(st.rank, int(src), tag, (len(plan.send[src][st.rank]), x.shape[1]))
        for src in plan.recv_from[st.rank]
    ]
    return np.concatenate([x] + payloads)


def _fwd_compute(st: ProcState, net: SimNetwork, k: int, tag) -> None:
    z = spmm(st.a_fwd, _halo(st, net, st.h[k - 1], tag)) @ st.weights[k - 1]
    st.z[k] = z
    st.h[k], _ = activation_and_derivative(st.activation, z)


def _local_loss_grad(st: ProcState, labels: LabelSet):
    """Local NLL sum and d loss / d H^L rows for locally owned labeled
    vertices (normalized by the global labeled count)."""
    L = st.n_layers
    grad = np.zeros_like(st.h[L])
    local_sum = 0.0
    mine = _local_labelset(labels, st.global_rows)
    if len(mine):
        local_rows, y = mine.labeled_ids, mine.labels
        logits = st.h[L][local_rows]
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        local_sum = float(-logp[np.arange(len(y)), y].sum())
        softmax = np.exp(logp)
        softmax[np.arange(len(y)), y] -= 1.0
        grad[local_rows] = softmax / len(labels)
    _, d_act = activation_and_derivative(st.activation, st.z[L])
    st.g[L] = grad * d_act
    return np.array([[local_sum]])


def _bwd_compute(st: ProcState, net: SimNetwork, k: int, tag) -> np.ndarray:
    """Aggregate A_m G^k, derive G^{k-1}, return the local dW^k part."""
    aggregated = spmm(st.a_bwd, _halo(st, net, st.g[k], tag))
    if k > 1:
        s = aggregated @ st.weights[k - 1].T
        _, d_prev = activation_and_derivative(st.activation, st.z[k - 1])
        st.g[k - 1] = s * d_prev
    return st.h[k - 1].T @ aggregated


# ---------------------------------------------------------------------------
# the rank program and its two schedulers


def _rank_forward(st: ProcState, net: SimNetwork, epoch: int, step: int):
    """Forward sweep; per layer: post sends, send barrier, receive and compute."""
    L = st.n_layers
    st.h = [st.h0] + [None] * L
    st.z = [None] * (L + 1)
    st.g = [None] * (L + 1)
    for k in range(1, L + 1):
        tag = (epoch, step, "fwd", k)
        _send_rows(st, net, st.send_fwd, st.h[k - 1], tag)
        yield None
        _fwd_compute(st, net, k, tag)


def _rank_backward(st: ProcState, net: SimNetwork, labels: LabelSet, epoch: int, step: int):
    """Loss contribution, then per layer: post sends, send barrier, receive
    and compute, dW contribution, update. Returns the global loss."""
    total = yield _local_loss_grad(st, labels)
    for k in range(st.n_layers, 0, -1):
        tag = (epoch, step, "bwd", k)
        _send_rows(st, net, st.send_bwd, st.g[k], tag)
        yield None
        dw = yield _bwd_compute(st, net, k, tag)
        st.weights[k - 1] = st.weights[k - 1] - st.learning_rate * dw
    return float(total[0, 0]) / len(labels) if len(labels) else 0.0


def _rank_epoch(st, net, labels, epoch, step):
    yield from _rank_forward(st, net, epoch, step)
    return (yield from _rank_backward(st, net, labels, epoch, step))


def _drive_round(programs) -> list:
    """Step every program to its next sync point in rank order; answer
    contributions with their rank-ordered sum."""
    results = [None] * len(programs)
    reply = None
    while True:
        out = []
        for rank, program in enumerate(programs):
            try:
                out.append(program.send(reply))
            except StopIteration as stop:
                results[rank] = stop.value
        if not out:
            return results
        reply = None if out[0] is None else allreduce_sum(out)


def _drive_threads(programs, net: SimNetwork) -> list:
    """Run each program on its own worker, with blocking receives. A
    contribution waits at a barrier for every rank's, then each rank takes
    the rank-ordered sum. The first failure aborts the barrier, so no
    worker is left blocked, and is raised; ranks still running after
    2 * WAIT_S raise CommError instead of leaving partial state behind."""
    p = len(programs)
    barrier = threading.Barrier(p)
    slots = [None] * p
    results = [None] * p
    failures = []

    def allreduce(rank, contribution):
        slots[rank] = contribution
        try:
            barrier.wait(timeout=WAIT_S)
            out = allreduce_sum(slots)
            barrier.wait(timeout=WAIT_S)
        except threading.BrokenBarrierError:
            raise CommError(f"rank {rank} left an allreduce another rank never joined") from None
        return out

    def worker(rank):
        program, reply = programs[rank], None
        try:
            while True:
                out = program.send(reply)
                reply = None if out is None else allreduce(rank, out)
        except StopIteration as stop:
            results[rank] = stop.value
        except BaseException as exc:
            failures.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(rank,), daemon=True) for rank in range(p)]
    net.blocking = True
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + 2 * WAIT_S
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        net.blocking = False
    if failures:
        raise failures[0]
    hung = [rank for rank, t in enumerate(threads) if t.is_alive()]
    if hung:
        barrier.abort()
        raise CommError(f"ranks {hung} still running after {2 * WAIT_S} s")
    return results


def _run(programs, net: SimNetwork, scheduler: str) -> list:
    """Drive one rank program per rank; returns each program's result."""
    if scheduler not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {scheduler!r}")
    if scheduler == "round":
        return _drive_round(programs)
    return _drive_threads(programs, net)


# ---------------------------------------------------------------------------
# public operations


def parallel_feedforward(states, net: SimNetwork, scheduler: str = "round", epoch: int = 0):
    """One forward pass over all layers; fills each rank's h/z blocks."""
    _run([_rank_forward(st, net, epoch, 0) for st in states], net, scheduler)
    return states


def parallel_backprop(states, net: SimNetwork, labels: LabelSet, scheduler: str = "round", epoch: int = 0):
    """Loss gradient, backward sweep, allreduced updates; forward trace must
    be present. Returns the states and the epoch's metrics."""
    if not all(st.h and st.h[-1] is not None for st in states):
        raise ValueError("run parallel_feedforward before parallel_backprop")
    if len(labels) == 0:
        raise ValueError("label set is empty")
    start = time.perf_counter()
    loss = _run([_rank_backward(st, net, labels, epoch, 0) for st in states], net, scheduler)[0]
    wall = time.perf_counter() - start
    recs = [r for r in net.records(epoch=epoch) if r.phase == "bwd"]
    return states, _metrics_from_records(recs, len(states), wall, loss)


def _metrics_from_records(recs, p: int, wall: float, loss: float) -> EpochMetrics:
    words = np.zeros(p, dtype=np.int64)
    msgs = np.zeros(p, dtype=np.int64)
    for r in recs:
        words[r.src] += r.words
        msgs[r.src] += 1
    return EpochMetrics(
        total_words=int(words.sum()),
        max_words_per_proc=int(words.max()) if p else 0,
        avg_words_per_proc=float(words.sum() / p),
        total_msgs=int(msgs.sum()),
        max_msgs_per_proc=int(msgs.max()) if p else 0,
        wallclock=wall,
        loss=loss,
    )


@dataclass(frozen=True)
class FullBatch:
    pass


@dataclass(frozen=True)
class MiniBatch:
    """Per-step vertex sampling; the fixed global partition is restricted to
    each batch's induced sub-adjacency. The owners, the features and
    whether the input is directed come from the states being trained."""

    spec: MiniBatchSpec
    batches_per_epoch: int
    seed: int
    adjacency: CsrMatrix  # raw pattern (no self loops); renormalized per batch


def _local_labelset(labels: LabelSet, rows: np.ndarray) -> LabelSet:
    """The labels of the vertices in rows (sorted global ids), renumbered
    to their positions in rows; empty when rows holds none."""
    pos = np.searchsorted(rows, labels.labeled_ids)
    mine = pos < len(rows)
    mine[mine] = rows[pos[mine]] == labels.labeled_ids[mine]
    return LabelSet(pos[mine], labels.labels[mine], labels.n_classes)


def _batch(states, labels: LabelSet, mode: MiniBatch, rng, owner, features):
    """One mini-batch step's states and labels: sample a batch, renormalize
    its induced subgraph and scatter it by the global owners, with the
    current weights and the directedness of the states."""
    batch = np.sort(rng.choice(len(owner), size=mode.spec.batch_size, replace=False))
    sub_hat = normalize_adjacency(induced_pattern(mode.adjacency, batch, add_diagonal=False))
    st = states[0]
    model = GcnModel(st.dims, tuple(st.weights), st.activation, st.learning_rate)
    directed = st.plan_bwd is not st.plan_fwd
    sub_states = scatter(sub_hat, features[batch], owner[batch], model, directed, p=len(states))
    return sub_states, _local_labelset(labels, batch)


def train_epochs(
    states,
    net: SimNetwork,
    labels: LabelSet,
    epochs: int,
    mode: "FullBatch | MiniBatch" = FullBatch(),
    scheduler: str = "round",
) -> list[EpochMetrics]:
    """Train for the given number of epochs, recording metrics per epoch.

    Each step runs one forward+backward and one update. A full-batch epoch
    is one step over the states themselves. A mini-batch epoch is
    batches_per_epoch steps, each over the states of one sampled induced
    subgraph; the weights it leaves go back to the persistent states.
    """
    mini = isinstance(mode, MiniBatch)
    if mini:
        n = mode.adjacency.n_rows
        owner = np.empty(n, dtype=np.int64)
        features = np.empty((n, states[0].dims[0]))
        for st in states:
            owner[st.global_rows] = st.rank
            features[st.global_rows] = st.h0
        rng = np.random.default_rng([int(mode.seed), 0x7B])
    elif len(labels) == 0:
        raise ValueError("label set is empty")
    out = []
    for e in range(epochs):
        start = time.perf_counter()
        losses = []
        for step in range(mode.batches_per_epoch if mini else 1):
            step_states, step_labels = (
                _batch(states, labels, mode, rng, owner, features) if mini else (states, labels)
            )
            programs = [_rank_epoch(st, net, step_labels, e, step) for st in step_states]
            losses.append(_run(programs, net, scheduler)[0])
            for st, sub in zip(states, step_states):
                st.weights = sub.weights
        wall = time.perf_counter() - start
        loss = float(np.mean(losses)) if losses else 0.0
        out.append(_metrics_from_records(net.records(epoch=e), len(states), wall, loss))
    return out
