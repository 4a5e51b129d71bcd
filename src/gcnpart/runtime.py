"""Deterministic simulated distributed-memory GCN training runtime.

p logical processors execute parallel feedforward and backpropagation over
1D row-partitioned matrices. Rows move between ranks only through
SimNetwork's per-pair FIFO channels, which are plain deques, and weight
gradients through the scheduler's rank-ordered allreduce-sum. Every
payload is counted (rows x cols words), giving exact communication
accounting per epoch, phase, and layer.

Each rank's work is written once, as a generator (the rank program). It
yields at two kinds of sync point:

* ``None``, a send barrier: the rank has posted this layer's sends and
  next receives what its plan promises.
* an array, an allreduce contribution: the rank's local loss sum or dW
  part. The rank-ordered sum of all contributions is sent back into it.

Two schedulers drive the same rank programs:

* "round": single-threaded; steps every program to its next sync point in
  rank order, so all sends of a layer are posted before any receive.
* "threads": one worker per rank; a receive from an empty channel waits
  on a condition that sends notify only under this scheduler. The
  scheduler holds the barrier its allreduce waits at, and a send barrier
  needs no action there.

Both receive in ascending sender rank and reduce in ascending rank order,
so results are bit-identical across schedulers and reruns. (Nothing forces
a receive order on a real network; fixing one trades away out-of-order
receipt for reproducible floating point.)
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .comm import CommPlan, build_comm_plan
from .gcn import GcnModel, LabelSet, activate
from .models import MiniBatchSpec, Partition
from .sparse import (
    CsrMatrix,
    add_identity,
    check_key_range,
    dense,
    is_symmetric,
    prime_spmm_schedules,
    ranges,
    sorted_search,
    spmm,
    stable_argsort,
    transpose_sparse,
    unique_keys,
)

# Not called here (mini-batch steps mask operands built once, and scatter
# reads halo layouts); perfbench/experiment.py traces them by these names.
from .models import induced_pattern  # noqa: F401
from .sparse import gather_rows, normalize_adjacency  # noqa: F401

SCHEDULERS = ("round", "threads")
# Longest a "threads" rank blocks on one receive or barrier; the workers of
# one call get twice that to finish before they count as hung.
WAIT_S = 60.0


class CommError(RuntimeError):
    """A rank did not receive a message its plan promised, or got a bad one."""


class MessageRecord(NamedTuple):
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

    Channels are unbounded deques. A send appends to its channel under the
    log lock, and a receive pops without locking: each channel has one
    receiver. A rank blocks only on receiving from an empty channel, and
    only while the "threads" scheduler sets blocking; then it waits on its
    own condition of the log lock, which a send to it notifies only while
    blocking is set (the round scheduler never blocks, because sends are
    globally ordered before receives).
    """

    def __init__(self, p: int):
        self.p = p
        self._channels = {(s, d): deque() for s in range(p) for d in range(p) if s != d}
        self.log: list[MessageRecord] = []
        self._by_epoch: dict[int, list[MessageRecord]] = {}  # the log split by epoch
        self._log_lock = threading.Lock()
        self._sent = [threading.Condition(self._log_lock) for _ in range(p)]  # by receiver
        self.blocking = False

    def send(self, src: int, dst: int, payload: np.ndarray, tag) -> None:
        if src == dst:
            raise CommError("a rank never messages itself")
        rec = MessageRecord(*tag, src, dst, *payload.shape)
        with self._log_lock:
            self.log.append(rec)
            self._by_epoch.setdefault(rec.epoch, []).append(rec)
            self._channels[(src, dst)].append((tag, payload))
            if self.blocking:
                self._sent[dst].notify_all()

    def recv(self, dst: int, src: int, tag, expect_shape) -> np.ndarray:
        channel = self._channels[(src, dst)]
        if not channel and self.blocking:
            with self._sent[dst]:
                self._sent[dst].wait_for(lambda: channel, timeout=WAIT_S)
        try:
            got_tag, payload = channel.popleft()
        except IndexError:
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
    A_ext = A[rows, ext] (A is Â forward and Â^T backward), where ext
    lists the rank's own rows, then each sender's send list to it in
    ascending sender rank; its columns index the rows of [own block;
    payloads in that order]. send_fwd/send_bwd map each destination to the
    local positions of the rows sent there, slices of one array per phase.
    The phases share one plan, operand and send map iff Â equals Â^T bit for bit.
    Weight replicas are private copies, kept identical across ranks by the
    deterministic allreduce.

    A mini-batch step's states hold the same for the batch's induced
    subgraph, with rows and plan ids numbered by position in the batch.
    They are masked out of every rank's operands of the whole graph,
    which train_epochs builds once, not renormalized and scattered anew:
    one pass per epoch builds every step's operands, plans, send
    positions and labels, and a step's states take its share and the
    current weights. Their operands arrive with spmm schedules built.
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


@dataclass(frozen=True)
class _HaloLayout:
    """One phase's halo operands for every rank, built from one plan and
    flattened rank after rank (ext as in ProcState).

    Rank m's rows are rows[row_start[m]:row_start[m + 1]]; position is
    each vertex's place in rows, and row q of rows has the entries
    entry_start[q]:entry_start[q + 1], in ascending ext slot. Per entry:
    its global column, its value and its flat ext slot (its rank's ext
    start plus its operand column). Per ext slot: the slot of plan.ids it
    receives, or -1 for a rank's own row. Per slot of plan.ids: its pair
    sender * p + receiver.
    """

    plan: CommPlan
    rows: np.ndarray
    row_start: np.ndarray
    position: np.ndarray
    entry_start: np.ndarray
    col: np.ndarray
    values: np.ndarray
    slot: np.ndarray
    ext_start: np.ndarray  # rank m's ext slots are ext_start[m]:ext_start[m + 1]
    listed_at: np.ndarray
    pair: np.ndarray

    def operands(self) -> list[CsrMatrix]:
        """Every rank's halo operand A[rows, ext], by one CsrMatrix.batch."""
        cols = self.slot - np.repeat(self.ext_start[:-1], np.diff(self.entry_start[self.row_start]))
        return CsrMatrix.batch(self.row_start, np.diff(self.ext_start), self.entry_start, cols, self.values)


def _halo_layout(a: CsrMatrix, pi: "Partition | np.ndarray", p: int | None = None) -> _HaloLayout:
    """a's halo layout under its plan for the owners pi, from one sort of
    a's entries; every column of a rank's rows is in its ext."""
    plan = build_comm_plan(a, pi, p)
    p, owner, ids, sizes = plan.p, plan.owner, plan.ids, plan.sizes
    n = len(owner)
    rows = stable_argsort(owner, p)  # the rows of rank 0, then 1, ...
    n_own = np.bincount(owner, minlength=p)
    row_start = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(n_own, out=row_start[1:])
    ext_start = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(n_own + sizes.sum(axis=0), out=ext_start[1:])
    # list s -> c sits in c's ext after c's rows and the lists of the
    # senders before s; listed_slot: the flat ext slot of each listed row
    list_at = (ext_start[:-1] + n_own + np.cumsum(sizes, axis=0) - sizes).ravel()
    pair = np.repeat(np.arange(p * p, dtype=np.int64), sizes.ravel())
    listed_slot = (list_at - plan.bounds[:-1])[pair] + np.arange(len(ids))
    listed_at = np.full(int(ext_start[-1]), -1, dtype=np.int64)
    listed_at[listed_slot] = np.arange(len(ids))

    position = np.empty(n, dtype=np.int64)
    position[rows] = np.arange(n)
    row = np.repeat(np.arange(n, dtype=np.int64), a.row_nnz())
    # an own column's slot: its rank's ext start plus its place in the
    # rank's rows; a listed column's: found among the ascending keys
    # pair * n + id of the send lists
    slot = (ext_start - row_start)[owner[row]] + position[a.col_indices]
    cross = np.flatnonzero(owner[row] != owner[a.col_indices])
    keys = (owner[a.col_indices[cross]] * p + owner[row[cross]]) * n + a.col_indices[cross]
    slot[cross] = listed_slot[sorted_search(pair * n + ids, keys)]
    check_key_range(n, ext_start[-1])
    order = np.argsort(position[row] * int(ext_start[-1]) + slot)  # unique keys
    entry_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(a.row_nnz()[rows], out=entry_start[1:])
    return _HaloLayout(plan, rows, row_start, position, entry_start, a.col_indices[order], a.values[order],
                       slot[order], ext_start, listed_at, pair)


def _send_maps(p: int, positions: np.ndarray, bounds: np.ndarray) -> list[dict]:
    """Per sender m, each c's positions[bounds[m * p + c] : bounds[m * p + c + 1]] if nonempty."""
    b = bounds.tolist()
    return [{c: positions[b[q] : b[q + 1]] for c, q in enumerate(range(m * p, m * p + p)) if b[q + 1] > b[q]}
            for m in range(p)]


def _send_positions(ph: _HaloLayout) -> list[dict]:
    """Per rank, each receiver's local positions of the rows sent there;
    KeyError for a listed row that its sender does not own."""
    plan, sender = ph.plan, ph.pair // ph.plan.p
    bad = np.flatnonzero(plan.owner[plan.ids] != sender)
    if len(bad):
        raise KeyError(f"row {int(plan.ids[bad[0]])} is not owned by rank {int(sender[bad[0]])}, which sends it")
    return _send_maps(plan.p, ph.position[plan.ids] - ph.row_start[sender], plan.bounds)


def scatter(
    a_hat: CsrMatrix,
    h0: np.ndarray,
    pi: "Partition | np.ndarray",
    model: GcnModel,
    *,
    p: int | None = None,
) -> list[ProcState]:
    """Distribute row blocks per the partition and replicate the weights.
    The backward phase multiplies by a_hat's transpose. When a_hat equals
    it bit for bit (is_symmetric), the phases share one plan, operand and
    send positions per rank, so plan_bwd is plan_fwd; otherwise the
    backward ones come from transpose_sparse(a_hat)."""
    h0 = dense(h0)
    if h0.shape != (a_hat.n_rows, model.dims[0]):
        raise ValueError(f"h0 has shape {h0.shape}, expected ({a_hat.n_rows}, {model.dims[0]})")
    fwd = _halo_layout(a_hat, pi, p)
    bwd = fwd if is_symmetric(a_hat) else _halo_layout(transpose_sparse(a_hat), pi, p)
    a_fwd, send_fwd = fwd.operands(), _send_positions(fwd)
    a_bwd, send_bwd = (a_fwd, send_fwd) if bwd is fwd else (bwd.operands(), _send_positions(bwd))
    rows = np.split(fwd.rows, fwd.row_start[1:-1])
    return [
        ProcState(
            rank=m,
            global_rows=rows[m],
            plan_fwd=fwd.plan,
            plan_bwd=bwd.plan,
            a_fwd=a_fwd[m],
            a_bwd=a_bwd[m],
            send_fwd=send_fwd[m],
            send_bwd=send_bwd[m],
            dims=model.dims,
            activation=model.activation,
            learning_rate=model.learning_rate,
            weights=[w.copy() for w in model.weights],
            h0=h0[rows[m]],
        )
        for m in range(fwd.plan.p)
    ]


# ---------------------------------------------------------------------------
# per-rank helpers: array locals live here, not in the suspended rank program


def _send_rows(st: ProcState, net: SimNetwork, send: dict, values: np.ndarray, tag) -> None:
    for dst, pos in send.items():
        net.send(st.rank, dst, values.take(pos, axis=0), tag)


def _halo(st: ProcState, net: SimNetwork, x: np.ndarray, tag) -> np.ndarray:
    """[x; payload of each sender in ascending rank], the operand that the
    phase's A_ext multiplies. The phase in tag picks the plan."""
    plan = st.plan_fwd if tag[2] == "fwd" else st.plan_bwd
    payloads = [net.recv(st.rank, src, tag, (k, x.shape[1])) for src, k in plan.receives[st.rank]]
    return np.concatenate([x] + payloads)


def _fwd_compute(st: ProcState, net: SimNetwork, k: int, tag) -> None:
    z = spmm(st.a_fwd, _halo(st, net, st.h[k - 1], tag)) @ st.weights[k - 1]
    st.z[k] = z
    st.h[k] = activate(st.activation, z)


def _local_loss_grad(st: ProcState, local_rows: np.ndarray, y: np.ndarray, count: int):
    """Local NLL sum and d loss / d H^L rows for the rank's labeled rows
    (local positions local_rows, classes y), normalized by the step's
    global labeled count."""
    L = st.n_layers
    grad = np.zeros_like(st.h[L])
    local_sum = 0.0
    if len(y):
        logits = st.h[L][local_rows]
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        local_sum = float(-logp[np.arange(len(y)), y].sum())
        softmax = np.exp(logp)
        softmax[np.arange(len(y)), y] -= 1.0
        grad[local_rows] = softmax / count
    st.g[L] = grad * activate(st.activation, st.z[L], derivative=True)
    return np.array([[local_sum]])


def _bwd_compute(st: ProcState, net: SimNetwork, k: int, tag) -> np.ndarray:
    """Aggregate A_m G^k, derive G^{k-1}, return the local dW^k part."""
    aggregated = spmm(st.a_bwd, _halo(st, net, st.g[k], tag))
    if k > 1:
        s = aggregated @ st.weights[k - 1].T
        st.g[k - 1] = s * activate(st.activation, st.z[k - 1], derivative=True)
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


def _rank_backward(st: ProcState, net: SimNetwork, labels: tuple, epoch: int, step: int):
    """Loss contribution, then per layer: post sends, send barrier, receive
    and compute, dW contribution, update. labels is the rank's
    (local_rows, y, count), as _resolve_labels or _epoch_steps gives it. Returns
    the global loss."""
    count = labels[2]
    total = yield _local_loss_grad(st, *labels)
    for k in range(st.n_layers, 0, -1):
        tag = (epoch, step, "bwd", k)
        _send_rows(st, net, st.send_bwd, st.g[k], tag)
        yield None
        dw = yield _bwd_compute(st, net, k, tag)
        st.weights[k - 1] = st.weights[k - 1] - st.learning_rate * dw
    return float(total[0, 0]) / count if count else 0.0


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
    rank_labels = _resolve_labels(states, labels)
    programs = [_rank_backward(st, net, lab, epoch, 0) for st, lab in zip(states, rank_labels)]
    loss = _run(programs, net, scheduler)[0]
    wall = time.perf_counter() - start
    recs = [r for r in net.records(epoch=epoch) if r.phase == "bwd"]
    return states, _metrics_from_records(recs, len(states), wall, loss)


def _metrics_from_records(recs, p: int, wall: float, loss: float) -> EpochMetrics:
    src = np.array([r.src for r in recs], dtype=np.int64)
    size = np.array([r.rows * r.cols for r in recs], dtype=np.int64)
    words = np.bincount(src, weights=size, minlength=p).astype(np.int64)  # exact below 2**53
    msgs = np.bincount(src, minlength=p)
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
    each batch's induced sub-adjacency, renormalized as normalize_adjacency
    does; the states' forward operands must be adjacency so normalized
    (ValueError if not). Owners, features and operand sharing come from them.
    Each train_epochs call builds every rank's halo operands of the whole
    graph once. Each epoch draws its batches_per_epoch batches up front,
    then one vectorized pass keeps, for every step at once, the entries
    both of whose vertices the step sampled, renormalizes them and drops
    the ext columns and send-list rows nothing uses any more."""

    spec: MiniBatchSpec
    batches_per_epoch: int
    seed: int
    adjacency: CsrMatrix  # raw pattern, values ignored; renormalized per batch


def _resolve_labels(states, labels: LabelSet) -> list[tuple]:
    """Each rank's (local_rows, y, count) for full-batch steps: the local
    positions and classes of its labeled rows, and the labeled count."""
    rows = np.concatenate([st.global_rows for st in states])
    sizes = [len(st.global_rows) for st in states]
    rank = np.repeat(np.arange(len(states)), sizes)
    local = np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    label_at = _label_index(labels, len(rows))[rows]
    return [(*x, len(labels)) for x in _group_labels(label_at, rank, local, len(states), labels)]


def _label_index(labels: LabelSet, n: int) -> np.ndarray:
    """Each vertex's position in labels.labeled_ids, or -1 if unlabeled;
    ids outside 0..n-1 label no vertex."""
    index = np.full(n, -1, dtype=np.int64)
    inside = np.flatnonzero((labels.labeled_ids >= 0) & (labels.labeled_ids < n))
    index[labels.labeled_ids[inside]] = inside
    return index


def _group_labels(label_at, group, local, n_groups: int, labels: LabelSet) -> list[tuple]:
    """Per group of rows, the local positions and classes of its labeled
    rows, given each row's group, local position and label position (-1
    if none); in label-set order, which fixes the order the loss sums in."""
    lab = np.flatnonzero(label_at >= 0)
    check_key_range(n_groups, len(labels))
    # unique keys: a row has one group and its own label position
    lab = lab[np.argsort(group[lab] * len(labels) + label_at[lab])]
    bounds = np.searchsorted(group[lab], np.arange(n_groups + 1)).tolist()
    rows, y = local[lab], labels.labels[label_at[lab]]
    return [(rows[lo:hi], y[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class _MiniBatchIndex:
    """What every step of one train_epochs call shares: the global owners,
    the features, each vertex's label position, and the halo layouts of
    A+I (A: the raw pattern with unit values) and of its transpose; bwd is
    None when the states share one operand between the phases."""

    p: int
    owner: np.ndarray
    features: np.ndarray
    label_index: np.ndarray
    fwd: _HaloLayout
    bwd: "_HaloLayout | None"


def _mini_batch_index(states, labels: LabelSet, adjacency: CsrMatrix) -> _MiniBatchIndex:
    n, p = adjacency.n_rows, len(states)
    if sum(len(st.global_rows) for st in states) != n:
        raise ValueError(f"the states hold {sum(len(st.global_rows) for st in states)} rows, the adjacency {n}")
    owner = np.empty(n, dtype=np.int64)
    features = np.empty((n, states[0].dims[0]))
    for st in states:
        owner[st.global_rows] = st.rank
        features[st.global_rows] = st.h0
    # add_identity sums a raw self loop and I to 2, as normalize_adjacency does
    a = add_identity(CsrMatrix(n, n, adjacency.row_offsets, adjacency.col_indices, np.ones(adjacency.nnz)))
    fwd = _halo_layout(a, owner, p)
    # steps renormalize their batches of A+I, so the states must hold A+I
    # normalized by the whole graph's degrees: rows, ext slots, value bits
    row = np.repeat(fwd.rows, np.diff(fwd.entry_start))
    inv = 1.0 / np.sqrt(np.bincount(row, weights=fwd.values, minlength=n))
    want = (np.diff(fwd.entry_start), fwd.slot, (fwd.values * inv[row] * inv[fwd.col]).view(np.int64))
    parts = [(st.a_fwd.row_nnz(), st.a_fwd.col_indices + e, st.a_fwd.values.view(np.int64))
             for st, e in zip(states, fwd.ext_start.tolist())]
    if not all(map(np.array_equal, map(np.concatenate, zip(*parts)), want)):
        raise ValueError("the states' forward operands are not MiniBatch.adjacency normalized as "
                         "normalize_adjacency does, which each mini-batch step renormalizes")
    bwd = None if states[0].plan_bwd is states[0].plan_fwd else _halo_layout(transpose_sparse(a), owner, p)
    return _MiniBatchIndex(p, owner, features, _label_index(labels, n), fwd, bwd)


def _epoch_steps(index: _MiniBatchIndex, states, labels: LabelSet, batches: np.ndarray):
    """Yield each step's states and per-rank labels for one epoch's batches
    (one sorted batch per row). A step's states hold its batch's induced
    subgraph, renormalized and distributed by the global owners, with the
    weights the persistent states hold when it is drawn; rows and plan ids
    are positions in the batch, as scatter of the induced subgraph numbers
    them. _epoch_pass builds what the steps share before the first step
    is drawn; a step only slices its share."""
    if not len(batches):
        return
    p = index.p
    a_fwd, a_bwd, sends_fwd, sends_bwd, global_rows, row_ids, starts, step_labels = _epoch_pass(
        index, labels, batches
    )
    st = starts.tolist()

    def plan(sends, t: int):
        """Step t's plan of a phase, and each rank's send positions."""
        ids, positions, bounds = sends
        bt = bounds[t * p * p : (t + 1) * p * p + 1]
        return CommPlan(p, index.owner[batches[t]], ids[bt[0] : bt[-1]], bt - bt[0]), _send_maps(p, positions, bt)

    for t in range(len(batches)):
        plan_fwd, send_fwd = plan(sends_fwd, t)
        plan_bwd, send_bwd = (plan_fwd, send_fwd) if sends_bwd is sends_fwd else plan(sends_bwd, t)
        lo = st[t * p]
        h0 = index.features[row_ids[lo : st[t * p + p]]]
        step_states = []
        for m, g in enumerate(range(t * p, t * p + p)):
            step_states.append(ProcState(
                rank=m,
                global_rows=global_rows[st[g] : st[g + 1]],
                plan_fwd=plan_fwd,
                plan_bwd=plan_bwd,
                a_fwd=a_fwd[g],
                a_bwd=a_bwd[g],
                send_fwd=send_fwd[m],
                send_bwd=send_bwd[m],
                dims=states[m].dims,
                activation=states[m].activation,
                learning_rate=states[m].learning_rate,
                weights=list(states[m].weights),
                h0=h0[st[g] - lo : st[g + 1] - lo],
            ))
        yield step_states, step_labels[t * p : t * p + p]


def _epoch_pass(index: _MiniBatchIndex, labels: LabelSet, batches: np.ndarray):
    """What the steps of an epoch share, built by one vectorized pass per
    phase; work and memory scale with the entries of the batch rows.

    Rows run step after step and rank-major within a step: group g =
    t * p + m (step t, rank m) holds the rows starts[g]:starts[g + 1].
    Returns each group's forward and backward operands, their spmm
    schedules primed by one spmm_schedules pass; each phase's send lists
    (plan ids, local positions, and bounds per (step, sender, receiver));
    every row's batch position and vertex id; starts; and each group's
    labels as _resolve_labels gives them."""
    n_steps, b = batches.shape
    n, p = len(index.owner), index.p
    steps = np.arange(n_steps)
    row_keys = np.sort((steps[:, None] * n + index.fwd.position[batches]).ravel())
    row_step, pos = np.divmod(row_keys, n)  # pos: the row's rank-major position
    row_ids = index.fwd.rows[pos]
    group = row_step * p + index.owner[row_ids]
    starts = np.zeros(n_steps * p + 1, dtype=np.int64)
    np.cumsum(np.bincount(group, minlength=n_steps * p), out=starts[1:])
    local = np.arange(len(pos)) - starts[group]  # a row's place among its rank's
    found = (steps[:, None] * n + batches).ravel()  # sorted (step, vertex) keys
    at = np.searchsorted(found, row_step * n + row_ids)  # each row's key
    local_at = np.empty_like(local)
    local_at[at] = local

    def entries(ph: _HaloLayout):
        """The phase's entries of the batch rows whose column the batch
        holds: entry ids, rows, and the column's key."""
        begin = ph.entry_start[pos]
        count = ph.entry_start[pos + 1] - begin
        row = np.repeat(np.arange(len(pos)), count)
        e = ranges(begin, count)
        col_key = row_step[row] * n + ph.col[e]
        hit = np.minimum(sorted_search(found, col_key), len(found) - 1)
        keep = found[hit] == col_key
        return e[keep], row[keep], hit[keep]

    def phase(ph: _HaloLayout, transposed: bool, e, row, hit):
        """Every step's operands of the phase, and its send lists: plan
        ids, local positions and bounds per (step, sender, receiver). An
        ext slot survives when a kept entry uses it (an own batch row by
        its diagonal entry), and a sender's list to c keeps the rows whose
        slot in c's ext survives. transposed: ph is the layout of A+I's
        transpose, whose entry (row, col) holds A+I's entry (col, row)."""
        # normalize_adjacency's v * inv[i] * inv[j], for A+I's entry (i, j)
        i, j = (hit, at[row]) if transposed else (at[row], hit)
        values = ph.values[e] * inv_at[i] * inv_at[j]
        width = int(ph.ext_start[-1])
        slot = row_step[row] * width + ph.slot[e]
        used = unique_keys(slot)  # surviving (step, ext slot) keys
        edges = np.searchsorted(used, (steps[:, None] * width + ph.ext_start).ravel())
        edges = edges.reshape(n_steps, p + 1)
        cols = np.searchsorted(used, slot) - edges[:, :-1].ravel()[group[row]]
        offsets = np.zeros(len(pos) + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=len(pos)), out=offsets[1:])
        operands = CsrMatrix.batch(starts, np.diff(edges, axis=1).ravel(), offsets, cols, values)

        n_listed = max(len(ph.plan.ids), 1)
        listed = ph.listed_at[used % width]
        sent = listed >= 0
        keys = np.sort(used[sent] // width * n_listed + listed[sent])
        list_step, listed = np.divmod(keys, n_listed)  # in (step, send-list slot) order
        hit = np.searchsorted(found, list_step * n + ph.plan.ids[listed])
        bounds = np.zeros(n_steps * p * p + 1, dtype=np.int64)
        pairs = list_step * p * p + ph.pair[listed]
        np.cumsum(np.bincount(pairs, minlength=n_steps * p * p), out=bounds[1:])
        return operands, (hit - list_step * b, local_at[hit], bounds)

    e, row, hit = entries(index.fwd)
    deg = np.bincount(row, weights=index.fwd.values[e], minlength=len(pos))
    inv_at = np.empty(len(pos))
    inv_at[at] = 1.0 / np.sqrt(deg)
    a_fwd, sends_fwd = phase(index.fwd, False, e, row, hit)
    a_bwd, sends_bwd = a_fwd, sends_fwd
    if index.bwd is not None:
        a_bwd, sends_bwd = phase(index.bwd, True, *entries(index.bwd))
    prime_spmm_schedules(a_fwd + a_bwd)
    label_at = index.label_index[row_ids]
    count = np.bincount(row_step[label_at >= 0], minlength=n_steps).tolist()
    per_group = _group_labels(label_at, group, local, n_steps * p, labels)
    step_labels = [(*x, count[g // p]) for g, x in enumerate(per_group)]
    return a_fwd, a_bwd, sends_fwd, sends_bwd, at - row_step * b, row_ids, starts, step_labels


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
    is one step over the states themselves, whose operands' spmm
    schedules are built together before the first. A mini-batch epoch
    first draws its batches_per_epoch batches, one rng.choice call per
    step in step order, and builds every step's operands, plans and
    schedules in one pass (_epoch_pass); then it runs the steps, each over
    the states of one sampled induced subgraph, and the weights a step
    leaves go back to the persistent states.
    """
    mini = isinstance(mode, MiniBatch)
    if mini:
        index = _mini_batch_index(states, labels, mode.adjacency)
        rng = np.random.default_rng([int(mode.seed), 0x7B])
    elif len(labels) == 0:
        raise ValueError("label set is empty")
    else:
        rank_labels = _resolve_labels(states, labels)
        prime_spmm_schedules(op for st in states for op in (st.a_fwd, st.a_bwd))
    out = []
    for e in range(epochs):
        start = time.perf_counter()
        losses = []
        if mini:
            size = mode.spec.batch_size
            batches = np.empty((mode.batches_per_epoch, size), dtype=np.int64)
            for step in range(len(batches)):
                batches[step] = rng.choice(len(index.owner), size=size, replace=False)
            batches.sort(axis=1)
        steps = _epoch_steps(index, states, labels, batches) if mini else [(states, rank_labels)]
        for step, (step_states, step_labels) in enumerate(steps):
            programs = [
                _rank_epoch(st, net, lab, e, step) for st, lab in zip(step_states, step_labels)
            ]
            losses.append(_run(programs, net, scheduler)[0])
            for st, sub in zip(states, step_states):
                st.weights = sub.weights
        wall = time.perf_counter() - start
        loss = float(np.mean(losses)) if losses else 0.0
        out.append(_metrics_from_records(net.records(epoch=e), len(states), wall, loss))
    return out
