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

from .comm import CommPlan, build_comm_plan, plan_from_lists
from .gcn import GcnModel, LabelSet, activation_and_derivative
from .models import MiniBatchSpec, Partition
from .sparse import CsrMatrix, RowBlock, dense, gather_rows, spmm, transpose_sparse

# Not called here since mini-batch steps mask operands built once; kept
# because perfbench/experiment.py traces them under these names.
from .models import induced_pattern  # noqa: F401
from .sparse import normalize_adjacency  # noqa: F401

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

    A mini-batch step's states hold the same for the batch's induced
    subgraph, with rows and plan ids numbered by position in the batch.
    They are masked out of every rank's operands of the whole graph,
    which train_epochs builds once, not renormalized and scattered anew.
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


def _rank_operands(a: CsrMatrix, plan: CommPlan):
    """Every rank's rows, halo operand A[rows, ext] and send positions by
    destination, from one sort of a's entries; plan is a's plan, so every
    column of a rank's rows is in its ext. Rank m's ext lists its own rows,
    then each sender's send list to m in ascending sender rank; column j
    of its operand is position j of ext. gather_rows raises KeyError for a
    listed row that its sender does not own."""
    p, owner = plan.p, plan.owner
    n = len(owner)
    sizes = np.array([[len(ids) for ids in lists] for lists in plan.send], dtype=np.int64)
    by_rank = np.argsort(owner, kind="stable")  # the rows of rank 0, then 1, ...
    n_own = np.bincount(owner, minlength=p)
    starts = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(n_own, out=starts[1:])
    rows = [by_rank[starts[m] : starts[m + 1]] for m in range(p)]
    send = []
    for m, (counts, ends) in enumerate(zip(sizes.tolist(), np.cumsum(sizes, axis=1).tolist())):
        index = RowBlock(rows[m], np.arange(len(rows[m])).reshape(-1, 1))
        pos = gather_rows(index, np.concatenate(plan.send[m]))[:, 0]
        send.append({d: pos[end - k : end] for d, (k, end) in enumerate(zip(counts, ends)) if k})

    slot = np.empty(n, dtype=np.int64)
    slot[by_rank] = np.arange(n)
    local = slot - starts[owner]
    # listed: the sorted keys (sender * p + receiver) * n + row of the send
    # lists; shift[s * p + c]: where list s -> c ends in c's ext (after c's
    # rows and the lists of senders up to s) less where it ends in listed
    pair = np.repeat(np.arange(p * p, dtype=np.int64), sizes.ravel())
    listed = pair * n + np.concatenate([ids for lists in plan.send for ids in lists])
    shift = (n_own + np.cumsum(sizes, axis=0)).ravel() - np.cumsum(sizes)
    n_ext = n_own + sizes.sum(axis=0)

    row_nnz = a.row_nnz()
    row = np.repeat(np.arange(n, dtype=np.int64), row_nnz)
    cols = local[a.col_indices]
    cross = np.flatnonzero(owner[row] != owner[a.col_indices])
    pairs = owner[a.col_indices[cross]] * p + owner[row[cross]]
    cols[cross] = shift[pairs] + np.searchsorted(listed, pairs * n + a.col_indices[cross])
    order = np.argsort(slot[row] * int(n_ext.max()) + cols)  # unique keys
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(row_nnz[by_rank], out=offsets[1:])
    return rows, _split_operands(starts, offsets, cols[order], a.values[order], n_ext), send


def _split_operands(starts, offsets, cols, values, n_ext) -> list[CsrMatrix]:
    """Slice rank-major flat CSR arrays into one operand per rank: rank m
    has the flat rows starts[m]:starts[m + 1] and n_ext[m] columns."""
    starts, n_ext = starts.tolist(), n_ext.tolist()
    operands = []
    for m in range(len(n_ext)):
        lo, hi = offsets[starts[m]], offsets[starts[m + 1]]
        seg = offsets[starts[m] : starts[m + 1] + 1] - lo
        n_rows = starts[m + 1] - starts[m]
        operands.append(CsrMatrix(n_rows, n_ext[m], seg, cols[lo:hi], values[lo:hi]))
    return operands


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
    rows, a_fwd, send_fwd = _rank_operands(a_hat, plan_fwd)
    plan_bwd, a_bwd, send_bwd = plan_fwd, a_fwd, send_fwd
    if directed:
        a_t = transpose_sparse(a_hat)
        plan_bwd = build_comm_plan(a_t, pi, p)
        _, a_bwd, send_bwd = _rank_operands(a_t, plan_bwd)
    return [
        ProcState(
            rank=m,
            global_rows=rows[m],
            plan_fwd=plan_fwd,
            plan_bwd=plan_bwd,
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
        for m in range(plan_fwd.p)
    ]


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


def _rank_backward(st: ProcState, net: SimNetwork, labels: tuple, epoch: int, step: int):
    """Loss contribution, then per layer: post sends, send barrier, receive
    and compute, dW contribution, update. labels is the rank's
    (local_rows, y, count), as _resolve_labels or _step gives it. Returns
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
    whether the input is directed come from the states being trained.
    Each train_epochs call builds every rank's halo operands of the whole
    graph once; a step keeps the entries both of whose vertices it
    sampled, renormalizes them and drops the ext columns and send-list
    rows nothing uses any more."""

    spec: MiniBatchSpec
    batches_per_epoch: int
    seed: int
    adjacency: CsrMatrix  # raw pattern, values ignored; renormalized per batch


def _resolve_labels(states, labels: LabelSet) -> list[tuple]:
    """Each rank's (local_rows, y, count) for full-batch steps: the local
    positions and classes of its labeled rows, and the labeled count."""
    index = _label_index(labels, sum(len(st.global_rows) for st in states))
    return [(*_rank_labels(index[st.global_rows], labels), len(labels)) for st in states]


def _label_index(labels: LabelSet, n: int) -> np.ndarray:
    """Each vertex's position in labels.labeled_ids, or -1 if unlabeled;
    ids outside 0..n-1 label no vertex."""
    index = np.full(n, -1, dtype=np.int64)
    inside = np.flatnonzero((labels.labeled_ids >= 0) & (labels.labeled_ids < n))
    index[labels.labeled_ids[inside]] = inside
    return index


def _rank_labels(index: np.ndarray, labels: LabelSet):
    """Local positions and classes of the labeled rows of a block, given
    each row's label position; in label-set order, which fixes the order
    the loss sums in."""
    local = np.flatnonzero(index >= 0)
    local = local[np.argsort(index[local], kind="stable")]
    return local, labels.labels[index[local]]


@dataclass(frozen=True)
class _MaskedPhase:
    """One phase's halo operands of A+I (A: the raw pattern with unit
    values) or of its transpose, built once by _rank_operands for the
    global owners and flattened rank after rank.

    Per entry: its global row and column, its value in A+I, its flat ext
    slot (its rank's ext start plus its column) and that start. Per
    send-list slot, lists in (sender, receiver) order: its global id, its
    pair sender * p + receiver and its flat slot in the receiver's ext.
    """

    row: np.ndarray
    col: np.ndarray
    values: np.ndarray
    slot: np.ndarray
    base: np.ndarray
    ext_start: np.ndarray  # rank m's ext slots are ext_start[m]:ext_start[m + 1]
    listed: np.ndarray
    pair: np.ndarray
    listed_slot: np.ndarray
    transposed: bool  # entry (row, col) holds A+I's entry (col, row)


def _masked_phase(a: CsrMatrix, owner: np.ndarray, p: int, transposed: bool) -> _MaskedPhase:
    plan = build_comm_plan(a, owner, p)
    rows, operands, _ = _rank_operands(a, plan)
    sizes = np.array([[len(ids) for ids in lists] for lists in plan.send], dtype=np.int64)
    n_own = np.array([len(r) for r in rows], dtype=np.int64)
    ext_start = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(n_own + sizes.sum(axis=0), out=ext_start[1:])
    ext = np.concatenate(  # rank c's ext: its rows, then each sender's list to c
        [ids for c in range(p) for ids in [rows[c]] + [lists[c] for lists in plan.send]]
    )
    slot = np.concatenate([ext_start[m] + op.col_indices for m, op in enumerate(operands)])
    # list s -> c starts in c's ext after c's rows and the lists of the
    # senders before s; list_start: where it starts among all lists
    list_at = (ext_start[:-1] + n_own + np.cumsum(sizes, axis=0) - sizes).ravel()
    list_start = np.cumsum(sizes.ravel()) - sizes.ravel()
    return _MaskedPhase(
        row=np.concatenate([np.repeat(r, op.row_nnz()) for r, op in zip(rows, operands)]),
        col=ext[slot],
        values=np.concatenate([op.values for op in operands]),
        slot=slot,
        base=np.repeat(ext_start[:-1], [op.nnz for op in operands]),
        ext_start=ext_start,
        listed=np.concatenate([ids for lists in plan.send for ids in lists]),
        pair=np.repeat(np.arange(p * p), sizes.ravel()),
        listed_slot=np.repeat(list_at - list_start, sizes.ravel()) + np.arange(int(sizes.sum())),
        transposed=transposed,
    )


@dataclass(frozen=True)
class _MiniBatchIndex:
    """What every step of one train_epochs call shares: the global owners,
    the vertex ids in rank-major order, the features, each vertex's label
    position, and the masked phases (bwd is None when undirected)."""

    owner: np.ndarray
    by_rank: np.ndarray
    features: np.ndarray
    label_index: np.ndarray
    fwd: _MaskedPhase
    bwd: "_MaskedPhase | None"


def _mini_batch_index(states, labels: LabelSet, adjacency: CsrMatrix) -> _MiniBatchIndex:
    n, p = adjacency.n_rows, len(states)
    owner = np.empty(n, dtype=np.int64)
    features = np.empty((n, states[0].dims[0]))
    for st in states:
        owner[st.global_rows] = st.rank
        features[st.global_rows] = st.h0
    ids = np.arange(n)
    # from_coo sums a raw self loop and I to 2, as normalize_adjacency does
    a = CsrMatrix.from_coo(
        n, n, np.concatenate([np.repeat(ids, adjacency.row_nnz()), ids]),
        np.concatenate([adjacency.col_indices, ids]),
    )
    directed = states[0].plan_bwd is not states[0].plan_fwd
    return _MiniBatchIndex(
        owner=owner,
        by_rank=np.argsort(owner, kind="stable"),
        features=features,
        label_index=_label_index(labels, n),
        fwd=_masked_phase(a, owner, p, False),
        bwd=_masked_phase(transpose_sparse(a), owner, p, True) if directed else None,
    )


def _mask(ph: _MaskedPhase, keep, owner, inv, batch_pos, local, row_ids, row_starts):
    """One phase of a step: its plan, operands and send positions, from the
    entries in keep. An ext slot survives when a kept entry uses it (an own
    batch row by its diagonal entry), and a sender's list to c keeps the
    rows whose slot in c's ext survives. owner: the batch's owners."""
    p = len(row_starts) - 1
    rows, slot = ph.row[keep], ph.slot[keep]
    # normalize_adjacency's v * inv[i] * inv[j], for A+I's entry (i, j)
    i, j = (ph.col[keep], rows) if ph.transposed else (rows, ph.col[keep])
    values = ph.values[keep] * inv[i] * inv[j]
    used = np.zeros(int(ph.ext_start[-1]), dtype=bool)
    used[slot] = True
    before = np.zeros(len(used) + 1, dtype=np.int64)  # surviving slots ahead of each
    np.cumsum(used, out=before[1:])
    cols = before[slot] - before[ph.base[keep]]
    offsets = np.zeros(len(row_ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(inv))[row_ids], out=offsets[1:])
    operands = _split_operands(row_starts, offsets, cols, values, np.diff(before[ph.ext_start]))

    sent = used[ph.listed_slot]
    listed = ph.listed[sent]
    bounds = np.zeros(p * p + 1, dtype=np.int64)
    np.cumsum(np.bincount(ph.pair[sent], minlength=p * p), out=bounds[1:])
    pos, b = local[listed], bounds.tolist()
    positions = [
        {c: pos[b[q] : b[q + 1]] for c, q in enumerate(range(s * p, s * p + p)) if b[q + 1] > b[q]}
        for s in range(p)
    ]
    return plan_from_lists(p, owner, batch_pos[listed], bounds), operands, positions


def _step(index: _MiniBatchIndex, states, labels: LabelSet, batch: np.ndarray):
    """One mini-batch step's states and per-rank labels for a sorted batch:
    its induced subgraph, renormalized and distributed by the global
    owners, with the current weights. Rows and plan ids are positions in
    the batch, as scatter of the induced subgraph numbers them."""
    n, p = len(index.owner), len(states)
    in_batch = np.zeros(n, dtype=bool)
    in_batch[batch] = True
    row_ids = index.by_rank[in_batch[index.by_rank]]  # the batch rows of rank 0, then 1, ...
    row_owner = index.owner[row_ids]
    row_starts = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_owner, minlength=p), out=row_starts[1:])
    batch_pos = np.cumsum(in_batch) - 1
    local = np.empty(n, dtype=np.int64)  # a batch row's position among its rank's
    local[row_ids] = np.arange(len(row_ids)) - row_starts[row_owner]

    fwd = index.fwd
    keep = in_batch[fwd.row] & in_batch[fwd.col]
    deg = np.bincount(fwd.row[keep], weights=fwd.values[keep], minlength=n)
    inv = np.zeros(n)
    inv[batch] = 1.0 / np.sqrt(deg[batch])
    args = (index.owner[batch], inv, batch_pos, local, row_ids, row_starts)
    plan_fwd, a_fwd, pos_f = _mask(fwd, keep, *args)
    plan_bwd, a_bwd, pos_b = plan_fwd, a_fwd, pos_f
    if index.bwd is not None:
        bwd = index.bwd
        plan_bwd, a_bwd, pos_b = _mask(bwd, in_batch[bwd.row] & in_batch[bwd.col], *args)

    global_rows, h0 = batch_pos[row_ids], index.features[row_ids]
    label_at = index.label_index[row_ids]
    count = int(np.count_nonzero(label_at >= 0))
    starts = row_starts.tolist()
    step_states, step_labels = [], []
    for m, st in enumerate(states):
        lo, hi = starts[m], starts[m + 1]
        step_states.append(ProcState(
            rank=m,
            global_rows=global_rows[lo:hi],
            plan_fwd=plan_fwd,
            plan_bwd=plan_bwd,
            a_fwd=a_fwd[m],
            a_bwd=a_bwd[m],
            send_fwd=pos_f[m],
            send_bwd=pos_b[m],
            dims=st.dims,
            activation=st.activation,
            learning_rate=st.learning_rate,
            weights=list(st.weights),
            h0=h0[lo:hi],
        ))
        step_labels.append((*_rank_labels(label_at[lo:hi], labels), count))
    return step_states, step_labels


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
        index = _mini_batch_index(states, labels, mode.adjacency)
        rng = np.random.default_rng([int(mode.seed), 0x7B])
    elif len(labels) == 0:
        raise ValueError("label set is empty")
    else:
        rank_labels = _resolve_labels(states, labels)
    out = []
    for e in range(epochs):
        start = time.perf_counter()
        losses = []
        for step in range(mode.batches_per_epoch if mini else 1):
            if mini:
                batch = rng.choice(len(index.owner), size=mode.spec.batch_size, replace=False)
                step_states, step_labels = _step(index, states, labels, np.sort(batch))
            else:
                step_states, step_labels = states, rank_labels
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
