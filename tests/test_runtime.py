"""Simulated runtime: serial equivalence, exact communication accounting,
scheduler agreement, and mini-batch behavior."""

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcnpart import (
    CommError,
    FullBatch,
    GcnModel,
    LabelSet,
    MiniBatch,
    MiniBatchSpec,
    Partition,
    PartitionConfig,
    SimNetwork,
    allreduce_sum,
    build_comm_plan,
    build_hypergraph_model,
    evaluate_hypergraph_cut,
    feedforward,
    init_model,
    normalize_adjacency,
    parallel_feedforward,
    partition_hypergraph_fm,
    predicted_total_volume,
    random_partition,
    scatter,
    train_epochs,
    train_serial,
    transpose_sparse,
)
from gcnpart import runtime
from gcnpart.models import induced_pattern, net_connectivity
from gcnpart.sparse import CsrMatrix, RowBlock, add_identity, gather_rows, restrict

from helpers import (
    grid_graph,
    random_directed,
    random_labels,
    random_undirected,
    three_processor_transfer_instance,
)


def build_instance(n, dims, seed, directed=False, density=0.2):
    raw = random_directed(n, density, seed) if directed else random_undirected(n, density, seed)
    a_hat = normalize_adjacency(raw)
    rng = np.random.default_rng([seed, 0xF0])
    h0 = rng.standard_normal((n, dims[0]))
    labels = random_labels(n, dims[-1], max(2, n // 5), seed)
    model = init_model(dims, seed=seed)
    return raw, a_hat, h0, labels, model


def partition_for(a_hat, p, seed, eps=0.5):
    return random_partition(a_hat.row_nnz(), PartitionConfig(p=p, seed=seed, epsilon=eps))


def sorted_records(net):
    return sorted(net.log)


def scheduler_case(scheduler, directed, mini):
    words = [scheduler] + ["directed"] * directed + ["mini"] * mini
    return pytest.param(scheduler, directed, mini, id="-".join(words))


def ext_of(st):
    """Global row ids of the columns of st's forward halo operand."""
    plan = st.plan_fwd
    return np.concatenate([st.global_rows] + [plan.send[n][st.rank] for n in plan.recv_from[st.rank]])


def bit_equal(a, b):
    """Whether two CSR matrices agree in pattern and in every value's bits."""
    return (a.shape == b.shape and np.array_equal(a.row_offsets, b.row_offsets)
            and np.array_equal(a.col_indices, b.col_indices)
            and np.array_equal(a.values.view(np.int64), b.values.view(np.int64)))


def owner_cut(h, owner):
    """Connectivity-1 cut of h under a bare owner array, which may leave
    ranks empty (so no Partition can hold it)."""
    return sum(len(np.unique(owner[pins])) - 1 for pins in h.nets)


def assemble(states, key, layer=None):
    rows = np.concatenate([st.global_rows for st in states])
    if key == "h0":
        data = np.vstack([st.h0 for st in states])
    else:
        data = np.vstack([getattr(st, key)[layer] for st in states])
    order = np.argsort(rows)
    return data[order]


def reference_halo_operand(a, plan, m, rows):
    """A[rows, ext] for rank m, ext = its own rows, then each sender's send
    list to m (ascending sender); column j is position j of ext. One
    restriction per rank, as scatter built it before the one-pass build."""
    ext = np.concatenate([rows] + [plan.send[n][m] for n in plan.recv_from[m]])
    order = np.argsort(ext)
    sub = restrict(a, rows, ext[order])
    cols = order[sub.col_indices]
    row_of = np.repeat(np.arange(sub.n_rows), sub.row_nnz())
    within = np.argsort(row_of * len(ext) + cols, kind="stable")
    return CsrMatrix(sub.n_rows, len(ext), sub.row_offsets, cols[within], sub.values[within])


def reference_send_positions(plan, m, rows):
    """Local positions of rank m's send lists, by destination, one
    gather_rows per destination."""
    index = RowBlock(rows, np.arange(len(rows)).reshape(-1, 1))
    return {dst: gather_rows(index, ids)[:, 0] for dst, ids in enumerate(plan.send[m]) if len(ids)}


def reference_local_labelset(labels, rows):
    """The labels of the vertices in rows (sorted global ids), renumbered
    to their positions in rows; empty when rows holds none."""
    pos = np.searchsorted(rows, labels.labeled_ids)
    mine = pos < len(rows)
    mine[mine] = rows[pos[mine]] == labels.labeled_ids[mine]
    return LabelSet(pos[mine], labels.labels[mine], labels.n_classes)


def reference_batch(states, labels, mode, rng, owner, features):
    """One mini-batch step's states and labels, built directly: sample a
    batch, renormalize its induced subgraph and scatter it by the global
    owners, with the current weights."""
    batch = np.sort(rng.choice(len(owner), size=mode.spec.batch_size, replace=False))
    sub = restrict(mode.adjacency, batch, batch)
    sub_hat = normalize_adjacency(CsrMatrix(sub.n_rows, sub.n_cols, sub.row_offsets, sub.col_indices, np.ones(sub.nnz)))
    st = states[0]
    model = GcnModel(st.dims, tuple(st.weights), st.activation, st.learning_rate)
    sub_states = scatter(sub_hat, features[batch], owner[batch], model, p=len(states))
    return sub_states, reference_local_labelset(labels, batch)


class FixedDraw:
    """Stands in for a Generator whose choice draws the given vertices."""

    def __init__(self, vertices):
        self.vertices = vertices

    def choice(self, n, size, replace):
        assert size == len(self.vertices) and not replace
        return self.vertices


@st.composite
def mini_batch_instances(draw):
    """A raw pattern (self loops allowed; symmetric unless directed), owners
    that give every rank a row, labels in any order, and an epoch of one
    to four batches of one size, each in drawn order. The size is 1, all
    the vertices the batches may hold, or between; a drawn rank may own
    none of them, so that every batch leaves it with no rows."""
    p = draw(st.integers(1, 6))
    n = draw(st.integers(p, 16))
    owner = np.array(draw(st.permutations(list(range(p)) + draw(
        st.lists(st.integers(0, p - 1), min_size=n - p, max_size=n - p)))))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    directed = draw(st.booleans())
    rows, cols = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    if not directed:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    raw = CsrMatrix.from_coo(n, n, rows, cols)
    raw = CsrMatrix(n, n, raw.row_offsets, raw.col_indices, np.ones(raw.nnz))
    labeled = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    labels = LabelSet(labeled, draw(st.lists(st.integers(0, 2), min_size=len(labeled),
                                             max_size=len(labeled))), 3)
    dropped = draw(st.integers(-1, p - 1))  # a rank the batches leave empty, or none
    keep = [v for v in range(n) if owner[v] != dropped] or [0]
    size = draw(st.sampled_from([1, len(keep), draw(st.integers(1, len(keep)))]))
    batches = [
        draw(st.permutations(keep).map(lambda vs: vs[:size]))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return raw, owner, p, directed, labels, np.array(batches, dtype=np.int64)


@st.composite
def scatter_instances(draw):
    """A random square matrix (symmetric pattern unless directed), with
    values that include signed zeros, and random owners; with n < p or by
    chance some ranks own no rows."""
    p, n = draw(st.integers(1, 6)), draw(st.integers(1, 14))
    owner = np.array(draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4 * n))
    directed = draw(st.booleans())
    rows, cols = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    if not directed:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    pattern = CsrMatrix.from_coo(n, n, rows, cols)
    values = np.array(draw(st.lists(
        st.sampled_from([1.0, -0.0, 0.0, 0.1, -2.5, 1e-300, np.pi]),
        min_size=pattern.nnz, max_size=pattern.nnz)))
    a = CsrMatrix(n, n, pattern.row_offsets, pattern.col_indices, values)
    return a, owner, p, directed


class TestScatter:
    def test_single_rank_holds_everything(self):
        _, a_hat, h0, _, model = build_instance(10, (3, 2), 0)
        states = scatter(a_hat, h0, partition_for(a_hat, 1, 0), model)
        assert len(states) == 1
        assert np.array_equal(states[0].global_rows, np.arange(10))
        assert np.array_equal(states[0].h0, h0)

    def test_blocks_reassemble_bit_exact(self):
        _, a_hat, h0, _, model = build_instance(12, (4, 3), 1)
        pi = partition_for(a_hat, 3, 1)
        states = scatter(a_hat, h0, pi, model)
        assert np.array_equal(assemble(states, "h0"), h0)
        # undo the ext numbering: every entry of a_hat appears in exactly
        # one rank's halo operand, with its exact value
        rebuilt = np.zeros((12, 12))
        for st in states:
            rebuilt[np.ix_(st.global_rows, ext_of(st))] += st.a_fwd.to_dense()
        assert np.array_equal(rebuilt, a_hat.to_dense())

    @pytest.mark.parametrize("directed", [False, True])
    def test_ext_is_own_rows_then_senders_ascending(self, directed):
        _, a_hat, h0, _, model = build_instance(24, (3, 2), 4, directed=directed)
        pi = partition_for(a_hat, 4, 4)
        states = scatter(a_hat, h0, pi, model)
        a_bwd = transpose_sparse(a_hat) if directed else a_hat
        for a, plan_key, op_key in ((a_hat, "plan_fwd", "a_fwd"), (a_bwd, "plan_bwd", "a_bwd")):
            plan = build_comm_plan(a, pi)
            for st in states:
                senders = [n for n in range(4) if len(plan.send[n][st.rank])]
                assert list(getattr(st, plan_key).recv_from[st.rank]) == senders
                ext = np.concatenate([st.global_rows] + [plan.send[n][st.rank] for n in senders])
                op = getattr(st, op_key)
                assert op.shape == (len(st.global_rows), len(ext))
                dense_rows = a.to_dense()[st.global_rows]
                assert np.array_equal(op.to_dense(), dense_rows[:, ext])
                # no entry of the rank's rows falls outside ext
                assert np.count_nonzero(dense_rows) == op.nnz

    def test_send_positions_select_send_lists(self):
        _, a_hat, h0, _, model = build_instance(20, (3, 2), 6)
        states = scatter(a_hat, h0, partition_for(a_hat, 4, 6), model)
        for st in states:
            lists = st.plan_fwd.send[st.rank]
            assert sorted(st.send_fwd) == [d for d in range(4) if len(lists[d])]
            for dst, pos in st.send_fwd.items():
                assert np.array_equal(st.global_rows[pos], lists[dst])

    def test_send_list_row_not_owned_raises_at_scatter(self, monkeypatch):
        _, a_hat, h0, _, model = build_instance(20, (3, 2), 6)
        pi = partition_for(a_hat, 4, 6)
        plan = build_comm_plan(a_hat, pi)
        src, dst = next((m, n) for m in range(4) for n in range(4) if len(plan.send[m][n]))
        # a row of a third rank that no list to dst names yet, so only the
        # sender's ownership check can object to it
        listed = np.concatenate([plan.send[n][dst] for n in range(4)])
        foreign = next(
            v for v in range(20) if pi.assignment[v] not in (src, dst) and v not in listed
        )
        q = src * 4 + dst
        lo, hi = plan.bounds[q], plan.bounds[q + 1]
        ids = np.concatenate([plan.ids[:lo], np.sort(np.append(plan.ids[lo:hi], foreign)), plan.ids[hi:]])
        bounds = plan.bounds + (np.arange(len(plan.bounds)) > q)
        bad = dataclasses.replace(plan, ids=ids, bounds=bounds)
        monkeypatch.setattr(runtime, "build_comm_plan", lambda *args: bad)
        with pytest.raises(KeyError, match=f"row {foreign} is not owned"):
            scatter(a_hat, h0, pi, model)

    @settings(deadline=None, max_examples=150)
    @given(scatter_instances())
    def test_operands_match_per_rank_reference(self, instance):
        a, owner, p, _ = instance
        model = init_model((2, 2), seed=0)
        states = scatter(a, np.zeros((a.n_rows, 2)), owner, model, p=p)
        a_t = transpose_sparse(a)
        shared = bit_equal(a, a_t)
        one_pattern = (np.array_equal(a.row_offsets, a_t.row_offsets)
                       and np.array_equal(a.col_indices, a_t.col_indices))
        for st_ in states:
            rows = np.flatnonzero(owner == st_.rank)
            assert np.array_equal(st_.global_rows, rows)
            assert (st_.a_bwd is st_.a_fwd) == shared
            assert (st_.send_bwd is st_.send_fwd) == one_pattern
            assert (st_.plan_bwd is st_.plan_fwd) == one_pattern
            for b, op, send in ((a, st_.a_fwd, st_.send_fwd), (a_t, st_.a_bwd, st_.send_bwd)):
                plan = build_comm_plan(b, owner, p)
                want = reference_halo_operand(b, plan, st_.rank, rows)
                assert op.shape == want.shape
                assert np.array_equal(op.row_offsets, want.row_offsets)
                assert np.array_equal(op.col_indices, want.col_indices)
                assert np.array_equal(op.values.view(np.int64), want.values.view(np.int64))
                want_send = reference_send_positions(plan, st_.rank, rows)
                assert list(send) == list(want_send)
                for dst, pos in want_send.items():
                    assert np.array_equal(send[dst], pos)
        # the flat layout both training modes read, against one rebuilt
        # rank by rank from plan.send
        for b in (a, a_t):
            plan = build_comm_plan(b, owner, p)
            got = runtime._halo_layout(b, owner, p)
            ext, listed_at, col, slot = [], [], [], []
            lists = [ids for row in plan.send for ids in row]
            list_start = np.cumsum([0] + [len(ids) for ids in lists])
            for m in range(p):
                rows = np.flatnonzero(owner == m)
                start = sum(map(len, ext))
                ext.append(np.concatenate([rows] + [plan.send[s][m] for s in range(p)]))
                listed_at += [-1] * len(rows)
                for s in range(p):
                    listed_at += list(list_start[s * p + m] + np.arange(len(plan.send[s][m])))
                op = reference_halo_operand(b, plan, m, rows)
                col.append(ext[-1][op.col_indices])
                slot.append(start + op.col_indices)
            assert np.array_equal(got.ext_start, np.cumsum([0] + [len(x) for x in ext]))
            assert list(got.listed_at) == listed_at
            assert np.array_equal(got.col, np.concatenate(col))
            assert np.array_equal(got.slot, np.concatenate(slot))
            assert np.array_equal(got.plan.ids, np.concatenate(lists))

    def test_three_processor_block_rows(self):
        a, assignment = three_processor_transfer_instance()
        model = init_model((2, 2), seed=0)
        h0 = np.zeros((6, 2))
        pi = Partition.from_assignment(assignment, a.row_nnz(), 3, 1e9)
        states = scatter(a, h0, pi, model)
        assert list(states[2].global_rows) == [4, 5]

    def test_weight_replicas_are_private(self):
        _, a_hat, h0, _, model = build_instance(8, (3, 2), 2)
        states = scatter(a_hat, h0, partition_for(a_hat, 2, 2), model)
        states[0].weights[0] = states[0].weights[0] + 1.0
        assert not np.array_equal(states[0].weights[0], states[1].weights[0])


class TestParallelFeedforward:
    def test_single_rank_no_messages_matches_serial(self):
        _, a_hat, h0, _, model = build_instance(10, (3, 4, 2), 3)
        net = SimNetwork(1)
        states = scatter(a_hat, h0, partition_for(a_hat, 1, 3), model)
        parallel_feedforward(states, net)
        assert len(net.log) == 0
        trace = feedforward(model, a_hat, h0)
        assert np.array_equal(states[0].h[2], trace.h[2])

    def test_three_processor_message_count(self):
        a, assignment = three_processor_transfer_instance()
        model = init_model((2, 2), seed=0)
        h0 = np.random.default_rng(0).standard_normal((6, 2))
        pi = Partition.from_assignment(assignment, a.row_nnz(), 3, 1e9)
        net = SimNetwork(3)
        states = scatter(a, h0, pi, model)
        parallel_feedforward(states, net)
        to_rank2 = [r for r in net.log if r.dst == 2]
        assert len(to_rank2) == 2
        assert {r.src for r in to_rank2} == {0, 1}

    @pytest.mark.parametrize("scheduler", ["round", "threads"])
    def test_matches_serial_within_1e9(self, scheduler):
        _, a_hat, h0, _, model = build_instance(32, (4, 6, 3), 5)
        net = SimNetwork(4)
        states = scatter(a_hat, h0, partition_for(a_hat, 4, 5), model)
        parallel_feedforward(states, net, scheduler=scheduler)
        want = feedforward(model, a_hat, h0)
        for k in (1, 2):
            got = assemble(states, "h", k)
            np.testing.assert_allclose(got, want.h[k], rtol=1e-9, atol=1e-12)


class TestParallelBackprop:
    """The backward phase of a train_epochs step."""

    def test_single_rank_bit_exact_vs_serial(self):
        _, a_hat, h0, labels, model = build_instance(10, (3, 4, 2), 7)
        net = SimNetwork(1)
        states = scatter(a_hat, h0, partition_for(a_hat, 1, 7), model)
        train_epochs(states, net, labels, 1)
        want, _, _ = train_serial(model, a_hat, a_hat, h0, labels, epochs=1)
        for ws, wp in zip(want.weights, states[0].weights):
            assert np.array_equal(ws, wp)

    def test_rows_sent_regardless_of_gradient_values(self):
        # backward messages are fixed by the plan, not by payload content
        _, a_hat, h0, labels, model = build_instance(16, (3, 3, 3), 9)
        pi = partition_for(a_hat, 4, 9)
        net = SimNetwork(4)
        states = scatter(a_hat, h0, pi, model)
        train_epochs(states, net, labels, 1)
        bwd = [r for r in net.log if r.phase == "bwd"]
        plan = build_comm_plan(a_hat, pi)
        nonempty_pairs = sum(
            1 for m in range(4) for n in range(4) if len(plan.send[m][n])
        )
        assert len(bwd) == nonempty_pairs * model.n_layers

    def test_split_ops_agree_across_schedulers(self):
        # an inference pass, then a training step, on one directed instance
        _, a_hat, h0, labels, model = build_instance(18, (3, 4, 2), 21, directed=True)
        pi = partition_for(a_hat, 4, 21)
        runs = []
        for scheduler in ("round", "threads"):
            net = SimNetwork(4)
            states = scatter(a_hat, h0, pi, model)
            parallel_feedforward(states, net, scheduler=scheduler)
            outputs = [st_.h[-1] for st_ in states]
            (metrics,) = train_epochs(states, net, labels, 1, scheduler=scheduler)
            runs.append((outputs, metrics, states, net))
        (h1, m1, st1, net1), (h2, m2, st2, net2) = runs
        assert all(np.array_equal(a, b) for a, b in zip(h1, h2))
        assert m1.loss == m2.loss
        for a, b in zip(st1, st2):
            for wa, wb in zip(a.weights, b.weights):
                assert np.array_equal(wa, wb)
        assert any(r.phase == "bwd" for r in net1.log)
        assert sorted_records(net1) == sorted_records(net2)


class TestAllreduce:
    def test_single_contribution_identity(self):
        x = np.random.default_rng(0).standard_normal((3, 3))
        assert np.array_equal(allreduce_sum([x]), x)

    def test_cancellation(self):
        assert np.array_equal(allreduce_sum([np.eye(3), -np.eye(3)]), np.zeros((3, 3)))

    def test_rank_order_sum_bit_exact(self):
        rng = np.random.default_rng(1)
        xs = [rng.standard_normal((4, 2)) for _ in range(4)]
        want = ((xs[0].copy() + xs[1]) + xs[2]) + xs[3]
        assert np.array_equal(allreduce_sum(xs), want)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            allreduce_sum([np.ones((2, 2)), np.ones((2, 3))])

    def test_threads_allreduce_under_fast_switching(self, monkeypatch):
        # more workers than cores and a thread switch every microsecond: a
        # rank that refilled its slot before another read the sum would
        # change some round's reply
        monkeypatch.setattr(runtime, "WAIT_S", 10.0)
        p, rounds = 8, 40

        def program(rank):
            got = []
            for r in range(rounds):
                got.append(float((yield np.array([[float(rank * rounds + r)]]))[0, 0]))
            return got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = runtime._drive_threads([program(k) for k in range(p)], SimNetwork(p))
        finally:
            sys.setswitchinterval(interval)
        want = [float(sum(k * rounds + r for k in range(p))) for r in range(rounds)]
        assert results == [want] * p


class TestChannels:
    def test_threads_receive_wakes_on_send(self, monkeypatch):
        # a ring where every rank but 0 is already receiving when its
        # predecessor sends, with a thread switch every microsecond: each
        # receive must wake on the send, not wait out WAIT_S
        monkeypatch.setattr(runtime, "WAIT_S", 10.0)
        p, shape, tag = 8, (2, 3), (0, 0, "fwd", 1)
        net = SimNetwork(p)

        def program(rank):
            if rank == 0:
                time.sleep(0.2)
                net.send(0, 1, np.zeros(shape), tag)
            got = net.recv(rank, (rank - 1) % p, tag, shape)
            if rank:
                net.send(rank, (rank + 1) % p, got + 1.0, tag)
            return got
            yield

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        start = time.monotonic()
        try:
            results = runtime._drive_threads([program(rank) for rank in range(p)], net)
        finally:
            sys.setswitchinterval(interval)
        assert time.monotonic() - start < 2.0
        for rank, got in enumerate(results):
            assert np.array_equal(got, np.full(shape, float((rank - 1) % p)))


class TestRecords:
    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=24),
        st.integers(2, 4),
        st.sampled_from(runtime.SCHEDULERS),
    )
    def test_epoch_and_step_filters_match_the_log(self, tags, p, scheduler):
        # epochs and steps interleave in any order; every rank sends one
        # message per tag to the next rank, under "threads" with a thread
        # switch every microsecond
        net = SimNetwork(p)

        def program(rank):
            for k, (epoch, step) in enumerate(tags):
                tag, shape = (epoch, step, "fwd", k), (k % 3, 2)
                net.send(rank, (rank + 1) % p, np.zeros(shape), tag)
                yield None
                net.recv(rank, (rank - 1) % p, tag, shape)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runtime._run([program(rank) for rank in range(p)], net, scheduler)
        finally:
            sys.setswitchinterval(interval)
        assert len(net.log) == p * len(tags)
        for epoch in (None, 0, 1, 2, 3, 4):
            for step in (None, 0, 1, 2, 3):
                want = [
                    r for r in net.log
                    if (epoch is None or r.epoch == epoch) and (step is None or r.step == step)
                ]
                assert net.records(epoch=epoch, step=step) == want

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(1, 6).flatmap(lambda p: st.tuples(st.just(p), st.lists(
            st.tuples(st.integers(0, p - 1), st.integers(0, 500), st.integers(1, 64)), max_size=40
        )))
    )
    def test_metrics_match_a_loop_over_the_records(self, case):
        # the per-rank sums a Python loop over the records gives, as exact ints
        p, sends = case
        recs = [runtime.MessageRecord(0, 0, "fwd", 1, src, (src + 1) % p, rows, cols)
                for src, rows, cols in sends]
        words, msgs = [0] * p, [0] * p
        for r in recs:
            words[r.src] += r.words
            msgs[r.src] += 1
        got = runtime._metrics_from_records(recs, p, 1.0)
        want = (sum(words), max(words), sum(words) / p, sum(msgs), max(msgs), 1.0)
        assert dataclasses.astuple(got) == want
        assert all(type(x) is type(y) for x, y in zip(dataclasses.astuple(got), want))


class TestTrainEpochs:
    def test_zero_epochs_touch_nothing(self):
        _, a_hat, h0, labels, model = build_instance(10, (3, 2), 10)
        net = SimNetwork(2)
        states = scatter(a_hat, h0, partition_for(a_hat, 2, 10), model)
        metrics = train_epochs(states, net, labels, 0)
        assert metrics == []
        for st in states:
            for w0, w in zip(model.weights, st.weights):
                assert np.array_equal(w0, w)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_serial_equivalence(self, p, directed):
        raw, a_hat, h0, labels, model = build_instance(24, (4, 5, 3), 11, directed=directed)
        a_back = transpose_sparse(a_hat) if directed else a_hat
        want, losses_want, _ = train_serial(model, a_hat, a_back, h0, labels, epochs=3)
        net = SimNetwork(p)
        states = scatter(a_hat, h0, partition_for(a_hat, p, 11), model)
        metrics = train_epochs(states, net, labels, 3)
        np.testing.assert_allclose(
            [m.loss for m in metrics], losses_want, rtol=1e-8
        )
        for st in states:
            for ws, wp in zip(want.weights, st.weights):
                np.testing.assert_allclose(wp, ws, rtol=1e-8, atol=1e-12)

    def test_replicas_identical_after_every_epoch(self):
        _, a_hat, h0, labels, model = build_instance(20, (3, 4, 2), 12)
        net = SimNetwork(4)
        states = scatter(a_hat, h0, partition_for(a_hat, 4, 12), model)
        for epoch in range(3):
            train_epochs(states, net, labels, 1)
            for st in states[1:]:
                for w0, wm in zip(states[0].weights, st.weights):
                    assert np.array_equal(w0, wm)

    def test_each_epoch_counts_only_its_own_traffic(self):
        # a second call, or an inference pass first, leaves records under
        # the same epoch numbers on a reused network
        dims = (3, 4, 2)
        a_hat = normalize_adjacency(grid_graph(6, 6))
        h0 = np.random.default_rng(6).standard_normal((36, dims[0]))
        labels, model = random_labels(36, dims[-1], 8, 6), init_model(dims, seed=6)
        pi = partition_for(a_hat, 4, 6)

        def metrics(states, net):
            return train_epochs(states, net, labels, 1)

        fresh = scatter(a_hat, h0, pi, model)
        want = [metrics(fresh, SimNetwork(4)) for _ in range(2)]
        assert want[0][0].total_words > 0
        states, net = scatter(a_hat, h0, pi, model), SimNetwork(4)
        assert [metrics(states, net) for _ in range(2)] == want
        states, net = scatter(a_hat, h0, pi, model), SimNetwork(4)
        parallel_feedforward(states, net)
        assert metrics(states, net) == want[0]

    def test_measured_words_match_plan_and_cut(self):
        dims = (5, 5, 5)
        _, a_hat, h0, labels, model = build_instance(24, dims, 13)
        pi = partition_for(a_hat, 4, 13)
        net = SimNetwork(4)
        states = scatter(a_hat, h0, pi, model)
        metrics = train_epochs(states, net, labels, 2)
        cut = evaluate_hypergraph_cut(build_hypergraph_model(a_hat), pi).cut_value
        per_epoch = cut * (sum(dims[:-1]) + sum(dims[1:]))
        assert metrics[0].total_words == per_epoch
        assert metrics[1].total_words == per_epoch
        # with uniform dims this is 2 x (cut x sum of layer widths)
        assert metrics[0].total_words == 2 * cut * sum(dims[1:])

    @settings(deadline=None, max_examples=60)
    @given(mini_batch_instances(), st.data())
    def test_words_equal_phase_cuts(self, instance, data):
        # per (epoch, phase, layer): the connectivity-1 cut of the column
        # nets of A_hat forward, of its transpose backward, times the width
        # the layer sends; undirected and directed, under both schedulers
        raw, owner, p, directed, labels, _ = instance
        n = raw.n_rows
        dims = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
        scheduler = data.draw(st.sampled_from(runtime.SCHEDULERS))
        a_hat = normalize_adjacency(raw)
        h0 = np.random.default_rng(n).standard_normal((n, dims[0]))
        states = scatter(a_hat, h0, owner, init_model(dims, seed=0), p=p)
        labels = LabelSet([0], [0], dims[-1]) if len(labels) == 0 else LabelSet(
            labels.labeled_ids, labels.labels % dims[-1], dims[-1])
        net = SimNetwork(p)
        train_epochs(states, net, labels, 2, scheduler=scheduler)
        cuts = {
            "fwd": owner_cut(build_hypergraph_model(a_hat), owner),
            "bwd": owner_cut(build_hypergraph_model(transpose_sparse(a_hat)), owner),
        }
        for epoch in range(2):
            recs = net.records(epoch=epoch)
            for k in range(1, len(dims)):
                for phase, width in (("fwd", dims[k - 1]), ("bwd", dims[k])):
                    words = sum(r.words for r in recs if r.phase == phase and r.layer == k)
                    assert words == cuts[phase] * width, (epoch, phase, k)

    @pytest.mark.parametrize("scheduler", runtime.SCHEDULERS)
    def test_row_mean_operand_trains_as_serial(self, scheduler):
        # M = D^-1 (A+I), the GraphSAGE-mean aggregator: its pattern is
        # symmetric and its values are not, so backpropagation needs M^T,
        # and sharing M between the phases would train a different model
        g = grid_graph(12, 12)
        ids = np.arange(g.n_rows)
        a = CsrMatrix.from_coo(g.n_rows, g.n_cols, np.concatenate([np.repeat(ids, g.row_nnz()), ids]),
                               np.concatenate([g.col_indices, ids]))
        deg = np.add.reduceat(a.values, a.row_offsets[:-1])
        m = CsrMatrix(a.n_rows, a.n_cols, a.row_offsets, a.col_indices,
                      a.values / np.repeat(deg, a.row_nnz()))
        dims = (8, 8, 4)
        rng = np.random.default_rng(0)
        h0 = rng.standard_normal((m.n_rows, dims[0]))
        labels = random_labels(m.n_rows, dims[-1], 30, 0)
        model = init_model(dims, seed=0)
        h = build_hypergraph_model(m)
        pi = partition_hypergraph_fm(h, PartitionConfig(p=4, seed=0))
        want, _, _ = train_serial(model, m, transpose_sparse(m), h0, labels, epochs=3)
        states = scatter(m, h0, pi, model)
        # one plan, two operands: M^T has M's pattern
        assert all(st_.plan_bwd is st_.plan_fwd and st_.a_bwd is not st_.a_fwd for st_ in states)
        metrics = train_epochs(states, SimNetwork(4), labels, 3, scheduler=scheduler)
        for st_ in states:
            for ws, wp in zip(want.weights, st_.weights):
                np.testing.assert_allclose(wp, ws, rtol=0, atol=1e-12)
        assert [x.total_words for x in metrics] == [predicted_total_volume(h, pi, dims)] * 3

    def test_directed_phases_follow_their_plans(self):
        raw, a_hat, h0, labels, model = build_instance(20, (3, 4, 2), 14, directed=True)
        pi = partition_for(a_hat, 4, 14)
        net = SimNetwork(4)
        states = scatter(a_hat, h0, pi, model)
        train_epochs(states, net, labels, 1)
        fwd_rows = sum(r.rows for r in net.log if r.phase == "fwd" and r.layer == 1)
        bwd_rows = sum(r.rows for r in net.log if r.phase == "bwd" and r.layer == 1)
        assert fwd_rows == build_comm_plan(a_hat, pi).sizes.sum()
        assert bwd_rows == build_comm_plan(transpose_sparse(a_hat), pi).sizes.sum()

    def test_message_ceiling_per_layer_per_phase(self):
        _, a_hat, h0, labels, model = build_instance(30, (3, 3, 3, 3), 15)
        p = 4
        pi = partition_for(a_hat, p, 15)
        net = SimNetwork(p)
        states = scatter(a_hat, h0, pi, model)
        train_epochs(states, net, labels, 2)
        for epoch in (0, 1):
            recs = net.records(epoch=epoch)
            for phase in ("fwd", "bwd"):
                for layer in (1, 2, 3):
                    sub = [r for r in recs if r.phase == phase and r.layer == layer]
                    per_pair = {}
                    per_src = {}
                    for r in sub:
                        per_pair[(r.src, r.dst)] = per_pair.get((r.src, r.dst), 0) + 1
                        per_src[r.src] = per_src.get(r.src, 0) + 1
                    assert all(c == 1 for c in per_pair.values())
                    assert all(c <= p - 1 for c in per_src.values())

    @pytest.mark.parametrize(
        "scheduler,directed,mini",
        [
            scheduler_case(s, d, m)
            for d in (False, True)
            for m in (False, True)
            for s in ("round", "threads")
        ],
    )
    def test_schedulers_bit_identical(self, scheduler, directed, mini):
        # Every vertex is labelled and each rank holds about ten rows, so
        # most dW sums have four nonzero contributions whose order shows in
        # the bits. The large step carries those bits into the weights, and
        # three instances make it unlikely that all of them hide it.
        n = 40
        for seed in (16, 17, 18):
            raw, a_hat, h0, _, _ = build_instance(n, (3, 4, 2), seed, directed=directed)
            model = init_model((3, 4, 2), seed=seed, learning_rate=4.0)
            labels = random_labels(n, 2, n, seed)
            pi = partition_for(a_hat, 4, seed)
            mode = FullBatch()
            if mini:
                mode = MiniBatch(
                    spec=MiniBatchSpec(24),
                    batches_per_epoch=2,
                    seed=3,
                    adjacency=raw,
                )
            runs = []
            for sched in ("round", scheduler):
                net = SimNetwork(4)
                states = scatter(a_hat, h0, pi, model)
                metrics = train_epochs(states, net, labels, 2, mode, scheduler=sched)
                runs.append((metrics, states, net))
            (m1, st1, net1), (m2, st2, net2) = runs
            assert [m.loss for m in m1] == [m.loss for m in m2]
            for a, b in zip(st1, st2):
                for wa, wb in zip(a.weights, b.weights):
                    assert np.array_equal(wa, wb)
            assert len(net1.log) > 0
            assert sorted_records(net1) == sorted_records(net2)

    @pytest.mark.parametrize("scheduler", ["round", "threads"])
    def test_dropped_message_raises(self, scheduler, monkeypatch):
        monkeypatch.setattr(runtime, "WAIT_S", 0.05)
        _, a_hat, h0, labels, model = build_instance(18, (3, 4, 2), 22)
        pi = partition_for(a_hat, 4, 22)
        net = SimNetwork(4)
        states = scatter(a_hat, h0, pi, model)
        send, lock, dropped = net.send, threading.Lock(), []

        def lossy_send(src, dst, payload, tag):
            with lock:
                drop = tag[2] == "bwd" and not dropped
                if drop:
                    dropped.append(tag)
            if not drop:
                send(src, dst, payload, tag)

        monkeypatch.setattr(net, "send", lossy_send)
        with pytest.raises(CommError):
            train_epochs(states, net, labels, 1, scheduler=scheduler)
        assert len(dropped) == 1

    def test_missing_message_raises_comm_error(self):
        net = SimNetwork(2)
        with pytest.raises(CommError):
            net.recv(0, 1, (0, 0, "fwd", 1), (1, 2))

    def test_hung_rank_raises_instead_of_returning(self, monkeypatch):
        monkeypatch.setattr(runtime, "WAIT_S", 0.05)
        finished = []
        net = SimNetwork(2)

        def program(rank):
            if rank == 1:
                time.sleep(0.5)  # past the 2 * WAIT_S join budget
            finished.append(rank)
            yield from ()

        with pytest.raises(CommError, match=r"ranks \[1\] still running"):
            runtime._drive_threads([program(0), program(1)], net)
        assert finished == [0]
        assert not net.blocking

    def test_unknown_scheduler_rejected(self):
        _, a_hat, h0, labels, model = build_instance(8, (3, 2), 17)
        net = SimNetwork(2)
        states = scatter(a_hat, h0, partition_for(a_hat, 2, 17), model)
        with pytest.raises(ValueError, match="unknown scheduler"):
            train_epochs(states, net, labels, 1, scheduler="eager")
        with pytest.raises(ValueError, match="unknown scheduler"):
            parallel_feedforward(states, net, scheduler="eager")
        assert net.log == []
        for w0, w in zip(model.weights, states[0].weights):
            assert np.array_equal(w0, w)


class TestMiniBatch:
    @settings(deadline=None, max_examples=150)
    @given(mini_batch_instances())
    def test_step_matches_reference_batch(self, instance):
        raw, owner, p, directed, labels, batches = instance
        n = raw.n_rows
        a_hat = normalize_adjacency(raw)
        h0 = np.random.default_rng(n).standard_normal((n, 2))
        states = scatter(a_hat, h0, owner, init_model((2, 3), seed=0), p=p)
        mode = MiniBatch(spec=MiniBatchSpec(batches.shape[1]), batches_per_epoch=len(batches),
                         seed=0, adjacency=raw)
        index = runtime._mini_batch_index(states, labels, raw)
        steps = list(runtime._epoch_steps(index, states, labels, np.sort(batches, axis=1)))
        assert len(steps) == len(batches)
        for batch, (got, got_labels) in zip(batches, steps):
            want, want_labels = reference_batch(states, labels, mode, FixedDraw(batch), owner, h0)
            assert len(got) == len(want) == p
            assert (got[0].plan_bwd is got[0].plan_fwd) == bit_equal(a_hat, transpose_sparse(a_hat))
            for g, w, (local_rows, y, count) in zip(got, want, got_labels):
                assert g.rank == w.rank
                assert np.array_equal(g.global_rows, w.global_rows)
                assert np.array_equal(g.h0, w.h0)
                for phase in ("fwd", "bwd"):
                    op, want_op = getattr(g, f"a_{phase}"), getattr(w, f"a_{phase}")
                    assert op.shape == want_op.shape
                    assert np.array_equal(op.row_offsets, want_op.row_offsets)
                    assert np.array_equal(op.col_indices, want_op.col_indices)
                    assert np.array_equal(op.values.view(np.int64), want_op.values.view(np.int64))
                    assert "spmm_schedule" in vars(op)  # primed by the epoch pass
                    send, want_send = getattr(g, f"send_{phase}"), getattr(w, f"send_{phase}")
                    assert list(send) == list(want_send)
                    for dst, pos in want_send.items():
                        assert np.array_equal(send[dst], pos)
                    plan, want_plan = getattr(g, f"plan_{phase}"), getattr(w, f"plan_{phase}")
                    assert plan.p == want_plan.p
                    assert np.array_equal(plan.owner, want_plan.owner)
                    for ids, want_ids in zip(plan.send, want_plan.send):
                        assert [list(x) for x in ids] == [list(x) for x in want_ids]
                    for senders, want_senders in zip(plan.recv_from, want_plan.recv_from):
                        assert list(senders) == list(want_senders)
                mine = reference_local_labelset(want_labels, w.global_rows)
                assert list(local_rows) == list(mine.labeled_ids)
                assert list(y) == list(mine.labels)
                assert count == len(want_labels)

    @settings(deadline=None, max_examples=80)
    @given(mini_batch_instances(), st.data())
    def test_step_words_equal_induced_cuts(self, instance, data):
        # per (epoch, step, phase, layer): the connectivity-1 cut of the
        # step's induced column-net model (of its transpose backward) times
        # the width the layer sends; a batch smaller than p, or one that
        # skips a rank, leaves a part empty
        raw, owner, p, directed, labels, _ = instance
        n = raw.n_rows
        size = data.draw(st.integers(1, n))
        seed = data.draw(st.integers(0, 2**16))
        dims = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
        h0 = np.random.default_rng(n).standard_normal((n, dims[0]))
        model = init_model(dims, seed=0)
        states = scatter(normalize_adjacency(raw), h0, owner, model, p=p)
        labels = LabelSet(labels.labeled_ids, labels.labels % dims[-1], dims[-1])
        net = SimNetwork(p)
        mode = MiniBatch(spec=MiniBatchSpec(size), batches_per_epoch=2, seed=seed, adjacency=raw)
        train_epochs(states, net, labels, 2, mode)
        rng = np.random.default_rng([seed, 0x7B])
        for epoch in range(2):
            for step in range(2):
                batch = np.sort(rng.choice(n, size=size, replace=False))
                sub = induced_pattern(raw, batch)
                cuts = {
                    "fwd": owner_cut(build_hypergraph_model(sub), owner[batch]),
                    "bwd": owner_cut(build_hypergraph_model(transpose_sparse(sub)), owner[batch]),
                }
                recs = net.records(epoch=epoch, step=step)
                for k in range(1, len(dims)):
                    for phase, width in (("fwd", dims[k - 1]), ("bwd", dims[k])):
                        words = sum(r.words for r in recs if r.phase == phase and r.layer == k)
                        assert words == cuts[phase] * width, (epoch, step, phase, k)

    def test_epochs_draw_their_batches_from_one_generator(self, monkeypatch):
        # one rng.choice per step, in order, from default_rng([seed, 0x7B])
        # across epochs; an epoch of no batches draws nothing
        raw, a_hat, h0, labels, model = build_instance(24, (3, 4, 2), 21)
        drawn, epoch_steps = [], runtime._epoch_steps

        def recording(index, states, labels, batches):
            drawn.append(batches.copy())
            return epoch_steps(index, states, labels, batches)

        monkeypatch.setattr(runtime, "_epoch_steps", recording)
        states = scatter(a_hat, h0, partition_for(a_hat, 4, 21), model)
        mode = MiniBatch(spec=MiniBatchSpec(9), batches_per_epoch=3, seed=31, adjacency=raw)
        train_epochs(states, SimNetwork(4), labels, 2, mode)
        rng = np.random.default_rng([31, 0x7B])
        want = [[np.sort(rng.choice(24, size=9, replace=False)) for _ in range(3)] for _ in range(2)]
        assert len(drawn) == 2
        for got, batches in zip(drawn, want):
            assert got.dtype == np.int64 and np.array_equal(got, np.array(batches))
        none = dataclasses.replace(mode, batches_per_epoch=0)
        (m,) = train_epochs(states, SimNetwork(4), labels, 1, none)
        assert drawn[-1].shape == (0, 9) and (m.total_words, m.total_msgs, m.loss) == (0, 0, 0.0)

    def test_full_vertex_batch_equals_full_batch(self):
        raw, a_hat, h0, labels, model = build_instance(16, (3, 4, 2), 18)
        pi = partition_for(a_hat, 4, 18)
        net_full = SimNetwork(4)
        st_full = scatter(a_hat, h0, pi, model)
        m_full = train_epochs(st_full, net_full, labels, 2)
        net_mini = SimNetwork(4)
        st_mini = scatter(a_hat, h0, pi, model)
        mode = MiniBatch(
            spec=MiniBatchSpec(16),
            batches_per_epoch=1,
            seed=99,
            adjacency=raw,
        )
        m_mini = train_epochs(st_mini, net_mini, labels, 2, mode)
        assert [m.loss for m in m_full] == [m.loss for m in m_mini]
        assert [m.total_words for m in m_full] == [m.total_words for m in m_mini]
        for a, b in zip(st_full, st_mini):
            for wa, wb in zip(a.weights, b.weights):
                assert np.array_equal(wa, wb)

    def test_per_batch_words_equal_batch_cut(self):
        dims = (4, 4, 4)
        raw, a_hat, h0, labels, model = build_instance(24, dims, 19)
        pi = partition_for(a_hat, 4, 19)
        net = SimNetwork(4)
        states = scatter(a_hat, h0, pi, model)
        mode = MiniBatch(
            spec=MiniBatchSpec(10),
            batches_per_epoch=3,
            seed=5,
            adjacency=raw,
        )
        train_epochs(states, net, labels, 2, mode)
        rng = np.random.default_rng([5, 0x7B])
        factor = sum(dims[:-1]) + sum(dims[1:])
        for epoch in range(2):
            for step in range(3):
                batch = np.sort(rng.choice(24, size=10, replace=False))
                sub = induced_pattern(raw, batch)
                cut = owner_cut(build_hypergraph_model(sub), pi.assignment[batch])
                words = sum(r.words for r in net.records(epoch=epoch, step=step))
                assert words == cut * factor

    @pytest.mark.parametrize("seed", range(6))
    def test_directed_per_step_words_equal_phase_cuts(self, seed):
        # forward traffic follows the column nets of the batch's A, backward
        # traffic those of its transpose; on a directed batch the two cuts
        # differ, so a step that scattered the batch as undirected fails
        dims = (3, 4, 2)
        raw, a_hat, h0, labels, model = build_instance(30, dims, seed, directed=True, density=0.15)
        pi = partition_for(a_hat, 4, seed)
        net = SimNetwork(4)
        states = scatter(a_hat, h0, pi, model)
        mode = MiniBatch(spec=MiniBatchSpec(20), batches_per_epoch=3, seed=seed, adjacency=raw)
        train_epochs(states, net, labels, 2, mode)
        rng = np.random.default_rng([seed, 0x7B])
        differing = 0
        for epoch in range(2):
            for step in range(3):
                batch = np.sort(rng.choice(30, size=20, replace=False))
                sub = induced_pattern(raw, batch)
                own = pi.assignment[batch]
                fwd_cut = owner_cut(build_hypergraph_model(sub), own)
                bwd_cut = owner_cut(build_hypergraph_model(transpose_sparse(sub)), own)
                recs = net.records(epoch=epoch, step=step)
                assert sum(r.words for r in recs if r.phase == "fwd") == fwd_cut * sum(dims[:-1])
                assert sum(r.words for r in recs if r.phase == "bwd") == bwd_cut * sum(dims[1:])
                differing += fwd_cut != bwd_cut
        assert differing > 0

    def test_batch_without_labels_keeps_weights(self):
        raw, a_hat, h0, _, model = build_instance(16, (3, 2), 20)
        labels = LabelSet([0], [1], 2)  # single labeled vertex
        pi = partition_for(a_hat, 2, 20)
        net = SimNetwork(2)
        states = scatter(a_hat, h0, pi, model)
        mode = MiniBatch(
            spec=MiniBatchSpec(4),
            batches_per_epoch=4,
            seed=23,
            adjacency=raw,
        )
        metrics = train_epochs(states, net, labels, 1, mode)
        assert len(metrics) == 1  # runs fine; label-free batches contribute 0

    @pytest.mark.parametrize("scheduler", runtime.SCHEDULERS)
    def test_states_not_scattered_from_renormalized_adjacency_raise(self, scheduler):
        # each step renormalizes its batch of MiniBatch.adjacency as
        # normalize_adjacency does, so states scattered from another
        # operand (the row mean M = D^-1 (A+I), or another graph's
        # normalization) would train a different model than their own
        raw, a_hat, h0, labels, model = build_instance(16, (3, 4, 2), 18)
        pi = partition_for(a_hat, 4, 18)
        tilde = add_identity(raw)
        deg = np.add.reduceat(tilde.values, tilde.row_offsets[:-1])
        row_mean = CsrMatrix(16, 16, tilde.row_offsets, tilde.col_indices,
                             tilde.values / np.repeat(deg, tilde.row_nnz()))
        other = build_instance(16, (3, 4, 2), 19)[0]
        larger = build_instance(17, (3, 4, 2), 18)[0]
        wrong = "not MiniBatch.adjacency normalized"
        cases = [(row_mean, raw, wrong), (a_hat, other, wrong), (a_hat, larger, "hold 16 rows, the adjacency 17")]
        for operand, adjacency, message in cases:
            states = scatter(operand, h0, pi, model)
            mode = MiniBatch(spec=MiniBatchSpec(8), batches_per_epoch=2, seed=3, adjacency=adjacency)
            with pytest.raises(ValueError, match=message):
                train_epochs(states, SimNetwork(4), labels, 1, mode, scheduler=scheduler)
