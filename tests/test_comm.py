"""Communication plan construction and the cut-equals-volume identity."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcnpart import (
    CsrMatrix,
    Partition,
    build_comm_plan,
    build_hypergraph_model,
    evaluate_hypergraph_cut,
    normalize_adjacency,
    plan_volume,
    transpose_sparse,
)

from helpers import (
    figure_instance_overcount,
    random_directed,
    random_undirected,
    three_processor_transfer_instance,
)


def partition_of(assignment, a, p, eps=1e9):
    return Partition.from_assignment(assignment, a.row_nnz(), p, eps)


def reference_plan(a, owner, p):
    """The plan built one consumer rank at a time with np.unique: the
    reference for build_comm_plan's single sort over all ranks."""
    send = [[np.zeros(0, dtype=np.int64) for _ in range(p)] for _ in range(p)]
    rows = np.repeat(np.arange(a.n_rows, dtype=np.int64), a.row_nnz())
    row_owner = owner[rows]
    col_owner = owner[a.col_indices]
    for m in range(p):
        mask = (row_owner == m) & (col_owner != m)
        needed = np.unique(a.col_indices[mask])
        senders = owner[needed]
        for n in np.unique(senders):
            send[int(n)][m] = needed[senders == n]
    recv_from = [
        np.array([n for n in range(p) if len(send[n][m])], dtype=np.int64) for m in range(p)
    ]
    return send, recv_from


@st.composite
def plan_instances(draw):
    """A square pattern, symmetric or directed, and a bare owner array over
    p ranks that may leave some of them empty."""
    n = draw(st.integers(1, 16))
    cells = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
    )
    rows, cols = [i for i, _ in cells], [j for _, j in cells]
    if draw(st.booleans()):
        rows, cols = rows + cols, cols + rows
    p = draw(st.integers(1, 5))
    owner = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    return CsrMatrix.from_coo(n, n, rows, cols), np.array(owner, dtype=np.int64), p


class TestBuildCommPlan:
    def test_single_rank_sends_nothing(self):
        a = normalize_adjacency(random_undirected(6, 0.5, 0))
        plan = build_comm_plan(a, partition_of(np.zeros(6, int), a, 1))
        assert all(len(lst) == 0 for row in plan.send for lst in row)
        assert all(len(r) == 0 for r in plan.recv_from)

    def test_three_processor_instance(self):
        a, assignment = three_processor_transfer_instance()
        plan = build_comm_plan(a, partition_of(assignment, a, 3))
        assert list(plan.send[0][2]) == [0, 1]
        assert list(plan.send[1][2]) == [3]  # row shipped exactly once
        assert list(plan.send[0][1]) == []
        assert list(plan.recv_from[2]) == [0, 1]

    def test_block_diagonal_no_messages(self):
        rows, cols = [], []
        for base in (0, 3):
            for i in range(3):
                for j in range(3):
                    rows.append(base + i)
                    cols.append(base + j)
        a = CsrMatrix.from_coo(6, 6, rows, cols)
        assignment = np.array([0, 0, 0, 1, 1, 1])
        plan = build_comm_plan(a, partition_of(assignment, a, 2))
        assert all(len(lst) == 0 for row in plan.send for lst in row)

    def test_invariants_on_random_instances(self):
        for seed in range(4):
            a = normalize_adjacency(random_undirected(20, 0.2, seed))
            rng = np.random.default_rng([seed, 3])
            assignment = rng.integers(0, 4, size=20)
            while len(np.unique(assignment)) < 4:
                assignment = rng.integers(0, 4, size=20)
            plan = build_comm_plan(a, partition_of(assignment, a, 4))
            rows = np.repeat(np.arange(20), a.row_nnz())
            for m in range(4):
                assert len(plan.send[m][m]) == 0
                for n in range(4):
                    lst = plan.send[m][n]
                    # sorted, unique, owned by sender
                    assert np.all(np.diff(lst) > 0) if len(lst) > 1 else True
                    assert np.all(assignment[lst] == m)
                    # exact set: cols(A_n) intersect rows(A_m)
                    if m != n:
                        cols_n = np.unique(a.col_indices[assignment[rows] == n])
                        want = np.array(
                            sorted(set(map(int, cols_n)) & set(np.flatnonzero(assignment == m))),
                            dtype=np.int64,
                        )
                        assert np.array_equal(lst, want)
                # mirror: n in recv_from[m] iff send[n][m] nonempty
                want_senders = [n for n in range(4) if len(plan.send[n][m])]
                assert list(plan.recv_from[m]) == want_senders

    def test_undirected_plan_transpose_invariant(self):
        a = normalize_adjacency(random_undirected(15, 0.25, 7))
        assignment = np.random.default_rng(1).integers(0, 3, size=15)
        while len(np.unique(assignment)) < 3:
            assignment = np.random.default_rng(2).integers(0, 3, size=15)
        pi = partition_of(assignment, a, 3)
        plan_a = build_comm_plan(a, pi)
        plan_t = build_comm_plan(transpose_sparse(a), pi)
        for m in range(3):
            for n in range(3):
                assert np.array_equal(plan_a.send[m][n], plan_t.send[m][n])

    @settings(deadline=None, max_examples=300)
    @given(plan_instances(), st.integers(1, 9))
    def test_matches_per_rank_reference(self, instance, d):
        a, owner, p = instance
        plan = build_comm_plan(a, owner, p)
        send, recv_from = reference_plan(a, owner, p)
        for m in range(p):
            for n in range(p):
                assert plan.send[m][n].dtype == np.int64
                assert np.array_equal(plan.send[m][n], send[m][n])
            assert plan.recv_from[m].dtype == np.int64
            assert np.array_equal(plan.recv_from[m], recv_from[m])
        sizes = [[len(send[m][n]) for n in range(p)] for m in range(p)]
        assert plan.sizes.tolist() == sizes
        assert plan.receives == tuple([(s, sizes[s][m]) for s in recv_from[m]] for m in range(p))
        rows = [sum(row) for row in sizes]
        msgs = [sum(1 for k in row if k) for row in sizes]
        want = {
            "p": p,
            "pair_row_counts": {f"{m}->{n}": sizes[m][n] for m in range(p) for n in range(p) if sizes[m][n]},
            "rows_sent_per_rank": rows,
            "messages_per_rank": msgs,
            "total_rows_sent": sum(rows),
            "total_messages": sum(msgs),
        }
        assert json.dumps(plan.to_report(), sort_keys=True) == json.dumps(want, sort_keys=True)
        vol = plan_volume(plan, d)
        assert vol.words_per_proc.dtype == vol.msgs_per_proc.dtype == np.int64
        assert vol.words_per_proc.tolist() == [d * k for k in rows]
        assert vol.msgs_per_proc.tolist() == msgs
        assert (vol.total_words, vol.total_msgs) == (d * sum(rows), sum(msgs))

    def test_owner_length_mismatch_rejected(self):
        a = normalize_adjacency(random_undirected(6, 0.5, 0))
        with pytest.raises(ValueError):
            build_comm_plan(a, np.zeros(5, dtype=np.int64), p=2)

    def test_bare_owner_requires_p(self):
        a = normalize_adjacency(random_undirected(6, 0.5, 0))
        with pytest.raises(ValueError):
            build_comm_plan(a, np.zeros(6, dtype=np.int64))


class TestPlanVolume:
    def test_empty_plan_zeros(self):
        a = CsrMatrix.identity(4)
        plan = build_comm_plan(a, partition_of(np.array([0, 0, 1, 1]), a, 2))
        vol = plan_volume(plan, 8)
        assert vol.total_words == 0 and vol.total_msgs == 0

    def test_three_processor_words_and_messages(self):
        a, assignment = three_processor_transfer_instance()
        plan = build_comm_plan(a, partition_of(assignment, a, 3))
        d = 7
        vol = plan_volume(plan, d)
        assert vol.words_per_proc[0] == 2 * d  # rows 0 and 1 to rank 2
        assert vol.words_per_proc[1] == d  # row 3, once
        assert vol.msgs_per_proc[0] == 1
        assert vol.msgs_per_proc[1] == 1
        assert vol.total_msgs == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_cut_equals_volume(self, seed):
        # plan volume at d=1 is exactly the connectivity-1 cut, including
        # for directed patterns (the forward plan mirrors the column nets)
        directed = seed % 2 == 1
        raw = (
            random_directed(18, 0.15, seed) if directed else random_undirected(18, 0.2, seed)
        )
        a = normalize_adjacency(raw)
        h = build_hypergraph_model(a)
        rng = np.random.default_rng([seed, 13])
        assignment = rng.integers(0, 4, size=18)
        while len(np.unique(assignment)) < 4:
            assignment = rng.integers(0, 4, size=18)
        pi = partition_of(assignment, a, 4)
        plan = build_comm_plan(a, pi)
        cut = evaluate_hypergraph_cut(h, pi).cut_value
        assert plan_volume(plan, 1).total_words == cut

    def test_report_is_json_ready(self):
        import json

        a, assignment = three_processor_transfer_instance()
        plan = build_comm_plan(a, partition_of(assignment, a, 3))
        doc = plan.to_report()
        json.dumps(doc)
        assert doc["pair_row_counts"]["0->2"] == 2
        assert doc["total_messages"] == 2
