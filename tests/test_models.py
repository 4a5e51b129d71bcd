"""Graph/hypergraph model construction, cut metrics, the stochastic merged
hypergraph, and the net-count bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcnpart import (
    CsrMatrix,
    Hypergraph,
    MiniBatchSpec,
    Partition,
    UGraph,
    build_graph_model,
    build_hypergraph_model,
    build_stochastic_hypergraph,
    evaluate_graph_cut,
    evaluate_hypergraph_cut,
    hoeffding_min_nets,
    normalize_adjacency,
    predicted_total_volume,
    sample_batches,
)
from gcnpart.models import induced_pattern, net_connectivity

from helpers import (
    brute_force_hypergraph_cut,
    brute_force_lambda,
    figure_instance_overcount,
    hypergraph_from_nets,
    random_directed,
    random_undirected,
)


def make_partition(assignment, weights, p, eps=1e9):
    return Partition.from_assignment(np.asarray(assignment), weights, p, eps)


class TestPartitionBalance:
    @staticmethod
    def exact_cap_vectors():
        """Part weights with one part exactly on the 1% cap, for every
        total in [100, 20000) and p in {2, 4, 8, 16} that allows it."""
        for p in (2, 4, 8, 16):
            for total in range(100, 20000):
                top, rem = divmod(101 * total, 100 * p)
                if rem:
                    continue
                rest = total - top
                base, extra = divmod(rest, p - 1)
                yield p, [top] + [base + 1] * extra + [base] * (p - 1 - extra)

    def test_ratio_agrees_with_is_balanced_at_the_cap(self):
        vectors = list(self.exact_cap_vectors())
        assert len(vectors) == 184
        for p, weights in vectors:
            for bump in (0, 1):  # on the cap, then one unit above it
                pw = [weights[0] + bump, weights[1] - bump] + weights[2:]
                pi = Partition(p, np.arange(p), np.array(pw), 0.01)
                assert pi.is_balanced() == (pi.balance_ratio() <= 0.01), pw
                assert pi.is_balanced() == (bump == 0), pw

    def test_ratio_is_exact_excess_over_average(self):
        pi = Partition(4, np.arange(4), np.array([101, 100, 100, 99]), 0.01)
        assert pi.balance_ratio() == 0.01
        pi = Partition(2, np.arange(2), np.array([3, 1]), 0.01)
        assert pi.balance_ratio() == 0.5


class TestGraphModel:
    def test_diagonal_only_matrix(self):
        g = build_graph_model(CsrMatrix.identity(4))
        assert g.n_edges == 0
        assert np.array_equal(g.vertex_weight, np.ones(4, dtype=np.int64))

    def test_one_way_edge_still_undirected(self):
        a = CsrMatrix.from_coo(2, 2, [0, 0, 1], [0, 1, 1])  # only 0 -> 1
        g = build_graph_model(a)
        assert g.n_edges == 1
        assert tuple(g.edges[0]) == (0, 1)

    def test_figure_vertex_weight(self):
        a_hat, _ = figure_instance_overcount()
        g = build_graph_model(a_hat)
        assert g.vertex_weight[0] == 3

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            build_graph_model(CsrMatrix.from_coo(2, 3, [0], [2]))

    def test_ugraph_rejects_bad_edges(self):
        ones = np.ones(3, dtype=np.int64)
        with pytest.raises(ValueError, match="u < v"):
            UGraph(3, np.array([[1, 0]]), np.ones(1), ones)
        with pytest.raises(ValueError, match="u < v"):
            UGraph(3, np.array([[1, 1]]), np.ones(1), ones)
        with pytest.raises(ValueError, match="out of range"):
            UGraph(3, np.array([[0, 3]]), np.ones(1), ones)
        with pytest.raises(ValueError, match="out of range"):
            UGraph(3, np.array([[-1, 2]]), np.ones(1), ones)
        with pytest.raises(ValueError, match="duplicate"):
            UGraph(3, np.array([[0, 2], [1, 2], [0, 2]]), np.ones(3), ones)
        assert UGraph(3, np.array([[0, 1], [0, 2], [1, 2]]), np.ones(3), ones).n_edges == 3


class TestHypergraphModel:
    def test_identity_gives_singleton_nets(self):
        h = build_hypergraph_model(CsrMatrix.identity(5))
        assert h.n_nets == 5
        assert all(len(p) == 1 and p[0] == j for j, p in enumerate(h.nets))

    def test_figure_column_net_pins(self):
        a_hat, _ = figure_instance_overcount()
        h = build_hypergraph_model(a_hat)
        assert list(h.nets[1]) == [0, 1, 3, 5]

    def test_figure_net_connectivity_three(self):
        a_hat, assignment = figure_instance_overcount()
        h = build_hypergraph_model(a_hat)
        pi = make_partition(assignment, h.vertex_weight, 3)
        lam = net_connectivity(h, pi)
        assert lam[1] == 3

    def test_missing_diagonal_rejected(self):
        a = CsrMatrix.from_coo(2, 2, [0, 1], [1, 0])
        with pytest.raises(ValueError):
            build_hypergraph_model(a)


def reference_net_error(n_vertices, nets):
    """The net-by-net check the vectorized one replaced, kept as an oracle:
    the error for the first bad net, or None."""
    for j, net in enumerate(nets):
        pins = np.asarray(net, dtype=np.int64)
        if len(pins) == 0:
            return f"net {j} has no pins"
        if np.any(np.diff(pins) <= 0):
            return f"net {j} pins must be sorted and distinct"
        if pins[0] < 0 or pins[-1] >= n_vertices:
            return f"net {j} pin out of range"
    return None


def unit_hypergraph(n, nets):
    return hypergraph_from_nets(n, nets, np.ones(len(nets)), np.ones(n, dtype=np.int64))


class TestHypergraphType:
    def test_csr_fields_and_per_net_views(self):
        h = Hypergraph(4, [0, 2, 5, 6], [0, 3, 0, 1, 2, 3], [1.0, 2.0, 3.0], [1, 2, 3, 4])
        assert h.n_nets == 3
        assert [list(pins) for pins in h.nets] == [[0, 3], [0, 1, 2], [3]]
        assert list(h.net_of_pin()) == [0, 0, 1, 1, 1, 2]
        assert h.offsets.dtype == h.pins.dtype == h.vertex_weight.dtype == np.int64
        assert h.net_cost.dtype == np.float64
        for arr in (h.offsets, h.pins, h.net_cost, h.vertex_weight, *h.nets):
            assert not arr.flags.writeable

    def test_pin_lists_convert_to_csr(self):
        nets = (np.array([0, 3]), np.array([0, 1, 2]))
        h = hypergraph_from_nets(4, nets, np.ones(2), np.ones(4, dtype=np.int64))
        assert list(h.offsets) == [0, 2, 5] and list(h.pins) == [0, 3, 0, 1, 2]

    def test_no_nets(self):
        h = unit_hypergraph(3, ())
        assert h.n_nets == 0 and h.nets == () and list(h.offsets) == [0]

    @pytest.mark.parametrize(
        "nets, message",
        [
            (([0, 1], []), "net 1 has no pins"),
            (([0, 1], [2, 1]), "net 1 pins must be sorted and distinct"),
            (([0, 1], [1, 1]), "net 1 pins must be sorted and distinct"),
            (([0, 1], [1, 3]), "net 1 pin out of range"),
            (([0, 1], [-1, 2]), "net 1 pin out of range"),
        ],
    )
    def test_rejects_bad_net(self, nets, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            unit_hypergraph(3, nets)

    def test_error_names_the_first_bad_net(self):
        # net 1 is out of range, net 2 empty, net 3 unsorted: net 1 is named
        with pytest.raises(ValueError, match="^net 1 pin out of range$"):
            unit_hypergraph(3, ([0], [1, 5], [], [2, 0]))
        # a net failing two checks names the first of them, as the
        # net-by-net check did
        with pytest.raises(ValueError, match="^net 0 pins must be sorted and distinct$"):
            unit_hypergraph(3, ([7, 1], [9]))

    def test_rejects_bad_offsets(self):
        with pytest.raises(ValueError, match="start at 0"):
            Hypergraph(3, [1, 2], [0, 1], [1.0], [1, 1, 1])
        with pytest.raises(ValueError, match="end at len"):
            Hypergraph(3, [0, 1], [0, 1], [1.0], [1, 1, 1])
        with pytest.raises(ValueError, match="never decrease"):
            Hypergraph(3, [0, 2, 1, 2], [0, 1], [1.0, 1.0, 1.0], [1, 1, 1])

    def test_rejects_wrong_lengths(self):
        with pytest.raises(ValueError, match="wrong length"):
            hypergraph_from_nets(3, ([0, 1],), np.ones(2), np.ones(3, dtype=np.int64))
        with pytest.raises(ValueError, match="wrong length"):
            hypergraph_from_nets(3, ([0, 1],), np.ones(1), np.ones(2, dtype=np.int64))

    @settings(deadline=None, max_examples=300)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.lists(st.integers(-1, n), max_size=4), max_size=6),
            )
        )
    )
    def test_errors_match_the_net_by_net_check(self, instance):
        n, nets = instance
        want = reference_net_error(n, nets)
        if want is None:
            h = unit_hypergraph(n, nets)
            assert [list(pins) for pins in h.nets] == nets
        else:
            with pytest.raises(ValueError) as err:
                unit_hypergraph(n, nets)
            assert str(err.value) == want


def reference_column_nets(a):
    """The per-column build that the transpose replaced, kept as an oracle:
    entries sorted by column, cut at each column, rows sorted per net."""
    rows = np.repeat(np.arange(a.n_rows, dtype=np.int64), a.row_nnz())
    order = np.argsort(a.col_indices, kind="stable")
    bounds = np.searchsorted(a.col_indices[order], np.arange(a.n_cols + 1))
    return [np.sort(rows[order][bounds[j] : bounds[j + 1]]) for j in range(a.n_cols)]


def reference_graph_edges(a):
    """The np.unique(axis=0) edge build that 1-D keys replaced."""
    rows = np.repeat(np.arange(a.n_rows, dtype=np.int64), a.row_nnz())
    off = rows != a.col_indices
    u = np.minimum(rows[off], a.col_indices[off])
    v = np.maximum(rows[off], a.col_indices[off])
    if not len(u):
        return np.zeros((0, 2), dtype=np.int64)
    return np.unique(np.stack([u, v], axis=1), axis=0)


@st.composite
def square_patterns(draw, full_diagonal=True):
    """Random n x n pattern; with full_diagonal, every diagonal entry is
    set and many columns hold nothing else."""
    n = draw(st.integers(1, 16))
    cells = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
    )
    rows = [i for i, _ in cells] + (list(range(n)) if full_diagonal else [])
    cols = [j for _, j in cells] + (list(range(n)) if full_diagonal else [])
    return CsrMatrix.from_coo(n, n, rows, cols)


def assert_same_nets(h, nets):
    assert h.n_nets == len(nets)
    assert all(np.array_equal(a, b) for a, b in zip(h.nets, nets))
    assert np.array_equal(h.net_cost, np.ones(len(nets)))


class TestBuildsMatchReference:
    @settings(deadline=None, max_examples=200)
    @given(square_patterns())
    def test_column_net_model_matches_per_column_build(self, a):
        h = build_hypergraph_model(a)
        assert h.n_vertices == a.n_rows
        assert_same_nets(h, reference_column_nets(a))
        assert np.array_equal(h.vertex_weight, a.row_nnz())

    @settings(deadline=None, max_examples=100)
    @given(square_patterns(), st.integers(1, 16), st.integers(1, 4), st.integers(0, 99))
    def test_stochastic_model_matches_per_batch_concatenation(self, a, size, b, seed):
        spec = MiniBatchSpec(min(size, a.n_rows))
        merged = build_stochastic_hypergraph(a, spec, b, seed)
        nets = []
        for batch in sample_batches(a.n_rows, spec, b, seed):
            nets.extend(batch[pins] for pins in reference_column_nets(induced_pattern(a, batch)))
        assert merged.n_vertices == a.n_rows
        assert_same_nets(merged, nets)
        assert np.array_equal(merged.vertex_weight, a.row_nnz())

    @settings(deadline=None, max_examples=200)
    @given(square_patterns(full_diagonal=False))
    def test_graph_model_matches_unique_rows_build(self, a):
        g = build_graph_model(a)
        assert np.array_equal(g.edges, reference_graph_edges(a))
        assert np.array_equal(g.edge_cost, np.ones(g.n_edges))
        assert np.array_equal(g.vertex_weight, a.row_nnz())


class TestGraphCut:
    def test_single_part_no_cut(self):
        a_hat, _ = figure_instance_overcount()
        g = build_graph_model(a_hat)
        rep = evaluate_graph_cut(g, make_partition(np.zeros(6, int), g.vertex_weight, 1))
        assert rep.cut_value == 0

    def test_single_split_edge(self):
        a = normalize_adjacency(CsrMatrix.from_coo(2, 2, [0, 1], [1, 0]))
        g = build_graph_model(a)
        rep = evaluate_graph_cut(g, make_partition([0, 1], g.vertex_weight, 2))
        assert rep.cut_value == 1

    def test_figure_overcounts_vertex_sends(self):
        # the model's cut edges at the hub vertex imply 3 sends; truth is 2
        a_hat, assignment = figure_instance_overcount()
        g = build_graph_model(a_hat)
        hub = 3
        incident_cut = sum(
            1
            for (u, v) in g.edges
            if hub in (u, v) and assignment[u] != assignment[v]
        )
        assert incident_cut == 3

    def test_unassigned_vertex_rejected(self):
        a_hat, _ = figure_instance_overcount()
        g = build_graph_model(a_hat)
        short = make_partition([0, 1, 0, 1], np.ones(4, int), 2)
        with pytest.raises(ValueError):
            evaluate_graph_cut(g, short)


class TestHypergraphCut:
    def test_single_part_all_lambda_one(self):
        a_hat, _ = figure_instance_overcount()
        h = build_hypergraph_model(a_hat)
        rep = evaluate_hypergraph_cut(h, make_partition(np.zeros(6, int), h.vertex_weight, 1))
        assert rep.cut_value == 0
        assert np.array_equal(rep.per_net_lambda, np.ones(6, dtype=np.int64))

    def test_net_spanning_three_parts(self):
        h = hypergraph_from_nets(3, (np.array([0, 1, 2]),), np.ones(1), np.ones(3, dtype=np.int64))
        rep = evaluate_hypergraph_cut(h, make_partition([0, 1, 2], h.vertex_weight, 3))
        assert rep.cut_value == 2

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force_distinct_part_count(self, seed):
        rng = np.random.default_rng([seed, 77])
        nets = tuple(
            np.sort(rng.choice(12, size=rng.integers(2, 6), replace=False))
            for _ in range(10)
        )
        h = hypergraph_from_nets(12, nets, np.ones(10), np.ones(12, dtype=np.int64))
        assignment = rng.integers(0, 4, size=12)
        while len(np.unique(assignment)) < 4:
            assignment = rng.integers(0, 4, size=12)
        pi = make_partition(assignment, h.vertex_weight, 4)
        rep = evaluate_hypergraph_cut(h, pi)
        assert rep.cut_value == brute_force_hypergraph_cut(nets, assignment)
        for j, pins in enumerate(nets):
            assert rep.per_net_lambda[j] == brute_force_lambda(pins, assignment)

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_connectivity_matches_per_net_reference(self, data):
        p = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(p, 14))
        # every part non-empty, the rest drawn freely
        assignment = np.array(
            list(range(p)) + data.draw(st.lists(st.integers(0, p - 1), min_size=n - p, max_size=n - p))
        )
        assignment = assignment[np.array(data.draw(st.permutations(range(n))))]
        nets = [
            np.array(sorted(pins))
            for pins in data.draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=12))
        ]
        # a net whose pins all sit in one part
        nets.append(np.flatnonzero(assignment == data.draw(st.integers(0, p - 1))))
        h = hypergraph_from_nets(n, tuple(nets), np.ones(len(nets)), np.ones(n, dtype=np.int64))
        lam = net_connectivity(h, make_partition(assignment, h.vertex_weight, p))
        assert lam.dtype == np.int64
        want = [len(np.unique(assignment[pins])) for pins in nets]
        assert lam.tolist() == want
        assert lam[-1] == 1


class TestPredictedVolume:
    def test_single_part_zero(self):
        a_hat, _ = figure_instance_overcount()
        h = build_hypergraph_model(a_hat)
        pi = make_partition(np.zeros(6, int), h.vertex_weight, 1)
        assert predicted_total_volume(h, pi, (4, 2)) == 0

    def test_one_cut_net_single_layer(self):
        h = hypergraph_from_nets(2, (np.array([0, 1]),), np.ones(1), np.ones(2, dtype=np.int64))
        pi = make_partition([0, 1], h.vertex_weight, 2)
        assert predicted_total_volume(h, pi, (4, 2)) == 6

    def test_figure_hub_volume_two_not_three(self):
        # feedforward direction, d-wide rows: hypergraph says 2d, graph 3d
        a_hat, assignment = figure_instance_overcount()
        h = build_hypergraph_model(a_hat)
        pi = make_partition(assignment, h.vertex_weight, 3)
        lam = net_connectivity(h, pi)
        d = 5
        assert (lam[3] - 1) * d == 2 * d
        g = build_graph_model(a_hat)
        incident_cut = sum(
            1 for (u, v) in g.edges if 3 in (u, v) and assignment[u] != assignment[v]
        )
        assert incident_cut * d == 3 * d

    def test_empty_dims_rejected(self):
        h = build_hypergraph_model(CsrMatrix.identity(2))
        pi = make_partition([0, 1], h.vertex_weight, 2)
        with pytest.raises(ValueError):
            predicted_total_volume(h, pi, (3,))


class TestStochasticHypergraph:
    def test_full_batch_sample_equals_full_model(self):
        a_hat = normalize_adjacency(random_undirected(12, 0.3, 1))
        full = build_hypergraph_model(a_hat)
        merged = build_stochastic_hypergraph(a_hat, MiniBatchSpec(12), b=1, seed=4)
        assert merged.n_nets == full.n_nets
        got = sorted(tuple(p) for p in merged.nets)
        want = sorted(tuple(p) for p in full.nets)
        assert got == want
        assert np.array_equal(merged.vertex_weight, full.vertex_weight)

    def test_identical_samples_duplicate_every_net(self):
        a_hat = normalize_adjacency(random_undirected(10, 0.3, 2))
        merged = build_stochastic_hypergraph(a_hat, MiniBatchSpec(10), b=2, seed=4)
        nets = sorted(tuple(p) for p in merged.nets)
        assert len(nets) == 2 * a_hat.n_rows
        for k in range(0, len(nets), 2):
            assert nets[k] == nets[k + 1]

    def test_net_count_is_total_sampled_vertices(self):
        a_hat = normalize_adjacency(random_undirected(32, 0.15, 3))
        spec = MiniBatchSpec(9)
        merged = build_stochastic_hypergraph(a_hat, spec, b=10, seed=5)
        assert merged.n_nets == 10 * 9

    def test_batches_are_deterministic(self):
        b1 = sample_batches(20, MiniBatchSpec(6), 4, seed=9)
        b2 = sample_batches(20, MiniBatchSpec(6), 4, seed=9)
        for x, y in zip(b1, b2):
            assert np.array_equal(x, y)

    def test_oversized_batch_rejected(self):
        with pytest.raises(ValueError):
            sample_batches(4, MiniBatchSpec(5), 1, seed=0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            MiniBatchSpec(0)

    def test_merged_cut_is_sum_of_batch_cuts(self):
        a_hat = normalize_adjacency(random_undirected(24, 0.2, 6))
        spec = MiniBatchSpec(8)
        seed, b = 13, 6
        merged = build_stochastic_hypergraph(a_hat, spec, b=b, seed=seed)
        rng = np.random.default_rng([41])
        assignment = rng.integers(0, 4, size=24)
        while len(np.unique(assignment)) < 4:
            assignment = rng.integers(0, 4, size=24)
        pi = make_partition(assignment, merged.vertex_weight, 4)
        merged_cut = evaluate_hypergraph_cut(merged, pi).cut_value
        total = 0
        for batch in sample_batches(24, spec, b, seed):
            sub = induced_pattern(a_hat, batch)
            hb = build_hypergraph_model(sub)
            own = assignment[batch]
            total += brute_force_hypergraph_cut([batch[p] for p in hb.nets], assignment)
            assert brute_force_hypergraph_cut(hb.nets, own) == brute_force_hypergraph_cut(
                [batch[p] for p in hb.nets], assignment
            )
        assert merged_cut == total


class TestModelComparisonInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_hypergraph_never_exceeds_graph_model_volume(self, seed):
        # per direction: sum(lambda-1) <= both-direction graph cut count
        a = random_directed(14, 0.15, seed) if seed % 2 else random_undirected(14, 0.2, seed)
        a_hat = normalize_adjacency(a)
        h = build_hypergraph_model(a_hat)
        g = build_graph_model(a_hat)
        rng = np.random.default_rng([seed, 99])
        assignment = rng.integers(0, 3, size=14)
        while len(np.unique(assignment)) < 3:
            assignment = rng.integers(0, 3, size=14)
        pi = make_partition(assignment, h.vertex_weight, 3)
        hyper = evaluate_hypergraph_cut(h, pi).cut_value
        graph_both_directions = 2 * evaluate_graph_cut(g, pi).cut_value
        assert hyper <= graph_both_directions

    def test_one_way_edge_is_strict_witness(self):
        a = CsrMatrix.from_coo(2, 2, [0, 0, 1], [0, 1, 1])  # 0 -> 1 only
        h = build_hypergraph_model(a)
        g = build_graph_model(a)
        pi = make_partition([0, 1], h.vertex_weight, 2)
        assert evaluate_hypergraph_cut(h, pi).cut_value == 1
        assert 2 * evaluate_graph_cut(g, pi).cut_value == 2

    def test_two_same_part_consumers_is_strict_witness(self):
        a_hat, assignment = figure_instance_overcount()
        h = build_hypergraph_model(a_hat)
        g = build_graph_model(a_hat)
        pi = make_partition(assignment, h.vertex_weight, 3)
        hyper = evaluate_hypergraph_cut(h, pi).cut_value
        assert hyper < 2 * evaluate_graph_cut(g, pi).cut_value

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_volume_iff_every_lambda_is_one(self, seed):
        a_hat = normalize_adjacency(random_undirected(10, 0.25, seed))
        h = build_hypergraph_model(a_hat)
        rng = np.random.default_rng([seed, 7])
        assignment = rng.integers(0, 2, size=10)
        while len(np.unique(assignment)) < 2:
            assignment = rng.integers(0, 2, size=10)
        pi = make_partition(assignment, h.vertex_weight, 2)
        rep = evaluate_hypergraph_cut(h, pi)
        assert np.all(rep.per_net_lambda >= 1)
        vol = predicted_total_volume(h, pi, (3, 3))
        assert (vol == 0) == bool(np.all(rep.per_net_lambda == 1))


class TestHoeffdingBound:
    def test_unit_theta_closed_form(self):
        # (p-1)^2/(2 theta^2) ln(2/delta) with delta = 2/e^2 gives exactly 1
        assert hoeffding_min_nets(2, 1.0, 2.0 / math.e**2) == 1

    def test_reference_settings_values(self):
        assert hoeffding_min_nets(2, 0.1, 0.5) == 70
        assert hoeffding_min_nets(27, 0.1, 0.5) == 46857

    def test_closed_form_oracle_on_grid(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            p = int(rng.integers(2, 40))
            theta = float(rng.uniform(0.05, 1.0))
            delta = float(rng.uniform(0.05, 0.95))
            want = math.ceil((p - 1) ** 2 / (2 * theta**2) * math.log(2 / delta))
            assert hoeffding_min_nets(p, theta, delta) == want

    def test_monotonicity_over_grid(self):
        ps = range(2, 12)
        thetas = [0.05 * k for k in range(1, 11)]
        deltas = [0.09 * k for k in range(1, 11)]
        for theta in thetas:
            for delta in deltas:
                vals = [hoeffding_min_nets(p, theta, delta) for p in ps]
                assert all(b >= a for a, b in zip(vals, vals[1:]))
        for p in (3, 9):
            for delta in deltas:
                vals = [hoeffding_min_nets(p, t, delta) for t in thetas]
                assert all(b <= a for a, b in zip(vals, vals[1:]))
            for theta in thetas:
                vals = [hoeffding_min_nets(p, theta, d) for d in deltas]
                assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_degenerate_p_rejected(self):
        with pytest.raises(ValueError):
            hoeffding_min_nets(1, 0.1, 0.5)
        with pytest.raises(ValueError):
            hoeffding_min_nets(2, 0.0, 0.5)
        with pytest.raises(ValueError):
            hoeffding_min_nets(2, 0.1, 1.0)
