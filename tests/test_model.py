import random

import pytest

from fairnet import (
    VACUOUS,
    FairnessCertificate,
    FairnetError,
    Graph,
    InputError,
    LabelMultiset,
    RefusalError,
    SolveStats,
    complete_bipartite,
    cycle_graph,
    empty_graph,
    fairness_constant_candidates,
    neighborhood_sum,
    path_graph,
    star_graph,
    verify,
)
from fairnet.model import LABEL_SUM_LIMIT, certified_outcome, require_constant


class TestGraph:
    def test_from_edges_normalizes(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (2, 1)])
        assert g.adjacency == ((1,), (0, 2), (1,))
        assert g.edge_count == 2
        assert g.edges() == [(0, 1), (1, 2)]

    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Graph.from_edges(2, [(0, 2)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(InputError):
            Graph(((1,), ()))

    def test_asymmetric_adjacency_names_the_first_one_sided_edge(self):
        rng = random.Random(5)
        checked = 0
        while checked < 200:
            n = rng.randint(2, 7)
            adjacency = tuple(
                tuple(sorted(rng.sample([u for u in range(n) if u != v], rng.randint(0, n - 1))))
                for v in range(n)
            )
            one_sided = [
                (v, u) for v, nbrs in enumerate(adjacency) for u in nbrs if v not in adjacency[u]
            ]
            if not one_sided:
                assert Graph(adjacency).adjacency == adjacency
                continue
            checked += 1
            with pytest.raises(InputError) as caught:
                Graph(adjacency)
            assert str(caught.value) == f"edge {one_sided[0]} is not symmetric"

    def test_degrees_and_regularity(self):
        c4 = cycle_graph(4)
        assert c4.degrees == (2, 2, 2, 2)
        assert c4.regular_degree() == 2
        assert path_graph(3).regular_degree() is None
        assert empty_graph(2).regular_degree() == 0
        assert Graph(()).regular_degree() is None
        assert empty_graph(3).is_edgeless()
        assert not c4.is_edgeless()

    def test_min_max_degree_defaults(self):
        assert Graph(()).max_degree() == 0
        assert Graph(()).min_degree() == 0
        assert star_graph(3).max_degree() == 3
        assert star_graph(3).min_degree() == 1

    def test_induced_subgraph(self):
        g = cycle_graph(5)
        sub, ids = g.induced([4, 0, 1])
        assert ids == (0, 1, 4)
        assert sub.adjacency == ((1, 2), (0,), (0,))

    def test_structural_equality(self):
        assert cycle_graph(4) == Graph.from_edges(4, [(1, 2), (2, 3), (3, 0), (0, 1)])


class TestLabelMultiset:
    def test_sorted_storage(self):
        s = LabelMultiset.from_iterable([3, 1, 2, 1])
        assert s.values == (1, 1, 2, 3)
        assert s.counts[1] == 2
        assert s.distinct_values == (1, 2, 3)
        assert s.alpha == 3
        assert s.total() == 7
        assert s.multiplicity(9) == 0
        assert len(s) == 4
        assert list(s) == [1, 1, 2, 3]

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            LabelMultiset.from_iterable([1, 0])
        with pytest.raises(InputError):
            LabelMultiset.from_iterable([-3])

    def test_rejects_huge_totals(self):
        with pytest.raises(InputError):
            LabelMultiset.from_iterable([LABEL_SUM_LIMIT])

    def test_contains_and_minus(self):
        s = LabelMultiset.from_iterable([1, 1, 2, 3])
        t = LabelMultiset.from_iterable([1, 3])
        assert s.contains(t)
        assert s.minus(t).values == (1, 2)
        with pytest.raises(InputError):
            t.minus(s)

    def test_remove_copies(self):
        s = LabelMultiset.from_iterable([2, 2, 5])
        assert s.remove_copies(2, 2).values == (5,)
        with pytest.raises(InputError):
            s.remove_copies(5, 2)


class TestVerify:
    def test_cycle_fair(self):
        g = cycle_graph(4)
        s = LabelMultiset.from_iterable([1, 2, 3, 4])
        assert verify(g, s, (1, 2, 4, 3)) == 5

    def test_cycle_unfair_assignment(self):
        g = cycle_graph(4)
        s = LabelMultiset.from_iterable([1, 2, 3, 4])
        assert verify(g, s, (1, 2, 3, 4)) is None

    def test_wrong_multiset_is_not_fair(self):
        g = cycle_graph(4)
        s = LabelMultiset.from_iterable([1, 2, 3, 4])
        assert verify(g, s, (1, 1, 2, 2)) is None

    def test_length_mismatch_is_input_error(self):
        g = cycle_graph(4)
        s = LabelMultiset.from_iterable([1, 2, 3, 4])
        with pytest.raises(InputError):
            verify(g, s, (1, 2, 3))

    def test_triangle_all_equal(self):
        g = cycle_graph(3)
        s = LabelMultiset.from_iterable([2, 2, 2])
        assert verify(g, s, (2, 2, 2)) == 4

    def test_edgeless_is_vacuous(self):
        g = empty_graph(3)
        s = LabelMultiset.from_iterable([1, 2, 3])
        assert verify(g, s, (3, 1, 2)) is VACUOUS

    def test_isolated_vertex_unconstrained(self):
        # isolated vertex 3 next to a triangle: only the triangle is checked
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
        s = LabelMultiset.from_iterable([2, 2, 2, 9])
        assert verify(g, s, (2, 2, 2, 9)) == 4

    def test_neighborhood_sum(self):
        g = star_graph(3)
        assert neighborhood_sum(g, (6, 1, 2, 3), 0) == 6
        assert neighborhood_sum(g, (6, 1, 2, 3), 1) == 6


class TestCertificate:
    def test_check_round_trip(self):
        g = cycle_graph(4)
        s = LabelMultiset.from_iterable([1, 2, 3, 4])
        assert FairnessCertificate((1, 2, 4, 3), 5).check(g, s)
        assert not FairnessCertificate((1, 2, 3, 4), 5).check(g, s)
        assert not FairnessCertificate((1, 2, 4, 3), 6).check(g, s)

    def test_vacuous_constant(self):
        g = empty_graph(2)
        s = LabelMultiset.from_iterable([1, 2])
        assert FairnessCertificate((2, 1), None).check(g, s)
        assert not FairnessCertificate((2, 1), 3).check(g, s)

    def test_rejects_nonpositive_constant(self):
        with pytest.raises(InputError):
            FairnessCertificate((1, 2), 0)

    def test_length_mismatch_checks_false(self):
        g = cycle_graph(4)
        s = LabelMultiset.from_iterable([1, 2, 3, 4])
        assert not FairnessCertificate((1, 2, 4), 5).check(g, s)


class TestCandidates:
    def test_regular_single_candidate(self):
        g = cycle_graph(4)
        s = LabelMultiset.from_iterable([1, 2, 3, 4])
        assert fairness_constant_candidates(g, s) == [5]

    def test_regular_divisibility_failure(self):
        g = cycle_graph(3)
        s = LabelMultiset.from_iterable([1, 1, 2])
        # 2 * 4 = 8 is not divisible by 3
        assert fairness_constant_candidates(g, s) == []

    def test_pendant_restricts_to_label_values(self):
        g = path_graph(3)
        s = LabelMultiset.from_iterable([1, 2, 4])
        cands = fairness_constant_candidates(g, s)
        assert set(cands) <= {1, 2, 4}
        # the true constant is always proposed when a fair labeling exists
        g2 = star_graph(2)
        s2 = LabelMultiset.from_iterable([1, 2, 3])
        assert 3 in fairness_constant_candidates(g2, s2)

    def test_interval_bounds(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        s = LabelMultiset.from_iterable([1, 2, 3, 4])
        cands = fairness_constant_candidates(g, s)
        assert cands == list(range(min(cands), max(cands) + 1))

    def test_rejects_isolated_and_empty(self):
        with pytest.raises(InputError):
            fairness_constant_candidates(Graph(()), LabelMultiset.from_iterable([]))
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(InputError):
            fairness_constant_candidates(g, LabelMultiset.from_iterable([1, 2, 3]))

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            fairness_constant_candidates(
                cycle_graph(3), LabelMultiset.from_iterable([1, 2])
            )

    def test_never_excludes_realized_constant(self):
        rng = random.Random(5)
        from support import brute_force_fair, random_instance

        checked = 0
        while checked < 60:
            graph, labels = random_instance(rng, max_n=6, max_value=5)
            if graph.vertex_count == 0 or graph.min_degree() == 0:
                continue
            fair, constants = brute_force_fair(graph, labels)
            cands = set(fairness_constant_candidates(graph, labels))
            assert constants <= cands
            checked += 1


class TestOutcomeHelpers:
    def test_require_constant(self):
        require_constant(1)
        for bad in (0, -2, True, "3"):
            with pytest.raises(InputError):
                require_constant(bad)

    def test_certified_outcome_reverifies(self):
        g = cycle_graph(4)
        s = LabelMultiset.from_iterable([1, 2, 3, 4])
        out = certified_outcome(g, s, (1, 2, 4, 3), 5, SolveStats())
        assert out.fair and out.certificate.constant == 5
        with pytest.raises(FairnetError):
            certified_outcome(g, s, (1, 2, 3, 4), 5, SolveStats())

    def test_stats_absorb(self):
        a = SolveStats()
        a.nodes, a.ilp_calls = 3, 1
        a.trace.append("outer")
        b = SolveStats()
        b.nodes, b.ilp_calls = 4, 2
        b.trace.append("inner")
        a.absorb(b)
        assert a.nodes == 7 and a.ilp_calls == 3
        assert a.trace == ["outer", "inner"]


class TestBipartiteBalance:
    def test_complete_bipartite_side_sums(self):
        g = complete_bipartite(2, 3)
        s = LabelMultiset.from_iterable([2, 4, 1, 2, 3])
        # sides sum to 6 each: fair with k = 6
        assert verify(g, s, (2, 4, 1, 2, 3)) == 6
        # unbalanced sides cannot be fair under any arrangement
        s2 = LabelMultiset.from_iterable([1, 1, 1, 1, 9])
        from support import brute_force_fair

        fair, _ = brute_force_fair(g, s2)
        assert not fair
