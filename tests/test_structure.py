import itertools
import random
from fractions import Fraction

import pytest

from fairnet import (
    FairnetError,
    Graph,
    InputError,
    LabelMultiset,
    Shape,
    classify,
    complete_bipartite,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    minimum_feedback_vertex_set,
    minimum_vertex_cover,
    path_graph,
    solve_oracle,
    star_graph,
    twin_classes,
)
from fairnet.reductions import (
    SemiMagicSpec,
    ThreePartitionInstance,
    XsatFormula,
    gen_3partition_k33,
    gen_3partition_stars,
    gen_circulant,
    gen_semimagic,
    gen_xsat,
)
from fairnet.structure import (
    _adjacency_map,
    _cycle_rank_bound,
    _matching_bound,
    _prune_degree_le1,
    _short_cycle,
    component_weights,
    first_vertex_orbit,
)
from fairnet import solvers, structure
from fairnet.solvers import ORBIT_NODE_BUDGET, _oracle_tables
from support import (
    _is_acyclic,
    brute_first_vertex_orbit,
    brute_min_fvs_size,
    brute_min_vc_size,
    gauss_jordan_weights,
    random_graph,
    random_labels,
    reference_oracle_tables,
    unbounded_minimum_feedback_vertex_set,
    unbounded_minimum_vertex_cover,
)


class TestComponents:
    def test_single_component(self):
        assert connected_components(cycle_graph(4)) == [(0, 1, 2, 3)]

    def test_union_ordering(self):
        g = disjoint_union(path_graph(2), empty_graph(1), cycle_graph(3))
        assert connected_components(g) == [(0, 1), (2,), (3, 4, 5)]

    def test_empty(self):
        assert connected_components(Graph(())) == []


class TestTwins:
    def test_cycle4_false_twins(self):
        part = twin_classes(cycle_graph(4))
        groups = {(c.vertices, c.true_twin) for c in part.classes}
        assert groups == {((0, 2), False), ((1, 3), False)}

    def test_triangle_true_twins(self):
        part = twin_classes(cycle_graph(3))
        assert [(c.vertices, c.true_twin) for c in part.classes] == [
            ((0, 1, 2), True)
        ]

    def test_star_leaves_false_twins(self):
        part = twin_classes(star_graph(3))
        assert (((1, 2, 3), False)) in {
            (c.vertices, c.true_twin) for c in part.classes
        }

    def test_path_singletons(self):
        part = twin_classes(path_graph(4))
        # ends 0, 3 are not twins (different neighborhoods); middles differ too
        sizes = sorted(len(c.vertices) for c in part.classes)
        assert sizes == [1, 1, 1, 1]

    def test_subset_classes(self):
        part = twin_classes(star_graph(4), vertices=[1, 2])
        assert [(c.vertices, c.true_twin) for c in part.classes] == [((1, 2), False)]

    def test_partition_covers_exactly(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 8), 0.4)
            part = twin_classes(g)
            seen = sorted(v for c in part.classes for v in c.vertices)
            assert seen == list(range(g.vertex_count))
            for cls in part.classes:
                if cls.true_twin:
                    base = set(cls.vertices[:1])
                    closed = {
                        tuple(sorted(set(g.neighbors(v)) | {v}))
                        for v in cls.vertices
                    }
                    assert len(closed) == 1 and base
                elif len(cls.vertices) >= 2:
                    opens = {g.neighbors(v) for v in cls.vertices}
                    assert len(opens) == 1

    def test_out_of_range(self):
        with pytest.raises(InputError):
            twin_classes(cycle_graph(3), vertices=[5])


class TestClassify:
    def test_edgeless(self):
        assert classify(empty_graph(3)).shape is Shape.EDGELESS_ONLY
        assert classify(Graph(())).shape is Shape.EDGELESS_ONLY

    def test_isolated_mixed(self):
        g = disjoint_union(cycle_graph(3), empty_graph(1))
        assert classify(g).shape is Shape.HAS_ISOLATED_MIXED

    def test_disjoint_stars(self):
        g = disjoint_union(star_graph(3), star_graph(1))
        report = classify(g)
        assert report.shape is Shape.DISJOINT_STARS
        assert report.component_kinds == ("star", "star")

    def test_disjoint_cycles(self):
        g = disjoint_union(cycle_graph(4), cycle_graph(5))
        report = classify(g)
        assert report.shape is Shape.DISJOINT_CYCLES
        assert report.regular_degree == 2

    def test_regular(self):
        report = classify(complete_bipartite(3, 3))
        assert report.shape is Shape.REGULAR
        assert report.regular_degree == 3

    def test_forest(self):
        g = disjoint_union(path_graph(4), star_graph(2))
        report = classify(g)
        assert report.shape is Shape.FOREST
        assert report.component_kinds == ("tree", "star")

    def test_general(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        report = classify(g)
        assert report.shape is Shape.GENERAL
        assert report.component_kinds == ("general",)

    def test_k2_is_a_star(self):
        assert classify(path_graph(2)).component_kinds == ("star",)


class TestExactFvsVc:
    def test_known_values(self):
        assert minimum_feedback_vertex_set(path_graph(5)) == ()
        assert len(minimum_feedback_vertex_set(cycle_graph(4))) == 1
        k5 = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        assert len(minimum_feedback_vertex_set(k5)) == 3
        assert len(minimum_vertex_cover(k5)) == 4
        assert minimum_vertex_cover(star_graph(4)) == (0,)
        assert len(minimum_vertex_cover(cycle_graph(5))) == 3
        assert minimum_vertex_cover(empty_graph(3)) == ()

    def test_solutions_are_valid_and_lex_smallest(self):
        g = cycle_graph(4)
        assert minimum_feedback_vertex_set(g) == (0,)
        assert minimum_vertex_cover(g) == (0, 2)

    def test_short_cycle_without_a_cycle_is_an_error(self):
        # raised, not asserted, so it also holds under python -O
        with pytest.raises(FairnetError):
            _short_cycle({0: {1}, 1: {0}})

    def test_matches_brute_force(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 8), rng.choice((0.25, 0.5)))
            fvs = minimum_feedback_vertex_set(g)
            vc = minimum_vertex_cover(g)
            assert len(fvs) == brute_min_fvs_size(g)
            assert len(vc) == brute_min_vc_size(g)
            cover = set(vc)
            assert all(u in cover or v in cover for u, v in g.edges())


def _first_minimum(graph, solves):
    """The first set in itertools.combinations order of the smallest size
    that `solves` accepts."""
    for size in range(graph.vertex_count + 1):
        for subset in itertools.combinations(range(graph.vertex_count), size):
            if solves(subset):
                return subset
    raise AssertionError("unreachable: the whole vertex set is a solution")


def _family_graphs():
    rng = random.Random(11)
    graphs = []
    for m in (2, 3, 4, 5):
        while True:
            values = tuple(rng.randint(1, 9) for _ in range(3 * m))
            if sum(values) % m == 0:
                break
        instance = ThreePartitionInstance(values, m)
        graphs.append(gen_3partition_k33(instance).graph)
        graphs.append(gen_3partition_stars(instance).graph)
    graphs.extend(gen_circulant(n, 4) for n in (8, 9, 10))
    graphs.append(gen_semimagic(SemiMagicSpec(3, tuple(range(1, 10)))).graph)
    graphs.append(gen_semimagic(SemiMagicSpec(3, (1, 2, 8, 5, 7, 9, 2, 5, 6))).graph)
    return graphs


class TestLowerBounds:
    """The cyclomatic and matching bounds only cut branches that cannot
    succeed, so the searches return the tuples of the unbounded ones."""

    def test_same_tuples_as_unbounded_search_on_random_graphs(self):
        rng = random.Random(41)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 16), rng.choice((0.2, 0.3, 0.5)))
            assert minimum_feedback_vertex_set(g) == unbounded_minimum_feedback_vertex_set(g)
            assert minimum_vertex_cover(g) == unbounded_minimum_vertex_cover(g)

    def test_same_tuples_as_unbounded_search_on_generator_families(self):
        for g in _family_graphs():
            assert minimum_feedback_vertex_set(g) == unbounded_minimum_feedback_vertex_set(g)
            assert minimum_vertex_cover(g) == unbounded_minimum_vertex_cover(g)

    def test_same_vertex_cover_as_unbounded_search_on_xsat(self):
        g = gen_xsat(XsatFormula(3, ((0, 1, 2),) * 3)).graph
        cover = minimum_vertex_cover(g)
        assert len(cover) == 36
        assert cover == unbounded_minimum_vertex_cover(g)

    def test_ties_break_to_the_first_combination(self):
        rng = random.Random(43)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 10), rng.choice((0.25, 0.4, 0.6)))
            edges = list(g.edges())
            assert minimum_feedback_vertex_set(g) == _first_minimum(
                g, lambda s: _is_acyclic(g, frozenset(s))
            )
            assert minimum_vertex_cover(g) == _first_minimum(
                g, lambda s: all(u in s or v in s for u, v in edges)
            )

    def test_bounds_never_exceed_the_brute_force_minimum(self):
        rng = random.Random(47)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 10), rng.choice((0.25, 0.4, 0.6)))
            fvs, vc = brute_min_fvs_size(g), brute_min_vc_size(g)
            adj = _adjacency_map(g)
            assert _matching_bound(adj) <= vc
            assert _cycle_rank_bound(adj) <= fvs
            _prune_degree_le1(adj)
            assert _cycle_rank_bound(adj) <= fvs

    def test_bounds_are_tight_on_disjoint_triangles(self):
        triangles = disjoint_union(*[cycle_graph(3)] * 3)
        adj = _adjacency_map(triangles)
        assert _cycle_rank_bound(adj) == 3 == len(minimum_feedback_vertex_set(triangles))
        assert _matching_bound(adj) == 3



# A x = 1 solvable with 1^T x = 0 and -1/2: no positive constant exists
ZERO_WEIGHT = Graph.from_edges(6, [(0, 5), (1, 3), (1, 4), (1, 5), (2, 4), (4, 5)])
NEGATIVE_WEIGHT = Graph.from_edges(
    7, [(0, 6), (1, 2), (1, 3), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 5), (5, 6)]
)


def _with_twins(rng: random.Random, base: Graph, extra: int) -> Graph:
    """base plus `extra` copies of random vertices, each a false twin (same
    neighbors) or a true twin (same neighbors and adjacent to its original):
    equal or dependent rows make the adjacency matrix singular."""
    edges = set(base.edges())
    n = base.vertex_count
    for _ in range(extra):
        v = rng.randrange(n)
        edges.update((u, n) for u in range(n) if (min(u, v), max(u, v)) in edges)
        if rng.random() < 0.5:
            edges.add((v, n))
        n += 1
    return Graph.from_edges(n, sorted(edges))


def _singular_rich_graph(rng: random.Random) -> Graph:
    kind = rng.randrange(5)
    if kind == 0:
        return path_graph(rng.randint(1, 12))
    if kind == 1:
        a = rng.randint(1, 8)
        return complete_bipartite(a, rng.randint(1, 12 - a))
    if kind == 2:
        m = rng.randint(2, 8)
        base = random_graph(rng, m, rng.choice((0.3, 0.5, 0.7)))
        return _with_twins(rng, base, rng.randint(1, 12 - m))
    if kind == 3:
        first = rng.randint(1, 6)
        return disjoint_union(
            path_graph(first), random_graph(rng, rng.randint(1, 12 - first), 0.5)
        )
    return random_graph(rng, rng.randint(1, 12), rng.choice((0.2, 0.35, 0.5, 0.75)))


class TestComponentWeights:
    """s_C = 1^T x for A_C x = 1 on each component, or None without one."""

    def test_matches_fraction_gauss_jordan(self):
        rng = random.Random(53)
        unsolvable = singular = 0
        for _ in range(1200):
            g = _singular_rich_graph(rng)
            expected = gauss_jordan_weights(g)
            assert component_weights(g) == expected
            unsolvable += sum(weight is None for _comp, weight in expected)
            # a solvable singular system: an equal row pair (twins) with a weight
            singular += any(
                weight is not None and len(set(g.adjacency[v] for v in comp)) < len(comp)
                for comp, weight in expected
            )
        assert unsolvable >= 500 and singular >= 500

    def test_regular_components_weigh_size_over_degree(self):
        for g, r in [(cycle_graph(5), 2), (cycle_graph(8), 2), (gen_circulant(10, 4), 4),
                     (complete_bipartite(3, 3), 3)]:
            assert component_weights(g) == [
                (tuple(range(g.vertex_count)), Fraction(g.vertex_count, r))
            ]
        g = disjoint_union(cycle_graph(4), gen_circulant(9, 4))
        assert [weight for _comp, weight in component_weights(g)] == [2, Fraction(9, 4)]

    def test_stars_weigh_two(self):
        for leaves in range(1, 7):
            assert component_weights(star_graph(leaves)) == [
                (tuple(range(leaves + 1)), 2)
            ]

    def test_semimagic_grid_weighs_six(self):
        g = gen_semimagic(SemiMagicSpec(3, tuple(range(1, 10)))).graph
        assert component_weights(g) == [(tuple(range(15)), 6)]

    def test_paths(self):
        assert component_weights(path_graph(4)) == [((0, 1, 2, 3), 2)]
        assert component_weights(path_graph(5)) == [((0, 1, 2, 3, 4), None)]

    def test_weights_can_be_zero_or_negative(self):
        assert component_weights(ZERO_WEIGHT) == [(tuple(range(6)), 0)]
        assert component_weights(NEGATIVE_WEIGHT) == [(tuple(range(7)), Fraction(-1, 2))]

    def test_isolated_vertex_has_no_weight(self):
        g = disjoint_union(path_graph(2), empty_graph(1))
        assert component_weights(g) == [((0, 1), 2), ((2,), None)]


def _floored(graph: Graph) -> set[int]:
    """Vertices outside vertex 0's twin class that the oracle's ties hold at
    or above vertex 0's label, directly or through earlier ties."""
    ties = _oracle_tables(graph).ties
    floored = set()
    for v in range(1, graph.vertex_count):
        u = v
        while ties[u] is not None:
            u = ties[u][0]
        if u == 0:
            floored.add(v)
    return floored - set(twin_classes(graph).classes[0].vertices)


def _random_cubic(rng: random.Random, n: int) -> Graph:
    """A random 3-regular graph: colour refinement cannot split its
    vertices, so only the individualization search tells orbits apart."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2])}
        if len(edges) == 3 * n // 2 and all(a != b for a, b in edges):
            return Graph.from_edges(n, sorted(edges))


def _orbit_graph(rng: random.Random) -> Graph:
    """A graph on at most 8 vertices, often with twins or symmetry."""
    kind = rng.randrange(6)
    if kind == 0:
        return random_graph(rng, rng.randint(1, 8), rng.choice((0.25, 0.4, 0.5, 0.7)))
    if kind == 1:
        m = rng.randint(2, 5)
        base = random_graph(rng, m, rng.choice((0.4, 0.6)))
        return _with_twins(rng, base, rng.randint(1, 8 - m))
    if kind == 2:
        first = rng.choice((path_graph, cycle_graph))(rng.randint(3, 4))
        second = rng.choice((path_graph, cycle_graph))(rng.randint(3, 4))
        return disjoint_union(first, second)
    if kind == 3:
        a = rng.randint(1, 4)
        return complete_bipartite(a, rng.randint(1, 8 - a))
    if kind == 4:
        n = rng.randint(5, 8)
        return gen_circulant(n, rng.choice([r for r in (2, 4) if r < n]))
    return _random_cubic(rng, rng.choice((6, 8)))


def _complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


PETERSEN = Graph.from_edges(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)],
)


class TestFirstVertexOrbit:
    """The oracle floors only vertices in vertex 0's automorphism orbit."""

    def test_floors_lie_in_the_brute_force_orbit(self):
        rng = random.Random(53)
        regular_splits = 0
        for _ in range(300):
            g = _orbit_graph(rng)
            orbit = brute_first_vertex_orbit(g)
            assert _floored(g) <= orbit
            found = first_vertex_orbit(g, twin_classes(g), ORBIT_NODE_BUDGET)
            # the budget does not bind on graphs this small
            assert set(found) == orbit
            regular_splits += g.regular_degree() == 3 and len(orbit) < g.vertex_count
        assert regular_splits >= 10

    @pytest.mark.parametrize(
        "graph",
        [cycle_graph(n) for n in range(3, 11)]
        + [gen_circulant(n, 4) for n in (8, 9, 10)]
        + [_complete(n) for n in range(2, 9)]
        + [complete_bipartite(n, n) for n in range(1, 6)]
        + [PETERSEN],
        ids=[f"C{n}" for n in range(3, 11)]
        + [f"circulant{n}" for n in (8, 9, 10)]
        + [f"K{n}" for n in range(2, 9)]
        + [f"K{n},{n}" for n in range(1, 6)]
        + ["petersen"],
    )
    def test_floors_equal_the_orbit_on_vertex_transitive_graphs(self, graph):
        everything = set(range(graph.vertex_count))
        if graph.vertex_count <= 8:
            assert brute_first_vertex_orbit(graph) == everything
        own = set(twin_classes(graph).classes[0].vertices)
        assert _floored(graph) == everything - own

    def test_no_budget_gives_no_floors_and_the_same_outcome(self, monkeypatch):
        rng = random.Random(59)
        instances = [(gen_circulant(10, 4), LabelMultiset.from_iterable(range(1, 11)))]
        while len(instances) < 150:
            g = _orbit_graph(rng)
            if g.vertex_count and g.min_degree():
                instances.append((g, random_labels(rng, g.vertex_count, 5)))
        for g, labels in instances:
            budgeted = solve_oracle(g, labels)
            with monkeypatch.context() as patch:
                patch.setattr(solvers, "ORBIT_NODE_BUDGET", 0)
                own = twin_classes(g).classes[0].vertices
                assert first_vertex_orbit(g, twin_classes(g), 0) == own
                assert _oracle_tables(g).ties == reference_oracle_tables(g).ties
                assert not _floored(g)
                unbudgeted = solve_oracle(g, labels)
            assert budgeted.verdict == unbudgeted.verdict
            assert budgeted.certificate == unbudgeted.certificate
            assert budgeted.stats.nodes <= unbudgeted.stats.nodes

    def test_budget_cut_keeps_what_was_found(self):
        g = disjoint_union(*[complete_bipartite(3, 3)] * 3)
        part = twin_classes(g)
        orbits = [set(first_vertex_orbit(g, part, budget)) for budget in range(12)]
        assert orbits[0] == orbits[1] == {0, 1, 2}
        assert all(a <= b for a, b in zip(orbits, orbits[1:]))
        assert orbits[-1] == set(range(18))

    def test_non_automorphism_is_an_error(self, monkeypatch):
        def blind(adjacency, left, right):
            # one colour for all at first, then a rotation of the path's
            # vertices, which breaks its edges
            count = len(adjacency)
            if left == right:
                return [0] * count, [0] * count
            return list(range(count)), [(v - 1) % count for v in range(count)]

        monkeypatch.setattr(structure, "_refine_pair", blind)
        with pytest.raises(FairnetError, match="non-automorphism"):
            first_vertex_orbit(path_graph(4), twin_classes(path_graph(4)), 10)
