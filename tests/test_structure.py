import itertools
import random
from fractions import Fraction
from math import gcd

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
    _branch_vertices,
    _cycle_rank_bound,
    _greedy_fvs,
    _matching_bound,
    _min_fvs,
    _min_vc,
    _two_core,
    component_weights,
    eliminate,
    feedback_vertex_set_number,
    first_vertex_orbit,
    vertex_cover_number,
)
from fairnet import solvers, structure
from fairnet.search import SearchTables
from fairnet.solvers import ORBIT_NODE_BUDGET, _oracle_tables
from support import (
    _is_acyclic,
    brute_first_vertex_orbit,
    brute_min_fvs_size,
    brute_min_vc_size,
    constructed_fair,
    gauss_jordan_weights,
    grid,
    hypercube,
    orbit_oracle_tables,
    random_graph,
    random_labels,
    reference_eliminate,
    reference_first_vertex_orbit,
    reference_oracle_tables,
    reference_ordered_eliminate,
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
            _branch_vertices([0b10, 0b01], 0b11)

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


def _masks(graph):
    """The neighbor masks of a graph and the mask of all its vertices."""
    adj = [sum(1 << u for u in graph.adjacency[v]) for v in range(graph.vertex_count)]
    return adj, (1 << graph.vertex_count) - 1


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

    def test_disjoint_unions_match_the_unbounded_search(self):
        # solved one component at a time, the union keeps the smallest tuple
        rng = random.Random(59)
        for _ in range(150):
            parts = [
                random_graph(rng, rng.randint(1, 8), rng.choice((0.3, 0.5, 0.8)))
                for _ in range(rng.randint(2, 3))
            ]
            g = disjoint_union(*parts)
            assert minimum_feedback_vertex_set(g) == unbounded_minimum_feedback_vertex_set(g)
            assert minimum_vertex_cover(g) == unbounded_minimum_vertex_cover(g)

    def test_bounds_never_exceed_the_brute_force_minimum(self):
        rng = random.Random(47)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 10), rng.choice((0.25, 0.4, 0.6)))
            fvs, vc = brute_min_fvs_size(g), brute_min_vc_size(g)
            adj, alive = _masks(g)
            assert _matching_bound(adj, alive) <= vc
            assert _cycle_rank_bound(adj, alive) <= fvs
            assert _cycle_rank_bound(adj, _two_core(adj, alive, alive)) <= fvs

    def test_bounds_are_tight_on_disjoint_triangles(self):
        triangles = disjoint_union(*[cycle_graph(3)] * 3)
        adj, alive = _masks(triangles)
        assert _cycle_rank_bound(adj, alive) == 3 == len(minimum_feedback_vertex_set(triangles))
        assert _matching_bound(adj, alive) == 3


def _subdivided_and_bipartite_graphs():
    """Semimagic grids (cells subdivide row-column edges), 3part-k33 with
    m 2-5, and K_{a,b}: many degree-2 vertices, no triangles."""
    rng = random.Random(71)
    graphs = [
        gen_semimagic(SemiMagicSpec(n, tuple(rng.randint(1, 9) for _ in range(n * n)))).graph
        for n in (3, 3, 4)
    ]
    for m in (2, 3, 4, 5):
        while True:
            values = tuple(rng.randint(1, 9) for _ in range(3 * m))
            if sum(values) % m == 0:
                break
        graphs.append(gen_3partition_k33(ThreePartitionInstance(values, m)).graph)
    graphs.extend(complete_bipartite(a, b) for a in range(1, 6) for b in range(a, 7))
    return graphs


def _is_cover(graph, mask):
    return all(mask >> u & 1 or mask >> v & 1 for u, v in graph.edges())


class TestBitsetKernels:
    """The mask searches against the dict-based unbounded references of
    `support`, and their witnesses against the definitions."""

    def test_same_tuples_on_dense_graphs(self):
        rng = random.Random(67)
        for _ in range(30):
            g = random_graph(rng, rng.randint(8, 16), rng.choice((0.5, 0.7)))
            assert minimum_feedback_vertex_set(g) == unbounded_minimum_feedback_vertex_set(g)
            assert minimum_vertex_cover(g) == unbounded_minimum_vertex_cover(g)

    def test_same_tuples_on_subdivided_and_bipartite_families(self):
        for g in _subdivided_and_bipartite_graphs():
            assert minimum_feedback_vertex_set(g) == unbounded_minimum_feedback_vertex_set(g)
            assert minimum_vertex_cover(g) == unbounded_minimum_vertex_cover(g)

    def test_same_tuples_on_disjoint_unions_of_families_and_dense_graphs(self):
        rng = random.Random(73)
        pool = [g for g in _subdivided_and_bipartite_graphs() if g.vertex_count <= 10]
        for _ in range(30):
            parts = rng.sample(pool, rng.randint(1, 2)) + [
                random_graph(rng, rng.randint(3, 8), rng.choice((0.5, 0.7)))
            ]
            rng.shuffle(parts)
            g = disjoint_union(*parts)
            assert minimum_feedback_vertex_set(g) == unbounded_minimum_feedback_vertex_set(g)
            assert minimum_vertex_cover(g) == unbounded_minimum_vertex_cover(g)

    def test_witnesses_are_solutions_within_their_budget(self):
        # above the minimum, the search returns the minimum and a solution
        # of that size; with a floor, the first solution within it
        rng = random.Random(79)
        for _ in range(320):
            g = random_graph(rng, rng.randint(1, 14), rng.choice((0.15, 0.3, 0.5, 0.7)))
            adj, alive = _masks(g)
            core = _two_core(adj, alive, alive)
            fvs, vc = len(minimum_feedback_vertex_set(g)), len(minimum_vertex_cover(g))
            for best in range(fvs + 1, fvs + 4):
                for floor, size in ((0, fvs), (best - 1, None)):
                    found, witness = _min_fvs(adj, core, best, floor)
                    assert witness is not None and found == witness.bit_count()
                    assert found == size if size is not None else fvs <= found <= floor
                    removed = frozenset(v for v in range(g.vertex_count) if witness >> v & 1)
                    assert _is_acyclic(g, removed)
            for best in range(vc + 1, vc + 4):
                for floor, size in ((0, vc), (best - 1, None)):
                    found, witness = _min_vc(adj, alive, best, floor)
                    assert witness is not None and found == witness.bit_count()
                    assert found == size if size is not None else vc <= found <= floor
                    assert _is_cover(g, witness)

    def test_no_witness_below_the_brute_force_minimum(self):
        rng = random.Random(83)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 10), rng.choice((0.25, 0.4, 0.6, 0.8)))
            adj, alive = _masks(g)
            core = _two_core(adj, alive, alive)
            fvs, vc = brute_min_fvs_size(g), brute_min_vc_size(g)
            for best in range(fvs + 1):
                assert _min_fvs(adj, core, best) == (best, None)
                assert _min_fvs(adj, core, best, best - 1) == (best, None)
            for best in range(vc + 1):
                assert _min_vc(adj, alive, best) == (best, None)
                assert _min_vc(adj, alive, best, best - 1) == (best, None)
            assert _min_fvs(adj, core, fvs + 1)[0] == fvs
            assert _min_vc(adj, alive, vc + 1)[0] == vc

    def test_some_minimum_fvs_takes_a_branch_vertex(self):
        # the branching rule: a degree->=3 vertex of the cycle, or any vertex
        # of a cycle that is a whole component
        rng = random.Random(89)
        graphs = [cycle_graph(5), disjoint_union(cycle_graph(4), complete_bipartite(2, 3))]
        graphs += [random_graph(rng, rng.randint(3, 9), rng.choice((0.3, 0.5))) for _ in range(120)]
        graphs += [g for g in _subdivided_and_bipartite_graphs() if g.vertex_count <= 9]
        for g in graphs:
            adj, alive = _masks(g)
            core = _two_core(adj, alive, alive)
            if not core:
                continue
            branch = _branch_vertices(adj, core)
            degrees = [(adj[v] & core).bit_count() for v in branch]
            assert all(core >> v & 1 for v in branch)
            assert all(d >= 3 for d in degrees) or (len(branch) == 1 and degrees == [2])
            size = brute_min_fvs_size(g)
            assert any(
                _is_acyclic(g, frozenset(s))
                for s in itertools.combinations(range(g.vertex_count), size)
                if set(s) & set(branch)
            )



def _size_test_graphs():
    """Random graphs up to 14 vertices, dense ones up to 18, disjoint unions,
    the generator families, circulants and edgeless graphs: 920 graphs."""
    rng = random.Random(97)
    graphs = [
        random_graph(rng, rng.randint(1, 14), rng.choice((0.15, 0.2, 0.3, 0.5, 0.7)))
        for _ in range(700)
    ]
    # the unbounded reference needs seconds on denser graphs of this size
    dense = ((18, 0.5), (17, 0.5), (17, 0.6), (16, 0.6), (15, 0.6), (14, 0.7), (13, 0.7), (12, 0.7))
    graphs += [random_graph(rng, n, p) for n, p in dense]
    graphs += [
        disjoint_union(*[
            random_graph(rng, rng.randint(1, 8), rng.choice((0.3, 0.5, 0.8)))
            for _ in range(rng.randint(2, 3))
        ])
        for _ in range(150)
    ]
    graphs += _family_graphs() + _subdivided_and_bipartite_graphs()
    graphs += [gen_circulant(n, r) for n in range(5, 13) for r in (2, 4) if r < n]
    graphs += [gen_circulant(n, 6) for n in range(8, 12)]
    return graphs + [empty_graph(0), empty_graph(3)]


class TestSizeOnly:
    """`feedback_vertex_set_number` and `vertex_cover_number` size the
    minimum solutions without building the lexicographically smallest."""

    def test_numbers_are_the_unbounded_sizes(self):
        graphs = _size_test_graphs()
        assert len(graphs) == 920
        for g in graphs:
            assert feedback_vertex_set_number(g) == len(unbounded_minimum_feedback_vertex_set(g))
            assert vertex_cover_number(g) == len(unbounded_minimum_vertex_cover(g))

    def test_sizes_and_tuples_on_larger_sparse_graphs(self):
        # one branch-and-bound below the incumbent per component, and the
        # reconstruction's first-found decisions, past the 920-graph set's sizes
        rng = random.Random(103)
        for _ in range(16):
            g = random_graph(rng, rng.randint(18, 22), rng.choice((0.25, 0.3)))
            fvs, vc = unbounded_minimum_feedback_vertex_set(g), unbounded_minimum_vertex_cover(g)
            assert feedback_vertex_set_number(g) == len(fvs)
            assert vertex_cover_number(g) == len(vc)
            assert minimum_feedback_vertex_set(g) == fvs
            assert minimum_vertex_cover(g) == vc

    def test_greedy_fvs_is_a_feedback_vertex_set_of_the_core(self):
        for g in _size_test_graphs():
            adj, alive = _masks(g)
            core = _two_core(adj, alive, alive)
            greedy = _greedy_fvs(adj, core)
            assert greedy & ~core == 0
            assert _two_core(adj, core & ~greedy, core) == 0
            assert _is_acyclic(g, frozenset(v for v in range(g.vertex_count) if greedy >> v & 1))
            assert greedy.bit_count() >= feedback_vertex_set_number(g)


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


def _shuffled_order(rng: random.Random, graph: Graph) -> list[int]:
    """Some of the vertices, often all, in a random order."""
    order = list(range(graph.vertex_count))
    rng.shuffle(order)
    return order if rng.random() < 0.5 else order[: rng.randint(0, len(order))]


def _sequence(graph: Graph, order=None) -> list[int]:
    """The vertices in back-substitution order: the labeling order, then the
    vertices outside it by id (their columns go first, highest id first)."""
    order = list(range(graph.vertex_count) if order is None else order)
    placed = set(order)
    return order + [v for v in range(graph.vertex_count) if v not in placed]


def _forced_values(elimination, sequence, k, free) -> dict[int, Fraction]:
    """Each vertex of `sequence` in turn: a pivot the value its map forces
    at K = k from the values before it, any other vertex its `free` value
    (0 when absent)."""
    values: dict[int, Fraction] = {}
    for v in sequence:
        if v in elimination.pivots:
            scale, constant, terms = elimination.pivots[v]
            values[v] = (constant * k - sum(c * values[j] for j, c in terms)) / Fraction(scale)
        else:
            values[v] = Fraction(free.get(v, 0))
    return values


def _assert_forces_the_reference_values(ours, reference, sequence):
    """Same pivots, same weights, and on every prefix that obeys the earlier
    maps each map forces the value the reference map forces.  The maps are
    linear in K and the free labels, so the basis K = 1 with the free
    labels at 0, and K = 0 with one free label at 1, covers every prefix."""
    assert ours.weights == reference.weights
    assert set(ours.pivots) == set(reference.pivots)
    free = [v for v in sequence if v not in ours.pivots]
    for k, values in [(1, {})] + [(0, {v: 1}) for v in free]:
        assert _forced_values(ours, sequence, k, values) == _forced_values(
            reference, sequence, k, values
        )


class TestElimination:
    """A l = K 1 in echelon form, by default with columns from the highest
    id down: each pivot row reads only vertices labeled before its pivot."""

    @staticmethod
    def _graphs(rng):
        for _ in range(400):
            yield _singular_rich_graph(rng)
        for n in range(5, 11):
            yield gen_circulant(n, 4)
        yield gen_semimagic(SemiMagicSpec(3, tuple(range(1, 10)))).graph
        yield gen_3partition_k33(ThreePartitionInstance((4, 3, 2, 5, 1, 3), 2)).graph

    def test_pivot_rows_are_echelon_and_coprime(self):
        rng = random.Random(61)
        for g in self._graphs(rng):
            pivots = eliminate(g).pivots
            for p, (scale, constant, terms) in pivots.items():
                assert scale > 0
                assert all(j < p and c for j, c in terms)
                assert [j for j, _ in terms] == sorted({j for j, _ in terms})
                assert gcd(scale, constant, *(c for _, c in terms)) == 1

    def test_free_labels_extend_to_every_solution(self):
        # any free values and K, the maps evaluated in order, solve A l = K 1
        # on each component with a weight; there is no solution on the others
        rng = random.Random(67)
        for g in self._graphs(rng):
            elimination = eliminate(g)
            k = rng.randint(1, 9)
            free = {v: rng.randint(-5, 5) for v in range(g.vertex_count)}
            values = _forced_values(elimination, range(g.vertex_count), k, free)
            at_zero = _forced_values(elimination, range(g.vertex_count), 1, {})
            for comp, weight in elimination.weights:
                holds = all(sum(values[u] for u in g.adjacency[v]) == k for v in comp)
                assert holds == (weight is not None)
                if weight is not None:
                    assert weight == sum(at_zero[v] for v in comp)

    def test_fair_labelings_obey_every_pivot_map(self):
        rng = random.Random(71)
        for _ in range(300):
            g, _labels, assignment, k = constructed_fair(rng, max_n=9)
            for p, (scale, constant, terms) in eliminate(g).pivots.items():
                assert scale * assignment[p] == constant * k - sum(
                    c * assignment[j] for j, c in terms
                )

    def test_default_order_forces_what_the_parents_elimination_forces(self):
        rng = random.Random(73)
        for g in self._graphs(rng):
            expected = reference_eliminate(g)
            assert eliminate(g, range(g.vertex_count)) == eliminate(g)
            _assert_forces_the_reference_values(eliminate(g), expected, _sequence(g))

    def test_shuffled_order_maps_read_only_earlier_positions(self):
        rng = random.Random(79)
        for g in self._graphs(rng):
            order = _shuffled_order(rng, g)
            # the order of the columns' elimination, reversed
            rank = {v: i for i, v in enumerate(_sequence(g, order))}
            elimination = eliminate(g, order)
            for p, (scale, constant, terms) in elimination.pivots.items():
                assert scale > 0
                assert gcd(scale, constant, *(c for _, c in terms)) == 1
                assert all(c and rank[j] < rank[p] for j, c in terms)
            # s_C does not depend on which solution is read off
            assert elimination.weights == eliminate(g).weights

    def test_fair_labelings_obey_every_map_in_a_shuffled_order(self):
        rng = random.Random(83)
        for _ in range(300):
            g, _labels, assignment, k = constructed_fair(rng, max_n=9)
            for p, (scale, constant, terms) in eliminate(g, _shuffled_order(rng, g)).pivots.items():
                assert scale * assignment[p] == constant * k - sum(
                    c * assignment[j] for j, c in terms
                )

    def test_circulant_has_one_free_vertex(self):
        elimination = eliminate(gen_circulant(10, 4))
        assert sorted(elimination.pivots) == list(range(1, 10))
        # l_2 = l_0 once l_1 obeys its map: distinct labels are unfair at once
        for k, first in ((1, 0), (0, 1), (7, 3)):
            values = _forced_values(elimination, range(10), k, {0: first})
            assert values[2] == first


def _floored(graph: Graph, tables: SearchTables) -> set[int]:
    """Vertices outside vertex 0's twin class that the tables' ties hold at
    or above vertex 0's label, directly or through earlier ties."""
    ties = tables.ties
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
            assert _floored(g, orbit_oracle_tables(g)) <= orbit
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
        assert _floored(graph, orbit_oracle_tables(graph)) == everything - own

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
                # support's tables read the budget at import, so the patched
                # oracle tables take the graph's own elimination
                tables = _oracle_tables(g, eliminate(g))
                assert tables.ties == reference_oracle_tables(g).ties
                assert not _floored(g, tables)
                unbudgeted = solve_oracle(g, labels)
            assert budgeted.verdict == unbudgeted.verdict
            assert budgeted.certificate == unbudgeted.certificate
            assert budgeted.stats.nodes <= unbudgeted.stats.nodes

    def test_budget_cut_keeps_what_was_found(self):
        # six twin classes: each budget unit is six placements, and each
        # automorphism found places all six
        g = disjoint_union(*[complete_bipartite(3, 3)] * 3)
        part = twin_classes(g)
        orbits = [set(first_vertex_orbit(g, part, budget)) for budget in range(12)]
        assert orbits[:4] == [set(range(3)), set(range(6)), set(range(12)), set(range(18))]
        assert all(orbit == set(range(18)) for orbit in orbits[4:])

    def test_non_automorphism_is_an_error(self, monkeypatch):
        def blind(masks, kinds, order, target, budget):
            # a rotation of the path's vertices, which breaks its edges
            count = len(masks)
            return [(v - 1) % count for v in range(count)], budget - count

        monkeypatch.setattr(structure, "_class_map", blind)
        with pytest.raises(FairnetError, match="non-automorphism"):
            first_vertex_orbit(path_graph(4), twin_classes(path_graph(4)), 10)

    @pytest.mark.parametrize(
        "graph",
        [hypercube(5), hypercube(7), gen_circulant(31, 6), gen_circulant(200, 6), grid(6, 6),
         grid(20, 20), gen_semimagic(SemiMagicSpec(4, tuple(range(1, 17)))).graph,
         disjoint_union(*[PETERSEN] * 3)],
        ids=["Q5", "Q7", "C31(1,2,3)", "C200(1,2,3)", "grid6x6", "grid20x20", "semimagic4",
             "3xPetersen"],
    )
    def test_reference_orbit_on_large_symmetric_graphs(self, graph):
        # up to 400 twin classes: the search keeps its path in a list, not
        # in one Python frame per class
        part = twin_classes(graph)
        assert first_vertex_orbit(graph, part, ORBIT_NODE_BUDGET) == reference_first_vertex_orbit(
            graph, part, ORBIT_NODE_BUDGET
        )

    def test_backtracking_finds_what_refinement_stopped_short_of(self):
        g = disjoint_union(*[complete_bipartite(3, 3)] * 8)
        part = twin_classes(g)
        found = first_vertex_orbit(g, part, ORBIT_NODE_BUDGET)
        assert set(found) > set(reference_first_vertex_orbit(g, part, ORBIT_NODE_BUDGET))
        assert found == tuple(range(48))


def _kernel_graphs(rng: random.Random) -> list[Graph]:
    """900 graphs: the benchmark's families (4-regular circulants on 8-10
    vertices, 3part-k33 with m = 2..6, 3x3 semimagic grids) and G(n, p)
    with n <= 14."""
    graphs = []
    for i in range(900):
        kind = i % 4
        if kind == 0:
            graphs.append(gen_circulant(rng.randint(8, 10), 4))
        elif kind == 1:
            m = rng.randint(2, 6)
            while True:
                w = tuple(rng.randint(1, 5) for _ in range(3 * m))
                if sum(w) % m == 0:
                    break
            graphs.append(gen_3partition_k33(ThreePartitionInstance(w, m)).graph)
        elif kind == 2:
            entries = tuple(rng.randint(1, 4) for _ in range(9))
            graphs.append(gen_semimagic(SemiMagicSpec(3, entries)).graph)
        else:
            n = rng.randint(1, 14)
            graphs.append(random_graph(rng, n, rng.choice((0.2, 0.35, 0.5, 0.75))))
    return graphs


class TestKernelsKeepTheirOutput:
    """The orbit and the elimination give exactly what the copies of their
    earlier versions in `support` give."""

    def test_orbit_is_the_reference_orbit(self):
        # the reference counts refinements where the search counts
        # placements, so below the full budget the orbit only has to grow
        # with the budget inside the reference's
        cut = 0
        for g in _kernel_graphs(random.Random(89)):
            part = twin_classes(g)
            full = set(reference_first_vertex_orbit(g, part, ORBIT_NODE_BUDGET))
            assert set(first_vertex_orbit(g, part, ORBIT_NODE_BUDGET)) == full
            smaller = set()
            for budget in range(ORBIT_NODE_BUDGET):
                orbit = set(first_vertex_orbit(g, part, budget))
                assert smaller <= orbit <= full, (g.adjacency, budget)
                smaller = orbit
            cut += first_vertex_orbit(g, part, 1) != full
        assert cut >= 100

    def test_elimination_forces_the_reference_values_in_every_order(self):
        rng = random.Random(97)
        for g in _kernel_graphs(random.Random(101)) + list(TestElimination._graphs(rng)):
            for order in (None, range(g.vertex_count), _shuffled_order(rng, g),
                          _shuffled_order(rng, g)):
                _assert_forces_the_reference_values(
                    eliminate(g, order), reference_ordered_eliminate(g, order), _sequence(g, order)
                )
