import random
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from fairnet import (
    Graph,
    InputError,
    LabelMultiset,
    SolveStats,
    cycle_graph,
    disjoint_union,
    enumerate_boundary_extensions,
    extend_forest,
    minimum_feedback_vertex_set,
    path_graph,
    solve_cycle,
    solve_disjoint_stars,
    solve_single_star,
    star_decomposition,
    star_graph,
    verify,
)
from fairnet.special import _leaf_groups
from support import (
    brute_boundary_extensions,
    brute_force_fair,
    constructed_fair,
    random_graph,
    random_induced_forest,
    random_labels,
    reference_extend_forest,
    reference_solve_disjoint_stars,
    reference_solve_single_star,
)


def S(*values):
    return LabelMultiset.from_iterable(values)


class TestSingleStar:
    def test_fair_star(self):
        out = solve_single_star(3, S(1, 2, 3, 6), 6)
        assert out.fair
        assert out.certificate.labels[0] == 6
        assert verify(star_graph(3), S(1, 2, 3, 6), out.certificate.labels) == 6

    def test_unfair_wrong_total(self):
        assert not solve_single_star(3, S(1, 2, 3, 7), 7).fair

    def test_unfair_missing_center_value(self):
        # total 12 with k 6 but no label 6 to place on the center
        assert not solve_single_star(3, S(1, 2, 4, 5), 6).fair

    def test_k2_both_equal(self):
        out = solve_single_star(1, S(2, 2), 2)
        assert out.fair and out.certificate.labels == (2, 2)

    def test_input_errors(self):
        with pytest.raises(InputError):
            solve_single_star(0, S(1), 1)
        with pytest.raises(InputError):
            solve_single_star(2, S(1, 2), 3)
        with pytest.raises(InputError):
            solve_single_star(2, S(1, 2, 3), 0)


    def test_same_outcomes_as_the_reference(self):
        rng = random.Random(1315)
        fair = 0
        for _ in range(600):
            leaves = rng.randint(1, 8)
            values = [rng.randint(1, 4) for _ in range(leaves)]
            if rng.random() < 0.5:
                labels = S(sum(values), *values)
            else:
                labels = random_labels(rng, leaves + 1, 9)
            for k in {sum(values), rng.choice(labels.values), rng.randint(1, 12)}:
                out = solve_single_star(leaves, labels, k)
                reference = reference_solve_single_star(leaves, labels, k)
                assert (out.verdict, out.certificate) == (reference.verdict, reference.certificate)
                fair += out.fair
        assert fair >= 250

    def test_distinct_leaves(self):
        # every leaf group but one is short of copies: nothing else is listed
        for leaves in (10, 12):
            values = tuple(range(1, leaves + 1))
            out = solve_single_star(leaves, S(*values, sum(values)), sum(values))
            assert out.certificate.labels == (sum(values), *values)


class TestCycle:
    def test_plain_cycle_all_half(self):
        out = solve_cycle(5, S(2, 2, 2, 2, 2), 4)
        assert out.fair and out.certificate.labels == (2, 2, 2, 2, 2)

    def test_plain_cycle_rejects_mixed(self):
        assert not solve_cycle(6, S(1, 2, 3, 1, 2, 3), 4).fair

    def test_plain_cycle_rejects_odd_constant(self):
        assert not solve_cycle(5, S(2, 2, 2, 2, 2), 5).fair

    def test_period4_pattern(self):
        out = solve_cycle(4, S(1, 1, 2, 2), 3)
        assert out.fair
        assert verify(cycle_graph(4), S(1, 1, 2, 2), out.certificate.labels) == 3

    def test_period4_longer(self):
        out = solve_cycle(8, S(1, 1, 2, 2, 3, 3, 4, 4), 5)
        assert out.fair
        assert verify(cycle_graph(8), S(1, 1, 2, 2, 3, 3, 4, 4), out.certificate.labels) == 5

    def test_period4_infeasible_counts(self):
        assert not solve_cycle(4, S(1, 1, 1, 2), 3).fair

    def test_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(120):
            length = rng.randint(3, 7)
            labels = S(*(rng.randint(1, 4) for _ in range(length)))
            graph = cycle_graph(length)
            fair, constants = brute_force_fair(graph, labels)
            total = 2 * labels.total()
            if total % length != 0:
                assert not fair
                continue
            k = total // length
            out = solve_cycle(length, labels, k)
            assert out.fair == fair
            if out.fair:
                assert verify(graph, labels, out.certificate.labels) == k


class TestStarDecomposition:
    def test_two_stars(self):
        g = disjoint_union(star_graph(3), star_graph(1))
        assert star_decomposition(g) == [(0, (1, 2, 3)), (4, (5,))]

    def test_k2_center_ties_to_lower_id(self):
        assert star_decomposition(path_graph(2)) == [(0, (1,))]

    def test_rejects_non_star(self):
        with pytest.raises(InputError):
            star_decomposition(path_graph(4))
        with pytest.raises(InputError):
            star_decomposition(disjoint_union(star_graph(2), cycle_graph(3)))
        with pytest.raises(InputError):
            star_decomposition(Graph.from_edges(3, [(0, 1)]))


class TestDisjointStars:
    def test_leaf_groups_are_the_combinations_the_supply_fills(self):
        rng = random.Random(1318)
        for _ in range(400):
            supply = Counter(rng.randint(1, 6) for _ in range(rng.randint(1, 8)))
            size, k = rng.randint(1, 4), rng.randint(1, 14)
            expected = [
                combo
                for combo in combinations_with_replacement(sorted(supply), size)
                if sum(combo) == k and all(combo.count(v) <= supply[v] for v in combo)
            ]
            assert list(_leaf_groups(supply, size, k)) == expected

    def test_two_stars_fair(self):
        g = disjoint_union(star_graph(3), star_graph(3))
        labels = S(1, 2, 3, 1, 2, 3, 6, 6)
        out = solve_disjoint_stars(g, labels, 6)
        assert out.fair
        assert verify(g, labels, out.certificate.labels) == 6

    def test_not_enough_center_copies(self):
        g = disjoint_union(star_graph(3), star_graph(3))
        assert not solve_disjoint_stars(g, S(1, 2, 3, 2, 2, 2, 6, 6), 7).fair

    def test_mixed_sizes(self):
        g = disjoint_union(star_graph(1), star_graph(2))
        # centers need two 4s; leaves: {4} and {1, 3}
        labels = S(4, 4, 4, 1, 3)
        out = solve_disjoint_stars(g, labels, 4)
        assert out.fair
        assert verify(g, labels, out.certificate.labels) == 4

    def test_certificate_pinned(self):
        # sizes 3, 3, 2, 1 with several valid leaf groupings
        g = disjoint_union(star_graph(3), star_graph(3), star_graph(2), star_graph(1))
        labels = S(7, 7, 7, 7, 1, 2, 4, 1, 1, 5, 3, 4, 7)
        out = solve_disjoint_stars(g, labels, 7)
        assert out.certificate.labels == (7, 1, 1, 5, 7, 1, 2, 4, 7, 3, 4, 7, 7)

    def test_group_split_infeasible(self):
        g = disjoint_union(star_graph(2), star_graph(2))
        # two center 5s; leaves {1, 4, 2, 2}: one pair must sum 5 twice -> 1+4 and 2+... 2+3 missing
        labels = S(5, 5, 1, 4, 2, 2)
        assert not solve_disjoint_stars(g, labels, 5).fair

    def test_counting_matches_brute_force(self):
        rng = random.Random(17)
        for _ in range(80):
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
            g = disjoint_union(*(star_graph(s) for s in sizes))
            if g.vertex_count > 8:
                continue
            labels = S(*(rng.randint(1, 5) for _ in range(g.vertex_count)))
            fair, constants = brute_force_fair(g, labels)
            got = {
                k for k in range(1, labels.total() + 1)
                if solve_disjoint_stars(g, labels, k).fair
            }
            assert got == constants

    def test_same_outcomes_as_the_reference(self):
        rng = random.Random(1316)
        fair = 0
        for _ in range(400):
            sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
            graph = disjoint_union(*(star_graph(size) for size in sizes))
            if rng.random() < 0.5:
                k = rng.randint(4, 8)
                labels = [k] * len(sizes)
                for size in sizes:
                    cuts = sorted(rng.sample(range(1, k), size - 1))
                    labels += [b - a for a, b in zip([0, *cuts], [*cuts, k])]
                labels = S(*labels)
            else:
                labels = random_labels(rng, graph.vertex_count, 6)
                k = rng.choice(labels.values)
            out = solve_disjoint_stars(graph, labels, k)
            reference = reference_solve_disjoint_stars(graph, labels, k)
            assert (out.verdict, out.certificate) == (reference.verdict, reference.certificate)
            fair += out.fair
        assert fair >= 150

    def test_rejects_non_star_graph(self):
        with pytest.raises(InputError):
            solve_disjoint_stars(cycle_graph(3), S(1, 2, 3), 3)


class TestForestExtension:
    def test_path3_forced_middle(self):
        # whole P3 as the forest: boundary = both leaves, center forced to k
        result = extend_forest(path_graph(3), [0, 1, 2], {0: 2, 2: 2}, 5)
        assert result == {0: 2, 1: 5, 2: 2}

    def test_leaf_with_no_siblings_forced_to_k(self):
        result = extend_forest(path_graph(3), [0, 1, 2], {0: 7, 2: 2}, 5)
        assert result == {0: 7, 1: 5, 2: 2}

    def test_conflicting_children(self):
        # P4 as forest: N(0) forces f(1)=k, N(2) forces f(1)=k-f(3)
        assert extend_forest(path_graph(4), [0, 1, 2, 3], {0: 2, 3: 2}, 5) is None

    def test_root_equation_left_to_callers(self):
        # the recursion never evaluates the root's own equation; boundary
        # values that break only that equation still extend
        result = extend_forest(path_graph(3), [0, 1, 2], {0: 9, 2: 9}, 5)
        assert result == {0: 9, 1: 5, 2: 9}

    def test_forced_nonpositive_rejected(self):
        # P3 forest {0,1,2}; both leaves touch outside 9s, forcing f(1) = 5-9
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4)])
        assert extend_forest(g, [0, 1, 2], {0: 1, 2: 1, 3: 9, 4: 9}, 5) is None
        ok = extend_forest(g, [0, 1, 2], {0: 1, 2: 1, 3: 2, 4: 2}, 5)
        assert ok == {0: 1, 1: 3, 2: 1, 3: 2, 4: 2}

    def test_small_tree_equations_checked(self):
        # forest {3,4} is a two-vertex tree: both are boundary, and its full
        # neighborhood equations are enforced directly
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        assert extend_forest(g, [3, 4], {2: 3, 3: 6, 4: 3}, 6) == {2: 3, 3: 6, 4: 3}
        assert extend_forest(g, [3, 4], {2: 3, 3: 6, 4: 2}, 6) is None

    def test_rejects_cyclic_forest(self):
        with pytest.raises(InputError):
            extend_forest(cycle_graph(3), [0, 1, 2], {}, 4)

    def test_same_as_the_forcing_steps(self):
        # the walk over the plan's trees against the hand-written forcing
        # steps it replaced: the same extension, None or input error
        rng = random.Random(2207)
        outcomes = Counter()
        errors = set()
        for case in range(3000):
            if case % 3:
                n = rng.randint(2, 11)
                g = random_graph(rng, n, rng.choice((0.2, 0.35, 0.5)))
                full = [rng.randint(1, 4) for _ in range(n)]
                k = 0
            else:
                # a fair labeling extends from any forest's boundary
                g, _labels, full, k = constructed_fair(rng, max_n=11)
                n = g.vertex_count
            forest = random_induced_forest(rng, g)
            if case % 2:
                # any subset of an induced forest induces a forest
                forest = rng.sample(forest, rng.randint(0, len(forest)))
            inside = set(forest)
            boundary = {v for v in forest if sum(u in inside for u in g.neighbors(v)) <= 1}
            boundary.update(u for v in forest for u in g.neighbors(v) if u not in inside)
            labels = {u: full[u] for u in boundary}
            if not k and forest:
                # a constant some forest vertex sees
                k = sum(full[u] for u in g.neighbors(rng.choice(forest)))
            k = k or rng.randint(1, 8)
            mutation = case % 10
            if mutation == 0:
                forest = forest + rng.sample((-1, n, n + 3), rng.randint(1, 3))
            elif mutation in (1, 6):
                # closes a cycle when the forest was maximal (even cases)
                forest = forest + [rng.randrange(n)]
            elif mutation == 2 and labels:
                del labels[rng.choice(sorted(labels))]
            elif mutation == 4:
                labels[rng.randrange(n)] = rng.randint(1, 4)
            elif mutation == 5 and labels:
                labels[rng.choice(sorted(labels))] += rng.choice((-1, 1))
            got = []
            for extend in (extend_forest, reference_extend_forest):
                try:
                    got.append(extend(g, forest, labels, k))
                except InputError as exc:
                    got.append(str(exc))
            assert got[0] == got[1], (g.adjacency, forest, labels, k)
            if isinstance(got[1], str):
                errors.add(got[1])
            forced = isinstance(got[1], dict) and len(got[1]) > len(labels)
            outcomes[type(got[1]).__name__, forced] += 1
        # extensions that force labels, ones that keep the boundary, None
        # results, and input errors
        assert outcomes["dict", True] >= 300 and outcomes["dict", False] >= 400
        assert outcomes["NoneType", False] >= 900
        assert outcomes["str", False] >= 600
        assert {message.split()[0] for message in errors} == {"boundary", "designated", "forest"}

    def test_enumeration_superset_of_fair(self):
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(4, 7)
            g = Graph.from_edges(
                n,
                [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < 0.45
                ],
            )
            if g.min_degree() == 0:
                continue
            labels = S(*(rng.randint(1, 4) for _ in range(n)))
            fair, constants = brute_force_fair(g, labels)
            if not fair or not constants:
                continue
            k = min(constants)
            fvs = minimum_feedback_vertex_set(g)
            forest = [v for v in range(n) if v not in set(fvs)]
            extensions = list(
                enumerate_boundary_extensions(g, forest, labels, k, extra_boundary=fvs)
            )
            # at least one enumerated extension matches each fair labeling's restriction
            assert extensions, "fair instance lost all boundary extensions"
            for ext in extensions:
                usage = Counter(ext.values())
                assert all(labels.multiplicity(v) >= c for v, c in usage.items())


class TestBoundaryEnumeration:
    def test_same_stream_as_leaf_filtering(self):
        # pruning during the search cuts only leaves the leaf-time filters
        # reject, so the stream is exactly theirs, in the same order
        rng = random.Random(41)
        graphs = streams = 0
        while graphs < 100:
            if graphs % 2:
                g, labels, _, k = constructed_fair(rng, max_n=8)
                n = g.vertex_count
            else:
                n = rng.randint(3, 8)
                g = random_graph(rng, n, rng.choice((0.3, 0.45, 0.6)))
                if g.edge_count == 0:
                    continue
                labels = random_labels(rng, n, max_value=5, alpha_cap=3)
                perm = list(labels.values)
                rng.shuffle(perm)
                v = rng.choice([v for v in range(n) if g.degree(v) > 0])
                k = sum(perm[u] for u in g.neighbors(v))
            graphs += 1
            fvs = minimum_feedback_vertex_set(g)
            minimum = [u for u in range(n) if u not in set(fvs)]
            grown = random_induced_forest(rng, g)
            outside = [u for u in range(n) if u not in set(grown)]
            for forest, extra in (
                (minimum, fvs),
                (minimum, ()),
                (grown, outside),
                (grown, rng.sample(outside, len(outside) // 2)),
            ):
                expected = brute_boundary_extensions(g, forest, labels, k, extra)
                got = list(
                    enumerate_boundary_extensions(g, forest, labels, k, extra_boundary=extra)
                )
                assert got == expected, (g.adjacency, labels.values, k, forest, extra)
                streams += bool(expected)
        assert streams >= 100

    def test_counts_tried_pairs(self):
        # C4 with forest {1, 2, 3}: domain {0, 1, 3}, vertex 2 forced
        stats = SolveStats()
        got = list(
            enumerate_boundary_extensions(
                cycle_graph(4), [1, 2, 3], S(1, 2, 3, 4), 5, stats=stats
            )
        )
        assert got == [{0: 1, 1: 2, 3: 3, 2: 4}, {0: 1, 1: 3, 3: 2, 2: 4},
                       {0: 2, 1: 1, 3: 4, 2: 3}, {0: 2, 1: 4, 3: 1, 2: 3},
                       {0: 3, 1: 1, 3: 4, 2: 2}, {0: 3, 1: 4, 3: 1, 2: 2},
                       {0: 4, 1: 2, 3: 3, 2: 1}, {0: 4, 1: 3, 3: 2, 2: 1}]
        # every tried pair with a copy left at a free position: 4 + 4*3;
        # vertex 2's equation maps vertex 3 to K - l_1, which is no node
        assert stats.nodes == 16

    def test_empty_multiset(self):
        # nothing to label and no equation: the one empty labeling; a
        # domain to label without labels: nothing, and no IndexError
        assert list(enumerate_boundary_extensions(Graph(()), [], S(), 3)) == [{}]
        assert list(enumerate_boundary_extensions(path_graph(3), [0, 1, 2], S(), 3)) == []
        # an isolated vertex's equation sees 0, never K
        assert list(enumerate_boundary_extensions(Graph(((),)), [], S(), 3)) == []

    def test_rejects_interior_extra_vertex(self):
        with pytest.raises(InputError):
            list(enumerate_boundary_extensions(path_graph(3), [0, 1, 2], S(1, 1, 2), 2,
                                               extra_boundary=[1]))
