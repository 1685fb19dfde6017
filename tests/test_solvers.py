import itertools
import random

import pytest

from fairnet import (
    Graph,
    InputError,
    LabelMultiset,
    RefusalError,
    SemiMagicSpec,
    Shape,
    ThreePartitionInstance,
    Verdict,
    XsatFormula,
    complete_bipartite,
    cycle_graph,
    disjoint_union,
    empty_graph,
    fairness_constant_candidates,
    gen_3partition_k33,
    gen_3partition_stars,
    gen_circulant,
    gen_semimagic,
    gen_xsat,
    oracle_constants,
    parameter_report,
    path_graph,
    solve_auto,
    solve_fvs_alpha_delta,
    solve_oracle,
    solve_regular_fvs,
    solve_vc_alpha,
    solve_vc_delta,
    star_graph,
    verify,
)
from fairnet import search, solvers, special, structure
from fairnet.cli import run_algorithm
from fairnet.model import SolveStats
from fairnet.search import SearchTables, ordered_search
from fairnet.solvers import _candidates, _forced_constant
from support import (
    ForestExtender,
    brute_force_fair,
    constructed_fair,
    gauss_jordan_weights,
    grid,
    hypercube,
    orbit_oracle_tables,
    random_graph,
    random_instance,
    random_labels,
    recursive_ordered_search,
    recursive_tables,
    reference_enumerate_boundary_extensions,
    reference_oracle_tables,
    reference_ordered_eliminate,
    reference_parameter_report,
    reference_solve_regular_fvs,
)
from test_structure import NEGATIVE_WEIGHT, ZERO_WEIGHT


def S(*values):
    return LabelMultiset.from_iterable(values)


def k4():
    return Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


class TestOracle:
    def test_fair_cycle(self):
        out = solve_oracle(cycle_graph(4), S(1, 2, 3, 4))
        assert out.fair and out.certificate.constant == 5
        assert verify(cycle_graph(4), S(1, 2, 3, 4), out.certificate.labels) == 5

    def test_unfair_cycle(self):
        assert not solve_oracle(cycle_graph(6), S(1, 2, 3, 1, 2, 3)).fair

    def test_edgeless_vacuous(self):
        out = solve_oracle(empty_graph(3), S(1, 2, 3))
        assert out.fair and out.certificate.constant is None
        assert out.certificate.labels == (1, 2, 3)

    def test_pinned_constant(self):
        assert solve_oracle(cycle_graph(4), S(1, 2, 3, 4), k=5).fair
        assert not solve_oracle(cycle_graph(4), S(1, 2, 3, 4), k=6).fair
        with pytest.raises(InputError):
            solve_oracle(cycle_graph(4), S(1, 2, 3, 4), k=0)

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            solve_oracle(cycle_graph(4), S(1, 2, 3))

    def test_matches_brute_force(self):
        rng = random.Random(41)
        for _ in range(150):
            graph, labels = random_instance(rng, max_n=7, max_value=5)
            fair, constants = brute_force_fair(graph, labels)
            out = solve_oracle(graph, labels)
            assert out.fair == fair
            if out.fair and not graph.is_edgeless():
                result = verify(graph, labels, out.certificate.labels)
                assert result == out.certificate.constant
                assert result in constants

    def test_oracle_constants(self):
        assert oracle_constants(cycle_graph(4), S(1, 2, 3, 4)) == [5]
        assert oracle_constants(cycle_graph(6), S(1, 2, 3, 1, 2, 3)) == []
        assert oracle_constants(empty_graph(2), S(1, 2)) == []


class TestNodeBudget:
    """Every search refuses once it has tried more nodes than the budget."""

    @pytest.mark.parametrize("solve", [solve_oracle, solve_vc_alpha, solve_fvs_alpha_delta])
    def test_each_enumerator_refuses_past_the_budget(self, monkeypatch, solve):
        # Q4 with labels 1..16 takes the oracle 297,868 nodes
        monkeypatch.setattr(search, "ENUMERATION_CAP", 1000)
        with pytest.raises(RefusalError, match="node budget of 1000 nodes"):
            solve(hypercube(4), S(*range(1, 17)))

    def test_a_search_may_use_the_whole_budget(self, monkeypatch):
        # the 8-cycle with labels 1..8 is unfair after 8 nodes
        graph, labels = cycle_graph(8), S(*range(1, 9))
        monkeypatch.setattr(search, "ENUMERATION_CAP", 8)
        out = solve_oracle(graph, labels)
        assert not out.fair and out.stats.nodes == 8
        monkeypatch.setattr(search, "ENUMERATION_CAP", 7)
        with pytest.raises(RefusalError, match="node budget of 7 nodes"):
            solve_oracle(graph, labels)

    def test_the_planner_reads_the_search_budget(self):
        assert solvers.ENUMERATION_CAP is search.ENUMERATION_CAP == 5_000_000

    XSAT = gen_xsat(XsatFormula(3, ((0, 1, 2),) * 3))

    @pytest.mark.parametrize(
        "graph, labels, fair, nodes",
        [
            # more than 12 twin classes each, but small searches
            (XSAT.graph, XSAT.labels, True, 2),
            (hypercube(4), S(*[1, 2] * 8), True, 8),
            (grid(4, 5), S(*range(1, 21)), False, 0),
        ],
        ids=["xsat", "q4", "grid-4x5"],
    )
    def test_many_twin_classes_are_decided(self, graph, labels, fair, nodes):
        for solve in (solve_auto, solve_oracle):
            out = solve(graph, labels)
            assert (out.fair, out.stats.nodes) == (fair, nodes)

    def test_a_search_deeper_than_the_recursion_limit(self):
        # 1200 labeled positions, one per vertex, in one loop
        graph, labels = complete_bipartite(600, 600), S(*[1] * 1200)
        for solve in (solve_auto, solve_oracle):
            out = solve(graph, labels)
            assert (out.fair, out.stats.nodes) == (True, 1198)


class TestVcDelta:
    def test_delegates_with_bound_trace(self):
        # the bound needs no exact cover: it is the oracle's outcome as is
        out = solve_vc_delta(cycle_graph(4), S(1, 2, 3, 4))
        reference = solve_oracle(cycle_graph(4), S(1, 2, 3, 4))
        assert out.fair
        assert out.certificate == reference.certificate
        assert out.stats.trace == reference.stats.trace

    def test_pinned(self):
        assert not solve_vc_delta(cycle_graph(4), S(1, 2, 3, 4), k=7).fair


class TestFvsAlphaDelta:
    def test_fair_cycle(self):
        out = solve_fvs_alpha_delta(cycle_graph(4), S(1, 2, 3, 4), 5)
        assert out.fair
        assert verify(cycle_graph(4), S(1, 2, 3, 4), out.certificate.labels) == 5

    def test_wrong_constant(self):
        assert not solve_fvs_alpha_delta(cycle_graph(4), S(1, 2, 3, 4), 6).fair

    def test_pendant_screen(self):
        out = solve_fvs_alpha_delta(path_graph(4), S(1, 1, 1, 1), 2)
        assert not out.fair
        assert any("pendant" in line for line in out.stats.trace)

    def test_star_components_split_off(self):
        g = disjoint_union(cycle_graph(4), star_graph(2))
        labels = S(1, 2, 3, 4, 5, 2, 3)
        out = solve_fvs_alpha_delta(g, labels, 5)
        assert out.fair
        assert verify(g, labels, out.certificate.labels) == 5

    def test_no_graph_copy_without_star_components(self, monkeypatch):
        # the non-star part is the graph itself, and there is no star part
        copies = []
        induced = Graph.induced
        monkeypatch.setattr(
            Graph, "induced", lambda graph, vertices: copies.append(graph) or induced(graph, vertices)
        )
        grid = gen_semimagic(SemiMagicSpec(3, tuple(range(1, 10))))
        with_stars = disjoint_union(cycle_graph(4), star_graph(2))
        for graph, labels, fair, made in [
            (gen_circulant(10, 4), S(*range(1, 11)), False, 0),
            (gen_circulant(8, 4), S(*[1] * 4, *[2] * 4), True, 0),
            (grid.graph, grid.labels, True, 0),
            (with_stars, S(1, 2, 3, 4, 5, 2, 3), True, 2),
        ]:
            copies.clear()
            out = solve_fvs_alpha_delta(graph, labels)
            assert out.fair == fair and len(copies) == made
            if fair:
                assert out.certificate.check(graph, labels)
        copies.clear()
        assert solve_auto(grid.graph, grid.labels).fair
        assert copies == []

    def test_pure_stars(self):
        g = disjoint_union(star_graph(3), star_graph(3))
        out = solve_fvs_alpha_delta(g, S(1, 2, 3, 1, 2, 3, 6, 6), 6)
        assert out.fair

    def test_rejects_isolated(self):
        with pytest.raises(InputError):
            solve_fvs_alpha_delta(empty_graph(2), S(1, 2), 1)

    def test_one_elimination_per_solve(self, monkeypatch):
        # the boundary's elimination gives the forced constant too
        calls = []
        for module, name in ((solvers, "eliminate"), (solvers, "component_weights"),
                             (special, "eliminate")):
            original = getattr(module, name)
            monkeypatch.setattr(
                module, name,
                lambda *args, name=name, original=original: calls.append(name) or original(*args),
            )
        grid = gen_semimagic(SemiMagicSpec(3, tuple(range(1, 10))))
        with_stars = disjoint_union(cycle_graph(4), star_graph(2))
        for graph, labels, fair in [
            (gen_circulant(10, 4), S(*range(1, 11)), False),
            (grid.graph, grid.labels, True),
            (with_stars, S(1, 2, 3, 4, 5, 2, 3), True),
        ]:
            calls.clear()
            assert solve_fvs_alpha_delta(graph, labels).fair == fair
            assert calls == ["eliminate"]

    def test_a_large_part_without_a_constant_is_unfair_not_refused(self):
        graph = gen_circulant(33, 4)
        assert not solve_fvs_alpha_delta(graph, S(*[1] * 32, 2)).fair
        with pytest.raises(RefusalError, match="non-star part has 33 vertices"):
            solve_fvs_alpha_delta(graph, S(*[1] * 33))

    def test_matches_oracle(self):
        rng = random.Random(53)
        checked = 0
        while checked < 80:
            graph, labels = random_instance(rng, max_n=7, max_value=5)
            if graph.vertex_count == 0 or graph.min_degree() == 0:
                continue
            reference = solve_oracle(graph, labels)
            candidates = fairness_constant_candidates(graph, labels)
            got = any(
                solve_fvs_alpha_delta(graph, labels, k).fair for k in candidates
            )
            assert got == reference.fair
            checked += 1

    def test_fixed_k33_instances(self):
        # fixed benchmark instances on which labeling the whole boundary
        # before any check takes seconds
        fair = gen_3partition_k33(
            ThreePartitionInstance((5, 5, 1, 4, 3, 7, 2, 1, 3, 4, 8, 5), 4)
        )
        out = solve_fvs_alpha_delta(fair.graph, fair.labels, 12)
        assert out.certificate.labels == (1, 3, 8, 1, 4, 7, 2, 5, 5, 3, 4, 5)
        assert out.certificate.constant == 12
        unfair = gen_3partition_k33(
            ThreePartitionInstance((8, 2, 7, 1, 8, 1, 7, 7, 1, 2, 2, 2), 4)
        )
        assert not any(
            solve_fvs_alpha_delta(unfair.graph, unfair.labels, k).fair
            for k in fairness_constant_candidates(unfair.graph, unfair.labels)
        )

    def test_semimagic_scale(self):
        # the node count guards the pruning: labeling the whole boundary
        # before any check runs past 30 s here
        instance = gen_semimagic(SemiMagicSpec(3, tuple(range(1, 10))))
        out = solve_fvs_alpha_delta(instance.graph, instance.labels, 15)
        assert out.fair
        assert verify(instance.graph, instance.labels, out.certificate.labels) == 15
        assert out.stats.nodes == 56
        for k in fairness_constant_candidates(instance.graph, instance.labels):
            assert (
                solve_fvs_alpha_delta(instance.graph, instance.labels, k).fair
                == solve_vc_alpha(instance.graph, instance.labels, k).fair
            )


class TestVcAlpha:
    def test_fair_cycle(self):
        out = solve_vc_alpha(cycle_graph(4), S(1, 2, 3, 4), 5)
        assert out.fair
        assert verify(cycle_graph(4), S(1, 2, 3, 4), out.certificate.labels) == 5

    def test_wrong_constant(self):
        assert not solve_vc_alpha(cycle_graph(4), S(1, 2, 3, 4), 6).fair

    def test_semimagic_scale(self):
        # 15-vertex bipartite-ish instance the oracle refuses on
        from fairnet import SemiMagicSpec, gen_semimagic

        instance = gen_semimagic(SemiMagicSpec(3, tuple(range(1, 10))))
        out = solve_vc_alpha(instance.graph, instance.labels, 15)
        assert out.fair
        assert verify(instance.graph, instance.labels, out.certificate.labels) == 15

    def test_certificate_pinned(self):
        # cover {0, 1, 2}; independent classes {3, 4}, {5, 6} and {7}
        g = Graph.from_edges(
            8, [(0, 3), (1, 3), (0, 4), (1, 4), (1, 5), (2, 5), (1, 6), (2, 6), (0, 7), (2, 7)]
        )
        out = solve_vc_alpha(g, S(4, 4, 4, 4, 1, 3, 2, 2), 8)
        assert out.certificate.labels == (4, 4, 4, 2, 2, 1, 3, 4)

    def test_rejects_isolated(self):
        with pytest.raises(InputError):
            solve_vc_alpha(Graph.from_edges(3, [(0, 1)]), S(1, 2, 3), 2)

    def test_matches_oracle(self):
        rng = random.Random(67)
        checked = 0
        while checked < 80:
            graph, labels = random_instance(rng, max_n=7, max_value=5)
            if graph.vertex_count == 0 or graph.min_degree() == 0:
                continue
            reference = solve_oracle(graph, labels)
            candidates = fairness_constant_candidates(graph, labels)
            got = any(solve_vc_alpha(graph, labels, k).fair for k in candidates)
            assert got == reference.fair
            checked += 1


class TestRegularFvs:
    def test_matching_all_equal(self):
        g = disjoint_union(path_graph(2), path_graph(2))
        out = solve_regular_fvs(g, S(3, 3, 3, 3))
        assert out.fair and out.certificate.constant == 3

    def test_matching_mixed_values(self):
        g = disjoint_union(path_graph(2), path_graph(2))
        assert not solve_regular_fvs(g, S(2, 2, 4, 4)).fair

    def test_divisibility_reject(self):
        assert not solve_regular_fvs(cycle_graph(3), S(1, 1, 2)).fair

    def test_two_cycles_period4(self):
        g = disjoint_union(cycle_graph(4), cycle_graph(4))
        labels = S(1, 1, 2, 2, 3, 3, 4, 4)
        out = solve_regular_fvs(g, labels)
        assert out.fair
        assert verify(g, labels, out.certificate.labels) == 5

    def test_mixed_plain_and_period4(self):
        g = disjoint_union(cycle_graph(3), cycle_graph(4))
        labels = S(2, 2, 2, 1, 1, 3, 3)
        out = solve_regular_fvs(g, labels)
        assert out.fair
        assert verify(g, labels, out.certificate.labels) == 4

    def test_period4_union_certificate_pinned(self):
        # C4 + C8 admit several pattern allocations; the counting program
        # picks its lexicographically smallest one
        g = disjoint_union(cycle_graph(4), cycle_graph(8))
        labels = S(1, 1, 1, 1, 5, 5, 5, 5, 2, 2, 4, 4)
        out = solve_regular_fvs(g, labels)
        assert out.certificate.labels == (2, 2, 4, 4, 1, 1, 5, 5, 1, 1, 5, 5)
        assert out.certificate.constant == 6

    def test_alpha_bound_reject(self):
        # single cycle, five distinct values > 4 patterns can hold
        g = cycle_graph(5)
        out = solve_regular_fvs(g, S(1, 2, 3, 4, 5))
        assert not out.fair

    def test_cubic_delegates(self):
        out = solve_regular_fvs(complete_bipartite(3, 3), S(1, 2, 3, 1, 2, 3))
        assert out.fair
        assert out.certificate.constant == 6

    def test_k4_all_equal(self):
        out = solve_regular_fvs(k4(), S(2, 2, 2, 2))
        assert out.fair and out.certificate.constant == 6

    def test_pinned_mismatch(self):
        assert not solve_regular_fvs(cycle_graph(4), S(1, 2, 3, 4), k=6).fair
        assert solve_regular_fvs(cycle_graph(4), S(1, 2, 3, 4), k=5).fair

    def test_rejects_irregular(self):
        with pytest.raises(InputError):
            solve_regular_fvs(path_graph(3), S(1, 2, 3))
        with pytest.raises(InputError):
            solve_regular_fvs(empty_graph(2), S(1, 2))

    def test_matches_oracle_on_cycle_unions(self):
        rng = random.Random(71)
        for _ in range(60):
            lengths = [rng.choice((3, 4, 5)) for _ in range(rng.randint(1, 2))]
            g = disjoint_union(*(cycle_graph(n) for n in lengths))
            if g.vertex_count > 8:
                continue
            labels = S(*(rng.randint(1, 4) for _ in range(g.vertex_count)))
            fair, _ = brute_force_fair(g, labels)
            out = solve_regular_fvs(g, labels)
            assert out.fair == fair


class TestAuto:
    def test_edgeless_vacuous(self):
        out = solve_auto(empty_graph(3), S(5, 6, 7))
        assert out.fair and out.certificate.constant is None

    def test_isolated_mixed_unfair(self):
        g = disjoint_union(cycle_graph(3), empty_graph(1))
        out = solve_auto(g, S(1, 1, 1, 9))
        assert not out.fair

    def test_pendant_screen(self):
        out = solve_auto(path_graph(4), S(1, 1, 1, 1))
        assert not out.fair
        assert any("pendant" in line for line in out.stats.trace)

    def test_regular_requested_constant_is_unfair_at_once(self):
        # the one constant of C10(1,2) with labels 1..10 is 4 * 55 / 10 = 22
        for k in (21, 23):
            out = solve_auto(gen_circulant(10, 4), S(*range(1, 11)), k)
            assert not out.fair and out.stats.nodes == 0
            assert out.stats.trace == ["regular graph of degree 4: no fairness constant"]

    def test_star_route(self):
        g = disjoint_union(star_graph(3), star_graph(3))
        labels = S(1, 2, 3, 1, 2, 3, 6, 6)
        out = solve_auto(g, labels)
        assert out.fair
        assert verify(g, labels, out.certificate.labels) == 6

    def test_regular_route(self):
        out = solve_auto(cycle_graph(4), S(1, 2, 3, 4))
        assert out.fair and out.certificate.constant == 5

    def test_general_route(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        labels = S(1, 1, 2, 2, 2)
        reference = solve_oracle(g, labels)
        out = solve_auto(g, labels)
        assert out.fair == reference.fair

    def test_pinned_constant(self):
        assert solve_auto(cycle_graph(4), S(1, 2, 3, 4), k=5).fair
        assert not solve_auto(cycle_graph(4), S(1, 2, 3, 4), k=6).fair
        # vacuous fairness has no integer constant to contradict
        assert solve_auto(empty_graph(2), S(1, 2), k=9).fair

    def test_matches_oracle(self):
        rng = random.Random(83)
        for _ in range(150):
            graph, labels = random_instance(rng, max_n=7, max_value=5)
            fair, _ = brute_force_fair(graph, labels)
            out = solve_auto(graph, labels)
            assert out.fair == fair
            if out.fair and not graph.is_edgeless():
                assert (
                    verify(graph, labels, out.certificate.labels)
                    == out.certificate.constant
                )

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            solve_auto(cycle_graph(3), S(1, 2))

    @pytest.mark.parametrize(
        "entries, effort, k",
        [
            ((1, 2, 8, 5, 7, 9, 2, 5, 6), (3301, 2), 15),
            ((4, 3, 7, 2, 1, 3, 4, 8, 5), (0, 0), 12),
        ],
    )
    def test_ilp_bound_semimagic_grids(self, entries, effort, k):
        # unfair grids on which vc-alpha reaches the ILP twice at k; the
        # counts pin the search and the number of programs it hands to the
        # ILP.  auto searches only the forced constant sum / 6, which the
        # second grid's sum 73 does not have
        instance = gen_semimagic(SemiMagicSpec(3, entries))
        out = solve_auto(instance.graph, instance.labels)
        assert not out.fair
        assert (out.stats.nodes, out.stats.ilp_calls) == effort
        pinned = solve_vc_alpha(instance.graph, instance.labels, k)
        assert not pinned.fair
        assert (pinned.stats.nodes, pinned.stats.ilp_calls) == (3301, 2)


class TestParameterReport:
    def test_cycle(self):
        choice = parameter_report(cycle_graph(4), S(1, 2, 3, 4))
        assert solve_auto(cycle_graph(4), S(1, 2, 3, 4)).stats.strategy == "auto"
        assert choice.fvs == 1 and choice.vc == 2
        assert choice.delta == 2 and choice.alpha == 4 and choice.regular == 2

    def test_stars_use_closed_form(self):
        assert solve_auto(star_graph(3), S(1, 2, 3, 6)).stats.strategy == "auto"

    def test_general_graph_picks_bounded_strategy(self):
        # two triangles sharing vertex 2, which takes 3 and the rest 1, K = 4
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        labels = S(1, 1, 3, 1, 1)
        assert solve_auto(g, labels).stats.strategy in ("vc-alpha", "fvs-alpha-delta")
        choice = parameter_report(g, labels)
        assert choice.fvs == 1 and choice.vc == 3

    def test_runs_no_shape_screen_or_plan(self, monkeypatch):
        def unexpected(*args):
            raise AssertionError("the report re-planned")

        for name in ("classify", "_plan_general", "constant_bounds"):
            monkeypatch.setattr(solvers, name, unexpected)
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        instances = ((g, S(1, 1, 3, 1, 1)), (k4(), S(1, 2, 3, 4)), (star_graph(3), S(1, 2, 3, 6)))
        for graph, labels in instances:
            assert parameter_report(graph, labels).fvs is not None

    def test_large_graph_skips_exact_parameters(self):
        n = 40
        g = cycle_graph(n)
        choice = parameter_report(g, S(*([2] * n)))
        assert choice.fvs is None and choice.vc is None


class TestEnumerators:
    @pytest.mark.parametrize(
        "family, algo, pinned",
        [
            ("circulant", "oracle", (False, None, 10, 0)),
            ("circulant", "vc-alpha", (False, None, 74436, 116)),
            ("circulant", "fvs-alpha-delta", (False, None, 10, 0)),
            ("3part-k33", "oracle", (True, (1, 3, 5, 2, 3, 4), 5, 0)),
            ("3part-k33", "vc-alpha", (True, (1, 3, 5, 2, 3, 4), 10, 1)),
            ("3part-k33", "fvs-alpha-delta", (True, (1, 3, 5, 2, 3, 4), 5, 0)),
        ],
    )
    def test_outputs_pinned(self, family, algo, pinned):
        # the three searches share one kernel; these counts pin its pruning
        if family == "circulant":
            graph, labels = gen_circulant(10, 4), S(*range(1, 11))
        else:
            made = gen_3partition_k33(ThreePartitionInstance((4, 3, 2, 5, 1, 3), 2))
            graph, labels = made.graph, made.labels
        out = run_algorithm(algo, graph, labels, None)
        cert = out.certificate
        assert (out.fair, cert and cert.labels, out.stats.nodes, out.stats.ilp_calls) == pinned
        if out.fair:
            assert cert.constant == 9

    @pytest.mark.parametrize("solver", [solve_vc_alpha, solve_fvs_alpha_delta])
    def test_one_pass_matches_per_constant_calls(self, solver):
        # one setup over the candidates decides as the per-constant loop does
        rng = random.Random(211)
        checked = 0
        while checked < 45:
            if checked % 3 == 0:
                graph, labels, _, _ = constructed_fair(rng, max_n=8)
            elif checked % 3 == 1:
                n = rng.randint(4, 8)
                graph, labels = random_graph(rng, n, 0.5), random_labels(rng, n, 9)
            else:
                entries = tuple(rng.randint(1, 3) for _ in range(9))
                made = gen_semimagic(SemiMagicSpec(3, entries))
                graph, labels = made.graph, made.labels
            if graph.min_degree() == 0:
                continue
            whole = solver(graph, labels)
            nodes = ilp_calls = 0
            first = None
            for k in _candidates(graph, labels)[0]:
                out = solver(graph, labels, k)
                nodes += out.stats.nodes
                ilp_calls += out.stats.ilp_calls
                if out.fair:
                    first = out.certificate
                    break
            assert whole.fair == (first is not None)
            assert whole.certificate == first
            assert (whole.stats.nodes, whole.stats.ilp_calls) == (nodes, ilp_calls)
            checked += 1


def _first_fair_per_constant(solver, graph, labels):
    """The first fair outcome of per-constant calls over every candidate."""
    for k in fairness_constant_candidates(graph, labels):
        out = solver(graph, labels, k)
        if out.fair:
            return out
    return None


def _planted_semimagic(rng):
    """A shuffled positive sum of the 3x3 permutation matrices: fair."""
    while True:
        grid = [0] * 9
        for perm in itertools.permutations(range(3)):
            weight = rng.randint(0, 3)
            for i in range(3):
                grid[3 * i + perm[i]] += weight
        if min(grid) >= 1:
            rng.shuffle(grid)
            return gen_semimagic(SemiMagicSpec(3, tuple(grid)))


def _family_instances(rng):
    """Seeded instances of every generator family, fair ones among them."""
    made = [gen_semimagic(SemiMagicSpec(3, tuple(rng.randint(1, 4) for _ in range(9))))
            for _ in range(6)]
    made += [_planted_semimagic(rng) for _ in range(4)]
    for values in [(1, 2, 3, 3, 2, 1), (1, 1, 4, 2, 2, 2), (1, 1, 1, 5, 3, 1)]:
        source = ThreePartitionInstance(values, 2)
        made += [gen_3partition_k33(source), gen_3partition_stars(source)]
    made.append(gen_xsat(XsatFormula(3, ((0, 1, 2),) * 3)))
    instances = [(inst.graph, inst.labels) for inst in made]
    for n in (8, 9, 10):
        instances.append((gen_circulant(n, 4), S(*[rng.randint(1, 5)] * n)))
        for _ in range(3):
            labels = S(*rng.sample(range(1, 2 * n + 1), n))
            instances.append((gen_circulant(n, 4), labels))
    return instances


COMPLETE_4 = Graph.from_edges(4, list(itertools.combinations(range(4), 2)))


def _spy_eliminations(monkeypatch) -> list:
    """The (graph, order) of each `eliminate` call the solvers make, directly
    or through `structure.component_weights`."""
    calls = []
    original = structure.eliminate

    def counted(graph, order=None):
        calls.append((graph, order))
        return original(graph, order)

    monkeypatch.setattr(solvers, "eliminate", counted)
    monkeypatch.setattr(structure, "eliminate", counted)
    return calls


class TestForcedConstant:
    """The forced constant is the only one a fair labeling can have."""

    def test_contains_every_realized_constant(self):
        rng = random.Random(907)
        fair_count = 0
        for i in range(2400):
            if i % 4 == 0:
                graph, labels, _, _ = constructed_fair(rng, max_n=8)
            else:
                graph, labels = random_instance(rng, max_n=8)
            if graph.is_edgeless():
                continue
            fair, constants = brute_force_fair(graph, labels)
            assert fair == bool(constants)
            assert constants <= {_forced_constant(graph, labels)}
            fair_count += fair
        assert fair_count >= 500

    def test_contains_every_realized_constant_on_generator_families(self):
        rng = random.Random(911)
        fair_count = 0
        for graph, labels in _family_instances(rng):
            realized = {
                k for k in fairness_constant_candidates(graph, labels)
                if solve_vc_alpha(graph, labels, k).fair
            }
            assert realized <= {_forced_constant(graph, labels)}
            fair_count += bool(realized)
        assert fair_count >= 11

    def test_strategies_match_first_fair_per_constant_call(self):
        rng = random.Random(919)
        checked = 0
        while checked < 600:
            if checked % 2 == 0:
                graph, labels, _, _ = constructed_fair(rng, max_n=8)
            else:
                graph, labels = random_instance(rng, max_n=8)
            if graph.vertex_count == 0 or graph.min_degree() == 0:
                continue
            for solver in (solve_auto, solve_oracle, solve_vc_alpha, solve_fvs_alpha_delta):
                whole = solver(graph, labels)
                first = _first_fair_per_constant(solver, graph, labels)
                assert whole.fair == (first is not None)
                assert whole.certificate == (first.certificate if first else None)
            checked += 1

    def test_elimination_runs_once_per_solve(self, monkeypatch):
        # the forced constant's elimination in id order runs once; an
        # fvs-alpha-delta plan makes its own in the boundary's order
        calls = _spy_eliminations(monkeypatch)
        grid = gen_semimagic(SemiMagicSpec(3, (1, 2, 8, 5, 7, 9, 2, 5, 6)))
        bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        for graph, labels in [(grid.graph, grid.labels), (bowtie, S(1, 1, 1, 1, 3))]:
            calls.clear()
            solve_auto(graph, labels)
            assert [order for _graph, order in calls].count(None) == 1

    def test_auto_hands_its_elimination_to_the_oracle(self, monkeypatch):
        # 36 vertices: past the exact-parameter limit, so auto plans the
        # oracle, which searches on the forced constant's elimination
        calls = _spy_eliminations(monkeypatch)
        graph = disjoint_union(*[COMPLETE_4] * 5, *[cycle_graph(4)] * 4)
        labels = S(*[2] * 20, *[3] * 16)
        out = solve_auto(graph, labels)
        assert out.fair and out.certificate.constant == 6
        assert (out.stats.strategy, out.stats.nodes) == ("oracle", 8)
        assert calls == [(graph, None)]
        calls.clear()
        alone = solve_oracle(graph, labels)
        assert calls == [(graph, None)]
        assert (alone.certificate, alone.stats.nodes) == (out.certificate, out.stats.nodes)

    def test_no_constant_without_a_positive_weight(self):
        for graph in (ZERO_WEIGHT, NEGATIVE_WEIGHT):
            for value in (1, 2, 3):
                assert _forced_constant(graph, S(*[value] * graph.vertex_count)) is None

    def test_oracle_without_a_constant_is_unfair_at_once(self):
        out = solve_oracle(path_graph(5), S(1, 1, 1, 1, 1))
        assert not out.fair and out.stats.nodes == 0
        assert out.stats.trace == ["no fairness constant"]

    def test_huge_label_range_is_decided_not_refused(self):
        # the degree interval spans millions of constants, but no constant
        # is forced: decided without listing the range
        graph, labels = complete_bipartite(2, 3), S(1, 3, 5, 2000000, 4000000)
        with pytest.raises(RefusalError, match="too large to enumerate"):
            fairness_constant_candidates(graph, labels)
        assert _forced_constant(graph, labels) is None
        for solver in (solve_auto, solve_vc_alpha, solve_fvs_alpha_delta, solve_oracle):
            assert not solver(graph, labels).fair

    def test_forced_constant_must_pass_the_candidate_bounds(self):
        # on P4 a pendant vertex makes the constant a label value
        graph = path_graph(4)
        assert _forced_constant(graph, S(1, 2, 3, 4)) == 5
        assert fairness_constant_candidates(graph, S(1, 2, 3, 4)) == [3, 4]
        assert _candidates(graph, S(1, 2, 3, 4))[0] == []
        assert _candidates(graph, S(1, 1, 1, 3))[0] == [3]
        assert _candidates(graph, S(1, 1, 1, 3), 3)[0] == [3]
        assert _candidates(graph, S(1, 1, 1, 3), 2)[0] == []
        # forced 5 lies in the degree interval [2, 7] but is no label value
        assert _forced_constant(graph, S(1, 1, 1, 7)) == 5
        assert _candidates(graph, S(1, 1, 1, 7))[0] == []
        # no pendant vertex: forced 11 lies below the degree interval [12, 15]
        graph = Graph.from_edges(6, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 3), (1, 4),
                                     (2, 3), (2, 4), (2, 5), (3, 5), (4, 5)])
        labels = S(1, 1, 5, 5, 5, 5)
        assert _forced_constant(graph, labels) == 11
        assert fairness_constant_candidates(graph, labels) == [12, 13, 14, 15]
        assert _candidates(graph, labels)[0] == []


def _use_tables(patch, build):
    """Make the oracle search the tables `build(graph)` makes, which take no
    elimination."""
    patch.setattr(solvers, "_oracle_tables", lambda graph, _elimination=None: build(graph))


def _orbit_instances(rng):
    """Seeded oracle instances: planted fair ones, G(n, 0.5) and 4-regular
    circulants with repeated labels."""
    instances = []
    for i in range(900):
        if i % 3 == 0:
            graph, labels, _, _ = constructed_fair(rng, max_n=9)
        elif i % 3 == 1:
            n = rng.randint(2, 9)
            graph, labels = random_graph(rng, n, 0.5), random_labels(rng, n, 6)
        else:
            n = rng.randint(6, 9)
            graph = gen_circulant(n, 4)
            pool = rng.sample(range(1, 7), 3)
            labels = S(*(rng.choice(pool) for _ in range(n)))
            if i % 6 == 2:
                # repeat a constant-friendly multiset: pairs summing alike
                low = rng.randint(1, 3)
                labels = S(*[low, low + 2] * (n // 2) + [low + 1] * (n % 2))
        instances.append((graph, labels))
    return instances


class TestOrbitFloors:
    """The orbit floors keep the oracle's outcome, in no more nodes."""

    def test_same_outcomes_as_the_floorless_oracle(self, monkeypatch):
        rng = random.Random(929)
        fair_count = saved = 0
        for graph, labels in _orbit_instances(rng):
            ours = solve_oracle(graph, labels)
            constants = oracle_constants(graph, labels)
            with monkeypatch.context() as patch:
                _use_tables(patch, reference_oracle_tables)
                reference = solve_oracle(graph, labels)
                reference_constants = oracle_constants(graph, labels)
            assert ours.verdict == reference.verdict
            assert ours.certificate == reference.certificate
            assert constants == reference_constants
            assert ours.stats.nodes <= reference.stats.nodes
            fair_count += ours.fair
            saved += reference.stats.nodes - ours.stats.nodes
        assert fair_count >= 250
        assert saved > 0

    def test_every_oracle_path_searches_fewer_nodes(self, monkeypatch):
        # three disjoint K3,3 (3-regular, so auto hands it to the oracle):
        # the elimination leaves 12 free positions, so the orbit is computed
        w = (1, 1, 3, 4, 6, 6, 1, 1, 6, 6, 3, 6, 5, 6, 4, 3, 6, 4)
        made = gen_3partition_k33(ThreePartitionInstance(w, 6))
        graph, labels = made.graph, made.labels
        assert graph.vertex_count - len(solvers.eliminate(graph).pivots) == 12
        reached = {
            "auto": solve_auto(graph, labels).stats.nodes,
            "regular-fvs": solve_regular_fvs(graph, labels).stats.nodes,
            "oracle": solve_oracle(graph, labels).stats.nodes,
        }
        monkeypatch.setattr(solvers, "ORBIT_NODE_BUDGET", 0)
        before = solve_oracle(graph, labels)
        assert not before.fair and before.stats.nodes == 212
        assert reached == dict.fromkeys(reached, 58)

    def test_one_free_position_skips_the_orbit(self, monkeypatch):
        # with at most one free position the search is one loop over the
        # values; it takes the floorless oracle's nodes, at most alpha
        rng = random.Random(937)
        instances = [
            (graph, labels) for graph, labels in _orbit_instances(rng)
            if graph.vertex_count - len(solvers.eliminate(graph).pivots) <= 1
        ]
        outcomes = [solve_oracle(graph, labels) for graph, labels in instances]

        def refused(*args):
            raise AssertionError("the orbit was computed")

        monkeypatch.setattr(solvers, "first_vertex_orbit", refused)
        gated = [solve_oracle(graph, labels) for graph, labels in instances]
        monkeypatch.setattr(solvers, "ORBIT_NODE_BUDGET", 0)
        floorless = [solve_oracle(graph, labels) for graph, labels in instances]
        for (_graph, labels), ours, again, reference in zip(instances, outcomes, gated, floorless):
            assert ours.certificate == again.certificate == reference.certificate
            assert ours.stats.nodes == again.stats.nodes == reference.stats.nodes
            assert ours.stats.nodes <= labels.alpha
        assert len(instances) >= 250
        assert sum(out.fair for out in outcomes) >= 50


# the six 3x3 permutation matrices, as the column of each row's one
_PERMUTATIONS = list(itertools.permutations(range(3)))


def _planted_grid(rng):
    """A shuffled positive sum of permutation matrices: equal line sums."""
    while True:
        grid = [0] * 9
        for perm in _PERMUTATIONS:
            weight = rng.randint(0, 3)
            for row, col in enumerate(perm):
                grid[3 * row + col] += weight
        if min(grid) >= 1:
            rng.shuffle(grid)
            return tuple(grid)


def _forcing_instances(rng):
    """Seeded oracle instances: planted fair ones, 4-regular circulants with
    repeated labels, 3part-k33 and 3x3 semimagic encodings, and G(n, p)."""
    instances = []
    for i in range(900):
        kind = i % 6
        if kind == 0:
            graph, labels, _, _ = constructed_fair(rng, max_n=9)
        elif kind == 1:
            n = rng.randint(6, 10)
            graph = gen_circulant(n, 4)
            pool = rng.sample(range(1, 7), 3)
            labels = S(*(rng.choice(pool) for _ in range(n)))
            if i % 12 == 1:
                low = rng.randint(1, 3)
                labels = S(*[low, low + 2] * (n // 2) + [low + 1] * (n % 2))
        elif kind == 2:
            m = rng.choice((2, 4))
            while True:
                w = tuple(rng.randint(1, 5) for _ in range(3 * m))
                if sum(w) % m == 0:
                    break
            made = gen_3partition_k33(ThreePartitionInstance(w, m))
            graph, labels = made.graph, made.labels
        elif kind == 3:
            entries = (
                _planted_grid(rng) if i % 12 == 3
                else tuple(rng.randint(1, 4) for _ in range(9))
            )
            made = gen_semimagic(SemiMagicSpec(3, entries))
            graph, labels = made.graph, made.labels
        else:
            n = rng.randint(2, 9)
            graph = random_graph(rng, n, rng.choice((0.35, 0.5, 0.75)))
            labels = random_labels(rng, n, 6)
        instances.append((graph, labels))
    return instances


class TestLinearForcing:
    """The pivot maps keep the oracle's outcome, in no more nodes."""

    def test_same_outcomes_as_the_orbit_oracle(self, monkeypatch):
        rng = random.Random(1013)
        fair_count = saved = 0
        for graph, labels in _forcing_instances(rng):
            ours = solve_oracle(graph, labels)
            constants = oracle_constants(graph, labels)
            with monkeypatch.context() as patch:
                _use_tables(patch, orbit_oracle_tables)
                reference = solve_oracle(graph, labels)
                reference_constants = oracle_constants(graph, labels)
            assert ours.verdict == reference.verdict
            assert ours.certificate == reference.certificate
            assert constants == reference_constants
            assert ours.stats.nodes <= reference.stats.nodes
            assert list(solvers.eliminate(graph).weights) == gauss_jordan_weights(graph)
            fair_count += ours.fair
            saved += reference.stats.nodes - ours.stats.nodes
        assert fair_count >= 250
        assert saved > 0

    def test_one_elimination_per_oracle_solve(self, monkeypatch):
        calls = []
        for name in ("eliminate", "component_weights"):
            original = getattr(solvers, name)
            monkeypatch.setattr(
                solvers, name,
                lambda graph, name=name, original=original: calls.append(name) or original(graph),
            )
        made = gen_3partition_k33(ThreePartitionInstance((4, 3, 2, 5, 1, 3), 2))
        for k in (None, 9):
            calls.clear()
            assert solve_oracle(made.graph, made.labels, k).fair
            assert calls == ["eliminate"]

    def test_a_mapped_position_takes_its_one_value(self):
        # no equations: l_1 = (K - l_0) / 2 alone decides, for K = 5
        def run(labels, k, ties=()):
            tables = SearchTables((0, 1), ((), ()), (), ((), ()), ties=ties,
                                  maps=(None, (2, 1, ((0, 1),))))
            stats = SolveStats()
            found = [tuple(values) for values in ordered_search(tables, labels, stats, k)]
            return found, stats.nodes

        # l_0 = 2 leaves 3/2, no integer; only the free position is a node
        assert run(S(1, 2, 3), 5) == ([(1, 2), (3, 1)], 3)
        # the mapped value obeys the position's floor
        assert run(S(1, 2, 3), 5, ties=(None, (0, False))) == ([(1, 2)], 3)
        # and needs a copy left: l_0 = 3 leaves 0
        assert run(S(1, 1, 3), 3) == ([(1, 1)], 2)

    def test_constants_are_enumerated_without_maps(self):
        graph = gen_circulant(10, 4)
        assert solvers._oracle_tables(graph).maps == ()
        labels = S(*[1, 3] * 5)
        assert oracle_constants(graph, labels) == [8]
        assert solve_oracle(graph, labels).certificate.constant == 8


def _with_star(rng, graph, labels, k):
    """The instance with a star whose center takes k and whose leaves sum
    to k added, so it stays fair if it was."""
    leaves = rng.randint(1, min(3, k))
    values = [1] * leaves
    for _ in range(k - leaves):
        values[rng.randrange(leaves)] += 1
    return (
        disjoint_union(graph, star_graph(leaves)),
        S(*labels.values, k, *values),
    )


def _boundary_instances(rng):
    """Seeded fvs-alpha-delta instances, each with None or a requested
    constant: planted fair ones, 4-regular circulants with repeated labels,
    3part-k33 and 3part-stars with m 2-4, 3x3 semimagic encodings, and G(n, p)
    with min degree 2 and star components, some planted fair."""
    instances = []
    for i in range(960):
        kind = i % 6
        k = None
        if kind == 0:
            graph, labels, _, _ = constructed_fair(rng, max_n=9)
        elif kind == 1:
            n = rng.randint(6, 10)
            graph = gen_circulant(n, 4)
            pool = rng.sample(range(1, 7), 3)
            labels = S(*(rng.choice(pool) for _ in range(n)))
            if i % 12 == 1:
                low = rng.randint(1, 3)
                labels = S(*[low, low + 2] * (n // 2) + [low + 1] * (n % 2))
        elif kind == 2:
            m = rng.randint(2, 4)
            while True:
                w = tuple(rng.randint(1, 5) for _ in range(3 * m))
                if sum(w) % m == 0:
                    break
            generate = gen_3partition_k33 if i % 12 == 2 else gen_3partition_stars
            made = generate(ThreePartitionInstance(w, m))
            graph, labels = made.graph, made.labels
        elif kind == 3:
            entries = (
                _planted_grid(rng) if i % 12 == 3
                else tuple(rng.randint(1, 4) for _ in range(9))
            )
            made = gen_semimagic(SemiMagicSpec(3, entries))
            graph, labels = made.graph, made.labels
        elif kind == 4:
            while True:
                graph, labels, _, k = constructed_fair(rng, max_n=8)
                if graph.max_degree() < graph.vertex_count - 1:
                    break
            graph, labels = _with_star(rng, graph, labels, k)
            k = rng.choice((None, k))
        else:
            n = rng.randint(4, 10)
            while True:
                graph = random_graph(rng, n, rng.choice((0.45, 0.6, 0.8)))
                if graph.min_degree() >= 2:
                    break
            labels = random_labels(rng, n, 6)
            if i % 12 == 11:
                # a constant some permutation of the labels gives vertex 0
                perm = list(labels.values)
                rng.shuffle(perm)
                k = sum(perm[u] for u in graph.adjacency[0])
                graph, labels = _with_star(rng, graph, labels, k)
        instances.append((graph, labels, k))
    return instances


class TestBoundaryForcing:
    """The pivot maps keep fvs-alpha-delta's outcome, in no more nodes."""

    def test_same_outcomes_as_the_reference(self, monkeypatch):
        rng = random.Random(1409)
        fair_count = enumerated = saved = 0
        for graph, labels, k in _boundary_instances(rng):
            ours = solve_fvs_alpha_delta(graph, labels, k)
            with monkeypatch.context() as patch:
                # the reference eliminates on its own and takes no elimination
                patch.setattr(
                    solvers, "enumerate_boundary_extensions",
                    lambda *args, elimination, **kwargs:
                        reference_enumerate_boundary_extensions(*args, **kwargs),
                )
                reference = solve_fvs_alpha_delta(graph, labels, k)
            assert ours.verdict == reference.verdict, (graph.adjacency, labels.values, k)
            assert ours.certificate == reference.certificate
            assert ours.stats.nodes <= reference.stats.nodes
            fair_count += ours.fair
            enumerated += reference.stats.nodes > 0
            saved += reference.stats.nodes - ours.stats.nodes
        assert fair_count >= 300
        assert enumerated >= 400
        assert saved > 0

    def test_maps_only_where_every_equation_is_checked(self, monkeypatch):
        # a boundary domain that leaves a vertex's equation unchecked gets
        # no maps, so its stream is the reference's; covered, it gets maps
        seen = []
        real = special.ordered_search

        def spy(tables, *args):
            seen.append(tables.maps)
            return real(tables, *args)

        monkeypatch.setattr(special, "ordered_search", spy)
        graph, labels = cycle_graph(6), S(1, 2, 3, 1, 2, 3)
        # forest {1, 2}: domain {0, 1, 2, 3}, vertices 4 and 5 unknown
        partial = list(special.enumerate_boundary_extensions(graph, [1, 2], labels, 4))
        assert partial == list(reference_enumerate_boundary_extensions(graph, [1, 2], labels, 4))
        assert seen.pop() == []
        list(special.enumerate_boundary_extensions(graph, [1, 2, 3, 4], labels, 4))
        assert any(seen.pop())


# yields compared per search: enough to pass a fair labeling or many
_STREAM_PREFIX = 64


def _record_searches(patch, module) -> list:
    """(tables, labels, k) of every search the module's solvers start."""
    seen = []
    real = module.ordered_search

    def spy(tables, labels, stats, k):
        seen.append((tables, labels, k))
        return real(tables, labels, stats, k)

    patch.setattr(module, "ordered_search", spy)
    return seen


def _assert_same_stream(tables, labels, k):
    """The loop yields what the recursive kernel yields, in its order and
    in the same nodes, over a prefix of the stream."""
    ours, theirs = SolveStats(), SolveStats()
    loop = ordered_search(tables, labels, ours, k)
    recursive = recursive_ordered_search(recursive_tables(tables), labels, theirs, k)
    got = [tuple(values) for values in itertools.islice(loop, _STREAM_PREFIX)]
    want = [tuple(values) for values, _k in itertools.islice(recursive, _STREAM_PREFIX)]
    assert got == want
    assert ours.nodes == theirs.nodes


class TestSearchLoop:
    """The search loop yields the recursive kernel's stream, in its order
    and nodes, on the enumerators' corpora."""

    def test_oracle_tables_with_and_without_maps_and_ties(self, monkeypatch):
        rng = random.Random(1013)
        mapped = yielded = 0
        for graph, labels in _forcing_instances(rng):
            with monkeypatch.context() as patch:
                seen = _record_searches(patch, solvers)
                solve_oracle(graph, labels)
            if not seen:
                continue
            tables, labels, k = seen[0]
            mapped += any(tables.maps)
            n, adjacency = graph.vertex_count, graph.adjacency
            plain = SearchTables(tuple(range(n)), adjacency, graph.degrees, adjacency)
            for each in (tables, solvers._oracle_tables(graph), reference_oracle_tables(graph),
                         plain):
                _assert_same_stream(each, labels, k)
            yielded += next(ordered_search(plain, labels, SolveStats(), k), None) is not None
        assert mapped >= 550 and yielded >= 400

    def test_cover_tables_with_root_checks(self, monkeypatch):
        rng = random.Random(1409)
        rooted = 0
        for graph, labels, k in _boundary_instances(rng)[::2]:
            with monkeypatch.context() as patch:
                seen = _record_searches(patch, solvers)
                try:
                    solve_vc_alpha(graph, labels, k)
                except RefusalError:
                    continue
            for tables, labels, k in seen:
                rooted += bool(tables.root_checks)
                _assert_same_stream(tables, labels, k)
        assert rooted >= 400

    def test_boundary_tables_with_forest_forcing(self, monkeypatch):
        # without pivot maps the only mapped positions are inner forest
        # vertices, which the recursive kernel fixes by forcing steps
        rng = random.Random(1409)
        calls = []
        for graph, labels, k in _boundary_instances(rng):
            with monkeypatch.context() as patch:
                patch.setattr(
                    solvers, "enumerate_boundary_extensions",
                    lambda *args, **kwargs: calls.append((args, kwargs)) or iter(()),
                )
                solve_fvs_alpha_delta(graph, labels, k)
        forced = yielded = 0
        for (graph, forest, labels, k), kwargs in calls:
            trees = bool(ForestExtender(graph, forest).trees)
            forced += trees
            # the fvs-alpha-delta domain, then the boundary alone
            for extra in (kwargs["extra_boundary"], ()):
                ours, theirs = SolveStats(), SolveStats()
                loop = special.enumerate_boundary_extensions(
                    graph, forest, labels, k, extra, ours, structure.Elimination((), {}),
                )
                recursive = reference_enumerate_boundary_extensions(
                    graph, forest, labels, k, extra, theirs,
                )
                stream = list(itertools.islice(loop, _STREAM_PREFIX))
                assert stream == list(itertools.islice(recursive, _STREAM_PREFIX))
                assert ours.nodes == theirs.nodes
                yielded += trees and bool(stream)
        assert forced >= 550 and yielded >= 800


def _regular_instances(rng):
    """Seeded regular instances: perfect matchings, unions of cycles of
    length 3-9, 4-regular circulants with repeated labels, unions of K3,3
    and K_{a,a}; about a third planted fair."""
    instances = []
    for i in range(1000):
        family = i % 5
        if family == 0:
            pairs = rng.randint(1, 5)
            graph = disjoint_union(*[path_graph(2)] * pairs)
            fair = [rng.randint(1, 4)] * (2 * pairs)
        elif family == 1:
            lengths = [rng.randint(3, 9) for _ in range(rng.randint(1, 3))]
            graph = disjoint_union(*(cycle_graph(n) for n in lengths))
            # a cycle whose length is not a multiple of 4 takes k/2 throughout
            k = 2 * rng.randint(1, 4) if any(n % 4 for n in lengths) else rng.randint(2, 8)
            fair = []
            for n in lengths:
                a, b = rng.randint(1, k - 1), rng.randint(1, k - 1)
                fair += [k // 2] * n if n % 4 else [a, b, k - a, k - b] * (n // 4)
        elif family == 2:
            n = rng.randint(6, 10)
            graph = gen_circulant(n, 4)
            low = rng.randint(1, 3)
            fair = [low] * n
        elif family == 3:
            copies = rng.randint(1, 2)
            graph = disjoint_union(*[complete_bipartite(3, 3)] * copies)
            fair = []
            for _ in range(copies):
                left = [rng.randint(1, 3) for _ in range(3)]
                fair += left + rng.sample(left, 3)
        else:
            a = rng.randint(1, 5)
            graph = complete_bipartite(a, a)
            fair = [rng.randint(1, 3)] * a * 2
        n = graph.vertex_count
        if i % 3 == 0:
            labels = S(*fair)
        else:
            pool = rng.sample(range(1, 7), rng.randint(1, 4))
            labels = S(*(rng.choice(pool) for _ in range(n)))
        instances.append((graph, labels))
    return instances


def _outcome(solver, *args):
    try:
        out = solver(*args)
    except RefusalError:
        return "refused"
    return out.verdict, out.certificate


class TestRegularRouting:
    """The dispatcher's routes for regular graphs keep the outcomes of the
    removed `solve_regular_fvs` branches."""

    def test_same_outcomes_as_the_reference(self):
        rng = random.Random(1313)
        fair = requested = 0
        for graph, labels in _regular_instances(rng):
            forced = graph.regular_degree() * labels.total() // graph.vertex_count
            for k in (None, max(1, forced + rng.choice((-1, 0, 0, 1)))):
                reference = _outcome(reference_solve_regular_fvs, graph, labels, k)
                assert _outcome(solve_auto, graph, labels, k) == reference
                assert _outcome(solve_regular_fvs, graph, labels, k) == reference
                fair += reference[0] is Verdict.FAIR
                requested += k is not None
        assert fair >= 400
        assert requested == 1000


_NAMED = {
    "solve_oracle": "oracle",
    "solve_vc_alpha": "vc-alpha",
    "solve_fvs_alpha_delta": "fvs-alpha-delta",
}


class TestReportNamesWhatRan:
    """`solve_auto(...).stats.strategy` names the strategy it ran."""

    def _instances(self, rng):
        instances = _regular_instances(rng)[::4]
        for _ in range(300):
            instances.append(random_instance(rng, max_n=9))
            graph, labels, _, _ = constructed_fair(rng, max_n=9)
            instances.append((graph, labels))
            # a long cycle with one chord: its forest boundary beats its cover
            n = rng.randint(8, 12)
            chorded = Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)] + [(0, n // 2)])
            instances.append((chorded, random_labels(rng, n, 6, alpha_cap=3)))
        for w in ((4, 3, 2, 5, 1, 3), (5, 5, 1, 4, 3, 7, 2, 1, 3, 4, 8, 5)):
            made = gen_3partition_stars(ThreePartitionInstance(w, len(w) // 3))
            instances.append((made.graph, made.labels))
        for entries in ((2, 7, 6, 9, 5, 1, 4, 3, 8), (1, 2, 8, 5, 7, 9, 2, 5, 6)):
            made = gen_semimagic(SemiMagicSpec(3, entries))
            instances.append((made.graph, made.labels))
        return instances

    def test_tag_is_the_strategy_that_ran(self, monkeypatch):
        calls = []

        def spy(name):
            real = getattr(solvers, name)

            def run(*args):
                calls.append(name)
                return real(*args)

            return run

        for name in _NAMED:
            monkeypatch.setattr(solvers, name, spy(name))
        shapes = set()
        ran = set()
        for graph, labels in self._instances(random.Random(1314)):
            calls.clear()
            strategy = solve_auto(graph, labels).stats.strategy
            if calls:
                assert strategy == _NAMED[calls[0]]
                ran.add(strategy)
            else:
                # a closed form or a screen settled it, or no constant survived
                assert strategy == "auto"
            shapes.add(structure.classify(graph).shape)
        assert shapes == set(Shape)
        assert ran == set(_NAMED.values())

    @pytest.mark.parametrize(
        "solve, tag",
        [
            (solve_oracle, "oracle"),
            (solve_vc_alpha, "vc-alpha"),
            (solve_fvs_alpha_delta, "fvs-alpha-delta"),
            (solve_vc_delta, "oracle"),
        ],
        ids=["oracle", "vc-alpha", "fvs-alpha-delta", "vc-delta"],
    )
    def test_a_named_strategy_reports_its_own_name(self, solve, tag):
        # fair, unfair at the search, and unfair for want of a constant
        made = gen_3partition_k33(ThreePartitionInstance((4, 3, 2, 5, 1, 3), 2))
        for graph, labels in [
            (made.graph, made.labels),
            (gen_circulant(10, 4), S(*range(1, 11))),
            (cycle_graph(5), S(1, 1, 1, 1, 2)),
        ]:
            assert solve(graph, labels).stats.strategy == tag


def _chorded_cycle(rng, n):
    """A cycle on n vertices with random chords: no pendant vertex."""
    chords = [(u, v) for u in range(n) for v in range(u + 2, n) if rng.random() < 0.3]
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)] + chords)


def _report_instances(rng):
    """Random and planted instances, regular graphs with and without a
    constant, forests, graphs with star components or isolated vertices,
    and disjoint unions of 32 and 33 vertices."""
    instances = _regular_instances(rng)[::4]
    for _ in range(200):
        instances.append(random_instance(rng, max_n=10))
    for _ in range(100):
        graph, labels, _, _ = constructed_fair(rng, max_n=9)
        instances.append((graph, labels))
    for _ in range(60):
        # a regular graph whose labels rarely give r * sum / n a whole value
        graph = rng.choice((gen_circulant(rng.randint(6, 10), 4), complete_bipartite(3, 3), k4()))
        instances.append((graph, random_labels(rng, graph.vertex_count)))
    instances.append((complete_bipartite(3, 3), S(1, 1, 1, 1, 1, 2)))
    for _ in range(200):
        parts = [_chorded_cycle(rng, rng.randint(3, 8))]
        parts += rng.choice((
            [star_graph(rng.randint(1, 4))],
            [empty_graph(rng.randint(1, 2))],
            [path_graph(rng.randint(2, 5))],
            [star_graph(rng.randint(1, 3)), cycle_graph(rng.randint(3, 6))],
        ))
        rng.shuffle(parts)
        graph = disjoint_union(*parts)
        instances.append((graph, random_labels(rng, graph.vertex_count)))
    for _ in range(60):
        # forests: paths and stars, with an edge joining two of them at times
        parts = [rng.choice((path_graph, star_graph))(rng.randint(1, 5)) for _ in range(rng.randint(1, 3))]
        graph = disjoint_union(*parts)
        if len(parts) > 1 and rng.random() < 0.5:
            graph = Graph.from_edges(graph.vertex_count, [*graph.edges(), (0, graph.vertex_count - 1)])
        instances.append((graph, random_labels(rng, graph.vertex_count)))
    for n in (32, 33):
        for _ in range(30):
            parts = []
            while sum(part.vertex_count for part in parts) < n - 8:
                parts.append(_chorded_cycle(rng, rng.randint(3, 8)))
            rest = n - sum(part.vertex_count for part in parts)
            parts.append(cycle_graph(rest) if rest >= 3 else path_graph(rest))
            graph = disjoint_union(*parts)
            instances.append((graph, random_labels(rng, n, max_value=9)))
    return instances


class TestReportSizes:
    """The report sizes FVS and VC without building them: the parameters of
    the former report, which built them."""

    def test_same_choice_as_the_reference(self):
        instances = _report_instances(random.Random(1616))
        assert len(instances) >= 900
        unsized = 0
        for graph, labels in instances:
            choice = parameter_report(graph, labels)
            assert choice == reference_parameter_report(graph, labels)
            unsized += choice.fvs is None
        assert unsized >= 30


def _elimination_instances(rng):
    """Seeded instances whose searches run on pivot maps: 4-regular
    circulants with n 6-10 and repeated labels, 3part-k33 with m 2-6, 3x3
    semimagic grids (planted fair or random) and G(n, p) with n <= 12 and
    no isolated vertex, some planted fair."""
    instances = []
    for n in range(6, 11):
        for _ in range(8):
            instances.append((gen_circulant(n, 4), S(*[rng.randint(1, 3) for _ in range(n)])))
        instances.append((gen_circulant(n, 4), S(*[1, 2] * (n // 2), *[1] * (n % 2))))
    for m in range(2, 7):
        for _ in range(3):
            while True:
                w = tuple(rng.randint(1, 5) for _ in range(3 * m))
                if sum(w) % m == 0:
                    break
            made = gen_3partition_k33(ThreePartitionInstance(w, m))
            instances.append((made.graph, made.labels))
    for _ in range(10):
        made = _planted_semimagic(rng)
        instances.append((made.graph, made.labels))
        made = gen_semimagic(SemiMagicSpec(3, tuple(rng.randint(1, 4) for _ in range(9))))
        instances.append((made.graph, made.labels))
    while len(instances) < 260:
        if rng.random() < 0.4:
            graph, labels, _, _ = constructed_fair(rng, max_n=12)
        else:
            graph = random_graph(rng, rng.randint(3, 12), rng.choice((0.3, 0.5, 0.7)))
            labels = random_labels(rng, graph.vertex_count, rng.randint(1, 4))
        if graph.vertex_count and graph.min_degree() >= 1:
            instances.append((graph, labels))
    return instances


class TestForwardElimination:
    """The forward elimination's maps force what the fully reduced form's
    force, so every search that reads them is unchanged."""

    def test_searches_match_the_reduced_form_exactly(self, monkeypatch):
        rng = random.Random(1901)
        fair_count = mapped = 0
        for graph, labels in _elimination_instances(rng):
            # fvs-alpha-delta takes seconds on 3part-k33 with m = 6 (18 vertices)
            solvers_run = (solve_oracle, solve_auto) + (
                (solve_fvs_alpha_delta,) if graph.vertex_count < 18 else ()
            )
            ours = [solver(graph, labels) for solver in solvers_run]
            constants = oracle_constants(graph, labels)
            with monkeypatch.context() as patch:
                patch.setattr(solvers, "eliminate", reference_ordered_eliminate)
                patch.setattr(special, "eliminate", reference_ordered_eliminate)
                reference = [solver(graph, labels) for solver in solvers_run]
                assert oracle_constants(graph, labels) == constants
            for mine, theirs in zip(ours, reference):
                assert mine.verdict == theirs.verdict, (graph.adjacency, labels.values)
                assert mine.certificate == theirs.certificate
                assert mine.stats.nodes == theirs.stats.nodes
                assert mine.stats.trace == theirs.stats.trace
            fair_count += ours[0].fair
            mapped += ours[0].stats.nodes < graph.vertex_count
        assert fair_count >= 60
        assert mapped >= 100
