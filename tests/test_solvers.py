import itertools
import random

import pytest

from fairnet import (
    Graph,
    InputError,
    LabelMultiset,
    RefusalError,
    SemiMagicSpec,
    StrategyTag,
    ThreePartitionInstance,
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
from fairnet import solvers
from fairnet.cli import run_algorithm
from fairnet.solvers import _candidates, _forced_constant
from support import (
    brute_force_fair,
    constructed_fair,
    random_graph,
    random_instance,
    random_labels,
    reference_oracle_tables,
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

    def test_refuses_many_twin_classes(self):
        # a path of 13 vertices has 13 twin classes, above the default cap
        with pytest.raises(RefusalError):
            solve_oracle(path_graph(13), S(*range(1, 14)))

    def test_cap_override(self, monkeypatch):
        monkeypatch.setenv("FAIRNET_ORACLE_CAP", "20")
        out = solve_oracle(path_graph(13), S(*([1] * 13)))
        assert not out.fair  # pendant chain of length 13 cannot balance

    def test_cap_override_validation(self, monkeypatch):
        monkeypatch.setenv("FAIRNET_ORACLE_CAP", "zero")
        with pytest.raises(InputError):
            solve_oracle(path_graph(13), S(*range(1, 14)))

    def test_oracle_constants(self):
        assert oracle_constants(cycle_graph(4), S(1, 2, 3, 4)) == [5]
        assert oracle_constants(cycle_graph(6), S(1, 2, 3, 1, 2, 3)) == []
        assert oracle_constants(empty_graph(2), S(1, 2)) == []


class TestVcDelta:
    def test_delegates_with_bound_trace(self):
        out = solve_vc_delta(cycle_graph(4), S(1, 2, 3, 4))
        assert out.fair
        assert any("vc*delta" in line for line in out.stats.trace)

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

    def test_pure_stars(self):
        g = disjoint_union(star_graph(3), star_graph(3))
        out = solve_fvs_alpha_delta(g, S(1, 2, 3, 1, 2, 3, 6, 6), 6)
        assert out.fair

    def test_rejects_isolated(self):
        with pytest.raises(InputError):
            solve_fvs_alpha_delta(empty_graph(2), S(1, 2), 1)

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
        assert out.stats.nodes == 334
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
        assert choice.tag is StrategyTag.REGULAR_FVS
        assert choice.fvs == 1 and choice.vc == 2
        assert choice.delta == 2 and choice.alpha == 4 and choice.regular == 2

    def test_stars_use_closed_form(self):
        choice = parameter_report(star_graph(3), S(1, 2, 3, 6))
        assert choice.tag is StrategyTag.AUTO

    def test_general_graph_picks_bounded_strategy(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        choice = parameter_report(g, S(1, 1, 2, 2, 2))
        assert choice.tag in (StrategyTag.VC_ALPHA, StrategyTag.FVS_ALPHA_DELTA)
        assert choice.fvs is not None and choice.vc is not None

    def test_large_graph_skips_exact_parameters(self):
        n = 40
        g = cycle_graph(n)
        choice = parameter_report(g, S(*([2] * n)))
        assert choice.fvs is None and choice.vc is None


class TestEnumerators:
    @pytest.mark.parametrize(
        "family, algo, pinned",
        [
            ("circulant", "oracle", (False, None, 3052, 0)),
            ("circulant", "vc-alpha", (False, None, 74436, 116)),
            ("circulant", "fvs-alpha-delta", (False, None, 84012, 0)),
            ("3part-k33", "oracle", (True, (1, 3, 5, 2, 3, 4), 9, 0)),
            ("3part-k33", "vc-alpha", (True, (1, 3, 5, 2, 3, 4), 10, 1)),
            ("3part-k33", "fvs-alpha-delta", (True, (1, 3, 5, 2, 3, 4), 6, 0)),
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
            for k in _candidates(graph, labels):
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
        calls = []
        weights = solvers.component_weights

        def counted(graph):
            calls.append(graph)
            return weights(graph)

        monkeypatch.setattr(solvers, "component_weights", counted)
        grid = gen_semimagic(SemiMagicSpec(3, (1, 2, 8, 5, 7, 9, 2, 5, 6)))
        bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        for graph, labels in [(grid.graph, grid.labels), (bowtie, S(1, 1, 1, 1, 3))]:
            calls.clear()
            solve_auto(graph, labels)
            assert len(calls) == 1

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
        assert _candidates(graph, S(1, 2, 3, 4)) == []
        assert _candidates(graph, S(1, 1, 1, 3)) == [3]
        assert _candidates(graph, S(1, 1, 1, 3), 3) == [3]
        assert _candidates(graph, S(1, 1, 1, 3), 2) == []
        # forced 5 lies in the degree interval [2, 7] but is no label value
        assert _forced_constant(graph, S(1, 1, 1, 7)) == 5
        assert _candidates(graph, S(1, 1, 1, 7)) == []
        # no pendant vertex: forced 11 lies below the degree interval [12, 15]
        graph = Graph.from_edges(6, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 3), (1, 4),
                                     (2, 3), (2, 4), (2, 5), (3, 5), (4, 5)])
        labels = S(1, 1, 5, 5, 5, 5)
        assert _forced_constant(graph, labels) == 11
        assert fairness_constant_candidates(graph, labels) == [12, 13, 14, 15]
        assert _candidates(graph, labels) == []


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
                patch.setattr(solvers, "_oracle_tables", reference_oracle_tables)
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
        graph, labels = gen_circulant(10, 4), S(*range(1, 11))
        reached = {
            "auto": solve_auto(graph, labels).stats.nodes,
            "regular-fvs": solve_regular_fvs(graph, labels).stats.nodes,
            "oracle": solve_oracle(graph, labels).stats.nodes,
        }
        monkeypatch.setattr(solvers, "_oracle_tables", reference_oracle_tables)
        before = solve_oracle(graph, labels).stats.nodes
        assert before == 32576
        assert reached == dict.fromkeys(reached, 3052)
