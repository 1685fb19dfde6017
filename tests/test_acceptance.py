"""Acceptance gate: ten end-to-end properties, one test each.

Every test is anchored to an independent reference (exhaustive search,
full-box enumeration, subset brute force, or a closed-form construction)
and checks a hard runtime budget where one applies.
"""

import random
import time

from fairnet import (
    Constraint,
    Graph,
    IntegerProgram,
    IntVar,
    LabelMultiset,
    SemiMagicSpec,
    ThreePartitionInstance,
    XsatFormula,
    brute_3partition,
    certificate_from_xsat_assignment,
    decode_semimagic,
    fairness_constant_candidates,
    gen_3partition_k33,
    gen_3partition_stars,
    gen_semimagic,
    gen_xsat,
    minimum_feedback_vertex_set,
    minimum_vertex_cover,
    oracle_constants,
    solve_auto,
    solve_cycle,
    solve_feasible,
    solve_fvs_alpha_delta,
    solve_oracle,
    solve_regular_fvs,
    solve_vc_alpha,
    solve_vc_delta,
    twin_classes,
    validate_xsat,
    verify,
)
from support import (
    _is_acyclic,
    brute_min_fvs_size,
    brute_min_vc_size,
    constructed_fair,
    random_graph,
    reference_oracle_constants,
)
from test_ilp import box_reference


def _decide_by_candidates(runner, graph, labels):
    """Drive a fixed-constant strategy over every admissible constant."""
    for k in fairness_constant_candidates(graph, labels):
        outcome = runner(graph, labels, k)
        if outcome.fair:
            return outcome
    return None


def test_criterion_01_solver_cross_agreement(corpus):
    start = time.perf_counter()
    checked = 0
    for graph, labels, planted, planted_k in corpus:
        reference = solve_oracle(graph, labels)
        if planted is not None:
            assert verify(graph, labels, planted) == planted_k
            assert reference.fair
        if reference.fair:
            assert reference.certificate.check(graph, labels)

        outcomes = [solve_auto(graph, labels), solve_vc_delta(graph, labels)]
        r = graph.regular_degree()
        if r is not None and r >= 1:
            outcomes.append(solve_regular_fvs(graph, labels))
        if graph.min_degree() >= 1:
            for runner in (solve_fvs_alpha_delta, solve_vc_alpha):
                won = _decide_by_candidates(runner, graph, labels)
                if won is None:
                    assert not reference.fair
                else:
                    outcomes.append(won)
        for outcome in outcomes:
            assert outcome.fair == reference.fair
            if outcome.fair:
                assert outcome.certificate.check(graph, labels)
        checked += 1
    assert checked >= 2000
    assert time.perf_counter() - start < 300


def test_criterion_02_cycle_solver_exhaustive_agreement():
    start = time.perf_counter()
    rng = random.Random(271828)
    for n in range(3, 11):
        cycle = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        for _ in range(500):
            labels = LabelMultiset.from_iterable(
                rng.randint(1, 4) for _ in range(n)
            )
            reference = solve_oracle(cycle, labels)
            doubled = 2 * labels.total()
            if doubled % n != 0:
                # no integer constant exists for a 2-regular graph
                assert not reference.fair
                continue
            outcome = solve_cycle(n, labels, doubled // n)
            assert outcome.fair == reference.fair
            if outcome.fair:
                assert outcome.certificate.constant == doubled // n
                assert outcome.certificate.check(cycle, labels)
    assert time.perf_counter() - start < 120


def test_criterion_03_fair_constant_uniqueness():
    start = time.perf_counter()
    rng = random.Random(314159)
    for _ in range(300):
        graph, labels, _, k = constructed_fair(rng, max_n=8)
        # the enumeration of every constant, not the forced-constant formula
        assert oracle_constants(graph, labels) == reference_oracle_constants(graph, labels) == [k]
    assert time.perf_counter() - start < 180


def test_criterion_04_regular_constant_formula(corpus):
    fair_regular = 0
    for graph, labels, _, _ in corpus:
        r = graph.regular_degree()
        if r is None or r < 1:
            continue
        outcome = solve_oracle(graph, labels)
        if outcome.fair:
            assert graph.vertex_count * outcome.certificate.constant == r * labels.total()
            fair_regular += 1
    assert fair_regular >= 100


def test_criterion_05_three_partition_reduction_soundness():
    start = time.perf_counter()
    rng = random.Random(5150)
    for i in range(200):
        if i % 3 == 0:
            triple = [rng.randint(1, 8) for _ in range(3)]
            values = triple + list(triple)  # guaranteed splittable
        else:
            values = [rng.randint(1, 8) for _ in range(6)]
            if sum(values) % 2:
                j = next(idx for idx, v in enumerate(values) if v % 2)
                values[j] += 1
        source = ThreePartitionInstance(tuple(values), 2)
        expected, witness = brute_3partition(source)
        if witness is not None:
            assert all(sum(t) == source.target for t in witness)
        for generator in (gen_3partition_k33, gen_3partition_stars):
            graph, labels = generator(source)
            assert solve_oracle(graph, labels).fair == expected
    assert time.perf_counter() - start < 120


def test_criterion_06_exact_cover_construction():
    block = lambda groups: tuple(g for g in groups for _ in range(3))
    cases = [
        (XsatFormula(3, block([(0, 1, 2)])), (True, False, False)),
        (XsatFormula(6, block([(0, 1, 2), (3, 4, 5)])),
         (True, False, False, True, False, False)),
        (XsatFormula(9, block([(0, 1, 2), (3, 4, 5), (6, 7, 8)])),
         (True, False, False) * 3),
        (XsatFormula(12, block([(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)])),
         (True, False, False) * 4),
        (XsatFormula(9, block([(0, 3, 6), (1, 4, 7), (2, 5, 8)])),
         (True,) * 3 + (False,) * 6),
        (XsatFormula(6, tuple((i, (i + 1) % 6, (i + 2) % 6) for i in range(6))),
         (True, False, False, True, False, False)),
    ]
    for formula, assignment in cases:
        assert validate_xsat(formula) is None
        graph, labels = gen_xsat(formula)
        assert graph.vertex_count == 16 * formula.n
        assert graph.regular_degree() == 6
        # the forced constant of any fair 6-regular labeling
        assert 6 * labels.total() == 12 * graph.vertex_count
        certificate = certificate_from_xsat_assignment(formula, assignment)
        assert certificate.constant == 12
        assert verify(graph, labels, certificate.labels) == 12


def test_criterion_07_semimagic_round_trip():
    spec = SemiMagicSpec(3, tuple(range(1, 10)))
    made = gen_semimagic(spec)
    start = time.perf_counter()
    outcome = solve_auto(made.graph, made.labels)
    assert time.perf_counter() - start < 60
    assert outcome.fair and outcome.certificate.constant == 15
    grid = decode_semimagic(spec, outcome.certificate)
    for i in range(3):
        assert sum(grid[i]) == 15
        assert sum(grid[j][i] for j in range(3)) == 15

    skewed = gen_semimagic(SemiMagicSpec(3, (1,) * 8 + (2,)))
    assert skewed.metadata["necessarily_unfair"] == "true"
    assert skewed.metadata["verdict"] == "unfair"


def test_criterion_08_integer_feasibility_against_enumeration():
    start = time.perf_counter()
    rng = random.Random(161803)
    feasible = infeasible = 0
    for _ in range(1000):
        nvars = rng.randint(1, 6)
        variables = []
        for i in range(nvars):
            lower = rng.randint(0, 6)
            variables.append(IntVar(f"x{i}", lower, rng.randint(lower, 6)))
        constraints = tuple(
            Constraint(
                tuple(rng.randint(-3, 3) for _ in range(nvars)),
                rng.choice(("=", "<=", ">=")),
                rng.randint(-8, 16),
            )
            for _ in range(rng.randint(0, 4))
        )
        program = IntegerProgram(tuple(variables), constraints)
        expected = box_reference(program)
        got = solve_feasible(program)
        assert got.feasible == (expected is not None)
        if expected is None:
            infeasible += 1
        else:
            feasible += 1
            assert got.assignment == expected
    assert feasible and infeasible
    assert time.perf_counter() - start < 60


def test_criterion_09_exact_fvs_vc_against_brute_force():
    rng = random.Random(909090)
    for trial in range(300):
        graph = random_graph(rng, rng.randint(0, 10), rng.random())
        fvs = minimum_feedback_vertex_set(graph)
        assert len(fvs) == brute_min_fvs_size(graph)
        assert _is_acyclic(graph, frozenset(fvs))
        cover = minimum_vertex_cover(graph)
        assert len(cover) == brute_min_vc_size(graph)
        chosen = set(cover)
        assert all(u in chosen or v in chosen for u, v in graph.edges())


def test_criterion_10_twin_swap_invariance(corpus):
    exercised = 0
    for graph, labels, planted, k in corpus:
        if planted is None:
            continue
        assert verify(graph, labels, planted) == k
        swapped_any = False
        for cls in twin_classes(graph).classes:
            if cls.true_twin or len(cls.vertices) < 2:
                continue
            # every adjacent transposition inside the class
            for u, v in zip(cls.vertices, cls.vertices[1:]):
                mutated = list(planted)
                mutated[u], mutated[v] = mutated[v], mutated[u]
                assert verify(graph, labels, mutated) == k
            # and a full rotation of the class
            rotated = list(planted)
            ordered = list(cls.vertices)
            for u, v in zip(ordered, ordered[1:] + ordered[:1]):
                rotated[v] = planted[u]
            assert verify(graph, labels, rotated) == k
            swapped_any = True
        if swapped_any:
            exercised += 1
        if exercised >= 100:
            break
    assert exercised >= 100
