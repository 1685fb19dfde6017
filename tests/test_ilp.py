import itertools
import random
import sys

import pytest

from fairnet import (
    Constraint,
    FairnetError,
    InputError,
    IntegerProgram,
    IntVar,
    SemiMagicSpec,
    fairness_constant_candidates,
    gen_semimagic,
    solve_feasible,
    solve_vc_alpha,
)
from fairnet import LabelMultiset, cycle_graph, disjoint_union, solve_auto, solvers, special
from fairnet.ilp import Allocation
from support import dense_solve_feasible, recursive_solve_feasible

# unfair 3x3 grids on which vc-alpha spends most of its time in the ILP
SEMIMAGIC_ILP_BOUND = ((1, 2, 8, 5, 7, 9, 2, 5, 6), (4, 3, 7, 2, 1, 3, 4, 8, 5))


def box_reference(program: IntegerProgram):
    """Full enumeration of the bound box in lexicographic order."""
    ranges = [range(v.lower, v.upper + 1) for v in program.variables]
    names = [v.name for v in program.variables]
    for point in itertools.product(*ranges):
        candidate = dict(zip(names, point))
        if program.check(candidate):
            return candidate
    return None


class TestTypes:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(InputError):
            IntVar("x", 3, 2)

    @pytest.mark.parametrize("lower, upper", [(True, 2), (0, True), (False, False)])
    def test_rejects_bool_bounds(self, lower, upper):
        with pytest.raises(InputError):
            IntVar("x", lower, upper)

    def test_rejects_bad_relation(self):
        with pytest.raises(InputError):
            Constraint((1,), "<", 3)

    def test_rejects_width_mismatch(self):
        with pytest.raises(InputError):
            IntegerProgram((IntVar("x", 0, 1),), (Constraint((1, 2), "=", 3),))

    def test_rejects_duplicate_names(self):
        with pytest.raises(InputError):
            IntegerProgram((IntVar("x", 0, 1), IntVar("x", 0, 1)), ())

    def test_check(self):
        p = IntegerProgram(
            (IntVar("x", 0, 3), IntVar("y", 0, 3)),
            (Constraint((1, 1), "=", 4), Constraint((1, -1), "<=", 0)),
        )
        assert p.check({"x": 1, "y": 3})
        assert not p.check({"x": 3, "y": 1})
        assert not p.check({"x": 5, "y": -1})
        assert not p.check({"x": 1})


class TestSolve:
    def test_simple_feasible_lex_smallest(self):
        p = IntegerProgram(
            (IntVar("x", 0, 5), IntVar("y", 0, 5)),
            (Constraint((1, 1), "=", 4),),
        )
        sol = solve_feasible(p)
        assert sol.feasible and sol.assignment == {"x": 0, "y": 4}

    def test_infeasible_by_interval(self):
        p = IntegerProgram(
            (IntVar("x", 0, 2), IntVar("y", 0, 2)),
            (Constraint((1, 1), "=", 9),),
        )
        assert not solve_feasible(p).feasible

    def test_unconstrained_returns_lower_corner(self):
        p = IntegerProgram((IntVar("a", 2, 4), IntVar("b", 1, 3)), ())
        assert solve_feasible(p).assignment == {"a": 2, "b": 1}

    def test_negative_coefficients(self):
        p = IntegerProgram(
            (IntVar("x", 0, 6), IntVar("y", 0, 6)),
            (Constraint((2, -1), "=", 3), Constraint((1, 1), ">=", 5)),
        )
        sol = solve_feasible(p)
        assert sol.feasible
        x, y = sol.assignment["x"], sol.assignment["y"]
        assert 2 * x - y == 3 and x + y >= 5

    def test_zero_variables(self):
        assert solve_feasible(IntegerProgram((), ())).feasible

    def test_matches_box_reference(self):
        rng = random.Random(99)
        for _ in range(150):
            nvars = rng.randint(1, 4)
            variables = []
            for i in range(nvars):
                lo = rng.randint(0, 3)
                variables.append(IntVar(f"v{i}", lo, lo + rng.randint(0, 4)))
            constraints = []
            for _ in range(rng.randint(0, 3)):
                coeffs = tuple(rng.randint(-3, 3) for _ in range(nvars))
                relation = rng.choice(("=", "<=", ">="))
                rhs = rng.randint(-6, 14)
                constraints.append(Constraint(coeffs, relation, rhs))
            program = IntegerProgram(tuple(variables), tuple(constraints))
            expected = box_reference(program)
            got = solve_feasible(program)
            assert got.feasible == (expected is not None)
            if expected is not None:
                # identical lexicographically smallest solution
                assert got.assignment == expected

    def test_failed_recheck_is_an_error(self, monkeypatch):
        p = IntegerProgram((IntVar("x", 0, 2),), (Constraint((1,), "=", 1),))
        monkeypatch.setattr(IntegerProgram, "check", lambda self, assignment: False)
        with pytest.raises(FairnetError):
            solve_feasible(p)


def random_sparse_program(rng: random.Random) -> IntegerProgram:
    nvars = rng.randint(0, 14)
    variables = []
    for i in range(nvars):
        lo = rng.randint(-2, 3)
        variables.append(IntVar(f"v{i}", lo, lo + rng.randint(0, 3)))
    constraints = [
        Constraint(
            tuple(0 if rng.random() < 0.7 else rng.randint(-3, 3) for _ in range(nvars)),
            rng.choice(("=", "<=", ">=")),
            rng.randint(-6, 12),
        )
        for _ in range(rng.randint(0, 8))
    ]
    return IntegerProgram(tuple(variables), tuple(constraints))


class TestMatchesDenseSearch:
    def test_random_sparse_programs(self):
        rng = random.Random(2024)
        feasible = 0
        for _ in range(3000):
            program = random_sparse_program(rng)
            expected = dense_solve_feasible(program).assignment
            assert solve_feasible(program).assignment == expected
            feasible += expected is not None
        # both outcomes are well represented
        assert 300 < feasible < 2700

    def test_semimagic_grid_programs(self, monkeypatch):
        programs = []

        def capture(program):
            programs.append(program)
            return solve_feasible(program)

        monkeypatch.setattr(solvers, "solve_feasible", capture)
        for entries in SEMIMAGIC_ILP_BOUND:
            instance = gen_semimagic(SemiMagicSpec(3, entries))
            for k in fairness_constant_candidates(instance.graph, instance.labels):
                solve_vc_alpha(instance.graph, instance.labels, k)
        assert len(programs) == 4
        for program in programs:
            assert solve_feasible(program).assignment == dense_solve_feasible(program).assignment


class TestIterativeSearch:
    """The explicit-stack search returns the recursive search's results."""

    def test_random_sparse_programs(self):
        rng = random.Random(1317)
        for _ in range(2000):
            program = random_sparse_program(rng)
            expected = recursive_solve_feasible(program).assignment
            assert solve_feasible(program).assignment == expected

    def test_more_variables_than_python_frames(self, monkeypatch):
        # 24 disjoint C4 with labels 1..96: 1128 pattern variables
        programs = []

        def capture(program):
            programs.append(program)
            return solve_feasible(program)

        monkeypatch.setattr(special, "solve_feasible", capture)
        graph = disjoint_union(*[cycle_graph(4)] * 24)
        assert solve_auto(graph, LabelMultiset.from_iterable(range(1, 97))).fair
        (program,) = programs
        assert len(program.variables) == 1128
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + len(program.variables))
        try:
            expected = recursive_solve_feasible(program).assignment
        finally:
            sys.setrecursionlimit(limit)
        assert solve_feasible(program).assignment == expected


class TestAllocation:
    def test_program_decodes_in_choice_order(self):
        # two groups of sizes 2 and 1; group 1 may only take the pair (1, 2)
        allocation = Allocation(
            [(2, {"a": {1: 1}, "b": {2: 1}}), (1, {"ab": {1: 1, 2: 1}})]
        )
        program = allocation.program({1: 2, 2: 2})
        assert [v.upper for v in program.variables] == [2, 2, 1]
        solution = solve_feasible(program)
        assert solution.assignment == box_reference(program)
        assert allocation.decode(solution) == [["a", "b"], ["ab"]]

    def test_unusable_supply_is_infeasible(self):
        allocation = Allocation([(1, {"a": {1: 1}})])
        assert not solve_feasible(allocation.program({1: 1, 5: 1})).feasible

    def test_sum_rows(self):
        # both groups pick one label each; the labels of group 0 must total 3
        one_each = {v: {v: 1} for v in (1, 2, 3)}
        allocation = Allocation([(1, one_each), (1, one_each)], [{0}])
        solution = solve_feasible(allocation.program({1: 1, 3: 1}, [3]))
        assert allocation.decode(solution) == [[3], [1]]
        with pytest.raises(ValueError):
            allocation.program({1: 1, 3: 1})
