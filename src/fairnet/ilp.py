"""Feasibility search for small bounded integer programs.

Every counting question in the package (which leaf group each star takes,
which period-4 pattern each cycle takes, which label each vertex of an
independent class takes) is one question, built by `Allocation`: allocate the
members of each group to choices, where a choice uses some copies of each
label value per member, so that every group is fully allocated and the label
supply is used up exactly.  Optional rows fix the label total placed in a set
of groups.  Variables here are few and tightly bounded, so an exact
depth-first search over variables in declaration order, with interval
propagation on every constraint, decides feasibility deterministically and
returns the smallest-first solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Hashable, Mapping, Sequence

from .model import InputError

_RELATIONS = ("=", "<=", ">=")


@dataclass(frozen=True)
class IntVar:
    name: str
    lower: int
    upper: int

    def __post_init__(self):
        if not isinstance(self.lower, int) or not isinstance(self.upper, int):
            raise InputError(f"bounds of {self.name} must be integers")
        if self.upper < self.lower:
            raise InputError(f"empty bound interval for {self.name}")


@dataclass(frozen=True)
class Constraint:
    """coefficients . x  <relation>  rhs"""

    coefficients: tuple[int, ...]
    relation: str
    rhs: int

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise InputError(f"unknown relation {self.relation!r}")


@dataclass(frozen=True)
class IntegerProgram:
    variables: tuple[IntVar, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise InputError("duplicate variable names")
        for c in self.constraints:
            if len(c.coefficients) != len(self.variables):
                raise InputError("constraint width does not match variable count")

    def check(self, assignment: dict[str, int]) -> bool:
        """Re-check an assignment against bounds and every constraint."""
        try:
            xs = [assignment[v.name] for v in self.variables]
        except KeyError:
            return False
        if any(not v.lower <= x <= v.upper for v, x in zip(self.variables, xs)):
            return False
        for c in self.constraints:
            total = sum(a * x for a, x in zip(c.coefficients, xs))
            if c.relation == "=" and total != c.rhs:
                return False
            if c.relation == "<=" and total > c.rhs:
                return False
            if c.relation == ">=" and total < c.rhs:
                return False
        return True


@dataclass(frozen=True)
class IpSolution:
    assignment: dict[str, int] | None

    @property
    def feasible(self) -> bool:
        return self.assignment is not None


def solve_feasible(program: IntegerProgram) -> IpSolution:
    """Deterministic feasibility search.

    Variables are assigned in declaration order, values ascending from the
    lower bound, so the first solution found is the lexicographically
    smallest.  After each assignment every constraint is pruned against the
    interval still reachable by its unassigned variables.
    """
    variables = program.variables
    nvars = len(variables)
    constraints = program.constraints

    # residual extremes contributed by variables >= index i, per constraint
    lo_suffix: list[list[int]] = []
    hi_suffix: list[list[int]] = []
    for c in constraints:
        lows = [0] * (nvars + 1)
        highs = [0] * (nvars + 1)
        for i in range(nvars - 1, -1, -1):
            a = c.coefficients[i]
            v = variables[i]
            options = (a * v.lower, a * v.upper)
            lows[i] = lows[i + 1] + min(options)
            highs[i] = highs[i + 1] + max(options)
        lo_suffix.append(lows)
        hi_suffix.append(highs)

    def violates(ci: int, fixed: int, idx: int) -> bool:
        c = constraints[ci]
        reach_lo = fixed + lo_suffix[ci][idx]
        reach_hi = fixed + hi_suffix[ci][idx]
        if c.relation == "=":
            return reach_lo > c.rhs or reach_hi < c.rhs
        if c.relation == "<=":
            return reach_lo > c.rhs
        return reach_hi < c.rhs

    partial = [0] * len(constraints)
    values = [0] * nvars

    def search(idx: int) -> bool:
        if idx == nvars:
            return True
        var = variables[idx]
        for x in range(var.lower, var.upper + 1):
            values[idx] = x
            ok = True
            for ci, c in enumerate(constraints):
                partial[ci] += c.coefficients[idx] * x
                if ok and violates(ci, partial[ci], idx + 1):
                    ok = False
            if ok and search(idx + 1):
                return True
            for ci, c in enumerate(constraints):
                partial[ci] -= c.coefficients[idx] * x
        return False

    for ci in range(len(constraints)):
        if violates(ci, 0, 0):
            return IpSolution(None)
    if search(0):
        solution = {v.name: x for v, x in zip(variables, values)}
        assert program.check(solution)
        return IpSolution(solution)
    return IpSolution(None)


class Allocation:
    """Counting program: allocate the members of each group to choices.

    `groups` holds (size, choices) per group, where `choices` maps each choice
    to the copies of each label value that one member taking it uses.  The
    variable of (group, choice) counts the members of the group that take the
    choice; variables run group by group in choice order.  Every group must
    be fully allocated and the supply used up exactly.  Each set of group
    indices in `sums` adds a row fixing the total of the labels placed in
    those groups.  The structure is built once; `program` instantiates it for
    one supply and one right-hand side per `sums` row.
    """

    def __init__(self, groups: Sequence[tuple[int, Mapping[Hashable, Mapping[int, int]]]],
                 sums: Sequence[Collection[int]] = ()):
        self._cells = [
            (g, size, choice, use)
            for g, (size, choices) in enumerate(groups)
            for choice, use in choices.items()
        ]
        self._names = tuple(f"x{i}" for i in range(len(self._cells)))
        self._group_rows = tuple(
            Constraint(tuple(int(cg == g) for cg, *_ in self._cells), "=", size)
            for g, (size, _) in enumerate(groups)
        )
        values = {v for *_, use in self._cells for v in use}
        self._value_rows = {
            v: tuple(use.get(v, 0) for *_, use in self._cells) for v in values
        }
        self._sum_rows = tuple(
            tuple(
                sum(v * c for v, c in use.items()) if g in members else 0
                for g, _, _, use in self._cells
            )
            for members in sums
        )
        self._zero_row = (0,) * len(self._cells)

    def program(self, supply: Mapping[int, int], totals: Sequence[int] = ()) -> IntegerProgram:
        """The program for this supply; the bounds cut off no feasible point."""
        variables = tuple(
            IntVar(name, 0, min([size] + [supply.get(v, 0) // c for v, c in use.items()]))
            for name, (_, size, _, use) in zip(self._names, self._cells)
        )
        constraints = [*self._group_rows]
        constraints.extend(
            Constraint(self._value_rows.get(v, self._zero_row), "=", count)
            for v, count in sorted(supply.items())
            if count
        )
        constraints.extend(
            Constraint(row, "=", total)
            for row, total in zip(self._sum_rows, totals, strict=True)
        )
        return IntegerProgram(variables, tuple(constraints))

    def decode(self, solution: IpSolution) -> list[list[Hashable]]:
        """Per group, the choice each member takes, in choice order."""
        picked: list[list[Hashable]] = [[] for _ in self._group_rows]
        for name, (g, _, choice, _) in zip(self._names, self._cells):
            picked[g].extend([choice] * solution.assignment[name])
        return picked
