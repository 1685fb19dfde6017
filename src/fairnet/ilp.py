"""Feasibility search for small bounded integer programs.

Every counting question in the package (which leaf group each star takes,
which period-4 pattern each cycle takes, which label each vertex of an
independent class takes) is one question, built by `Allocation`: allocate the
members of each group to choices, where a choice uses some copies of each
label value per member, so that every group is fully allocated and the label
supply is used up exactly.  Optional rows fix the label total placed in a set
of groups.  Variables here are few and tightly bounded, so an exact
depth-first search over variables in declaration order, with interval
propagation, decides feasibility deterministically and returns the
smallest-first solution.  Each variable has a coefficient in only a few
rows, so assigning it propagates on those rows alone; the search order and
the result are those of re-checking every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Hashable, Mapping, Sequence

from .model import FairnetError, InputError

_RELATIONS = ("=", "<=", ">=")


@dataclass(frozen=True)
class IntVar:
    name: str
    lower: int
    upper: int

    def __post_init__(self):
        if any(not isinstance(bound, int) or isinstance(bound, bool)
               for bound in (self.lower, self.upper)):
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


def _window(c: Constraint, rest_lo: int, rest_hi: int) -> tuple[float, float]:
    """Range a partial sum of `c` may take while the rest can add rest_lo..rest_hi."""
    return (
        -math.inf if c.relation == "<=" else c.rhs - rest_hi,
        math.inf if c.relation == ">=" else c.rhs - rest_lo,
    )


def solve_feasible(program: IntegerProgram) -> IpSolution:
    """Deterministic feasibility search.

    Variables are assigned in declaration order, values ascending from the
    lower bound, so the first solution found is the lexicographically
    smallest.  After each assignment the constraints the variable appears in
    are pruned against the interval still reachable by their unassigned
    variables.  A zero coefficient leaves a constraint's partial sum and
    reachable interval as the previous level checked them, so the search
    visits the same nodes as re-checking every constraint would.  The
    depth-first path lives in arrays, not in Python frames, so the variable
    count meets no recursion limit.
    """
    variables = program.variables
    nvars = len(variables)

    # per variable i: (constraint, coefficient, low, high) for each nonzero
    # coefficient, where [low, high] is the window the constraint's partial
    # sum must stay inside once variables 0..i are fixed
    rows: list[list[tuple[int, int, float, float]]] = [[] for _ in variables]
    for ci, c in enumerate(program.constraints):
        terms = [(i, a) for i, a in enumerate(c.coefficients) if a]
        rest_lo = rest_hi = 0  # reach of the variables after the current term
        for i, a in reversed(terms):
            rows[i].append((ci, a, *_window(c, rest_lo, rest_hi)))
            ends = (a * variables[i].lower, a * variables[i].upper)
            rest_lo += min(ends)
            rest_hi += max(ends)
        low, high = _window(c, rest_lo, rest_hi)
        if not low <= 0 <= high:
            return IpSolution(None)

    partial = [0] * len(program.constraints)
    values = [0] * nvars
    ranges = [range(v.lower, v.upper + 1) for v in variables]
    # per variable 0..idx, an iterator over the values it has left to try
    left = [iter(ranges[0])] if nvars else []
    idx = 0
    while idx < nvars:
        touched = rows[idx]
        for x in left[idx]:
            for ci, a, low, high in touched:
                if not low <= partial[ci] + a * x <= high:
                    break
            else:
                values[idx] = x
                for ci, a, _, _ in touched:
                    partial[ci] += a * x
                idx += 1
                if idx < nvars:
                    left.append(iter(ranges[idx]))
                break
        else:
            # exhausted: undo the previous variable, which moves on
            left.pop()
            idx -= 1
            if idx < 0:
                return IpSolution(None)
            for ci, a, _, _ in rows[idx]:
                partial[ci] -= a * values[idx]
    solution = {v.name: x for v, x in zip(variables, values)}
    if not program.check(solution):
        raise FairnetError("integer program solution fails its own re-check")
    return IpSolution(solution)


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
