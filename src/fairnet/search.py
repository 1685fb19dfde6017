"""One ordered depth-first search behind the exact enumerators.

The exhaustive oracle, the vertex-cover enumeration and the forest-boundary
enumeration all label a small vertex set in a fixed order, try the distinct
label values in ascending order while a copy is left, and check
neighborhood equations as soon as they are decidable.  They differ only in
their tables: which vertices are labeled, which equations each label
enters, where each equation is checked, which forest labels are forced
along the way and which ties restrict the values.  A tie makes a label
equal an earlier one (true twins) or not fall below it, a floor: the order
inside a false-twin class, and the oracle's lex-leader rule that no vertex
of vertex 0's automorphism orbit takes a smaller label than vertex 0.  An
integer linear map fixes a position's label from K and the labels at
earlier positions, mapped ones included: the pivot vertices of A l = K 1
in the enumerator's labeling order (`structure.eliminate`), in the oracle
and in the forest-boundary enumeration.  A mapped position tries its one
value and is not counted as a node, so only the free positions are searched.

An equation is "the labels fed into it, plus `pending` labels still to
come, sum to K".  With nothing pending it is checked exactly; otherwise K
must lie between its completions by the smallest and by the largest value.
Every search shares one node budget, `ENUMERATION_CAP`: past it the search
refuses instead of running on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .model import LabelMultiset, RefusalError, SolveStats
from .structure import PivotMap

# nodes any one search may try; the dispatcher plans no larger enumeration
ENUMERATION_CAP = 5_000_000

# an internal forest vertex and, per child w, the neighbors of w but the vertex
ForcingStep = tuple[int, tuple[tuple[int, ...], ...]]


@dataclass(frozen=True)
class SearchTables:
    """What one enumerator labels and checks; independent of K and the labels.

    order: the vertices labeled, position by position.
    feeds: per vertex id, the equations its label enters.
    pending: per equation, the labels it waits for before the search starts.
    checks_at: per position, the equations checked once it is labeled.
    forcing_at: per position, forcing steps that label forest vertices
        there, after the position's own vertex (empty: nothing forced).
    ties: per position, None or (earlier vertex, equal): the label must
        equal that vertex's label, or must not fall below it (a floor).
    held: per position, how many later labels the ties hold at or above
        its label, directly or through other ties; a value is tried only
        while that many copies at or above it are left besides its own.
    maps: per position, None or an integer linear map (D, c, ((j, c_j), ...))
        over earlier positions, free or mapped: with K given, the position
        takes the one value (c K - sum of c_j l_j) / D, which must be an
        integer with a copy left and pass the position's tie and `held`
        rules, or the branch dies.  Such a position is no node.
    root_checks: equations nothing feeds, checked against the given K
        before the first position.
    """

    order: tuple[int, ...]
    feeds: Sequence[Sequence[int]]
    pending: Sequence[int]
    checks_at: Sequence[Sequence[int]]
    forcing_at: Sequence[Sequence[ForcingStep]] = ()
    ties: Sequence[tuple[int, bool] | None] = ()
    held: Sequence[int] = ()
    maps: Sequence[PivotMap | None] = ()
    root_checks: tuple[int, ...] = ()


def _forced_value(entries: tuple[tuple[int, ...], ...],
                  known: Mapping[int, int] | list[int], k: int) -> int | None:
    """The label every child's equation forces on its parent; None on conflict."""
    forced = None
    for others in entries:
        value = k - sum(known[u] for u in others)
        if forced is None:
            forced = value
        elif value != forced:
            return None
    return forced


def ordered_search(tables: SearchTables, labels: LabelMultiset, stats: SolveStats,
                   k: int | None = None) -> Iterator[tuple[list[int], int | None]]:
    """Yield (label per vertex id, K) for each labeling no checked equation breaks.

    Labelings come in lexicographic order of the labels along `order`.
    Without a given K, the first equation checked exactly pins it; forcing
    steps and root checks need a given K.  The yielded list is the live
    search state, valid until the generator resumes.  `stats.nodes` counts
    each tried (position, value) pair with a copy left, at positions the
    maps leave free; maps apply only with a given K.  Once `stats.nodes`
    exceeds `ENUMERATION_CAP` the search raises RefusalError.
    """
    order, feeds = tables.order, tables.feeds
    size = len(order)
    forcing_at = tables.forcing_at or [()] * size
    ties = tables.ties or [None] * size
    held = tables.held or [0] * size
    maps = tables.maps if k is not None and tables.maps else [None] * size
    # per position, read once per node: the vertex, the equations its label
    # enters, None or (tie vertex or None, equal, map with c K folded in),
    # forcing steps, checks, held count, and 0 for a mapped position (no node)
    slots = []
    for i, v in enumerate(order):
        tie, linear = ties[i], maps[i]
        if linear is not None:
            scale, weight, terms = linear
            linear = (scale, weight * k, terms)
        anchor, equal = tie or (None, False)
        rule = None if tie is None and linear is None else (anchor, equal, linear)
        slots.append((v, feeds[v], rule, forcing_at[i], tables.checks_at[i], held[i],
                      int(linear is None)))
    budget = ENUMERATION_CAP
    distinct = labels.distinct_values
    low, high = distinct[0], distinct[-1]
    remaining = dict(labels.counts)  # a plain dict subscripts faster than a Counter
    value_of = [0] * len(feeds)
    partial = [0] * len(tables.pending)
    pending = list(tables.pending)

    def force(steps: Sequence[ForcingStep], k: int) -> list[int] | None:
        """Label the vertices the steps force, taking copies; None on failure."""
        forced = []
        for v, entries in steps:
            value = _forced_value(entries, value_of, k)
            # labels are positive, so no copy is left of a value below 1
            if value is None or remaining.get(value, 0) == 0:
                for u in forced:
                    remaining[value_of[u]] += 1
                return None
            value_of[v] = value
            remaining[value] -= 1
            forced.append(v)
        return forced

    def dfs(i: int, k: int | None) -> Iterator[tuple[list[int], int | None]]:
        if i == size:
            yield value_of, k
            return
        v, fed, rule, steps, checks, need, tried = slots[i]
        if rule is None:
            options: Sequence[int] = distinct
        else:
            anchor, equal, linear = rule
            if linear is not None:
                scale, base, terms = linear
                value, rest = divmod(base - sum([c * value_of[j] for j, c in terms]), scale)
                if rest or not remaining.get(value) or anchor is not None and (
                    value != value_of[anchor] if equal else value < value_of[anchor]
                ):
                    return
                options = (value,)
            elif equal:
                options = (value_of[anchor],)
            else:
                floor = value_of[anchor]
                options = [value for value in distinct if value >= floor]
        if need:
            # the largest value with `need` more copies at or above it
            left = 0
            for top in reversed(distinct):
                left += remaining[top]
                if left > need:
                    break
            else:
                return
            options = [value for value in options if value <= top]
        for value in options:
            if remaining[value] == 0:
                continue
            nodes = stats.nodes + tried
            if nodes > budget:
                raise RefusalError(f"search exceeds the node budget of {budget} nodes")
            stats.nodes = nodes
            remaining[value] -= 1
            value_of[v] = value
            forced = force(steps, k) if steps else ()
            if forced is not None:
                for u in fed:
                    partial[u] += value
                    pending[u] -= 1
                for w in forced:
                    for u in feeds[w]:
                        partial[u] += value_of[w]
                        pending[u] -= 1
                pinned = k
                for u in checks:
                    total, left = partial[u], pending[u]
                    if left == 0:
                        if pinned is None:
                            pinned = total
                        elif total != pinned:
                            break
                    elif pinned is not None and not (
                        total + left * low <= pinned <= total + left * high
                    ):
                        break
                else:
                    yield from dfs(i + 1, pinned)
                for u in fed:
                    partial[u] -= value
                    pending[u] += 1
                for w in forced:
                    for u in feeds[w]:
                        partial[u] -= value_of[w]
                        pending[u] += 1
                    remaining[value_of[w]] += 1
            remaining[value] += 1

    # an equation nothing feeds sees 0 plus its pending labels
    if all(pending[u] * low <= k <= pending[u] * high for u in tables.root_checks):
        yield from dfs(0, k)
