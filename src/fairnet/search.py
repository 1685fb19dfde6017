"""One ordered depth-first search behind the exact enumerators.

The exhaustive oracle, the vertex-cover enumeration and the forest-boundary
enumeration all label a small vertex set in a fixed order, try the distinct
label values in ascending order while a copy is left, and check
neighborhood equations as soon as they are decidable.  They differ only in
their tables: which vertices are labeled, which equations each label
enters, where each equation is checked, which labels are mapped and which
ties restrict the values.  A tie makes a label equal an earlier one (true
twins) or not fall below it, a floor: the order inside a false-twin class,
and the oracle's lex-leader rule that no vertex of vertex 0's automorphism
orbit takes a smaller label than vertex 0.  An integer linear map fixes a
position's label from K and the labels at earlier positions, mapped ones
included: the pivot vertices of A l = K 1 in the enumerator's labeling
order (`structure.eliminate`), in the oracle and in the forest-boundary
enumeration, and there also each inner forest vertex, which its first
child's equation forces.  A mapped position tries its one value and is not
counted as a node, so only the free positions are searched.

An equation is "the labels fed into it, plus `pending` labels still to
come, sum to K".  K must lie between its completions by the smallest and by
the largest value, which is exact once nothing is pending.  The search is
one loop over a list of per-position value iterators, so its depth meets no
recursion limit.  Every search shares one node budget, `ENUMERATION_CAP`:
past it the search refuses instead of running on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .model import LabelMultiset, RefusalError, SolveStats
from .structure import PivotMap

# nodes any one search may try; the dispatcher plans no larger enumeration
ENUMERATION_CAP = 5_000_000


@dataclass(frozen=True)
class SearchTables:
    """What one enumerator labels and checks; independent of K and the labels.

    order: the vertices labeled, position by position.
    feeds: per vertex id, the equations its label enters.
    pending: per equation, the labels it waits for before the search starts.
    checks_at: per position, the equations checked once it is labeled.
    ties: per position, None or (earlier vertex, equal): the label must
        equal that vertex's label, or must not fall below it (a floor).
    held: per position, how many later labels the ties hold at or above
        its label, directly or through other ties; a value is tried only
        while that many copies at or above it are left besides its own.
    maps: per position, None or an integer linear map (D, c, ((u, c_u), ...))
        over the vertices at earlier positions, free or mapped: the position
        takes the one value (c K - sum of c_u l_u) / D, which must be an
        integer with a copy left and pass the position's tie and `held`
        rules, or the branch dies.  Such a position is no node.
    root_checks: equations nothing feeds, checked before the first position.
    """

    order: tuple[int, ...]
    feeds: Sequence[Sequence[int]]
    pending: Sequence[int]
    checks_at: Sequence[Sequence[int]]
    ties: Sequence[tuple[int, bool] | None] = ()
    held: Sequence[int] = ()
    maps: Sequence[PivotMap | None] = ()
    root_checks: tuple[int, ...] = ()


def ordered_search(tables: SearchTables, labels: LabelMultiset, stats: SolveStats,
                   k: int) -> Iterator[list[int]]:
    """Yield the label per vertex id of each labeling no checked equation
    breaks at constant k.

    Labelings come in lexicographic order of the labels along `order`.  The
    yielded list is the live search state, valid until the generator
    resumes.  `stats.nodes` counts each tried (position, value) pair with a
    copy left, at positions the maps leave free.  Once `stats.nodes` exceeds
    `ENUMERATION_CAP` the search raises RefusalError.
    """
    order, feeds = tables.order, tables.feeds
    size = len(order)
    ties = tables.ties or [None] * size
    held = tables.held or [0] * size
    maps = tables.maps or [None] * size
    # per position, read once per node: the vertex, the equations its label
    # enters, its checks, and 0 for a mapped position (no node) else 1
    slots = []
    # per position, None when it tries every value, else its tie vertex or
    # None, equal, its map with c K folded in or None, and its held count
    rules = []
    for i, v in enumerate(order):
        tie, linear = ties[i], maps[i]
        if linear is not None:
            scale, weight, terms = linear
            linear = (scale, weight * k, terms)
        anchor, equal = tie or (None, False)
        slots.append((v, feeds[v], tables.checks_at[i], int(linear is None)))
        ruled = tie is not None or linear is not None or held[i]
        rules.append((anchor, equal, linear, held[i]) if ruled else None)
    budget = ENUMERATION_CAP
    distinct = labels.distinct_values
    if not distinct:
        # no labels: only nothing to label and no equation is a labeling
        if not size and not tables.root_checks:
            yield [0] * len(feeds)
        return
    low, high = distinct[0], distinct[-1]
    remaining = dict(labels.counts)  # a plain dict subscripts faster than a Counter
    value_of = [0] * len(feeds)
    partial = [0] * len(tables.pending)
    pending = list(tables.pending)

    def options(i: int) -> Sequence[int]:
        """The values position i may try, given the labels before it."""
        if rules[i] is None:
            return distinct
        anchor, equal, linear, need = rules[i]
        if linear is not None:
            scale, base, terms = linear
            value, rest = divmod(base - sum([c * value_of[u] for u, c in terms]), scale)
            if rest or not remaining.get(value) or anchor is not None and (
                value != value_of[anchor] if equal else value < value_of[anchor]
            ):
                return ()
            values: Sequence[int] = (value,)
        elif anchor is None:
            values = distinct
        elif equal:
            values = (value_of[anchor],)
        else:
            floor = value_of[anchor]
            values = [value for value in distinct if value >= floor]
        if need:
            # the largest value with `need` more copies at or above it
            left = 0
            for top in reversed(distinct):
                left += remaining[top]
                if left > need:
                    break
            else:
                return ()
            values = [value for value in values if value <= top]
        return values

    # an equation nothing feeds sees 0 plus its pending labels
    if not all(pending[u] * low <= k <= pending[u] * high for u in tables.root_checks):
        return
    if not size:
        yield value_of
        return
    # per position reached, an iterator over the values it has left to try;
    # a position holds its label while the positions after it search, and
    # one with nothing to try is never reached
    last = size - 1
    trying = [iter(options(0))]
    i = 0
    while True:
        v, fed, checks, tried = slots[i]
        for value in trying[i]:
            if remaining[value] == 0:
                continue
            nodes = stats.nodes + tried
            if nodes > budget:
                raise RefusalError(f"search exceeds the node budget of {budget} nodes")
            stats.nodes = nodes
            remaining[value] -= 1
            value_of[v] = value
            for u in fed:
                partial[u] += value
                pending[u] -= 1
            for u in checks:
                total, left = partial[u], pending[u]
                if not total + left * low <= k <= total + left * high:
                    break
            else:
                if i == last:
                    yield value_of
                else:
                    # a position without rules skips the call
                    values = distinct if rules[i + 1] is None else options(i + 1)
                    if values:
                        i += 1
                        trying.append(iter(values))
                        break
            # take the label back before the position moves on
            remaining[value] += 1
            for u in fed:
                partial[u] -= value
                pending[u] += 1
        else:
            # exhausted: the position before takes its label back, moves on
            if not i:
                return
            trying.pop()
            i -= 1
            v, fed, _checks, _tried = slots[i]
            value = value_of[v]
            remaining[value] += 1
            for u in fed:
                partial[u] -= value
                pending[u] += 1
