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
of vertex 0's automorphism orbit takes a smaller label than vertex 0.

An equation is "the labels fed into it, plus `pending` labels still to
come, sum to K".  With nothing pending it is checked exactly; otherwise K
must lie between its completions by the smallest and by the largest value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .model import LabelMultiset, SolveStats

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
    each tried (position, value) pair with a copy left.
    """
    order, feeds, checks_at = tables.order, tables.feeds, tables.checks_at
    forcing_at = tables.forcing_at or [()] * len(order)
    ties = tables.ties or [None] * len(order)
    held = tables.held or [0] * len(order)
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
        if i == len(order):
            yield value_of, k
            return
        v, tie, steps, checks = order[i], ties[i], forcing_at[i], checks_at[i]
        fed = feeds[v]
        if tie is None:
            options: Sequence[int] = distinct
        elif tie[1]:
            options = (value_of[tie[0]],)
        else:
            floor = value_of[tie[0]]
            options = [value for value in distinct if value >= floor]
        need = held[i]
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
            stats.nodes += 1
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
