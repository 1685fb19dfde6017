"""Closed-form solvers for special shapes and forced extension over forests.

Facts used here, all elementary consequences of the equal-neighbor-sum
condition with constant K:

* A star is fair iff K is one of the labels (the center's) and the remaining
  labels sum to K.
* On a cycle whose length is not a multiple of 4, alternating the defining
  equations forces every label to K/2.  When the length is a multiple of 4
  the fair labelings are exactly the period-4 patterns (a, b, K-a, K-b).
  One implementation serves single cycles and every 2-regular graph: on a
  disjoint union of cycles, which cycles take which pattern is a counting
  program.
* Across a disjoint union of stars, each center takes K and the leaf sets
  partition the remaining labels into groups of prescribed sizes each summing
  to K; existence is a small counting program over distinct label values.
* Inside an induced forest, once the labels of the forest's leaves and of its
  outside neighbors are fixed, every internal label is forced bottom-up: the
  neighborhood equation of a child determines its parent.  The boundary
  enumeration labels the boundary in a fixed order and checks as it goes:
  each tree is forced, and each equation checked, at the position where its
  last input is labeled, so it yields only extensions that satisfy every
  equation they fully label, in the same order as filtering whole boundary
  labelings would.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, Mapping

from .build import cycle_graph, star_graph
from .ilp import Allocation, solve_feasible
from .model import (
    FairnetError,
    Graph,
    InputError,
    LabelMultiset,
    SolveOutcome,
    SolveStats,
    certified_outcome,
    require_constant,
    timed,
)
from .search import ForcingStep, SearchTables, _forced_value, ordered_search
from .structure import connected_components

PartialAssignment = dict[int, int]


@timed
def solve_single_star(leaf_count: int, labels: LabelMultiset, k: int) -> SolveOutcome:
    """Decide fairness of the canonical star (center 0, leaves 1..n)."""
    require_constant(k)
    if leaf_count < 1:
        raise InputError("star needs at least one leaf")
    if len(labels) != leaf_count + 1:
        raise InputError("label count must be leaf count plus one")
    stats = SolveStats()
    fair = labels.multiplicity(k) >= 1 and labels.total() - k == k
    if not fair:
        return SolveOutcome.make_unfair(stats)
    rest = labels.remove_copies(k, 1)
    return certified_outcome(star_graph(leaf_count), labels, (k, *rest.values), k, stats)


@timed
def solve_cycle(length: int, labels: LabelMultiset, k: int) -> SolveOutcome:
    """Decide fairness of the canonical cycle 0-1-...-(n-1)-0."""
    require_constant(k)
    if length < 3:
        raise InputError("cycle needs at least three vertices")
    if len(labels) != length:
        raise InputError("label count must equal the cycle length")
    return _solve_cycles(cycle_graph(length), labels, k, SolveStats())


def _cycle_order(graph: Graph, comp: tuple[int, ...]) -> list[int]:
    # deterministic walk around a cycle component of a 2-regular graph
    start = comp[0]
    order = [start]
    prev, cur = start, min(graph.adjacency[start])
    while cur != start:
        order.append(cur)
        a, b = graph.adjacency[cur]
        prev, cur = cur, b if a == prev else a
    return order


def _solve_cycles(graph: Graph, labels: LabelMultiset, k: int,
                  stats: SolveStats) -> SolveOutcome:
    """Decide a validated 2-regular graph (disjoint cycles) for constant k.

    Cycles whose length is not a multiple of 4 take K/2 everywhere.  Each
    other cycle takes one period-4 pattern (a, b, K-a, K-b); how many cycles
    of each length take each pattern, deduplicated by label multiset, is a
    counting program over the labels the plain cycles leave.
    """
    comps = connected_components(graph)
    if labels.alpha > 4 * len(comps):
        stats.trace.append("more distinct values than cycle patterns can use")
        return SolveOutcome.make_unfair(stats)

    half_needed = sum(len(c) for c in comps if len(c) % 4 != 0)
    remaining = Counter(labels.counts)
    if half_needed:
        if k % 2 != 0:
            stats.trace.append("odd constant but a cycle length not divisible by 4")
            return SolveOutcome.make_unfair(stats)
        if remaining[k // 2] < half_needed:
            stats.trace.append("not enough copies of k/2 for the plain cycles")
            return SolveOutcome.make_unfair(stats)
        remaining[k // 2] -= half_needed

    count_by_length = Counter(len(c) for c in comps if len(c) % 4 == 0)
    lengths = sorted(count_by_length)
    picked: dict[int, Iterator[tuple[int, int]]] = {}
    if lengths:
        # per label multiset, the first pattern (a, b, k-a, k-b) that uses it
        patterns: dict[tuple, tuple[tuple[int, int], Counter]] = {}
        values = sorted(v for v in remaining if remaining[v] > 0)
        for a in values:
            for b in values:
                use = Counter((a, b, k - a, k - b))
                if a <= b < k and all(remaining[v] >= c for v, c in use.items()):
                    patterns.setdefault(tuple(sorted(use.items())), ((a, b), use))
        allocation = Allocation([
            (
                count_by_length[length],
                {
                    pair: {v: length // 4 * c for v, c in use.items()}
                    for pair, use in patterns.values()
                },
            )
            for length in lengths
        ])
        stats.ilp_calls += 1
        solution = solve_feasible(allocation.program(remaining))
        if not solution.feasible:
            return SolveOutcome.make_unfair(stats)
        picked = {length: iter(p) for length, p in zip(lengths, allocation.decode(solution))}
    elif sum(remaining.values()) != 0:
        stats.trace.append("labels left over after the plain cycles")
        return SolveOutcome.make_unfair(stats)

    assignment = [0] * graph.vertex_count
    for comp in comps:
        a, b = next(picked[len(comp)]) if len(comp) % 4 == 0 else (k // 2, k // 2)
        for idx, v in enumerate(_cycle_order(graph, comp)):
            assignment[v] = (a, b, k - a, k - b)[idx % 4]
    return certified_outcome(graph, labels, assignment, k, stats)


def star_decomposition(graph: Graph) -> list[tuple[int, tuple[int, ...]]]:
    """(center, leaves) per component; input error unless all components are stars."""
    stars = []
    for comp in connected_components(graph):
        if len(comp) < 2:
            raise InputError("isolated vertex is not a star")
        degs = {v: graph.degree(v) for v in comp}
        center = max(comp, key=lambda v: (degs[v], -v))
        leaves = tuple(v for v in comp if v != center)
        if degs[center] != len(leaves) or any(degs[v] != 1 for v in leaves):
            raise InputError("component is not a star")
        stars.append((center, leaves))
    return stars


@timed
def solve_disjoint_stars(graph: Graph, labels: LabelMultiset, k: int) -> SolveOutcome:
    """Decide fairness of a disjoint union of stars via a counting program.

    Every center must carry K, so reject unless K has enough copies.  The
    leftover labels must split into one group per star, the group of a star
    with i leaves holding i pairwise-distinct-by-position values summing to K.
    Group *contents* are multisets over distinct leftover values; integer
    variables count how many stars of each size adopt each candidate group.
    """
    require_constant(k)
    n = graph.vertex_count
    if len(labels) != n:
        raise InputError("label multiset size does not match the vertex count")
    stars = star_decomposition(graph)
    stats = SolveStats()
    t = len(stars)
    if labels.multiplicity(k) < t:
        return SolveOutcome.make_unfair(stats)
    leftover = labels.remove_copies(k, t)
    by_size: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for center, leaves in sorted(stars):
        by_size.setdefault(len(leaves), []).append((center, leaves))
    sizes = sorted(by_size)
    allocation = Allocation([
        (
            len(by_size[size]),
            {
                combo: Counter(combo)
                for combo in combinations_with_replacement(leftover.distinct_values, size)
                if sum(combo) == k
            },
        )
        for size in sizes
    ])
    stats.ilp_calls += 1
    solution = solve_feasible(allocation.program(leftover.counts))
    if not solution.feasible:
        return SolveOutcome.make_unfair(stats)

    assignment = [0] * n
    for size, combos in zip(sizes, allocation.decode(solution)):
        for (center, leaves), combo in zip(by_size[size], combos):
            assignment[center] = k
            for leaf, value in zip(sorted(leaves), combo):
                assignment[leaf] = value
    return certified_outcome(graph, labels, assignment, k, stats)


class ForestExtender:
    """Precomputed extension plan for an induced forest of a host graph.

    The boundary of the forest F is N(F), the outside neighbors, together
    with the leaves of F (degree <= 1 inside F).  Given labels on the
    boundary and a constant K, all remaining internal labels are forced: in
    each tree, processed away from a deepest level, the neighborhood equation
    of any child w of an internal vertex v reads  label(v) = K - sum of the
    labels of the other neighbors of w, all of which are known by then.
    Conflicting forced values, a non-positive forced value, or a violated
    equation of an all-boundary tree reports inconsistency (None).
    """

    def __init__(self, graph: Graph, forest_vertices: Iterable[int]):
        self.graph = graph
        forest = frozenset(forest_vertices)
        n = graph.vertex_count
        for v in forest:
            if not 0 <= v < n:
                raise InputError(f"forest vertex {v} out of range")
        inner_deg = {
            v: sum(1 for u in graph.adjacency[v] if u in forest) for v in forest
        }
        self.forest = forest
        self.leaves = frozenset(v for v in forest if inner_deg[v] <= 1)
        self.outside_neighbors = frozenset(
            u for v in forest for u in graph.adjacency[v] if u not in forest
        )
        self.boundary = self.leaves | self.outside_neighbors
        self.internal = sorted(forest - self.leaves)

        # per tree with an internal vertex, its forcing steps in processing
        # order, the root last
        self.trees: list[list[ForcingStep]] = []
        # equations over boundary labels only (vertices of size <= 2 trees)
        self.pre_checks: list[tuple[int, ...]] = []

        seen: set[int] = set()
        for root_candidate in sorted(forest):
            if root_candidate in seen:
                continue
            tree = self._tree_of(root_candidate)
            seen.update(tree)
            internals = [v for v in tree if inner_deg[v] >= 2]
            if not internals:
                if len(tree) > 2:
                    raise FairnetError("internal error: tree without internal vertex")
                self.pre_checks.extend(tuple(graph.adjacency[v]) for v in sorted(tree))
                continue
            self.trees.append(self._plan_tree(min(internals), inner_deg))

    def _tree_of(self, start: int) -> list[int]:
        tree = [start]
        seen = {start}
        stack = [start]
        edge_count = 0
        while stack:
            v = stack.pop()
            for u in self.graph.adjacency[v]:
                if u not in self.forest:
                    continue
                edge_count += 1
                if u not in seen:
                    seen.add(u)
                    tree.append(u)
                    stack.append(u)
        if edge_count // 2 != len(tree) - 1:
            raise InputError("designated vertices do not induce a forest")
        return sorted(tree)

    def _plan_tree(self, root: int, inner_deg: Mapping[int, int]) -> list[ForcingStep]:
        parent = {root: -1}
        levels = [[root]]
        while levels[-1]:
            nxt = []
            for v in levels[-1]:
                for u in self.graph.adjacency[v]:
                    if u in self.forest and u not in parent:
                        parent[u] = v
                        nxt.append(u)
            levels.append(nxt)
        levels.pop()
        children: dict[int, list[int]] = {v: [] for v in parent}
        for v, p in parent.items():
            if p >= 0:
                children[p].append(v)
        steps = []
        for level in reversed(levels):
            for v in sorted(level):
                if inner_deg[v] < 2:
                    continue
                entries = tuple(
                    tuple(u for u in self.graph.adjacency[w] if u != v)
                    for w in sorted(children[v])
                )
                steps.append((v, entries))
        return steps

    def run(self, boundary_labels: Mapping[int, int], k: int) -> PartialAssignment | None:
        """Force the interior labels; None on conflict.

        Checks sibling agreement, positivity, and the equations of
        all-boundary trees.  The equations of the tree roots are left to
        callers: they are decidable only once all interior labels exist.
        """
        if set(boundary_labels) != self.boundary:
            raise InputError("boundary labeling must cover exactly N(F) and the leaves of F")
        result = dict(boundary_labels)
        for nbrs in self.pre_checks:
            if sum(result[u] for u in nbrs) != k:
                return None
        for steps in self.trees:
            for v, entries in steps:
                forced = _forced_value(entries, result, k)
                if forced is None or forced < 1:
                    return None
                result[v] = forced
        return result


def extend_forest(graph: Graph, forest_vertices: Iterable[int],
                  boundary_labels: Mapping[int, int], k: int) -> PartialAssignment | None:
    """Force the internal labels of an induced forest from its boundary.

    Returns the combined assignment on N(F) and F, or None when the forced
    values conflict, drop to zero or below, or an all-boundary tree violates
    its own neighborhood equations.  The boundary must cover exactly N(F)
    plus the leaves of F.
    """
    require_constant(k)
    return ForestExtender(graph, forest_vertices).run(boundary_labels, k)


def enumerate_boundary_extensions(
    graph: Graph,
    forest_vertices: Iterable[int],
    labels: LabelMultiset,
    k: int,
    extra_boundary: Iterable[int] = (),
    stats: SolveStats | None = None,
) -> Iterator[PartialAssignment]:
    """Forced extensions of boundary labelings that break no known equation.

    The domain is the boundary, optionally widened by extra vertices outside
    the forest (e.g. a full feedback vertex set).  Its vertices are labeled
    in id order with the distinct label values in ascending order, so the
    stream follows the lexicographic order of the domain labelings.  A
    labeling is yielded, merged with the forced interior labels, when it
    extends consistently, the combined labels fit inside the multiset, and
    every vertex whose whole neighborhood lies in the domain or the forest
    sees exactly K.  Restrictions of genuine fair labelings always survive.

    Every check runs as soon as its inputs are labeled: a tree is forced at
    the position of the last domain vertex its forcing steps or its root
    equation read, and an equation is checked exactly once its last neighbor
    is labeled, and against the min/max completion of its pending neighbors
    before that.  `stats.nodes` counts each tried (domain vertex, value)
    pair with a copy left.
    """
    require_constant(k)
    extender = ForestExtender(graph, forest_vertices)
    domain = sorted(extender.boundary | set(extra_boundary))
    interior = set(extender.internal)
    for v in domain:
        if not 0 <= v < graph.vertex_count:
            raise InputError(f"boundary vertex {v} out of range")
        if v in interior:
            raise InputError(f"boundary vertex {v} is interior to the forest")
    adjacency = graph.adjacency
    known = set(domain) | extender.forest
    checked = {u for u in range(graph.vertex_count) if known.issuperset(adjacency[u])}
    # per labeled vertex, the checked equations its label enters
    feeds = [
        tuple(u for u in adjacency[v] if u in checked) if v in known else ()
        for v in range(graph.vertex_count)
    ]
    pos = {v: i for i, v in enumerate(domain)}
    forcing_at: list[list[ForcingStep]] = [[] for _ in domain]
    touched_at = [set(feeds[v]) for v in domain]
    for steps in extender.trees:
        reads = {u for _, entries in steps for others in entries for u in others}
        reads.update(adjacency[steps[-1][0]])
        trigger = max(pos[u] for u in reads if u in pos)
        forcing_at[trigger].extend(steps)
        for v, _ in steps:
            touched_at[trigger].update(feeds[v])
    tables = SearchTables(
        tuple(domain),
        feeds,
        graph.degrees,
        [tuple(sorted(touched)) for touched in touched_at],
        forcing_at=forcing_at,
        # an isolated vertex sees 0, never the positive K
        root_checks=tuple(u for u in sorted(checked) if not adjacency[u]),
    )
    order = domain + [v for steps in extender.trees for v, _ in steps]
    for values, _ in ordered_search(tables, labels, stats or SolveStats(), k):
        yield {v: values[v] for v in order}
