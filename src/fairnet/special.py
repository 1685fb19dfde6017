"""Closed-form solvers for special shapes and forced extension over forests.

Facts used here, all elementary consequences of the equal-neighbor-sum
condition with constant K:

* On a cycle whose length is not a multiple of 4, alternating the defining
  equations forces every label to K/2.  When the length is a multiple of 4
  the fair labelings are exactly the period-4 patterns (a, b, K-a, K-b).
  One implementation serves single cycles and every 2-regular graph: on a
  disjoint union of cycles, which cycles take which pattern is a counting
  program.
* Across a disjoint union of stars, each center takes K and the leaf sets
  partition the remaining labels into groups of prescribed sizes each summing
  to K; existence is a small counting program over the groups the remaining
  labels can fill.  A single star is the case of one group: K is one of the
  labels (the center's) and the others sum to K.
* Inside an induced forest, once the labels of the forest's leaves and of its
  outside neighbors are fixed, every internal label is forced bottom-up: the
  neighborhood equation of a child determines its parent.  One plan,
  `forest_plan`, gives the boundary and roots each tree at an internal
  vertex, so the parents are the internal vertices; `extend_forest` walks
  it, and the planner reads its boundary.  The boundary enumeration labels
  the boundary in a fixed order and checks as it goes: a tree's internal
  vertices follow the last domain vertex adjacent to the tree, and each
  equation is checked at the position where its last input is labeled, so
  it yields only extensions that satisfy every equation they fully label,
  in the same order as filtering whole boundary labelings would.
* When the boundary and the forest cover the graph, every equation is
  checked, so every yielded labeling solves A l = K 1.  Eliminated with the
  forest's columns first and the boundary's from its last position to its
  first, each boundary pivot's label is an integer linear map of K and the
  boundary labels before it; the search gives it that one value, so
  the stream is unchanged and only the free boundary vertices are searched.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Mapping

from .build import cycle_graph, star_graph
from .ilp import Allocation, solve_feasible
from .model import (
    Graph,
    InputError,
    LabelMultiset,
    SolveOutcome,
    SolveStats,
    certified_outcome,
    require_constant,
)
from .search import SearchTables, ordered_search
from .structure import Elimination, PivotMap, connected_components, eliminate

PartialAssignment = dict[int, int]
# per tree of a forest, (vertex, parent) in breadth-first order from its
# root, whose parent is -1
Tree = tuple[tuple[int, int], ...]


def solve_single_star(leaf_count: int, labels: LabelMultiset, k: int) -> SolveOutcome:
    """Decide fairness of the canonical star (center 0, leaves 1..n)."""
    require_constant(k)
    if leaf_count < 1:
        raise InputError("star needs at least one leaf")
    if len(labels) != leaf_count + 1:
        raise InputError("label count must be leaf count plus one")
    return solve_disjoint_stars(star_graph(leaf_count), labels, k)


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


def _leaf_groups(supply: Mapping[int, int], size: int, k: int) -> Iterator[tuple[int, ...]]:
    """The multisets of `size` values summing to k that `supply` can fill,
    as sorted tuples in lexicographic order."""
    values = sorted(v for v, count in supply.items() if count)
    # (next value index, values taken, slots left, sum left); a tuple with
    # more copies of a smaller value comes first, so those pop first
    stack = [(0, (), size, k)]
    while stack:
        i, taken, slots, need = stack.pop()
        if not slots:
            if not need:
                yield taken
        elif i < len(values) and slots * values[i] <= need <= slots * values[-1]:
            v = values[i]
            stack.extend(
                (i + 1, taken + (v,) * c, slots - c, need - c * v)
                for c in range(min(supply[v], slots, need // v) + 1)
            )


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
            {combo: Counter(combo) for combo in _leaf_groups(leftover.counts, size, k)},
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


def forest_plan(
    graph: Graph, forest_vertices: Iterable[int]
) -> tuple[frozenset[int], frozenset[int], list[Tree]]:
    """The forest F, its boundary and its trees.

    The boundary is N(F), the outside neighbors, together with the leaves
    of F (degree <= 1 inside F).  Each tree is walked breadth-first from its
    lowest internal vertex, or from its lowest vertex when it has none (then
    it is one or two leaves), so in a tree with an internal vertex the
    parents are exactly the internal vertices.
    """
    forest = frozenset(forest_vertices)
    n = graph.vertex_count
    for v in forest:
        if not 0 <= v < n:
            raise InputError(f"forest vertex {v} out of range")
    inner = {v: [u for u in graph.adjacency[v] if u in forest] for v in forest}
    leaves = {v for v, nbrs in inner.items() if len(nbrs) <= 1}
    boundary = frozenset(leaves.union(
        u for v in forest for u in graph.adjacency[v] if u not in forest
    ))
    seen: set[int] = set()
    trees = []
    # internal vertices first, so the first vertex seen of a tree is its root
    for root in sorted(forest, key=lambda v: (v in leaves, v)):
        if root in seen:
            continue
        seen.add(root)
        tree = [(root, -1)]
        for v, _ in tree:  # the loop reaches what it appends: breadth-first
            for u in inner[v]:
                if u not in seen:
                    seen.add(u)
                    tree.append((u, v))
        trees.append(tuple(tree))
    # each tree has one edge fewer than vertices
    if sum(map(len, inner.values())) != 2 * (len(forest) - len(trees)):
        raise InputError("designated vertices do not induce a forest")
    return forest, boundary, trees


def extend_forest(graph: Graph, forest_vertices: Iterable[int],
                  boundary_labels: Mapping[int, int], k: int) -> PartialAssignment | None:
    """Force the internal labels of an induced forest from its boundary.

    Returns the combined assignment on N(F) and F, or None when the forced
    values conflict, drop to zero or below, or an all-boundary tree violates
    its own neighborhood equations.  The boundary must cover exactly N(F)
    plus the leaves of F.

    Each tree of `forest_plan` is walked from its deepest vertex up.  By the
    time a non-root vertex is reached, all its neighbors but its parent are
    labeled, so its equation forces the parent's label: K minus their sum.
    A parent a sibling has already forced, or a root that is a leaf, must
    agree.  A tree without an internal vertex also checks its root's
    equation; the equation of any other root is left to callers, since it
    is decidable only once all interior labels exist.
    """
    require_constant(k)
    _forest, boundary, trees = forest_plan(graph, forest_vertices)
    if set(boundary_labels) != boundary:
        raise InputError("boundary labeling must cover exactly N(F) and the leaves of F")
    adjacency = graph.adjacency
    result = dict(boundary_labels)
    for tree in trees:
        root = tree[0][0]
        if root in boundary and sum(result[u] for u in adjacency[root]) != k:
            return None
        for v, parent in reversed(tree[1:]):
            value = k - sum(result[u] for u in adjacency[v] if u != parent)
            if parent in result:
                if result[parent] != value:
                    return None
            elif value < 1:
                return None
            else:
                result[parent] = value
    return result


def enumerate_boundary_extensions(
    graph: Graph,
    forest_vertices: Iterable[int],
    labels: LabelMultiset,
    k: int,
    extra_boundary: Iterable[int] = (),
    stats: SolveStats | None = None,
    elimination: Elimination | None = None,
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

    Every check runs as soon as its inputs are labeled: a tree's inner
    vertices follow the last domain vertex adjacent to the tree, each
    mapped to the label one child's equation forces (the other children's
    equations, then fully labeled, check that they agree), and an equation
    is checked exactly once its last neighbor is labeled, and against the
    min/max completion of its pending neighbors before that.  When the
    domain and the forest cover the graph, each domain pivot of A l = K 1
    (`structure.eliminate` in the domain's order, or `elimination` when the
    caller has made that one) takes the one value its map gives.
    `stats.nodes` counts each tried (domain vertex, value) pair with a copy
    left at the free positions.
    """
    require_constant(k)
    forest, boundary, trees = forest_plan(graph, forest_vertices)
    domain = sorted(boundary | set(extra_boundary))
    interior = forest - boundary
    for v in domain:
        if not 0 <= v < graph.vertex_count:
            raise InputError(f"boundary vertex {v} out of range")
        if v in interior:
            raise InputError(f"boundary vertex {v} is interior to the forest")
    adjacency = graph.adjacency
    known = set(domain) | forest
    checked = {u for u in range(graph.vertex_count) if known.issuperset(adjacency[u])}
    # per labeled vertex, the checked equations its label enters
    feeds = [
        tuple(u for u in adjacency[v] if u in checked) if v in known else ()
        for v in range(graph.vertex_count)
    ]
    pos = {v: i for i, v in enumerate(domain)}
    # per domain position, the trees with an inner vertex whose last
    # adjacent domain vertex it labels
    inner_after: list[list[Tree]] = [[] for _ in domain]
    for tree in trees:
        if tree[0][0] not in boundary:
            last = max(pos[u] for v, _ in tree for u in adjacency[v] if u in pos)
            inner_after[last].append(tree)
    pivots: Mapping[int, PivotMap] = {}
    if len(known) == graph.vertex_count:
        # every equation is checked, so each map holds on all that is yielded
        pivots = (elimination or eliminate(graph, domain)).pivots
    order: list[int] = []
    maps: list[PivotMap | None] = []
    for v, placed in zip(domain, inner_after):
        order.append(v)
        maps.append(pivots.get(v))
        for tree in placed:
            # the inner vertices are the parents, deepest first; one child's
            # equation forces each, and the others' are checked at it
            child = {parent: u for u, parent in tree[1:]}
            for w in reversed(child):
                order.append(w)
                maps.append((1, 1, tuple((u, 1) for u in adjacency[child[w]] if u != w)))
    tables = SearchTables(
        tuple(order),
        feeds,
        graph.degrees,
        [feeds[v] for v in order],
        maps=maps if any(maps) else [],
        # an isolated vertex sees 0, never the positive K
        root_checks=tuple(u for u in sorted(checked) if not adjacency[u]),
    )
    for values in ordered_search(tables, labels, stats or SolveStats(), k):
        yield {v: values[v] for v in order}
