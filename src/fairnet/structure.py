"""Structural analysis: components, the elimination of A l = K 1, twin
classes, vertex 0's automorphism orbit, shape tags, exact FVS and VC.

One integer elimination (`eliminate`) gives each component's weight s_C,
from which the forced constant follows, and each pivot vertex's label as
an affine map of K and free labels, which the oracle searches through.

The feedback-vertex-set and vertex-cover routines are exact branch-and-bound
searches meant for the small instances this package targets, run on each
connected component alone.  Both return the lexicographically smallest
minimum solution (compared as sorted id tuples) so downstream enumeration
stays deterministic.

Each branch is cut by a lower bound: for FVS the fewest vertex degrees whose
(degree - 1) values cover the cyclomatic number m - n + c, for VC the size of
a greedy maximal matching.  A bound only cuts branches that cannot succeed,
so the sizes, and the tie-breaking of the greedy reconstruction that follows,
are those of the unbounded search.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable

from .model import FairnetError, Graph, InputError


def connected_components(graph: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components, each sorted, ordered by minimum id."""
    n = graph.vertex_count
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        comp = []
        while queue:
            v = queue.pop()
            comp.append(v)
            for u in graph.adjacency[v]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
        components.append(tuple(sorted(comp)))
    return components


# a pivot vertex p's equation after elimination: D l_p = c K - sum of c_j l_j
# over free vertices j < p, stored as (D, c, ((j, c_j), ...)) with D > 0
PivotMap = tuple[int, int, tuple[tuple[int, int], ...]]


def _cancel(row: list[int], pivot_row: list[int], col: int) -> list[int]:
    """An integer combination of the two rows that is 0 at col, its entries
    divided by their gcd."""
    a, b = pivot_row[col], row[col]
    common = gcd(a, b)
    a, b = a // common, b // common
    out = [a * x - b * y for x, y in zip(row, pivot_row)]
    common = gcd(*out)
    if common > 1:
        out = [x // common for x in out]
    return out


@dataclass(frozen=True)
class Elimination:
    """A l = K 1 in reduced form, columns taken from the highest vertex id down.

    weights: each connected component C with s_C = 1^T x for A_C x = 1, or
        None when A_C x = 1 has no solution (`component_weights`).
    pivots: per pivot vertex p, its row as a `PivotMap`.  The row is an
        integer combination of neighborhood equations, so every fair
        labeling with constant K satisfies it, and it involves only free
        vertices with lower ids: labeled in id order, a pivot's label is
        fixed by K and the labels before it.
    """

    weights: tuple[tuple[tuple[int, ...], Fraction | None], ...]
    pivots: dict[int, PivotMap]


def eliminate(graph: Graph) -> Elimination:
    """Gauss-Jordan elimination of [A | 1] over the integers, per component.

    Rows stay lists of coprime integers: cancelling a column combines two
    rows with integer factors and divides out the gcd, so no fraction
    arises (fraction-free, as in Bareiss's elimination).  Columns run from
    the highest vertex id down and each pivot is cancelled from every other
    row, so the reduced form, and with it each `PivotMap`, is unique.  With
    the free labels at 0 and K = 1, pivot p takes c / D, so s_C is the sum
    of c / D over C's pivots; a row left with only a K coefficient means no
    solution.  Rows of different components never meet, so each component
    is eliminated alone.
    """
    weights = []
    pivots: dict[int, PivotMap] = {}
    for comp in connected_components(graph):
        size = len(comp)
        index = {v: i for i, v in enumerate(comp)}
        # one row per distinct neighborhood (false twins repeat an equation):
        # the neighbors' columns, then the coefficient of K
        pending = []
        for nbrs in dict.fromkeys(graph.adjacency[v] for v in comp):
            row = [0] * size + [1]
            for u in nbrs:
                row[index[u]] = 1
            pending.append(row)
        reduced: dict[int, list[int]] = {}
        for col in reversed(range(size)):
            pivot_row = next((row for row in pending if row[col]), None)
            if pivot_row is None:
                continue
            pending = [
                _cancel(row, pivot_row, col) if row[col] else row
                for row in pending
                if row is not pivot_row
            ]
            pending = [row for row in pending if any(row)]
            for p, row in reduced.items():
                if row[col]:
                    reduced[p] = _cancel(row, pivot_row, col)
            reduced[col] = pivot_row
        for p, row in reduced.items():
            if row[p] < 0:
                row = [-x for x in row]
            terms = tuple((comp[j], x) for j, x in enumerate(row[:size]) if x and j != p)
            pivots[comp[p]] = (row[p], row[size], terms)
        # after the last column a pending row holds only its K coefficient
        weight = None
        if not pending:
            maps = [pivots[comp[p]] for p in reduced]
            common = lcm(*(scale for scale, _c, _terms in maps))
            weight = Fraction(sum(c * (common // scale) for scale, c, _terms in maps), common)
        weights.append((comp, weight))
    return Elimination(tuple(weights), pivots)


def component_weights(graph: Graph) -> list[tuple[tuple[int, ...], Fraction | None]]:
    """Each connected component C with s_C = 1^T x for A_C x = 1, or None.

    A_C is the adjacency matrix of C.  s_C does not depend on which solution
    x is taken: 1 lies in the column space of the symmetric A_C, so it is
    orthogonal to the null space that separates two solutions.  A fair
    labeling l with constant K > 0 solves A_C l_C = K 1, hence the labels C
    receives sum to K s_C, and a component with no solution (s_C None) has
    no fair labeling with positive labels.  Read off `eliminate`.
    """
    return list(eliminate(graph).weights)


@dataclass(frozen=True)
class TwinClass:
    """Vertices that are mutually swappable (false twins share an open
    neighborhood; true twins are adjacent and share a closed neighborhood,
    which forces equal labels in every fair labeling)."""

    vertices: tuple[int, ...]
    true_twin: bool


@dataclass(frozen=True)
class TwinPartition:
    classes: tuple[TwinClass, ...]


def twin_classes(graph: Graph, vertices: Iterable[int] | None = None) -> TwinPartition:
    """Partition a vertex subset into twin classes.

    Neighborhoods are taken in the whole graph even when a subset is given.
    A vertex cannot sit in both a nontrivial false-twin group and a nontrivial
    true-twin group, so grouping first by open then by closed neighborhood
    yields the coarsest partition.  Singletons are reported as false classes.
    """
    n = graph.vertex_count
    vs = sorted(set(range(n) if vertices is None else vertices))
    for v in vs:
        if not 0 <= v < n:
            raise InputError(f"vertex {v} out of range")
    open_groups: dict[tuple[int, ...], list[int]] = {}
    closed_groups: dict[tuple[int, ...], list[int]] = {}
    for v in vs:
        nbrs = graph.adjacency[v]
        open_groups.setdefault(nbrs, []).append(v)
        closed_groups.setdefault(tuple(sorted(nbrs + (v,))), []).append(v)
    placed: set[int] = set()
    classes: list[TwinClass] = []
    for group in open_groups.values():
        if len(group) >= 2:
            classes.append(TwinClass(tuple(group), False))
            placed.update(group)
    for group in closed_groups.values():
        members = tuple(v for v in group if v not in placed)
        if len(members) >= 2:
            classes.append(TwinClass(members, True))
            placed.update(members)
    for v in vs:
        if v not in placed:
            classes.append(TwinClass((v,), False))
    classes.sort(key=lambda c: c.vertices[0])
    return TwinPartition(tuple(classes))


def _refine_pair(
    adjacency: list[tuple[int, ...]], left: list, right: list
) -> tuple[list[int], list[int]] | None:
    """Colour refinement of two colourings of one graph, in step.

    Each round recolours a vertex by the rank of (its colour, its neighbors'
    sorted colours).  The ranks depend only on the signatures, so the two
    sides keep comparable colours; None as soon as their signature multisets
    differ, when no automorphism maps one colouring onto the other.
    """
    count = len(set(left))
    while True:
        signatures = []
        for colours in (left, right):
            signatures.append([
                (colours[v], tuple(sorted([colours[u] for u in nbrs])))
                for v, nbrs in enumerate(adjacency)
            ])
        ordered = sorted(signatures[0])
        if ordered != sorted(signatures[1]):
            return None
        rank = {signature: i for i, signature in enumerate(dict.fromkeys(ordered))}
        left, right = ([rank[s] for s in side] for side in signatures)
        if len(rank) == count:
            return left, right
        count = len(rank)


class _OutOfBudget(Exception):
    """The automorphism search used up its node budget."""


def first_vertex_orbit(graph: Graph, part: TwinPartition, budget: int) -> tuple[int, ...]:
    """Vertices shown to lie in vertex 0's orbit under the automorphism group.

    Twin classes are modules that every automorphism permutes, and a
    colour-preserving automorphism of the twin quotient (one vertex per
    class, coloured by class size and kind) lifts to one of the graph by
    mapping classes onto each other in order.  So the orbit is a union of
    classes, found on the quotient: for each class whose stable colour is
    that of vertex 0's class and which is not yet merged with it,
    individualization-refinement looks for an automorphism taking the one
    onto the other, and the cycles of each automorphism found are merged
    in a union-find.  Each refinement is one node; past `budget` nodes the
    search stops, and every class already merged is still in the orbit.
    """
    classes = part.classes
    if len(classes) < 2 or budget <= 0:
        return classes[0].vertices if classes else ()
    class_of = {v: i for i, cls in enumerate(classes) for v in cls.vertices}
    adjacency = [
        tuple(sorted({class_of[u] for u in graph.adjacency[cls.vertices[0]]} - {i}))
        for i, cls in enumerate(classes)
    ]
    kinds = [(len(cls.vertices), cls.true_twin) for cls in classes]
    stable = _refine_pair(adjacency, kinds, kinds)[0]
    nodes = 1

    def individualize(colours: list[int], v: int) -> list[int]:
        # ranks run 0..c-1, so c is a fresh colour on either side
        marked = list(colours)
        marked[v] = len(colours)
        return marked

    def search(left: list[int], right: list[int]) -> list[int] | None:
        """An automorphism mapping the left colouring onto the right one."""
        nonlocal nodes
        if nodes >= budget:
            raise _OutOfBudget
        nodes += 1
        pair = _refine_pair(adjacency, left, right)
        if pair is None:
            return None
        left, right = pair
        members: dict[int, list[int]] = {}
        for v, colour in enumerate(right):
            members.setdefault(colour, []).append(v)
        cell = next((colour for colour in sorted(members) if len(members[colour]) > 1), None)
        if cell is None:
            return [members[colour][0] for colour in left]
        v = left.index(cell)
        marked = individualize(left, v)
        for w in members[cell]:
            found = search(marked, individualize(right, w))
            if found is not None:
                return found
        return None

    parent = list(range(len(classes)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    try:
        for target in range(1, len(classes)):
            if stable[target] != stable[0] or find(target) == find(0):
                continue
            sigma = search(individualize(stable, 0), individualize(stable, target))
            if sigma is None:
                continue
            if sorted(sigma) != list(range(len(classes))) or any(
                kinds[sigma[i]] != kinds[i]
                or any(sigma[j] not in adjacency[sigma[i]] for j in adjacency[i])
                for i in range(len(classes))
            ):
                raise FairnetError("internal error: refinement mapped a non-automorphism")
            for i, j in enumerate(sigma):
                parent[find(i)] = find(j)
    except _OutOfBudget:
        pass
    root = find(0)
    return tuple(sorted(
        v for i, cls in enumerate(classes) if find(i) == root for v in cls.vertices
    ))


class Shape(Enum):
    EDGELESS_ONLY = "edgeless-only"
    HAS_ISOLATED_MIXED = "has-isolated-mixed"
    DISJOINT_STARS = "disjoint-stars"
    DISJOINT_CYCLES = "disjoint-cycles"
    REGULAR = "regular"
    FOREST = "forest"
    GENERAL = "general"


@dataclass(frozen=True)
class ShapeReport:
    shape: Shape
    regular_degree: int | None
    components: tuple[tuple[int, ...], ...]
    component_kinds: tuple[str, ...]


def _component_kind(graph: Graph, comp: tuple[int, ...]) -> str:
    size = len(comp)
    if size == 1:
        return "isolated"
    degs = [graph.degree(v) for v in comp]
    edge_count = sum(degs) // 2
    if edge_count == size - 1:
        # a connected component with size-1 edges is a tree; a star is a
        # tree with a universal vertex (K_{1,1} counts: both ends qualify)
        return "star" if max(degs) == size - 1 else "tree"
    if all(d == 2 for d in degs):
        return "cycle"
    return "general"


def classify(graph: Graph) -> ShapeReport:
    """Mutually exclusive shape tag plus per-component kinds.

    Priority: edgeless-only, has-isolated-mixed, disjoint-stars,
    disjoint-cycles, regular, forest, general.  The regular degree is
    reported whenever the whole graph is regular, independent of the tag
    (disjoint cycles, for instance, are also 2-regular).
    """
    comps = tuple(connected_components(graph))
    kinds = tuple(_component_kind(graph, c) for c in comps)
    r = graph.regular_degree()
    if graph.vertex_count == 0 or all(k == "isolated" for k in kinds):
        shape = Shape.EDGELESS_ONLY
    elif any(k == "isolated" for k in kinds):
        shape = Shape.HAS_ISOLATED_MIXED
    elif all(k == "star" for k in kinds):
        shape = Shape.DISJOINT_STARS
    elif all(k == "cycle" for k in kinds):
        shape = Shape.DISJOINT_CYCLES
    elif r is not None:
        shape = Shape.REGULAR
    elif all(k in ("star", "tree") for k in kinds):
        shape = Shape.FOREST
    else:
        shape = Shape.GENERAL
    return ShapeReport(shape, r, comps, kinds)


def _adjacency_map(graph: Graph) -> dict[int, set[int]]:
    return {v: set(graph.adjacency[v]) for v in range(graph.vertex_count)}


def _drop_vertex(adj: dict[int, set[int]], v: int) -> None:
    for u in adj[v]:
        adj[u].discard(v)
    del adj[v]


def _prune_degree_le1(adj: dict[int, set[int]]) -> None:
    # vertices of degree <= 1 lie on no cycle and never help an FVS
    queue = [v for v, nbrs in adj.items() if len(nbrs) <= 1]
    while queue:
        v = queue.pop()
        if v not in adj or len(adj[v]) > 1:
            continue
        for u in adj[v]:
            adj[u].discard(v)
            if len(adj[u]) <= 1:
                queue.append(u)
        del adj[v]


def _short_cycle(adj: dict[int, set[int]]) -> list[int]:
    """Some shortest cycle of a graph with minimum degree >= 2."""
    best: list[int] | None = None
    for root in sorted(adj):
        parent = {root: -1}
        depth = {root: 0}
        queue = [root]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            if best is not None and depth[v] * 2 >= len(best):
                break
            for u in adj[v]:
                if u not in depth:
                    depth[u] = depth[v] + 1
                    parent[u] = v
                    queue.append(u)
                elif parent[v] != u and parent[u] != v:
                    # walk both endpoints up to their meeting point
                    pa, pb = v, u
                    path_a, path_b = [pa], [pb]
                    while depth[pa] > depth[pb]:
                        pa = parent[pa]
                        path_a.append(pa)
                    while depth[pb] > depth[pa]:
                        pb = parent[pb]
                        path_b.append(pb)
                    while pa != pb:
                        pa, pb = parent[pa], parent[pb]
                        path_a.append(pa)
                        path_b.append(pb)
                    cycle = path_a + path_b[:-1][::-1]
                    if len(set(cycle)) == len(cycle):
                        if best is None or len(cycle) < len(best):
                            best = cycle
        if best is not None and len(best) == 3:
            break
    if best is None:
        raise FairnetError("no cycle found despite minimum degree >= 2")
    return best


def _cycle_rank_bound(adj: dict[int, set[int]]) -> int:
    """A lower bound on the feedback vertex set number.

    The cyclomatic number m - n + c is 0 exactly on forests.  Deleting a
    vertex of degree d lowers it by at most d - 1, and degrees only fall as
    vertices go, so no set smaller than the fewest largest (d - 1) values
    summing to it can be a feedback vertex set.
    """
    degrees = sorted([len(nbrs) for nbrs in adj.values()], reverse=True)
    rank = sum(degrees) // 2 - len(degrees)
    seen: set[int] = set()
    for start in adj:
        if start not in seen:
            rank += 1
            seen.add(start)
            stack = [start]
            while stack:
                for u in adj[stack.pop()]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
    bound = 0
    for degree in degrees:
        if rank <= 0:
            break
        rank -= degree - 1
        bound += 1
    return bound


def _has_fvs(adj: dict[int, set[int]], budget: int) -> bool:
    _prune_degree_le1(adj)
    if not adj:
        return True
    if budget < _cycle_rank_bound(adj):
        return False
    cycle = _short_cycle(adj)
    for v in cycle:
        copy = {w: set(nbrs) for w, nbrs in adj.items()}
        _drop_vertex(copy, v)
        if _has_fvs(copy, budget - 1):
            return True
    return False


def _by_component(graph: Graph, solve) -> tuple[int, ...]:
    """The sorted union of `solve` on each connected component's adjacency map.

    A minimum FVS or VC of a disjoint union is a union of per-component
    minima, and the union of the lexicographically smallest ones is the
    smallest: two sets of equal size compare at the smallest element of
    their symmetric difference, which the other components' parts leave
    unchanged.
    """
    adjacency = _adjacency_map(graph)
    chosen: list[int] = []
    for comp in connected_components(graph):
        chosen.extend(solve({v: adjacency[v] for v in comp}))
    return tuple(sorted(chosen))


def _component_fvs(base: dict[int, set[int]]) -> list[int]:
    vertices = sorted(base)
    size = 0
    while not _has_fvs({v: set(nbrs) for v, nbrs in base.items()}, size):
        size += 1
    chosen: list[int] = []
    work = base
    _prune_degree_le1(work)
    budget = size
    for v in vertices:
        if budget == 0:
            break
        if v not in work:
            # outside the 2-core, so on no cycle: dropping it cannot help
            continue
        trial = {w: set(nbrs) for w, nbrs in work.items()}
        _drop_vertex(trial, v)
        # the check prunes `trial` to its 2-core, the next work graph
        if _has_fvs(trial, budget - 1):
            chosen.append(v)
            work = trial
            budget -= 1
    return chosen


@lru_cache(maxsize=256)
def minimum_feedback_vertex_set(graph: Graph) -> tuple[int, ...]:
    """Exact minimum feedback vertex set, lexicographically smallest on ties,
    solved one connected component at a time."""
    return _by_component(graph, _component_fvs)


def _matching_bound(adj: dict[int, set[int]]) -> int:
    """Edges of a greedy maximal matching: a vertex cover takes an end of each."""
    matched: set[int] = set()
    for v, nbrs in adj.items():
        if v not in matched:
            for u in nbrs:
                if u not in matched:
                    matched.add(u)
                    matched.add(v)
                    break
    return len(matched) // 2


def _has_vc(adj: dict[int, set[int]], budget: int) -> bool:
    while True:
        isolated = [v for v, nbrs in adj.items() if not nbrs]
        for v in isolated:
            del adj[v]
        pendant = next((v for v, nbrs in adj.items() if len(nbrs) == 1), None)
        if pendant is None:
            break
        # the pendant's neighbor dominates it, take that neighbor
        if budget == 0:
            return False
        u = next(iter(adj[pendant]))
        _drop_vertex(adj, u)
        budget -= 1
    if not adj:
        return True
    if budget < _matching_bound(adj):
        return False
    v = min(adj, key=lambda w: (-len(adj[w]), w))
    take = {w: set(nbrs) for w, nbrs in adj.items()}
    _drop_vertex(take, v)
    if _has_vc(take, budget - 1):
        return True
    nbrs = sorted(adj[v])
    if len(nbrs) > budget:
        return False
    skip = {w: set(ns) for w, ns in adj.items()}
    for u in nbrs:
        _drop_vertex(skip, u)
    return _has_vc(skip, budget - len(nbrs))


def _component_vc(base: dict[int, set[int]]) -> list[int]:
    size = 0
    while not _has_vc({v: set(nbrs) for v, nbrs in base.items()}, size):
        size += 1
    chosen: list[int] = []
    work = {v: set(nbrs) for v, nbrs in base.items()}
    budget = size
    for v in sorted(base):
        if budget == 0:
            break
        trial = {w: set(nbrs) for w, nbrs in work.items()}
        if v in trial:
            _drop_vertex(trial, v)
        if _has_vc(trial, budget - 1):
            chosen.append(v)
            if v in work:
                _drop_vertex(work, v)
            budget -= 1
    return chosen


@lru_cache(maxsize=256)
def minimum_vertex_cover(graph: Graph) -> tuple[int, ...]:
    """Exact minimum vertex cover, lexicographically smallest on ties,
    solved one connected component at a time."""
    return _by_component(graph, _component_vc)
