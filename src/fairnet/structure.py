"""Structural analysis: components, the elimination of A l = K 1, twin
classes, vertex 0's automorphism orbit, shape tags, exact FVS and VC.

One forward integer elimination (`eliminate`) gives each component's
weight s_C, from which the forced constant follows, and each pivot's label
as a linear map of K and the labels placed before it in the order a search
labels vertices in: the oracle's (vertex ids) and the forest-boundary
enumeration's (the forest, then the boundary) search free vertices only.

Vertex 0's automorphism orbit is found by plain backtracking on the twin
quotient, under a budget of placements per twin class.

The feedback-vertex-set and vertex-cover routines are exact branch-and-bound
searches meant for the small instances this package targets, run on each
connected component alone.  The report's fvs and vc numbers come from
size-only searches (`feedback_vertex_set_number`, `vertex_cover_number`);
the lexicographically smallest minimum solution (compared as sorted id
tuples), which keeps downstream enumeration deterministic, is built only
where a strategy needs the set.

A component is a list of int neighbor masks and a branch is one int mask of
live vertices, so a degree is one popcount and a branch copies nothing.
A size is one branch-and-bound per component below an incumbent (a greedy
FVS, highest degree first, or every live vertex for VC), each branch cut
when its lower bound reaches the best size found: for FVS the fewest vertex
degrees whose (degree - 1) values cover the cyclomatic number m - n + c,
for VC the size of a greedy maximal matching.  FVS branches only on the
degree->=3 vertices of one cycle of the 2-core, one of which some smallest
solution takes.  The greedy reconstruction takes a vertex of the last
witness at once, or asks the search for a solution one smaller without it,
stopping at the first.  Bounds, branching rule and witnesses only skip work
whose answer is known, so sizes and tuples are the unbounded search's.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul
from typing import Iterable

from .model import FairnetError, Graph, InputError


def connected_components(graph: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components, each sorted, ordered by minimum id."""
    return list(graph.components)


# a pivot vertex p's equation after elimination: D l_p = c K - sum of c_j l_j
# over vertices j labeled before p, pivots among them, stored as
# (D, c, ((j, c_j), ...)) with D > 0
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
    """A l = K 1 in echelon form for one labeling order.

    weights: each connected component C with s_C = 1^T x for A_C x = 1, or
        None when A_C x = 1 has no solution (`component_weights`).
    pivots: per pivot vertex p, its row as a `PivotMap`.  The row is an
        integer combination of neighborhood equations, so every fair
        labeling with constant K satisfies it.  A pivot in the order
        involves only vertices at earlier positions: labeled in that
        order, its label is fixed by K and the labels before it.
    """

    weights: tuple[tuple[tuple[int, ...], Fraction | None], ...]
    pivots: dict[int, PivotMap]


def eliminate(graph: Graph, order: Iterable[int] | None = None) -> Elimination:
    """Forward elimination of [A | 1] over the integers, per component.

    Rows stay lists of coprime integers: cancelling a column combines two
    rows with integer factors and divides out the gcd, so no fraction
    arises (fraction-free, as in Bareiss's elimination).  The columns of
    vertices outside the labeling order (default: all vertices by id) go
    first, then the order's from its last position to its first.  A pivot
    is cancelled from the pending rows only, so a pivot in the order
    involves only vertices at earlier positions, pivots among them.  The
    pivot rows up to a position span every equation supported there, so
    on a prefix obeying the earlier maps each map forces what the fully
    reduced form would.  s_C is back-substituted, last pivot first, free
    labels at 0 and K = 1, in integers over one common denominator;
    a row left with only a K coefficient means no solution.  Rows of
    different components never meet: each is eliminated alone.
    """
    n = graph.vertex_count
    # columns go by descending rank: a position's index, n + id outside
    rank = [n + v for v in range(n)]
    for i, v in enumerate(range(n) if order is None else order):
        rank[v] = i
    weights = []
    pivots: dict[int, PivotMap] = {}
    for comp in graph.components:
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
        taken = []
        for col in sorted(range(size), key=lambda i: rank[comp[i]], reverse=True):
            for pivot_row in pending:
                if pivot_row[col]:
                    break
            else:
                continue
            # the rows left after cancelling col; a row that cancels to 0 goes
            rest = []
            for row in pending:
                if row is not pivot_row:
                    if row[col]:
                        row = _cancel(row, pivot_row, col)
                        if not any(row):
                            continue
                    rest.append(row)
            pending = rest
            if pivot_row[col] < 0:
                pivot_row = [-x for x in pivot_row]
            taken.append((col, pivot_row))
            terms = tuple((comp[j], x) for j, x in enumerate(pivot_row[:size]) if x and j != col)
            pivots[comp[col]] = (pivot_row[col], pivot_row[size], terms)
        # after the last column a pending row holds only its K coefficient
        weight = None
        if not pending:
            # vertex j takes value[j] / scale; value[p] is still 0 in p's sum
            value = [0] * size
            scale = 1
            for p, row in reversed(taken):
                top = row[size] * scale - sum(map(mul, row, value))
                common = gcd(top, row[p])
                factor = row[p] // common
                if factor > 1:
                    value = [x * factor for x in value]
                    scale *= factor
                value[p] = top // common
            weight = Fraction(sum(value), scale)
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


def _class_map(
    masks: list[int], kinds: list[tuple], order: list[int], target: int, budget: int
) -> tuple[list[int] | None, int]:
    """An automorphism of the twin quotient (class i's neighbors are the
    bits of masks[i]) mapping order[0] onto target, or None, and the
    placements left of `budget`, past which it gives up with None.

    Each class in `order` is placed onto the lowest unused class of its
    kind whose placed neighbors are exactly the images of its own, and the
    search backtracks when none is left; a full map sends edges to edges.
    The path is a list of candidate iterators, one per depth, so the class
    count meets no recursion limit.
    """
    image = [-1] * len(order)
    used = 0
    # per depth, the images not yet tried for the class placed there
    left = [iter((target,))]
    while left:
        c = order[len(left) - 1]
        for j in left[-1]:
            if not budget:
                return None, 0
            budget -= 1
            image[c] = j
            used |= 1 << j
            if len(left) == len(order):
                return image, budget
            c = order[len(left)]
            want = sum(1 << image[i] for i in _bits(masks[c]) if image[i] >= 0)
            # a class with a placed neighbor maps next to that one's image
            pool = masks[(want & -want).bit_length() - 1] if want else (1 << len(order)) - 1
            left.append(iter([
                k for k in _bits(pool & ~used) if kinds[k] == kinds[c] and masks[k] & used == want
            ]))
            break
        else:
            left.pop()
            if left:
                c = order[len(left) - 1]
                used ^= 1 << image[c]
                image[c] = -1
    return None, budget


def first_vertex_orbit(graph: Graph, part: TwinPartition, budget: int) -> tuple[int, ...]:
    """Vertices shown to lie in vertex 0's orbit under the automorphism group.

    Twin classes are modules that every automorphism permutes, and an
    automorphism of the twin quotient (one vertex per class) that keeps
    each class's size and twin kind lifts to one of the graph by mapping
    classes onto each other in order.  So the orbit is a union of classes,
    found on the quotient: for each class of the kind of vertex 0's class
    (size, twin kind, quotient degree) not yet merged with it, a
    backtracking search (`_class_map`) looks for an automorphism taking the
    one onto the other, placing the classes breadth-first from vertex 0's,
    one quotient component after another.  Each automorphism found is
    re-checked edge by edge and its cycles are merged in a union-find.
    Each class placed is one node; the call places at most `budget` nodes
    per class, and past that it stops with every class already merged
    still in the orbit.  The oracle asks for the orbit only where it
    branches on two or more free positions (`solvers._oracle_tables`).
    """
    classes = part.classes
    if len(classes) < 2 or budget <= 0:
        return classes[0].vertices if classes else ()
    class_of = {v: i for i, cls in enumerate(classes) for v in cls.vertices}
    masks = [
        sum({1 << class_of[u] for u in graph.adjacency[cls.vertices[0]]} - {1 << i})
        for i, cls in enumerate(classes)
    ]
    kinds = [(len(cls.vertices), cls.true_twin, mask.bit_count())
             for cls, mask in zip(classes, masks)]
    order: list[int] = []
    rest = (1 << len(classes)) - 1
    while rest:
        # the next component, breadth-first from its lowest class
        frontier = rest & -rest
        while frontier:
            rest ^= frontier
            reach = 0
            for c in _bits(frontier):
                order.append(c)
                reach |= masks[c]
            frontier = reach & rest

    parent = list(range(len(classes)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    budget *= len(classes)
    for target in range(1, len(classes)):
        if kinds[target] != kinds[0] or find(target) == find(0):
            continue
        sigma, budget = _class_map(masks, kinds, order, target, budget)
        if sigma is not None:
            if sorted(sigma) != list(range(len(classes))) or any(
                kinds[sigma[i]] != kinds[i]
                or any(not masks[sigma[i]] >> sigma[j] & 1 for j in _bits(masks[i]))
                for i in range(len(classes))
            ):
                raise FairnetError("internal error: the orbit search mapped a non-automorphism")
            for i, j in enumerate(sigma):
                parent[find(i)] = find(j)
        if not budget:
            break
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
    comps = graph.components
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


def _bits(mask: int) -> Iterable[int]:
    """The indices of the set bits of mask, lowest first (hot loops inline it)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _two_core(adj: list[int], alive: int, seeds: int) -> int:
    """alive less, repeatedly, each vertex of live degree <= 1 among seeds and
    the neighbors of removed vertices; such a vertex is on no cycle.  Seeds
    alive give the 2-core; after deleting v from a 2-core, v's neighbors do."""
    pending = seeds & alive
    while pending:
        low = pending & -pending
        pending ^= low
        nbrs = adj[low.bit_length() - 1] & alive
        if nbrs.bit_count() <= 1:
            alive ^= low
            pending |= nbrs
    return alive


def _cycle_rank_bound(adj: list[int], alive: int) -> int:
    """A lower bound on the feedback vertex set number of the live graph.

    The cyclomatic number m - n + c is 0 exactly on forests.  Deleting a
    vertex of degree d lowers it by at most d - 1, and degrees only fall as
    vertices go, so no set smaller than the fewest largest (d - 1) values
    summing to it can be a feedback vertex set.
    """
    degrees = []
    components = 0
    rest = alive
    while rest:
        components += 1
        frontier = rest & -rest
        while frontier:
            rest ^= frontier
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                nbrs = adj[low.bit_length() - 1] & alive
                reach |= nbrs
                degrees.append(nbrs.bit_count())
            frontier = reach & rest
    degrees.sort(reverse=True)
    rank = sum(degrees) // 2 - len(degrees) + components
    bound = 0
    for degree in degrees:
        if rank <= 0:
            break
        rank -= degree - 1
        bound += 1
    return bound


def _branch_vertices(adj: list[int], alive: int) -> list[int]:
    """The vertices of degree >= 3 on one cycle of a live graph with minimum
    degree >= 2, or one vertex of a cycle that has none.

    The cycle is a triangle when there is one, else the one closed by the
    first non-tree edge of a BFS from a vertex of highest degree.  Some
    smallest FVS takes one of these vertices: every cycle through a degree-2
    vertex also passes through the nearest degree->=3 vertex along its path,
    so a solution can swap one for the other, and a cycle of degree-2
    vertices only is a whole component.
    """
    cycle = None
    rest = alive
    while rest and cycle is None:
        v = (rest & -rest).bit_length() - 1
        rest ^= 1 << v
        nbrs = adj[v] & alive
        higher = nbrs >> v + 1 << v + 1
        while higher:
            u = (higher & -higher).bit_length() - 1
            higher ^= 1 << u
            common = adj[u] & nbrs
            if common:
                cycle = [v, u, common.bit_length() - 1]
                break
    if cycle is None:
        root = max(_bits(alive), key=lambda v: (adj[v] & alive).bit_count(), default=0)
        parent = {root: root}
        queue = [root]
        seen = 1 << root
        for v in queue:
            nbrs = adj[v] & alive
            closing = nbrs & seen & ~(1 << parent[v])
            if closing:
                # walk both ends of the non-tree edge up to their meeting point
                up = [v]
                while up[-1] != root:
                    up.append(parent[up[-1]])
                depth = {w: i for i, w in enumerate(up)}
                down = [closing.bit_length() - 1]
                while down[-1] not in depth:
                    down.append(parent[down[-1]])
                cycle = up[:depth[down[-1]] + 1] + down[-2::-1]
                break
            for u in _bits(nbrs & ~seen):
                parent[u] = v
                queue.append(u)
            seen |= nbrs
    if cycle is None:
        raise FairnetError("no cycle found despite minimum degree >= 2")
    return [v for v in cycle if (adj[v] & alive).bit_count() >= 3] or cycle[:1]


def _min_fvs(adj: list[int], alive: int, best: int, floor: int = 0) -> tuple[int, int | None]:
    """A smallest feedback vertex set of the live graph, a 2-core, with
    fewer than `best` vertices: its size and mask, or `best` and None when
    there is none.  Stops at the first found within `floor` or the bound."""
    bound = _cycle_rank_bound(adj, alive)
    if bound >= best:
        return best, None
    if not alive:
        return 0, 0
    found = None
    for v in _branch_vertices(adj, alive):
        size, sub = _min_fvs(adj, _two_core(adj, alive & ~(1 << v), adj[v]), best - 1, floor - 1)
        if sub is not None:
            best, found = size + 1, sub | 1 << v
            if best <= max(floor, bound):
                break
    return best, found


def _greedy_fvs(adj: list[int], alive: int) -> int:
    """A feedback vertex set of the live graph, a 2-core, as a mask: the first
    vertex of highest live degree, taken until re-coring leaves nothing."""
    taken = 0
    while alive:
        top = v = -1
        rest = alive
        while rest:
            w = (rest & -rest).bit_length() - 1
            rest ^= 1 << w
            degree = (adj[w] & alive).bit_count()
            if degree > top:
                top, v = degree, w
        taken |= 1 << v
        alive = _two_core(adj, alive ^ 1 << v, adj[v])
    return taken


def _matching_bound(adj: list[int], alive: int) -> int:
    """Edges of a greedy maximal matching: a vertex cover takes an end of each."""
    free = rest = alive
    edges = 0
    # the free vertices not yet visited, in id order
    while rest := rest & free:
        v = (rest & -rest).bit_length() - 1
        rest ^= 1 << v
        mates = adj[v] & free
        if mates:
            free ^= 1 << v | mates & -mates
            edges += 1
    return edges


def _min_vc(adj: list[int], alive: int, best: int, floor: int = 0) -> tuple[int, int | None]:
    """`_min_fvs` for a smallest vertex cover of the live graph."""
    taken = count = 0
    pending = True
    while pending:
        pending = False
        top, v = 1, -1
        rest = alive
        # the live vertices not yet visited in this pass
        while rest := rest & alive:
            w = (rest & -rest).bit_length() - 1
            rest ^= 1 << w
            nbrs = adj[w] & alive
            degree = nbrs.bit_count()
            if degree <= 1:
                # isolated, or a pendant whose neighbor dominates it: take that
                pending = True
                alive ^= 1 << w | nbrs
                if nbrs:
                    count += 1
                    if count >= best:
                        return best, None
                    taken |= nbrs
            elif degree > top:
                # after a pass with no change, the first vertex of highest degree
                top, v = degree, w
    bound = count + _matching_bound(adj, alive)
    if bound >= best:
        return best, None
    if not alive:
        return count, taken
    found = None
    # take v, or else all its neighbors
    for take in (1 << v, adj[v] & alive):
        size = count + take.bit_count()
        if size >= best:
            break
        more, sub = _min_vc(adj, alive & ~(1 << v | take), best - size, floor - size)
        if sub is not None:
            best, found = size + more, taken | take | sub
            if best <= max(floor, bound):
                break
    return best, found


def _non_isolated(adj: list[int], alive: int, seeds: int) -> int:
    """alive without the seeds it leaves isolated, which no minimum vertex
    cover takes; with seeds = alive, without every isolated vertex."""
    return alive & ~sum(1 << v for v in _bits(seeds & alive) if not adj[v] & alive)


# per problem: the branch-and-bound below an incumbent, the reduction to the
# vertices a minimum solution can take, and the incumbent
_FVS = (_min_fvs, _two_core, _greedy_fvs)
# every live vertex: a cover that is never minimum, unless none is live
_VC = (_min_vc, _non_isolated, lambda adj, alive: alive)


def _minimum(graph: Graph, comp: tuple[int, ...], search, reduce, solution):
    """A component's neighbor masks over its vertices in id order, its live
    vertices after `reduce`, its minimum solution size and a minimum
    solution (a mask): one `search` below the set `solution` gives, which
    is the witness when nothing smaller exists."""
    bit = {v: 1 << i for i, v in enumerate(comp)}
    adj = [sum([bit[u] for u in graph.adjacency[v]]) for v in comp]
    full = (1 << len(comp)) - 1
    alive = reduce(adj, full, full)
    witness = solution(adj, alive)
    size, found = search(adj, alive, witness.bit_count())
    return adj, alive, size, witness if found is None else found


def _lex_smallest(graph: Graph, problem: tuple) -> tuple[int, ...]:
    """The lexicographically smallest minimum solution, per connected component.

    Each component's `_minimum` gives its size and a witness W.  Then each
    vertex v in id order is taken when some minimum solution of the graph
    left takes it: at once when v is in W, since W - v solves the graph
    without v with one vertex less, else when the search finds a new W
    below the size left, stopping at the first (no smaller one exists).
    The union of the components' smallest minima is the smallest of the
    whole graph: two sets of equal size compare at the smallest element of
    their symmetric difference, which the other components' parts leave
    unchanged.
    """
    search, reduce, _solution = problem
    chosen: list[int] = []
    for comp in graph.components:
        adj, alive, size, witness = _minimum(graph, comp, *problem)
        for i, v in enumerate(comp):
            if size == 0:
                break
            bit = 1 << i
            if alive & bit:
                trial = reduce(adj, alive ^ bit, adj[i])
                found = witness ^ bit if witness & bit else search(adj, trial, size, size - 1)[1]
                if found is not None:
                    chosen.append(v)
                    witness = found
                    alive = trial
                    size -= 1
    return tuple(sorted(chosen))


@lru_cache(maxsize=256)
def minimum_feedback_vertex_set(graph: Graph) -> tuple[int, ...]:
    """Exact minimum feedback vertex set, lexicographically smallest on ties."""
    return _lex_smallest(graph, _FVS)


@lru_cache(maxsize=256)
def minimum_vertex_cover(graph: Graph) -> tuple[int, ...]:
    """Exact minimum vertex cover, lexicographically smallest on ties."""
    return _lex_smallest(graph, _VC)


def feedback_vertex_set_number(graph: Graph) -> int:
    """The size of a minimum feedback vertex set, with no smallest set built."""
    return sum(_minimum(graph, comp, *_FVS)[2] for comp in graph.components)


def vertex_cover_number(graph: Graph) -> int:
    """The size of a minimum vertex cover, with no smallest cover built."""
    return sum(_minimum(graph, comp, *_VC)[2] for comp in graph.components)
