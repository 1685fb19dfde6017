"""Shared test helpers: independent brute-force references and generators.

Everything here is deliberately naive.  The brute forces re-derive answers
from first principles (permutations, subsets, full boxes) so the production
code is checked against something that cannot share its bugs.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence

from fairnet import (
    FairnetError,
    Graph,
    IntegerProgram,
    IpSolution,
    LabelMultiset,
    VACUOUS,
    complete_bipartite,
    cycle_graph,
    disjoint_union,
    star_graph,
    verify,
)
from fairnet.ilp import Allocation, _window
from fairnet.model import (
    InputError,
    RefusalError,
    SolveOutcome,
    SolveStats,
    certified_outcome,
    require_constant,
)
from fairnet.search import ENUMERATION_CAP, SearchTables
from fairnet.solvers import (
    EXACT_PARAM_LIMIT,
    ORBIT_NODE_BUDGET,
    SolverChoice,
    _adopt,
    solve_oracle,
)
from fairnet.special import (
    PartialAssignment,
    _solve_cycles,
    star_decomposition,
)
from fairnet.structure import (
    Elimination,
    PivotMap,
    _cancel,
    connected_components,
    first_vertex_orbit,
    minimum_feedback_vertex_set,
    minimum_vertex_cover,
    twin_classes,
)

BRUTE_N_LIMIT = 8


def brute_force_fair(graph: Graph, labels: LabelMultiset):
    """(fair, constants) by trying every distinct permutation of the labels.

    Encodes the decision semantics: edgeless graphs are fair for every
    multiset, a graph mixing isolated and constrained vertices is fair for
    none (its isolated vertices see 0 while labels are positive).
    `constants` is the set of integer constants over all fair labelings;
    empty for unfair instances and for vacuously fair edgeless graphs.
    """
    n = graph.vertex_count
    assert n <= BRUTE_N_LIMIT, "brute force reference limited to small graphs"
    if graph.is_edgeless():
        return True, set()
    if graph.min_degree() == 0:
        return False, set()
    fair = False
    constants: set[int] = set()
    for perm in set(itertools.permutations(labels.values)):
        result = verify(graph, labels, perm)
        if result is None:
            continue
        fair = True
        if result is not VACUOUS:
            constants.add(result)
    return fair, constants


def gauss_jordan_weights(graph: Graph) -> list[tuple[tuple[int, ...], Fraction | None]]:
    """Per connected component C, 1^T x for a solution of A_C x = 1, or None.

    Plain Gauss-Jordan elimination over Fractions on [A_C | 1], components
    found by their own flood fill: the reference for `component_weights`.
    """
    n = graph.vertex_count
    component_of = [-1] * n
    components: list[list[int]] = []
    for start in range(n):
        if component_of[start] >= 0:
            continue
        component_of[start] = len(components)
        members, stack = [], [start]
        while stack:
            v = stack.pop()
            members.append(v)
            for u in graph.neighbors(v):
                if component_of[u] < 0:
                    component_of[u] = len(components)
                    stack.append(u)
        components.append(sorted(members))
    weights = []
    for comp in components:
        size = len(comp)
        rows = [
            [Fraction(int(u in graph.neighbors(v))) for u in comp] + [Fraction(1)]
            for v in comp
        ]
        pivot_cols = []
        for col in range(size):
            r = len(pivot_cols)
            found = next((i for i in range(r, size) if rows[i][col] != 0), None)
            if found is None:
                continue
            rows[r], rows[found] = rows[found], rows[r]
            rows[r] = [a / rows[r][col] for a in rows[r]]
            for i in range(size):
                if i != r and rows[i][col] != 0:
                    factor = rows[i][col]
                    rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
            pivot_cols.append(col)
        consistent = all(rows[i][size] == 0 for i in range(len(pivot_cols), size))
        # reduced rows: with the free variables at 0, x at each pivot column
        # is that row's right-hand side
        weight = sum(rows[i][size] for i in range(len(pivot_cols))) if consistent else None
        weights.append((tuple(comp), weight))
    return weights


# The forest extension as it was before one forest plan served it, the
# boundary enumeration and the planner, copied verbatim (only renamed):
# the hand-written forcing by steps.  `extend_forest` must give what it
# gives, None and input errors included, and the brute-force boundary
# stream and the recursive boundary enumeration below run on it, so they
# share nothing with the plan they check.

# an internal forest vertex and, per child w, the neighbors of w but the vertex
ForcingStep = tuple[int, tuple[tuple[int, ...], ...]]


def _forced_value(entries: tuple[tuple[int, ...], ...],
                  known: Mapping[int, int], k: int) -> int | None:
    """The label every child's equation forces on its parent; None on conflict."""
    forced = None
    for others in entries:
        value = k - sum(known[u] for u in others)
        if forced is None:
            forced = value
        elif value != forced:
            return None
    return forced


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


def reference_extend_forest(
    graph: Graph, forest_vertices: Iterable[int], boundary_labels: Mapping[int, int], k: int
) -> PartialAssignment | None:
    """Force the internal labels of an induced forest from its boundary.

    Returns the combined assignment on N(F) and F, or None when the forced
    values conflict, drop to zero or below, or an all-boundary tree violates
    its own neighborhood equations.  The boundary must cover exactly N(F)
    plus the leaves of F.
    """
    require_constant(k)
    return ForestExtender(graph, forest_vertices).run(boundary_labels, k)


def brute_boundary_extensions(
    graph: Graph, forest, labels: LabelMultiset, k: int, extra_boundary=()
) -> list[dict[int, int]]:
    """The stream enumerate_boundary_extensions must yield, filtered at the leaves.

    Every function from the domain (forest leaves, outside neighbors of the
    forest, extra vertices) into the distinct values, in lexicographic
    order, is extended by reference_extend_forest; an extension is kept
    when its labels fit inside the multiset and every vertex whose whole
    neighborhood it labels sees exactly k.
    """
    forest = frozenset(forest)
    leaves = {
        v for v in forest if sum(1 for u in graph.neighbors(v) if u in forest) <= 1
    }
    outside = {u for v in forest for u in graph.neighbors(v) if u not in forest}
    boundary = leaves | outside
    domain = sorted(boundary | set(extra_boundary))
    kept = []
    for values in itertools.product(labels.distinct_values, repeat=len(domain)):
        chosen = dict(zip(domain, values))
        extended = reference_extend_forest(graph, forest, {v: chosen[v] for v in boundary}, k)
        if extended is None:
            continue
        merged = {**chosen, **extended}
        if any(labels.multiplicity(v) < c for v, c in Counter(merged.values()).items()):
            continue
        if any(
            all(u in merged for u in graph.neighbors(v))
            and sum(merged[u] for u in graph.neighbors(v)) != k
            for v in range(graph.vertex_count)
        ):
            continue
        kept.append(merged)
    return kept


def _is_acyclic(graph: Graph, removed: frozenset[int]) -> bool:
    kept = [v for v in range(graph.vertex_count) if v not in removed]
    edge_count = 0
    seen: set[int] = set()
    components = 0
    for start in kept:
        if start in seen:
            continue
        components += 1
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for u in graph.neighbors(v):
                if u in removed:
                    continue
                edge_count += 1
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return edge_count // 2 == len(kept) - components


def random_induced_forest(rng: random.Random, graph: Graph) -> list[int]:
    """A maximal induced forest grown in random vertex order."""
    everything = frozenset(range(graph.vertex_count))
    forest: set[int] = set()
    order = list(range(graph.vertex_count))
    rng.shuffle(order)
    for v in order:
        if _is_acyclic(graph, everything - forest - {v}):
            forest.add(v)
    return sorted(forest)


def brute_min_fvs_size(graph: Graph) -> int:
    vertices = range(graph.vertex_count)
    for size in range(graph.vertex_count + 1):
        for subset in itertools.combinations(vertices, size):
            if _is_acyclic(graph, frozenset(subset)):
                return size
    raise AssertionError("unreachable: removing everything is acyclic")


def brute_min_vc_size(graph: Graph) -> int:
    edges = list(graph.edges())
    vertices = range(graph.vertex_count)
    for size in range(graph.vertex_count + 1):
        for subset in itertools.combinations(vertices, size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return size
    raise AssertionError("unreachable: all vertices cover everything")


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def hypercube(d: int) -> Graph:
    n = 1 << d
    edges = [(v, v | 1 << b) for v in range(n) for b in range(d) if not v >> b & 1]
    return Graph.from_edges(n, edges)


def grid(rows: int, cols: int) -> Graph:
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range((rows - 1) * cols)]
    return Graph.from_edges(rows * cols, edges)


def random_labels(
    rng: random.Random, n: int, max_value: int = 6, alpha_cap: int = 4
) -> LabelMultiset:
    distinct = rng.randint(1, min(alpha_cap, max_value, n) if n else 1)
    pool = rng.sample(range(1, max_value + 1), distinct)
    return LabelMultiset.from_iterable(rng.choice(pool) for _ in range(n))


def random_instance(
    rng: random.Random, max_n: int = 9, max_value: int = 6
) -> tuple[Graph, LabelMultiset]:
    """Mixed-shape random instance: stars, cycles, bipartite, sparse, dense."""
    shape = rng.randrange(6)
    if shape == 0:
        n = rng.randint(3, max_n)
        graph = cycle_graph(n)
    elif shape == 1:
        leaves = rng.randint(1, max_n - 1)
        graph = star_graph(leaves)
        n = leaves + 1
    elif shape == 2:
        a = rng.randint(1, max_n - 1)
        b = rng.randint(1, max_n - a)
        graph = complete_bipartite(a, b)
        n = a + b
    elif shape == 3 and max_n >= 7:
        sizes = []
        budget = max_n
        while budget >= 2 and len(sizes) < 3:
            leaves = rng.randint(1, min(3, budget - 1))
            sizes.append(leaves)
            budget -= leaves + 1
        graph = disjoint_union(*(star_graph(s) for s in sizes))
        n = graph.vertex_count
    else:
        n = rng.randint(1, max_n)
        graph = random_graph(rng, n, rng.choice((0.2, 0.35, 0.5, 0.75)))
    return graph, random_labels(rng, n, max_value)


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Random positive integers of given count summing to total."""
    assert total >= parts >= 1
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0, *cuts, total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def constructed_fair(
    rng: random.Random, max_n: int = 9
) -> tuple[Graph, LabelMultiset, tuple[int, ...], int]:
    """A known-fair instance with its certificate labels and constant."""
    kind = rng.randrange(4)
    if kind == 0:
        leaves = rng.randint(2, min(5, max_n - 1))
        values = [rng.randint(1, 4) for _ in range(leaves)]
        k = sum(values)
        assignment = (k, *values)
        return (
            star_graph(leaves),
            LabelMultiset.from_iterable(assignment),
            assignment,
            k,
        )
    if kind == 1:
        length = rng.choice([v for v in (3, 5, 6, 7, 9) if v <= max_n])
        c = rng.randint(1, 5)
        assignment = (c,) * length
        return (
            cycle_graph(length),
            LabelMultiset.from_iterable(assignment),
            assignment,
            2 * c,
        )
    if kind == 2 and max_n >= 4:
        a = rng.randint(1, 3)
        b = rng.randint(1, 3)
        k = a + b + rng.randint(1, 3)
        reps = rng.randint(1, max_n // 4)
        assignment = (a, b, k - a, k - b) * reps
        return (
            cycle_graph(len(assignment)),
            LabelMultiset.from_iterable(assignment),
            assignment,
            k,
        )
    m = rng.randint(1, 3)
    n2 = rng.randint(1, min(4, max_n - m))
    left = [rng.randint(1, 4) for _ in range(m)]
    k = sum(left)
    if k < n2:
        left[0] += n2 - k
        k = sum(left)
    right = _composition(rng, k, n2)
    assignment = (*left, *right)
    return (
        complete_bipartite(m, n2),
        LabelMultiset.from_iterable(assignment),
        assignment,
        k,
    )


# `solve_feasible` as it was before propagation became sparse, copied
# verbatim: after each assignment it updates and re-checks every constraint.
# The sparse search must return exactly its results.
def dense_solve_feasible(program: IntegerProgram) -> IpSolution:
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


# The dict-of-sets helpers of the exact FVS and VC searches as they were
# before the bitmask kernels, copied verbatim, so the references below share
# no code with the searches they check.
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


# The exact FVS and VC searches as they were before the cyclomatic and
# matching lower bounds, copied verbatim (only renamed, without the cache).
# The bounded searches must return exactly their tuples.
def unbounded_has_fvs(adj: dict[int, set[int]], budget: int) -> bool:
    _prune_degree_le1(adj)
    if not adj:
        return True
    if budget == 0:
        return False
    cycle = _short_cycle(adj)
    for v in cycle:
        copy = {w: set(nbrs) for w, nbrs in adj.items()}
        _drop_vertex(copy, v)
        if unbounded_has_fvs(copy, budget - 1):
            return True
    return False


def unbounded_minimum_feedback_vertex_set(graph: Graph) -> tuple[int, ...]:
    """Exact minimum feedback vertex set, lexicographically smallest on ties."""
    base = _adjacency_map(graph)
    size = 0
    while not unbounded_has_fvs({v: set(nbrs) for v, nbrs in base.items()}, size):
        size += 1
    chosen: list[int] = []
    work = {v: set(nbrs) for v, nbrs in base.items()}
    budget = size
    for v in range(graph.vertex_count):
        if budget == 0:
            break
        trial = {w: set(nbrs) for w, nbrs in work.items()}
        _drop_vertex(trial, v)
        if unbounded_has_fvs({w: set(nbrs) for w, nbrs in trial.items()}, budget - 1):
            chosen.append(v)
            work = trial
            budget -= 1
    return tuple(chosen)


def unbounded_has_vc(adj: dict[int, set[int]], budget: int) -> bool:
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
    if budget == 0:
        return False
    v = min(adj, key=lambda w: (-len(adj[w]), w))
    take = {w: set(nbrs) for w, nbrs in adj.items()}
    _drop_vertex(take, v)
    if unbounded_has_vc(take, budget - 1):
        return True
    nbrs = sorted(adj[v])
    if len(nbrs) > budget:
        return False
    skip = {w: set(ns) for w, ns in adj.items()}
    for u in nbrs:
        _drop_vertex(skip, u)
    return unbounded_has_vc(skip, budget - len(nbrs))


def unbounded_minimum_vertex_cover(graph: Graph) -> tuple[int, ...]:
    """Exact minimum vertex cover, lexicographically smallest on ties."""
    base = _adjacency_map(graph)
    size = 0
    while not unbounded_has_vc({v: set(nbrs) for v, nbrs in base.items()}, size):
        size += 1
    chosen: list[int] = []
    work = {v: set(nbrs) for v, nbrs in base.items()}
    budget = size
    for v in range(graph.vertex_count):
        if budget == 0:
            break
        trial = {w: set(nbrs) for w, nbrs in work.items()}
        if v in trial:
            _drop_vertex(trial, v)
        if unbounded_has_vc(trial, budget - 1):
            chosen.append(v)
            if v in work:
                _drop_vertex(work, v)
            budget -= 1
    return tuple(chosen)


def brute_first_vertex_orbit(graph: Graph) -> set[int]:
    """The vertices some automorphism maps vertex 0 to, by trying every
    permutation that sends vertex 0 there (none when the degrees differ)."""
    n = graph.vertex_count
    assert n <= BRUTE_N_LIMIT, "brute force reference limited to small graphs"
    edges = graph.edges()
    adjacent = [[u in graph.adjacency[v] for u in range(n)] for v in range(n)]
    orbit = set()
    for target in range(n):
        if graph.degree(target) != graph.degree(0):
            continue
        rest = [v for v in range(n) if v != target]
        for perm in itertools.permutations(rest):
            image = (target, *perm)
            if all(adjacent[image[u]][image[v]] for u, v in edges):
                orbit.add(target)
                break
    return orbit


# The oracle's search tables as they were before the automorphism-orbit
# floors, copied verbatim (only renamed).  The oracle must return exactly
# its verdicts, certificates and constants, in no more nodes.
def reference_oracle_tables(graph: Graph) -> SearchTables:
    """Exhaustive search over label assignments, pruned by twin symmetry.

    Vertices are labeled in id order, values tried in ascending order, so the
    first completion is the lexicographically smallest fair assignment.
    Within a false-twin class labels are required to be non-decreasing by
    vertex id: sorting inside a class preserves fairness and never increases
    the assignment vector, hence the lexicographic minimum obeys the
    restriction and no verdict is lost.  True twins must agree exactly.
    Every vertex whose neighborhood is fully labeled pins the constant;
    partially labeled neighborhoods prune via min/max completions.
    """
    part = twin_classes(graph)
    ties: list[tuple[int, bool] | None] = [None] * graph.vertex_count
    for cls in part.classes:
        for a, b in zip(cls.vertices, cls.vertices[1:]):
            ties[b] = (a, cls.true_twin)
    adjacency = graph.adjacency
    return SearchTables(
        tuple(range(graph.vertex_count)), adjacency, graph.degrees, adjacency, ties=ties
    )


# The oracle's search tables as they were before the pivot maps of linear
# forcing, copied verbatim (only renamed).  The oracle must return exactly
# its verdicts, certificates and constants, in no more nodes.
def orbit_oracle_tables(graph: Graph) -> SearchTables:
    """Exhaustive search over label assignments, pruned by symmetry.

    Vertices are labeled in id order, values tried in ascending order, so the
    first completion is the lexicographically smallest fair assignment, and
    a restriction that this assignment obeys loses no verdict.  Within a
    false-twin class labels are required to be non-decreasing by vertex id:
    sorting inside a class preserves fairness and never increases the
    assignment vector.  True twins must agree exactly.  For an automorphism
    s, l o s is fair whenever l is, so the smallest l has l(0) <= l(s(0)):
    every vertex of vertex 0's orbit (`first_vertex_orbit`) takes a label
    no smaller than vertex 0's.  Outside vertex 0's twin class that is a
    floor on each class's first vertex; the twin ties carry it to the rest.
    A vertex whose label the ties hold below h later labels leaves h copies
    at or above it: vertex 0 takes at most the |orbit|-th largest label.
    Every vertex whose neighborhood is fully labeled pins the constant;
    partially labeled neighborhoods prune via min/max completions.
    """
    part = twin_classes(graph)
    ties: list[tuple[int, bool] | None] = [None] * graph.vertex_count
    for cls in part.classes:
        for a, b in zip(cls.vertices, cls.vertices[1:]):
            ties[b] = (a, cls.true_twin)
    own = part.classes[0].vertices if part.classes else ()
    for v in first_vertex_orbit(graph, part, ORBIT_NODE_BUDGET):
        if ties[v] is None and v not in own:
            ties[v] = (0, False)
    held = [0] * graph.vertex_count
    for tie in ties:
        while tie is not None:
            held[tie[0]] += 1
            tie = ties[tie[0]]
    adjacency = graph.adjacency
    return SearchTables(
        tuple(range(graph.vertex_count)), adjacency, graph.degrees, adjacency,
        ties=ties, held=held,
    )


# `search.ordered_search` and its tables as they were before the search
# became one loop, copied verbatim (only renamed): one generator frame per
# labeled position, forest labels fixed by forcing steps, and a K-less mode
# that pins K at the first exact check.  Where this one fits the stack, the
# loop must yield the same stream, in the same order, in the same nodes.
@dataclass(frozen=True)
class RecursiveSearchTables:
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


def recursive_ordered_search(tables: RecursiveSearchTables, labels: LabelMultiset,
                             stats: SolveStats, k: int | None = None
                             ) -> Iterator[tuple[list[int], int | None]]:
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


def recursive_tables(tables: SearchTables) -> RecursiveSearchTables:
    """The same tables for the recursive kernel: nothing forced."""
    return RecursiveSearchTables(
        tables.order, tables.feeds, tables.pending, tables.checks_at, ties=tables.ties,
        held=tables.held, maps=tables.maps, root_checks=tables.root_checks,
    )


# `oracle_constants` as it was before it read the forced constant off the
# oracle's verdict, on the floorless tables above and the recursive kernel:
# the K-less enumeration of every constant a fair labeling realizes.
def reference_oracle_constants(graph: Graph, labels: LabelMultiset) -> list[int]:
    """Every constant realized by some fair labeling, via full enumeration.

    Empty when the graph is unfair for the multiset; also empty for edgeless
    graphs, whose fairness carries no integer constant.
    """
    if len(labels) != graph.vertex_count:
        raise InputError("label multiset size does not match the vertex count")
    if graph.is_edgeless() or graph.min_degree() == 0:
        return []
    tables = recursive_tables(reference_oracle_tables(graph))
    completions = recursive_ordered_search(tables, labels, SolveStats())
    return sorted({constant for _, constant in completions})


# `solve_feasible` as it was before its search became iterative, copied
# verbatim (only renamed): one Python frame per variable.  The iterative
# search must return exactly its results wherever this one fits the stack.
def recursive_solve_feasible(program: IntegerProgram) -> IpSolution:
    """Deterministic feasibility search.

    Variables are assigned in declaration order, values ascending from the
    lower bound, so the first solution found is the lexicographically
    smallest.  After each assignment the constraints the variable appears in
    are pruned against the interval still reachable by their unassigned
    variables.  A zero coefficient leaves a constraint's partial sum and
    reachable interval as the previous level checked them, so the search
    visits the same nodes as re-checking every constraint would.
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

    def search(idx: int) -> bool:
        if idx == nvars:
            return True
        touched = rows[idx]
        for x in range(variables[idx].lower, variables[idx].upper + 1):
            for ci, a, low, high in touched:
                if not low <= partial[ci] + a * x <= high:
                    break
            else:
                values[idx] = x
                for ci, a, _, _ in touched:
                    partial[ci] += a * x
                if search(idx + 1):
                    return True
                for ci, a, _, _ in touched:
                    partial[ci] -= a * x
        return False

    if not search(0):
        return IpSolution(None)
    solution = {v.name: x for v, x in zip(variables, values)}
    if not program.check(solution):
        raise FairnetError("integer program solution fails its own re-check")
    return IpSolution(solution)


# The single-star and disjoint-star closed forms as they were before the
# single star became the one-star case and the leaf groups were listed from
# the supply, copied verbatim (only renamed; the disjoint stars' program goes
# to the recursive search above).  Both must keep their verdicts and
# certificates.
def reference_solve_single_star(leaf_count: int, labels: LabelMultiset, k: int) -> SolveOutcome:
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


def reference_solve_disjoint_stars(graph: Graph, labels: LabelMultiset, k: int) -> SolveOutcome:
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
    solution = recursive_solve_feasible(allocation.program(leftover.counts))
    if not solution.feasible:
        return SolveOutcome.make_unfair(stats)

    assignment = [0] * n
    for size, combos in zip(sizes, allocation.decode(solution)):
        for (center, leaves), combo in zip(by_size[size], combos):
            assignment[center] = k
            for leaf, value in zip(sorted(leaves), combo):
                assignment[leaf] = value
    return certified_outcome(graph, labels, assignment, k, stats)


# `solve_regular_fvs` as it was before the dispatcher routed regular graphs,
# copied verbatim (only renamed), with its own r * sum / n check and its
# branches for degree 1, 2 and >= 3.  `solve_auto` and the thin
# `solve_regular_fvs` must keep its verdicts and certificates.
def reference_solve_regular_fvs(
    graph: Graph, labels: LabelMultiset, k: int | None = None
) -> SolveOutcome:
    """Exact decision for regular graphs; the constant is forced to r*sum/n.

    Degree 1 forces every label equal to the constant.  Degree 2 decomposes
    into cycles whose fair labelings are fully characterized (all labels k/2,
    or a period-4 pattern when the length divides by 4), so distributing the
    multiset across cycles is a counting program.  Higher degrees fall back
    to exhaustive search with the constant pinned.  A requested constant
    other than the forced one is immediately unfair.
    """
    r = graph.regular_degree()
    if r is None or r < 1:
        raise InputError("solver requires a regular graph of positive degree")
    n = graph.vertex_count
    if len(labels) != n:
        raise InputError("label multiset size does not match the vertex count")
    if k is not None:
        require_constant(k)
    stats = SolveStats()
    total = r * labels.total()
    if total % n != 0:
        stats.trace.append("constant r*sum/n is not an integer")
        return SolveOutcome.make_unfair(stats)
    if k is not None and k != total // n:
        stats.trace.append(f"requested constant {k} differs from forced {total // n}")
        return SolveOutcome.make_unfair(stats)
    k = total // n
    stats.trace.append(f"regular degree {r}, constant {k}")

    if r == 1:
        if labels.alpha == 1:
            return certified_outcome(graph, labels, labels.values, k, stats)
        stats.trace.append("matching edges force equal endpoint labels")
        return SolveOutcome.make_unfair(stats)

    if r >= 3:
        stats.trace.append("delegating to exhaustive search")
        return _adopt(stats, solve_oracle(graph, labels, k=k))
    return _solve_cycles(graph, labels, k, stats)


# The elimination as it was before it took a labeling order, copied
# verbatim (only renamed).  With the default order, `eliminate` must give
# its weights and pivot set, and its maps must force the same values.
def reference_eliminate(graph: Graph) -> Elimination:
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


# The forest-boundary enumeration as it was before its pivot maps, copied
# verbatim (only renamed).  `solve_fvs_alpha_delta` must decide exactly as
# it does, certificates included, in no more nodes.
def reference_enumerate_boundary_extensions(
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
    tables = RecursiveSearchTables(
        tuple(domain),
        feeds,
        graph.degrees,
        [tuple(sorted(touched)) for touched in touched_at],
        forcing_at=forcing_at,
        # an isolated vertex sees 0, never the positive K
        root_checks=tuple(u for u in sorted(checked) if not adjacency[u]),
    )
    order = domain + [v for steps in extender.trees for v, _ in steps]
    for values, _ in recursive_ordered_search(tables, labels, stats or SolveStats(), k):
        yield {v: values[v] for v in order}


# `parameter_report` as it was before the report sized FVS and VC without
# building them, copied verbatim (only renamed) but for its strategy tag,
# which the dispatcher now records itself.  The report must give the same
# `SolverChoice`.
def reference_parameter_report(graph: Graph, labels: LabelMultiset) -> SolverChoice:
    """Structural parameters."""
    if len(labels) != graph.vertex_count:
        raise InputError("label multiset size does not match the vertex count")
    n = graph.vertex_count
    alpha = labels.alpha
    delta = graph.max_degree()
    r = graph.regular_degree()
    if 0 < n <= EXACT_PARAM_LIMIT:
        fvs_size: int | None = len(minimum_feedback_vertex_set(graph))
        vc_size: int | None = len(minimum_vertex_cover(graph))
    else:
        fvs_size = None
        vc_size = None
    return SolverChoice(fvs_size, vc_size, alpha, delta, r)


# The elimination as it was before its loop dropped cancelled rows in one
# pass, copied verbatim (only renamed): the fully reduced form.  For every
# labeling order, `eliminate` must give its weights and pivot set, and its
# maps must force the same values on every prefix that obeys the earlier
# maps.
def reference_ordered_eliminate(graph: Graph, order: Iterable[int] | None = None) -> Elimination:
    """Gauss-Jordan elimination of [A | 1] over the integers, per component.

    Rows stay lists of coprime integers: cancelling a column combines two
    rows with integer factors and divides out the gcd, so no fraction
    arises (fraction-free, as in Bareiss's elimination).  The columns of
    vertices outside the labeling order (default: all vertices by id) go
    first, then the order's from its last position to its first.  Each
    pivot is cancelled from every other row, so the reduced form, and with
    it each `PivotMap`, is unique, and a pivot row is zero on every column
    taken before its own: a pivot in the order involves only free vertices
    at earlier positions.  With free labels at 0 and K = 1, pivot p takes
    c / D, so s_C is the sum of c / D over C's pivots; a row left with only
    a K coefficient means no solution.  Rows of different components never
    meet, so each component is eliminated alone.
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
        reduced: dict[int, list[int]] = {}
        for col in sorted(range(size), key=lambda i: rank[comp[i]], reverse=True):
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


# Vertex 0's orbit as it was before each left individualization path was
# refined once, copied verbatim (only renamed).  At the oracle's budget
# `first_vertex_orbit` must give exactly its orbit, and below it a part.
def reference_refine_pair(
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


class _ReferenceOutOfBudget(Exception):
    """The automorphism search used up its node budget."""


def reference_first_vertex_orbit(graph: Graph, part: TwinPartition, budget: int) -> tuple[int, ...]:
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
    stable = reference_refine_pair(adjacency, kinds, kinds)[0]
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
            raise _ReferenceOutOfBudget
        nodes += 1
        pair = reference_refine_pair(adjacency, left, right)
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
    except _ReferenceOutOfBudget:
        pass
    root = find(0)
    return tuple(sorted(
        v for i, cls in enumerate(classes) if find(i) == root for v in cls.vertices
    ))
