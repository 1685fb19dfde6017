"""Shared test helpers: independent brute-force references and generators.

Everything here is deliberately naive.  The brute forces re-derive answers
from first principles (permutations, subsets, full boxes) so the production
code is checked against something that cannot share its bugs.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

from fairnet import (
    Graph,
    IntegerProgram,
    IpSolution,
    LabelMultiset,
    RefusalError,
    VACUOUS,
    complete_bipartite,
    cycle_graph,
    disjoint_union,
    extend_forest,
    star_graph,
    verify,
)
from fairnet.search import SearchTables
from fairnet.solvers import _oracle_cap
from fairnet.structure import (
    _adjacency_map,
    _drop_vertex,
    _prune_degree_le1,
    _short_cycle,
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


def brute_boundary_extensions(
    graph: Graph, forest, labels: LabelMultiset, k: int, extra_boundary=()
) -> list[dict[int, int]]:
    """The stream enumerate_boundary_extensions must yield, filtered at the leaves.

    Every function from the domain (forest leaves, outside neighbors of the
    forest, extra vertices) into the distinct values, in lexicographic
    order, is extended by extend_forest; an extension is kept when its labels
    fit inside the multiset and every vertex whose whole neighborhood it
    labels sees exactly k.
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
        extended = extend_forest(graph, forest, {v: chosen[v] for v in boundary}, k)
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
    cap = _oracle_cap()
    if len(part.classes) > cap:
        raise RefusalError(f"{len(part.classes)} twin classes exceed the search cap {cap}")
    ties: list[tuple[int, bool] | None] = [None] * graph.vertex_count
    for cls in part.classes:
        for a, b in zip(cls.vertices, cls.vertices[1:]):
            ties[b] = (a, cls.true_twin)
    adjacency = graph.adjacency
    return SearchTables(
        tuple(range(graph.vertex_count)), adjacency, graph.degrees, adjacency, ties=ties
    )
