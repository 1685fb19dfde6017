"""Decision procedures: exhaustive oracle, parameterized solvers, dispatcher.

All solvers are exact on their stated domain and report Fair only through a
re-verified certificate.  Resource limits surface as RefusalError, never as
a verdict.  The per-constant solvers answer "is there a fair labeling with
this constant"; the dispatcher supplies candidate constants and the rule
that a disjoint union is fair only under one shared constant.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

from .ilp import Allocation, solve_feasible
from .model import (
    FairnessCertificate,
    Graph,
    InputError,
    LabelMultiset,
    RefusalError,
    SolveOutcome,
    SolveStats,
    certified_outcome,
    fairness_constant_candidates,
    require_constant,
    timed,
)
from .special import _solve_cycles, enumerate_boundary_extensions, solve_disjoint_stars
from .structure import (
    Shape,
    classify,
    connected_components,
    minimum_feedback_vertex_set,
    minimum_vertex_cover,
    twin_classes,
)

# refuse exhaustive search beyond this many twin classes (env-overridable)
ORACLE_CLASS_CAP = 12
# exact fvs/vc are only attempted below this vertex count
EXACT_PARAM_LIMIT = 32
# upper bound on the nominal enumeration size a strategy may plan for
ENUMERATION_CAP = 5_000_000


class StrategyTag(Enum):
    ORACLE = "oracle"
    FVS_ALPHA_DELTA = "fvs-alpha-delta"
    VC_ALPHA = "vc-alpha"
    REGULAR_FVS = "regular-fvs"
    AUTO = "auto"


@dataclass(frozen=True)
class SolverChoice:
    """Strategy pick plus the structural parameters it was based on.

    fvs and vc are exact minimum sizes, reported as None when the graph is
    too large for exact computation.  regular is the common degree or None.
    """

    tag: StrategyTag
    fvs: int | None
    vc: int | None
    alpha: int
    delta: int
    regular: int | None


def _oracle_cap() -> int:
    raw = os.environ.get("FAIRNET_ORACLE_CAP")
    if raw is None:
        return ORACLE_CLASS_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InputError(f"FAIRNET_ORACLE_CAP must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise InputError("FAIRNET_ORACLE_CAP must be positive")
    return cap


def _vacuous_outcome(labels: LabelMultiset, stats: SolveStats) -> SolveOutcome:
    cert = FairnessCertificate(labels.values, None)
    return SolveOutcome.make_fair(cert, stats)


class _OracleSearch:
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

    def __init__(self, graph: Graph, labels: LabelMultiset, k: int | None):
        n = graph.vertex_count
        part = twin_classes(graph)
        cap = _oracle_cap()
        if len(part.classes) > cap:
            raise RefusalError(
                f"{len(part.classes)} twin classes exceed the search cap {cap}"
            )
        self.graph = graph
        self.n = n
        self.k_fixed = k
        self.distinct = labels.distinct_values
        self.min_value = self.distinct[0]
        self.max_value = self.distinct[-1]
        self.remaining = Counter(labels.counts)
        self.prev_in_class = [-1] * n
        self.is_true_twin = [False] * n
        for cls in part.classes:
            for v in cls.vertices:
                self.is_true_twin[v] = cls.true_twin
            for a, b in zip(cls.vertices, cls.vertices[1:]):
                self.prev_in_class[b] = a
        self.assignment: list[int | None] = [None] * n
        self.partial = [0] * n
        self.pending = list(graph.degrees)

    def completions(self, stats: SolveStats) -> Iterator[tuple[tuple[int, ...], int]]:
        """Yield (assignment, constant) for every fair completion found."""
        yield from self._dfs(0, self.k_fixed, stats)

    def _dfs(self, i: int, k: int | None,
             stats: SolveStats) -> Iterator[tuple[tuple[int, ...], int]]:
        if i == self.n:
            # a graph with an edge always pins k before completion
            yield tuple(self.assignment), k
            return
        prev = self.prev_in_class[i]
        if prev >= 0 and self.is_true_twin[i]:
            options: tuple[int, ...] = (self.assignment[prev],)
        elif prev >= 0:
            floor = self.assignment[prev]
            options = tuple(v for v in self.distinct if v >= floor)
        else:
            options = self.distinct
        adj = self.graph.adjacency[i]
        for value in options:
            if self.remaining[value] == 0:
                continue
            stats.nodes += 1
            self.remaining[value] -= 1
            self.assignment[i] = value
            nxt_k = k
            ok = True
            for u in adj:
                self.partial[u] += value
                self.pending[u] -= 1
            for u in adj:
                total, left = self.partial[u], self.pending[u]
                if left == 0:
                    if nxt_k is None:
                        nxt_k = total
                    elif total != nxt_k:
                        ok = False
                        break
                elif nxt_k is not None and not (
                    total + left * self.min_value <= nxt_k <= total + left * self.max_value
                ):
                    ok = False
                    break
            if ok:
                yield from self._dfs(i + 1, nxt_k, stats)
            for u in adj:
                self.partial[u] -= value
                self.pending[u] += 1
            self.remaining[value] += 1
            self.assignment[i] = None


@timed
def solve_oracle(graph: Graph, labels: LabelMultiset, k: int | None = None) -> SolveOutcome:
    """Exhaustive exact decision; canonically first certificate.

    Optionally restricted to one candidate constant.  Refuses (rather than
    guessing) when the twin-class count exceeds the configured cap.
    """
    if len(labels) != graph.vertex_count:
        raise InputError("label multiset size does not match the vertex count")
    if k is not None:
        require_constant(k)
    stats = SolveStats()
    if graph.is_edgeless():
        return _vacuous_outcome(labels, stats)
    if graph.min_degree() == 0:
        # an isolated vertex sees 0 while its constrained peers see >= 1
        stats.trace.append("isolated vertex next to constrained vertices")
        return SolveOutcome.make_unfair(stats)
    search = _OracleSearch(graph, labels, k)
    for assignment, constant in search.completions(stats):
        return certified_outcome(graph, labels, assignment, constant, stats)
    return SolveOutcome.make_unfair(stats)


def oracle_constants(graph: Graph, labels: LabelMultiset) -> list[int]:
    """Every constant realized by some fair labeling, via full enumeration.

    Empty when the graph is unfair for the multiset; also empty for edgeless
    graphs, whose fairness carries no integer constant.
    """
    if len(labels) != graph.vertex_count:
        raise InputError("label multiset size does not match the vertex count")
    if graph.is_edgeless() or graph.min_degree() == 0:
        return []
    stats = SolveStats()
    search = _OracleSearch(graph, labels, None)
    return sorted({constant for _, constant in search.completions(stats)})


@timed
def solve_vc_delta(
    graph: Graph, labels: LabelMultiset, k: int | None = None
) -> SolveOutcome:
    """Named pass-through strategy: the vertex count is at most vc * delta
    whenever no vertex is isolated, so exhaustive search is the bounded
    brute force.  Delegates to the oracle and records the bound."""
    stats = SolveStats()
    n = graph.vertex_count
    if 0 < n <= EXACT_PARAM_LIMIT:
        vc = len(minimum_vertex_cover(graph))
        delta = graph.max_degree()
        stats.trace.append(f"size bound: n={n}, vc*delta={vc * delta}")
    else:
        stats.trace.append("size bound not evaluated (graph too large for exact vc)")
    return _adopt(stats, solve_oracle(graph, labels, k))


def _reject_isolated(graph: Graph) -> None:
    if graph.vertex_count == 0 or graph.min_degree() == 0:
        raise InputError("solver requires a graph without isolated vertices")


def _pendant_screen(graph: Graph, stats: SolveStats) -> bool:
    """True when some component has a pendant vertex but is not a star.

    Such a component admits no fair labeling at all: a pendant vertex's
    equation forces its neighbor's label to the constant, and propagating
    that around a connected non-star component always collides.
    """
    report = classify(graph)
    for comp, kind in zip(report.components, report.component_kinds):
        if kind == "tree" or (
            kind == "general" and any(graph.degree(v) == 1 for v in comp)
        ):
            stats.trace.append(
                f"component {comp[0]}..: pendant vertex in a non-star component"
            )
            return True
    return False


@timed
def solve_fvs_alpha_delta(graph: Graph, labels: LabelMultiset, k: int) -> SolveOutcome:
    """Fixed-constant decision via feedback-vertex-set boundary enumeration.

    Star components are split off and settled by the counting program; the
    rest is decided by enumerating labels over the feedback set plus the
    forest leaves, forcing all interior forest labels, and keeping exactly
    the assignments that satisfy every equation with leftover labels for the
    stars.
    """
    require_constant(k)
    if len(labels) != graph.vertex_count:
        raise InputError("label multiset size does not match the vertex count")
    _reject_isolated(graph)
    stats = SolveStats()
    if _pendant_screen(graph, stats):
        return SolveOutcome.make_unfair(stats)
    report = classify(graph)
    star_vertices = [
        v
        for comp, kind in zip(report.components, report.component_kinds)
        if kind == "star"
        for v in comp
    ]
    rest_vertices = sorted(set(range(graph.vertex_count)) - set(star_vertices))
    if not rest_vertices:
        return _adopt(stats, solve_disjoint_stars(graph, labels, k))

    if len(rest_vertices) > EXACT_PARAM_LIMIT:
        raise RefusalError(
            f"non-star part has {len(rest_vertices)} vertices; exact feedback"
            f" vertex sets are limited to {EXACT_PARAM_LIMIT}"
        )
    g1, ids1 = graph.induced(rest_vertices)
    g2, ids2 = graph.induced(star_vertices)
    fvs = minimum_feedback_vertex_set(g1)
    forest = [v for v in range(g1.vertex_count) if v not in set(fvs)]
    stats.trace.append(f"fvs size {len(fvs)} on the non-star part")
    extensions = enumerate_boundary_extensions(
        g1, forest, labels, k, extra_boundary=fvs, stats=stats
    )
    for merged in extensions:
        star_labels: tuple[int, ...] = ()
        if g2.vertex_count:
            residual = labels.minus(LabelMultiset.from_iterable(merged.values()))
            sub = _adopt(stats, solve_disjoint_stars(g2, residual, k))
            if not sub.fair:
                continue
            star_labels = sub.certificate.labels
        assignment = [0] * graph.vertex_count
        for local, value in merged.items():
            assignment[ids1[local]] = value
        for local, value in enumerate(star_labels):
            assignment[ids2[local]] = value
        return certified_outcome(graph, labels, assignment, k, stats)
    return SolveOutcome.make_unfair(stats)


class _CoverEnumeration:
    """DFS over cover labelings with equation-aware pruning.

    Precomputes, per cover position, which independent-class equations become
    fully determined and which cover vertices have just seen their last
    cover-side neighbor labeled; both trigger checks against the target
    constant as early as possible.
    """

    def __init__(self, graph: Graph, labels: LabelMultiset, k: int,
                 cover: tuple[int, ...], class_list: list[tuple[tuple[int, ...], list[int]]]):
        self.k = k
        self.labels = labels
        self.cover = cover
        pos_of = {v: i for i, v in enumerate(cover)}
        cover_set = set(cover)
        self.min_value = labels.distinct_values[0]
        self.max_value = labels.distinct_values[-1]

        # class equations: all of D_i assigned once its last member is placed
        self.class_checks: list[list[tuple[int, ...]]] = [[] for _ in cover]
        self.static_failure = False
        for nbrs, _members in class_list:
            trigger = max(pos_of[u] for u in nbrs)
            self.class_checks[trigger].append(nbrs)

        # residual interval per cover vertex once its cover-side sum is known
        self.residual_checks: list[list[tuple[tuple[int, ...], int]]] = [
            [] for _ in cover
        ]
        for v in cover:
            cover_nbrs = tuple(u for u in graph.adjacency[v] if u in cover_set)
            indep_count = graph.degree(v) - len(cover_nbrs)
            if cover_nbrs:
                trigger = max(pos_of[u] for u in cover_nbrs)
                self.residual_checks[trigger].append((cover_nbrs, indep_count))
            else:
                if not self._residual_ok(k, indep_count):
                    self.static_failure = True

    def _residual_ok(self, residual: int, indep_count: int) -> bool:
        if indep_count == 0:
            return residual == 0
        return (
            indep_count * self.min_value <= residual <= indep_count * self.max_value
        )

    def assignments(self, stats: SolveStats) -> Iterator[dict[int, int]]:
        if self.static_failure:
            return
        remaining = Counter(self.labels.counts)
        chosen: dict[int, int] = {}

        def ok_at(pos: int) -> bool:
            for nbrs in self.class_checks[pos]:
                if sum(chosen[u] for u in nbrs) != self.k:
                    return False
            for cover_nbrs, indep_count in self.residual_checks[pos]:
                residual = self.k - sum(chosen[u] for u in cover_nbrs)
                if not self._residual_ok(residual, indep_count):
                    return False
            return True

        def rec(pos: int) -> Iterator[dict[int, int]]:
            if pos == len(self.cover):
                yield dict(chosen)
                return
            v = self.cover[pos]
            for value in self.labels.distinct_values:
                if remaining[value] == 0:
                    continue
                stats.nodes += 1
                remaining[value] -= 1
                chosen[v] = value
                if ok_at(pos):
                    yield from rec(pos + 1)
                del chosen[v]
                remaining[value] += 1

        yield from rec(0)


@timed
def solve_vc_alpha(graph: Graph, labels: LabelMultiset, k: int) -> SolveOutcome:
    """Fixed-constant decision via vertex-cover labeling plus a counting program.

    Enumerates labelings of a minimum vertex cover.  Vertices outside the
    cover form an independent set, so each one's equation reads entirely off
    the cover labels and is checked during enumeration, grouped by identical
    neighborhoods.  What remains per cover labeling is how many vertices of
    each class take each distinct value: class sizes, leftover multiplicities
    and the cover equations (cover-side adjacency contributes its fixed sum)
    form an integer feasibility program.
    """
    require_constant(k)
    if len(labels) != graph.vertex_count:
        raise InputError("label multiset size does not match the vertex count")
    _reject_isolated(graph)
    stats = SolveStats()
    cover = minimum_vertex_cover(graph)
    cover_set = set(cover)
    stats.trace.append(f"vertex cover size {len(cover)}")

    groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(graph.vertex_count):
        if v not in cover_set:
            groups.setdefault(graph.adjacency[v], []).append(v)
    class_list = sorted(groups.items(), key=lambda item: item[1][0])
    # per cover vertex with independent neighbors: those classes, and the
    # cover-side neighbors whose labels leave the rest of its constant
    cover_rows = []
    for v in cover:
        adjacent = [i for i, (nbrs, _members) in enumerate(class_list) if v in nbrs]
        if adjacent:
            cover_rows.append(
                (adjacent, tuple(u for u in graph.adjacency[v] if u in cover_set))
            )
    one_each = {value: {value: 1} for value in labels.distinct_values}
    allocation = Allocation(
        [(len(members), one_each) for _nbrs, members in class_list],
        [adjacent for adjacent, _ in cover_rows],
    )

    enumeration = _CoverEnumeration(graph, labels, k, cover, class_list)
    for g_map in enumeration.assignments(stats):
        remaining = labels.counts - Counter(g_map.values())
        totals = [k - sum(g_map[u] for u in nbrs) for _, nbrs in cover_rows]
        stats.ilp_calls += 1
        solution = solve_feasible(allocation.program(remaining, totals))
        if not solution.feasible:
            continue
        assignment = [0] * graph.vertex_count
        for v, value in g_map.items():
            assignment[v] = value
        for (_nbrs, members), fill in zip(class_list, allocation.decode(solution)):
            for v, value in zip(members, fill):
                assignment[v] = value
        return certified_outcome(graph, labels, assignment, k, stats)
    return SolveOutcome.make_unfair(stats)


@timed
def solve_regular_fvs(
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


def _component_constant_filter(graph: Graph, labels: LabelMultiset,
                               candidates: list[int]) -> list[int]:
    """Drop candidates no regular component can realize.

    Summing a regular component's equations gives k * size = r * (sum of the
    labels it receives), so k * size must be divisible by r with the quotient
    achievable by some size-subset of the multiset (bounded by the sums of
    the smallest and largest size-many values).
    """
    vals = labels.values
    prefix = [0]
    for v in vals:
        prefix.append(prefix[-1] + v)

    def smallest(m: int) -> int:
        return prefix[m]

    def largest(m: int) -> int:
        return prefix[-1] - prefix[len(vals) - m]

    filters = []
    for comp in connected_components(graph):
        degs = {graph.degree(v) for v in comp}
        if len(degs) == 1:
            r = degs.pop()
            if r >= 1:
                filters.append((r, len(comp)))
    if not filters:
        return candidates
    out = []
    for k in candidates:
        ok = True
        for r, size in filters:
            need = k * size
            if need % r != 0 or not smallest(size) <= need // r <= largest(size):
                ok = False
                break
        if ok:
            out.append(k)
    return out


@dataclass(frozen=True)
class _GeneralPlan:
    tag: StrategyTag
    vc_size: int | None
    boundary_size: int | None
    est_vc: int | None
    est_fvs: int | None


def _plan_general(graph: Graph, labels: LabelMultiset) -> _GeneralPlan:
    """Pick between the two enumeration strategies by nominal search size."""
    n = graph.vertex_count
    if n > EXACT_PARAM_LIMIT:
        return _GeneralPlan(StrategyTag.ORACLE, None, None, None, None)
    alpha = labels.alpha
    report = classify(graph)
    rest = [
        v
        for comp, kind in zip(report.components, report.component_kinds)
        if kind != "star"
        for v in comp
    ]
    g1, _ = graph.induced(rest)
    fvs = minimum_feedback_vertex_set(g1)
    fvs_set = set(fvs)
    forest = [v for v in range(g1.vertex_count) if v not in fvs_set]
    forest_set = set(forest)
    leaves = sum(
        1
        for v in forest
        if sum(1 for u in g1.adjacency[v] if u in forest_set) <= 1
    )
    vc = minimum_vertex_cover(graph)
    boundary = len(fvs) + leaves
    est_vc = alpha ** len(vc)
    est_fvs = alpha ** boundary
    if min(est_vc, est_fvs) > ENUMERATION_CAP:
        return _GeneralPlan(StrategyTag.ORACLE, len(vc), boundary, est_vc, est_fvs)
    tag = StrategyTag.VC_ALPHA if est_vc <= est_fvs else StrategyTag.FVS_ALPHA_DELTA
    return _GeneralPlan(tag, len(vc), boundary, est_vc, est_fvs)


def parameter_report(graph: Graph, labels: LabelMultiset) -> SolverChoice:
    """Structural parameters plus the strategy the dispatcher would run.

    The tag is AUTO when the instance is settled by the dispatcher's own
    screens and closed forms (edgeless, isolated vertices, pendant screen,
    disjoint stars) rather than by a named strategy.
    """
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
    report = classify(graph)
    throwaway = SolveStats()
    if report.shape in (Shape.EDGELESS_ONLY, Shape.HAS_ISOLATED_MIXED, Shape.DISJOINT_STARS):
        tag = StrategyTag.AUTO
    elif _pendant_screen(graph, throwaway):
        tag = StrategyTag.AUTO
    elif r is not None and r >= 1:
        tag = StrategyTag.REGULAR_FVS
    else:
        tag = _plan_general(graph, labels).tag
    return SolverChoice(tag, fvs_size, vc_size, alpha, delta, r)


def _adopt(stats: SolveStats, sub: SolveOutcome) -> SolveOutcome:
    """The delegate's verdict under the caller's stats, which absorb its effort."""
    stats.absorb(sub.stats)
    return SolveOutcome(sub.verdict, sub.certificate, stats)


def _run_candidates(candidates: list[int], stats: SolveStats,
                    run: Callable[[int], SolveOutcome]) -> SolveOutcome:
    """The first fair outcome over the candidates, else unfair, under `stats`."""
    for k in candidates:
        outcome = _adopt(stats, run(k))
        stats.trace.append(f"k={k}: {outcome.verdict.value}")
        if outcome.fair:
            return outcome
    return SolveOutcome.make_unfair(stats)


@timed
def solve_auto(
    graph: Graph, labels: LabelMultiset, k: int | None = None
) -> SolveOutcome:
    """Dispatcher: screens, closed forms, then the cheapest exact strategy.

    Candidate constants are intersected across components up front (a fair
    disjoint union shares one constant), and each surviving candidate is
    decided by a single whole-graph strategy, which settles how the multiset
    splits across components as part of its own search.  A requested
    constant narrows the candidate set to itself.
    """
    if len(labels) != graph.vertex_count:
        raise InputError("label multiset size does not match the vertex count")
    if k is not None:
        require_constant(k)

    def narrowed(cands: list[int]) -> list[int]:
        if k is None:
            return cands
        return [k] if k in cands else []

    stats = SolveStats()
    report = classify(graph)

    if report.shape is Shape.EDGELESS_ONLY:
        stats.trace.append("edgeless: fair with no constraint")
        return _vacuous_outcome(labels, stats)
    if report.shape is Shape.HAS_ISOLATED_MIXED:
        stats.trace.append("isolated vertex next to constrained vertices")
        return SolveOutcome.make_unfair(stats)
    if _pendant_screen(graph, stats):
        return SolveOutcome.make_unfair(stats)

    if report.shape is Shape.DISJOINT_STARS:
        candidates = narrowed(
            _component_constant_filter(
                graph, labels, fairness_constant_candidates(graph, labels)
            )
        )
        stats.trace.append(f"disjoint stars; candidates {candidates}")
        return _run_candidates(
            candidates, stats, lambda k: solve_disjoint_stars(graph, labels, k)
        )

    r = report.regular_degree
    if r is not None and r >= 1:
        stats.trace.append(f"regular graph of degree {r}")
        return _adopt(stats, solve_regular_fvs(graph, labels, k))

    candidates = narrowed(
        _component_constant_filter(
            graph, labels, fairness_constant_candidates(graph, labels)
        )
    )
    stats.trace.append(f"candidates {candidates}")
    if not candidates:
        return SolveOutcome.make_unfair(stats)

    plan = _plan_general(graph, labels)
    stats.trace.append(
        f"strategy {plan.tag.value}"
        + (
            f" (vc {plan.vc_size}, boundary {plan.boundary_size},"
            f" est {plan.est_vc}/{plan.est_fvs})"
            if plan.vc_size is not None
            else ""
        )
    )
    if plan.tag is StrategyTag.ORACLE:
        return _adopt(stats, solve_oracle(graph, labels, k))
    runner = (
        solve_vc_alpha if plan.tag is StrategyTag.VC_ALPHA else solve_fvs_alpha_delta
    )
    return _run_candidates(candidates, stats, lambda k: runner(graph, labels, k))
