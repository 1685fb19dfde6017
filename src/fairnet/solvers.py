"""Decision procedures: exhaustive oracle, parameterized solvers, dispatcher.

All solvers are exact on their stated domain and report Fair only through a
re-verified certificate.  Resource limits surface as RefusalError, never as
a verdict.  The oracle and the two enumerating strategies (vc-alpha,
fvs-alpha-delta) each build tables for the one ordered search in
`search.ordered_search`.  Without a requested constant they decide the
one constant a fair labeling can have: if A x = 1 on each component, the
multiset sums to 1^T l = x^T A l = K 1^T x, so K = sum(S) / sum_C s_C
(`_forced_constant`).  The oracle returns the lexicographically smallest
fair labeling and breaks symmetry with it: for an automorphism s, l o s is
fair whenever l is, so that labeling gives vertex 0 the smallest label of
its orbit (the lex-leader rule), and the orbit's vertices are floored at
vertex 0's label.  The dispatcher adds the screens and the closed forms,
and hands the constant to the strategy it picks.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable

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
    constant_bounds,
    # unused here, but perfbench/tracing.py wraps it under this module
    fairness_constant_candidates,  # noqa: F401
    require_constant,
    timed,
)
from .search import SearchTables, ordered_search
from .special import _solve_cycles, enumerate_boundary_extensions, solve_disjoint_stars
from .structure import (
    Shape,
    classify,
    component_weights,
    first_vertex_orbit,
    minimum_feedback_vertex_set,
    minimum_vertex_cover,
    twin_classes,
)

# refuse exhaustive search beyond this many twin classes (env-overridable)
ORACLE_CLASS_CAP = 12
# refinement nodes the oracle's automorphism search may spend
ORBIT_NODE_BUDGET = 64
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


def _oracle_tables(graph: Graph) -> SearchTables:
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
    cap = _oracle_cap()
    if len(part.classes) > cap:
        raise RefusalError(f"{len(part.classes)} twin classes exceed the search cap {cap}")
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


@timed
def solve_oracle(graph: Graph, labels: LabelMultiset, k: int | None = None) -> SolveOutcome:
    """Exhaustive exact decision; canonically first certificate.

    Searches the requested constant, or else the forced one
    (`_forced_constant`), the only constant a fair labeling can have.
    Refuses (rather than guessing) when the twin-class count exceeds the
    configured cap.
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
    tables = _oracle_tables(graph)
    if k is None:
        k = _forced_constant(graph, labels)
        if k is None:
            stats.trace.append("no fairness constant")
            return SolveOutcome.make_unfair(stats)
    for assignment, constant in ordered_search(tables, labels, stats, k):
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
    completions = ordered_search(_oracle_tables(graph), labels, SolveStats())
    return sorted({constant for _, constant in completions})


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
def solve_fvs_alpha_delta(
    graph: Graph, labels: LabelMultiset, k: int | None = None
) -> SolveOutcome:
    """Decision via feedback-vertex-set boundary enumeration.

    Star components are split off and settled by the counting program; the
    rest is decided by enumerating labels over the feedback set plus the
    forest leaves, forcing all interior forest labels, and keeping exactly
    the assignments that satisfy every equation with leftover labels for the
    stars.  The requested constant, or else the forced one, is decided.
    """
    constants = _constants(graph, labels, k)
    stats = SolveStats()
    if not constants or _pendant_screen(graph, stats):
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
        return _decide(constants, stats, lambda k: solve_disjoint_stars(graph, labels, k))

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

    def decide(k: int) -> SolveOutcome:
        sub = SolveStats()
        extensions = enumerate_boundary_extensions(
            g1, forest, labels, k, extra_boundary=fvs, stats=sub
        )
        for merged in extensions:
            star_labels: tuple[int, ...] = ()
            if g2.vertex_count:
                residual = labels.minus(LabelMultiset.from_iterable(merged.values()))
                stars = _adopt(sub, solve_disjoint_stars(g2, residual, k))
                if not stars.fair:
                    continue
                star_labels = stars.certificate.labels
            assignment = [0] * graph.vertex_count
            for local, value in merged.items():
                assignment[ids1[local]] = value
            for local, value in enumerate(star_labels):
                assignment[ids2[local]] = value
            return certified_outcome(graph, labels, assignment, k, sub)
        return SolveOutcome.make_unfair(sub)

    return _decide(constants, stats, decide)


def _cover_tables(graph: Graph, cover: tuple[int, ...],
                  equations: list[tuple[tuple[int, ...], int]]) -> SearchTables:
    """Cover labelings checking each (cover inputs, pending) equation once.

    An equation is checked when its last cover input is labeled (exactly
    when nothing is pending), and before the search when it has none.
    """
    pos_of = {v: i for i, v in enumerate(cover)}
    feeds: list[list[int]] = [[] for _ in range(graph.vertex_count)]
    checks_at: list[list[int]] = [[] for _ in cover]
    root_checks = []
    for eq, (inputs, _pending) in enumerate(equations):
        for u in inputs:
            feeds[u].append(eq)
        if inputs:
            checks_at[max(pos_of[u] for u in inputs)].append(eq)
        else:
            root_checks.append(eq)
    return SearchTables(
        cover, feeds, [pending for _inputs, pending in equations], checks_at,
        root_checks=tuple(root_checks),
    )


@timed
def solve_vc_alpha(
    graph: Graph, labels: LabelMultiset, k: int | None = None
) -> SolveOutcome:
    """Decision via vertex-cover labeling plus a counting program.

    Enumerates labelings of a minimum vertex cover.  Vertices outside the
    cover form an independent set, so each one's equation reads entirely off
    the cover labels and is checked during enumeration, grouped by identical
    neighborhoods; each cover vertex's equation is checked once its
    cover-side neighbors are labeled, its independent neighbors pending.
    What remains per cover labeling is how many vertices of each class take
    each distinct value: class sizes, leftover multiplicities and the cover
    equations (cover-side adjacency contributes its fixed sum) form an
    integer feasibility program.  The requested constant, or else the forced
    one, is decided.
    """
    constants = _constants(graph, labels, k)
    stats = SolveStats()
    if not constants:
        return SolveOutcome.make_unfair(stats)
    cover = minimum_vertex_cover(graph)
    cover_set = set(cover)
    stats.trace.append(f"vertex cover size {len(cover)}")

    groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(graph.vertex_count):
        if v not in cover_set:
            groups.setdefault(graph.adjacency[v], []).append(v)
    class_list = sorted(groups.items(), key=lambda item: item[1][0])
    cover_sides = [tuple(u for u in graph.adjacency[v] if u in cover_set) for v in cover]
    # per cover vertex with independent neighbors: those classes, and the
    # cover-side neighbors whose labels leave the rest of its constant
    cover_rows = []
    for v, side in zip(cover, cover_sides):
        adjacent = [i for i, (nbrs, _members) in enumerate(class_list) if v in nbrs]
        if adjacent:
            cover_rows.append((adjacent, side))
    one_each = {value: {value: 1} for value in labels.distinct_values}
    allocation = Allocation(
        [(len(members), one_each) for _nbrs, members in class_list],
        [adjacent for adjacent, _ in cover_rows],
    )
    tables = _cover_tables(
        graph,
        cover,
        [(nbrs, len(nbrs)) for nbrs, _members in class_list]
        + [(side, graph.degree(v)) for v, side in zip(cover, cover_sides)],
    )

    def decide(k: int) -> SolveOutcome:
        sub = SolveStats()
        for values, _ in ordered_search(tables, labels, sub, k):
            remaining = labels.counts - Counter(values[v] for v in cover)
            totals = [k - sum(values[u] for u in side) for _, side in cover_rows]
            sub.ilp_calls += 1
            solution = solve_feasible(allocation.program(remaining, totals))
            if not solution.feasible:
                continue
            assignment = list(values)
            for (_nbrs, members), fill in zip(class_list, allocation.decode(solution)):
                for v, value in zip(members, fill):
                    assignment[v] = value
            return certified_outcome(graph, labels, assignment, k, sub)
        return SolveOutcome.make_unfair(sub)

    return _decide(constants, stats, decide)


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


def _forced_constant(graph: Graph, labels: LabelMultiset) -> int | None:
    """The one constant a fair labeling can have, or None when there is none.

    A fair labeling with constant K gives each component C the label sum
    K s_C (`component_weights`), so the multiset's sum is K times the sum of
    the s_C.  K must therefore be that quotient, a positive integer, and each
    K s_C an integer that some |C| labels can sum to: between the sums of
    the |C| smallest and the |C| largest.  A component of degree r has
    s_C = |C| / r, which gives the regular graphs' r * sum / n.
    """
    weights = component_weights(graph)
    if any(weight is None for _comp, weight in weights):
        return None
    total = sum(weight for _comp, weight in weights)
    if total <= 0:
        return None
    k = labels.total() / total
    if k.denominator != 1:
        return None
    vals = labels.values
    prefix = [0]
    for v in vals:
        prefix.append(prefix[-1] + v)
    for comp, weight in weights:
        need, size = k * weight, len(comp)
        smallest, largest = prefix[size], prefix[-1] - prefix[-1 - size]
        if need.denominator != 1 or not smallest <= need <= largest:
            return None
    return int(k)


def _candidates(graph: Graph, labels: LabelMultiset, k: int | None = None) -> list[int]:
    """The forced constant when it is among `fairness_constant_candidates`,
    narrowed to k when one is requested: at most one constant.

    Membership is tested on the candidates' bounds, never by listing them,
    and an empty interval skips the elimination behind the forced constant.
    """
    low, high, pendant = constant_bounds(graph, labels)
    if low > high:
        return []
    forced = _forced_constant(graph, labels)
    if (
        forced is None
        or not low <= forced <= high
        or (pendant and forced not in labels.counts)
        or k not in (None, forced)
    ):
        return []
    return [forced]


def _constants(graph: Graph, labels: LabelMultiset, k: int | None) -> list[int]:
    """What a per-constant strategy decides: k itself, or else the forced
    constant when it is a candidate."""
    if k is not None:
        require_constant(k)
    if len(labels) != graph.vertex_count:
        raise InputError("label multiset size does not match the vertex count")
    if graph.vertex_count == 0 or graph.min_degree() == 0:
        raise InputError("solver requires a graph without isolated vertices")
    return [k] if k is not None else _candidates(graph, labels)


def _decide(constants: list[int], stats: SolveStats,
            decide: Callable[[int], SolveOutcome]) -> SolveOutcome:
    """The outcome at the one constant, if any, else unfair, under `stats`."""
    if not constants:
        return SolveOutcome.make_unfair(stats)
    (k,) = constants
    outcome = _adopt(stats, decide(k))
    stats.trace.append(f"k={k}: {outcome.verdict.value}")
    return outcome


@timed
def solve_auto(
    graph: Graph, labels: LabelMultiset, k: int | None = None
) -> SolveOutcome:
    """Dispatcher: screens, closed forms, then the cheapest exact strategy.

    The constant is settled up front: the forced one (`_forced_constant`),
    shared by every component, or none.  The surviving constant is handed to
    a single whole-graph strategy, which settles how the multiset splits
    across components as part of its own search.  A requested constant other
    than the forced one is unfair at once.
    """
    if len(labels) != graph.vertex_count:
        raise InputError("label multiset size does not match the vertex count")
    if k is not None:
        require_constant(k)

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
        candidates = _candidates(graph, labels, k)
        stats.trace.append(f"disjoint stars; candidates {candidates}")
        return _decide(candidates, stats, lambda k: solve_disjoint_stars(graph, labels, k))

    r = report.regular_degree
    if r is not None and r >= 1:
        stats.trace.append(f"regular graph of degree {r}")
        return _adopt(stats, solve_regular_fvs(graph, labels, k))

    candidates = _candidates(graph, labels, k)
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
    runner = {
        StrategyTag.ORACLE: solve_oracle,
        StrategyTag.VC_ALPHA: solve_vc_alpha,
        StrategyTag.FVS_ALPHA_DELTA: solve_fvs_alpha_delta,
    }[plan.tag]
    return _adopt(stats, runner(graph, labels, candidates[0]))
