"""Decision procedures: exhaustive oracle, parameterized solvers, dispatcher.

All solvers are exact on their stated domain and report Fair only through
a re-verified certificate.  Resource limits surface as RefusalError, never
as a verdict.  The oracle and the two enumerating strategies (vc-alpha,
fvs-alpha-delta) each build tables for the one ordered search in
`search.ordered_search`, which refuses past its node budget.  Without a
requested constant they decide the one constant a fair labeling can have:
if A x = 1 on each component, the multiset sums to 1^T l = x^T A l =
K 1^T x, so K = sum(S) / sum_C s_C (`_forced_constant`).  The oracle returns the
lexicographically smallest fair labeling.  With the constant known it
labels only the free vertices of A l = K 1: the elimination behind the
forced constant fixes every pivot vertex's label from K and the labels
before it, and the forest-boundary enumeration of fvs-alpha-delta does the
same in its own labeling order, from the one elimination that also gives
its forced constant.  Where two or more positions are free, the oracle
breaks symmetry with the smallest labeling: for an automorphism s, l o s
is fair whenever l is, so that labeling gives vertex 0 the smallest label
of its orbit (the lex-leader rule), and the orbit's vertices are floored
at vertex 0's label.  The dispatcher adds the screens and the closed forms
(disjoint stars, disjoint cycles), sends the other regular graphs to the
oracle, and hands the constant to the strategy it picks, recording its
name in the outcome's stats; each named strategy records its own name.
`solve_regular_fvs` and `solve_vc_delta` are names for the dispatcher on a
regular graph and for the oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

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
)
from .search import ENUMERATION_CAP, SearchTables, neighborhood_tables, ordered_search
from .special import (
    _solve_cycles,
    enumerate_boundary_extensions,
    forest_plan,
    solve_disjoint_stars,
)
from .structure import (
    Elimination,
    Shape,
    ShapeReport,
    classify,
    component_weights,
    eliminate,
    feedback_vertex_set_number,
    first_vertex_orbit,
    minimum_feedback_vertex_set,
    minimum_vertex_cover,
    twin_classes,
    vertex_cover_number,
)

# placements per twin class the oracle's automorphism search may make
ORBIT_NODE_BUDGET = 64
# exact fvs/vc are only attempted below this vertex count
EXACT_PARAM_LIMIT = 32

# each connected component C with its s_C (`component_weights`)
_Weights = Sequence[tuple[tuple[int, ...], Fraction | None]]


class StrategyTag(Enum):
    ORACLE = "oracle"
    FVS_ALPHA_DELTA = "fvs-alpha-delta"
    VC_ALPHA = "vc-alpha"
    AUTO = "auto"


@dataclass(frozen=True)
class SolverChoice:
    """The structural parameters `fairnet solve` reports.

    fvs and vc are exact minimum sizes, reported as None when the graph is
    too large for exact computation.  regular is the common degree or None.
    """

    fvs: int | None
    vc: int | None
    alpha: int
    delta: int
    regular: int | None


def _vacuous_outcome(labels: LabelMultiset, stats: SolveStats) -> SolveOutcome:
    cert = FairnessCertificate(labels.values, None)
    return SolveOutcome.make_fair(cert, stats)


def _oracle_tables(graph: Graph, elimination: Elimination) -> SearchTables:
    """Exhaustive search over label assignments, pruned by symmetry and by
    the linear system A l = K 1.

    Vertices are labeled in id order, values tried in ascending order, so the
    first completion is the lexicographically smallest fair assignment, and
    a restriction that this assignment obeys loses no verdict.  Within a
    false-twin class labels are required to be non-decreasing by vertex id:
    sorting inside a class preserves fairness and never increases the
    assignment vector.  True twins must agree exactly.  For an automorphism
    s, l o s is fair whenever l is, so the smallest l has l(0) <= l(s(0)):
    every vertex of vertex 0's orbit (`first_vertex_orbit`, a backtracking
    search on the twin quotient) takes a label no smaller than vertex 0's.
    Outside vertex 0's twin class that is a
    floor on each class's first vertex; the twin ties carry it to the rest.
    A vertex whose label the ties hold below h later labels leaves h copies
    at or above it: vertex 0 takes at most the |orbit|-th largest label.
    Every vertex whose neighborhood is fully labeled must see K exactly;
    partially labeled neighborhoods prune via min/max completions.  Each
    pivot vertex of the elimination gets its `PivotMap`: it involves
    only vertices with lower ids, so with K known the pivot's label is
    fixed when it is reached, and only free vertices are searched.  Two
    fair labelings first differ at a free vertex, so the first one found is
    still the smallest.  The orbit is computed only when the elimination
    leaves two or more free positions: with one, the search is one loop
    over at most alpha values, each followed by forced pivots, where the
    floors, which only cut labelings that are not the smallest, save less
    than the orbit costs.
    """
    part = twin_classes(graph)
    ties: list[tuple[int, bool] | None] = [None] * graph.vertex_count
    for cls in part.classes:
        for a, b in zip(cls.vertices, cls.vertices[1:]):
            ties[b] = (a, cls.true_twin)
    if graph.vertex_count - len(elimination.pivots) >= 2:
        own = part.classes[0].vertices if part.classes else ()
        for v in first_vertex_orbit(graph, part, ORBIT_NODE_BUDGET):
            if ties[v] is None and v not in own:
                ties[v] = (0, False)
    held = [0] * graph.vertex_count
    for tie in ties:
        while tie is not None:
            held[tie[0]] += 1
            tie = ties[tie[0]]
    pivots = elimination.pivots
    return SearchTables(
        tuple(range(graph.vertex_count)), graph.adjacency, graph.degrees,
        ties=ties, held=held, maps=tuple(pivots.get(v) for v in range(graph.vertex_count)),
    )


def solve_oracle(graph: Graph, labels: LabelMultiset, k: int | None = None) -> SolveOutcome:
    """Exhaustive exact decision; canonically first certificate.

    Searches the requested constant, or else the forced one
    (`_forced_constant`), the only constant a fair labeling can have; one
    elimination serves that constant and the pivot maps.  Refuses (rather
    than guessing) when the search passes its node budget.
    """
    if len(labels) != graph.vertex_count:
        raise InputError("label multiset size does not match the vertex count")
    if k is not None:
        require_constant(k)
    stats = SolveStats(strategy=StrategyTag.ORACLE.value)
    if graph.is_edgeless():
        return _vacuous_outcome(labels, stats)
    if graph.min_degree() == 0:
        # an isolated vertex sees 0 while its constrained peers see >= 1
        stats.trace.append("isolated vertex next to constrained vertices")
        return SolveOutcome.make_unfair(stats)
    elimination = eliminate(graph)
    if k is None:
        k = _forced_constant(graph, labels, elimination.weights)
        if k is None:
            stats.trace.append("no fairness constant")
            return SolveOutcome.make_unfair(stats)
    return _oracle_search(graph, labels, k, elimination)


def _oracle_search(graph: Graph, labels: LabelMultiset, k: int,
                   elimination: Elimination) -> SolveOutcome:
    """The oracle's search at k on the graph's elimination in id order,
    which `solve_auto` hands over from its forced constant."""
    stats = SolveStats(strategy=StrategyTag.ORACLE.value)
    tables = _oracle_tables(graph, elimination)
    for assignment in ordered_search(tables, labels, stats, k):
        return certified_outcome(graph, labels, assignment, k, stats)
    return SolveOutcome.make_unfair(stats)


def oracle_constants(graph: Graph, labels: LabelMultiset) -> list[int]:
    """Every constant realized by some fair labeling: the forced one
    (`_forced_constant`, the only one a fair labeling can have) when the
    oracle finds a fair labeling.

    Empty when the graph is unfair for the multiset; also empty for edgeless
    graphs, whose fairness carries no integer constant.
    """
    outcome = solve_oracle(graph, labels)
    if graph.is_edgeless() or not outcome.fair:
        return []
    return [outcome.certificate.constant]


def solve_vc_delta(
    graph: Graph, labels: LabelMultiset, k: int | None = None
) -> SolveOutcome:
    """Named pass-through strategy: the vertex count is at most vc * delta
    whenever no vertex is isolated, so exhaustive search is the bounded
    brute force.  Delegates to the oracle."""
    return solve_oracle(graph, labels, k)


def _pendant_screen(graph: Graph, stats: SolveStats, report: ShapeReport) -> bool:
    """True when some component has a pendant vertex but is not a star.

    Such a component admits no fair labeling at all: a pendant vertex's
    equation forces its neighbor's label to the constant, and propagating
    that around a connected non-star component always collides.
    """
    for comp, kind in zip(report.components, report.component_kinds):
        if kind == "tree" or (
            kind == "general" and any(graph.degree(v) == 1 for v in comp)
        ):
            stats.trace.append(
                f"component {comp[0]}..: pendant vertex in a non-star component"
            )
            return True
    return False


def solve_fvs_alpha_delta(
    graph: Graph, labels: LabelMultiset, k: int | None = None
) -> SolveOutcome:
    """Decision via feedback-vertex-set boundary enumeration.

    Star components are split off and settled by the counting program; the
    rest is decided by enumerating labels over the feedback set plus the
    forest leaves, forcing all interior forest labels and the boundary's
    pivot labels of A l = K 1, and keeping exactly the assignments that
    satisfy every equation with leftover labels for the stars.  The
    requested constant, or else the forced one, is decided.  One
    elimination of the non-star part, in the boundary's order, gives both
    the pivot maps and the forced constant: s_C does not depend on the
    order, and a star component has s_C = 2.
    """
    _require_instance(graph, labels, k)
    stats = SolveStats(strategy=StrategyTag.FVS_ALPHA_DELTA.value)
    if not graph.vertex_count:
        return _vacuous_outcome(labels, stats)
    report = classify(graph)
    rest = _non_star_vertices(report)
    elimination = weights = None
    if rest and len(rest) <= EXACT_PARAM_LIMIT:
        g1, ids1, fvs, forest, boundary = _non_star_part(graph, rest)
        elimination = eliminate(g1, boundary)
        found = iter(elimination.weights)
        weights = [
            (comp, Fraction(2) if kind == "star" else next(found)[1])
            for comp, kind in zip(report.components, report.component_kinds)
        ]
    constants = [k] if k is not None else _candidates(graph, labels, weights=weights)[0]
    if not constants or _pendant_screen(graph, stats, report):
        return SolveOutcome.make_unfair(stats)
    if not rest:
        return _decide(constants, stats, lambda k: solve_disjoint_stars(graph, labels, k))
    if elimination is None:
        raise RefusalError(
            f"non-star part has {len(rest)} vertices; exact feedback"
            f" vertex sets are limited to {EXACT_PARAM_LIMIT}"
        )
    star_part = set(range(graph.vertex_count)).difference(ids1)
    g2, ids2 = graph.induced(star_part) if star_part else (None, ())
    stats.trace.append(f"fvs size {len(fvs)} on the non-star part")

    def decide(k: int) -> SolveOutcome:
        sub = SolveStats()
        extensions = enumerate_boundary_extensions(
            g1, forest, labels, k, extra_boundary=fvs, stats=sub, elimination=elimination,
        )
        for merged in extensions:
            star_labels: tuple[int, ...] = ()
            if g2 is not None:
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


def solve_vc_alpha(
    graph: Graph, labels: LabelMultiset, k: int | None = None
) -> SolveOutcome:
    """Decision via vertex-cover labeling plus a counting program.

    Enumerates labelings of a minimum vertex cover.  Vertices outside the
    cover form an independent set, so each one's equation reads entirely off
    the cover labels and is checked during enumeration, grouped by identical
    neighborhoods; each cover vertex's equation is checked too, its
    independent neighbors pending.  Every equation is checked as each of its
    cover inputs is labeled, against the min/max completion of the rest.
    What remains per cover labeling is how many vertices of each class take
    each distinct value: class sizes, leftover multiplicities and the cover
    equations (cover-side adjacency contributes its fixed sum) form an
    integer feasibility program.  The requested constant, or else the forced
    one, is decided.
    """
    _require_instance(graph, labels, k)
    stats = SolveStats(strategy=StrategyTag.VC_ALPHA.value)
    if not graph.vertex_count:
        return _vacuous_outcome(labels, stats)
    constants = [k] if k is not None else _candidates(graph, labels)[0]
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
    # per cover vertex with independent neighbors: those classes, and the
    # cover-side neighbors whose labels leave the rest of its constant
    cover_rows = []
    for v in cover:
        adjacent = [i for i, (nbrs, _members) in enumerate(class_list) if v in nbrs]
        if adjacent:
            cover_rows.append((adjacent, tuple(u for u in graph.adjacency[v] if u in cover_set)))
    one_each = {value: {value: 1} for value in labels.distinct_values}
    allocation = Allocation(
        [(len(members), one_each) for _nbrs, members in class_list],
        [adjacent for adjacent, _ in cover_rows],
    )
    # a class's first member's equation stands for the whole class
    tables = neighborhood_tables(
        graph, cover, cover_set.union(members[0] for _nbrs, members in class_list)
    )

    def decide(k: int) -> SolveOutcome:
        sub = SolveStats()
        for values in ordered_search(tables, labels, sub, k):
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


def solve_regular_fvs(
    graph: Graph, labels: LabelMultiset, k: int | None = None
) -> SolveOutcome:
    """Named entry for regular graphs of positive degree, decided by
    `solve_auto`: its closed forms for matchings (disjoint stars) and
    unions of cycles, else the oracle at the forced constant r * sum / n."""
    r = graph.regular_degree()
    if r is None or r < 1:
        raise InputError("solver requires a regular graph of positive degree")
    return solve_auto(graph, labels, k)


@dataclass(frozen=True)
class _GeneralPlan:
    tag: StrategyTag
    vc_size: int | None
    boundary_size: int | None
    est_vc: int | None
    est_fvs: int | None


def _non_star_vertices(report: ShapeReport) -> list[int]:
    """The vertices outside the star components, in id order."""
    return [
        v
        for comp, kind in zip(report.components, report.component_kinds)
        if kind != "star"
        for v in comp
    ]


def _non_star_part(
    graph: Graph, rest: list[int]
) -> tuple[Graph, tuple[int, ...], tuple[int, ...], list[int], list[int]]:
    """The subgraph induced on the non-star vertices `rest` (the graph itself
    when that is all), the ids of its vertices in `graph`, and in the
    subgraph's ids its minimum feedback vertex set, the forest that set
    leaves, and the boundary fvs-alpha-delta labels: the set plus the
    forest's leaves, sorted."""
    whole = len(rest) == graph.vertex_count
    part, ids = (graph, tuple(range(len(rest)))) if whole else graph.induced(rest)
    fvs = minimum_feedback_vertex_set(part)
    in_fvs = set(fvs)
    forest = [v for v in range(part.vertex_count) if v not in in_fvs]
    leaves = forest_plan(part, forest)[1]  # and N(F), which the set holds
    return part, ids, fvs, forest, sorted(in_fvs.union(leaves))


def _plan_general(graph: Graph, labels: LabelMultiset, report: ShapeReport) -> _GeneralPlan:
    """Pick between the two enumeration strategies by nominal search size."""
    if graph.vertex_count > EXACT_PARAM_LIMIT:
        return _GeneralPlan(StrategyTag.ORACLE, None, None, None, None)
    alpha = labels.alpha
    boundary = len(_non_star_part(graph, _non_star_vertices(report))[4])
    vc = vertex_cover_number(graph)
    est_vc = alpha ** vc
    est_fvs = alpha ** boundary
    if min(est_vc, est_fvs) > ENUMERATION_CAP:
        return _GeneralPlan(StrategyTag.ORACLE, vc, boundary, est_vc, est_fvs)
    tag = StrategyTag.VC_ALPHA if est_vc <= est_fvs else StrategyTag.FVS_ALPHA_DELTA
    return _GeneralPlan(tag, vc, boundary, est_vc, est_fvs)


def parameter_report(graph: Graph, labels: LabelMultiset) -> SolverChoice:
    """The structural parameters of the instance, from size-only searches.

    Nothing here re-plans: the strategy `solve_auto` ran is the
    `strategy` of its outcome's stats.
    """
    if len(labels) != graph.vertex_count:
        raise InputError("label multiset size does not match the vertex count")
    exact = 0 < graph.vertex_count <= EXACT_PARAM_LIMIT
    return SolverChoice(
        feedback_vertex_set_number(graph) if exact else None,
        vertex_cover_number(graph) if exact else None,
        labels.alpha,
        graph.max_degree(),
        graph.regular_degree(),
    )


def _adopt(stats: SolveStats, sub: SolveOutcome) -> SolveOutcome:
    """The delegate's verdict under the caller's stats, which absorb its
    effort and keep their own strategy."""
    stats.absorb(sub.stats)
    return SolveOutcome(sub.verdict, sub.certificate, stats)


def _forced_constant(graph: Graph, labels: LabelMultiset,
                     weights: _Weights | None = None) -> int | None:
    """The one constant a fair labeling can have, or None when there is none.

    A fair labeling with constant K gives each component C the label sum
    K s_C (`component_weights`), so the multiset's sum is K times the sum of
    the s_C.  K must therefore be that quotient, a positive integer, and each
    K s_C an integer that some |C| labels can sum to: between the sums of
    the |C| smallest and the |C| largest.  A component of degree r has
    s_C = |C| / r, which gives the regular graphs' r * sum / n.  The
    components' weights are computed unless given.
    """
    if weights is None:
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


def _candidates(graph: Graph, labels: LabelMultiset, k: int | None = None,
                weights: _Weights | None = None) -> tuple[list[int], Elimination | None]:
    """The forced constant when it is among `fairness_constant_candidates`,
    narrowed to k when one is requested: at most one constant; and the
    graph's elimination in id order when this call made one.

    Membership is tested on the candidates' bounds, never by listing them,
    and an empty interval skips the elimination behind the forced constant.
    The components' weights are computed unless given.
    """
    low, high, pendant = constant_bounds(graph, labels)
    if low > high:
        return [], None
    elimination = None if weights else eliminate(graph)
    forced = _forced_constant(graph, labels, weights or elimination.weights)
    if (
        forced is None
        or not low <= forced <= high
        or (pendant and forced not in labels.counts)
        or k not in (None, forced)
    ):
        return [], elimination
    return [forced], elimination


def _require_instance(graph: Graph, labels: LabelMultiset, k: int | None) -> None:
    """The input checks of a per-constant strategy, which decides k itself,
    or else the forced constant when it is a candidate.  The graph with no
    vertices passes: it is vacuously fair, as under every strategy."""
    if k is not None:
        require_constant(k)
    if len(labels) != graph.vertex_count:
        raise InputError("label multiset size does not match the vertex count")
    if graph.vertex_count and graph.min_degree() == 0:
        raise InputError("solver requires a graph without isolated vertices")


def _decide(constants: list[int], stats: SolveStats,
            decide: Callable[[int], SolveOutcome]) -> SolveOutcome:
    """The outcome at the one constant, if any, else unfair, under `stats`."""
    if not constants:
        return SolveOutcome.make_unfair(stats)
    (k,) = constants
    outcome = _adopt(stats, decide(k))
    stats.trace.append(f"k={k}: {outcome.verdict.value}")
    return outcome


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
    if _pendant_screen(graph, stats, report):
        return SolveOutcome.make_unfair(stats)

    if report.shape is Shape.DISJOINT_STARS:
        candidates = _candidates(graph, labels, k)[0]
        stats.trace.append(f"disjoint stars; candidates {candidates}")
        return _decide(candidates, stats, lambda k: solve_disjoint_stars(graph, labels, k))

    if report.shape is Shape.DISJOINT_CYCLES:
        candidates = _candidates(graph, labels, k)[0]
        stats.trace.append(f"disjoint cycles; candidates {candidates}")
        return _decide(
            candidates, stats, lambda k: _solve_cycles(graph, labels, k, SolveStats())
        )

    if report.shape is Shape.REGULAR:
        # degree >= 3; the bounds are the one constant r * sum / n, or empty
        low, high, _ = constant_bounds(graph, labels)
        regular = f"regular graph of degree {report.regular_degree}"
        if low > high or k not in (None, low):
            stats.trace.append(f"{regular}: no fairness constant")
            return SolveOutcome.make_unfair(stats)
        stats.trace.append(f"{regular}, constant {low}: strategy oracle")
        stats.strategy = StrategyTag.ORACLE.value
        return _adopt(stats, solve_oracle(graph, labels, k))

    candidates, elimination = _candidates(graph, labels, k)
    stats.trace.append(f"candidates {candidates}")
    if not candidates:
        return SolveOutcome.make_unfair(stats)

    plan = _plan_general(graph, labels, report)
    stats.trace.append(
        f"strategy {plan.tag.value}"
        + (
            f" (vc {plan.vc_size}, boundary {plan.boundary_size},"
            f" est {plan.est_vc}/{plan.est_fvs})"
            if plan.vc_size is not None
            else ""
        )
    )
    stats.strategy = plan.tag.value
    if plan.tag is StrategyTag.ORACLE:
        return _adopt(stats, _oracle_search(graph, labels, candidates[0], elimination))
    runner = solve_vc_alpha if plan.tag is StrategyTag.VC_ALPHA else solve_fvs_alpha_delta
    return _adopt(stats, runner(graph, labels, candidates[0]))
