"""Core model: graphs, label multisets, labelings, certificates, verification.

A labeling of a graph assigns every vertex a positive integer drawn from a
fixed multiset.  It is *fair* when every vertex sees the same total across its
(open) neighborhood; that shared total is the fairness constant.  Vertices
without neighbors contribute no constraint, so a graph with no edges at all is
fair vacuously.  `verify` is the single acceptance authority: every
certificate produced anywhere in the package must pass it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Sequence

# All neighborhood arithmetic must stay inside signed 64-bit range; rejecting
# multisets whose total reaches 2**62 leaves ample headroom for degree sums.
LABEL_SUM_LIMIT = 2**62

# Enumerating fairness-constant candidates materializes an integer range; a
# hostile label scale could make that range enormous, so refuse past this.
CANDIDATE_RANGE_LIMIT = 1_000_000


class FairnetError(Exception):
    """Base class for every error raised by this package."""


class InputError(FairnetError):
    """Malformed or out-of-contract input.  Distinct from an Unfair verdict."""


class RefusalError(FairnetError):
    """A solver declined to decide (node budget, timeout).  Never a verdict."""


class _Vacuous:
    """Singleton marker: the fairness condition holds with no constraints."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "VACUOUS"


VACUOUS = _Vacuous()


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Adjacency lists are sorted tuples without self-loops or duplicates and
    the instance is immutable after construction, so graphs hash and compare
    by structure.
    """

    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.adjacency)
        # per vertex, the vertices listing it, in increasing order
        transposed: list[list[int]] = [[] for _ in range(n)]
        for v, nbrs in enumerate(self.adjacency):
            prev = -1
            for u in nbrs:
                if not 0 <= u < n:
                    raise InputError(f"vertex {u} out of range in adjacency of {v}")
                if u == v:
                    raise InputError(f"self-loop at vertex {v}")
                if u <= prev:
                    raise InputError(f"adjacency of {v} not strictly increasing")
                prev = u
                transposed[u].append(v)
        # symmetric exactly when each list equals its transpose; only then
        # is the first one-sided edge searched for, to name it
        if any(tuple(listing) != nbrs for listing, nbrs in zip(transposed, self.adjacency)):
            for v, nbrs in enumerate(self.adjacency):
                for u in nbrs:
                    if v not in self.adjacency[u]:
                        raise InputError(f"edge ({v}, {u}) is not symmetric")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise InputError("vertex count must be non-negative")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop ({u}, {v}) rejected")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(tuple(tuple(sorted(s)) for s in nbrs))

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.vertex_count:
            raise InputError(f"vertex {v} out of range")
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adjacency)

    @cached_property
    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Vertex sets of the connected components, each sorted, ordered by minimum id."""
        seen = [False] * self.vertex_count
        components = []
        for start in range(self.vertex_count):
            if not seen[start]:
                seen[start] = True
                queue = [start]
                for v in queue:
                    for u in self.adjacency[v]:
                        if not seen[u]:
                            seen[u] = True
                            queue.append(u)
                components.append(tuple(sorted(queue)))
        return tuple(components)

    def edges(self) -> list[tuple[int, int]]:
        return [(v, u) for v in range(self.vertex_count) for u in self.adjacency[v] if v < u]

    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    def min_degree(self) -> int:
        return min(self.degrees, default=0)

    def regular_degree(self) -> int | None:
        """The common degree if the graph is regular, else None."""
        if self.vertex_count == 0:
            return None
        degs = set(self.degrees)
        return degs.pop() if len(degs) == 1 else None

    def is_edgeless(self) -> bool:
        return self.edge_count == 0

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph plus the sorted original ids of its vertices."""
        ids = tuple(sorted(set(vertices)))
        index = {old: new for new, old in enumerate(ids)}
        keep = set(ids)
        adj = tuple(
            tuple(index[u] for u in self.adjacency[old] if u in keep) for old in ids
        )
        return Graph(adj), ids


@dataclass(frozen=True)
class LabelMultiset:
    """Multiset of positive integer labels, stored as a sorted tuple."""

    values: tuple[int, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.values))
        object.__setattr__(self, "values", ordered)
        for x in ordered:
            if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                raise InputError(f"label {x!r} is not a positive integer")
        if sum(ordered) >= LABEL_SUM_LIMIT:
            raise InputError("label total exceeds the 64-bit safety bound")

    @classmethod
    def from_iterable(cls, values: Iterable[int]) -> "LabelMultiset":
        return cls(tuple(values))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def total(self) -> int:
        return sum(self.values)

    @cached_property
    def counts(self) -> Counter:
        return Counter(self.values)

    @cached_property
    def distinct_values(self) -> tuple[int, ...]:
        return tuple(sorted(self.counts))

    @property
    def alpha(self) -> int:
        """Number of distinct values."""
        return len(self.distinct_values)

    def multiplicity(self, value: int) -> int:
        return self.counts.get(value, 0)

    def contains(self, other: "LabelMultiset") -> bool:
        return all(self.counts.get(v, 0) >= c for v, c in other.counts.items())

    def minus(self, other: "LabelMultiset") -> "LabelMultiset":
        if not self.contains(other):
            raise InputError("cannot remove labels that are not present")
        diff = self.counts.copy()
        diff.subtract(other.counts)
        return LabelMultiset.from_iterable(
            v for v, c in diff.items() for _ in range(c)
        )

    def remove_copies(self, value: int, count: int) -> "LabelMultiset":
        if self.multiplicity(value) < count:
            raise InputError(f"fewer than {count} copies of {value} present")
        return self.minus(LabelMultiset.from_iterable([value] * count))


@dataclass(frozen=True)
class FairnessCertificate:
    """A concrete labeling together with its claimed fairness constant.

    `constant` is None exactly when the certified graph has no vertex with a
    neighbor, in which case fairness holds vacuously.
    """

    labels: tuple[int, ...]
    constant: int | None

    def __post_init__(self):
        if self.constant is not None and (isinstance(self.constant, bool) or self.constant < 1):
            raise InputError("fairness constant must be a positive integer")

    def check(self, graph: Graph, labels: "LabelMultiset") -> bool:
        """Re-verify this certificate from scratch."""
        try:
            result = verify(graph, labels, self.labels)
        except InputError:
            return False
        if result is None:
            return False
        if result is VACUOUS:
            return self.constant is None
        return result == self.constant


class Verdict(Enum):
    FAIR = "fair"
    UNFAIR = "unfair"


@dataclass
class SolveStats:
    """Deterministic solver effort counters plus a human-readable trace.

    strategy: the strategy that decided.  A named strategy records its own
    name; the dispatcher records the one it ran, or "auto" when its own
    screens and closed forms decided.
    """

    nodes: int = 0
    ilp_calls: int = 0
    trace: list[str] = field(default_factory=list)
    strategy: str = "auto"

    def absorb(self, other: "SolveStats") -> None:
        self.nodes += other.nodes
        self.ilp_calls += other.ilp_calls
        self.trace.extend(other.trace)


@dataclass
class SolveOutcome:
    """Verdict plus certificate; Fair if and only if the certificate verifies."""

    verdict: Verdict
    certificate: FairnessCertificate | None
    stats: SolveStats

    @property
    def fair(self) -> bool:
        return self.verdict is Verdict.FAIR

    @classmethod
    def make_fair(cls, certificate: FairnessCertificate, stats: SolveStats) -> "SolveOutcome":
        return cls(Verdict.FAIR, certificate, stats)

    @classmethod
    def make_unfair(cls, stats: SolveStats) -> "SolveOutcome":
        return cls(Verdict.UNFAIR, None, stats)


def neighborhood_sum(graph: Graph, labels: Sequence[int], v: int) -> int:
    """Sum of the labels over the open neighborhood of v (0 if v is isolated)."""
    if len(labels) != graph.vertex_count:
        raise InputError("labeling length does not match the vertex count")
    return sum(labels[u] for u in graph.neighbors(v))


def verify(graph: Graph, labels: LabelMultiset, assignment: Sequence[int]):
    """Check a labeling against a graph and label multiset.

    Returns the fairness constant when the assignment uses exactly the given
    multiset and all vertices with at least one neighbor share a common
    neighborhood sum.  Returns VACUOUS when the multiset matches but no vertex
    has a neighbor.  Returns None when the labeling is not fair.  A length
    mismatch is an input error, not a negative answer.
    """
    n = graph.vertex_count
    if len(assignment) != n:
        raise InputError("labeling length does not match the vertex count")
    if tuple(sorted(assignment)) != labels.values:
        return None
    constant = None
    for v in range(n):
        nbrs = graph.adjacency[v]
        if not nbrs:
            continue
        total = sum(assignment[u] for u in nbrs)
        if constant is None:
            constant = total
        elif total != constant:
            return None
    return VACUOUS if constant is None else constant


def require_constant(k: int) -> None:
    """Validate a candidate fairness constant; labels are positive, so k >= 1."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise InputError("candidate constant must be a positive integer")


def certified_outcome(graph: Graph, labels: LabelMultiset, assignment: Iterable[int],
                      k: int, stats: SolveStats) -> SolveOutcome:
    """Wrap a constructed labeling as a Fair outcome, re-verified from scratch.

    Solvers must never report Fair on their own authority; a labeling that
    fails verification here is an internal error, not an Unfair verdict.
    """
    cert = FairnessCertificate(tuple(assignment), k)
    if verify(graph, labels, cert.labels) != k:
        raise FairnetError("internal error: constructed labeling fails verification")
    return SolveOutcome.make_fair(cert, stats)


def constant_bounds(graph: Graph, labels: LabelMultiset) -> tuple[int, int, bool]:
    """(low, high, pendant): every fairness constant lies in [low, high],
    and is one of the label values when `pendant` is set."""
    n = graph.vertex_count
    if n == 0:
        raise InputError("candidate generation needs at least one vertex")
    if len(labels) != n:
        raise InputError("label multiset size does not match the vertex count")
    if graph.min_degree() == 0:
        raise InputError("candidate generation requires no isolated vertices")
    r = graph.regular_degree()
    if r is not None:
        total = r * labels.total()
        return (total // n, total // n, False) if total % n == 0 else (1, 0, False)
    vals = labels.values
    occurring = sorted(set(graph.degrees))
    low = max(sum(vals[:d]) for d in occurring)
    high = min(sum(vals[-d:]) for d in occurring)
    return low, high, occurring[0] == 1


def fairness_constant_candidates(graph: Graph, labels: LabelMultiset) -> list[int]:
    """Sound candidate set for the fairness constant; never excludes a valid one.

    Regular graphs admit exactly one possible constant, degree * total / n,
    because summing all neighborhood equations counts every label degree-many
    times.  A pendant vertex forces its neighbor's label to equal the
    constant, so the constant must be one of the label values.  In every case
    a neighborhood of d vertices carries between the d smallest and the d
    largest labels, which bounds the constant to an integer interval.
    """
    low, high, pendant = constant_bounds(graph, labels)
    if pendant:
        return [v for v in labels.distinct_values if low <= v <= high]
    if high - low + 1 > CANDIDATE_RANGE_LIMIT:
        raise RefusalError("candidate range too large to enumerate")
    return list(range(low, high + 1))
