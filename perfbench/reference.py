"""Correctness references that share no code with the timed solvers.

Everything here reads the instance text with its own parser and decides
with its own arithmetic.  The one exception is `reductions.brute_3partition`,
a validation oracle for the source problem that no solver calls.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from fairnet.reductions import BRUTE_3PARTITION_CAP, ThreePartitionInstance, brute_3partition


@dataclass(frozen=True)
class PlainInstance:
    """Vertex count, neighbor sets and label multiset, parsed independently."""

    n: int
    neighbors: tuple[frozenset[int], ...]
    labels: tuple[int, ...]


def parse_plain(text: str) -> PlainInstance:
    n = 0
    edges: list[tuple[int, int]] = []
    labels: list[int] = []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "vertices":
            n = int(parts[1])
        elif parts[0] == "edge":
            edges.append((int(parts[1]), int(parts[2])))
        elif parts[0] == "label":
            labels.extend([int(parts[1])] * int(parts[2]))
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return PlainInstance(n, tuple(frozenset(s) for s in nbrs), tuple(sorted(labels)))


def certificate_ok(inst: PlainInstance, cert: tuple[int, ...], constant: int | None) -> bool:
    """The labeling uses exactly the multiset and every non-isolated vertex
    sees `constant`; `constant` is None only when no vertex has a neighbor."""
    if len(cert) != inst.n or tuple(sorted(cert)) != inst.labels:
        return False
    sums = {sum(cert[u] for u in nb) for nb in inst.neighbors if nb}
    if not sums:
        return constant is None
    return sums == {constant}


def screen_proves_unfair(inst: PlainInstance) -> bool:
    """Sufficient conditions for unfairness, each proved from the equations.

    * An isolated vertex beside an edge: unfair by the package's documented
      convention (an isolated vertex sees 0, its constrained peers >= 1).
    * A degree-1 vertex v with neighbor u forces label(u) = K.  Every other
      neighbor w of u then sees K from u alone, so w has degree 1 as well:
      a component with a pendant vertex must be a star centred at u.
    * A vertex of degree d sees d distinct vertices' labels, so K lies
      between the sums of the d smallest and the d largest labels; the
      intervals of all occurring degrees must intersect.
    """
    degs = [len(nb) for nb in inst.neighbors]
    occurring = {d for d in degs if d > 0}
    if not occurring:
        return False
    if 0 in degs:
        return True
    for v, nb in enumerate(inst.neighbors):
        if degs[v] == 1:
            (u,) = nb
            if any(degs[w] != 1 for w in inst.neighbors[u]):
                return True
    low = max(sum(inst.labels[:d]) for d in occurring)
    high = min(sum(inst.labels[-d:]) for d in occurring)
    return low > high


def fair_labeling_exists(inst: PlainInstance, k: int, rotational: bool = False) -> bool:
    """Exhaustive search for a fair labeling with constant k (small graphs).

    With `rotational` the graph must be invariant under v -> v + 1 mod n
    (a circulant); some rotation of any fair labeling puts a smallest label
    on vertex 0, so only those labelings are searched.  Vertices take
    labels in id order.  After each step every neighbor of the
    labeled vertex must still be able to reach k: its unlabeled neighbors
    take at least the smallest and at most the largest labels left.  A
    neighbor with none left must see exactly k.
    """
    n = inst.n
    remaining = list(inst.labels)  # sorted
    partial = [0] * n
    pending = [len(nb) for nb in inst.neighbors]

    def reachable(u: int) -> bool:
        left = pending[u]
        low = partial[u] + sum(remaining[:left])
        high = partial[u] + sum(remaining[len(remaining) - left:]) if left else partial[u]
        return low <= k <= high

    def rec(i: int) -> bool:
        if i == n:
            return True
        nbrs = inst.neighbors[i]
        for pos in range(1 if rotational and i == 0 else len(remaining)):
            value = remaining[pos]
            if pos and remaining[pos - 1] == value:
                continue
            del remaining[pos]
            for u in nbrs:
                partial[u] += value
                pending[u] -= 1
            if all(reachable(u) for u in nbrs) and rec(i + 1):
                return True
            for u in nbrs:
                partial[u] -= value
                pending[u] += 1
            remaining.insert(pos, value)
        return False

    return rec(0)


def semimagic_fair(entries: tuple[int, ...]) -> bool:
    """Fairness of the 3x3 equal-line-sums instance built from `entries`.

    Cell (i, j) sees row i and column j, so all row vertices share a label a
    and all column vertices a label b with a + b = K.  Each line vertex sees
    its three cells, so the other nine labels must fill a grid whose rows
    and columns all sum to K.  The instance's multiset is the entries plus
    (K0 - 1, 1) three times each, where K0 = sum(entries) // 3.
    """
    k0 = sum(entries) // 3
    multiset = Counter(entries) + Counter({k0 - 1: 3}) + Counter({1: 3})
    values = sorted(multiset)
    for ai, a in enumerate(values):
        for b in values[ai:]:
            need = Counter({a: 3}) + Counter({b: 3})
            if any(multiset[x] < c for x, c in need.items()):
                continue
            rest = multiset - need
            if 3 * (a + b) == sum(rest.elements()) and _grid_exists(rest, a + b):
                return True
    return False


def _grid_exists(cells: Counter, k: int) -> bool:
    rows = [0, 0, 0]
    cols = [0, 0, 0]
    remaining = Counter(cells)

    def rec(pos: int) -> bool:
        if pos == 9:
            return True
        i, j = divmod(pos, 3)
        for value in sorted(remaining):
            if remaining[value] == 0:
                continue
            if rows[i] + value > k or cols[j] + value > k:
                continue
            if j == 2 and rows[i] + value != k:
                continue
            if i == 2 and cols[j] + value != k:
                continue
            remaining[value] -= 1
            rows[i] += value
            cols[j] += value
            if rec(pos + 1):
                return True
            remaining[value] += 1
            rows[i] -= value
            cols[j] -= value
        return False

    return rec(0)


def three_partition_exists(values: tuple[int, ...], m: int) -> bool:
    """Equal-sum split of 3m values into m triples.

    Uses the package's validation oracle `brute_3partition` within its
    12-value cap, and beyond it a search that always places the largest
    value left together with two smaller ones.
    """
    if len(values) <= BRUTE_3PARTITION_CAP:
        return brute_3partition(ThreePartitionInstance(values, m))[0]
    total = sum(values)
    if total % m:
        return False
    target = total // m
    remaining = Counter(values)

    def rec() -> bool:
        live = [v for v in sorted(remaining) if remaining[v]]
        if not live:
            return True
        anchor = live[-1]
        remaining[anchor] -= 1
        for b in sorted(remaining, reverse=True):
            if b > anchor or remaining[b] == 0:
                continue
            c = target - anchor - b
            if c < 1 or c > b:
                continue
            remaining[b] -= 1
            if remaining[c] > 0:
                remaining[c] -= 1
                if rec():
                    return True
                remaining[c] += 1
            remaining[b] += 1
        remaining[anchor] += 1
        return False

    return rec()

