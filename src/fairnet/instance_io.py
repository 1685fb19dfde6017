"""Line-oriented text format for instances and certificates.

A document is UTF-8 text whose first significant line is the header
``fairnet v1``.  Remaining lines, in any order:

    vertices N
    edge u v
    label value count
    k value
    meta key value
    cert l0 l1 ... lN-1
    cert_k value

Blank lines and lines starting with ``#`` are ignored.  ``write_instance``
emits a canonical form (sorted edges, ascending label values, sorted meta
keys, fixed section order), so reading and rewriting any document is
idempotent and generator output is byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .model import FairnessCertificate, Graph, InputError, LabelMultiset

HEADER = "fairnet v1"


@dataclass
class Instance:
    """A parsed document; unpacks as (graph, labels, k, metadata, certificate).

    `certificate_valid` is None without a certificate, otherwise the result
    of re-verifying it against the graph and labels.  Loading never trusts a
    stored verdict: a bad certificate still loads, with the flag cleared.
    """

    graph: Graph
    labels: LabelMultiset
    k: int | None = None
    metadata: dict[str, str] = field(default_factory=dict)
    certificate: FairnessCertificate | None = None
    certificate_valid: bool | None = None

    def __iter__(self) -> Iterator:
        yield self.graph
        yield self.labels
        yield self.k
        yield self.metadata
        yield self.certificate


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise InputError(f"line {lineno}: expected an integer, got {token!r}") from None


def read_instance(text: str) -> Instance:
    """Parse a document, validating structure and re-verifying any certificate."""
    directives: list[tuple[int, str, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        directives.append((lineno, parts[0], parts[1:]))
    if not directives:
        raise InputError("line 1: missing header")
    lineno, keyword, args = directives[0]
    if f"{keyword} {' '.join(args)}" != HEADER:
        raise InputError(f"line {lineno}: expected header {HEADER!r}")

    vertex_count: int | None = None
    edges: list[tuple[int, int]] = []
    edge_lines: list[int] = []
    label_counts: dict[int, int] = {}
    k: int | None = None
    metadata: dict[str, str] = {}
    cert_labels: tuple[int, ...] | None = None
    cert_k: int | None = None

    for lineno, keyword, args in directives[1:]:
        if keyword == "vertices":
            if vertex_count is not None:
                raise InputError(f"line {lineno}: duplicate vertices directive")
            if len(args) != 1:
                raise InputError(f"line {lineno}: vertices takes one argument")
            vertex_count = _parse_int(args[0], lineno)
            if vertex_count < 0:
                raise InputError("vertices: count must be nonnegative")
        elif keyword == "edge":
            if len(args) != 2:
                raise InputError(f"line {lineno}: edge takes two arguments")
            u = _parse_int(args[0], lineno)
            v = _parse_int(args[1], lineno)
            edges.append((u, v))
            edge_lines.append(lineno)
        elif keyword == "label":
            if len(args) != 2:
                raise InputError(f"line {lineno}: label takes two arguments")
            value = _parse_int(args[0], lineno)
            count = _parse_int(args[1], lineno)
            if value < 1:
                raise InputError("label: values must be positive integers")
            if count < 1:
                raise InputError("label: counts must be positive integers")
            if value in label_counts:
                raise InputError(f"label: duplicate entry for value {value}")
            label_counts[value] = count
        elif keyword == "k":
            if k is not None:
                raise InputError(f"line {lineno}: duplicate k directive")
            if len(args) != 1:
                raise InputError(f"line {lineno}: k takes one argument")
            k = _parse_int(args[0], lineno)
            if k < 1:
                raise InputError("k: target constant must be a positive integer")
        elif keyword == "meta":
            if len(args) < 2:
                raise InputError(f"line {lineno}: meta takes a key and a value")
            key = args[0]
            if key in metadata:
                raise InputError(f"meta: duplicate key {key!r}")
            metadata[key] = " ".join(args[1:])
        elif keyword == "cert":
            if cert_labels is not None:
                raise InputError(f"line {lineno}: duplicate cert directive")
            cert_labels = tuple(_parse_int(tok, lineno) for tok in args)
            for value in cert_labels:
                if value < 1:
                    raise InputError("cert: labels must be positive integers")
        elif keyword == "cert_k":
            if cert_k is not None:
                raise InputError(f"line {lineno}: duplicate cert_k directive")
            if len(args) != 1:
                raise InputError(f"line {lineno}: cert_k takes one argument")
            cert_k = _parse_int(args[0], lineno)
            if cert_k < 1:
                raise InputError("cert_k: constant must be a positive integer")
        else:
            raise InputError(f"line {lineno}: unknown directive {keyword!r}")

    if vertex_count is None:
        raise InputError("vertices: directive is required")
    seen: set[tuple[int, int]] = set()
    for (u, v), lineno in zip(edges, edge_lines):
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise InputError(f"line {lineno}: edge endpoint out of range")
        if u == v:
            raise InputError(f"line {lineno}: self-loops are not allowed")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise InputError(f"line {lineno}: duplicate edge {key[0]} {key[1]}")
        seen.add(key)
    graph = Graph.from_edges(vertex_count, edges)

    # compare before expanding: a count can be far too large to materialize
    label_total = sum(label_counts.values())
    if label_total != vertex_count:
        raise InputError(
            f"label: multiset has {label_total} values for {vertex_count} vertices"
        )
    labels = LabelMultiset.from_iterable(
        value for value in sorted(label_counts) for _ in range(label_counts[value])
    )

    certificate = None
    certificate_valid = None
    if cert_labels is not None:
        if len(cert_labels) != vertex_count:
            raise InputError(
                f"cert: {len(cert_labels)} labels for {vertex_count} vertices"
            )
        certificate = FairnessCertificate(cert_labels, cert_k)
        certificate_valid = certificate.check(graph, labels)
    elif cert_k is not None:
        raise InputError("cert_k: present without a cert line")

    return Instance(graph, labels, k, metadata, certificate, certificate_valid)


def write_instance(instance: Instance) -> str:
    """Serialize to canonical text; read_instance inverts this exactly."""
    graph = instance.graph
    lines = [HEADER, f"vertices {graph.vertex_count}"]
    for u, v in sorted(tuple(sorted(e)) for e in graph.edges()):
        lines.append(f"edge {u} {v}")
    for value in instance.labels.distinct_values:
        lines.append(f"label {value} {instance.labels.counts[value]}")
    if instance.k is not None:
        lines.append(f"k {instance.k}")
    for key in sorted(instance.metadata):
        lines.append(f"meta {key} {instance.metadata[key]}")
    if instance.certificate is not None:
        lines.append("cert " + " ".join(str(v) for v in instance.certificate.labels))
        if instance.certificate.constant is not None:
            lines.append(f"cert_k {instance.certificate.constant}")
    return "\n".join(lines) + "\n"
