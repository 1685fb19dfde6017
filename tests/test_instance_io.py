import pytest

from fairnet import (
    FairnessCertificate,
    Graph,
    InputError,
    Instance,
    LabelMultiset,
    ThreePartitionInstance,
    XsatFormula,
    certificate_from_xsat_assignment,
    gen_3partition_stars,
    gen_circulant,
    gen_xsat,
    read_instance,
    write_instance,
)

C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
C4_LABELS = LabelMultiset.from_iterable((1, 2, 3, 4))

C4_TEXT = """fairnet v1
vertices 4
edge 0 1
edge 0 3
edge 1 2
edge 2 3
label 1 1
label 2 1
label 3 1
label 4 1
"""


class TestRoundTrip:
    def test_write_canonical(self):
        assert write_instance(Instance(C4, C4_LABELS)) == C4_TEXT

    def test_read_write_idempotent(self):
        inst = read_instance(C4_TEXT)
        assert inst.graph == C4
        assert inst.labels == C4_LABELS
        assert inst.k is None and inst.metadata == {}
        assert inst.certificate is None and inst.certificate_valid is None
        assert write_instance(inst) == C4_TEXT

    def test_messy_input_normalizes(self):
        messy = "\n".join(
            [
                "# leading comment",
                "",
                "  fairnet v1  ",
                "label 4 1",
                "edge 3 0",
                "meta zeta last",
                "k 5",
                "edge 2   1",
                "vertices 4",
                "label 3 1",
                "# noise",
                "edge 1 0",
                "meta alpha first word kept whole",
                "label 1 1",
                "edge 3 2",
                "label 2 1",
                "cert 1 3 2 4",
            ]
        )
        inst = read_instance(messy)
        assert inst.k == 5
        assert inst.metadata == {
            "alpha": "first word kept whole",
            "zeta": "last",
        }
        # (1,3,2,4) on C4 has unequal sums, so the flag clears on load
        assert inst.certificate == FairnessCertificate((1, 3, 2, 4), None)
        assert inst.certificate_valid is False
        canonical = write_instance(inst)
        assert read_instance(canonical) == inst
        assert write_instance(read_instance(canonical)) == canonical

    def test_valid_certificate_flag(self):
        text = C4_TEXT + "cert 1 2 4 3\ncert_k 5\n"
        inst = read_instance(text)
        assert inst.certificate_valid is True
        assert inst.certificate.constant == 5
        assert write_instance(inst) == text

    def test_vacuous_certificate(self):
        text = "fairnet v1\nvertices 2\nlabel 3 1\nlabel 7 1\ncert 7 3\n"
        inst = read_instance(text)
        assert inst.certificate_valid is True
        assert inst.certificate.constant is None

    def test_missing_cert_k_on_constrained_graph(self):
        text = C4_TEXT + "cert 1 2 4 3\n"
        assert read_instance(text).certificate_valid is False

    def test_unpacking(self):
        graph, labels, k, metadata, certificate = read_instance(C4_TEXT)
        assert graph == C4 and labels == C4_LABELS
        assert k is None and metadata == {} and certificate is None


class TestErrors:
    def assert_rejects(self, text: str, fragment: str):
        with pytest.raises(InputError, match=fragment):
            read_instance(text)

    def test_header(self):
        self.assert_rejects("", "missing header")
        self.assert_rejects("# only comments\n\n", "missing header")
        self.assert_rejects("vertices 2\nfairnet v1\n", "expected header")
        self.assert_rejects("fairnet v2\nvertices 0\n", "expected header")

    def test_vertices(self):
        self.assert_rejects("fairnet v1\n", "vertices")
        self.assert_rejects("fairnet v1\nvertices 2\nvertices 2\n", "duplicate")
        self.assert_rejects("fairnet v1\nvertices -1\n", "nonnegative")
        self.assert_rejects("fairnet v1\nvertices 1 2\n", "one argument")

    def test_edges(self):
        base = "fairnet v1\nvertices 3\nlabel 1 3\n"
        self.assert_rejects(base + "edge 0 0\n", "self-loop")
        self.assert_rejects(base + "edge 0 3\n", "out of range")
        self.assert_rejects(base + "edge 0 1\nedge 1 0\n", "duplicate edge")
        self.assert_rejects(base + "edge 0\n", "two arguments")

    def test_labels(self):
        self.assert_rejects("fairnet v1\nvertices 1\nlabel 0 1\n", "positive")
        self.assert_rejects("fairnet v1\nvertices 1\nlabel 2 0\n", "positive")
        self.assert_rejects(
            "fairnet v1\nvertices 2\nlabel 2 1\nlabel 2 1\n", "duplicate entry"
        )
        self.assert_rejects("fairnet v1\nvertices 2\nlabel 5 1\n", "2 vertices")

    def test_label_count_checked_before_expanding(self):
        # expanding this count first would need terabytes
        self.assert_rejects(
            "fairnet v1\nvertices 4\nlabel 1 1000000000000\n",
            "1000000000000 values for 4 vertices",
        )

    def test_label_count_checked_before_building_the_graph(self, monkeypatch):
        # a huge vertex count must not be allocated when the labels disagree
        def build(*args):
            raise AssertionError("graph built before the label check")

        monkeypatch.setattr(Graph, "from_edges", build)
        self.assert_rejects(
            "fairnet v1\nvertices 1000000000000\nlabel 1 5\n",
            "5 values for 1000000000000 vertices",
        )

    def test_k(self):
        base = "fairnet v1\nvertices 1\nlabel 1 1\n"
        self.assert_rejects(base + "k 0\n", "positive")
        self.assert_rejects(base + "k 2\nk 2\n", "duplicate")

    def test_meta(self):
        base = "fairnet v1\nvertices 1\nlabel 1 1\n"
        self.assert_rejects(base + "meta solo\n", "key and a value")
        self.assert_rejects(base + "meta a 1\nmeta a 2\n", "duplicate key")

    def test_cert(self):
        base = "fairnet v1\nvertices 2\nlabel 1 2\nedge 0 1\n"
        self.assert_rejects(base + "cert 1\n", "2 vertices")
        self.assert_rejects(base + "cert 0 1\n", "positive")
        self.assert_rejects(base + "cert_k 2\n", "without a cert")
        self.assert_rejects(base + "cert 1 1\ncert_k 0\n", "positive")

    def test_lexical(self):
        self.assert_rejects("fairnet v1\nvertices two\n", "expected an integer")
        self.assert_rejects("fairnet v1\nvertices 1\nlabel 1 1\ncolor 0 red\n",
                            "unknown directive")

    def test_error_reports_line_number(self):
        with pytest.raises(InputError, match="line 4"):
            read_instance("fairnet v1\nvertices 2\nlabel 1 2\nedge 0 0\n")


class TestGeneratorDocuments:
    def stable(self, graph, labels, metadata):
        inst = Instance(graph, labels, metadata=dict(metadata))
        text = write_instance(inst)
        again = read_instance(text)
        assert write_instance(again) == text
        assert again.graph == graph and again.labels == labels
        assert again.metadata == dict(metadata)

    def test_stars(self):
        made = gen_3partition_stars(ThreePartitionInstance((1, 2, 3, 1, 2, 3), 2))
        self.stable(made.graph, made.labels, made.metadata)

    def test_circulant(self):
        graph = gen_circulant(9, 4)
        self.stable(graph, LabelMultiset.from_iterable(range(1, 10)), {})

    def test_xsat_with_certificate(self):
        formula = XsatFormula(3, ((0, 1, 2),) * 3)
        made = gen_xsat(formula)
        cert = certificate_from_xsat_assignment(formula, (False, True, False))
        inst = Instance(made.graph, made.labels, metadata=dict(made.metadata),
                        certificate=cert, certificate_valid=True)
        text = write_instance(inst)
        again = read_instance(text)
        assert again.certificate_valid is True
        assert again.certificate.constant == 12
        assert write_instance(again) == text
