import pytest

from fairnet import (
    FairnessCertificate,
    FairnetError,
    RefusalError,
    SolveOutcome,
    SolveStats,
)
from fairnet.cli import main

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

C6_UNFAIR_TEXT = """fairnet v1
vertices 6
edge 0 1
edge 1 2
edge 2 3
edge 3 4
edge 4 5
edge 0 5
label 1 2
label 2 2
label 3 2
"""

C13_TEXT = (
    "fairnet v1\nvertices 13\n"
    + "".join(f"edge {i} {(i + 1) % 13}\n" for i in range(13))
    + "".join(f"label {v} 1\n" for v in range(1, 14))
)

ISOLATED_TEXT = """fairnet v1
vertices 3
edge 0 1
label 1 1
label 2 1
label 3 1
"""


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestSolve:
    def test_fair(self, tmp_path, capsys):
        assert main(["solve", put(tmp_path, "c4", C4_TEXT)]) == 0
        out = capsys.readouterr().out
        assert "verdict fair" in out and "k 5" in out
        assert "strategy" in out and "nodes" in out

    def test_unfair(self, tmp_path, capsys):
        assert main(["solve", put(tmp_path, "c6", C6_UNFAIR_TEXT)]) == 1
        assert "verdict unfair" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "algo", ["auto", "oracle", "fvs-alpha-delta", "vc-alpha", "regular-fvs", "vc-delta"]
    )
    def test_every_algorithm_agrees_on_c4(self, tmp_path, capsys, algo):
        assert main(["solve", put(tmp_path, "c4", C4_TEXT), "--algo", algo]) == 0
        assert "k 5" in capsys.readouterr().out

    def test_pinned_constant(self, tmp_path, capsys):
        path = put(tmp_path, "c4", C4_TEXT)
        assert main(["solve", path, "--k", "5"]) == 0
        assert main(["solve", path, "--k", "6"]) == 1
        assert main(["solve", path, "--k", "0"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_k_directive_in_file_is_used(self, tmp_path):
        assert main(["solve", put(tmp_path, "c4", C4_TEXT + "k 6\n")]) == 1
        # an explicit flag overrides the stored target
        assert main(["solve", put(tmp_path, "c4b", C4_TEXT + "k 6\n"), "--k", "5"]) == 0

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/no.fn"]) == 3
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        assert main(["solve", put(tmp_path, "bad", "fairnet v9\n")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_argparse_errors_exit_3(self, capsys):
        assert main(["solve"]) == 3
        assert main(["solve", "x", "--algo", "quantum"]) == 3
        assert main(["frobnicate"]) == 3
        capsys.readouterr()

    def test_isolated_vertex_strategy_contract(self, tmp_path, capsys):
        path = put(tmp_path, "iso", ISOLATED_TEXT)
        # decision procedures report unfair; parameterized strategies
        # reject the input outright because their preconditions fail
        assert main(["solve", path, "--algo", "auto"]) == 1
        assert main(["solve", path, "--algo", "fvs-alpha-delta"]) == 3
        capsys.readouterr()

    def test_timeout_refuses(self, tmp_path, capsys):
        main(
            ["generate", "random", "--n", "24", "--p", "0.9", "--seed", "1",
             "--out", str(tmp_path / "dense")]
        )
        code = main(
            ["solve", str(tmp_path / "dense"), "--algo", "vc-alpha",
             "--timeout", "0.05"]
        )
        assert code == 2
        assert "refused: timed out" in capsys.readouterr().err

    def test_timeout_covers_the_report(self, tmp_path, capsys):
        # auto screens this instance at once; the report's exact fvs and vc
        # on 32 vertices would run far past the budget
        main(
            ["generate", "random", "--n", "32", "--p", "0.3", "--seed", "1",
             "--maxlabel", "3", "--out", str(tmp_path / "g32")]
        )
        assert main(["solve", str(tmp_path / "g32"), "--timeout", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "refused: timed out" in captured.err

    @pytest.mark.parametrize("algo", ["oracle", "fvs-alpha-delta", "vc-delta"])
    def test_strategy_line_names_the_strategy_that_ran(self, tmp_path, capsys, algo):
        main(["generate", "circulant", "--n", "10", "--r", "4", "--out", str(tmp_path / "c")])
        main(["solve", str(tmp_path / "c"), "--algo", algo])
        assert f"\nstrategy {algo}\n" in capsys.readouterr().out

    def test_fvs_alpha_delta_counts_nodes(self, tmp_path, capsys):
        # an unfair search reports the (vertex, value) pairs it tried
        main(["generate", "circulant", "--n", "10", "--r", "4", "--out", str(tmp_path / "c")])
        assert main(["solve", str(tmp_path / "c"), "--algo", "fvs-alpha-delta"]) == 1
        out = capsys.readouterr().out
        nodes = [int(line.split()[1]) for line in out.splitlines() if line.startswith("nodes ")]
        assert nodes and nodes[0] > 0

    def test_fvs_alpha_delta_refuses_past_the_exact_limit(self, tmp_path, capsys):
        # 48 vertices, no star component: exact FVS on them used to run unbounded
        path = str(tmp_path / "x")
        main(["generate", "xsat", "--clauses", "0,1,2;0,1,2;0,1,2", "--out", path])
        assert main(["solve", path, "--algo", "fvs-alpha-delta", "--timeout", "10"]) == 2
        err = capsys.readouterr().err
        assert "limited to 32" in err and "timed out" not in err
        assert main(["solve", path, "--algo", "vc-alpha"]) == 0
        assert "verdict fair" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "algo, setup_line",
        [
            ("auto", "trace vertex cover size 6"),
            ("vc-alpha", "trace vertex cover size 6"),
            ("fvs-alpha-delta", "trace fvs size"),
        ],
    )
    def test_setup_runs_once_per_solve(self, tmp_path, capsys, algo, setup_line):
        # 26 candidate constants, one cover or feedback set computed and traced
        path = str(tmp_path / "grid")
        main(["generate", "semimagic", "--entries", "1,2,8,5,7,9,2,5,6", "--out", path])
        capsys.readouterr()
        assert main(["solve", path, "--algo", algo]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith(setup_line) for line in lines) == 1
        assert sum(line.startswith("trace k=") for line in lines) == 26

    def test_huge_label_count_is_an_input_error(self, tmp_path, capsys):
        path = put(tmp_path, "huge", "fairnet v1\nvertices 4\nlabel 1 1000000000000\n")
        assert main(["solve", path]) == 3
        assert "1000000000000 values for 4 vertices" in capsys.readouterr().err

    def test_bad_timeout(self, tmp_path, capsys):
        assert main(["solve", put(tmp_path, "c4", C4_TEXT), "--timeout", "-1"]) == 3
        capsys.readouterr()

    def test_output_is_deterministic(self, tmp_path, capsys):
        path = put(tmp_path, "c4", C4_TEXT)
        main(["solve", path])
        first = capsys.readouterr().out
        main(["solve", path])
        assert capsys.readouterr().out == first


class TestOracle:
    def test_subcommand(self, tmp_path, capsys):
        assert main(["oracle", put(tmp_path, "c4", C4_TEXT)]) == 0
        assert "k 5" in capsys.readouterr().out

    def test_refusal_over_cap(self, tmp_path, capsys):
        assert main(["oracle", put(tmp_path, "c13", C13_TEXT)]) == 2
        assert "refused:" in capsys.readouterr().err

    def test_cap_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FAIRNET_ORACLE_CAP", "20")
        assert main(["oracle", put(tmp_path, "c13", C13_TEXT)]) in (0, 1)
        capsys.readouterr()


class TestVerify:
    GOOD = C4_TEXT + "cert 1 2 4 3\ncert_k 5\n"
    BAD = C4_TEXT + "cert 1 3 2 4\n"

    def test_valid(self, tmp_path, capsys):
        assert main(["verify", put(tmp_path, "good", self.GOOD)]) == 0
        assert capsys.readouterr().out == "k 5\n"

    def test_invalid(self, tmp_path, capsys):
        assert main(["verify", put(tmp_path, "bad", self.BAD)]) == 1
        assert "does not verify" in capsys.readouterr().err

    def test_absent(self, tmp_path, capsys):
        assert main(["verify", put(tmp_path, "none", C4_TEXT)]) == 3
        assert "no certificate" in capsys.readouterr().err


class TestGenerate:
    def test_deterministic_bytes(self, capsys):
        args = ["generate", "random", "--n", "8", "--p", "0.4", "--seed", "7"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("fairnet v1\n")

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "inst"
        assert main(["generate", "circulant", "--n", "8", "--r", "2",
                     "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["solve", str(target)]) in (0, 1)
        capsys.readouterr()

    @pytest.mark.parametrize(
        "args",
        [
            ["3part-k33", "--w", "1,2,3"],
            ["3part-stars", "--w", "1,2,3,1,2,3"],
            ["xsat", "--clauses", "0,1,2;0,1,2;0,1,2"],
            ["semimagic", "--entries", "1,2,3,4,5,6,7,8,9"],
            ["circulant", "--n", "9", "--r", "4"],
            ["random", "--n", "5", "--seed", "3"],
        ],
    )
    def test_families_emit_loadable_documents(self, tmp_path, capsys, args):
        assert main(["generate", *args]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "doc"
        path.write_text(text, encoding="utf-8")
        assert main(["solve", str(path), "--algo", "auto"]) in (0, 1, 2)
        capsys.readouterr()

    @pytest.mark.parametrize(
        "args",
        [
            ["3part-k33"],                                  # missing --w
            ["3part-k33", "--w", "1,2"],                    # not a multiple of 3
            ["3part-k33", "--w", "1,2,x"],                  # not integers
            ["xsat", "--clauses", "0,1;0,1,2;0,1,2"],       # clause too short
            ["semimagic", "--entries", "1,2,3"],            # not a square grid
            ["circulant", "--n", "6", "--r", "3"],          # odd degree
            ["circulant", "--n", "6", "--r", "4", "--labels", "1,2"],
            ["random", "--n", "0"],
            ["random", "--n", "4", "--maxlabel", "0"],
            ["random", "--n", "4", "--p", "1.5"],
            ["nosuchfamily"],
        ],
    )
    def test_rejects_bad_parameters(self, capsys, args):
        assert main(["generate", *args]) == 3
        capsys.readouterr()


class TestBench:
    def corpus(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "a.fn").write_text(C4_TEXT, encoding="utf-8")
        (d / "b.fn").write_text(C6_UNFAIR_TEXT, encoding="utf-8")
        return d

    def test_agreement(self, tmp_path, capsys):
        assert main(["bench", str(self.corpus(tmp_path))]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "file\talgo\tverdict\ttime_s\tnodes\tilp_calls"
        rows = lines[1:]
        assert len(rows) == 4  # two files, two default algorithms
        assert all(len(row.split("\t")) == 6 for row in rows)
        assert rows[0].startswith("a.fn\tauto\tfair\t")
        assert rows[2].startswith("b.fn\tauto\tunfair\t")

    def test_planted_disagreement(self, tmp_path, capsys, monkeypatch):
        import fairnet.cli as cli_mod

        def rigged(algo, graph, labels, k):
            if algo == "oracle":
                return SolveOutcome.make_unfair(SolveStats())
            cert = FairnessCertificate(tuple(labels), 1)
            return SolveOutcome.make_fair(cert, SolveStats())

        monkeypatch.setattr(cli_mod, "run_algorithm", rigged)
        assert main(["bench", str(self.corpus(tmp_path))]) == 4
        captured = capsys.readouterr()
        assert "disagreement" in captured.err
        # every row still printed before the verdict
        assert len(captured.out.splitlines()) == 5

    def test_refusals_are_rows_not_failures(self, tmp_path, capsys, monkeypatch):
        import fairnet.cli as cli_mod

        real = cli_mod.run_algorithm

        def flaky(algo, graph, labels, k):
            if algo == "oracle":
                raise RefusalError("budget")
            return real(algo, graph, labels, k)

        monkeypatch.setattr(cli_mod, "run_algorithm", flaky)
        assert main(["bench", str(self.corpus(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "\toracle\trefused\t" in out

    def test_empty_corpus(self, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        assert main(["bench", str(d)]) == 3
        assert main(["bench", str(tmp_path / "missing")]) == 3
        capsys.readouterr()

    def test_bad_algos(self, tmp_path, capsys):
        corpus = str(self.corpus(tmp_path))
        assert main(["bench", corpus, "--algos", "auto,psychic"]) == 3
        assert main(["bench", corpus, "--algos", ""]) == 3
        capsys.readouterr()


class TestRunAlgorithm:
    @pytest.mark.parametrize(
        "algo, name",
        [
            ("auto", "solve_auto"),
            ("oracle", "solve_oracle"),
            ("fvs-alpha-delta", "solve_fvs_alpha_delta"),
            ("vc-alpha", "solve_vc_alpha"),
            ("regular-fvs", "solve_regular_fvs"),
            ("vc-delta", "solve_vc_delta"),
        ],
    )
    def test_strategy_looked_up_at_call_time(self, monkeypatch, algo, name):
        # outside-in tracers (perfbench/tracing.py) swap these module attributes
        import fairnet.cli as cli_mod

        calls = []
        real = getattr(cli_mod, name)

        def spy(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(cli_mod, name, spy)
        instance = cli_mod.read_instance(C4_TEXT)
        out = cli_mod.run_algorithm(algo, instance.graph, instance.labels, None)
        assert out.fair and calls == [None]


class TestInternalErrors:
    def test_unexpected_failure_exits_70(self, tmp_path, capsys, monkeypatch):
        import fairnet.cli as cli_mod

        def broken(algo, graph, labels, k):
            raise FairnetError("invariant violated")

        monkeypatch.setattr(cli_mod, "run_algorithm", broken)
        assert main(["solve", put(tmp_path, "c4", C4_TEXT)]) == 70
        assert "internal error" in capsys.readouterr().err
