import os
import subprocess
import sys
from pathlib import Path

import pytest

import fairnet
from fairnet import (
    FairnessCertificate,
    FairnetError,
    Instance,
    LabelMultiset,
    RefusalError,
    SolveOutcome,
    SolveStats,
    complete_bipartite,
    cycle_graph,
    disjoint_union,
    star_graph,
    write_instance,
)
from fairnet import cli, search
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

    def test_regular_graph_without_a_constant_names_auto(self, tmp_path, capsys):
        # 4 * 7 / 6 is no whole constant: the dispatcher settles it, no strategy runs
        path = str(tmp_path / "c")
        main(["generate", "circulant", "--n", "6", "--r", "4", "--labels", "1,1,1,1,1,2", "--out", path])
        assert main(["solve", path]) == 1
        out = capsys.readouterr().out
        assert "\nstrategy auto\nnodes 0\n" in out
        assert out.endswith("trace regular graph of degree 4: no fairness constant\n")

    def test_requested_constant_off_the_forced_one_names_auto(self, tmp_path, capsys):
        # the forced constant is 4 * 55 / 10 = 22: any other k is unfair at once
        path = str(tmp_path / "c")
        main(["generate", "circulant", "--n", "10", "--r", "4", "--out", path])
        assert main(["solve", path, "--k", "21"]) == 1
        out = capsys.readouterr().out
        assert "\nstrategy auto\nnodes 0\n" in out
        assert out.endswith("trace regular graph of degree 4: no fairness constant\n")

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
        # one forced constant out of 26 candidates, one cover or feedback
        # set computed and traced
        path = str(tmp_path / "grid")
        main(["generate", "semimagic", "--entries", "1,2,8,5,7,9,2,5,6", "--out", path])
        capsys.readouterr()
        assert main(["solve", path, "--algo", algo]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith(setup_line) for line in lines) == 1
        assert sum(line.startswith("trace k=") for line in lines) == 1

    def test_huge_label_count_is_an_input_error(self, tmp_path, capsys):
        path = put(tmp_path, "huge", "fairnet v1\nvertices 4\nlabel 1 1000000000000\n")
        assert main(["solve", path]) == 3
        assert "1000000000000 values for 4 vertices" in capsys.readouterr().err

    def test_out_of_memory_is_a_refusal(self, tmp_path, capsys, monkeypatch):
        # exit 1 would read as the verdict "unfair"
        def exhausted(text):
            raise MemoryError

        monkeypatch.setattr(cli, "read_instance", exhausted)
        assert main(["solve", put(tmp_path, "c4", C4_TEXT)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "refused: out of memory" in captured.err

    def test_report_sizes_on_3part_k33(self, tmp_path, capsys):
        # the report's exact FVS used to cost 14x the solve on this family
        path = str(tmp_path / "k33")
        main(["generate", "3part-k33", "--w", "4,3,2,5,1,3,6,2,1,3,3,3", "--out", path])
        assert main(["solve", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        keys = ("n", "delta", "alpha", "fvs", "vc", "r")
        report = [line for line in lines if line.split()[0] in keys]
        assert report == ["n 12", "delta 3", "alpha 6", "fvs 4", "vc 6", "r 3"]

    def test_bad_timeout(self, tmp_path, capsys):
        assert main(["solve", put(tmp_path, "c4", C4_TEXT), "--timeout", "-1"]) == 3
        capsys.readouterr()

    def test_output_is_deterministic(self, tmp_path, capsys):
        path = put(tmp_path, "c4", C4_TEXT)
        main(["solve", path])
        first = capsys.readouterr().out
        main(["solve", path])
        assert capsys.readouterr().out == first


class TestOptionValues:
    """--timeout and --k are checked once, when the command line is parsed."""

    # 1e10 s is past what signal.setitimer holds (threading.TIMEOUT_MAX)
    @pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf", "1e10"])
    @pytest.mark.parametrize("command", ["solve", "oracle", "bench"])
    def test_timeout_must_be_finite_and_positive(self, tmp_path, capsys, command, timeout):
        path = put(tmp_path, "c4", C4_TEXT)
        target = str(tmp_path) if command == "bench" else path
        assert main([command, target, "--timeout", timeout]) == 3
        captured = capsys.readouterr()
        # rejected before any file is read: bench prints no row
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_bench_k_must_be_positive(self, tmp_path, capsys):
        put(tmp_path, "c4", C4_TEXT)
        assert main(["bench", str(tmp_path), "--k", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err


class TestOracle:
    def test_subcommand(self, tmp_path, capsys):
        assert main(["oracle", put(tmp_path, "c4", C4_TEXT)]) == 0
        assert "k 5" in capsys.readouterr().out

    def test_refusal_past_the_node_budget(self, tmp_path, monkeypatch, capsys):
        # the oracle takes 16 nodes on the 16-cycle with labels 1..16
        monkeypatch.setattr(search, "ENUMERATION_CAP", 10)
        main(["generate", "circulant", "--n", "16", "--r", "2", "--out", str(tmp_path / "c16")])
        capsys.readouterr()
        assert main(["oracle", str(tmp_path / "c16")]) == 2
        assert "refused: search exceeds the node budget of 10 nodes" in capsys.readouterr().err

    def test_thirteen_twin_classes_are_searched(self, tmp_path, capsys):
        assert main(["oracle", put(tmp_path, "c13", C13_TEXT)]) == 1
        assert "\nstrategy oracle\nnodes 0\n" in capsys.readouterr().out


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

    @pytest.mark.parametrize("error", [RecursionError, MemoryError])
    def test_recursion_and_memory_errors_are_rows(self, tmp_path, capsys, monkeypatch, error):
        # main refuses these for one solve; bench gives that file a row and goes on
        import fairnet.cli as cli_mod

        real = cli_mod.solve_auto

        def deep(graph, labels, k=None):
            if graph.vertex_count == 4:
                raise error
            return real(graph, labels, k)

        monkeypatch.setattr(cli_mod, "solve_auto", deep)
        assert main(["bench", str(self.corpus(tmp_path)), "--algos", "auto"]) == 0
        rows = [row.split("\t") for row in capsys.readouterr().out.splitlines()[1:]]
        assert [row[:3] for row in rows] == [["a.fn", "auto", "refused"], ["b.fn", "auto", "unfair"]]
        assert rows[0][4:] == ["-", "-"]

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


class TestFileErrors:
    """Unreadable input and unwritable output are input errors (exit 3),
    never the unfair verdict's exit 1."""

    @pytest.mark.parametrize("command", ["solve", "oracle", "verify", "bench"])
    def test_input_that_is_not_utf8(self, tmp_path, capsys, command):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "bad.fn").write_bytes(b"\xff\xfe")
        target = corpus if command == "bench" else corpus / "bad.fn"
        assert main([command, str(target)]) == 3
        assert "cannot read" in capsys.readouterr().err

    def test_output_into_a_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "inst"
        args = ["generate", "circulant", "--n", "8", "--r", "2", "--out", str(target)]
        assert main(args) == 3
        assert "cannot write" in capsys.readouterr().err
        assert not target.parent.exists()


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


class TestProcessExitCodes:
    """`python -m fairnet solve` exits with the verdict's or the refusal's
    code, never with Python's 1 for an uncaught error."""

    @pytest.mark.parametrize(
        "build, code, stream, first",
        [
            # a counting program of 1128 pattern variables
            (lambda: (disjoint_union(*[cycle_graph(4)] * 24), range(1, 97)), 0, "out", "verdict fair"),
            # one star whose leaves take 12 distinct labels
            (lambda: (star_graph(12), [*range(1, 13), 78]), 0, "out", "verdict fair"),
            # 1200 positions, deeper than the recursion limit, in one search loop
            (lambda: (complete_bipartite(600, 600), [1] * 1200), 0, "out", "verdict fair"),
        ],
        ids=["24xC4", "K1,12", "K600,600"],
    )
    def test_exit_code(self, tmp_path, build, code, stream, first):
        graph, labels = build()
        path = tmp_path / "instance"
        path.write_text(
            write_instance(Instance(graph, LabelMultiset.from_iterable(labels))), encoding="utf-8"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(fairnet.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "fairnet", "solve", str(path)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == code
        assert (done.stdout if stream == "out" else done.stderr).splitlines()[0] == first


class TestInternalErrors:
    def test_unexpected_failure_exits_70(self, tmp_path, capsys, monkeypatch):
        import fairnet.cli as cli_mod

        def broken(algo, graph, labels, k):
            raise FairnetError("invariant violated")

        monkeypatch.setattr(cli_mod, "run_algorithm", broken)
        assert main(["solve", put(tmp_path, "c4", C4_TEXT)]) == 70
        assert "internal error" in capsys.readouterr().err

    def test_recursion_limit_is_a_refusal(self, tmp_path, capsys, monkeypatch):
        # exact VC under vc-alpha still recurses once per cover vertex taken
        import fairnet.cli as cli_mod

        def deep(algo, graph, labels, k):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli_mod, "run_algorithm", deep)
        assert main(["solve", put(tmp_path, "c4", C4_TEXT)]) == 2
        assert capsys.readouterr().err == "refused: recursion limit\n"


# `fairnet solve` stdout on generated instances, without the `nodes` lines
# (search effort, not part of the answer), with the exit code
GOLDEN = [    (
        ['circulant', '--n', '10', '--r', '4'],
        1,
        'verdict unfair\n'
        'n 10\n'
        'delta 4\n'
        'alpha 10\n'
        'fvs 4\n'
        'vc 7\n'
        'r 4\n'
        'strategy oracle\n'
        'ilp_calls 0\n'
        'trace regular graph of degree 4, constant 22: strategy oracle\n',
    ),
    (
        ['3part-k33', '--w', '4,3,2,5,1,3'],
        0,
        'verdict fair\n'
        'k 9\n'
        'cert 1 3 5 2 3 4\n'
        'n 6\n'
        'delta 3\n'
        'alpha 5\n'
        'fvs 2\n'
        'vc 3\n'
        'r 3\n'
        'strategy oracle\n'
        'ilp_calls 0\n'
        'trace regular graph of degree 3, constant 9: strategy oracle\n',
    ),
    (
        ['3part-k33', '--w', '4,3,2,5,1,3,6,2,1,3,3,3'],
        0,
        'verdict fair\n'
        'k 9\n'
        'cert 1 2 6 1 3 5 2 3 4 3 3 3\n'
        'n 12\n'
        'delta 3\n'
        'alpha 6\n'
        'fvs 4\n'
        'vc 6\n'
        'r 3\n'
        'strategy oracle\n'
        'ilp_calls 0\n'
        'trace regular graph of degree 3, constant 9: strategy oracle\n',
    ),
    (
        ['3part-stars', '--w', '4,3,2,5,1,3,6,2,1,3,3,3'],
        0,
        'verdict fair\n'
        'k 9\n'
        'cert 9 1 2 6 9 1 3 5 9 2 3 4 9 3 3 3\n'
        'n 16\n'
        'delta 3\n'
        'alpha 7\n'
        'fvs 0\n'
        'vc 4\n'
        'strategy auto\n'
        'ilp_calls 1\n'
        'trace disjoint stars; candidates [9]\n'
        'trace k=9: fair\n',
    ),
    (
        ['semimagic', '--entries', '2,7,6,9,5,1,4,3,8'],
        0,
        'verdict fair\n'
        'k 15\n'
        'cert 9 5 1 4 3 8 2 7 6 1 1 1 14 14 14\n'
        'n 15\n'
        'delta 3\n'
        'alpha 10\n'
        'fvs 2\n'
        'vc 6\n'
        'strategy vc-alpha\n'
        'ilp_calls 1\n'
        'trace candidates [15]\n'
        'trace strategy vc-alpha (vc 6, boundary 8, est 1000000/100000000)\n'
        'trace vertex cover size 6\n'
        'trace k=15: fair\n',
    ),
    (
        ['semimagic', '--entries', '1,2,8,5,7,9,2,5,6'],
        1,
        'verdict unfair\n'
        'n 15\n'
        'delta 3\n'
        'alpha 8\n'
        'fvs 2\n'
        'vc 6\n'
        'strategy vc-alpha\n'
        'ilp_calls 2\n'
        'trace candidates [15]\n'
        'trace strategy vc-alpha (vc 6, boundary 8, est 262144/16777216)\n'
        'trace vertex cover size 6\n'
        'trace k=15: unfair\n',
    ),
    (
        ['semimagic', '--entries', '4,3,7,2,1,3,4,8,5'],
        1,
        'verdict unfair\n'
        'n 15\n'
        'delta 3\n'
        'alpha 8\n'
        'fvs 2\n'
        'vc 6\n'
        'strategy auto\n'
        'ilp_calls 0\n'
        'trace candidates []\n',
    ),
    (
        ['random', '--n', '14', '--p', '0.3', '--maxlabel', '4', '--seed', '1'],
        1,
        'verdict unfair\n'
        'n 14\n'
        'delta 8\n'
        'alpha 4\n'
        'fvs 4\n'
        'vc 7\n'
        'strategy auto\n'
        'ilp_calls 0\n'
        'trace isolated vertex next to constrained vertices\n',
    ),
    (
        ['random', '--n', '14', '--p', '0.3', '--maxlabel', '4', '--seed', '2'],
        1,
        'verdict unfair\n'
        'n 14\n'
        'delta 6\n'
        'alpha 4\n'
        'fvs 3\n'
        'vc 6\n'
        'strategy auto\n'
        'ilp_calls 0\n'
        'trace component 0..: pendant vertex in a non-star component\n',
    ),
]


class TestGolden:
    @pytest.mark.parametrize(
        "args, code, expected", GOLDEN, ids=[f"{args[0]}-{i}" for i, (args, *_) in enumerate(GOLDEN)]
    )
    def test_solve_output_is_pinned(self, tmp_path, capsys, args, code, expected):
        path = str(tmp_path / "instance")
        assert main(["generate", *args, "--out", path]) == 0
        capsys.readouterr()
        assert main(["solve", path]) == code
        out = capsys.readouterr().out
        assert "".join(
            line for line in out.splitlines(keepends=True) if not line.startswith("nodes ")
        ) == expected
