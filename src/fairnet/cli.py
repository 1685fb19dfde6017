"""Command line front end: solve, verify, generate, oracle, bench.

Exit codes: 0 fair, 1 unfair, 2 refusal or timeout, 3 input error,
4 benchmark verdict disagreement.  A verdict is never conflated with an
error.  All output except benchmark timings is deterministic for identical
invocations.
"""

from __future__ import annotations

import argparse
import math
import random
import signal
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from .instance_io import Instance, read_instance, write_instance
from .model import (
    FairnetError,
    Graph,
    InputError,
    LabelMultiset,
    RefusalError,
    SolveOutcome,
    # unused here, but perfbench/tracing.py wraps it under this module
    fairness_constant_candidates,  # noqa: F401
)
from .reductions import (
    SemiMagicSpec,
    ThreePartitionInstance,
    XsatFormula,
    gen_3partition_k33,
    gen_3partition_stars,
    gen_circulant,
    gen_semimagic,
    gen_xsat,
)
from .solvers import (
    SolverChoice,
    parameter_report,
    solve_auto,
    solve_fvs_alpha_delta,
    solve_oracle,
    solve_regular_fvs,
    solve_vc_alpha,
    solve_vc_delta,
)

EXIT_FAIR = 0
EXIT_UNFAIR = 1
EXIT_REFUSED = 2
EXIT_INPUT = 3
EXIT_DISAGREE = 4
EXIT_INTERNAL = 70

ALGORITHMS = ("auto", "oracle", "fvs-alpha-delta", "vc-alpha", "regular-fvs", "vc-delta")
FAMILIES = ("3part-k33", "3part-stars", "xsat", "semimagic", "circulant", "random")


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors (exit 3), not argparse's default 2."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@contextmanager
def _time_limit(seconds: float | None):
    """Raise RefusalError when the wrapped block runs past the budget."""
    if seconds is None:
        yield
        return
    if seconds <= 0:
        raise InputError("timeout must be positive")

    def fire(signum, frame):
        raise RefusalError(f"timed out after {seconds}s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_algorithm(
    algo: str, graph: Graph, labels: LabelMultiset, k: int | None
) -> SolveOutcome:
    """Dispatch one named strategy, looked up in this module at call time."""
    if algo == "auto":
        return solve_auto(graph, labels, k)
    if algo == "oracle":
        return solve_oracle(graph, labels, k)
    if algo == "vc-delta":
        return solve_vc_delta(graph, labels, k)
    if algo == "regular-fvs":
        return solve_regular_fvs(graph, labels, k)
    if algo == "fvs-alpha-delta":
        return solve_fvs_alpha_delta(graph, labels, k)
    if algo == "vc-alpha":
        return solve_vc_alpha(graph, labels, k)
    raise InputError(f"unknown algorithm {algo!r}")


def _load(path: str) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return read_instance(text)


def _print_outcome(outcome: SolveOutcome, choice: SolverChoice, algo: str, n: int) -> None:
    """The report; for `auto` the strategy line names what it dispatched to."""
    print(f"verdict {outcome.verdict.value}")
    if outcome.fair:
        cert = outcome.certificate
        print(f"k {'none' if cert.constant is None else cert.constant}")
        print(("cert " + " ".join(str(v) for v in cert.labels)).rstrip())
    print(f"n {n}")
    print(f"delta {choice.delta}")
    print(f"alpha {choice.alpha}")
    print(f"fvs {choice.fvs if choice.fvs is not None else '-'}")
    print(f"vc {choice.vc if choice.vc is not None else '-'}")
    if choice.regular is not None:
        print(f"r {choice.regular}")
    print(f"strategy {choice.tag.value if algo == 'auto' else algo}")
    print(f"nodes {outcome.stats.nodes}")
    print(f"ilp_calls {outcome.stats.ilp_calls}")
    for line in outcome.stats.trace:
        print(f"trace {line}")


def cmd_solve(args) -> int:
    instance = _load(args.file)
    k = args.k if args.k is not None else instance.k
    with _time_limit(args.timeout):
        outcome = run_algorithm(args.algo, instance.graph, instance.labels, k)
        choice = parameter_report(instance.graph, instance.labels)
    _print_outcome(outcome, choice, args.algo, instance.graph.vertex_count)
    return EXIT_FAIR if outcome.fair else EXIT_UNFAIR


def cmd_oracle(args) -> int:
    args.algo = "oracle"
    return cmd_solve(args)


def cmd_verify(args) -> int:
    instance = _load(args.file)
    if instance.certificate is None:
        raise InputError("cert: file carries no certificate")
    if instance.certificate_valid:
        constant = instance.certificate.constant
        print(f"k {'none' if constant is None else constant}")
        return EXIT_FAIR
    print("certificate does not verify", file=sys.stderr)
    return EXIT_UNFAIR


def _parse_ints(text: str, field_name: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise InputError(f"{field_name}: expected comma-separated integers") from None


def _require(value, name: str):
    if value is None:
        raise InputError(f"family requires --{name}")
    return value


def _generate(args) -> Instance:
    family = args.family
    if family in ("3part-k33", "3part-stars"):
        w = _parse_ints(_require(args.w, "w"), "w")
        if len(w) % 3 != 0:
            raise InputError("w: need a multiple of 3 values")
        source = ThreePartitionInstance(w, len(w) // 3)
        gen = gen_3partition_k33 if family == "3part-k33" else gen_3partition_stars
        made = gen(source)
        return Instance(made.graph, made.labels, metadata=made.metadata)
    if family == "xsat":
        text = _require(args.clauses, "clauses")
        clauses = tuple(
            _parse_ints(part, "clauses") for part in text.split(";") if part.strip()
        )
        made = gen_xsat(XsatFormula(len(clauses), clauses))
        return Instance(made.graph, made.labels, metadata=made.metadata)
    if family == "semimagic":
        entries = _parse_ints(_require(args.entries, "entries"), "entries")
        side = math.isqrt(len(entries))
        made = gen_semimagic(SemiMagicSpec(side, entries))
        return Instance(made.graph, made.labels, metadata=made.metadata)
    if family == "circulant":
        n = _require(args.n, "n")
        r = _require(args.r, "r")
        graph = gen_circulant(n, r)
        if args.labels is not None:
            values = _parse_ints(args.labels, "labels")
            if len(values) != n:
                raise InputError(f"labels: expected {n} values")
        else:
            values = tuple(range(1, n + 1))
        metadata = {"generator": "circulant", "n": str(n), "r": str(r)}
        return Instance(graph, LabelMultiset.from_iterable(values), metadata=metadata)
    if family == "random":
        n = _require(args.n, "n")
        if n < 1:
            raise InputError("n: need at least one vertex")
        if args.maxlabel < 1:
            raise InputError("maxlabel: must be positive")
        if not 0.0 <= args.p <= 1.0:
            raise InputError("p: must lie in [0, 1]")
        rng = random.Random(args.seed)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < args.p
        ]
        values = [rng.randint(1, args.maxlabel) for _ in range(n)]
        metadata = {
            "generator": "random",
            "n": str(n),
            "maxlabel": str(args.maxlabel),
            "p": repr(args.p),
            "seed": str(args.seed),
        }
        graph = Graph.from_edges(n, edges)
        return Instance(graph, LabelMultiset.from_iterable(values), metadata=metadata)
    raise InputError(f"unknown family {family!r}")


def cmd_generate(args) -> int:
    text = write_instance(_generate(args))
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_FAIR


def cmd_bench(args) -> int:
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise InputError(f"corpus: {args.corpus} is not a directory")
    files = sorted(p for p in corpus.iterdir() if p.is_file())
    if not files:
        raise InputError("corpus: no instance files found")
    algos = tuple(name for name in args.algos.split(",") if name)
    for name in algos:
        if name not in ALGORITHMS:
            raise InputError(f"algos: unknown algorithm {name!r}")
    if not algos:
        raise InputError("algos: need at least one algorithm")

    print("file\talgo\tverdict\ttime_s\tnodes\tilp_calls")
    disagreement = False
    for path in files:
        instance = read_instance(path.read_text(encoding="utf-8"))
        pinned = args.k if args.k is not None else instance.k
        verdicts = set()
        for algo in algos:
            start = time.perf_counter()
            nodes: int | str
            ilp: int | str
            try:
                with _time_limit(args.timeout):
                    outcome = run_algorithm(algo, instance.graph, instance.labels, pinned)
                verdict = outcome.verdict.value
                nodes = outcome.stats.nodes
                ilp = outcome.stats.ilp_calls
                verdicts.add(verdict)
            except RefusalError:
                verdict, nodes, ilp = "refused", "-", "-"
            except InputError:
                verdict, nodes, ilp = "error", "-", "-"
            elapsed = time.perf_counter() - start
            print(f"{path.name}\t{algo}\t{verdict}\t{elapsed:.6f}\t{nodes}\t{ilp}")
        if {"fair", "unfair"} <= verdicts:
            disagreement = True
    if disagreement:
        print("verdict disagreement detected", file=sys.stderr)
        return EXIT_DISAGREE
    return EXIT_FAIR


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fairnet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_solver_options(p):
        p.add_argument("file", help="instance file")
        p.add_argument("--k", type=int, default=None, help="pin the fairness constant")
        p.add_argument(
            "--timeout", type=float, default=None, help="wall-clock budget in seconds"
        )

    p_solve = sub.add_parser("solve", help="decide fairness and print a report")
    add_solver_options(p_solve)
    p_solve.add_argument("--algo", choices=ALGORITHMS, default="auto")
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="solve with the exhaustive strategy")
    add_solver_options(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = sub.add_parser("verify", help="check the certificate in a file")
    p_verify.add_argument("file", help="instance file with a certificate")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("generate", help="write a constructed instance")
    p_gen.add_argument("family", choices=FAMILIES)
    p_gen.add_argument("--w", help="comma-separated triple values (3part families)")
    p_gen.add_argument("--clauses", help="semicolon-separated clauses, e.g. 0,1,2;...")
    p_gen.add_argument("--entries", help="comma-separated grid entries (semimagic)")
    p_gen.add_argument("--labels", help="comma-separated labels (circulant)")
    p_gen.add_argument("--n", type=int, help="vertex count (circulant, random)")
    p_gen.add_argument("--r", type=int, help="degree (circulant)")
    p_gen.add_argument("--maxlabel", type=int, default=6, help="label bound (random)")
    p_gen.add_argument("--p", type=float, default=0.5, help="edge density (random)")
    p_gen.add_argument("--seed", type=int, default=0, help="random seed")
    p_gen.add_argument("--out", help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser("bench", help="run algorithms over a corpus directory")
    p_bench.add_argument("corpus", help="directory of instance files")
    p_bench.add_argument(
        "--algos", default="auto,oracle", help="comma-separated algorithm names"
    )
    p_bench.add_argument("--k", type=int, default=None)
    p_bench.add_argument("--timeout", type=float, default=None)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except FairnetError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
