"""Command-line front end.

Three subcommands: ``compute`` evaluates one function on a matrix or cube
document once and reports the value plus the ring-operation counts of that
run, read from the registry's closed forms, ``verify`` runs the randomized
identity cross-check suites, and ``bench`` prints the op-count comparison
table.  Exit codes: 0 success, 1 verification or cross-check failure, 2
usage or parse error.  The --gamma and --delta
shifts are read by the document they apply to (MatrixDocument.scalar), in
its ring's cell syntax and with its refusals; this module parses no JSON.

For a fixed seed the verify and bench outputs are byte-identical across
runs; no timing data is ever printed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Any

from .bench import compare_methods, count_ops, format_table, write_records
from .document import MatrixDocument, parse_document
from .methods import COUNT_FIELDS, METHODS, MethodDisagreement, evaluate_method
from .verify import SUITES, run_suites


class UsageError(ValueError):
    """Bad flag combination or argument value."""


# Built once per process: parsing leaves the parser unchanged, and the choices
# it reads from METHODS and SUITES are their names, which never change.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matident",
        description="Exact evaluators and cross-checks for permanents, determinants, "
        "symmetrized permanents, and space-matrix determinants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="evaluate one function on a document")
    halves = [name.split("_") for name in METHODS]  # registry names are <fn>_<method>
    compute.add_argument("--fn", required=True, choices=list(dict.fromkeys(f for f, _ in halves)))
    compute.add_argument(
        "--method", required=True, choices=list(dict.fromkeys(m for _, m in halves))
    )
    compute.add_argument(
        "--gamma", help="comma-separated shift scalars for per/det --method identity"
    )
    compute.add_argument("--delta", help="shift element for eper --method identity")
    compute.add_argument("file", metavar="FILE")

    verify = sub.add_parser("verify", help="run randomized identity cross-checks")
    verify.add_argument("--suite", default="all", choices=(*SUITES, "all"))
    verify.add_argument("--n", type=int, default=None, help="run one size instead of the defaults")
    verify.add_argument("--trials", type=int, default=5)
    verify.add_argument("--seed", type=int, default=1)

    bench = sub.add_parser("bench", help="compare op counts across methods")
    bench.add_argument("--nmin", type=int, default=2)
    bench.add_argument("--nmax", type=int, default=5)
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--out", default=None, help="also write rows as JSON lines")

    return parser


def _load_document(path: str) -> MatrixDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    return parse_document(text)


def _gamma_values(document: MatrixDocument, raw: str, count: int) -> tuple:
    tokens = raw.split(",")
    if len(tokens) != count:
        raise UsageError(
            f"--gamma expects {count} comma-separated value{'s' if count != 1 else ''}, "
            f"got {len(tokens)}"
        )
    return tuple(
        document.scalar(token, f"--gamma value {i}")
        for i, token in enumerate(tokens, start=1)
    )


def _uncapped_str(value: Any) -> str:
    """str(value) with CPython's int-to-str digit cap lifted for this one call.

    The cap would refuse a value that has already been computed.  It is
    restored at once, so the document parser stays under it (which keeps
    quadratic parsing of huge inputs refused and bounds every value's size).
    Interpreters older than 3.10.7 have no cap.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _run_compute(args: argparse.Namespace) -> int:
    method = f"{args.fn}_{args.method}"
    if method not in METHODS:
        raise UsageError(f"method {args.method!r} does not apply to {args.fn}")
    document = _load_document(args.file)
    params: dict = {}
    if args.gamma is not None:
        if method == "per_identity":
            params["gammas"] = _gamma_values(document, args.gamma, document.content.n)
        elif method == "det_identity":
            params["gamma"] = _gamma_values(document, args.gamma, 1)[0]
        else:
            raise UsageError("--gamma applies only to per or det with --method identity")
    if args.delta is not None:
        if method == "eper_identity":
            params["delta"] = document.scalar(args.delta, "--delta")
        else:
            raise UsageError("--delta applies only to eper with --method identity")
    value = evaluate_method(method, document.content, params)
    report = count_ops(method, document.content)
    print(f"value: {_uncapped_str(value)}")
    print("ops: " + " ".join(f"{field}={getattr(report, field)}" for field in COUNT_FIELDS))
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    names = tuple(SUITES) if args.suite == "all" else (args.suite,)
    ns = None if args.n is None else (args.n,)
    # run_suites refuses a trial count outside 1..MAX_TRIALS or a size outside
    # 1..max_n of a suite before running any trial.
    lines, all_ok = run_suites(names, args.trials, args.seed, ns=ns)
    print(f"verify: suite={args.suite} trials={args.trials} seed={args.seed}")
    for line in lines:
        print(line)
    return 0 if all_ok else 1


def _run_bench(args: argparse.Namespace) -> int:
    rows = compare_methods(args.nmin, args.nmax, args.seed)
    # Records first, so a path that cannot be written leaves stdout empty.
    if args.out is not None:
        try:
            write_records(rows, args.out)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from None
    print(format_table(rows))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "compute":
            return _run_compute(args)
        if args.command == "verify":
            return _run_verify(args)
        return _run_bench(args)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    except ValueError as exc:
        # UsageError, DocumentError and the library's own argument checks.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MethodDisagreement as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
