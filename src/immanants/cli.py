"""Command-line front end: compute, decompose, verify, and scan.

Partitions on the command line are comma-separated descending integers;
the empty partition is spelled `-`.  Exit codes: 0 on success, 1 on
invalid input, 2 when a verification check fails or a suite checks nothing.
"""

from __future__ import annotations

import argparse
import json
import sys

# Each command imports the layers it runs when it runs, so a `python -m
# immanants.cli` call loads only those.  Imported as a library (the console
# script, bench/traced_cli.py), the module loads every layer up front.
if __name__ != "__main__":
    from . import verify  # noqa: F401  (verify imports every other layer)


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def parse_partition(text: str):
    from .tableaux import check_partition

    if text == "-" or text == "":
        return ()
    try:
        return check_partition(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"invalid partition {text!r}: {exc}")


def _shape_from_args(args):
    from .tableaux import skew_shape

    outer = parse_partition(args.outer)
    inner = parse_partition(args.inner) if args.inner else ()
    try:
        return skew_shape(outer, inner, args.rows)
    except ValueError as exc:
        raise ValueError(f"invalid shape: {exc}")


def _parse_character(spec: str, n: int):
    from .characters import (
        induced_trivial_character,
        irreducible_character,
        monomial_character,
        sign_character,
        trivial_character,
    )

    if spec == "sgn":
        return sign_character(n)
    if spec == "triv":
        return trivial_character(n)
    for prefix, builder in (
        ("irr:", irreducible_character),
        ("mono:", monomial_character),
        ("eta:", induced_trivial_character),
    ):
        if spec.startswith(prefix):
            lam = parse_partition(spec[len(prefix):])
            if sum(lam) != n:
                raise ValueError(
                    f"character index {list(lam)} is a partition of {sum(lam)}, need {n}"
                )
            return builder(lam)
    raise ValueError(f"unknown character {spec!r}; use sgn|triv|irr:LAM|mono:LAM|eta:LAM")


def _print_class_function(chi, fmt: str) -> None:
    from .tableaux import partitions_of

    if fmt == "json":
        print(_dumps(chi.to_json()))
        return
    width = max(len(str(list(r))) for r in chi.values)
    for rho in partitions_of(chi.n):
        print(f"{str(list(rho)).ljust(width)}  {chi.values[rho]}")


def cmd_kostka(args) -> int:
    from .tableaux import kostka

    theta = parse_partition(args.theta)
    content = tuple(int(x) for x in args.content.split(",")) if args.content not in ("-", "") else ()
    value = kostka(theta, content)
    if args.format == "json":
        print(_dumps({"theta": list(theta), "content": list(content), "kostka": value}))
    else:
        print(value)
    return 0


def cmd_matrix(args) -> int:
    from .jacobitrudi import jt_matrix

    shape = _shape_from_args(args)
    matrix = jt_matrix(shape)
    if args.format == "json":
        print(_dumps({"shape": shape.to_json(), **matrix.to_json()}))
    else:
        print(matrix.render())
    return 0


def cmd_hessenberg(args) -> int:
    from .immanant_characters import is_abelian, is_dahlberg_small, is_preabelian
    from .jacobitrudi import NotHessenbergError, hess_prime, hessenberg_from_skew

    shape = _shape_from_args(args)
    h = hessenberg_from_skew(shape)
    try:
        prime = list(hess_prime(shape).values)
    except NotHessenbergError:
        prime = None
    payload = {
        "shape": shape.to_json(),
        "h": list(h.values),
        "h_prime": prime,
        "abelian": is_abelian(h),
        "preabelian": is_preabelian(shape) if not shape.has_empty_rows else None,
        "dahlberg_small": is_dahlberg_small(h),
    }
    if args.format == "json":
        print(_dumps(payload))
    else:
        print(f"h = {tuple(h.values)}")
        print(f"h' = {'undefined' if prime is None else tuple(prime)}")
        print(f"abelian={payload['abelian']} preabelian={payload['preabelian']} "
              f"dahlberg_small={payload['dahlberg_small']}")
    return 0


def cmd_immanant(args) -> int:
    from .jacobitrudi import immanant
    from .symfunc import _check_degree, convert

    shape = _shape_from_args(args)
    if args.basis != "h":
        _check_degree(shape.size)  # refuse before the walk, not after it
    chi = _parse_character(args.char, shape.rows)
    f = immanant(chi, shape)
    if args.basis != "h":
        f = convert(f, args.basis)
    if args.format == "json":
        print(_dumps({"shape": shape.to_json(), "char": args.char, **f.to_json()}))
    else:
        print(str(f))
    return 0


def cmd_gamma(args) -> int:
    from .immanant_characters import immanant_character

    shape = _shape_from_args(args)
    theta = parse_partition(args.theta)
    gamma = immanant_character(theta, shape)
    _print_class_function(gamma, args.format)
    return 0


def cmd_decompose(args) -> int:
    from .immanant_characters import hook_decomposition

    shape = _shape_from_args(args)
    theta = parse_partition(args.theta)
    decomp = hook_decomposition(theta, shape)
    if args.format == "json":
        print(_dumps(decomp.to_json()))
    else:
        print(f"h = {tuple(decomp.base.values)}  leg = {decomp.leg}")
        for h, mult in decomp.summands:
            print(f"{mult} x {h}")
    return 0


def cmd_verify(args) -> int:
    from .verify import SUITES, run_suites

    suites = [s.strip() for s in args.suite.split(",")]
    reports = run_suites(suites, args.max_n, args.max_size)
    payload = [r.to_json() for r in reports]
    if args.format == "json":
        print(_dumps(payload))
    else:
        for r in reports:
            status = "ok" if r.ok else f"{len(r.failures)} FAILURES"
            print(f"{r.name}: {r.instances} instances, {status}")
    if "all" in suites:
        suites = list(SUITES)
    vacuous = [name for name, r in zip(suites, reports) if r.instances == 0]
    if vacuous:
        print(f"suite {', '.join(vacuous)} ran 0 instances; nothing was checked", file=sys.stderr)
    return 0 if all(r.ok for r in reports) and not vacuous else 2


def cmd_scan(args) -> int:
    from .verify import scan_records

    for record in scan_records(args.max_n, args.max_size):
        print(_dumps(record))
    return 0


def bound(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are invalid input, not check failures
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="immanants",
        description="Exact immanant characters of Jacobi-Trudi matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shape_args(p):
        p.add_argument("--outer", required=True, help="outer partition, e.g. 3,3,3,1")
        p.add_argument("--inner", default="-", help="inner partition (default empty)")
        p.add_argument("--rows", type=int, default=None, help="row count (pads with empty rows)")

    def add_format(p):
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("kostka", help="count semistandard tableaux")
    p.add_argument("--theta", required=True)
    p.add_argument("--content", required=True)
    add_format(p)
    p.set_defaults(func=cmd_kostka)

    p = sub.add_parser("matrix", help="render the Jacobi-Trudi matrix of a shape")
    add_shape_args(p)
    add_format(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("hessenberg", help="nonzero pattern of a shape's matrix")
    add_shape_args(p)
    add_format(p)
    p.set_defaults(func=cmd_hessenberg)

    p = sub.add_parser("immanant", help="immanant of a shape's Jacobi-Trudi matrix")
    add_shape_args(p)
    p.add_argument("--char", required=True, help="sgn|triv|irr:LAM|mono:LAM|eta:LAM")
    p.add_argument("--basis", choices=("m", "h", "s", "p"), default="h")
    add_format(p)
    p.set_defaults(func=cmd_immanant)

    p = sub.add_parser("gamma", help="immanant character of a shape at theta")
    add_shape_args(p)
    p.add_argument("--theta", required=True)
    add_format(p)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("decompose", help="hook expansion into Stanley-Stembridge characters")
    add_shape_args(p)
    p.add_argument("--theta", required=True)
    add_format(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all",
                   help="comma-separated: kostka,characters,immanant,hook,reductions,positivity,all")
    p.add_argument("--max-n", type=bound, default=4, dest="max_n")
    p.add_argument("--max-size", type=bound, default=7, dest="max_size")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="stream evidence records for bounded instances")
    p.add_argument("--max-n", type=bound, default=3, dest="max_n")
    p.add_argument("--max-size", type=bound, default=5, dest="max_size")
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's exit status for --help and usage errors
        return exc.code
    except (ValueError, ArithmeticError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
