"""Command-line interface.

Subcommands: classify, decompose, ramify, genus, symbol, table, scan.
Exit codes: 0 on success, 1 on usage errors (bad arguments or radicands),
2 on data or invariant failures (broken fixture files, table mismatches,
CAS errors).  A reader that closes the output early (``| head``) ends the
command quietly with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys

from .cas import CasConfig, CasError
from .classifier import Verdict, _decision, _necessary_form, _signature, classify
from .eisenstein import SplitKind, rational_cubic_symbol
from .fixtures import FixtureError, reproduce_table
from .genus import _genus_from_form, format_cubic
from .radicand import GerthForm, _cube_free_forms, normalize
from .ramification import _ramify_from_form

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad usage; we reserve 2 for data
    failures, so remap usage problems to 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="cubic93",
        description=(
            "Decide and explain for which radicands d the 3-class group of"
            " Q(cbrt(d), zeta_3) is of type (9, 3)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_classify = sub.add_parser("classify", help="full verdict with trace")
    p_classify.add_argument("d", type=int)
    p_classify.add_argument("--h3", type=int, default=None,
                            help="exact 3-part of the cubic field's class number")
    p_classify.add_argument("--u", type=int, choices=(1, 3), default=None,
                            help="unit index of the sextic field")
    p_classify.add_argument("--json", action="store_true")

    p_dec = sub.add_parser("decompose", help="mod-9 decomposition of d")
    p_dec.add_argument("d", type=int)

    p_ram = sub.add_parser("ramify", help="t, q*, ambiguous rank report")
    p_ram.add_argument("d", type=int)

    p_gen = sub.add_parser("genus", help="r, 3^r and the M(p) polynomials")
    p_gen.add_argument("d", type=int)

    p_sym = sub.add_parser("symbol", help="rational cubic residue symbol (a/p)_3")
    p_sym.add_argument("a", type=int)
    p_sym.add_argument("p", type=int)

    p_table = sub.add_parser("table", help="re-certify the bundled fixture table")
    p_table.add_argument("--fixtures", default=None, help="fixture file path")
    p_table.add_argument("--cas", default=None,
                         help="CAS command, e.g. 'gp -q'; recompute rows with it")

    p_scan = sub.add_parser("scan", help="all candidate radicands up to a bound")
    p_scan.add_argument("--max", type=int, required=True)
    p_scan.add_argument("--json", action="store_true")

    return parser


def _print_verdict(v: Verdict) -> None:
    print(f"d = {v.input_d}   (canonical radicand {v.d})")
    print(f"form:   {v.form.value}")
    print(f"status: {v.status.value}")
    if v.class_group is not None:
        print(f"3-class group of k: {v.class_group}")
    if v.predicted_class_group is not None:
        print(f"predicted 3-class group of k: {v.predicted_class_group}")
    if v.h_gamma3 is not None or v.u is not None:
        print(f"inputs: h_gamma3 = {v.h_gamma3}, u = {v.u}, h_k3 = {v.h_k3}")
    for r in v.reasons:
        tag = " (conjecture-backed)" if r.conjectural else ""
        print(f"reason: [{r.code.value}]{tag} {r.detail}")
    print("trace:")
    for line in v.trace:
        print(f"  - {line}")


def _cmd_classify(args: argparse.Namespace) -> int:
    v = classify(args.d, args.h3, args.u)
    if args.json:
        print(json.dumps(v.to_json_dict()))
    else:
        _print_verdict(v)
    return 0


def _normalize_noting(n: int) -> GerthForm:
    """normalize(n), with a note on stdout when a cube factor was stripped."""
    g = normalize(n)
    if g.d != n:
        print(f"note: stripped cube factor, working with d = {g.d}")
    return g


def _cmd_decompose(args: argparse.Namespace) -> int:
    g = _normalize_noting(args.d)
    print(f"d = {g.d} = {g.a} * {g.b}^2   (conjugate radicand {g.conjugate_d},"
          f" canonical {g.canonical})")
    print(f"e (power of 3): {g.e}")
    print(f"primes = 1 (mod 9):      {list(g.class1mod9)}")
    print(f"primes = 4, 7 (mod 9):   {list(g.class47mod9)}")
    print(f"primes = 8 (mod 9):      {list(g.class8mod9)}")
    print(f"primes = 2, 5 (mod 9):   {list(g.class25mod9)}")
    print(f"counts: v = {g.v}, w = {g.w}, I = {g.I}, J = {g.J}")
    return 0


def _cmd_ramify(args: argparse.Namespace) -> int:
    rep = _ramify_from_form(_normalize_noting(args.d))
    print(f"d = {rep.d}")
    print(f"ramified in the cubic field: {sorted(rep.gamma_ramified)}"
          f"   (3 ramified: {rep.three_ramified})")
    print("ramified primes of k0 in k/k0:")
    for entry in rep.k0_ramified:
        kind = "lambda" if entry.kind is SplitKind.RAMIFIED else entry.kind.value
        print(f"  - {kind:6s} above {entry.p}: {entry.element}")
    rank = rep.sigma_rank if rep.sigma_rank is not None else "unknown"
    print(f"t = {rep.t}, q* = {rep.q_star.value}, ambiguous 3-rank = {rank}")
    for note in rep.notes:
        print(f"note: {note}")
    return 0


def _cmd_genus(args: argparse.Namespace) -> int:
    rep = _genus_from_form(_normalize_noting(args.d), h_gamma3_exactly9=False)
    print(f"d = {rep.d}: r = {rep.r}, genus number 3^{rep.r} = {rep.genus_number}")
    for p, coeffs in rep.m_fields:
        print(f"M({p}): {format_cubic(coeffs)}")
    flag = {True: "yes", False: "no", None: "unknown (needs class data)"}
    print(f"genus field = Hilbert 3-class field: {flag[rep.hilbert_equals_genus]}")
    return 0


def _cmd_symbol(args: argparse.Namespace) -> int:
    value = rational_cubic_symbol(args.a, args.p)
    print(f"({args.a}/{args.p})_3 = {value.value}")
    if value.value == "1":
        print(f"{args.a} is a cubic residue modulo {args.p}")
    else:
        print(f"{args.a} is not a cubic residue modulo {args.p}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    config = CasConfig(command=tuple(shlex.split(args.cas))) if args.cas else None
    report = reproduce_table(args.fixtures, config)
    if report.skipped_reason is not None:
        print(f"table check skipped: {report.skipped_reason}")
        return 0
    for row in report.results:
        print(f"{'PASS' if row.ok else 'FAIL'}  {row.message}")
    print(report.summary)
    return 0 if report.all_ok else DATA_ERROR


def _cmd_scan(args: argparse.Namespace) -> int:
    # streamed: a Verdict is built and printed only for each candidate
    total = candidates = 0
    for g in _cube_free_forms(args.max):
        total += 1
        if _decision(_signature(g)).code is not None:
            continue
        candidates += 1
        v = _necessary_form(g)
        if args.json:
            print(json.dumps(v.to_json_dict()))
        else:
            print(f"d = {v.input_d:>8d}   canonical {v.d:>8d}   {v.form.value}")
    if not args.json:
        print(f"{total} cube-free radicands <= {args.max}:"
              f" {candidates} candidates, {total - candidates} excluded")
    return 0


_HANDLERS = {
    "classify": _cmd_classify,
    "decompose": _cmd_decompose,
    "ramify": _cmd_ramify,
    "genus": _cmd_genus,
    "symbol": _cmd_symbol,
    "table": _cmd_table,
    "scan": _cmd_scan,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        # flush here so that a closed pipe surfaces below, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # this second flush cannot fail as well
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return USAGE_ERROR
    except (FixtureError, CasError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
