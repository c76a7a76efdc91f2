"""Command-line surface.

Subcommands:

* ``expand``  - run the expansion pipeline for a catalog knot and emit the
  D-table, line table, integrality report and approximants.
* ``torus``   - generate certified lines of a (p, q) torus knot.
* ``verify``  - run a verification suite against the embedded golden data;
  exits nonzero on any failure.
* ``catalog`` - validate and list a knot catalog.

The default catalog is embedded; ``--catalog`` or the MMJONES_CATALOG
environment variable select an external JSON file.  Reports are JSON by
default (rationals as exact strings), with a TSV export for line tables.

Each subcommand imports the modules it runs when it runs, so ``torus`` and
``catalog`` never load the braid pipeline (``cjones``, ``mmexpand``,
``verify``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import __version__, reports
from .exactalg import GateError
from .golden import SUITES
from .knots import (
    CatalogError,
    KnotError,
    TorusParams,
    catalog_lookup,
    conway_torus,
    default_catalog,
    load_catalog,
)

CATALOG_ENV = "MMJONES_CATALOG"
DEFAULT_ORDER_CEILING = 6
# Exit status when a runtime gate (operator inverse, Markov trace, closure
# cut, integrality, exact arithmetic, bottom line, amphicheiral ht parity,
# torus line parity or integrality) fails, that is on any GateError; input
# errors exit with 1.
EXIT_GATE_FAILED = 3
# Fixed ceilings on the torus inputs, well above every tabulated, tested and
# benchmarked value (|p|, |q| <= 9, 10 z-terms, 6 lines); the (19, 20) knot
# at 8 lines already runs for over a minute on a 2-vCPU VM.  The line
# ceiling bounds --max-lines: on the same VM (3, 5) takes 1.05 s at 32
# lines and 5.9 s at 48, and (9, 10) at 32 lines runs for over 4 minutes.
TORUS_INDEX_CEILING = 16
Z_TERMS_CEILING = 256
MAX_LINES_CEILING = 32
# Joint ceiling on a torus request: lines^2 (|p| - 1)(|q| - 1), the line
# count squared times the degree of the Conway polynomial.  Each flag under
# its own ceiling still allows (15, 16) at 32 lines (215,040), which runs
# for over 4 minutes.  Measured on a 2-vCPU VM: (5, 6) at 16 lines (5,120)
# 0.7 s, (3, 5) at 32 lines (8,192) 1.5 s, (13, 14) at 8 lines (9,984)
# 5.8 s, (15, 16) at 7 lines (10,290) 10 s, (11, 12) at 10 lines (11,000)
# 6.3 s; over the ceiling, (13, 14) at 9 lines (12,636) 10 s and (15, 16)
# at 8 lines (13,440) 17 s.  Tests, golden tables and the benchmark ask
# for at most 128 ((3, 5) at 4 lines).
TORUS_WORK_CEILING = 12_000
# Fixed ceiling on expand --max-order, twice the largest golden budget
# (N = 12): on a 2-vCPU VM 3_1, the cheapest knot, takes 3.2 s at N = 16
# and 55 s (114 MB) at N = 24, and 6_1 takes 15 s at N = 12.
MAX_ORDER_CEILING = 24


def _int_between(text: str, low: int, high: Optional[int] = None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    if high is not None and value > high:
        raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_between(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_between(text, 0)


def _torus_index(text: str) -> int:
    return _int_between(text, -TORUS_INDEX_CEILING, TORUS_INDEX_CEILING)


def _z_terms(text: str) -> int:
    return _int_between(text, 0, Z_TERMS_CEILING)


def _max_lines(text: str) -> int:
    return _int_between(text, 0, MAX_LINES_CEILING)


def _max_order(text: str) -> int:
    return _int_between(text, 1, MAX_ORDER_CEILING)


def _load_records(path: Optional[str]):
    path = path or os.environ.get(CATALOG_ENV)
    if path:
        return load_catalog(path)
    return default_catalog()


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_expand(args) -> int:
    from .mmexpand import build_dtable

    records = _load_records(args.catalog)
    rec = catalog_lookup(records, args.knot)
    if args.order > args.max_order:
        raise SystemExit(
            f"error: order {args.order} exceeds the ceiling {args.max_order} "
            "(raise it with --max-order)"
        )
    d = build_dtable(rec, args.order)
    # build_dtable names the knot on its own gates; so do the routes after it
    try:
        _emit_expansion(args, rec, d)
    except GateError as exc:
        raise type(exc)(f"{rec.name}: {exc}") from exc
    return 0


def _emit_expansion(args, rec, d) -> None:
    """The lines of the D-table ``d`` of ``rec``, as TSV or as the full JSON report.

    Either format is gated on the bottom line: 1/Conway is a theorem, so a
    failure raises :class:`ModelViolationError` naming the failing orders.
    The ``ht`` lines of a record marked amphicheiral are gated on their odd
    rows, which V(q) = V(1/q) makes vanish; the first nonzero one is named.
    """
    from .mmexpand import (
        ModelViolationError,
        _allowed_exponents,
        approx_poly,
        bottom_line_check,
        integrality_report,
        to_htilde_lines,
        to_z_lines,
    )

    bottom = bottom_line_check(d, rec.conway)
    if not bottom.passed:
        raise ModelViolationError(
            "the bottom line times the Conway polynomial is not 1 at the z-orders "
            f"{list(bottom.line_route_failures)} (line route) and "
            f"{list(bottom.substitution_route_failures)} (substitution route)"
        )
    lines = to_z_lines(d) if args.parameter == "h" else to_htilde_lines(d)
    if args.parameter == "ht" and rec.amphicheiral:
        odd = next((n for n in range(1, 2 * d.N + 1, 2) if any(lines.row(n))), None)
        if odd is not None:
            raise ModelViolationError(
                f"the knot is marked amphicheiral, but its ht line {odd} is not zero"
            )
    if args.format == "tsv":
        _emit(reports.linetable_tsv(lines), args.out)
        return
    mode = args.exponent_mode
    if mode == "auto":
        mode = "2n+1" if args.parameter == "h" else "3n+1"
    picked = slice(None, 1) if mode == "2n+1" else slice(1, None)
    approx = []
    top = 2 * d.N if args.lines is None else min(args.lines, 2 * d.N)
    for n in range(top + 1):
        for exponent in _allowed_exponents(n)[picked]:
            approx.append(reports.approx_doc(approx_poly(lines, rec.conway, n, exponent)))
    doc = {
        "schema": "mmjones.expand/1",
        "knot": rec.name,
        "order": d.N,
        "parameter": args.parameter,
        "amphicheiral": rec.amphicheiral,
        "conway": reports.qpoly_doc(rec.conway),
        "dtable": reports.dtable_doc(d),
        "lines": reports.linetable_doc(lines),
        "bottom_line": reports.bottom_line_doc(bottom),
        "integrality": reports.integrality_doc(
            integrality_report(lines, rec.amphicheiral)
        ),
        "approx": approx,
    }
    _emit(reports.dump_json(doc), args.out)


def cmd_torus(args) -> int:
    from .toruslines import torus_lines

    t = TorusParams(args.p, args.q)
    if args.lines > args.max_lines:
        raise SystemExit(
            f"error: {args.lines} lines exceed the ceiling {args.max_lines} "
            "(raise it with --max-lines)"
        )
    lines = torus_lines(t, args.lines)
    doc = {
        "schema": "mmjones.torus/1",
        "p": t.p,
        "q": t.q,
        "conway": reports.qpoly_doc(conway_torus(t)),
        "lines": [
            {
                "n": lf.n,
                "numerator": reports.qpoly_doc(lf.numerator),
                "denominator_power": 2 * lf.n + 1,
                "series": [
                    reports.frac_str(c)
                    for c in lf.series_coeffs(2 * args.z_terms)
                ][::2],
            }
            for lf in lines
        ],
    }
    _emit(reports.dump_json(doc), args.out)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite

    records = _load_records(args.catalog)
    results = run_suite(args.suite, scope=args.scope, records=records)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        doc = {
            "schema": "mmjones.verify/1",
            "suite": args.suite,
            "scope": args.scope,
            "passed": not failed,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
        }
        _emit(reports.dump_json(doc), args.out)
    else:
        lines = []
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            suffix = f"  ({r.detail})" if r.detail else ""
            lines.append(f"{status} {r.name}{suffix}")
        lines.append(
            f"{len(results) - len(failed)}/{len(results)} checks passed"
        )
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


def cmd_catalog(args) -> int:
    try:
        records = _load_records(args.path)
    except (CatalogError, KnotError, OSError) as exc:
        sys.stderr.write(f"catalog invalid: {exc}\n")
        return 1
    doc = {
        "schema": "mmjones.catalog/1",
        "entries": [
            {
                "name": r.name,
                "strands": r.braid.strands,
                "braid": list(r.braid.letters),
                "writhe": r.braid.writhe(),
                "amphicheiral": r.amphicheiral,
                "conway": reports.qpoly_doc(r.conway),
            }
            for r in records
        ],
    }
    _emit(reports.dump_json(doc), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmjones",
        description="Exact colored Jones expansions and torus-knot lines",
    )
    parser.add_argument("--version", action="version", version=f"mmjones {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="expansion pipeline for a catalog knot")
    p_expand.add_argument("--knot", required=True)
    p_expand.add_argument("--order", type=_positive_int, required=True, metavar="N")
    p_expand.add_argument("--parameter", choices=("h", "ht"), default="h")
    p_expand.add_argument("--format", choices=("json", "tsv"), default="json")
    p_expand.add_argument("--out", default=None, metavar="PATH")
    p_expand.add_argument("--catalog", default=None, metavar="FILE")
    p_expand.add_argument("--lines", type=_non_negative_int, default=None, metavar="L",
                          help="emit approximants only for lines n <= L")
    p_expand.add_argument("--exponent-mode", choices=("auto", "2n+1", "3n+1"),
                          default="auto")
    p_expand.add_argument("--max-order", type=_max_order, default=DEFAULT_ORDER_CEILING,
                          help="runtime ceiling on N (default %(default)s, "
                               f"at most {MAX_ORDER_CEILING})")
    p_expand.set_defaults(func=cmd_expand)

    p_torus = sub.add_parser("torus", help="certified lines of a torus knot")
    p_torus.add_argument("--p", type=_torus_index, required=True,
                         help=f"|p| <= {TORUS_INDEX_CEILING}")
    p_torus.add_argument("--q", type=_torus_index, required=True,
                         help=f"|q| <= {TORUS_INDEX_CEILING}")
    p_torus.add_argument("--lines", type=_non_negative_int, required=True, metavar="L")
    p_torus.add_argument("--z-terms", type=_z_terms, default=8,
                         help="number of even series coefficients to emit "
                              f"(at most {Z_TERMS_CEILING})")
    p_torus.add_argument("--max-lines", type=_max_lines, default=8,
                         help=f"runtime ceiling on L (default %(default)s, at most {MAX_LINES_CEILING})")
    p_torus.add_argument("--format", choices=("json",), default="json")
    p_torus.add_argument("--out", default=None, metavar="PATH")
    p_torus.set_defaults(func=cmd_torus)

    p_verify = sub.add_parser("verify", help="run a golden verification suite")
    p_verify.add_argument("--suite", choices=SUITES, required=True)
    p_verify.add_argument("--scope", choices=("small", "full"), default="small")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", default=None, metavar="PATH")
    p_verify.add_argument("--catalog", default=None, metavar="FILE")
    p_verify.set_defaults(func=cmd_verify)

    p_catalog = sub.add_parser("catalog", help="validate and list a knot catalog")
    p_catalog.add_argument("--path", default=None, metavar="FILE")
    p_catalog.add_argument("--out", default=None, metavar="PATH")
    p_catalog.set_defaults(func=cmd_catalog)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "torus":
        work = args.lines ** 2 * (abs(args.p) - 1) * (abs(args.q) - 1)
        if work > TORUS_WORK_CEILING:
            parser.error(
                f"--p {args.p}, --q {args.q} and --lines {args.lines} ask for "
                f"lines^2 (|p|-1)(|q|-1) = {work}, over the joint ceiling {TORUS_WORK_CEILING}"
            )
    try:
        return args.func(args)
    except (KnotError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except GateError as exc:
        sys.stderr.write(f"error: gate {type(exc).__name__} failed: {exc}\n")
        return EXIT_GATE_FAILED


if __name__ == "__main__":
    sys.exit(main())
