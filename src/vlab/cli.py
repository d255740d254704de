"""Command-line front end.

Commands: bounds (the comparison table), sequence (best approximation
records to JSON), oracle (single brute-force minimization), graph
(successive-minima export), verify (margin report on a stored sequence).

Exit codes: 0 success, 1 domain error (a file that cannot be read or
written, and running out of memory, among them), 2 usage error.  With
--format json an exit-1 error is also emitted as a JSON object on stderr.
All outputs are byte-deterministic for identical inputs.

Parsing: each command declares its arguments once, in one function that
``build_parser`` calls for that command's subparser.  A command line that
starts with a command name is parsed by a parser for that command alone,
named ``vlab NAME`` as its subparser is; if it parses with no token left
over, that is the result (``vlab NAME --help`` is printed by it too, the
same text from the same prog and arguments).  Every other command line (no
command, ``vlab --help``, --version, an unknown command or token, any usage
error) goes to the full parser of ``build_parser``, which prints its help
or its error and exits.  A command's parser is built on its first use and
kept for the life of the process, so many ``run`` calls in one process build
it once; none is built at import.  Sharing it is safe: ``parse_known_args``
only reads the parser and writes the fresh namespace each call hands it,
every action is one of argparse's own, and every default is None or an
immutable scalar, so no call can leave state for the next.  The full parser
is built afresh each time it is needed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .bestapprox import best_approx_sequence, derive_exponents, min_poly_at_height
from .bestapprox.records import SequenceData, ball_to_json
from .bounds import bounds_table, format_table_csv, format_table_json, format_table_text
from .errors import UnsupportedSpec, VlabError
from .polyalg import enrich_independence
from .paramgeom import (MinimaSweep, combined_graph_csv, default_q_grid, graph_svg,
                        shifted_frame, successive_minima_exact,
                        successive_minima_pool)
from .realspec import parse_xi, real_from_spec
from .verify import full_report, report_json_bytes

DEFAULT_PRECISION = 192


def _write_output(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_sequence(path: str) -> SequenceData:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return SequenceData.from_json(json.load(fh))
        except (KeyError, TypeError, ValueError, UnsupportedSpec) as exc:
            raise VlabError(f"{path} is not a vlab sequence file "
                            f"({type(exc).__name__}: {exc})") from None


def _number(convert, lo=-math.inf):
    """argparse type: a ``convert(text)`` >= lo whose float is finite (an
    int or Fraction too large for a float is not); anything else is a usage
    error (exit 2)."""
    def parse(text: str):
        try:
            value = convert(text)
            finite = lo <= value and math.isfinite(value)
        except (ValueError, ZeroDivisionError, OverflowError):
            finite = False
        if not finite:
            bound = "" if lo == -math.inf else f" >= {lo}"
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a finite {convert.__name__}{bound}")
        return value
    return parse


def _bounds_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-min", type=_number(int, 2), default=2,
                   help="first degree (default 2)")
    p.add_argument("--n-max", type=_number(int, 2), default=9,
                   help="last degree (default 9)")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text",
                   help="output format (default: text)")
    p.add_argument("--out", help="output path (default stdout)")


def _sequence_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--xi", required=True,
                   help="xi spec: sqrt:K | cbrt:K | root:K:J | dec:DIGITS | "
                        "rat:P/Q | const:e|pi|ln2 | cf:a0,a1,...")
    p.add_argument("--n", type=_number(int, 1), required=True,
                   help="polynomial degree cap")
    p.add_argument("--max-height", type=_number(int, 1), default=None,
                   help="height limit (defaults per n: 10^4/500/60/25, then the "
                        "largest height <= 10 whose box fits the box budget)")
    p.add_argument("--precision-bits", type=_number(int, 16), default=DEFAULT_PRECISION,
                   help=f"working precision (default {DEFAULT_PRECISION})")
    p.add_argument("--out", help="output path for the sequence JSON (default stdout)")


def _oracle_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--xi", required=True, help="xi spec (see sequence)")
    p.add_argument("--n", type=_number(int, 1), required=True)
    p.add_argument("--height", type=_number(int, 1), required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", help="output path (default stdout)")


def _graph_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seq", required=True, help="sequence JSON from 'sequence'")
    p.add_argument("--mode", choices=["exact", "pool"], default="pool",
                   help="exact minima (enumerated) or pool upper bounds "
                        "(shifted frame; default)")
    grid = p.add_mutually_exclusive_group()
    # the grid starts at q = 1, so a smaller end would leave it empty
    grid.add_argument("--q-max", type=_number(float, 1), default=10.0,
                      help="end of the geometric grid 1, 5/4, (5/4)^2, ... (default 10)")
    q_value = _number(Fraction, 0)
    grid.add_argument("--q-list", type=lambda text: [q_value(q) for q in text.split(",")],
                      help="comma-separated q values in place of the grid")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--svg", help="optional SVG rendering path")


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seq", required=True, help="sequence JSON from 'sequence'")
    p.add_argument("--slack", type=_number(float), default=0.05,
                   help="slack for asymptotic margins (default 0.05)")
    p.add_argument("--no-lemma31", action="store_true",
                   help="skip the enumeration-heavy last-minimum check")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", help="output path (default stdout)")


#: command name -> (its line in the full help, the function adding its arguments)
_ARGUMENTS = {
    "bounds": ("emit the bound-constant table", _bounds_arguments),
    "sequence": ("compute best approximation records for (xi, n)", _sequence_arguments),
    "oracle": ("brute-force minimizer of |P(xi)| at one height", _oracle_arguments),
    "graph": ("successive-minima graph data for a stored sequence", _graph_arguments),
    "verify": ("margin report for a stored sequence", _verify_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlab",
        description="Verified laboratory for uniform polynomial approximation "
                    "on Veronese curves.")
    parser.add_argument("--version", action="version", version=f"vlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _ARGUMENTS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


class _UsageError(Exception):
    """A usage error of one command's parser, left to the full parser."""


class _CommandParser(argparse.ArgumentParser):
    """One command's parser, as ``build_parser`` makes it for that command,
    except that a usage error is raised, not printed."""

    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _command_parser(name: str) -> _CommandParser:
    """The parser of command ``name``, built once per process: the full
    parser names its subparser ``vlab NAME``."""
    parser = _CommandParser(prog=f"vlab {name}")
    _ARGUMENTS[name][1](parser)
    return parser


def _parse(argv) -> argparse.Namespace:
    """The namespace of ``build_parser().parse_args(argv)``, built from the
    command's own parser when that parses ``argv`` with nothing left over:
    the full parser hands its subparser every token after the name."""
    if argv and argv[0] in _ARGUMENTS:
        try:
            args, extra = _command_parser(argv[0]).parse_known_args(
                argv[1:], argparse.Namespace(command=argv[0]))
        except _UsageError:
            extra = True
        if not extra:
            return args
    return build_parser().parse_args(argv)


def _cmd_bounds(args) -> int:
    rows = bounds_table(args.n_min, args.n_max)
    if args.format == "csv":
        _write_output(format_table_csv(rows), args.out)
    elif args.format == "json":
        _write_output(json.dumps(format_table_json(rows), indent=1, sort_keys=True)
                      + "\n", args.out)
    else:
        _write_output(format_table_text(rows), args.out)
    return 0


def _cmd_sequence(args) -> int:
    spec = parse_xi(args.xi)
    seq = best_approx_sequence(spec, args.n, args.max_height,
                               precision_bits=args.precision_bits)
    derive_exponents(seq)
    if len(seq.records) >= 3:
        enrich_independence(seq)
    _write_output(json.dumps(seq.to_json(), indent=1, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_oracle(args) -> int:
    spec = parse_xi(args.xi)
    # the search refines xi from the spec to the precision each comparison needs
    xi = real_from_spec(spec, DEFAULT_PRECISION)
    poly, value = min_poly_at_height(xi, args.n, args.height, spec=spec)
    if args.format == "json":
        obj = {"coeffs": list(poly.coeffs), "height": poly.height(),
               "abs_value": ball_to_json(value.compress(96))}
        _write_output(json.dumps(obj, indent=1, sort_keys=True) + "\n", args.out)
    else:
        _write_output(
            f"minimizer at height <= {args.height}: {poly.pretty()}\n"
            f"|P(xi)| = {float(value):.12e} (radius {float(value.rad):.2e})\n",
            args.out)
    return 0


def _cmd_graph(args) -> int:
    seq = _load_sequence(args.seq)
    if seq.n < 2:
        raise VlabError("graph mode needs n >= 2 (the ambient space degenerates at n=1)")
    if args.q_list:
        qs = args.q_list
    else:
        qs = default_q_grid(Fraction(args.q_max).limit_denominator(10**6))
    xi = real_from_spec(seq.xi_spec, seq.precision_bits + 64)
    frame = shifted_frame(seq, xi)
    # the exact minima at every q share one sweep of their q-free work
    sweep = MinimaSweep(frame.xi, seq.n) if args.mode == "exact" else None
    minima = []
    for q in qs:
        if args.mode == "exact":
            minima.append(successive_minima_exact(sweep, q))
        else:
            values, incomplete = successive_minima_pool(frame, q)
            if incomplete:
                raise VlabError(
                    "pool cannot span the ambient space; compute a longer sequence")
            minima.append(values)
    header_note = "" if args.mode == "exact" else "# pool upper bounds, shifted frame\n"
    _write_output(header_note + combined_graph_csv(qs, minima, seq.n), args.out)
    if args.svg:
        _write_output(graph_svg(qs, minima, seq.n), args.svg)
    return 0


def _cmd_verify(args) -> int:
    seq = _load_sequence(args.seq)
    # the decimal the float prints: a finite decimal, as the JSON report needs
    slack = Fraction(repr(args.slack))
    report = full_report(seq, slack=slack, lemma31=not args.no_lemma31)
    if args.format == "json":
        _write_output(report_json_bytes(report).decode() + "\n", args.out)
    else:
        _write_output(report.to_text(), args.out)
    return 0


_COMMANDS = {
    "bounds": _cmd_bounds,
    "sequence": _cmd_sequence,
    "oracle": _cmd_oracle,
    "graph": _cmd_graph,
    "verify": _cmd_verify,
}


def run(argv) -> int:
    args = _parse(argv)
    if args.command == "bounds" and args.n_min > args.n_max:
        build_parser().error("--n-min must not exceed --n-max")
    try:
        return _COMMANDS[args.command](args)
    except (VlabError, OSError) as exc:
        return _fail(args, type(exc).__name__, str(exc))
    except MemoryError as exc:
        # a backstop: a walk that outgrows the process's memory cap ends
        # like a refusal, not in a traceback
        return _fail(args, "MemoryError", str(exc) or "out of memory")


def _fail(args, error: str, message: str) -> int:
    """Report an exit-1 error on stderr, as JSON under --format json."""
    if getattr(args, "format", "text") == "json":
        sys.stderr.write(json.dumps({"error": error, "message": message}) + "\n")
    else:
        sys.stderr.write(f"error: {message}\n")
    return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
