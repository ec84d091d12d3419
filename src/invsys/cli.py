"""Command-line front end.

Every library operation is exposed as a subcommand with deterministic output:
byte-identical runs for identical invocations, integer verdict conventions
matching the classical tool (-2 not Artinian, -1 Artinian but failing the
property, s on success), and a JSON mode carrying the same mathematical
content as the text mode.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 precondition
violation (for example a non-Artinian input where an Artinian one is
required), 4 inconclusive (the Artinianity search exhausted the degree cap,
or a module frame exceeds it).  Output that cannot be written also exits 3
with one "error:" line, except a closed pipe: that ends the process by
SIGPIPE, as it ends other Unix filters.

One table, ``_COMMANDS``, holds a row for each of the eighteen subcommands:
its operands, flags, ring, library call, output shape and diagnostics.  One
handler, ``_run_command``, runs every row, and the parser is read off the
table.

Start-up: only the chosen subcommand is registered, the duality, elliptic
and fixtures modules are imported only by the commands that use them,
``fractions`` only to read a ``--j`` value, and ``main()`` flushes the
output and ends the process with ``os._exit``, skipping interpreter teardown.
In-process callers use ``run()``, which returns the exit code.

Generator input arguments are resolved in order: "-" reads stdin, an
existing file path reads that file, anything else is taken as inline text.
Inputs are comma- or newline-separated polynomials in the grammar of
:mod:`invsys.poly`; '//' comments and "name[k]=" prefixes are stripped, so
subcommands pipe into each other.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Callable, NamedTuple, NoReturn, Optional

from .artin import (
    IdealHandle,
    analyze_artin,
    cm_type,
    eq_ideal,
    hilbert,
    is_ag,
    is_level,
    socle_ideal,
)
from .errors import DegreeCapError, InvSysError, NotArtinError, ParseError
from .poly import CONT, DER, Poly, Ring, _int, _str, format_poly, gen_pol, parse_poly

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INCONCLUSIVE = 4

_ACTION_ALIASES = {
    "der": DER,
    "derivation": DER,
    "cont": CONT,
    "contraction": CONT,
}


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage failures exit with code 1, not 2, and
    which reads a single-dash word other than -h as an operand, so negative
    polynomials and rationals need no "--" or "=" (every other flag is long)."""

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2] not in ("", "-") and arg_string != "-h":
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------


def _resolve_input(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    if os.path.isfile(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            return fh.read()
    return arg


def _split_generators(text: str) -> list[str]:
    pieces = []
    for line in text.splitlines():
        if "//" in line:
            line = line[: line.index("//")]
        for piece in line.split(","):
            # strip "name[k]=" prefixes so command output pipes back in
            head, sep, tail = piece.partition("=")
            if sep and "[" in head and head.strip().replace("[", "").replace("]", "").replace("_", "").isalnum():
                piece = tail
            pieces.append(piece.strip())
    return [p for p in pieces if p]


def _parse_gens(arg: str, ring: Ring) -> list[Poly]:
    return [parse_poly(t, ring) for t in _split_generators(_resolve_input(arg))]


def _duality():
    """The duality module; it, elliptic and fixtures are imported only by the
    commands that use them."""
    from . import duality

    return duality


def _elliptic():
    from . import elliptic

    return elliptic


def _fixtures():
    from . import fixtures

    return fixtures


def _module(ring: Ring, gens: list[Poly]):
    return _duality().SubmoduleHandle(ring, gens)


def _single(ring: Ring, gens: list[Poly]) -> Poly:
    if len(gens) != 1:
        raise ValueError(f"expected exactly one polynomial, got {len(gens)}")
    return gens[0]


def _operand_names(count: int) -> list[str]:
    return ["input"] if count == 1 else [f"input{k + 1}" for k in range(count)]


def _make_ring(args) -> Ring:
    action = _ACTION_ALIASES[args.action] if args.action else None
    return Ring(args.vars, args.char, default_action=action, max_degree_cap=args.max_degree)


def _table_ring(args) -> Ring:
    """Q[x1, x2, x3], the cubic table's one ring, in which the --j commands answer."""
    return _elliptic()._RING


def _rational(text: str):
    """A --j value; ``fractions`` is imported only by the commands that take one.

    [sign]digits[/digits], blanks around it allowed, is read as a coefficient
    is, at any length; ``Fraction`` reads every other spelling.
    """
    from fractions import Fraction

    m = re.fullmatch(r"\s*([-+]?)(\d+)(?:/(\d+))?\s*", text)
    try:
        if m is None:
            return Fraction(text)
        num = _int(m[2])
        return Fraction(-num if m[1] == "-" else num, _int(m[3] or "1"))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


# ---------------------------------------------------------------------------
# output handling: each shape maps an answer to (JSON result, text lines),
# each diagnostics function (args, operands, answer) to the JSON diagnostics
# ---------------------------------------------------------------------------


def _emit(args, ring_desc, action, result, diagnostics, text_lines) -> None:
    if args.format == "json":
        import json  # text mode, the common case, does not load it

        doc = {
            "schemaVersion": 1,
            "command": args.command,
            "ring": ring_desc,
            "action": action,
            "result": result,
            "diagnostics": diagnostics,
        }
        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines:
            print(line)


def _artin_diagnostics(ideal: IdealHandle) -> dict:
    status = analyze_artin(ideal)
    return {
        "artin": status.artin,
        "socleDegree": status.socle_degree,
        "proven": status.proven,
        "cap": status.cap,
    }


def _input_artin(args, operands, answer) -> dict:
    return _artin_diagnostics(operands[0])


def _answer_artin(args, operands, answer) -> dict:
    return _artin_diagnostics(answer)


def _j_diagnostics(args, *_) -> dict:
    """str(j) for a rational --j of any size."""
    j = args.j
    text = ("-" if j < 0 else "") + _str(abs(j.numerator))
    return {"j": text if j.denominator == 1 else f"{text}/{_str(j.denominator)}"}


def _verdict(value) -> tuple:
    return int(value), [str(int(value))]


def _polynomial(p: Poly) -> tuple:
    text = format_poly(p)
    return {"poly": text}, [text]


def _generators(gens: list[Poly]) -> tuple:
    texts = [format_poly(g) for g in gens]
    return {"generators": texts}, [f"g[{k + 1}]={text}" for k, text in enumerate(texts)]


def _values(values: list[int]) -> tuple:
    return {"values": values}, [",".join(str(v) for v in values)]


def _colon_answer(h: Optional[Poly]) -> tuple:
    text = format_poly(h) if h is not None else "0"
    return {"exists": h is not None, "poly": text}, [text]


def _table_rows(reports) -> tuple:
    lines = []
    for k, rep in enumerate(reports):
        lines.append(f"row {k + 1} ({rep.label}): {'PASS' if rep.passed else 'FAIL'}")
        lines += [f"  failed check: {name}" for name, ok in rep.checks.items() if not ok]
    lines.append(f"{sum(r.passed for r in reports)}/{len(reports)} rows verified")
    rows = [{"label": r.label, "passed": r.passed, "checks": r.checks} for r in reports]
    return {"rows": rows, "allPassed": all(r.passed for r in reports)}, lines


def _fixture_checks(results: list[dict]) -> tuple:
    lines = [f"{c['fixture']} :: {c['name']}: {'PASS' if c['passed'] else 'FAIL'}" for c in results]
    passed = sum(c["passed"] for c in results)
    lines.append(f"{passed}/{len(results)} fixture checks passed")
    return {"checks": results, "allPassed": passed == len(results)}, lines


# ---------------------------------------------------------------------------
# the command table, its one handler, and the parser read off it
# ---------------------------------------------------------------------------

_FORMAT_FLAG = ("--format", dict(choices=["text", "json"], default="text", help="output mode (default text)"))
_RING_FLAGS = (
    ("--vars", dict(type=int, required=True, help="number of variables")),
    ("--char", dict(type=int, default=0, help="characteristic (0 or prime)")),
    ("--action", dict(choices=sorted(_ACTION_ALIASES),
                      help="module action (default: der in char 0, cont in char p)")),
    ("--max-degree", dict(type=int, default=64,
                          help="degree cap for Artinianity searches and module frames (default 64)")),
    _FORMAT_FLAG,
)
_J_FLAGS = (("--j", dict(type=_rational, required=True, help="rational j value, e.g. 5 or 6912/31")), _FORMAT_FLAG)


class _Row(NamedTuple):
    """A subcommand.  ``call`` is a lambda so that it looks up its names
    when it runs: bench/layertrace.py patches module-level names, cli's and
    those of the duality, elliptic and fixtures modules, which only the
    commands that use them import."""

    help: str
    operands: tuple  # one kind per operand: IdealHandle, _module or _single
    call: Callable  # (args, *operands) -> answer
    shape: Callable
    flags: tuple = _RING_FLAGS
    ring: Callable = _make_ring  # args -> the Ring of the operands and of the JSON "ring", or None
    action: bool = False  # the JSON "action" is the ring's default action, else null
    diagnostics: Callable = lambda *_: {}
    minus_one: bool = False  # prints -1 on a non-Artinian input before run() reports it
    verifies: bool = False  # exits 3 unless the result's "allPassed" holds


def _run_command(args) -> int:
    row = _COMMANDS[args.command]
    ring = row.ring(args)
    texts = [getattr(args, name) for name in _operand_names(len(row.operands))]
    operands = [kind(ring, _parse_gens(text, ring)) for kind, text in zip(row.operands, texts)]
    ring_desc = {"vars": ring.nvars, "char": ring.char} if ring is not None else None
    action = ring.default_action if row.action else None
    try:
        answer = row.call(args, *operands)
    except NotArtinError:
        if row.minus_one:
            # classical convention; run() reports the error and picks the exit code
            _emit(args, ring_desc, action, -1, row.diagnostics(args, operands, None), ["-1"])
        raise
    diagnostics = row.diagnostics(args, operands, answer)
    result, lines = row.shape(answer)
    _emit(args, ring_desc, action, result, diagnostics, lines)
    # only a classifier returns on an input not Artinian within the cap; other commands raise
    if not diagnostics.get("proven", True):
        cap = diagnostics["cap"]
        print(f"warning: not Artinian within degree cap {cap}; verdict inconclusive", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_PRECONDITION if row.verifies and not result["allPassed"] else EXIT_OK


_COMMANDS = {
    "is-ag": _Row("-2 not Artin / -1 not Gorenstein / socle degree",
                  (IdealHandle,), lambda args, i: is_ag(i), _verdict, diagnostics=_input_artin),
    "is-level": _Row("-2 not Artin / -1 not level / socle degree",
                     (IdealHandle,), lambda args, i: is_level(i), _verdict, diagnostics=_input_artin),
    "cm-type": _Row("Cohen-Macaulay type, -1 if not Artin",
                    (IdealHandle,), lambda args, i: cm_type(i), _verdict, diagnostics=_input_artin),
    "socle": _Row("minimal generators of the colon ideal (I : m)",
                  (IdealHandle,), lambda args, i: socle_ideal(i), _generators, diagnostics=_input_artin,
                  minus_one=True),
    "hilbert": _Row("Hilbert function of R/I",
                    (IdealHandle,), lambda args, i: hilbert(i), _values, diagnostics=_input_artin),
    "inv-syst": _Row("minimal generators of the inverse system of an Artin ideal",
                     (IdealHandle,), lambda args, i: _duality().inv_syst(i).generators, _generators,
                     action=True, diagnostics=_input_artin),
    "ideal-ann": _Row("minimal generators of the annihilator ideal of a submodule of S",
                      (_module,), lambda args, m: _duality().ideal_ann(m), lambda ann: _generators(ann.generators),
                      action=True, diagnostics=_answer_artin),
    "min-gens-ih": _Row("minimal generators of a submodule of S",
                        (_module,), lambda args, m: _duality().min_gens_ih(m), _generators, action=True),
    "eq-ideal": _Row("1 if the two Artin ideals are equal, else 0",
                     (IdealHandle, IdealHandle), lambda args, a, b: eq_ideal(a, b), _verdict),
    "member-ih": _Row("1 if the polynomial (first input) lies in the submodule (second input)",
                      (_single, _module), lambda args, g, m: _duality().member_ih(g, m), _verdict, action=True),
    "sub-mod-ih": _Row("1 if the first submodule is contained in the second", (_module, _module),
                       lambda args, a, b: _duality().sub_mod_ih(a, b), _verdict, action=True),
    "eq-mod-ih": _Row("1 if the two submodules are equal, else 0", (_module, _module),
                      lambda args, a, b: _duality().eq_mod_ih(a, b), _verdict, action=True),
    "colon": _Row("h with h o f = g for single polynomials f, g; prints 0 if none", (_single, _single),
                  lambda args, f, g: _duality().colon_inv_syst(f, g), _colon_answer, action=True),
    "gen-pol": _Row("reproducible random polynomial", (),
                    lambda args: gen_pol(_make_ring(args), args.deg_min, args.deg_max, args.bound, args.seed),
                    _polynomial, flags=_RING_FLAGS + (
                        ("--deg-min", dict(type=int, required=True)),
                        ("--deg-max", dict(type=int, required=True)),
                        ("--bound", dict(type=int, required=True, help="coefficients drawn from [-bound, bound]")),
                        ("--seed", dict(type=int, default=0)),
                    ), diagnostics=lambda args, *_: {"seed": args.seed}),
    "weierstrass-j": _Row("cubic with the given j moduli", (), lambda args: _elliptic().weierstrass_j(args.j),
                          _polynomial, flags=_J_FLAGS, ring=_table_ring, diagnostics=_j_diagnostics),
    "ideal-wj": _Row("quadric ideal whose inverse system is the j-moduli cubic", (),
                     lambda args: _elliptic().ideal_wj(args.j).generators, _generators,
                     flags=_J_FLAGS, ring=_table_ring, diagnostics=_j_diagnostics),
    "verify-classification": _Row(
        "machine-check the eight {1,3,3,1} table rows", (),
        lambda args: [_elliptic().verify_row(row) for row in _elliptic().classification_table(args.j)], _table_rows,
        flags=(("--j", dict(type=_rational, default="2", help="modulus for the generic elliptic row")), _FORMAT_FLAG),
        ring=_table_ring, action=True, diagnostics=_j_diagnostics, verifies=True),
    "replay-fixtures": _Row(
        "re-run the recorded session fixtures", (), lambda args: _fixtures().replay(args.dir), _fixture_checks,
        flags=(("--dir", dict(help="fixture directory (default: the shipped fixtures)")), _FORMAT_FLAG),
        ring=lambda args: None, verifies=True),
}


def _build_parser(chosen: Optional[str] = None) -> _Parser:
    """The parser of every subcommand, or only of ``chosen`` when it names one.

    With one subcommand registered, the metavar lists every name, so the
    usage line is the same; a parse that reaches the top-level help, a
    missing command or an invalid choice has no known ``chosen`` and so gets
    the full tree.
    """
    parser = _Parser(prog="invsys", description=__doc__.splitlines()[0])
    known = chosen in _COMMANDS
    metavar = "{" + ",".join(_COMMANDS) + "}" if known else None
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, row in _COMMANDS.items():
        if known and name != chosen:
            continue
        sub = subs.add_parser(name, help=row.help)
        for operand in _operand_names(len(row.operands)):
            sub.add_argument(operand, help="generators: inline text, a file path, or - for stdin")
        for flag, options in row.flags:
            sub.add_argument(flag, **options)
    return parser


def run(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _run_command(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotArtinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION if exc.proven else EXIT_INCONCLUSIVE
    except DegreeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (InvSysError, ValueError, ZeroDivisionError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def main() -> NoReturn:
    """Run the command line and end the process without interpreter teardown.

    A closed pipe kills the process by SIGPIPE; any other ``OSError`` that
    escapes ``run()`` or the flush, such as a full disk, is one error line and
    exit 3.  Other exceptions propagate and print their traceback.
    """
    import signal  # here, so that importing the module does not load it

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    try:
        code = run()
        if sys.stdout is not None:  # None when the descriptor was closed at start
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_PRECONDITION
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    main()
