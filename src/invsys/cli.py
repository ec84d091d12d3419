"""Command-line front end.

Every library operation is exposed as a subcommand with deterministic output:
byte-identical runs for identical invocations, integer verdict conventions
matching the classical tool (-2 not Artinian, -1 Artinian but failing the
property, s on success), and a JSON mode carrying the same mathematical
content as the text mode.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 precondition
violation (for example a non-Artinian input where an Artinian one is
required), 4 inconclusive (the Artinianity search exhausted the degree cap).

Generator input arguments are resolved in order: "-" reads stdin, an
existing file path reads that file, anything else is taken as inline text.
Inputs are comma- or newline-separated polynomials in the grammar of
:mod:`invsys.poly`; '//' comments and "name[k]=" prefixes are stripped, so
subcommands pipe into each other.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from . import fixtures as fixture_store
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
from .duality import (
    SubmoduleHandle,
    colon_inv_syst,
    eq_mod_ih,
    ideal_ann,
    inv_syst,
    member_ih,
    min_gens_ih,
    sub_mod_ih,
)
from .elliptic import classification_table, ideal_wj, verify_row, weierstrass_j
from .errors import DegreeCapError, InvSysError, NotArtinError, ParseError
from .poly import CONT, DER, Poly, Ring, format_poly, gen_pol, parse_poly

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


def _add_ring_flags(sub):
    sub.add_argument("--vars", type=int, required=True, help="number of variables")
    sub.add_argument("--char", type=int, default=0, help="characteristic (0 or prime)")
    sub.add_argument(
        "--action",
        choices=sorted(_ACTION_ALIASES),
        default=None,
        help="module action (default: der in char 0, cont in char p)",
    )
    sub.add_argument(
        "--max-degree",
        type=int,
        default=64,
        help="degree cap for Artinianity searches (default 64)",
    )
    _add_format(sub, help="output mode (default text)")


def _add_format(sub, **kw):
    sub.add_argument("--format", choices=["text", "json"], default="text", **kw)


def _build_parser() -> _Parser:
    parser = _Parser(prog="invsys", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    def cmd(name, help_text, handler, inputs=0, ring=True, extra=None):
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        for k in range(inputs):
            sub.add_argument(
                f"input{k + 1}" if inputs > 1 else "input",
                help="generators: inline text, a file path, or - for stdin",
            )
        if ring:
            _add_ring_flags(sub)
        if extra:
            extra(sub)
        if not ring:
            _add_format(sub)
        return sub

    cmd("is-ag", "-2 not Artin / -1 not Gorenstein / socle degree", _run_classifier, 1)
    cmd("is-level", "-2 not Artin / -1 not level / socle degree", _run_classifier, 1)
    cmd("cm-type", "Cohen-Macaulay type, -1 if not Artin", _run_classifier, 1)
    cmd("socle", "minimal generators of the colon ideal (I : m)", _run_socle, 1)
    cmd("hilbert", "Hilbert function of R/I", _run_hilbert, 1)
    cmd("inv-syst", "minimal generators of the inverse system of an Artin ideal", _run_inv_syst, 1)
    cmd("ideal-ann", "minimal generators of the annihilator ideal of a submodule of S", _run_ideal_ann, 1)
    cmd("min-gens-ih", "minimal generators of a submodule of S", _run_min_gens, 1)
    cmd("eq-ideal", "1 if the two Artin ideals are equal, else 0", _run_eq_ideal, 2)
    cmd("member-ih", "1 if the polynomial (first input) lies in the submodule (second input)",
        _run_module_predicate, 2)
    cmd("sub-mod-ih", "1 if the first submodule is contained in the second", _run_module_predicate, 2)
    cmd("eq-mod-ih", "1 if the two submodules are equal, else 0", _run_module_predicate, 2)
    cmd("colon", "h with h o f = g for single polynomials f, g; prints 0 if none", _run_colon, 2)

    def genpol_extra(sub):
        sub.add_argument("--deg-min", type=int, required=True)
        sub.add_argument("--deg-max", type=int, required=True)
        sub.add_argument("--bound", type=int, required=True, help="coefficients drawn from [-bound, bound]")
        sub.add_argument("--seed", type=int, default=0)

    cmd("gen-pol", "reproducible random polynomial", _run_gen_pol, extra=genpol_extra)

    def j_extra(sub):
        sub.add_argument("--j", type=Fraction, required=True, help="rational j value, e.g. 5 or 6912/31")

    def verify_extra(sub):
        sub.add_argument("--j", type=Fraction, default=Fraction(2), help="modulus for the generic elliptic row")

    def replay_extra(sub):
        sub.add_argument("--dir", default=None, help="fixture directory (default: the shipped fixtures)")

    cmd("weierstrass-j", "cubic with the given j moduli", _run_weierstrass, ring=False, extra=j_extra)
    cmd("ideal-wj", "quadric ideal whose inverse system is the j-moduli cubic", _run_ideal_wj,
        ring=False, extra=j_extra)
    cmd("verify-classification", "machine-check the eight {1,3,3,1} table rows", _run_verify_classification,
        ring=False, extra=verify_extra)
    cmd("replay-fixtures", "re-run the recorded session fixtures", _run_replay, ring=False, extra=replay_extra)
    return parser


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
    for line in text.splitlines() or [text]:
        if "//" in line:
            line = line[: line.index("//")]
        line = line.strip()
        if not line:
            continue
        # strip "name[k]=" prefixes so command output pipes back in
        head, sep, tail = line.partition("=")
        if sep and head and "[" in head and head.replace("[", "").replace("]", "").replace("_", "").isalnum():
            line = tail
        pieces.extend(p for p in line.split(",") if p.strip())
    return [p.strip() for p in pieces]


def _parse_gens(arg: str, ring: Ring) -> list[Poly]:
    return [parse_poly(t, ring) for t in _split_generators(_resolve_input(arg))]


def _parse_single(arg: str, ring: Ring) -> Poly:
    gens = _parse_gens(arg, ring)
    if len(gens) != 1:
        raise ValueError(f"expected exactly one polynomial, got {len(gens)}")
    return gens[0]


def _make_ring(args) -> Ring:
    action = _ACTION_ALIASES[args.action] if args.action else None
    return Ring(args.vars, args.char, default_action=action, max_degree_cap=args.max_degree)


# ---------------------------------------------------------------------------
# output handling
# ---------------------------------------------------------------------------


def _emit(args, ring_desc, action, result, diagnostics, text_lines) -> None:
    if getattr(args, "format", "text") == "json":
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


def _emit_gens(args, ring_desc, action, gens, diagnostics) -> int:
    result = {"generators": [format_poly(g) for g in gens]}
    lines = [f"g[{k + 1}]={text}" for k, text in enumerate(result["generators"])]
    _emit(args, ring_desc, action, result, diagnostics, lines)
    return EXIT_OK


def _artin_diagnostics(ideal: IdealHandle) -> dict:
    status = analyze_artin(ideal)
    return {
        "artin": status.artin,
        "socleDegree": status.socle_degree,
        "proven": status.proven,
        "cap": status.cap,
    }


def _verdict_exit(ideal: IdealHandle) -> int:
    """0 for any proven verdict, 4 when not-Artin rests on cap exhaustion."""
    status = analyze_artin(ideal)
    if not status.artin and not status.proven:
        print(
            f"warning: not Artinian within degree cap {status.cap}; verdict inconclusive",
            file=sys.stderr,
        )
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _ring_desc(ring: Ring) -> dict:
    return {"vars": ring.nvars, "char": ring.char}


def _run_classifier(args) -> int:
    ring = _make_ring(args)
    ideal = IdealHandle(ring, _parse_gens(args.input, ring))
    value = {"is-ag": is_ag, "is-level": is_level, "cm-type": cm_type}[args.command](ideal)
    _emit(args, _ring_desc(ring), None, value, _artin_diagnostics(ideal), [str(value)])
    return _verdict_exit(ideal)


def _run_socle(args) -> int:
    ring = _make_ring(args)
    ideal = IdealHandle(ring, _parse_gens(args.input, ring))
    try:
        gens = socle_ideal(ideal)
    except NotArtinError:
        # classical convention: print -1 for a non-Artinian input; run()
        # reports the error and picks the exit code
        _emit(args, _ring_desc(ring), None, -1, _artin_diagnostics(ideal), ["-1"])
        raise
    return _emit_gens(args, _ring_desc(ring), None, gens, _artin_diagnostics(ideal))


def _run_hilbert(args) -> int:
    ring = _make_ring(args)
    ideal = IdealHandle(ring, _parse_gens(args.input, ring))
    values = hilbert(ideal)
    text = ",".join(str(v) for v in values)
    _emit(args, _ring_desc(ring), None, {"values": values}, _artin_diagnostics(ideal), [text])
    return EXIT_OK


def _run_inv_syst(args) -> int:
    ring = _make_ring(args)
    ideal = IdealHandle(ring, _parse_gens(args.input, ring))
    module = inv_syst(ideal)
    return _emit_gens(
        args, _ring_desc(ring), ring.default_action, module.generators, _artin_diagnostics(ideal)
    )


def _run_ideal_ann(args) -> int:
    ring = _make_ring(args)
    ann = ideal_ann(SubmoduleHandle(ring, _parse_gens(args.input, ring)))
    return _emit_gens(
        args, _ring_desc(ring), ring.default_action, ann.generators, _artin_diagnostics(ann)
    )


def _run_min_gens(args) -> int:
    ring = _make_ring(args)
    module = SubmoduleHandle(ring, _parse_gens(args.input, ring))
    return _emit_gens(args, _ring_desc(ring), ring.default_action, min_gens_ih(module), {})


def _run_eq_ideal(args) -> int:
    ring = _make_ring(args)
    a = IdealHandle(ring, _parse_gens(args.input1, ring))
    b = IdealHandle(ring, _parse_gens(args.input2, ring))
    value = int(eq_ideal(a, b))
    _emit(args, _ring_desc(ring), None, value, {}, [str(value)])
    return EXIT_OK


def _run_module_predicate(args) -> int:
    ring = _make_ring(args)
    if args.command == "member-ih":
        g = _parse_single(args.input1, ring)
        value = int(member_ih(g, SubmoduleHandle(ring, _parse_gens(args.input2, ring))))
    else:
        a = SubmoduleHandle(ring, _parse_gens(args.input1, ring))
        b = SubmoduleHandle(ring, _parse_gens(args.input2, ring))
        value = int(sub_mod_ih(a, b) if args.command == "sub-mod-ih" else eq_mod_ih(a, b))
    _emit(args, _ring_desc(ring), ring.default_action, value, {}, [str(value)])
    return EXIT_OK


def _run_colon(args) -> int:
    ring = _make_ring(args)
    f = _parse_single(args.input1, ring)
    g = _parse_single(args.input2, ring)
    h = colon_inv_syst(f, g)
    text = format_poly(h) if h is not None else "0"
    result = {"exists": h is not None, "poly": text}
    _emit(args, _ring_desc(ring), ring.default_action, result, {}, [text])
    return EXIT_OK


def _run_gen_pol(args) -> int:
    ring = _make_ring(args)
    text = format_poly(gen_pol(ring, args.deg_min, args.deg_max, args.bound, args.seed))
    _emit(args, _ring_desc(ring), None, {"poly": text}, {"seed": args.seed}, [text])
    return EXIT_OK


def _run_weierstrass(args) -> int:
    p = weierstrass_j(args.j)
    _emit(args, {"vars": 3, "char": 0}, None, {"poly": format_poly(p)}, {"j": str(args.j)}, [format_poly(p)])
    return EXIT_OK


def _run_ideal_wj(args) -> int:
    gens = ideal_wj(args.j).generators
    return _emit_gens(args, {"vars": 3, "char": 0}, None, gens, {"j": str(args.j)})


def _run_verify_classification(args) -> int:
    rows = classification_table(args.j)
    reports = [verify_row(row) for row in rows]
    lines = []
    for k, rep in enumerate(reports):
        verdict = "PASS" if rep.passed else "FAIL"
        lines.append(f"row {k + 1} ({rep.label}): {verdict}")
        if not rep.passed:
            for name, ok in rep.checks.items():
                if not ok:
                    lines.append(f"  failed check: {name}")
    all_passed = all(r.passed for r in reports)
    lines.append(f"{sum(r.passed for r in reports)}/{len(reports)} rows verified")
    result = {
        "rows": [{"label": r.label, "passed": r.passed, "checks": r.checks} for r in reports],
        "allPassed": all_passed,
    }
    _emit(args, {"vars": 3, "char": 0}, DER, result, {"j": str(args.j)}, lines)
    return EXIT_OK if all_passed else EXIT_PRECONDITION


def _run_replay(args) -> int:
    results = fixture_store.replay(args.dir)
    lines = []
    for item in results:
        verdict = "PASS" if item["passed"] else "FAIL"
        lines.append(f"{item['fixture']} :: {item['name']}: {verdict}")
    passed = sum(1 for item in results if item["passed"])
    all_passed = passed == len(results)
    lines.append(f"{passed}/{len(results)} fixture checks passed")
    result = {"checks": results, "allPassed": all_passed}
    _emit(args, None, None, result, {}, lines)
    return EXIT_OK if all_passed else EXIT_PRECONDITION


def run(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
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


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
