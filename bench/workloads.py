"""The benchmark's workloads: seeded command sequences and their checks.

Each workload is a fixed list of ``invsys`` commands built from one seed.
Generated polynomials are written to files and passed by path (never as an
argv string: a polynomial that starts with ``-`` is read by argparse as a
flag, see README.md).  Commands that read an earlier command's output name
that output file, so a session is a closed loop run by one client.

Every command carries the exit codes it may return and, where the mathematics
gives one, an independent check of its stdout.  The default seed additionally
has recorded exit codes and stdout digests (``expected.json``).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

DEFAULT_SEED = 7
HELD_OUT_SEED = 1009

WORKLOADS = ("grid_q", "grid_fp", "deep_socle", "cli_session")

GRID = ((3, 4), (4, 4), (4, 5), (5, 4))
FP = 32003

# Sparse complete intersections in three variables and their socle degrees.
DEEP_CIS = (
    ("x1^5+x2^4*x3, x2^6+x1^3*x3^2, x3^7+x1^2*x2^3", 16),
    ("x1^6-x2^6+x3^6, x1*x2^4+x3^5, x2^7+x1^3*x3^3-x1^7", 14),
)
NON_ARTIN_QUERIES = 3
NON_ARTIN_CAP = 5
# gen_pol seeds of the never-Artinian generators are NON_ARTIN_BASE + 3q + k.
NON_ARTIN_BASE = DEFAULT_SEED

README_IDEAL = "x1^2+x2^3, x2^4+x1^2, x3^2+x1*x2"
MONOMIAL_CI = "x1^2, x2^2, x3^2"


@dataclass
class Command:
    """One CLI invocation.

    ``argv`` follows the program name; an item ``@name`` is replaced by the
    path of work file ``name``.  ``stdin`` names a work file fed on standard
    input, ``out`` the work file that receives standard output.
    """

    label: str
    argv: list[str]
    exits: tuple[int, ...] = (0,)
    check: Optional[Callable[[str], bool]] = None
    stdin: Optional[str] = None
    out: Optional[str] = None


@dataclass
class Session:
    """A workload instance: its input files and its command sequence."""

    workload: str
    seed: int
    inputs: dict[str, str] = field(default_factory=dict)
    commands: list[Command] = field(default_factory=list)


# ---------------------------------------------------------------------------
# stdout parsing for the math checks (independent of the program's parser)
# ---------------------------------------------------------------------------

_VAR = re.compile(r"x(\d+)(?:\^(\d+))?")


def generator_texts(stdout: str) -> list[str]:
    """Polynomials of a ``g[k]=...`` listing, in order."""
    out = []
    for line in stdout.splitlines():
        head, sep, tail = line.partition("=")
        if sep and head.startswith("g["):
            out.append(tail)
    return out


def poly_degree(text: str) -> int:
    """Total degree of a polynomial in the CLI's text form."""
    best = -1
    for term in re.split(r"[+-]", text):
        if term:
            best = max(best, sum(int(e or 1) for _, e in _VAR.findall(term)))
    return best


def _prints(value) -> Callable[[str], bool]:
    return lambda out: out.strip() == str(value)


def _single_generator_of_degree(d: int) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        gens = generator_texts(out)
        return len(gens) == 1 and poly_degree(gens[0]) == d

    return check


def _generators_nonempty(out: str) -> bool:
    gens = generator_texts(out)
    return bool(gens) and all(gens)


def _hilbert_starts(nvars: int, socle_degree: int) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        try:
            values = [int(v) for v in out.strip().split(",")]
        except ValueError:
            return False
        return (
            len(values) == socle_degree + 1
            and values[:2] == [1, nvars]
            and all(v > 0 for v in values)
        )

    return check


def _all_pass(summary: str) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        lines = out.strip().splitlines()
        return bool(lines) and lines[-1] == summary and "FAIL" not in out

    return check


def _replay_all_pass(out: str) -> bool:
    lines = out.strip().splitlines()
    if not lines:
        return False
    m = re.fullmatch(r"(\d+)/(\d+) fixture checks passed", lines[-1])
    return (
        m is not None
        and m.group(1) == m.group(2)
        and int(m.group(2)) == len(lines) - 1
        and all(line.endswith(": PASS") for line in lines[:-1])
    )


# ---------------------------------------------------------------------------
# workload builders
# ---------------------------------------------------------------------------


def _grid(seed: int, char: int) -> Session:
    from invsys import Ring, format_poly, gen_pol

    name = "grid_q" if char == 0 else "grid_fp"
    sess = Session(name, seed)
    ring_flags = [] if char == 0 else ["--char", str(char), "--action", "cont"]
    for n, d in GRID:
        tag = f"n{n}d{d}"
        f = gen_pol(Ring(n, char), d, d, 3, seed)
        sess.inputs[f"{tag}_F"] = format_poly(f) + "\n"
        flags = ["--vars", str(n)] + ring_flags
        cmds = [
            Command(f"{tag}:ideal-ann", ["ideal-ann", *flags, f"@{tag}_F"],
                    check=_generators_nonempty, out=f"{tag}_ann"),
            Command(f"{tag}:is-ag", ["is-ag", *flags, f"@{tag}_ann"], check=_prints(d)),
            Command(f"{tag}:socle", ["socle", *flags, f"@{tag}_ann"], check=_generators_nonempty),
            Command(f"{tag}:inv-syst", ["inv-syst", *flags, f"@{tag}_ann"],
                    check=_single_generator_of_degree(d), out=f"{tag}_inv"),
            Command(f"{tag}:is-level", ["is-level", *flags, f"@{tag}_ann"], check=_prints(d)),
            Command(f"{tag}:eq-mod-ih", ["eq-mod-ih", *flags, f"@{tag}_inv", f"@{tag}_F"],
                    check=_prints(1)),
        ]
        sess.commands.extend(cmds)
    return sess


def _signed_coordinates(text: str, nvars: int, rng: random.Random) -> str:
    """The ideal under x_i -> +-x_i and each generator times +-1.

    A signed change of coordinates is an automorphism of R, so socle degree,
    Hilbert function and the Gorenstein property are unchanged, and so is the
    sparsity pattern the program works on; only the printed signs differ.
    """
    from invsys import Poly, Ring, format_poly, parse_poly

    ring = Ring(nvars, 0)
    flips = [rng.choice((1, -1)) for _ in range(nvars)]
    out = []
    for g in text.split(","):
        p = parse_poly(g, ring)
        k = rng.choice((1, -1))
        terms = {}
        for mono, c in p.terms.items():
            sign = k
            for i, e in enumerate(mono):
                if e % 2 and flips[i] < 0:
                    sign = -sign
            terms[mono] = c * sign
        out.append(format_poly(Poly(ring, terms)))
    return ", ".join(out) + "\n"


def _deep_socle(seed: int) -> Session:
    from invsys import Ring, format_poly, gen_pol

    sess = Session("deep_socle", seed)
    rng = random.Random(seed)
    for k, (text, s) in enumerate(DEEP_CIS):
        tag = f"ci{k + 1}"
        sess.inputs[tag] = _signed_coordinates(text, 3, rng)
        flags = ["--vars", "3"]
        sess.commands.extend(
            [
                Command(f"{tag}:is-ag", ["is-ag", *flags, f"@{tag}"], check=_prints(s)),
                Command(f"{tag}:socle", ["socle", *flags, f"@{tag}"], check=_generators_nonempty),
                Command(f"{tag}:hilbert", ["hilbert", *flags, f"@{tag}"], check=_hilbert_starts(3, s)),
                Command(f"{tag}:inv-syst", ["inv-syst", *flags, f"@{tag}"],
                        check=_single_generator_of_degree(s)),
                Command(f"{tag}:is-level", ["is-level", *flags, f"@{tag}"], check=_prints(s)),
            ]
        )
    # Three generators in four variables: never Artinian (Krull).  The program
    # may prove it (exit 0) or exhaust the degree cap (exit 4); both print -2.
    # The generators are fixed and the seed changes coordinates, as for the
    # complete intersections: the cost of a random generator's coefficients
    # varies by a factor of two from one gen_pol seed to another.
    ring = Ring(4, 0)
    for q in range(NON_ARTIN_QUERIES):
        tag = f"nonartin{q + 1}"
        gens = [gen_pol(ring, 2, 3, 3, NON_ARTIN_BASE + 3 * q + k) for k in (1, 2, 3)]
        sess.inputs[tag] = _signed_coordinates(", ".join(format_poly(g) for g in gens), 4, rng)
        sess.commands.append(
            Command(f"{tag}:is-ag", ["is-ag", "--vars", "4", "--max-degree", str(NON_ARTIN_CAP), f"@{tag}"],
                    exits=(4, 0), check=_prints(-2))
        )
    return sess


def _random_j(rng: random.Random) -> str:
    """A rational modulus away from the special values 0 and 1728."""
    num = rng.choice([k for k in range(-50, 51) if k])
    den = rng.randint(1, 9)
    return f"{num}/{den}" if den > 1 else str(num)


def _cli_session(seed: int) -> Session:
    from invsys import Ring, apply_der, format_poly, gen_pol, Poly

    sess = Session("cli_session", seed)
    rng = random.Random(seed)
    j = _random_j(rng)
    ring = Ring(3, 0)
    f = gen_pol(ring, 3, 4, 3, seed)
    d = f.degree()
    partials = [apply_der(Poly.variable(ring, i), f) for i in (1, 2, 3)]
    partials = [p for p in partials if not p.is_zero()]
    sess.inputs["F"] = format_poly(f) + "\n"
    sess.inputs["dF1"] = format_poly(partials[0]) + "\n"
    sess.inputs["dF"] = "\n".join(format_poly(p) for p in partials) + "\n"
    sess.inputs["F_dF1"] = format_poly(f) + "\n" + format_poly(partials[0]) + "\n"
    sess.inputs["bad"] = "x1^2+*x2\n"
    v3 = ["--vars", "3"]
    p5 = ["--vars", "3", "--char", "5", "--action", "cont"]
    C = Command
    sess.commands = [
        # README quick start
        C("readme:is-ag", ["is-ag", *v3, README_IDEAL], check=_prints(4)),
        C("readme:socle", ["socle", *v3, MONOMIAL_CI], check=_generators_nonempty),
        C("readme:inv-syst", ["inv-syst", *v3, MONOMIAL_CI], check=_single_generator_of_degree(3)),
        C("readme:ideal-wj", ["ideal-wj", f"--j={j}"], check=_generators_nonempty, out="Ij"),
        C("readme:is-ag-stdin", ["is-ag", *v3, "-"], check=_prints(3), stdin="Ij"),
        C("readme:hilbert-p5", ["hilbert", *p5, MONOMIAL_CI], check=_prints("1,3,3,1")),
        C("readme:verify-classification", ["verify-classification"], check=_all_pass("8/8 rows verified")),
        C("readme:replay-fixtures", ["replay-fixtures"], check=_replay_all_pass),
        C("cm-type:monomial", ["cm-type", *v3, MONOMIAL_CI], check=_prints(1)),
        C("is-level:readme", ["is-level", *v3, MONOMIAL_CI], check=_prints(3)),
        # the elliptic family at the seeded modulus
        C("weierstrass-j", ["weierstrass-j", f"--j={j}"],
          check=lambda out: poly_degree(out.strip()) == 3, out="Wj"),
        C("wj:ideal-ann", ["ideal-ann", *v3, "@Wj"], check=_generators_nonempty, out="annW"),
        C("wj:eq-ideal", ["eq-ideal", *v3, "@annW", "@Ij"], check=_prints(1)),
        C("wj:is-ag", ["is-ag", *v3, "@annW"], check=_prints(3)),
        C("wj:cm-type", ["cm-type", *v3, "@annW"], check=_prints(1)),
        C("wj:hilbert", ["hilbert", *v3, "@annW"], check=_prints("1,3,3,1")),
        C("wj:inv-syst", ["inv-syst", *v3, "@Ij"], check=_single_generator_of_degree(3), out="invIj"),
        C("wj:eq-mod-ih", ["eq-mod-ih", *v3, "@invIj", "@Wj"], check=_prints(1)),
        # a generated polynomial and its first partials
        C("gen-pol", ["gen-pol", *v3, "--deg-min", "3", "--deg-max", "4", "--bound", "3", "--seed", str(seed)],
          check=lambda out, t=sess.inputs["F"]: out == t),
        C("F:ideal-ann", ["ideal-ann", *v3, "@F"], check=_generators_nonempty, out="annF"),
        C("F:is-level", ["is-level", *v3, "@annF"], check=_prints(d)),
        C("F:min-gens-ih", ["min-gens-ih", *v3, "@F_dF1"], check=_single_generator_of_degree(d)),
        C("F:member-ih", ["member-ih", *v3, "@dF1", "@F"], check=_prints(1)),
        C("F:sub-mod-ih", ["sub-mod-ih", *v3, "@dF", "@F"], check=_prints(1)),
        C("F:sub-mod-ih-rev", ["sub-mod-ih", *v3, "@F", "@dF"], check=_prints(0)),
        C("F:eq-mod-ih", ["eq-mod-ih", *v3, "@F_dF1", "@F"], check=_prints(1)),
        C("F:colon", ["colon", *v3, "@F", "@dF1"], check=lambda out: out.strip() not in ("", "0")),
        C("F:colon-none", ["colon", *v3, "@dF1", "@F"], check=_prints(0)),
        # a generated polynomial over F_5 with contraction
        C("p5:gen-pol", ["gen-pol", *p5, "--deg-min", "3", "--deg-max", "3", "--bound", "2", "--seed", str(seed)],
          check=lambda out: poly_degree(out.strip()) == 3, out="G"),
        C("p5:ideal-ann", ["ideal-ann", *p5, "@G"], check=_generators_nonempty, out="annG"),
        C("p5:is-ag", ["is-ag", *p5, "@annG"], check=_prints(3)),
        # error paths
        C("error:parse", ["is-ag", *v3, "@bad"], exits=(2,), check=lambda out: out == ""),
        C("error:usage", ["is-ag", MONOMIAL_CI], exits=(1,), check=lambda out: out == ""),
    ]
    return sess


def build(workload: str, seed: int) -> Session:
    """The session of ``workload`` for ``seed``."""
    if workload == "grid_q":
        return _grid(seed, 0)
    if workload == "grid_fp":
        return _grid(seed, FP)
    if workload == "deep_socle":
        return _deep_socle(seed)
    if workload == "cli_session":
        return _cli_session(seed)
    raise ValueError(f"unknown workload {workload!r}")
