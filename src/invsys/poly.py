"""Exact multivariate polynomials over Q or F_p, with the two apolarity actions.

This module provides the value types everything else builds on: a ring
context (variable count, coefficient field, default action, degree cap),
monomials as exponent tuples, immutable sparse polynomials, a strict
parser/formatter pair, the differentiation and contraction actions of the
power-series ring R = k[[x1..xn]] on the polynomial ring S = k[x1..xn], the
rescaling map intertwining the two actions, top forms, and a reproducible
random polynomial generator.

One Poly type serves both sides of the duality: elements of R (always used
through degree-truncated frames) and elements of S.

Canonical monomial order, used for display, coordinate frames and pivot
selection alike: ascending total degree, then within a degree exponent
tuples in descending lexicographic order, so x1-heavy monomials come first
(1, x1, x2, x3, x1^2, x1*x2, x1*x3, x2^2, x2*x3, x3^2, ...).  Because degree
is the primary key, the monomials of a degree-<=D frame are a prefix of
every larger frame's.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Optional, Union

from .errors import CharacteristicError, ParseError

Monomial = tuple[int, ...]

#: Action tags: differentiation (char 0 only) and contraction (any char).
DER = "der"
CONT = "cont"
ACTIONS = (DER, CONT)

_MASK64 = (1 << 64) - 1


class Fp:
    """An element of the prime field F_p, stored as a residue in [0, p)."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def __add__(self, other: "Fp") -> "Fp":
        return Fp(self.v + other.v, self.p)

    def __sub__(self, other: "Fp") -> "Fp":
        return Fp(self.v - other.v, self.p)

    def __neg__(self) -> "Fp":
        return Fp(-self.v, self.p)

    def __mul__(self, other: "Fp") -> "Fp":
        return Fp(self.v * other.v, self.p)

    def __truediv__(self, other: "Fp") -> "Fp":
        if other.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return Fp(self.v * pow(other.v, self.p - 2, self.p), self.p)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p, self.v))

    def __bool__(self) -> bool:
        return self.v != 0

    def __repr__(self) -> str:
        return f"Fp({self.v}, {self.p})"

    def __str__(self) -> str:
        return str(self.v)


Scalar = Union[Fraction, Fp]


class RationalField:
    """The field Q; scalars are ``fractions.Fraction`` values."""

    characteristic = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def from_ratio(self, num: int, den: int) -> Fraction:
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        return Fraction(num, den)


class PrimeField:
    """The field F_p for a prime p; scalars are :class:`Fp` residues."""

    def __init__(self, p: int):
        self.p = p
        self.characteristic = p
        self.zero = Fp(0, p)
        self.one = Fp(1, p)

    def coerce(self, x) -> Fp:
        if isinstance(x, Fp):
            if x.p != self.p:
                raise TypeError(f"F_{x.p} element used in F_{self.p}")
            return x
        if isinstance(x, int):
            return Fp(x, self.p)
        if isinstance(x, Fraction):
            return self.from_ratio(x.numerator, x.denominator)
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def from_ratio(self, num: int, den: int) -> Fp:
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den % self.p == 0:
            raise ZeroDivisionError(f"denominator divisible by characteristic {self.p}")
        return Fp(num, self.p) / Fp(den, self.p)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _monomials_of_degree(nvars: int, d: int) -> Iterator[Monomial]:
    # descending lexicographic within the degree: x1^d first
    if nvars == 1:
        yield (d,)
        return
    for e in range(d, -1, -1):
        for rest in _monomials_of_degree(nvars - 1, d - e):
            yield (e,) + rest


class Ring:
    """Ambient context shared by all values of one computation.

    Records the number of variables, the coefficient field (Q or F_p), the
    default apolarity action, and the degree cap bounding Artinianity
    searches.  Also owns the canonical monomial enumeration, grown lazily,
    which assigns every monomial a global index; frames of increasing degree
    bound are prefixes of one another under this indexing.

    Instances are immutable apart from write-once enumeration caches, and
    safe to share between threads.
    """

    def __init__(
        self,
        nvars: int,
        char: int = 0,
        default_action: Optional[str] = None,
        max_degree_cap: int = 64,
    ):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if char != 0 and not _is_prime(char):
            raise ValueError(f"characteristic must be 0 or prime, got {char}")
        if max_degree_cap < 1:
            raise ValueError("degree cap must be positive")
        self.nvars = nvars
        self.char = char
        self.field = RationalField() if char == 0 else PrimeField(char)
        if default_action is None:
            default_action = DER if char == 0 else CONT
        if default_action not in ACTIONS:
            raise ValueError(f"unknown action {default_action!r}")
        if default_action == DER and char != 0:
            raise CharacteristicError("derivation action requires characteristic 0")
        self.default_action = default_action
        self.max_degree_cap = max_degree_cap
        self._by_degree: list[list[Monomial]] = [[(0,) * nvars]]
        self._flat: list[Monomial] = [(0,) * nvars]
        self._index: dict[Monomial, int] = {(0,) * nvars: 0}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Ring):
            return self.nvars == other.nvars and self.char == other.char
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nvars, self.char))

    def __repr__(self) -> str:
        k = "Q" if self.char == 0 else f"F_{self.char}"
        return f"Ring(nvars={self.nvars}, field={k})"

    def _grow(self, degree: int) -> None:
        while len(self._by_degree) <= degree:
            d = len(self._by_degree)
            level = list(_monomials_of_degree(self.nvars, d))
            for m in level:
                self._index[m] = len(self._flat)
                self._flat.append(m)
            self._by_degree.append(level)

    def monomials_of_degree(self, d: int) -> list[Monomial]:
        self._grow(d)
        return self._by_degree[d]

    def monomials_upto(self, degree: int) -> list[Monomial]:
        """All monomials of degree <= ``degree``, in canonical order."""
        self._grow(degree)
        return self._flat[: self.frame_size(degree)]

    def index_of(self, mono: Monomial) -> int:
        """Global canonical index of a monomial."""
        idx = self._index.get(mono)
        if idx is None:
            self._grow(sum(mono))
            idx = self._index[mono]
        return idx

    def monomial_at(self, index: int) -> Monomial:
        while index >= len(self._flat):
            self._grow(len(self._by_degree))
        return self._flat[index]

    def frame_size(self, degree: int) -> int:
        """dim of the span of monomials of degree <= ``degree``."""
        return math.comb(self.nvars + degree, self.nvars)


class Poly:
    """An immutable polynomial: a finite map from monomials to nonzero scalars.

    The zero polynomial has an empty term map and degree() == -1 (the
    distinguished "minus infinity" marker).  All arithmetic returns fresh
    values; no coefficient stored is ever zero, so equality of polynomials is
    equality of their term maps.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict[Monomial, Scalar]):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def zero(cls, ring: Ring) -> "Poly":
        return cls(ring, {})

    @classmethod
    def one(cls, ring: Ring) -> "Poly":
        return cls(ring, {(0,) * ring.nvars: ring.field.one})

    @classmethod
    def constant(cls, ring: Ring, c) -> "Poly":
        return cls(ring, {(0,) * ring.nvars: ring.field.coerce(c)})

    @classmethod
    def variable(cls, ring: Ring, i: int) -> "Poly":
        """The variable x_i, 1-based."""
        if not 1 <= i <= ring.nvars:
            raise ValueError(f"variable index {i} out of range 1..{ring.nvars}")
        exps = [0] * ring.nvars
        exps[i - 1] = 1
        return cls(ring, {tuple(exps): ring.field.one})

    @classmethod
    def monomial(cls, ring: Ring, mono: Monomial, coeff=None) -> "Poly":
        if len(mono) != ring.nvars:
            raise ValueError("monomial arity mismatch")
        c = ring.field.one if coeff is None else ring.field.coerce(coeff)
        return cls(ring, {tuple(mono): c})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def order(self) -> int:
        """Least total degree of a term; -1 for the zero polynomial."""
        return min((sum(m) for m in self.terms), default=-1)

    def coeff(self, mono: Monomial) -> Scalar:
        return self.terms.get(tuple(mono), self.ring.field.zero)

    def constant_term(self) -> Scalar:
        return self.coeff((0,) * self.ring.nvars)

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """Terms in canonical order (degree ascending, x1-heavy first)."""
        return sorted(
            self.terms.items(),
            key=lambda mc: (sum(mc[0]), tuple(-e for e in mc[0])),
        )

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_component(self, d: int) -> "Poly":
        return Poly(self.ring, {m: c for m, c in self.terms.items() if sum(m) == d})

    def truncated(self, degree: int) -> "Poly":
        """Drop every term of total degree > ``degree``."""
        return Poly(self.ring, {m: c for m, c in self.terms.items() if sum(m) <= degree})

    def scaled(self, c) -> "Poly":
        c = self.ring.field.coerce(c)
        if not c:
            return Poly.zero(self.ring)
        return Poly(self.ring, {m: v * c for m, v in self.terms.items()})

    def support_variables(self) -> set[int]:
        """1-based indices of variables occurring in some term."""
        used: set[int] = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i + 1)
        return used

    def _check_same_ring(self, other: "Poly") -> None:
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_same_ring(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly(self.ring, out)

    def __neg__(self) -> "Poly":
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scaled(other)
        self._check_same_ring(other)
        out: dict[Monomial, Scalar] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = tuple(a + b for a, b in zip(ma, mb))
                s = out.get(m)
                p = ca * cb
                s = p if s is None else s + p
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Poly(self.ring, out)

    def __rmul__(self, other) -> "Poly":
        return self.scaled(other)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.ring == other.ring and self.terms == other.terms
        return NotImplemented

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"


def check_action(ring: Ring, action: str) -> str:
    """Validate an action tag against the ring's characteristic."""
    if action not in ACTIONS:
        raise ValueError(f"unknown action {action!r}")
    if action == DER and ring.char != 0:
        raise CharacteristicError("derivation action requires characteristic 0")
    return action


def apply_cont(f: Poly, g: Poly) -> Poly:
    """Contraction action of f on g: x^a o x^b = x^(b-a) when b >= a, else 0.

    Valid in every characteristic.

    >>> r = Ring(3, 0)
    >>> g = parse_poly("x(1)^2*x(3)^4+x(2)^3*x(1)*x(3)+x(2)^5", r)
    >>> format_poly(apply_cont(parse_poly("x1^2", r), g))
    'x3^4'
    """
    return _apply(f, g, weighted=False)


def apply_der(f: Poly, g: Poly) -> Poly:
    """Differentiation action of f on g (characteristic 0 only).

    On monomials x^a o x^b = b!/(b-a)! * x^(b-a) when b >= a componentwise,
    else 0; extended bilinearly.

    >>> r = Ring(3, 0)
    >>> g = parse_poly("x(1)^2*x(3)^4+x(2)^3*x(1)*x(3)+x(2)^5", r)
    >>> format_poly(apply_der(parse_poly("x1^2", r), g))
    '2*x3^4'
    """
    return _apply(f, g, weighted=True)


def _apply(f: Poly, g: Poly, weighted: bool) -> Poly:
    """Bilinear x^a o x^b = w * x^(b-a) for b >= a, else 0; w = b!/(b-a)! or 1."""
    f._check_same_ring(g)
    if weighted and f.ring.char != 0:
        raise CharacteristicError("derivation action requires characteristic 0")
    out: dict[Monomial, Scalar] = {}
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            if all(b >= a for a, b in zip(ma, mb)):
                p = ca * cb
                if weighted:
                    factor = 1
                    for a, b in zip(ma, mb):
                        if a:
                            factor *= math.perm(b, a)
                    p = p * factor
                m = tuple(b - a for a, b in zip(ma, mb))
                s = out.get(m)
                s = p if s is None else s + p
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
    return Poly(f.ring, out)


def apply_action(action: str, f: Poly, g: Poly) -> Poly:
    check_action(f.ring, action)
    return apply_der(f, g) if action == DER else apply_cont(f, g)


def sigma(g: Poly) -> Poly:
    """Rescale x^a by a! = prod(a_i!); characteristic 0 only.

    Converts the differentiation module structure into the contraction one:
    sigma(f o_der g) = f o_cont sigma(g).
    """
    if g.ring.char != 0:
        raise CharacteristicError("sigma requires characteristic 0")
    out = {}
    for m, c in g.terms.items():
        factor = 1
        for e in m:
            if e > 1:
                factor *= math.factorial(e)
        out[m] = c * factor
    return Poly(g.ring, out)


def top_form(h: Poly) -> Poly:
    """The homogeneous component of h of degree deg(h); rejects h = 0."""
    if h.is_zero():
        raise ValueError("top form of the zero polynomial is undefined")
    return h.homogeneous_component(h.degree())


# ---------------------------------------------------------------------------
# parsing / formatting
#
# poly    := ['-'] term (('+'|'-') term)*
# term    := coeff ['*' factors] | factors
# factors := factor ('*' factor)*
# factor  := var ['^' nat]
# var     := 'x' nat | 'x(' nat ')'
# coeff   := nat | nat '/' nat
#
# Whitespace is ignored; '//' starts a comment running to end of line.
# ---------------------------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._skip()

    def _skip(self) -> None:
        t, n = self.text, len(self.text)
        while self.pos < n:
            c = t[self.pos]
            if c.isspace():
                self.pos += 1
            elif c == "/" and self.pos + 1 < n and t[self.pos + 1] == "/":
                while self.pos < n and t[self.pos] != "\n":
                    self.pos += 1
            else:
                break

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        c = self.peek()
        self.pos += 1
        self._skip()
        return c

    def expect(self, c: str) -> None:
        if self.peek() != c:
            raise ParseError(f"expected {c!r}", self.pos)
        self.take()

    def nat(self) -> int:
        if not self.peek().isdigit():
            raise ParseError("expected a number", self.pos)
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        value = int(self.text[start : self.pos])
        self._skip()
        return value


def parse_poly(text: str, ring: Ring) -> Poly:
    """Parse polynomial text into an exact Poly; strict about the grammar.

    Raises :class:`ParseError` with a position on any syntax problem,
    out-of-range variable index, or (over F_p) a denominator divisible by p.

    >>> r = Ring(3, 0)
    >>> format_poly(parse_poly("3/4*x(1)^2 - x2", r))
    '-x2+3/4*x1^2'
    """
    sc = _Scanner(text)
    terms: dict[Monomial, Scalar] = {}
    negative = False
    if sc.peek() == "-":
        sc.take()
        negative = True
    while True:
        coeff, mono = _parse_term(sc, ring)
        if negative:
            coeff = -coeff
        s = terms.get(mono)
        s = coeff if s is None else s + coeff
        if s:
            terms[mono] = s
        else:
            terms.pop(mono, None)
        c = sc.peek()
        if c == "":
            break
        if c == "+":
            negative = False
        elif c == "-":
            negative = True
        else:
            raise ParseError(f"expected '+' or '-', found {c!r}", sc.pos)
        sc.take()
    return Poly(ring, terms)


def _parse_term(sc: _Scanner, ring: Ring) -> tuple[Scalar, Monomial]:
    if sc.peek().isdigit():
        pos = sc.pos
        num = sc.nat()
        den = 1
        if sc.peek() == "/":
            sc.take()
            den = sc.nat()
        try:
            coeff = ring.field.from_ratio(num, den)
        except ZeroDivisionError as exc:
            raise ParseError(str(exc), pos) from None
        if sc.peek() == "*":
            sc.take()
            return coeff, _parse_factors(sc, ring)
        return coeff, (0,) * ring.nvars
    if sc.peek() == "x":
        return ring.field.one, _parse_factors(sc, ring)
    raise ParseError("expected a term", sc.pos)


def _parse_factors(sc: _Scanner, ring: Ring) -> Monomial:
    exps = [0] * ring.nvars
    while True:
        idx, e = _parse_factor(sc, ring)
        exps[idx - 1] += e
        if sc.peek() == "*":
            sc.take()
            continue
        return tuple(exps)


def _parse_factor(sc: _Scanner, ring: Ring) -> tuple[int, int]:
    if sc.peek() != "x":
        raise ParseError("expected a variable", sc.pos)
    sc.take()
    pos = sc.pos
    if sc.peek() == "(":
        sc.take()
        idx = sc.nat()
        sc.expect(")")
    else:
        idx = sc.nat()
    if not 1 <= idx <= ring.nvars:
        raise ParseError(f"variable index {idx} out of range 1..{ring.nvars}", pos)
    exp = 1
    if sc.peek() == "^":
        sc.take()
        exp = sc.nat()
    return idx, exp


def _format_monomial(mono: Monomial) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts)


def format_poly(f: Poly) -> str:
    """Canonical text form; parse_poly(format_poly(f)) == f.

    Terms appear in canonical order; over Q a negative coefficient is folded
    into the separating sign, over F_p residues print as-is.
    """
    if f.is_zero():
        return "0"
    out: list[str] = []
    for mono, c in f.sorted_terms():
        if isinstance(c, Fp):
            negative, mag = False, c
            is_one = c.v == 1
        else:
            negative = c < 0
            mag = -c if negative else c
            is_one = mag == 1
        mono_str = _format_monomial(mono)
        if mono_str:
            body = mono_str if is_one else f"{mag}*{mono_str}"
        else:
            body = str(mag)
        if not out:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f"-{body}" if negative else f"+{body}")
    return "".join(out)


# ---------------------------------------------------------------------------
# reproducible random polynomials
# ---------------------------------------------------------------------------


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return state, z


def gen_pol(ring: Ring, deg_min: int, deg_max: int, bound: int, seed: int) -> Poly:
    """Random sum of forms of degrees deg_min..deg_max, coefficients in [-bound, bound].

    Every monomial of every degree in the range independently receives a
    uniform integer coefficient (zero included).  Fully determined by the
    seed: the stream is SplitMix64 and each coefficient is drawn by rejection
    sampling (see the README for the exact recipe), so outputs are
    reproducible across platforms and releases.
    """
    if not 0 <= deg_min <= deg_max <= ring.max_degree_cap:
        raise ValueError(
            f"invalid degree range {deg_min}..{deg_max} (cap {ring.max_degree_cap})"
        )
    if bound < 0:
        raise ValueError("coefficient bound must be >= 0")
    if bound == 0:
        return Poly.zero(ring)
    state = seed & _MASK64
    span = 2 * bound + 1
    limit = (2**64 // span) * span
    terms: dict[Monomial, Scalar] = {}
    field = ring.field
    for d in range(deg_min, deg_max + 1):
        for mono in ring.monomials_of_degree(d):
            while True:
                state, u = _splitmix64(state)
                if u < limit:
                    break
            c = u % span - bound
            if c:
                terms[mono] = field.coerce(c)
    return Poly(ring, terms)
