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
every larger frame's, and each monomial has one global index.

A Poly is its coordinate vector: ``vec`` maps the global index of a monomial
to a nonzero int, and the coefficient there is vec[k] / den for one positive
int ``den``.  Over F_p, den is 1 and the entries are residues in [0, p); over
Q, gcd(den, entries) = 1.  Both forms are unique, so equality of polynomials
is literal equality, and ``vec`` is the integral vector that
:mod:`invsys.linalg` eliminates, a positive multiple of the polynomial.
"""

from __future__ import annotations

import math
import threading
from typing import Container, Iterator, Optional

from .errors import CharacteristicError, ParseError

Monomial = tuple[int, ...]

#: Action tags: differentiation (char 0 only) and contraction (any char).
DER = "der"
CONT = "cont"
ACTIONS = (DER, CONT)

_MASK64 = (1 << 64) - 1


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above the exact bound."""
    if p >= _PRIME_TEST_BOUND:
        raise ValueError(f"characteristic must be below {_PRIME_TEST_BOUND} to be tested for primality")
    if p < 2 or any(p % a == 0 for a in _PRIME_BASES):
        return p in _PRIME_BASES
    # p - 1 = d * 2^r with d odd; p is a strong probable prime to base a iff
    # a^d = 1 or a^(d * 2^j) = -1 for some j < r
    r = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> r
    return all(
        pow(a, d, p) == 1 or any(pow(a, d << j, p) == p - 1 for j in range(r))
        for a in _PRIME_BASES
    )


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

    Records the number of variables, the characteristic (0 or a prime p),
    the default apolarity action, and the degree cap bounding Artinianity
    searches.  Also owns the canonical monomial enumeration, grown lazily,
    which assigns every monomial a global index; frames of increasing degree
    bound are prefixes of one another under this indexing.  On it the ring
    grows its raise, lower and a! tables, only as far as a caller asks.  A
    monomial beyond the enumeration is ranked by counting, so a polynomial
    of high degree does not grow it.

    Instances are immutable apart from write-once enumeration and table
    caches, and safe to share between threads.
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
        if default_action is None:
            default_action = DER if char == 0 else CONT
        if default_action not in ACTIONS:
            raise ValueError(f"unknown action {default_action!r}")
        if default_action == DER and char != 0:
            raise CharacteristicError("derivation action requires characteristic 0")
        self.default_action = default_action
        self.max_degree_cap = max_degree_cap
        self._flat: list[Monomial] = [(0,) * nvars]
        self._index: dict[Monomial, int] = {(0,) * nvars: 0}
        self._raise: list[list[int]] = [[] for _ in range(nvars)]
        self._lower: list[list[Optional[tuple[int, int]]]] = [[] for _ in range(nvars)]
        self._weight: list[int] = []
        self._grow_lock = threading.Lock()

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
        """Enumerate through ``degree``.  One thread grows at a time, and each
        level is published index first, flat list next, so a reader that sees
        a level also sees its indices."""
        size = self.frame_size(degree)
        if len(self._flat) >= size:
            return
        with self._grow_lock:
            while (start := len(self._flat)) < size:
                level = list(_monomials_of_degree(self.nvars, sum(self._flat[-1]) + 1))
                self._index.update((m, start + k) for k, m in enumerate(level))
                self._flat.extend(level)

    def _grow_tables(self, degree: int) -> None:
        """Fill the three tables through the <=degree frame.  One thread grows
        them at a time, weights last, so a reader that sees entry k of the
        weights sees it in all three."""
        size = self.frame_size(degree)
        if len(self._weight) >= size:
            return
        self._grow(degree + 1)  # raising the top degree reaches the next one
        with self._grow_lock:
            monos, index = self._flat[len(self._weight) : size], self._index
            for i, up in enumerate(self._raise):
                up.extend([index[m[:i] + (m[i] + 1,) + m[i + 1 :]] for m in monos])
            for i, down in enumerate(self._lower):
                down.extend([(index[m[:i] + (m[i] - 1,) + m[i + 1 :]], m[i]) if m[i] else None for m in monos])
            self._weight.extend([math.prod(map(math.factorial, m)) for m in monos])

    def raise_table(self, degree: int) -> list[list[int]]:
        """up[i][k] is the index of x_(i+1) * m_k, m_k the monomial at index
        k; this and the other tables cover at least the <=degree frame."""
        self._grow_tables(degree)
        return self._raise

    def lower_table(self, degree: int) -> list[list[Optional[tuple[int, int]]]]:
        """down[i][k] is (the index of m_k / x_(i+1), the exponent e of
        x_(i+1) in m_k), or None when e = 0."""
        self._grow_tables(degree)
        return self._lower

    def weight_table(self, degree: int) -> list[int]:
        """w[k] is a! = prod(a_i!) for m_k = x^a."""
        self._grow_tables(degree)
        return self._weight

    def monomials_of_degree(self, d: int) -> list[Monomial]:
        self._grow(d)
        return self._flat[self.frame_size(d - 1) : self.frame_size(d)]

    def monomials_upto(self, degree: int) -> list[Monomial]:
        """All monomials of degree <= ``degree``, in canonical order."""
        self._grow(degree)
        return self._flat[: self.frame_size(degree)]

    def index_of(self, mono: Monomial) -> int:
        """Global canonical index of a monomial: those of lower degree come
        first, then those of its degree with a lexicographically larger
        exponent tuple."""
        idx = self._index.get(mono)
        if idx is not None:
            return idx
        n, rest = self.nvars, sum(mono)
        idx = self.frame_size(rest - 1)
        for i, e in enumerate(mono[:-1]):
            # those that agree before x_(i+1) and exceed e there
            if rest > e:
                idx += math.comb(rest - e - 2 + n - i, n - 1 - i)
            rest -= e
        return idx

    def monomial_at(self, index: int) -> Monomial:
        flat = self._flat
        if index < len(flat):
            return flat[index]
        n, rest = self.nvars, self.degree_at(index)
        index -= self.frame_size(rest - 1)
        mono = []
        for i in range(n - 1):
            # blocks of equal exponent e of x_(i+1), largest e first
            e = rest
            while index >= (block := math.comb(rest - e + n - 2 - i, n - 2 - i)):
                index -= block
                e -= 1
            mono.append(e)
            rest -= e
        return tuple(mono) + (rest,)

    def degree_at(self, index: int) -> int:
        """Total degree of the monomial at ``index``: the least d whose frame
        holds more than ``index`` monomials."""
        if index < len(self._flat):
            return sum(self._flat[index])
        lo, hi = 0, 1
        while self.frame_size(hi) <= index:
            lo, hi = hi + 1, 2 * hi
        while lo < hi:
            mid = (lo + hi) // 2
            if self.frame_size(mid) > index:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def frame_size(self, degree: int) -> int:
        """dim of the span of monomials of degree <= ``degree``; 0 below 0."""
        return math.comb(self.nvars + degree, self.nvars) if degree >= 0 else 0


def _normal(char: int, vec: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """The unique (vec, den) of the coefficients vec[k] / den: int entries,
    zeros allowed, and den > 0, which is 1 over F_p."""
    if char:
        return {k: r for k, c in vec.items() if (r := c % char)}, 1
    vec = {k: c for k, c in vec.items() if c}
    if den == 1 or not vec:
        return vec, 1
    g = math.gcd(den, *vec.values())
    if g == 1:
        return vec, den
    return {k: c // g for k, c in vec.items()}, den // g


def _poly(ring: Ring, vec: dict[int, int], den: int = 1) -> "Poly":
    """The Poly with coefficient vec[k] / den at index k; see ``_normal``."""
    out = object.__new__(Poly)
    out.ring = ring
    out.vec, out.den = _normal(ring.char, vec, den)
    return out


def _from_ratios(ring: Ring, items: list[tuple[int, int, int]]) -> "Poly":
    """The sum of (num / den) * m_k over the items (k, num, den), den > 0
    and prime to the characteristic."""
    p = ring.char
    den = 1 if p else math.lcm(*(b for _, _, b in items))
    vec: dict[int, int] = {}
    for k, a, b in items:
        vec[k] = vec.get(k, 0) + (a * pow(b, -1, p) if p else a * (den // b))
    return _poly(ring, vec, den)


class Poly:
    """An immutable polynomial, held as its coordinate vector ``vec`` over
    one denominator ``den`` (see the module docstring).

    ``Poly(ring, terms)`` takes a map from exponent tuples to ints or
    rationals (any value with ``numerator`` and ``denominator``); over F_p
    each is reduced mod p.  The zero polynomial has an empty vector and
    degree() == -1 (the distinguished "minus infinity" marker).  All
    arithmetic returns fresh values.
    """

    __slots__ = ("ring", "vec", "den")

    def __init__(self, ring: Ring, terms: dict):
        index = ring.index_of
        made = _from_ratios(ring, [(index(m), c.numerator, c.denominator) for m, c in terms.items() if c])
        self.ring, self.vec, self.den = ring, made.vec, made.den

    @property
    def terms(self) -> dict[Monomial, int]:
        """A fresh map from exponent tuple to entry: the coefficient of x^m
        is terms[m] / den, so over F_p it is the residue itself."""
        at = self.ring.monomial_at
        return {at(k): c for k, c in self.vec.items()}

    @classmethod
    def zero(cls, ring: Ring) -> "Poly":
        return _poly(ring, {})

    @classmethod
    def one(cls, ring: Ring) -> "Poly":
        return _poly(ring, {0: 1})

    @classmethod
    def variable(cls, ring: Ring, i: int) -> "Poly":
        """The variable x_i, 1-based."""
        if not 1 <= i <= ring.nvars:
            raise ValueError(f"variable index {i} out of range 1..{ring.nvars}")
        return _poly(ring, {i: 1})

    @classmethod
    def monomial(cls, ring: Ring, mono: Monomial, coeff=1) -> "Poly":
        if len(mono) != ring.nvars:
            raise ValueError("monomial arity mismatch")
        return cls(ring, {tuple(mono): coeff})

    def is_zero(self) -> bool:
        return not self.vec

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return self.ring.degree_at(max(self.vec)) if self.vec else -1

    def order(self) -> int:
        """Least total degree of a term; -1 for the zero polynomial."""
        return self.ring.degree_at(min(self.vec)) if self.vec else -1

    def coeff(self, mono: Monomial) -> int:
        """The entry at x^mono: the coefficient times ``den``."""
        return self.vec.get(self.ring.index_of(tuple(mono)), 0)

    def constant_term(self) -> int:
        return self.vec.get(0, 0)

    def is_homogeneous(self) -> bool:
        return self.degree() == self.order()

    def _between(self, lo: int, hi: int) -> "Poly":
        return _poly(self.ring, {k: c for k, c in self.vec.items() if lo <= k < hi}, self.den)

    def homogeneous_component(self, d: int) -> "Poly":
        return self._between(self.ring.frame_size(d - 1), self.ring.frame_size(d))

    def truncated(self, degree: int) -> "Poly":
        """Drop every term of total degree > ``degree``."""
        return self._between(0, self.ring.frame_size(degree))

    def scaled(self, c) -> "Poly":
        """c * self for an int or rational c."""
        p = self.ring.char
        a = c.numerator * pow(c.denominator, -1, p) if p else c.numerator
        return _poly(self.ring, {k: v * a for k, v in self.vec.items()}, 1 if p else self.den * c.denominator)

    def _check_same_ring(self, other: "Poly") -> None:
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_same_ring(other)
        den = math.lcm(self.den, other.den)
        out = {k: c * (den // self.den) for k, c in self.vec.items()}
        b = den // other.den
        for k, c in other.vec.items():
            out[k] = out.get(k, 0) + c * b
        return _poly(self.ring, out, den)

    def __neg__(self) -> "Poly":
        return _poly(self.ring, {k: -c for k, c in self.vec.items()}, self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scaled(other)
        self._check_same_ring(other)
        at, index = self.ring.monomial_at, self.ring.index_of
        out: dict[int, int] = {}
        for i, a in self.vec.items():
            mi = at(i)
            for j, b in other.vec.items():
                k = index(tuple(x + y for x, y in zip(mi, at(j))))
                out[k] = out.get(k, 0) + a * b
        return _poly(self.ring, out, self.den * other.den)

    def __rmul__(self, other) -> "Poly":
        return self.scaled(other)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.ring == other.ring and self.den == other.den and self.vec == other.vec
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


def _lowered(
    down: list[Optional[tuple[int, int]]], vec: dict[int, int], weighted: bool, skip: Container[int] = ()
) -> dict[int, int]:
    """x_i o vec from x_i's entries in the ring's lower table, without the
    coordinates in ``skip``: under differentiation the exponent multiplies,
    under contraction nothing does."""
    out = {}
    for j, c in vec.items():
        ke = down[j]
        if ke is not None:
            k, e = ke
            if k not in skip:
                out[k] = c * e if weighted and e != 1 else c
    return out


def _apply(f: Poly, g: Poly, weighted: bool) -> Poly:
    """Bilinear x^a o x^b = w * x^(b-a) for b >= a, else 0; w = b!/(b-a)! or 1.

    Term by term: each pair of exponent tuples is read by ``monomial_at`` and
    the difference ranked by ``index_of``, which count past the enumeration,
    so a sparse g of high degree does not grow the ring's tables.
    """
    f._check_same_ring(g)
    ring = f.ring
    if weighted and ring.char != 0:
        raise CharacteristicError("derivation action requires characteristic 0")
    at, index = ring.monomial_at, ring.index_of
    g_terms = [(at(k), c) for k, c in g.vec.items()]
    out: dict[int, int] = {}
    for i, a in f.vec.items():
        ma = at(i)
        for mb, c in g_terms:
            rest = tuple(y - x for x, y in zip(ma, mb))
            if min(rest) < 0:
                continue
            if weighted:
                c *= math.prod(math.perm(y, x) for x, y in zip(ma, mb) if x)
            k = index(rest)
            out[k] = out.get(k, 0) + a * c
    return _poly(ring, out, f.den * g.den)


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
    # per term, not from the weight table: g may be sparse in a large frame
    at = g.ring.monomial_at
    return _poly(g.ring, {k: c * math.prod(map(math.factorial, at(k))) for k, c in g.vec.items()}, g.den)


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
    items = []
    negative = False
    if sc.peek() == "-":
        sc.take()
        negative = True
    while True:
        num, den, mono = _parse_term(sc, ring)
        items.append((ring.index_of(mono), -num if negative else num, den))
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
    return _from_ratios(ring, items)


def _parse_term(sc: _Scanner, ring: Ring) -> tuple[int, int, Monomial]:
    if sc.peek().isdigit():
        pos = sc.pos
        num = sc.nat()
        den = 1
        if sc.peek() == "/":
            sc.take()
            den = sc.nat()
        if den == 0:
            raise ParseError("zero denominator", pos)
        if ring.char and den % ring.char == 0:
            raise ParseError(f"denominator divisible by characteristic {ring.char}", pos)
        if sc.peek() == "*":
            sc.take()
            return num, den, _parse_factors(sc, ring)
        return num, den, (0,) * ring.nvars
    if sc.peek() == "x":
        return 1, 1, _parse_factors(sc, ring)
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

    Terms appear in index order, which is the canonical order; over Q a
    coefficient prints in lowest terms with its sign folded into the
    separating sign, over F_p residues print as-is.
    """
    if f.is_zero():
        return "0"
    char, den, at = f.ring.char, f.den, f.ring.monomial_at
    out: list[str] = []
    for k in sorted(f.vec):
        c = f.vec[k]
        negative = c < 0
        g = math.gcd(c, den)
        num, d = abs(c) // g, den // g
        mag = str(num) if d == 1 else f"{num}/{d}"
        mono_str = _format_monomial(at(k))
        if not mono_str:
            body = mag
        elif num == d == 1:
            body = mono_str
        else:
            body = f"{mag}*{mono_str}"
        out.append(f"-{body}" if negative else f"+{body}" if out else body)
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
    vec: dict[int, int] = {}
    # the monomials of the degree range, in canonical order, are one index range
    for k in range(ring.frame_size(deg_min - 1), ring.frame_size(deg_max)):
        while True:
            state, u = _splitmix64(state)
            if u < limit:
                break
        vec[k] = u % span - bound
    return _poly(ring, vec)
