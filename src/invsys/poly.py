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
import re
import threading
from bisect import bisect_left
from itertools import compress
from typing import Callable, Container, Optional

from .errors import CharacteristicError, DegreeCapError, ParseError

Monomial = tuple[int, ...]

#: Action tags: differentiation (char 0 only) and contraction (any char).
DER = "der"
CONT = "cont"
ACTIONS = (DER, CONT)

_MASK64 = (1 << 64) - 1

# the most monomials Ring.check_degree lets a frame enumerate: x_i^6 in six
# variables needs 2760681
_FRAME_BUDGET = 3 * 10**6


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


def _next_degree(layer: list, n: int, d: int, step: Callable[[int, list], list]) -> list:
    """The degree-(d + 1) layer of the canonical order in n variables, from
    ``layer``, the degree-d one: block i, counted from 0, is
    ``step(i, block)``, x_(i+1) times each item of ``block`` in turn, for
    ``block`` the last C(d + n - 1 - i, d) items of ``layer``.  An item is a
    monomial or anything that x_(i+1) acts on as on its monomial.

    The last C(d + n - 1 - i, d) monomials of degree d are those free of
    x_1..x_i, since any other one is larger: at its first nonzero exponent
    it exceeds them, and they agree before it.  Each monomial of degree
    d + 1 lies in the block of its first variable x_(i+1), as x_(i+1) times
    its quotient by x_(i+1), which is free of x_1..x_i; so x_(i+1) maps
    those monomials one-to-one onto block i.  The blocks come in order, as
    a monomial of block i is nonzero at x_(i+1) and one of a later block is
    zero there and before.  And x_(i+1) keeps the order within a block: for
    m != m' of one degree, m > m' iff x_(i+1)*m > x_(i+1)*m', since both
    pairs first differ at the same coordinate and by the same amount.
    """
    out: list = []
    for i in range(n):
        out += step(i, layer[len(layer) - math.comb(d + n - 1 - i, d) :])
    return out


def _least(k: int, index: int) -> int:
    """The least t >= 0 with comb(t + k, k) > ``index`` >= 0, with O(log t)
    binomials: gallop u = t + k - 1 up from k - 1 while comb(u, k) <= index,
    then halve the step."""
    comb, u, step = math.comb, k - 1, 1
    while comb(u + step, k) <= index:
        u, step = u + step, 2 * step
    while step > 1:
        step //= 2
        if comb(u + step, k) <= index:
            u += step
    return u + 1 - k


class Ring:
    """Ambient context shared by all values of one computation.

    Records the number of variables, the characteristic (0 or a prime p),
    the default apolarity action, and the degree cap bounding Artinianity
    searches.  Also owns the canonical monomial enumeration, which assigns
    every monomial a global index; frames of increasing degree bound are
    prefixes of one another under this indexing.  Every monomial is ranked
    by counting, with one search (``_least``) for its degree and one per
    exponent, so a polynomial of high degree, or one in many variables, does
    not grow the enumeration.  One growth step extends the enumeration and
    the raise table on it together, only as far as a caller asks: it
    builds each degree's monomials from the degree below (``_next_degree``)
    and reads the table off positions in the order.  The table holds
    indices only; a number that belongs to a monomial, such as an exponent
    or a!, is read off its exponent tuple.
    ``check_degree`` bounds every frame by the degree cap and by a budget on
    its enumeration, and the constructor refuses, before it allocates
    anything, a variable count whose degree-1 frame is over that budget.

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
        if nvars + 1 > _FRAME_BUDGET:
            raise DegreeCapError(
                f"{_str(nvars)} variables need a frame of {_str(nvars + 1)} monomials in degree 1,"
                f" over the frame budget {_FRAME_BUDGET}"
            )
        if char != 0 and not _is_prime(char):
            raise ValueError(f"characteristic must be 0 or prime, got {_str(char)}")
        if max_degree_cap < 1:
            raise ValueError("degree cap must be positive")
        self.nvars = nvars
        self.char = char
        if default_action is None:
            default_action = DER if char == 0 else CONT
        self.default_action = check_action(self, default_action)
        self.max_degree_cap = max_degree_cap
        self._flat: list[Monomial] = [(0,) * nvars]
        self._raise: list[list[int]] = []
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
        """Enumerate through ``degree + 1``, since raising the top degree
        reaches the next one, and fill the raise table through ``degree``.

        The layer for degree d first builds degree d + 1's monomials from
        degree d's by ``_next_degree``.  Then it reads the table off
        positions, with no lookup.  m -> x_i*m keeps the order within a
        degree (see ``_next_degree``) and maps degree d one-to-one onto the
        monomials of degree d + 1 whose x_i exponent is nonzero, each of
        which is x_i times its quotient by x_i.  So over degree d, raise[i]
        lists those monomials' indices in order; as degrees ascend, raise[i]
        is strictly increasing.

        One thread grows at a time, creates the table at its first growth,
        and publishes flat list, then raise, so a reader that sees entry k
        of the last raise list sees it in every one and sees the monomials
        they index."""
        if self._raise and len(self._raise[-1]) >= self.frame_size(degree):
            return

        def times(i: int, monos: list[Monomial]) -> list[Monomial]:
            return [m[:i] + (m[i] + 1,) + m[i + 1 :] for m in monos]

        with self._grow_lock:
            if not self._raise:
                self._raise = [[] for _ in range(self.nvars)]
            for d in range(self.degree_at(len(self._raise[-1])), degree + 1):
                b, c, e = (self.frame_size(d + s) for s in (-1, 0, 1))
                nxt = _next_degree(self._flat[b:c], self.nvars, d, times)
                self._flat += nxt
                # one int object per index for all n lists: Ring(6, 0)'s
                # raise_table(30) peaks near 700 MB without it, 420 MB with
                # it (CPython 3.11 on x86-64)
                above = list(range(c, e))
                for i, up in enumerate(self._raise):
                    up.extend(compress(above, [m[i] for m in nxt]))

    def raise_table(self, degree: int) -> list[list[int]]:
        """up[i][k] is the index of x_(i+1) * m_k, m_k the monomial at index
        k, for at least the <=degree frame."""
        self._grow(degree)
        return self._raise

    def monomials_of_degree(self, d: int) -> list[Monomial]:
        self._grow(d - 1)
        return self._flat[self.frame_size(d - 1) : self.frame_size(d)]

    def index_of(self, mono: Monomial) -> int:
        """Global canonical index of a monomial, by counting: those of lower
        degree come first, then those of its degree with a lexicographically
        larger exponent tuple.  ValueError unless ``mono`` has one
        nonnegative exponent per variable."""
        n = self.nvars
        if len(mono) != n or min(mono) < 0:
            raise ValueError(f"{mono!r} is not a monomial: need arity {n} and nonnegative exponents")
        rest = sum(mono)
        idx = self.frame_size(rest - 1)
        for i, e in enumerate(mono[:-1]):
            # those that agree before x_(i+1) and exceed e there
            if rest > e:
                idx += math.comb(rest - e - 2 + n - i, n - 1 - i)
            rest -= e
        return idx

    def monomial_at(self, index: int) -> Monomial:
        """The monomial at ``index``, off the enumeration where it reaches
        and else by counting, with O(log d) binomials per exponent.
        ValueError if ``index`` < 0."""
        flat = self._flat
        if 0 <= index < len(flat):
            return flat[index]
        n, rest = self.nvars, self.degree_at(index)
        index -= self.frame_size(rest - 1)
        mono = []
        for k in range(n - 1, 0, -1):
            if not rest:
                break
            # of the monomials of degree rest in the last k + 1 variables,
            # comb(t + k - 1, k) have a first exponent above rest - t, as
            # index_of counts, so index lies in [comb(t + k - 1, k), comb(t + k, k))
            t = _least(k, index)
            index -= math.comb(t + k - 1, k)
            mono.append(rest - t)
            rest = t
        mono.append(rest)
        return tuple(mono) + (0,) * (n - len(mono))

    def degree_at(self, index: int) -> int:
        """Total degree of the monomial at ``index``: the least d whose frame,
        comb(d + n, n) monomials, holds more than ``index``, which is the
        first count of ``monomial_at``.  ValueError if ``index`` < 0."""
        if index < 0:
            raise ValueError(f"monomial index {index} is negative")
        return _least(self.nvars, index)

    def check_degree(self, degree: int, what: str = "degree") -> None:
        """DegreeCapError unless ``degree`` is within the degree cap and its
        enumeration, ``frame_size(degree + 1)`` monomials, within the frame
        budget."""
        if degree > self.max_degree_cap:
            raise DegreeCapError(f"{what} {_str(degree)} exceeds degree cap {_str(self.max_degree_cap)}")
        if (size := self.frame_size(degree + 1)) > _FRAME_BUDGET:
            raise DegreeCapError(
                f"{what} {_str(degree)} needs a frame of {_str(size)} monomials,"
                f" over the frame budget {_FRAME_BUDGET}"
            )

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
        made = _from_ratios(ring, [(index(m), c.numerator, c.denominator) for m, c in terms.items()])
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


def _lowered(ring: Ring, i: int, vec: dict[int, int], weighted: bool, skip: Container[int] = ()) -> dict[int, int]:
    """x_(i+1) o vec, without the coordinates in ``skip``, for vec in a
    frame one degree above the ring's raise table: m_j / x_(i+1) is m_k for
    j = raise[i][k], found by bisection.  Under differentiation the exponent
    of x_(i+1), read off m_j, multiplies, under contraction nothing does."""
    up, flat = ring._raise[i], ring._flat
    out = {}
    for j, c in vec.items():
        if (e := flat[j][i]) and (k := bisect_left(up, j)) not in skip:
            out[k] = c * e if weighted else c
    return out


def _apply(f: Poly, g: Poly, weighted: bool) -> Poly:
    """Bilinear x^a o x^b = w * x^(b-a) for b >= a, else 0; w = b!/(b-a)! or 1.

    Term by term: each pair of exponent tuples is read by ``monomial_at`` and
    the difference ranked by ``index_of``, which count past the enumeration,
    so a sparse g of high degree does not grow the ring's table.
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
    return _poly(g.ring, {k: c * _factorial(g.ring, k) for k, c in g.vec.items()}, g.den)


def _factorial(ring: Ring, k: int) -> int:
    """a! = prod(a_i!) for the monomial x^a at index k."""
    return math.prod(map(math.factorial, ring.monomial_at(k)))


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
# A nat is a run of decimal digits.  Blanks and '//' comments, which run to
# the end of the line, may stand between any two tokens but never inside a nat.
# ---------------------------------------------------------------------------

# blanks and comments are tried before a token, so '3//4' is 3 and a comment
_LEXEME = re.compile(r"\s+|//[^\n]*|(?P<token>\d+|.)", re.S)

# CPython 3.10.7+ refuses int/str conversions past sys.get_int_max_str_digits(),
# which is at least 640 (or off); longer numbers convert in halves down to that
_DIGITS = 640
_LIMIT = 10**_DIGITS


def _int(digits: str) -> int:
    """int(digits) for a run of decimal digits of any length."""
    if len(digits) <= _DIGITS:
        return int(digits)
    low = len(digits) // 2
    return _int(digits[:-low]) * 10**low + _int(digits[-low:])


def _str(n: int) -> str:
    """str(n) for an int n of any size."""
    if n < 0:
        return "-" + _str(-n)
    if n < _LIMIT:
        return str(n)
    low = n.bit_length() * 3 // 20  # about half of the digits of n
    high, rest = divmod(n, 10**low)
    return _str(high) + _str(rest).zfill(low)


def parse_poly(text: str, ring: Ring) -> Poly:
    """Parse polynomial text into an exact Poly; strict about the grammar.

    Raises :class:`ParseError` with a position on any syntax problem,
    out-of-range variable index, or (over F_p) a denominator divisible by p.

    >>> r = Ring(3, 0)
    >>> format_poly(parse_poly("3/4*x(1)^2 - x2", r))
    '-x2+3/4*x1^2'
    """
    # (token, offset) pairs; the empty token marks the end of the text
    toks = [(m["token"], m.start()) for m in _LEXEME.finditer(text) if m["token"]]
    toks.append(("", len(text)))
    negative = toks[0][0] == "-"
    i = int(negative)

    def nat() -> int:
        nonlocal i
        tok, pos = toks[i]
        if not tok.isdecimal():
            raise ParseError("expected a number", pos)
        i += 1
        return _int(tok)

    items = []
    while True:
        tok, pos = toks[i]
        num = den = 1
        exps = [0] * ring.nvars
        more = tok == "x"  # a factor follows
        if tok.isdecimal():  # a coefficient, then '*' and factors or nothing
            num = nat()
            if toks[i][0] == "/":
                i += 1
                den = nat()
            if den == 0:
                raise ParseError("zero denominator", pos)
            if ring.char and den % ring.char == 0:
                raise ParseError(f"denominator divisible by characteristic {ring.char}", pos)
            more = toks[i][0] == "*"
            i += more
        elif not more:
            raise ParseError("expected a term", pos)
        while more:
            tok, pos = toks[i]
            if tok != "x":
                raise ParseError("expected a variable", pos)
            i += 1
            pos = toks[i][1]
            paren = toks[i][0] == "("
            i += paren
            idx = nat()
            if paren:
                if toks[i][0] != ")":
                    raise ParseError("expected ')'", toks[i][1])
                i += 1
            if not 1 <= idx <= ring.nvars:
                raise ParseError(f"variable index {_str(idx)} out of range 1..{ring.nvars}", pos)
            power = toks[i][0] == "^"
            i += power
            exps[idx - 1] += nat() if power else 1
            more = toks[i][0] == "*"
            i += more
        items.append((ring.index_of(tuple(exps)), -num if negative else num, den))
        tok, pos = toks[i]
        if not tok:
            return _from_ratios(ring, items)
        if tok not in ("+", "-"):
            raise ParseError(f"expected '+' or '-', found {tok[0]!r}", pos)
        negative = tok == "-"
        i += 1


def _format_monomial(mono: Monomial) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{_str(e)}")
    return "*".join(parts)


def format_poly(f: Poly) -> str:
    """Canonical text form; parse_poly(format_poly(f)) == f.

    Terms appear in index order, which is the canonical order; over Q a
    coefficient prints in lowest terms with its sign folded into the
    separating sign, over F_p residues print as-is.
    """
    if f.is_zero():
        return "0"
    den, at = f.den, f.ring.monomial_at
    out: list[str] = []
    for k in sorted(f.vec):
        c = f.vec[k]
        negative = c < 0
        g = math.gcd(c, den)
        num, d = abs(c) // g, den // g
        mag = _str(num) if d == 1 else f"{_str(num)}/{_str(d)}"
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
    """Random sum of forms of degrees deg_min..deg_max, coefficients in
    [-bound, bound] for 0 <= bound < 2^63.

    Every monomial of every degree in the range independently receives a
    uniform integer coefficient (zero included).  Fully determined by the
    seed: the stream is SplitMix64 and each coefficient is drawn by rejection
    sampling (see the README for the exact recipe), so outputs are
    reproducible across platforms and releases.
    """
    if not 0 <= deg_min <= deg_max <= ring.max_degree_cap:
        raise ValueError(
            f"invalid degree range {_str(deg_min)}..{_str(deg_max)} (cap {_str(ring.max_degree_cap)})"
        )
    if bound < 0:
        raise ValueError("coefficient bound must be >= 0")
    if bound >= 2**63:  # 2*bound+1 values would not fit in one 64-bit draw
        raise ValueError("coefficient bound must be below 2^63")
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
