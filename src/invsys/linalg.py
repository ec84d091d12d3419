"""Exact linear algebra on monomial-indexed coordinate spaces.

Vectors are sparse maps from a ring's global monomial index to nonzero ints,
the form a ``Poly`` holds as ``vec``.  Because the canonical monomial order is
graded, the coordinates of a degree-<=D frame form a prefix of every larger
frame, so enlarging a frame never relabels coordinates.

Subspaces are kept in fully reduced row-echelon form by one integer kernel
for both fields: each row has its pivot at its lowest index, pivot columns
are distinct, and no row is nonzero at another row's pivot.  Over F_p a row
holds residues in [0, p) with pivot 1.  Over Q a row is a primitive integer
vector (its entries have gcd 1) with a positive pivot, the multiple of the
reduced row row / row[pivot] with the least positive pivot.  Both forms are
unique per subspace, which makes subspace equality literal equality of the
row maps and keeps all outputs deterministic; readers that need the reduced
row's values divide by the pivot, as a Poly does with its ``den``.

Elimination is fraction-free (Bareiss, Math. Comp. 22, 1968), one loop for
both fields.  Vectors enter integral over Q, and over F_p they are reduced
mod p.  To cancel an entry c against a row with pivot entry a,
``Echelon.reduce`` divides both by g = gcd(a, c) and forms
(a/g) * vec - (c/g) * row, so over Q it returns a positive multiple of the
residue.  ``Echelon.insert`` back-substitutes the new row only into the rows
that hold its pivot column, found through a column index (each non-pivot
column mapped to the set of pivots whose rows hold it), and divides each row
it touched by its content.  Over F_p every pivot entry is 1, so the scaling
and content steps never fire there, and each computed entry is reduced mod p
before it is tested for zero.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import FrameMismatchError
from .poly import DER, Poly, Ring, _factorial, _poly, check_action

Vector = dict[int, int]


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {k: v // g for k, v in row.items()}


class Echelon:
    """A mutable reduced row-echelon collection of sparse vectors over the
    field of characteristic ``char``.

    The workhorse behind every span/membership/kernel computation.  Rows are
    stored as ``{pivot_index: row_dict}`` in the canonical form of the
    module docstring; full reduction is maintained on insertion, so the
    final rows are independent of insertion order.

    ``insert`` keeps a column index, each non-pivot column mapped to the set
    of pivots whose rows hold it, so back-substitution visits only those
    rows.  Assigning ``rows`` drops the index and the next ``insert``
    rebuilds it; ``reduce`` and ``contains`` never touch it, so an echelon
    that is only read can be shared between threads.
    """

    __slots__ = ("char", "_rows", "_cols")

    def __init__(self, char: int):
        self.char = char
        self._rows: dict[int, dict[int, int]] = {}
        self._cols: Optional[dict[int, set[int]]] = {}

    @property
    def rows(self) -> dict[int, dict[int, int]]:
        return self._rows

    @rows.setter
    def rows(self, rows: dict[int, dict[int, int]]) -> None:
        self._rows = rows
        self._cols = None

    @property
    def dim(self) -> int:
        return len(self._rows)

    def copy(self) -> "Echelon":
        dup = Echelon(self.char)
        dup.rows = {p: dict(row) for p, row in self._rows.items()}
        return dup

    def reduce(self, vec: Vector) -> dict[int, int]:
        """The residue of ``vec`` after subtracting its pivot components:
        over F_p the residue itself, over Q a positive integer multiple.

        Rows are mutually reduced, so one pass over the pivots present in the
        input is complete: subtracted rows only introduce non-pivot indices.
        """
        rows, char = self._rows, self.char
        out = {k: r for k, c in vec.items() if (r := c % char)} if char else dict(vec)
        for p in [p for p in out if p in rows]:
            c = out[p]
            row = rows[p]
            a = row[p]
            if a != 1:  # only over Q: an F_p row has pivot entry 1
                g = gcd(a, c)
                a, c = a // g, c // g
                if a != 1:
                    out = {k: a * s for k, s in out.items()}
            for k, v in row.items():
                # c and v are nonzero (mod p), so s vanishes only for k in out
                s = out.get(k, 0) - c * v
                if char:
                    s %= char
                if s:
                    out[k] = s
                else:
                    del out[k]
        return out

    def contains(self, vec: Vector) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: Vector) -> Optional[int]:
        """Add a vector to the span; returns the new pivot index, if any."""
        r = self.reduce(vec)
        if not r:
            return None
        rows, cols, char = self._rows, self._cols, self.char
        if cols is None:
            cols = self._cols = {}
            for q, row in rows.items():
                for k in row:
                    if k != q:
                        cols.setdefault(k, set()).add(q)
        p = min(r)
        a = r[p]
        if a != 1:
            if char:
                inv = pow(a, -1, char)
                r = {k: v * inv % char for k, v in r.items()}
            else:
                g = gcd(*r.values()) if a > 0 else -gcd(*r.values())
                if g != 1:
                    r = {k: v // g for k, v in r.items()}
            a = r[p]
        tail = [(k, v) for k, v in r.items() if k != p]
        for k, _ in tail:
            cols.setdefault(k, set()).add(p)
        for q in cols.pop(p, ()):
            row = rows[q]
            c = row.pop(p)
            # row := (a/g) * row - (c/g) * r, for g = gcd(a, c); over F_p
            # a == 1 and so row is never scaled
            if a != 1:
                g = gcd(a, c)
                m, c = a // g, c // g
                if m != 1:
                    for k in row:
                        row[k] *= m
            for k, v in tail:
                s = row.get(k)
                if s is None:
                    row[k] = -c * v % char if char else -(c * v)
                    cols[k].add(q)
                else:
                    s -= c * v
                    if char:
                        s %= char
                    if s:
                        row[k] = s
                    else:
                        del row[k]
                        cols[k].discard(q)
            # the content divides the pivot entry, as r is zero at q; over
            # F_p the pivot entry stays 1 and there is nothing to divide
            if row[q] != 1:
                g = gcd(*row.values())
                if g != 1:
                    for k in row:
                        row[k] //= g
        rows[p] = r
        return p

    def insert_all(self, vecs: Iterable[Vector]) -> None:
        for v in vecs:
            self.insert(v)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Echelon):
            return self._rows == other._rows
        return NotImplemented


def _projected(ech: Echelon, size: int) -> Echelon:
    """The reduced echelon of the first ``size`` coordinates of ech's span.

    Rows with a pivot at or past ``size`` vanish there; the others keep their
    pivots and stay mutually reduced, so no elimination is needed.  A cut row
    is divided by its content again, which leaves an F_p row (pivot entry 1)
    as it is.
    """
    out = Echelon(ech.char)
    out.rows = {
        p: _primitive({k: v for k, v in row.items() if k < size})
        for p, row in ech.rows.items()
        if p < size
    }
    return out


def _unit_echelon(char: int, units: set[int], stripped: Iterable[Vector]) -> Echelon:
    """The reduced echelon of span(e_u : u in units) + span(X), given the
    vectors of X already stripped of their unit coordinates.

    Stripping is exactly the reduction of a vector by the unit rows, since
    x - strip_U(x) lies in span(e_U).  So span(e_U + X) = span(e_U) (+)
    span(strip_U X), and the two parts have disjoint supports: no stripped
    vector, and so no row of their reduced echelon, holds a unit column, and
    a unit row {u: 1} holds no other column.  The unit rows together with the
    reduced echelon of the stripped vectors are therefore in reduced form,
    with a unit pivot on every row, and by uniqueness they are the rows that
    inserting every e_u and every x would give.  Only the stripped vectors
    are eliminated, in the order given; the unit rows are placed.  No row
    holds a unit column, so the column index stays valid and the result
    takes further inserts; a further vector stripped of U reduces exactly as
    it would against the stripped vectors alone.
    """
    ech = Echelon(char)
    ech.insert_all(stripped)
    rows = ech.rows
    for u in units:
        rows[u] = {u: 1}
    return ech


class SubspaceBasis:
    """A subspace of the degree-<=bound frame of ``ring`` (its monomials of
    degree <= bound, in canonical order), held as a unique reduced
    row-echelon basis."""

    __slots__ = ("ring", "bound", "echelon")

    def __init__(self, ring: Ring, bound: int, echelon: Echelon):
        if bound < 0:
            raise ValueError("frame bound must be >= 0")
        self.ring = ring
        self.bound = bound
        self.echelon = echelon

    @property
    def size(self) -> int:
        """The number of coordinates: monomials of degree <= bound."""
        return self.ring.frame_size(self.bound)

    @property
    def dim(self) -> int:
        return self.echelon.dim

    def row_polys(self) -> list[Poly]:
        """The reduced basis rows as polynomials, ordered by pivot."""
        return [_poly(self.ring, dict(row), row[p]) for p, row in sorted(self.echelon.rows.items())]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SubspaceBasis):
            return (self.ring, self.bound, self.echelon) == (other.ring, other.bound, other.echelon)
        return NotImplemented

    def __repr__(self) -> str:
        return f"SubspaceBasis(dim={self.dim}, bound={self.bound}, size={self.size})"


def span_of(polys: Sequence[Poly], ring: Ring, bound: int) -> SubspaceBasis:
    """Reduced basis of the k-span of the given polynomials, in the
    degree-<=bound frame of ``ring``."""
    ech = Echelon(ring.char)
    for p in polys:
        if p.ring != ring:
            raise FrameMismatchError("polynomial from a different ring")
        if p.degree() > bound:
            raise FrameMismatchError(f"degree {p.degree()} exceeds frame bound {bound}")
        ech.insert(p.vec)
    return SubspaceBasis(ring, bound, ech)


def kernel_of_vectors(vectors: Sequence[Vector], width: int, char: int) -> list[dict[int, int]]:
    """Reduced basis of {c : sum_k c_k * vectors[k] = 0}, over the field of
    characteristic ``char``.

    ``width`` must exceed every coordinate index used by the vectors; tracker
    coordinates live at width + k, so pivots prefer the image part.  Kernel
    vectors come out keyed by position k, as echelon rows: over Q each is
    the least positive integral multiple of its reduced row.
    """
    ech = Echelon(char)
    ech.insert_all({**v, width + k: 1} for k, v in enumerate(vectors))
    return [
        {k - width: c for k, c in ech.rows[p].items()} for p in sorted(ech.rows) if p >= width
    ]


def perp_space(u: SubspaceBasis, action: str) -> SubspaceBasis:
    """Orthogonal complement of U under the monomial pairing of ``action``.

    The pairing is <x^a, x^b> = [a == b] for contraction and a! * [a == b]
    for differentiation (characteristic 0 only).  dim(perp) always equals
    frame size - dim(U), and perp is an involution.

    Read off U's reduced form: each non-pivot column f gives the contraction
    complement vector e_f - sum_p (row_p[f] / row_p[p]) * e_p, scaled to
    integers by the lcm of the pivot entries involved, and only these are
    eliminated.  The differentiation complement is the contraction one with
    coordinate x^a scaled by 1/a!, read off the monomial; that keeps every
    zero, so each row stays reduced once scaled back to a primitive integer
    vector.
    """
    ring = u.ring
    check_action(ring, action)
    rows = u.echelon.rows
    held = {f: {} for f in range(u.size) if f not in rows}
    for p, row in rows.items():
        for f, c in row.items():
            if f != p:
                held[f][p] = c
    kernel = []
    for f, entries in held.items():
        top = lcm(*(rows[p][p] for p in entries))
        vec = {p: -c * (top // rows[p][p]) for p, c in entries.items()}
        vec[f] = top
        kernel.append(vec)
    ech = Echelon(ring.char)
    # sparsest first, then from the highest column down: in column order the
    # complements of m o I^perp took 1.4-2.5 times as long
    ech.insert_all(sorted(kernel, key=lambda v: (len(v), -max(v))))
    if action == DER:
        weight = {k: _factorial(ring, k) for k in set().union(*ech.rows.values())}
        rescaled = {}
        for p, row in ech.rows.items():
            top = lcm(*(weight[k] for k in row))
            rescaled[p] = _primitive({k: c * (top // weight[k]) for k, c in row.items()})
        ech.rows = rescaled
    return SubspaceBasis(ring, u.bound, ech)
