"""Exact linear algebra on monomial-indexed coordinate spaces.

Vectors are sparse maps from a ring's global monomial index to nonzero field
scalars.  Because the canonical monomial order is graded, the coordinates of
a degree-<=D frame form a prefix of every larger frame, so enlarging a frame
never relabels coordinates.

Subspaces are kept in fully reduced row-echelon form: each row has a unit
pivot at its lowest-index coordinate, pivot columns are distinct, and every
row is reduced against every other.  The representation is unique per
subspace, which makes subspace equality literal equality of the row maps and
keeps all outputs deterministic.

``Echelon.insert`` back-substitutes a new row only into the rows that hold
its pivot column, found through a column index (each non-pivot column mapped
to the set of pivots whose rows hold it).

Over Q a vector scalar is an ``int`` when it is integral and a ``Fraction``
otherwise, so most arithmetic runs on machine-backed ints.  The boundary is
two functions: ``poly_to_vector`` normalises ``Poly`` coefficients on the
way in, and ``vector_to_poly`` coerces back into the field, so ``Poly``
coefficients stay ``Fraction``.  Inside, only ``insert`` divides, through
``_div``, which never lets int / int become a float.  Over F_p scalars are
``Fp`` residues throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import FrameMismatchError
from .poly import DER, Monomial, Poly, Ring, Scalar, check_action

Vector = dict[int, Scalar]


def _scalar(c: Scalar) -> Scalar:
    """A vector scalar: an integral ``Fraction`` becomes its ``int``."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _div(a: Scalar, b: Scalar) -> Scalar:
    """a / b as a vector scalar; int / int goes through divmod, never a float."""
    if type(a) is int and type(b) is int:
        q, m = divmod(a, b)
        return Fraction(a, b) if m else q
    return _scalar(a / b)


def poly_to_vector(p: Poly) -> Vector:
    index = p.ring.index_of
    return {index(m): _scalar(c) for m, c in p.terms.items()}


def vector_to_poly(ring: Ring, vec: Vector) -> Poly:
    at, coerce = ring.monomial_at, ring.field.coerce
    return Poly(ring, {at(i): coerce(c) for i, c in vec.items()})


class Echelon:
    """A mutable reduced row-echelon collection of sparse vectors.

    The workhorse behind every span/membership/kernel computation.  Rows are
    stored as ``{pivot_index: row_dict}`` with unit pivots; full reduction is
    maintained on insertion, so the final rows are independent of insertion
    order.

    ``insert`` keeps a column index, each non-pivot column mapped to the set
    of pivots whose rows hold it, so back-substitution visits only those
    rows.  Assigning ``rows`` drops the index and the next ``insert``
    rebuilds it; ``reduce`` and ``contains`` never touch it, so an echelon
    that is only read can be shared between threads.
    """

    __slots__ = ("_rows", "_cols")

    def __init__(self):
        self._rows: dict[int, Vector] = {}
        self._cols: Optional[dict[int, set[int]]] = {}

    @property
    def rows(self) -> dict[int, Vector]:
        return self._rows

    @rows.setter
    def rows(self, rows: dict[int, Vector]) -> None:
        self._rows = rows
        self._cols = None

    @property
    def dim(self) -> int:
        return len(self._rows)

    def copy(self) -> "Echelon":
        dup = Echelon()
        dup.rows = {p: dict(row) for p, row in self._rows.items()}
        return dup

    def reduce(self, vec: Vector) -> Vector:
        """Residue of ``vec`` after subtracting its pivot components.

        Rows are mutually reduced, so one pass over the pivots present in the
        input is complete: subtracted rows only introduce non-pivot indices.
        """
        out = dict(vec)
        rows = self._rows
        for p in [p for p in out if p in rows]:
            c = out.get(p)
            if not c:
                continue
            for k, v in rows[p].items():
                s = out.get(k)
                s = -(c * v) if s is None else s - c * v
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
        rows, cols = self._rows, self._cols
        if cols is None:
            cols = self._cols = {}
            for q, row in rows.items():
                for k in row:
                    if k != q:
                        cols.setdefault(k, set()).add(q)
        p = min(r)
        inv = r[p]
        newrow = {k: _div(v, inv) for k, v in r.items()}
        tail = [(k, v) for k, v in newrow.items() if k != p]
        for k, _ in tail:
            cols.setdefault(k, set()).add(p)
        for q in cols.pop(p, ()):
            row = rows[q]
            c = row.pop(p)
            for k, v in tail:
                s = row.get(k)
                if s is None:
                    row[k] = _scalar(-(c * v))
                    cols[k].add(q)
                else:
                    s = s - c * v
                    if s:
                        row[k] = _scalar(s)
                    else:
                        del row[k]
                        cols[k].discard(q)
        rows[p] = newrow
        return p

    def insert_all(self, vecs: Iterable[Vector]) -> None:
        for v in vecs:
            self.insert(v)

    def sorted_rows(self) -> list[Vector]:
        return [self._rows[p] for p in sorted(self._rows)]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Echelon):
            return self._rows == other._rows
        return NotImplemented


class Frame:
    """All monomials of degree <= bound, in canonical order, as coordinates."""

    __slots__ = ("ring", "bound", "size")

    def __init__(self, ring: Ring, bound: int):
        if bound < 0:
            raise ValueError("frame bound must be >= 0")
        self.ring = ring
        self.bound = bound
        self.size = ring.frame_size(bound)

    @property
    def monomials(self) -> list[Monomial]:
        return self.ring.monomials_upto(self.bound)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Frame):
            return self.ring == other.ring and self.bound == other.bound
        return NotImplemented

    def __repr__(self) -> str:
        return f"Frame(bound={self.bound}, size={self.size})"


class SubspaceBasis:
    """A subspace of a frame, held as a unique reduced row-echelon basis."""

    __slots__ = ("frame", "echelon")

    def __init__(self, frame: Frame, echelon: Echelon):
        self.frame = frame
        self.echelon = echelon

    @property
    def dim(self) -> int:
        return self.echelon.dim

    def row_polys(self) -> list[Poly]:
        """Basis rows as polynomials, ordered by pivot."""
        ring = self.frame.ring
        return [vector_to_poly(ring, row) for row in self.echelon.sorted_rows()]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SubspaceBasis):
            return self.frame == other.frame and self.echelon == other.echelon
        return NotImplemented

    def __repr__(self) -> str:
        return f"SubspaceBasis(dim={self.dim}, {self.frame!r})"


def span_of(polys: Sequence[Poly], frame: Frame) -> SubspaceBasis:
    """Reduced basis of the k-span of the given polynomials."""
    ech = Echelon()
    for p in polys:
        if p.ring != frame.ring:
            raise FrameMismatchError("polynomial from a different ring")
        if p.degree() > frame.bound:
            raise FrameMismatchError(
                f"degree {p.degree()} exceeds frame bound {frame.bound}"
            )
        ech.insert(poly_to_vector(p))
    return SubspaceBasis(frame, ech)


def _tracked(vectors: Iterable[Vector], width: int, one: Scalar) -> Echelon:
    """Echelon of the vectors, each tagged with a tracker coordinate width + k."""
    ech = Echelon()
    one = _scalar(one)
    for k, v in enumerate(vectors):
        w = dict(v)
        w[width + k] = one
        ech.insert(w)
    return ech


def kernel_of_vectors(vectors: Sequence[Vector], width: int, one: Scalar) -> list[Vector]:
    """Reduced basis of {c : sum_k c_k * vectors[k] = 0}.

    ``width`` must exceed every coordinate index used by the vectors; tracker
    coordinates live at width + k, so pivots prefer the image part.  ``one``
    is the field unit.  Kernel vectors come out keyed by position k, already
    in reduced echelon form.
    """
    ech = _tracked(vectors, width, one)
    return [
        {k - width: c for k, c in ech.rows[p].items()} for p in sorted(ech.rows) if p >= width
    ]


def solve_combination(
    vectors: Iterable[Vector], target: Vector, width: int, one: Scalar
) -> Optional[Vector]:
    """Coefficients c with sum_k c_k * vectors[k] = target, or None.

    Deterministic: reduces against an echelon built by inserting the vectors
    in order, so the returned combination is canonical for a given input
    order.  Keys of the result are positions into ``vectors``.
    """
    res = _tracked(vectors, width, one).reduce(dict(target))
    if any(k < width for k in res):
        return None
    return {k - width: -c for k, c in res.items()}


def perp_space(u: SubspaceBasis, action: str) -> SubspaceBasis:
    """Orthogonal complement of U under the monomial pairing of ``action``.

    The pairing is <x^a, x^b> = [a == b] for contraction and a! * [a == b]
    for differentiation (characteristic 0 only).  dim(perp) always equals
    frame size - dim(U), and perp is an involution.

    Read off U's reduced form: each non-pivot column f gives the contraction
    complement vector e_f - sum_p row_p[f] * e_p, and only these are
    eliminated.  The differentiation complement is the contraction one with
    coordinate x^a scaled by 1/a!, which keeps every zero, so renormalising
    each row at its pivot leaves it reduced.
    """
    ring = u.frame.ring
    check_action(ring, action)
    rows = u.echelon.rows
    one = _scalar(ring.field.one)
    kernel = {f: {f: one} for f in range(u.frame.size) if f not in rows}
    for p, row in rows.items():
        for f, c in row.items():
            if f != p:
                kernel[f][p] = -c
    ech = Echelon()
    # sparsest first, then from the highest column down: in column order the
    # complements of m o I^perp took 1.4-2.5 times as long
    ech.insert_all(sorted(kernel.values(), key=lambda v: (len(v), -max(v))))
    if action == DER:
        weight = [math.prod(map(math.factorial, m)) for m in u.frame.monomials]
        ech.rows = {
            p: {k: _scalar(c * ring.field.from_ratio(weight[p], weight[k])) for k, c in row.items()}
            for p, row in ech.rows.items()
        }
    return SubspaceBasis(u.frame, ech)
