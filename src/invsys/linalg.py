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
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from .errors import FrameMismatchError
from .poly import DER, Monomial, Poly, Ring, Scalar, check_action

Vector = dict[int, Scalar]


def poly_to_vector(p: Poly) -> Vector:
    return {p.ring.index_of(m): c for m, c in p.terms.items()}


def vector_to_poly(ring: Ring, vec: Vector) -> Poly:
    return Poly(ring, {ring.monomial_at(i): c for i, c in vec.items()})


class Echelon:
    """A mutable reduced row-echelon collection of sparse vectors.

    The workhorse behind every span/membership/kernel computation.  Rows are
    stored as ``{pivot_index: row_dict}`` with unit pivots; full reduction is
    maintained on insertion, so the final rows are independent of insertion
    order.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[int, Vector] = {}

    @classmethod
    def from_reduced(cls, rows: Iterable[Vector]) -> "Echelon":
        """Wrap rows that already form a reduced echelon basis (unit pivots)."""
        ech = cls()
        ech.rows = {min(row): row for row in rows}
        return ech

    @property
    def dim(self) -> int:
        return len(self.rows)

    def copy(self) -> "Echelon":
        dup = Echelon()
        dup.rows = {p: dict(row) for p, row in self.rows.items()}
        return dup

    def reduce(self, vec: Vector) -> Vector:
        """Residue of ``vec`` after subtracting its pivot components.

        Rows are mutually reduced, so one pass over the pivots present in the
        input is complete: subtracted rows only introduce non-pivot indices.
        """
        out = dict(vec)
        rows = self.rows
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
        p = min(r)
        inv = r[p]
        newrow = {k: v / inv for k, v in r.items()}
        for row in self.rows.values():
            c = row.get(p)
            if c:
                for k, v in newrow.items():
                    s = row.get(k)
                    s = -(c * v) if s is None else s - c * v
                    if s:
                        row[k] = s
                    else:
                        del row[k]
        self.rows[p] = newrow
        return p

    def insert_all(self, vecs: Iterable[Vector]) -> None:
        for v in vecs:
            self.insert(v)

    def sorted_rows(self) -> list[Vector]:
        return [self.rows[p] for p in sorted(self.rows)]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Echelon):
            return self.rows == other.rows
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

    def extended(self, bound: int) -> "SubspaceBasis":
        """The same subspace viewed in a larger frame (coordinates are stable)."""
        if bound < self.frame.bound:
            raise FrameMismatchError("cannot shrink a frame")
        return SubspaceBasis(Frame(self.frame.ring, bound), self.echelon.copy())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SubspaceBasis):
            return self.frame == other.frame and self.echelon == other.echelon
        return NotImplemented

    def __repr__(self) -> str:
        return f"SubspaceBasis(dim={self.dim}, {self.frame!r})"


def _check_frames(u: SubspaceBasis, v: SubspaceBasis) -> None:
    if u.frame != v.frame:
        raise FrameMismatchError(f"frames differ: {u.frame!r} vs {v.frame!r}")


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


def member_space(v: Poly, u: SubspaceBasis) -> bool:
    if v.ring != u.frame.ring:
        raise FrameMismatchError("polynomial from a different ring")
    if v.degree() > u.frame.bound:
        raise FrameMismatchError(
            f"degree {v.degree()} exceeds frame bound {u.frame.bound}"
        )
    return u.echelon.contains(poly_to_vector(v))


def contains_space(u: SubspaceBasis, v: SubspaceBasis) -> bool:
    """True iff the span of u contains the span of v."""
    _check_frames(u, v)
    return all(u.echelon.contains(row) for row in v.echelon.rows.values())


def sum_space(u: SubspaceBasis, v: SubspaceBasis) -> SubspaceBasis:
    _check_frames(u, v)
    ech = u.echelon.copy()
    ech.insert_all(dict(row) for row in v.echelon.rows.values())
    return SubspaceBasis(u.frame, ech)


def quotient_dim(u: SubspaceBasis, v: SubspaceBasis) -> int:
    """dim((U + V) / V)."""
    _check_frames(u, v)
    return sum_space(u, v).dim - v.dim


def _tracked(vectors: Sequence[Vector], width: int, one: Scalar) -> Echelon:
    """Echelon of the vectors, each tagged with a tracker coordinate width + k."""
    ech = Echelon()
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
    vectors: Sequence[Vector], target: Vector, width: int, one: Scalar
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
    """
    ring = u.frame.ring
    check_action(ring, action)
    m = u.frame.size
    rows = u.echelon.sorted_rows()
    columns: list[Vector] = [dict() for _ in range(m)]
    for ri, row in enumerate(rows):
        for c, val in row.items():
            columns[c][ri] = val
    kernel = kernel_of_vectors(columns, m, ring.field.one)
    ech = Echelon()
    if action == DER:
        weights = {}
        for vec in kernel:
            scaled = {}
            for c, val in vec.items():
                w = weights.get(c)
                if w is None:
                    mono = ring.monomial_at(c)
                    w = 1
                    for e in mono:
                        if e > 1:
                            w *= math.factorial(e)
                    weights[c] = w
                scaled[c] = val / ring.field.coerce(w)
            ech.insert(scaled)
    else:
        ech.insert_all(kernel)
    return SubspaceBasis(u.frame, ech)
