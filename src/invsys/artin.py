"""Artinianity, truncation spans, Hilbert functions, socle and type analysis.

An ideal I = (g_1..g_t) of R = k[[x1..xn]] is handled through its images
span_I(B) in the truncations R/m^(B+1), each held as a reduced row-echelon
basis of the <=B frame.  One builder produces them all, from two identities:

* Extension.  span_I(B) = span{g_j mod m^(B+1)} + span{x_i * r : r a row of
  span_I(B-1)}, starting from span_I(0) = 0 (generators are nonunits),
  because I = span{g_j} + m*I and x_i * f mod m^(B+1) only depends on
  f mod m^B.  The second set alone is m*I mod m^(B+1), which is how the
  Nakayama pass for minimal generators reads m*I off the cached span.
* Projection.  For b < B, span_I(b) is the set of rows of span_I(B) with a
  pivot inside the <=b frame, cut to that frame: pivots sit at the lowest
  index, so the other rows vanish there and these stay mutually reduced.

The keystone making pure linear algebra sound in the complete local ring is
the Nakayama consequence

    m^d <= I + m^(d+1)   implies   m^d <= I,

so "every degree-d monomial lies in the degree-d truncation span", that is
one pivot per degree-d coordinate, certifies m^d <= I outright; see the
README for the two-line proof sketch.  The quotient A = R/I is Artinian
exactly when such a d exists, and the least one is s + 1 for the socle
degree s.

Non-Artinianity is provable here only in the special case of a variable
missing from every generator (then A surjects onto a power-series ring in
that variable); otherwise the search stops at the ring's degree cap and the
verdict is the inconclusive "not Artinian within cap".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DegreeCapError, NotArtinError
from .linalg import (
    Echelon,
    Frame,
    SubspaceBasis,
    kernel_of_vectors,
    poly_to_vector,
    quotient_dim,
    vector_to_poly,
)
from .poly import Poly, Ring, format_poly


@dataclass(frozen=True)
class ArtinStatus:
    """Outcome of the Artinianity search.

    For a non-Artinian verdict, ``proven`` distinguishes an actual proof (a
    variable absent from every generator) from cap exhaustion.
    """

    artin: bool
    socle_degree: Optional[int]
    proven: bool
    cap: int


class IdealHandle:
    """An ideal of R given by generators, with write-once analysis caches.

    Generators must be nonunits (zero constant term); zero generators are
    dropped.  Externally the handle behaves as an immutable value; the span
    and status caches only ever gain entries.
    """

    def __init__(self, ring: Ring, generators: list[Poly]):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if g.is_zero():
                continue
            if g.constant_term():
                raise ValueError("generators must be nonunits (zero constant term)")
            gens.append(g)
        self.ring = ring
        self.generators = gens
        self._spans: dict[int, Echelon] = {}
        self._status: Optional[ArtinStatus] = None

    def __repr__(self) -> str:
        return f"IdealHandle({len(self.generators)} generators, {self.ring!r})"

    def _span_echelon(self, bound: int) -> Echelon:
        """Echelon of the image of the ideal in R/m^(bound+1).

        Projected from the nearest cached higher bound when there is one,
        else extended one bound at a time from the nearest cached lower bound
        (or from the zero span at bound 0); see the module docstring.
        """
        spans = self._spans
        ech = spans.get(bound)
        if ech is not None:
            return ech
        ring = self.ring
        higher = [b for b in spans if b > bound]
        if higher:
            ech = _projected(spans[min(higher)], ring.frame_size(bound))
        else:
            start = max((b for b in spans if b < bound), default=0)
            ech = spans.get(start, Echelon())
            for b in range(start + 1, bound + 1):
                ech = _times_maximal(ring, ech, b)
                ech.insert_all(
                    poly_to_vector(g.truncated(b)) for g in self.generators if g.order() <= b
                )
        spans[bound] = ech
        return ech


def _projected(ech: Echelon, size: int) -> Echelon:
    """The reduced echelon of the first ``size`` coordinates of ech's span.

    Rows with a pivot at or past ``size`` vanish there; the others keep their
    pivots and stay mutually reduced, so no elimination is needed.
    """
    out = Echelon()
    out.rows = {
        p: {k: v for k, v in row.items() if k < size}
        for p, row in ech.rows.items()
        if p < size
    }
    return out


def _shift_tables(ring: Ring, bound: int) -> list[list[int]]:
    """up[i][k] is the index of x_(i+1) times monomial k, for k in the <=bound frame."""
    index = ring.index_of
    return [
        [index(m[:i] + (m[i] + 1,) + m[i + 1:]) for m in ring.monomials_upto(bound)]
        for i in range(ring.nvars)
    ]


def _times_maximal(ring: Ring, ech: Echelon, bound: int) -> Echelon:
    """m times the span of ``ech`` (in the <=bound-1 frame), mod m^(bound+1)."""
    shifts = _shift_tables(ring, bound - 1)
    vecs = [{up[k]: c for k, c in row.items()} for row in ech.rows.values() for up in shifts]
    # highest leads first: each new pivot then lies below every stored row,
    # which saves most of the back-substitution
    vecs.sort(key=min, reverse=True)
    out = Echelon()
    out.insert_all(vecs)
    return out


def truncation_span(ideal: IdealHandle, bound: int) -> SubspaceBasis:
    """Image of the ideal in R/m^(bound+1), as a subspace of the <=bound frame."""
    if bound > ideal.ring.max_degree_cap:
        raise DegreeCapError(
            f"bound {bound} exceeds degree cap {ideal.ring.max_degree_cap}"
        )
    return SubspaceBasis(Frame(ideal.ring, bound), ideal._span_echelon(bound))


def contains_power_of_maximal(ideal: IdealHandle, d: int) -> bool:
    """True iff m^d is contained in the ideal.

    The degree-d truncation span holds every degree-d monomial iff its
    echelon has one pivot per degree-d coordinate: a row pivoting there has
    no lower entries.  By the Nakayama consequence above this decides
    m^d <= I exactly.
    """
    if d > ideal.ring.max_degree_cap:
        raise DegreeCapError(f"degree {d} exceeds cap {ideal.ring.max_degree_cap}")
    if d < 1:
        return False
    ring = ideal.ring
    low = ring.frame_size(d - 1)
    top = sum(1 for p in ideal._span_echelon(d).rows if p >= low)
    return top == ring.frame_size(d) - low


def analyze_artin(ideal: IdealHandle) -> ArtinStatus:
    """Search for the least d with m^d <= I; Artin with socle degree d - 1.

    A variable occurring in no generator proves non-Artinianity immediately;
    otherwise the search runs up to the ring's degree cap and failure is the
    inconclusive "not Artinian within cap" verdict.
    """
    if ideal._status is not None:
        return ideal._status
    ring = ideal.ring
    cap = ring.max_degree_cap
    used: set[int] = set()
    for g in ideal.generators:
        used |= g.support_variables()
    if len(used) < ring.nvars:
        status = ArtinStatus(artin=False, socle_degree=None, proven=True, cap=cap)
    else:
        status = None
        for d in range(1, cap + 1):
            if contains_power_of_maximal(ideal, d):
                status = ArtinStatus(artin=True, socle_degree=d - 1, proven=True, cap=cap)
                break
        if status is None:
            status = ArtinStatus(artin=False, socle_degree=None, proven=False, cap=cap)
    ideal._status = status
    return status


def require_artin(ideal: IdealHandle) -> int:
    """Socle degree of R/I, or NotArtinError."""
    status = analyze_artin(ideal)
    if not status.artin:
        kind = "proven" if status.proven else f"within cap {status.cap}"
        raise NotArtinError(f"quotient is not Artinian ({kind})", proven=status.proven)
    return status.socle_degree


def hilbert(ideal: IdealHandle) -> list[int]:
    """Hilbert function HF(0..s) of A = R/I; HF(i) = dim n^i / n^(i+1)."""
    s = require_artin(ideal)
    ring = ideal.ring
    dims = []
    prev = 0
    for i in range(s + 1):
        q = ring.frame_size(i) - ideal._span_echelon(i).dim
        dims.append(q - prev)
        prev = q
    return dims


def _colon_maximal_subspace(ideal: IdealHandle, s: int) -> Echelon:
    """Reduced echelon of {f in R_<=s : x_i * f in I for all i}, mod m^(s+2).

    Together with m^(s+1) this set is exactly the colon ideal (I : m): the
    part of f above degree s is automatically in (I : m), and for the rest
    membership of x_i * f in I only depends on its class mod m^(s+2).  The
    unknowns are the <=s frame in canonical order, so the kernel's reduced
    rows are the colon ideal's truncation span at bound s.
    """
    ring = ideal.ring
    big = ideal._span_echelon(s + 1)
    m1 = ring.frame_size(s + 1)
    shifts = _shift_tables(ring, s)
    vectors = []
    for k in range(ring.frame_size(s)):
        combined = {}
        for i, up in enumerate(shifts):
            for idx, c in big.reduce({up[k]: ring.field.one}).items():
                combined[i * m1 + idx] = c
        vectors.append(combined)
    return Echelon.from_reduced(kernel_of_vectors(vectors, ring.nvars * m1, ring.field.one))


def socle_ideal(ideal: IdealHandle) -> list[Poly]:
    """Minimal generators of the colon ideal (I : m).

    For I = m the colon ideal is the whole ring; that degenerate case is
    reported as the single unit generator [1].
    """
    s = require_artin(ideal)
    ring = ideal.ring
    if s == 0:
        return [Poly.one(ring)]
    # the colon ideal has socle degree s - 1
    return minimal_ideal(ring, _colon_maximal_subspace(ideal, s), s, s - 1).generators


def cm_type(ideal: IdealHandle) -> int:
    """Cohen-Macaulay type dim soc(A) = dim (I : m)/I; -1 when not Artinian."""
    status = analyze_artin(ideal)
    if not status.artin:
        return -1
    s = status.socle_degree
    ring = ideal.ring
    frame = Frame(ring, s)
    colon = SubspaceBasis(frame, _colon_maximal_subspace(ideal, s))
    image = SubspaceBasis(frame, ideal._span_echelon(s))
    return quotient_dim(colon, image)


def is_ag(ideal: IdealHandle) -> int:
    """-2 when not Artinian, -1 when Artinian but not Gorenstein, else the
    socle degree (Gorenstein means Cohen-Macaulay type 1)."""
    status = analyze_artin(ideal)
    if not status.artin:
        return -2
    return status.socle_degree if cm_type(ideal) == 1 else -1


def is_level(ideal: IdealHandle) -> int:
    """-2 when not Artinian, -1 when Artinian but not level, else the socle
    degree.  Level means soc(A) = n^s, i.e. (I : m) = I + m^s."""
    status = analyze_artin(ideal)
    if not status.artin:
        return -2
    s = status.socle_degree
    ring = ideal.ring
    # both sides contain m^(s+1), so their truncation spans at s decide it
    other = ideal._span_echelon(s).copy()
    other.insert_all(
        {k: ring.field.one} for k in range(ring.frame_size(s - 1), ring.frame_size(s))
    )
    return s if _colon_maximal_subspace(ideal, s) == other else -1


def eq_ideal(a: IdealHandle, b: IdealHandle) -> bool:
    """Exact equality of two Artin ideals.

    Both contain m^(B+1) for B = max(socle degrees) + 1, so equality of the
    degree-<=B truncation spans is equivalent to equality of the ideals.
    """
    if a.ring != b.ring:
        raise ValueError("ideals from different rings")
    sa = require_artin(a)
    sb = require_artin(b)
    bound = max(sa, sb) + 1
    return a._span_echelon(bound) == b._span_echelon(bound)


def ideal_min_gens(ideal: IdealHandle) -> list[Poly]:
    """A minimal generating subset of the handle's generator list.

    Nakayama: generators are minimal iff their classes form a basis of
    I/(m*I), computed mod m^(s+2) where both spaces are fully visible.
    Candidates are tried lowest degree first (ties broken by the canonical
    order of their lowest homogeneous part, then full canonical text), so the
    selection is deterministic and independent of input order.
    """
    s = require_artin(ideal)
    bound = s + 1
    # m*I mod m^(s+2) is spanned by the x_i-shifts of the cached span at s
    ech = _times_maximal(ideal.ring, ideal._span_echelon(s), bound)

    def sort_key(g: Poly):
        lead = g.homogeneous_component(g.order())
        return (g.degree(), format_poly(lead), format_poly(g))

    selected = []
    for g in sorted(ideal.generators, key=sort_key):
        vec = poly_to_vector(g.truncated(bound))
        if ech.insert(vec) is not None:
            selected.append(g)
    return selected


def minimal_ideal(ring: Ring, span: Echelon, bound: int, socle_degree: int) -> IdealHandle:
    """The Artin ideal J = (rows of ``span``) + m^(bound+1), minimally generated.

    ``span`` is J's truncation span at ``bound`` and ``socle_degree`` <= bound
    is known, so both are seeded into the caches and no Artinianity search
    runs.  Candidates are the rows, then the degree bound+1 monomials.
    """
    gens = [vector_to_poly(ring, row) for row in span.sorted_rows()]
    gens += [Poly.monomial(ring, m) for m in ring.monomials_of_degree(bound + 1)]
    full = IdealHandle(ring, gens)
    full._spans[bound] = span
    full._status = ArtinStatus(True, socle_degree, proven=True, cap=ring.max_degree_cap)
    out = IdealHandle(ring, ideal_min_gens(full))
    out._spans, out._status = full._spans, full._status
    return out
