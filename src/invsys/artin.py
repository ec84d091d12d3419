"""Artinianity, truncation spans, Hilbert functions, socle and type analysis.

An ideal I = (g_1..g_t) of R = k[[x1..xn]] is handled through its images
span_I(B) in the truncations R/m^(B+1), each held as a reduced row-echelon
basis of the <=B frame.  One builder produces them all, from two identities:

* Extension.  span_I(B) = span{g_j mod m^(B+1)} + span{x_i * r : r a row of
  span_I(B-1)}, starting from span_I(0) = 0 (generators are nonunits),
  because I = span{g_j} + m*I and x_i * f mod m^(B+1) only depends on
  f mod m^B.  The second set alone is m*I mod m^(B+1), so the Nakayama pass
  for minimal generators is this step from span_I(s) to s + 1, with the
  generators inserted in canonical order: those that add a pivot are kept.
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

Non-Artinianity is proven when for some i no generator has a pure power
term c*x_i^k: then I <= (x_j : j != i) and A maps onto k[[x_i]].  This
axis certificate never fires on an Artinian ideal, as x_i^d in I forces such
a term.  The graded certificate: if every g_j is a form of degree <= e, A is
Artinian iff m^N <= I for N = n(e-1) + 1.  Proof: ranks survive a field
extension, so let k be infinite.  I = JR for J = (g_j) in P = k[x], and
m^D <= I iff P_D <= J.  If so for some D, each g_j has a power in the ideal
(J_e), which is then primary to (x); so n general forms of J_e are a
regular sequence, and their complete intersection has top degree n(e - 1),
so P_N <= J.  (x_i^3 shows N is tight.)  Otherwise the search stops at the
degree cap, inconclusively.

Socle, type and level are read on the dual side, under contraction.  The
identity (I : m)^perp = m o I^perp holds because f kills m o I^perp iff
every x_i * f kills I^perp.  So the type is dim I^perp - dim m o I^perp; A
is level iff m o I^perp fills I^perp cap S_<=s-1, the perp of span_I(s-1);
and the span of (I : m) at s - 1 is the perp of m o I^perp.

Both actions of m are index arithmetic on the ring's tables: ``_extended``
shifts rows by the raise table, and ``maximal_action`` lowers V's rows by
the lower table for m o V.
"""

from __future__ import annotations

import threading
from typing import NamedTuple, Optional

from .errors import NotArtinError
from .linalg import (
    Echelon,
    SubspaceBasis,
    _projected,
    _unit_echelon,
    kernel_of_vectors,  # noqa: F401  unused; the benchmark's tracer looks it up here
    perp_space,
)
from .poly import CONT, DER, Poly, Ring, _lowered, format_poly


class ArtinStatus(NamedTuple):
    """Outcome of the Artinianity search.

    For a non-Artinian verdict, ``proven`` distinguishes an actual proof (the
    axis or the graded certificate) from cap exhaustion.  A named tuple, not a
    dataclass: ``dataclasses`` imports ``inspect``, which the CLI's start-up
    would pay for.
    """

    artin: bool
    socle_degree: Optional[int]
    proven: bool
    cap: int


class IdealHandle:
    """An ideal of R given by generators, with the analysis done on it.

    Generators must be nonunits (zero constant term); zero generators are
    dropped.  Externally the handle behaves as an immutable value.  It keeps
    one truncation span, the highest built, as ``_top = (bound, echelon)``,
    projects lower bounds from it where rows are read, and reads every
    dimension off its pivots (``_codim``).  The kept span only rises and is
    never inserted into, so threads may share a handle.
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
        self._top: Optional[tuple[int, Echelon]] = None
        self._lock = threading.Lock()
        self._status: Optional[ArtinStatus] = None

    def __repr__(self) -> str:
        return f"IdealHandle({len(self.generators)} generators, {self.ring!r})"

    def _span_echelon(self, bound: int, cut: bool = True) -> Echelon:
        """Echelon of the image of the ideal in R/m^(bound+1): projected from
        a higher kept span (returned uncut when ``cut`` is false), else
        extended from it, or from the zero span, one bound at a time and kept.
        """
        top = self._top  # read once: another thread may raise it meanwhile
        start, ech = top or (0, Echelon(self.ring.char))
        if bound <= start:
            return _projected(ech, self.ring.frame_size(bound)) if bound < start and cut else ech
        for b in range(start + 1, bound + 1):
            ech, _ = _extended(self.ring, ech, self.generators, b)
        self._keep(bound, ech)
        return ech

    def _keep(self, bound: int, ech: Echelon) -> None:
        """Keep ech as span_I(bound) unless a span as high is kept."""
        ech.rows = ech.rows  # drops the column index: nothing inserts into it
        with self._lock:
            if self._top is None or self._top[0] < bound:
                self._top = (bound, ech)


def _extended(ring: Ring, ech: Echelon, gens: list[Poly], bound: int) -> tuple[Echelon, list[Poly]]:
    """The extension step: span_I(bound) from ech = span_I(bound-1).

    The x_i-shifts of ech's rows, read off the ring's raise table, span
    m*I mod m^(bound+1).  A unit row e_p shifts to the units e_(x_i*p), which
    are placed as rows by ``_unit_echelon``; the other rows' shifts, then
    each generator of order <= bound, truncated at bound, in the order given,
    are eliminated stripped of those units.  Returns the span and the
    generators that added a pivot: stripping keeps both, as it is reduction
    by the unit rows.
    """
    shifts = ring.raise_table(bound - 1)
    rows = ech.rows
    units = {up[p] for p, row in rows.items() if len(row) == 1 for up in shifts}
    vecs = [
        vec for row in rows.values() if len(row) > 1 for up in shifts
        if (vec := {u: c for k, c in row.items() for u in (up[k],) if u not in units})
    ]
    # highest leads first: a new pivot then mostly lies below every stored
    # row, where no row holds it; in-process, without this order deep_socle
    # ran 18% and grid_q 20% slower
    vecs.sort(key=min, reverse=True)
    out = _unit_echelon(ring.char, units, vecs)
    added = []
    size = ring.frame_size(bound)
    for g in gens:
        vec = {k: c for k, c in g.vec.items() if k < size and k not in units}
        if vec and out.insert(vec) is not None:
            added.append(g)
    return out, added


def maximal_action(span: SubspaceBasis, action: str) -> Echelon:
    """Echelon of m o V for a subspace V of S, in the frame one degree lower.

    Each row r is carried to every x_i o r by the ring's lower table.  A unit
    row e_p lowers to a nonzero multiple of a unit e_k under either action
    (the weight is an exponent, and differentiation needs characteristic 0),
    so those units are placed as rows by ``_unit_echelon`` and the other
    rows' lowerings are eliminated stripped of them.
    """
    ring = span.ring
    rows = span.echelon.rows
    tables = ring.lower_table(span.bound)
    units = {low for p, row in rows.items() if len(row) == 1 for down in tables if (low := down[p]) is not None}
    weighted = action == DER
    vecs = [
        vec for i in range(ring.nvars) for row in rows.values() if len(row) > 1
        if (vec := _lowered(ring, i, row, weighted, units))
    ]
    # lowest highest index first: in-process, deep_socle ran 17% slower
    # without it (grid_q flat)
    vecs.sort(key=max)
    return _unit_echelon(ring.char, units, vecs)


def truncation_span(ideal: IdealHandle, bound: int) -> SubspaceBasis:
    """Image of the ideal in R/m^(bound+1), as a subspace of the <=bound frame."""
    ideal.ring.check_degree(bound, "bound")
    return SubspaceBasis(ideal.ring, bound, ideal._span_echelon(bound))


def _codim(ideal: IdealHandle, bound: int) -> int:
    """dim R/(I + m^(bound+1)): the size of the <=bound frame less the kept
    span's pivots inside it, which are span_I(bound)'s."""
    size = ideal.ring.frame_size(bound)
    return size - sum(1 for p in ideal._span_echelon(bound, cut=False).rows if p < size)


def contains_power_of_maximal(ideal: IdealHandle, d: int) -> bool:
    """True iff m^d is contained in the ideal.

    The degree-d truncation span holds every degree-d monomial iff it has
    one pivot per degree-d coordinate (a row pivoting there has no lower
    entries), that is iff the codimensions at d and d - 1 agree.  By the
    Nakayama consequence above this decides m^d <= I exactly.
    """
    ideal.ring.check_degree(d)
    return d >= 1 and _codim(ideal, d) == _codim(ideal, d - 1)


def analyze_artin(ideal: IdealHandle) -> ArtinStatus:
    """Search for the least d with m^d <= I; Artin with socle degree d - 1.

    The search stops at the bound of a certificate (see the module
    docstring), where failure is proven, or at the ring's degree cap, where
    it is the inconclusive "not Artinian within cap" verdict.
    """
    if ideal._status is not None:
        return ideal._status
    ring, gens, cap = ideal.ring, ideal.generators, ideal.ring.max_degree_cap
    # a bound N such that m^N <= I if A is Artinian: 0 when the axis
    # certificate proves it is not, n(e-1) + 1 when the graded one applies
    proof_bound = cap + 1
    # a term is a pure power x_i^e, e > 0, when its support is one variable
    supports = ([i for i, e in enumerate(m) if e] for g in gens for m in g.terms)
    if len({s[0] for s in supports if len(s) == 1}) < ring.nvars:
        proof_bound = 0
    elif all(g.is_homogeneous() for g in gens):
        proof_bound = ring.nvars * (max(g.degree() for g in gens) - 1) + 1
    d = next((d for d in range(1, min(proof_bound, cap) + 1) if contains_power_of_maximal(ideal, d)), None)
    artin = d is not None
    ideal._status = ArtinStatus(artin, d - 1 if artin else None, proven=artin or proof_bound <= cap, cap=cap)
    return ideal._status


def require_artin(ideal: IdealHandle) -> int:
    """Socle degree of R/I, or NotArtinError."""
    status = analyze_artin(ideal)
    if not status.artin:
        kind = "proven" if status.proven else f"within cap {status.cap}"
        raise NotArtinError(f"quotient is not Artinian ({kind})", proven=status.proven)
    return status.socle_degree


def hilbert(ideal: IdealHandle) -> list[int]:
    """Hilbert function HF(0..s) of A = R/I; HF(i) = dim n^i / n^(i+1)."""
    codims = [0] + [_codim(ideal, i) for i in range(require_artin(ideal) + 1)]
    return [b - a for a, b in zip(codims, codims[1:])]


def _colon_dual(ideal: IdealHandle, s: int) -> Echelon:
    """(I : m)^perp = m o I^perp under contraction, in the <=s-1 frame."""
    return maximal_action(perp_space(truncation_span(ideal, s), CONT), CONT)


def socle_ideal(ideal: IdealHandle) -> list[Poly]:
    """Minimal generators of the colon ideal (I : m).

    For I = m the colon ideal is the whole ring; that degenerate case is
    reported as the single unit generator [1].
    """
    s = require_artin(ideal)
    if s == 0:
        return [Poly.one(ideal.ring)]
    # (I : m)^perp lies in the <=s-1 frame: (I : m) has socle degree s - 1
    dual = SubspaceBasis(ideal.ring, s - 1, _colon_dual(ideal, s))
    return minimal_ideal(perp_space(dual, CONT)).generators


def cm_type(ideal: IdealHandle) -> int:
    """Cohen-Macaulay type dim soc(A) = dim (I : m)/I; -1 when not Artinian."""
    status = analyze_artin(ideal)
    if not status.artin:
        return -1
    s = status.socle_degree
    return _codim(ideal, s) - _colon_dual(ideal, s).dim


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
    if s == 0:
        return 0
    # m o I^perp always lies in I^perp cap S_<=s-1, so dimensions decide it
    return s if _colon_dual(ideal, s).dim == _codim(ideal, s - 1) else -1


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

    def sort_key(g: Poly):
        lead = g.homogeneous_component(g.order())
        return (g.degree(), format_poly(lead), format_poly(g))

    # the extension step to s + 1: the shifts of span_I(s) span m*I there
    gens = sorted(ideal.generators, key=sort_key)
    return _extended(ideal.ring, ideal._span_echelon(s), gens, s + 1)[1]


def minimal_ideal(span: SubspaceBasis) -> IdealHandle:
    """The ideal J = span + m^(B+1), B the frame bound, minimally generated.

    ``span`` is J's truncation span at B, and B is J's socle degree (span is
    the perp of a space with a degree-B element), so both are seeded and no
    Artinianity search runs.  Candidates are the rows, then m^(B+1)'s.
    """
    ring, bound = span.ring, span.bound
    gens = span.row_polys() + [Poly.monomial(ring, m) for m in ring.monomials_of_degree(bound + 1)]
    out = IdealHandle(ring, gens)
    out._keep(bound, span.echelon)
    out._status = ArtinStatus(True, bound, proven=True, cap=ring.max_degree_cap)
    out.generators = ideal_min_gens(out)
    return out
