"""Macaulay's correspondence between Artin ideals and submodules of S.

The polynomial ring S is the injective hull of the residue field over
R = k[[x1..xn]], with R acting by differentiation (char 0) or contraction
(any characteristic).  This module implements both directions of the
resulting order-reversing bijection:

* ``inv_syst``:  I  ->  I^perp = {g in S : I o g = 0}, a finitely generated
  sub-R-module of S.  Since m^(s+1) <= I for the socle degree s, I^perp
  lives inside the degree-<=s frame and is the pairing-orthogonal complement
  of the ideal's truncation span there.
* ``ideal_ann``:  M  ->  M^perp = (0 : M), an Artin ideal of R.  With D the
  top generator degree of M, any f splits as f = f_(<=D) + f_(>D); the tail
  annihilates M outright, so M^perp = L + m^(D+1) with
  L = {f in R_<=D : f o g_j = 0 for all j}.  The coefficient of x^b in
  f o g vanishes iff f pairs to zero with x^b o g, so L is the orthogonal
  complement of the closure span in the <=D frame.  The resulting quotient
  has socle degree exactly D.

Each direction is one complement and one seeded constructor, here
``minimal_module`` and :func:`invsys.artin.minimal_ideal`: one handle on the
complement's rows, the complement seeded, the Nakayama selection kept.

Submodules are handled by generator lists; the canonical semantic object is
the closure span, the k-span of all x^a o g_j in the frame of the top
generator degree, bounded by the ring's degree cap.  It is what
``SubmoduleHandle.closure`` returns, a ``SubspaceBasis`` cached on the
handle.  The closure and the colon's equations come from ``_orbit``, which
builds the x^a o g of each degree from those of the degree below, in the
blocks in which the ring builds its monomials, on index vectors through
``_lowered``; ``apply_action`` only re-checks the colon's answer.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .artin import IdealHandle, maximal_action, minimal_ideal, require_artin, truncation_span
from .errors import VerificationError
from .linalg import Echelon, SubspaceBasis, Vector, perp_space
from .poly import (
    CONT, DER, Poly, Ring, _from_ratios, _lowered, _next_degree, apply_action, check_action, format_poly, sigma,
    top_form,
)


def _orbit(ring: Ring, vec: Vector, bound: int, action: str) -> Iterator[Vector]:
    """x^a o vec for every x^a in the <=bound frame, in canonical order.

    Degree d + 1 comes from degree d by ``_next_degree``: block i is x_i o v
    over the last vectors v of degree d's, by ``_lowered``, so only the
    previous degree's vectors are held.
    """
    ring.raise_table(bound - 1)
    weighted = action == DER

    def times(i: int, block: list[Vector]) -> list[Vector]:
        return [_lowered(ring, i, v, weighted) for v in block]

    layer = [vec]
    yield vec
    for d in range(bound):
        layer = _next_degree(layer, ring.nvars, d, times)
        yield from layer


class SubmoduleHandle:
    """A finitely generated sub-R-module of S, under one of the two actions.

    Zero generators are dropped.  The closure cache is write-once; handles
    are externally immutable and safe to share.
    """

    def __init__(self, ring: Ring, generators: list[Poly], action: Optional[str] = None):
        action = check_action(ring, ring.default_action if action is None else action)
        gens = []
        for g in generators:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if not g.is_zero():
                gens.append(g)
        self.ring = ring
        self.action = action
        self.generators = gens
        self._closure: Optional[SubspaceBasis] = None

    @property
    def degree_bound(self) -> int:
        """Top generator degree; -1 for the zero module."""
        return max((g.degree() for g in self.generators), default=-1)

    def closure(self) -> SubspaceBasis:
        """Span of all x^a o g_j: the module as a subspace of S_<=D, for D
        the top generator degree (0 for the zero module)."""
        if self._closure is None:
            ring, bound = self.ring, self.degree_bound
            ring.check_degree(bound, "module degree")
            ech = Echelon(ring.char)
            for g in self.generators:
                orbit = _orbit(ring, g.vec, g.degree(), self.action)
                ech.insert_all(vec for vec in orbit if vec)
            self._closure = SubspaceBasis(ring, max(bound, 0), ech)
        return self._closure

    def __repr__(self) -> str:
        return (
            f"SubmoduleHandle({len(self.generators)} generators, "
            f"action={self.action!r}, {self.ring!r})"
        )


def member_ih(g: Poly, module: SubmoduleHandle) -> bool:
    """Does g lie in the submodule generated by the handle's generators?"""
    if g.ring != module.ring:
        raise ValueError("polynomial from a different ring")
    if g.is_zero():
        return True
    if g.degree() > module.degree_bound:
        return False
    return module.closure().echelon.contains(g.vec)


def _check_compatible(a: SubmoduleHandle, b: SubmoduleHandle) -> None:
    if a.ring != b.ring:
        raise ValueError("modules from different rings")
    if a.action != b.action:
        raise ValueError(f"module actions differ: {a.action!r} vs {b.action!r}")


def sub_mod_ih(a: SubmoduleHandle, b: SubmoduleHandle) -> bool:
    """True iff the module of ``a`` is contained in the module of ``b``."""
    _check_compatible(a, b)
    target = b.closure().echelon
    return all(target.contains(row) for row in a.closure().echelon.rows.values())


def eq_mod_ih(a: SubmoduleHandle, b: SubmoduleHandle) -> bool:
    """True iff the two handles generate the same submodule of S."""
    _check_compatible(a, b)
    return a.closure().echelon == b.closure().echelon


def min_gens_ih(module: SubmoduleHandle) -> list[Poly]:
    """A minimal generating subset of the handle's generator list.

    Nakayama for the dual side: generators are minimal iff their classes span
    closure/(m o closure).  Candidates are tried top degree first (ties by
    canonical order of the top form, then full canonical text), matching the
    normalization used for inverse-system output.
    """
    ech = maximal_action(module.closure(), module.action)

    def sort_key(g: Poly):
        return (-g.degree(), format_poly(top_form(g)), format_poly(g))

    selected = []
    for g in sorted(module.generators, key=sort_key):
        if ech.insert(g.vec) is not None:
            selected.append(g)
    return selected


def inv_syst(ideal: IdealHandle, action: Optional[str] = None) -> SubmoduleHandle:
    """Macaulay inverse system I^perp of an Artin ideal, minimally generated.

    Computed as the orthogonal complement of the degree-<=s truncation span
    under the action's monomial pairing; the closure of the result is that
    complement, and dim closure = dim_k R/I.
    """
    ring = ideal.ring
    action = check_action(ring, ring.default_action if action is None else action)
    s = require_artin(ideal)
    return minimal_module(perp_space(truncation_span(ideal, s), action), action)


def minimal_module(closure: SubspaceBasis, action: str) -> SubmoduleHandle:
    """The submodule whose closure span is ``closure``, minimally generated.

    One handle on the closure's rows, with the closure seeded, so the
    Nakayama pass of :func:`min_gens_ih` reads it instead of rebuilding it.
    """
    out = SubmoduleHandle(closure.ring, closure.row_polys(), action)
    out._closure = closure
    out.generators = min_gens_ih(out)
    return out


def ideal_ann(module: SubmoduleHandle) -> IdealHandle:
    """Annihilator ideal M^perp = (0 : M) of a nonzero submodule of S."""
    if not module.generators:
        raise ValueError("zero module: annihilator is the whole ring")
    # the closure's complement is the span at D, and D is the socle degree
    return minimal_ideal(perp_space(module.closure(), module.action))


def colon_inv_syst(f: Poly, g: Poly, action: Optional[str] = None) -> Optional[Poly]:
    """Some h in R of degree <= deg f with h o f = g, or None.

    Monomials of h above deg f act as zero on f, so R_<=deg(f) is searched.
    As sigma(h o_der f) = h o_cont sigma(f), the solve is h o F = G under
    contraction, with F, G = sigma(f), sigma(g) for differentiation and f, g
    else.  The coefficient of x^b in h o F is <h, x^b o F>, so equation b
    is the row x^b o F from ``_orbit`` = G_b.  Unknown x^a is keyed at -a
    and G_b at 1, so a reduced row pivots at its highest unknown, and a row
    at 1 reads 0 = 1.  h is read off the pivots, its free unknowns zero.

    That is the h of a solve that tags each x^a o f with a coordinate of its
    own and reduces g.  With N the kernel of c -> sum_a c_a (x^a o f), that
    solve returns the unique solution vanishing on L(N), the lowest-index
    pivots of N.  For any subspace N, L(N) and H(N^perp), the highest-index
    pivots of N^perp, split the coordinates: an n in N with lowest entry at
    j and a w in N^perp with highest entry at j would give n.w = n_j * w_j
    != 0, and their sizes add up to the number of coordinates.  N^perp is
    the row space of the equations: under contraction the matrix f_(a+b) is
    symmetric, and under differentiation equation b times b! is the row of
    sigma(f).  So that solution is the one supported on H(N^perp).
    """
    ring = f.ring
    action = check_action(ring, ring.default_action if action is None else action)
    if f.is_zero():
        raise ValueError("colon solving requires f != 0")
    if g.ring != ring:
        raise ValueError("polynomials from different rings")
    d = f.degree()
    ring.check_degree(d, "module degree")
    if g.degree() > d:
        return None
    big_f, big_g = (sigma(f), sigma(g)) if action == DER else (f, g)
    ech = Echelon(ring.char)
    for b, vec in enumerate(_orbit(ring, big_f.vec, d, CONT)):
        row = {-a: c for a, c in vec.items()}
        if b in big_g.vec:
            row[1] = -big_g.vec[b]
        if row and ech.insert(row) == 1:
            return None  # the row reads 0 = 1
    # y = h * den G / den F solves y o F.vec = G.vec, and row p reads y_-p * row[p] + row[1] = 0
    solved = [(-p, -row[1] * big_f.den, row[p] * big_g.den) for p, row in ech.rows.items() if 1 in row]
    h = _from_ratios(ring, solved)
    if apply_action(action, h, f) != g:
        raise VerificationError("colon solution fails the check h o f = g")
    return h
