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
the closure span, the k-span of all iterated variable actions on the
generators, cached on the handle.  Its frame is bounded by the ring's degree
cap.
"""

from __future__ import annotations

from typing import Optional

from .artin import IdealHandle, maximal_action, minimal_ideal, require_artin, truncation_span
from .errors import DegreeCapError, VerificationError
from .linalg import (
    Echelon,
    Frame,
    SubspaceBasis,
    perp_space,
    poly_to_vector,
    solve_combination,
    span_of,
)
from .poly import (
    Poly,
    Ring,
    apply_action,
    check_action,
    format_poly,
    top_form,
)


class SubmoduleHandle:
    """A finitely generated sub-R-module of S, under one of the two actions.

    Zero generators are dropped.  The closure cache is write-once; handles
    are externally immutable and safe to share.
    """

    def __init__(self, ring: Ring, generators: list[Poly], action: Optional[str] = None):
        if action is None:
            action = ring.default_action
        check_action(ring, action)
        gens = []
        for g in generators:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if not g.is_zero():
                gens.append(g)
        self.ring = ring
        self.action = action
        self.generators = gens
        self._closure: Optional[Echelon] = None

    @property
    def degree_bound(self) -> int:
        """Top generator degree; -1 for the zero module."""
        return max((g.degree() for g in self.generators), default=-1)

    def closure(self) -> Echelon:
        """Span of all x^a o g_j: the module as a subspace of S_<=D."""
        if self._closure is None:
            ring = self.ring
            if self.degree_bound > ring.max_degree_cap:
                raise DegreeCapError(
                    f"module degree {self.degree_bound} exceeds degree cap {ring.max_degree_cap}"
                )
            ech = Echelon()
            for g in self.generators:
                for mono in ring.monomials_upto(g.degree()):
                    h = apply_action(self.action, Poly.monomial(ring, mono), g)
                    if not h.is_zero():
                        ech.insert(poly_to_vector(h))
            self._closure = ech
        return self._closure

    def __repr__(self) -> str:
        return (
            f"SubmoduleHandle({len(self.generators)} generators, "
            f"action={self.action!r}, {self.ring!r})"
        )


def closure_span(module: SubmoduleHandle) -> SubspaceBasis:
    """The module's closure as a subspace of its degree-bound frame."""
    return SubspaceBasis(
        Frame(module.ring, max(module.degree_bound, 0)), module.closure()
    )


def member_ih(g: Poly, module: SubmoduleHandle) -> bool:
    """Does g lie in the submodule generated by the handle's generators?"""
    if g.ring != module.ring:
        raise ValueError("polynomial from a different ring")
    if g.is_zero():
        return True
    if g.degree() > module.degree_bound:
        return False
    return module.closure().contains(poly_to_vector(g))


def _check_compatible(a: SubmoduleHandle, b: SubmoduleHandle) -> None:
    if a.ring != b.ring:
        raise ValueError("modules from different rings")
    if a.action != b.action:
        raise ValueError(f"module actions differ: {a.action!r} vs {b.action!r}")


def sub_mod_ih(a: SubmoduleHandle, b: SubmoduleHandle) -> bool:
    """True iff the module of ``a`` is contained in the module of ``b``."""
    _check_compatible(a, b)
    target = b.closure()
    return all(target.contains(row) for row in a.closure().rows.values())


def eq_mod_ih(a: SubmoduleHandle, b: SubmoduleHandle) -> bool:
    """True iff the two handles generate the same submodule of S."""
    _check_compatible(a, b)
    return a.closure() == b.closure()


def min_gens_ih(module: SubmoduleHandle) -> list[Poly]:
    """A minimal generating subset of the handle's generator list.

    Nakayama for the dual side: generators are minimal iff their classes span
    closure/(m o closure).  Candidates are tried top degree first (ties by
    canonical order of the top form, then full canonical text), matching the
    normalization used for inverse-system output.
    """
    ech = maximal_action(closure_span(module), module.action)

    def sort_key(g: Poly):
        return (-g.degree(), format_poly(top_form(g)), format_poly(g))

    selected = []
    for g in sorted(module.generators, key=sort_key):
        if ech.insert(poly_to_vector(g)) is not None:
            selected.append(g)
    return selected


def inv_syst(ideal: IdealHandle, action: Optional[str] = None) -> SubmoduleHandle:
    """Macaulay inverse system I^perp of an Artin ideal, minimally generated.

    Computed as the orthogonal complement of the degree-<=s truncation span
    under the action's monomial pairing; the closure of the result is that
    complement, and dim closure = dim_k R/I.
    """
    ring = ideal.ring
    if action is None:
        action = ring.default_action
    check_action(ring, action)
    s = require_artin(ideal)
    return minimal_module(perp_space(truncation_span(ideal, s), action), action)


def minimal_module(closure: SubspaceBasis, action: str) -> SubmoduleHandle:
    """The submodule whose closure span is ``closure``, minimally generated.

    One handle on the closure's rows, with the closure seeded, so the
    Nakayama pass of :func:`min_gens_ih` reads it instead of rebuilding it.
    """
    out = SubmoduleHandle(closure.frame.ring, closure.row_polys(), action)
    out._closure = closure.echelon
    out.generators = min_gens_ih(out)
    return out


def ideal_ann(module: SubmoduleHandle) -> IdealHandle:
    """Annihilator ideal M^perp = (0 : M) of a nonzero submodule of S."""
    if not module.generators:
        raise ValueError("zero module: annihilator is the whole ring")
    # the closure's complement is the span at D, and D is the socle degree
    return minimal_ideal(perp_space(closure_span(module), module.action))


def colon_inv_syst(f: Poly, g: Poly, action: Optional[str] = None) -> Optional[Poly]:
    """Some h in R of degree <= deg f with h o f = g, or None.

    Monomials of h above deg f act as zero on f, so searching R_<=deg(f)
    loses nothing.  The solver reduces against an echelon built in canonical
    unknown order, so the returned representative is deterministic.
    """
    ring = f.ring
    if action is None:
        action = ring.default_action
    check_action(ring, action)
    if f.is_zero():
        raise ValueError("colon solving requires f != 0")
    if g.ring != ring:
        raise ValueError("polynomials from different rings")
    d = f.degree()
    if d > ring.max_degree_cap:
        raise DegreeCapError(f"module degree {d} exceeds degree cap {ring.max_degree_cap}")
    if g.degree() > d:
        return None
    unknowns = ring.monomials_upto(d)
    vectors = [
        poly_to_vector(apply_action(action, Poly.monomial(ring, mono), f))
        for mono in unknowns
    ]
    sol = solve_combination(
        vectors, poly_to_vector(g), ring.frame_size(d), ring.field.one
    )
    if sol is None:
        return None
    h = Poly(ring, {unknowns[k]: c for k, c in sol.items()})
    if apply_action(action, h, f) != g:
        raise VerificationError("colon solution fails the check h o f = g")
    return h


def hilbert_via_inverse_system(
    ideal: IdealHandle, action: Optional[str] = None
) -> list[int]:
    """Hilbert function read off the inverse system instead of R/I.

    HF(i) is the dimension of the degree-i graded slice of I^perp,
    dim (I^perp cap S_<=i + S_<i) / S_<i, computed from intersection
    dimensions dim(C cap S_<=i) = dim C + dim S_<=i - dim(C + S_<=i); an
    independent route that must agree with :func:`invsys.artin.hilbert`.
    """
    ring = ideal.ring
    if action is None:
        action = ring.default_action
    s = require_artin(ideal)
    closure = perp_space(truncation_span(ideal, s), action).echelon
    dims = []
    prev = 0
    one = ring.field.one
    for i in range(s + 1):
        m_i = ring.frame_size(i)
        joint = closure.copy()
        for idx in range(m_i):
            joint.insert({idx: one})
        cap_dim = closure.dim + m_i - joint.dim
        dims.append(cap_dim - prev)
        prev = cap_dim
    return dims


def is_level_dual(ideal: IdealHandle, action: Optional[str] = None) -> bool:
    """Level test via the inverse system.

    A is level iff I^perp has a minimal generating set of polynomials all of
    degree s whose top forms are linearly independent; must agree with
    ``is_level(ideal) >= 0``.
    """
    s = require_artin(ideal)
    module = inv_syst(ideal, action)
    gens = module.generators
    if any(g.degree() != s for g in gens):
        return False
    tops = [top_form(g) for g in gens]
    return span_of(tops, Frame(ideal.ring, s)).dim == len(tops)
