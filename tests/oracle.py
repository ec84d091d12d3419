"""From-scratch reference versions of the span-based ideal computations.

These rebuild every truncation span from all products x^a * g_j, cut off at
the bound, and test m^d <= I one monomial at a time: no extension from a
lower bound, no projection from a higher one and no cached spans.  The
orthogonal complement, the colon ideal and the annihilator are each solved
as a tracked kernel (``kernel_of_vectors``), and the axis certificate sets
variables to zero.  A module's closure, m o M and the colon's unknowns are
formed by applying each monomial to a polynomial with ``apply_action``,
where the library lowers index vectors through the ring's lower table.
The colon is solved over every unknown, each tagged with a coordinate of
its own, where the library reads h off the echelon of its equations.  They
share only the echelon and the module actions with the library, none of its
span builder, read-off complement, colon solve, monomial tables or seeded
caches, so they can cross-check those.

Coefficients are read through the public ``p.terms`` and ``p.den`` and
``ring.index_of`` into this module's own exact vectors, ``Fraction`` over Q
and residues over F_p.  Where vectors of several polynomials must keep
their relative scale (a kernel or a solve over them), all of them are
cleared to ints by one common denominator before the echelon sees them.

The echelon itself is checked against ``rref``: dense Gauss-Jordan
elimination over those scalars, with no column index and no integer rows.

Last come the library's dual routes, ``hilbert_via_inverse_system`` and
``is_level_dual``.  They read the Hilbert function and the level verdict off
the inverse system I^perp, through the library's own ``inv_syst`` and
``perp_space``, so they check the graded structure of I^perp against the
primal answers of :mod:`invsys.artin`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import invsys
from invsys import (
    DER,
    ArtinStatus,
    Echelon,
    IdealHandle,
    Poly,
    Ring,
    SubmoduleHandle,
    SubspaceBasis,
    apply_action,
    format_poly,
    span_of,
    top_form,
)
from invsys.artin import require_artin
from invsys.linalg import Vector, kernel_of_vectors


def monomials_upto(ring: Ring, degree: int) -> list[tuple[int, ...]]:
    """All monomials of degree <= ``degree``, in canonical order."""
    return [m for d in range(degree + 1) for m in ring.monomials_of_degree(d)]


def sorted_rows(ech: Echelon) -> list[Vector]:
    """ech's rows in pivot order."""
    return [ech.rows[p] for p in sorted(ech.rows)]


def exact(p: Poly) -> dict[int, Fraction]:
    """p's coefficients by monomial index, as exact rationals (over F_p the
    denominator is 1, so these are the residues)."""
    index = p.ring.index_of
    return {index(m): Fraction(c, p.den) for m, c in p.terms.items()}


def integral(vectors: list[dict[int, Fraction]]) -> list[Vector]:
    """The vectors times one common denominator, as int vectors."""
    den = math.lcm(*(c.denominator for v in vectors for c in v.values()))
    return [{k: int(c * den) for k, c in v.items()} for v in vectors]


def vector(p: Poly) -> Vector:
    """An int vector spanning the same line as p."""
    return integral([exact(p)])[0]


def poly_of(ring, vec: dict, den: int = 1) -> Poly:
    """The polynomial with coefficient vec[k] / den at monomial index k."""
    return Poly(ring, {ring.monomial_at(k): Fraction(c, den) for k, c in vec.items()})


def rref(vectors: list[Vector], char: int) -> dict[int, dict]:
    """The reduced row-echelon form of the vectors' span: {pivot: row}, each
    row's unit pivot at its lowest index and every other row zero there;
    ``Echelon.rows`` holds a multiple of each row.  Dense Gauss-Jordan,
    column by column, over ``Fraction`` or residues mod ``char``."""

    def field(c):
        return c % char if char else Fraction(c)

    def div(a, b):
        return a * pow(b, -1, char) % char if char else a / b

    width = 1 + max((k for v in vectors for k in v), default=-1)
    mat = [[field(v.get(k, 0)) for k in range(width)] for v in vectors]
    pivots = []
    for col in range(width):
        rank = len(pivots)
        hit = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if hit is None:
            continue
        mat[rank], mat[hit] = mat[hit], mat[rank]
        inv = mat[rank][col]
        mat[rank] = [div(c, inv) for c in mat[rank]]
        for i, row in enumerate(mat):
            if i != rank and row[col]:
                f = row[col]
                mat[i] = [field(a - f * b) for a, b in zip(row, mat[rank])]
        pivots.append(col)
    return {col: {k: c for k, c in enumerate(mat[i]) if c} for i, col in enumerate(pivots)}


def product_span(ideal: IdealHandle, bound: int, min_multiplier: int = 0) -> Echelon:
    """Echelon of all x^a * g, |a| >= min_multiplier, truncated at ``bound``."""
    ring = ideal.ring
    ech = Echelon(ring.char)
    for g in ideal.generators:
        if g.order() > bound:
            continue
        for mono in monomials_upto(ring, bound - g.order()):
            if sum(mono) >= min_multiplier:
                prod = (g * Poly.monomial(ring, mono)).truncated(bound)
                if not prod.is_zero():
                    ech.insert(vector(prod))
    return ech


def on_axis(g: Poly, i: int) -> Poly:
    """g with every variable but x_(i+1) set to zero."""
    return Poly(g.ring, {m: Fraction(c, g.den) for m, c in g.terms.items() if not any(m[:i] + m[i + 1:])})


def artin_status(ideal: IdealHandle) -> ArtinStatus:
    """The Artinianity verdict by a search that rebuilds each span.

    Proven non-Artinian when every generator vanishes on some coordinate
    axis, so that R/I maps onto the power series in that variable, or when
    every generator is homogeneous of degree at most e and m^N is not in I
    for N = n(e - 1) + 1 (the library's graded certificate).
    """
    ring = ideal.ring
    cap = ring.max_degree_cap
    if any(all(on_axis(g, i).is_zero() for g in ideal.generators) for i in range(ring.nvars)):
        return ArtinStatus(artin=False, socle_degree=None, proven=True, cap=cap)
    graded = cap + 1
    if all(len({sum(m) for m in g.terms}) == 1 for g in ideal.generators):
        graded = ring.nvars * (max(sum(m) for g in ideal.generators for m in g.terms) - 1) + 1
    for d in range(1, min(graded, cap) + 1):
        ech = product_span(ideal, d)
        if all(ech.contains({ring.index_of(m): 1}) for m in ring.monomials_of_degree(d)):
            return ArtinStatus(artin=True, socle_degree=d - 1, proven=True, cap=cap)
    return ArtinStatus(artin=False, socle_degree=None, proven=graded <= cap, cap=cap)


def min_gens(ideal: IdealHandle, socle_degree: int | None = None) -> list[Poly]:
    """Nakayama selection against m*I built from all products with |a| >= 1."""
    if socle_degree is None:
        socle_degree = artin_status(ideal).socle_degree
    bound = socle_degree + 1
    ech = product_span(ideal, bound, min_multiplier=1)

    def sort_key(g: Poly):
        lead = g.homogeneous_component(g.order())
        return (g.degree(), format_poly(lead), format_poly(g))

    selected = []
    for g in sorted(ideal.generators, key=sort_key):
        if ech.insert(vector(g.truncated(bound))) is not None:
            selected.append(g)
    return selected


def colon_span(ideal: IdealHandle, s: int) -> list[Vector]:
    """Reduced basis of {f in R_<=s : x_i * f in I for all i}, the truncation
    span of (I : m) at bound s, solved as one kernel mod m^(s+2)."""
    ring = ideal.ring
    big = product_span(ideal, s + 1)
    m1 = ring.frame_size(s + 1)
    vectors = []
    for mono in monomials_upto(ring, s):
        combined = {}
        for i in range(ring.nvars):
            shifted = Poly.monomial(ring, mono) * Poly.variable(ring, i + 1)
            for idx, c in residue(big, vector(shifted)).items():
                combined[i * m1 + idx] = c
        vectors.append(combined)
    return kernel_of_vectors(integral(vectors), ring.nvars * m1, ring.char)


def residue(ech: Echelon, vec: Vector) -> dict[int, Fraction]:
    """vec modulo ech's span, exactly: ``reduce`` returns a multiple of it,
    so a tag 1 at coordinate -1, which no row holds, reads the multiple."""
    res = ech.reduce({**vec, -1: 1})
    scale = res.pop(-1)
    return {k: Fraction(c, scale) for k, c in res.items()}


def socle(ideal: IdealHandle) -> list[Poly]:
    """Minimal generators of (I : m), the colon ideal searched afresh."""
    ring = ideal.ring
    s = artin_status(ideal).socle_degree
    if s == 0:
        return [Poly.one(ring)]
    gens = [poly_of(ring, vec, vec[min(vec)]) for vec in colon_span(ideal, s)]
    gens += [Poly.monomial(ring, m) for m in ring.monomials_of_degree(s + 1)]
    return min_gens(IdealHandle(ring, gens))


def cm_type(ideal: IdealHandle) -> int:
    """dim (I : m)/I from the colon kernel and the product span at s."""
    s = artin_status(ideal).socle_degree
    return len(colon_span(ideal, s)) - product_span(ideal, s).dim


def is_ag(ideal: IdealHandle) -> int:
    s = artin_status(ideal).socle_degree
    return s if cm_type(ideal) == 1 else -1


def is_level(ideal: IdealHandle) -> int:
    """s when (I : m) = I + m^s, compared as spans at bound s, else -1."""
    ring = ideal.ring
    s = artin_status(ideal).socle_degree
    other = product_span(ideal, s)
    other.insert_all({k: 1} for k in range(ring.frame_size(s - 1), ring.frame_size(s)))
    return s if {min(v): v for v in colon_span(ideal, s)} == other.rows else -1


def perp_space(u: SubspaceBasis, action: str) -> SubspaceBasis:
    """The complement as the kernel of U's transposed rows, then weighted."""
    ring = u.ring
    m = u.size
    columns: list[Vector] = [dict() for _ in range(m)]
    for ri, row in enumerate(sorted_rows(u.echelon)):
        for c, val in row.items():
            columns[c][ri] = val
    ech = Echelon(ring.char)
    for vec in kernel_of_vectors(columns, m, ring.char):
        if action == DER:
            vec = integral([
                {c: Fraction(val, math.prod(map(math.factorial, ring.monomial_at(c)))) for c, val in vec.items()}
            ])[0]
        ech.insert(vec)
    return SubspaceBasis(ring, u.bound, ech)


def closure(module: SubmoduleHandle) -> Echelon:
    """Span of every x^a o g_j, each applied to the generator as a polynomial."""
    ring = module.ring
    ech = Echelon(ring.char)
    for g in module.generators:
        for mono in monomials_upto(ring, g.degree()):
            h = apply_action(module.action, Poly.monomial(ring, mono), g)
            if not h.is_zero():
                ech.insert(vector(h))
    return ech


def colon(f: Poly, g: Poly, action: str) -> Optional[Poly]:
    """Some h in R_<=deg f with h o f = g, or None: a solve over every
    unknown, zeros included, each monomial x^a applied to f as a polynomial.

    Each vector x^a o f, tagged with 1 at its own coordinate width + a, is
    inserted, and g, tagged with 1 at coordinate -1, which no row holds, is
    reduced.  A residue left in the first ``width`` coordinates means no
    solution; otherwise the residue reads some s > 0 at -1 and -s * h_a at
    width + a.
    """
    ring = f.ring
    d = f.degree()
    if g.degree() > d:
        return None
    unknowns = monomials_upto(ring, d)
    *vectors, target = integral([exact(apply_action(action, Poly.monomial(ring, m), f)) for m in unknowns] + [exact(g)])
    width = ring.frame_size(d)
    ech = Echelon(ring.char)
    ech.insert_all({**v, width + k: 1} for k, v in enumerate(vectors))
    res = ech.reduce({**target, -1: 1})
    scale = res.pop(-1)
    if any(k < width for k in res):
        return None
    return Poly(ring, {unknowns[k - width]: Fraction(-c, scale) for k, c in res.items()})


def maximal_action(span: SubspaceBasis, action: str) -> Echelon:
    """Echelon of m o V, every x_i applied to every row as a polynomial."""
    ring = span.ring
    ech = Echelon(ring.char)
    for row in sorted_rows(span.echelon):
        g = poly_of(ring, row)
        for i in range(1, ring.nvars + 1):
            h = apply_action(action, Poly.variable(ring, i), g)
            if not h.is_zero():
                ech.insert(vector(h))
    return ech


def min_gens_ih(module: SubmoduleHandle) -> list[Poly]:
    """Nakayama selection against m o closure built by applying each x_i."""
    span = SubspaceBasis(module.ring, max(module.degree_bound, 0), closure(module))
    ech = maximal_action(span, module.action)

    def sort_key(g: Poly):
        return (-g.degree(), format_poly(top_form(g)), format_poly(g))

    selected = []
    for g in sorted(module.generators, key=sort_key):
        if ech.insert(vector(g)) is not None:
            selected.append(g)
    return selected


def inv_syst(ideal: IdealHandle, action: str) -> list[Poly]:
    """Minimal generators of I^perp: the kernel complement of the product span."""
    ring = ideal.ring
    s = artin_status(ideal).socle_degree
    perp = perp_space(SubspaceBasis(ring, s, product_span(ideal, s)), action)
    return min_gens_ih(SubmoduleHandle(ring, perp.row_polys(), action))


def ideal_ann(module: SubmoduleHandle) -> list[Poly]:
    """Minimal generators of (0 : M) from the kernel solve plus m^(D+1)."""
    ring = module.ring
    d = module.degree_bound
    m1 = ring.frame_size(d)
    monos = monomials_upto(ring, d)
    vectors = []
    for mono in monos:
        combined = {}
        for j, g in enumerate(module.generators):
            h = apply_action(module.action, Poly.monomial(ring, mono), g)
            for idx, c in exact(h).items():
                combined[j * m1 + idx] = c
        vectors.append(combined)
    kernel = kernel_of_vectors(integral(vectors), len(module.generators) * m1, ring.char)
    gens = [Poly(ring, {monos[k]: Fraction(c, vec[min(vec)]) for k, c in vec.items()}) for vec in kernel]
    gens += [Poly.monomial(ring, m) for m in ring.monomials_of_degree(d + 1)]
    return min_gens(IdealHandle(ring, gens), socle_degree=d)


def hilbert_via_inverse_system(ideal: IdealHandle, action: Optional[str] = None) -> list[int]:
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
    closure = invsys.perp_space(invsys.truncation_span(ideal, s), action).echelon
    dims = []
    prev = 0
    for i in range(s + 1):
        m_i = ring.frame_size(i)
        joint = closure.copy()
        for idx in range(m_i):
            joint.insert({idx: 1})
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
    module = invsys.inv_syst(ideal, action)
    gens = module.generators
    if any(g.degree() != s for g in gens):
        return False
    tops = [top_form(g) for g in gens]
    return span_of(tops, ideal.ring, s).dim == len(tops)
