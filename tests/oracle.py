"""From-scratch reference versions of the span-based ideal computations.

These rebuild every truncation span from all products x^a * g_j, cut off at
the bound, and test m^d <= I one monomial at a time: no extension from a
lower bound, no projection from a higher one and no cached spans.  They
share the echelon, the kernel solve and the module actions with the library,
but none of the span builder or its consumers in ``invsys.artin``, so they
can cross-check it.
"""

from __future__ import annotations

from invsys import ArtinStatus, Echelon, IdealHandle, Poly, SubmoduleHandle, apply_action, format_poly
from invsys.linalg import kernel_of_vectors, poly_to_vector


def product_span(ideal: IdealHandle, bound: int, min_multiplier: int = 0) -> Echelon:
    """Echelon of all x^a * g, |a| >= min_multiplier, truncated at ``bound``."""
    ring = ideal.ring
    ech = Echelon()
    for g in ideal.generators:
        if g.order() > bound:
            continue
        for mono in ring.monomials_upto(bound - g.order()):
            if sum(mono) >= min_multiplier:
                prod = (g * Poly.monomial(ring, mono)).truncated(bound)
                if not prod.is_zero():
                    ech.insert(poly_to_vector(prod))
    return ech


def artin_status(ideal: IdealHandle) -> ArtinStatus:
    """The Artinianity verdict by a search that rebuilds each span."""
    ring = ideal.ring
    cap = ring.max_degree_cap
    used = set().union(*(g.support_variables() for g in ideal.generators))
    if len(used) < ring.nvars:
        return ArtinStatus(artin=False, socle_degree=None, proven=True, cap=cap)
    for d in range(1, cap + 1):
        ech = product_span(ideal, d)
        if all(ech.contains({ring.index_of(m): ring.field.one}) for m in ring.monomials_of_degree(d)):
            return ArtinStatus(artin=True, socle_degree=d - 1, proven=True, cap=cap)
    return ArtinStatus(artin=False, socle_degree=None, proven=False, cap=cap)


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
        if ech.insert(poly_to_vector(g.truncated(bound))) is not None:
            selected.append(g)
    return selected


def socle(ideal: IdealHandle) -> list[Poly]:
    """Minimal generators of (I : m), the colon ideal searched afresh."""
    ring = ideal.ring
    s = artin_status(ideal).socle_degree
    if s == 0:
        return [Poly.one(ring)]
    big = product_span(ideal, s + 1)
    m1 = ring.frame_size(s + 1)
    monos = ring.monomials_upto(s)
    vectors = []
    for mono in monos:
        combined = {}
        for i in range(ring.nvars):
            shifted = Poly.monomial(ring, mono) * Poly.variable(ring, i + 1)
            for idx, c in big.reduce(poly_to_vector(shifted)).items():
                combined[i * m1 + idx] = c
        vectors.append(combined)
    kernel = kernel_of_vectors(vectors, ring.nvars * m1, ring.field.one)
    gens = [Poly(ring, {monos[k]: c for k, c in vec.items()}) for vec in kernel]
    gens += [Poly.monomial(ring, m) for m in ring.monomials_of_degree(s + 1)]
    return min_gens(IdealHandle(ring, gens))


def ideal_ann(module: SubmoduleHandle) -> list[Poly]:
    """Minimal generators of (0 : M) from the kernel solve plus m^(D+1)."""
    ring = module.ring
    d = module.degree_bound
    m1 = ring.frame_size(d)
    monos = ring.monomials_upto(d)
    vectors = []
    for mono in monos:
        combined = {}
        for j, g in enumerate(module.generators):
            h = apply_action(module.action, Poly.monomial(ring, mono), g)
            for m, c in h.terms.items():
                combined[j * m1 + ring.index_of(m)] = c
        vectors.append(combined)
    kernel = kernel_of_vectors(vectors, len(module.generators) * m1, ring.field.one)
    gens = [Poly(ring, {monos[k]: c for k, c in vec.items()}) for vec in kernel]
    gens += [Poly.monomial(ring, m) for m in ring.monomials_of_degree(d + 1)]
    return min_gens(IdealHandle(ring, gens), socle_degree=d)
