"""The incremental truncation-span builder and the duality read-offs against
the from-scratch oracle.

Every span the builder produces, by extension from a lower bound, by
projection from a higher one or from a seeded cache, must equal the reduced
echelon of all products x^a * g_j; every orthogonal complement must equal the
tracked-kernel one; and the consumers that read those spans and complements
(Artin search, minimal generators, socle, type, level, annihilator, inverse
system) must agree with the versions in ``oracle`` that solve each afresh.
Module closures and colon solutions, built by lowering index vectors, must
agree with the ones built from ``apply_action``.  Handles built with seeded
caches must agree with fresh handles on the same generators.
"""

from fractions import Fraction

import pytest

import oracle
from invsys import (
    ACTIONS,
    CONT,
    DER,
    IdealHandle,
    Poly,
    Ring,
    SubmoduleHandle,
    analyze_artin,
    apply_action,
    cm_type,
    colon_inv_syst,
    gen_pol,
    ideal_ann,
    ideal_min_gens,
    inv_syst,
    is_ag,
    is_level,
    min_gens_ih,
    parse_poly,
    perp_space,
    socle_ideal,
    truncation_span,
)
from invsys.artin import maximal_action, require_artin
from invsys.duality import _orbit

# socle degree of the Gorenstein instances per variable count
TOP_DEGREE = {2: 5, 3: 4, 4: 3, 5: 2}
SEEDS = (1, 2, 3)


def modules(n, char):
    """Seeded modules: one form of top degree, one mixed, and two forms whose
    degrees differ for odd seeds (type 2, level only for even seeds)."""
    ring = Ring(n, char)
    d = TOP_DEGREE[n]
    out = []
    for seed in SEEDS:
        e = d - seed % 2
        out.append(SubmoduleHandle(ring, [gen_pol(ring, d, d, 3, seed)]))
        out.append(SubmoduleHandle(ring, [gen_pol(ring, 0, d, 3, 100 + seed)]))
        out.append(SubmoduleHandle(ring, [gen_pol(ring, d, d, 3, 200 + seed), gen_pol(ring, e, e, 3, 300 + seed)]))
    return out


def artin_ideals(n, char):
    """Fresh handles (no seeded caches) on ideals with known Artinian quotients."""
    ring = Ring(n, char)
    out = [IdealHandle(ring, ideal_ann(m).generators) for m in modules(n, char)]
    if n <= 3:
        # complete intersections of generic non-homogeneous generators
        for seed in SEEDS:
            gens = [gen_pol(ring, 2, 3, 2, 10 * seed + k) for k in range(n)]
            handle = IdealHandle(ring, gens)
            if analyze_artin(IdealHandle(ring, gens)).artin:
                out.append(handle)
    return out


GRID = [(n, char) for char in (0, 32003) for n in (2, 3, 4, 5)]


def actions(char):
    return ACTIONS if char == 0 else (CONT,)


@pytest.mark.parametrize("n,char", GRID)
def test_extended_spans_match_products(n, char):
    for ideal in artin_ideals(n, char):
        s = require_artin(ideal)  # builds bounds 1..s+1 by extension
        for b in range(s + 2):
            assert truncation_span(ideal, b).echelon == oracle.product_span(ideal, b), b


@pytest.mark.parametrize("n,char", GRID)
def test_projected_spans_match_products(n, char):
    for ideal in artin_ideals(n, char):
        top = oracle.artin_status(ideal).socle_degree + 1
        fresh = IdealHandle(ideal.ring, ideal.generators)
        assert truncation_span(fresh, top).echelon == oracle.product_span(fresh, top)
        for b in range(top):  # each projected from the cached top bound
            assert truncation_span(fresh, b).echelon == oracle.product_span(fresh, b), b


@pytest.mark.parametrize("n,char", GRID)
def test_seeded_annihilator_spans_match_products(n, char):
    for module in modules(n, char):
        ann = ideal_ann(module)
        d = module.degree_bound
        assert ann.generators == oracle.ideal_ann(module)
        # seeded at d: lower bounds are projected, d + 1 is one extension
        for b in range(d + 2):
            assert truncation_span(ann, b).echelon == oracle.product_span(ann, b), b


@pytest.mark.parametrize("n,char", GRID)
def test_consumers_match_oracle(n, char):
    for ideal in artin_ideals(n, char):
        assert analyze_artin(ideal) == oracle.artin_status(ideal)
        assert ideal_min_gens(ideal) == oracle.min_gens(ideal)
        assert socle_ideal(ideal) == oracle.socle(ideal)
        assert cm_type(ideal) == oracle.cm_type(ideal)
        assert is_ag(ideal) == oracle.is_ag(ideal)
        assert is_level(ideal) == oracle.is_level(ideal)


@pytest.mark.parametrize("n,char", GRID)
def test_seeded_handles_match_fresh_ones(n, char):
    for module in modules(n, char):
        ann = ideal_ann(module)  # status seeded, never searched
        assert analyze_artin(ann) == oracle.artin_status(IdealHandle(ann.ring, ann.generators))
    for ideal in artin_ideals(n, char):
        s = require_artin(ideal)
        if s >= 1:
            colon = IdealHandle(ideal.ring, socle_ideal(ideal))
            assert analyze_artin(colon).socle_degree == s - 1
        for action in actions(char):
            dual = inv_syst(ideal, action)  # closure seeded from the perp
            fresh = SubmoduleHandle(ideal.ring, dual.generators, action)
            assert dual.closure().echelon == oracle.closure(fresh), action
            assert dual.closure() == fresh.closure(), action


@pytest.mark.parametrize("n,char", GRID)
def test_perp_matches_kernel_oracle(n, char):
    for ideal in artin_ideals(n, char):
        for b in range(require_artin(ideal) + 1):
            span = truncation_span(ideal, b)
            for action in actions(char):
                assert perp_space(span, action) == oracle.perp_space(span, action), (b, action)
    for module in modules(n, char):
        for action in actions(char):
            span = SubmoduleHandle(module.ring, module.generators, action).closure()
            assert perp_space(span, action) == oracle.perp_space(span, action), action


@pytest.mark.parametrize("n,char", GRID)
def test_module_generators_match_oracle(n, char):
    for ideal in artin_ideals(n, char):
        for action in actions(char):
            assert inv_syst(ideal, action).generators == oracle.inv_syst(ideal, action), action
    for module in modules(n, char):
        ring = module.ring
        f = module.generators[0]
        for action in actions(char):
            # redundant generators: derivatives of f and a combination of two
            gens = [f] + [apply_action(action, Poly.variable(ring, i), f) for i in (1, 2)]
            gens.append(gens[1] + gens[2])
            redundant = SubmoduleHandle(ring, gens, action)
            assert min_gens_ih(redundant) == oracle.min_gens_ih(redundant), action


def edge_generators(ring):
    """A constant, a monomial, a generator some of whose lowerings vanish
    (x1*x2 kills it), and a constant beside a higher-degree generator."""
    texts = [["1"], ["x1^3*x2^2"], ["x1^3+x2^2"], ["1", "x1^2+x1*x2"]]
    return [[parse_poly(t, ring) for t in gens] for gens in texts]


@pytest.mark.parametrize("char,action,seed", [(0, "der", 5), (0, "der", 6), (32003, "cont", 7)])
def test_six_variable_module_matches_action_oracle(char, action, seed):
    # each lowering reads the exponent of x_i, i up to 6, off the monomial,
    # and the differentiation complement reads a! off it
    ring = Ring(6, char)
    module = SubmoduleHandle(ring, [gen_pol(ring, 1, 3, 3, seed)], action)
    span = module.closure()
    assert span.echelon == oracle.closure(module)
    assert maximal_action(span, action) == oracle.maximal_action(span, action)
    assert perp_space(span, action) == oracle.perp_space(span, action)


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_is_the_action_of_each_monomial_in_order(n):
    # the orbit builds each degree from the one below, block by block; the
    # expected vectors come from apply_action on a second ring, which counts
    # every monomial and grows no enumeration
    degree = {1: 9, 2: 7, 3: 5, 4: 4, 5: 4, 6: 3}[n]
    for char, action in [(0, DER), (0, CONT), (32003, CONT)]:
        ring, counted = Ring(n, char), Ring(n, char)
        f = gen_pol(counted, 0, degree, 3, 40 + n)
        expected = [
            apply_action(action, Poly.monomial(counted, counted.monomial_at(k)), f).vec
            for k in range(counted.frame_size(degree))
        ]
        assert len(counted._flat) == 1
        assert list(_orbit(ring, f.vec, degree, action)) == expected, (char, action)


@pytest.mark.parametrize("n,char", GRID)
def test_closure_and_colon_match_action_oracle(n, char):
    ring = Ring(n, char)
    gen_lists = [m.generators for m in modules(n, char)] + edge_generators(ring)
    for gens in gen_lists:
        f = gens[0]
        for action in actions(char):
            fresh = SubmoduleHandle(ring, gens, action)
            closure = fresh.closure().echelon
            assert closure == oracle.closure(fresh), (gens, action)
            lowered = [apply_action(action, Poly.variable(ring, i), f) for i in (1, 2)]
            outside = next(
                (Poly.monomial(ring, m) for m in oracle.monomials_upto(ring, f.degree())
                 if not closure.contains({ring.index_of(m): 1})),
                None,
            )
            # a seeded multi-term h0 o f, and g = 0
            solvable = apply_action(action, gen_pol(ring, 0, f.degree(), 3, 400 + n), f)
            targets = lowered + [lowered[0] + lowered[1], solvable, Poly.zero(ring)]
            cases = [(f, g) for g in targets] + [(f.scaled(Fraction(-3, 7)), g) for g in targets]
            if outside is not None:
                cases += [(f, outside), (f, solvable + outside)]
            for f_, g in cases:
                assert colon_inv_syst(f_, g, action) == oracle.colon(f_, g, action), (f_, g, action)
            if outside is not None:
                assert colon_inv_syst(f, outside, action) is None
                assert colon_inv_syst(f, solvable + outside, action) is None


@pytest.mark.parametrize(
    "nvars,cap,texts",
    [
        (3, 4, ["x1^2+x3^2+x1^3", "x2^2+x3^2"]),  # a pure power of every variable, not graded: cap exhaustion
        (2, 3, ["x1^4", "x2^4+x1*x2"]),  # Artinian only above the cap
        (3, 6, ["x1^2", "x2^3"]),  # x3 unused: proven
        (3, 6, ["x1^2", "x2^2+x1*x3", "x3^3"]),
        (3, 6, ["x1*x2+x3^2", "x2*x3"]),  # no pure power of x1 or x2: proven
        (3, 6, ["x1^3+x1*x2", "x2^2*x3+x3^5", "x1*x3"]),  # none of x2: proven
        (3, 4, ["x1^2+x3^2", "x2^2+x3^2"]),  # homogeneous, m^4 not in I: proven
    ],
)
def test_status_matches_oracle_under_small_cap(nvars, cap, texts):
    ring = Ring(nvars, 0, max_degree_cap=cap)
    ideal = IdealHandle(ring, [parse_poly(t, ring) for t in texts])
    assert analyze_artin(ideal) == oracle.artin_status(ideal)


def test_never_artinian_generic_generators_match_oracle():
    # three generic generators in 4 variables, each with a pure power of
    # every variable: the axis test cannot decide, so the search runs to the
    # cap through spans whose rows carry large integer entries over Q
    ring = Ring(4, 0, max_degree_cap=5)
    ideal = IdealHandle(ring, [gen_pol(ring, 2, 3, 3, seed) for seed in (8, 9, 10)])
    status = analyze_artin(ideal)
    assert status == oracle.artin_status(ideal)
    assert (status.artin, status.proven, status.cap) == (False, False, 5)
    for b in range(1, 6):
        assert truncation_span(ideal, b).echelon == oracle.product_span(ideal, b), b
    assert max(abs(c) for row in truncation_span(ideal, 5).echelon.rows.values() for c in row.values()) > 2**64
