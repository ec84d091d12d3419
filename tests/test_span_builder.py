"""The incremental truncation-span builder against the from-scratch oracle.

Every span the builder produces, by extension from a lower bound, by
projection from a higher one or from a seeded cache, must equal the reduced
echelon of all products x^a * g_j; and the consumers that read those spans
(Artin search, minimal generators, socle, annihilator) must agree with the
versions in ``oracle`` that rebuild each span from scratch.
"""

import pytest

import oracle
from invsys import (
    IdealHandle,
    Ring,
    SubmoduleHandle,
    analyze_artin,
    gen_pol,
    ideal_ann,
    ideal_min_gens,
    parse_poly,
    socle_ideal,
    truncation_span,
)
from invsys.artin import require_artin

# socle degree of the Gorenstein instances per variable count
TOP_DEGREE = {2: 5, 3: 4, 4: 3, 5: 2}
SEEDS = (1, 2, 3)


def modules(n, char):
    """Seeded single-generator modules: one form of top degree, one mixed."""
    ring = Ring(n, char)
    d = TOP_DEGREE[n]
    out = []
    for seed in SEEDS:
        out.append(SubmoduleHandle(ring, [gen_pol(ring, d, d, 3, seed)]))
        out.append(SubmoduleHandle(ring, [gen_pol(ring, 0, d, 3, 100 + seed)]))
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


@pytest.mark.parametrize(
    "nvars,cap,texts",
    [
        (3, 4, ["x1*x2+x3^2", "x2*x3"]),  # every variable used: cap exhaustion
        (2, 3, ["x1^4", "x2^4+x1*x2"]),  # Artinian only above the cap
        (3, 6, ["x1^2", "x2^3"]),  # x3 unused: proven
        (3, 6, ["x1^2", "x2^2+x1*x3", "x3^3"]),
    ],
)
def test_status_matches_oracle_under_small_cap(nvars, cap, texts):
    ring = Ring(nvars, 0, max_degree_cap=cap)
    ideal = IdealHandle(ring, [parse_poly(t, ring) for t in texts])
    assert analyze_artin(ideal) == oracle.artin_status(ideal)
