"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every assertion is exact (integer or structural equality); there
are no numeric tolerances anywhere.
"""

import random
from fractions import Fraction

import pytest

from invsys import (
    CONT,
    DER,
    CharacteristicError,
    IdealHandle,
    Poly,
    Ring,
    SingularCurveError,
    SubmoduleHandle,
    analyze_artin,
    apply_cont,
    apply_der,
    classification_table,
    cm_type,
    contains_power_of_maximal,
    eq_ideal,
    eq_mod_ih,
    gen_pol,
    hilbert,
    ideal_ann,
    inv_syst,
    is_ag,
    is_level,
    j_invariant,
    parse_poly,
    sigma,
    socle_ideal,
    sub_mod_ih,
    truncation_span,
    verify_row,
    weierstrass_j,
)
from conftest import (
    ideal,
    random_artin_ideal,
    random_module_gens,
    random_monomial_artin_ideal,
    random_ring,
    staircase,
    staircase_degree_counts,
)
from oracle import hilbert_via_inverse_system, is_level_dual, sorted_rows

SESSION_I = [
    "2*x(1)^2+2*x(2)^2-x(1)*x(3)+2*x(2)*x(3)-x(3)^2-2*x(1)^3+x(1)^2*x(2)"
    "+2*x(1)*x(2)^2-2*x(2)^3-2*x(1)^2*x(3)+2*x(1)*x(2)*x(3)+2*x(2)^2*x(3)"
    "-2*x(2)*x(3)^2-x(3)^3",
    "-x(1)^2*x(2)-x(2)^3+x(1)*x(2)*x(3)+x(2)^2*x(3)+x(1)*x(3)^2+x(3)^3",
    "x(2)^3+x(1)*x(3)^4",
    "x(1)^2+x(2)^2*x(3)",
]
SESSION_IV = [
    "3*x(1)^2+69*x(2)^2-42*x(1)*x(2)*x(3)-3*x(2)^2*x(3)-42*x(1)*x(3)^2"
    "+15*x(2)*x(3)^2+22*x(3)^3",
    "24*x(1)*x(3)+3*x(1)*x(2)^2+6*x(1)*x(3)^2-2*x(3)^3",
]
SESSION_Q = (
    "2*x(1)^2-2*x(1)*x(2)+2*x(2)^2+2*x(1)*x(3)-2*x(2)*x(3)-x(3)^2-x(1)^3"
    "-2*x(1)^2*x(2)+2*x(1)*x(2)^2-2*x(2)^3-2*x(1)*x(2)*x(3)+x(2)^2*x(3)"
    "-x(2)*x(3)^2"
)
SESSION_QA = [
    "4*x(1)^2-17*x(1)*x(2)-5*x(2)^2+12*x(2)*x(3)+x(1)^3",
    "2*x(1)*x(2)+2*x(2)^2-8*x(1)*x(3)-3*x(1)^2*x(2)",
    "x(1)*x(3)-x(3)^2+2*x(1)*x(2)*x(3)",
    "x(2)^3-6*x(1)*x(2)*x(3)",
    "x(2)^2*x(3)+x(2)*x(3)^2",
    "x(3)^3",
]


@pytest.fixture
def r3():
    return Ring(3, 0)


def test_criterion_1_session_fixtures(r3):
    assert is_ag(ideal(r3, "x(1)^2+x(2)^3", "x(2)^4")) == -2
    assert (
        is_ag(ideal(r3, "x(1)^2+x(2)^3", "x(2)^4+x(1)^2", "x(3)^2+x(1)*x(2)")) == 4
    )
    four = ideal(
        r3,
        "x(1)^2+x(2)^3",
        "x(2)^4+x(1)^2",
        "x(3)^2+x(1)*x(2)",
        "x(1)*x(2)^2*x(3)",
    )
    assert is_ag(four) == -1
    assert cm_type(four) == 3
    printed_socle = ideal(
        r3,
        "x(1)^2",
        "x(1)*x(2)+x(3)^2",
        "x(2)^3",
        "x(2)^2*x(3)",
        "x(1)*x(3)^2",
        "x(2)*x(3)^2",
        "x(3)^3",
    )
    assert eq_ideal(IdealHandle(r3, socle_ideal(four)), printed_socle)
    print("\nACCEPTANCE 1 (session classifier fixtures): PASS")


def test_criterion_2_round_trip_ideal(r3):
    i = ideal(r3, *SESSION_I)
    module = inv_syst(i, DER)
    assert eq_ideal(ideal_ann(module), i)
    printed = SubmoduleHandle(r3, [parse_poly(t, r3) for t in SESSION_IV], DER)
    assert eq_mod_ih(module, printed)
    assert len(module.generators) == 2
    print("\nACCEPTANCE 2 (ideal round trip with recorded inverse system): PASS")


def test_criterion_3_round_trip_module(r3):
    q = SubmoduleHandle(r3, [parse_poly(SESSION_Q, r3)], DER)
    qa = ideal_ann(q)
    assert eq_ideal(qa, ideal(r3, *SESSION_QA))
    assert is_ag(qa) == 3
    assert eq_mod_ih(q, inv_syst(qa, DER))
    print("\nACCEPTANCE 3 (module round trip with recorded annihilator): PASS")


def test_criterion_4_classification_table():
    reports = [verify_row(row) for row in classification_table()]
    assert len(reports) == 8
    for report in reports:
        assert report.passed, f"row failed: {report.label}: {report.checks}"
    print("\nACCEPTANCE 4 (all eight classification rows verified): PASS")


def test_criterion_5_elliptic_family(r3):
    from invsys import ideal_wj

    rng = random.Random(20260501)
    seen = set()
    while len(seen) < 20:
        j = Fraction(rng.randint(-60, 60), rng.randint(1, 16))
        if j in (0, 1728) or j in seen:
            continue
        seen.add(j)
        family = ideal_wj(j)
        w = weierstrass_j(j)
        assert contains_power_of_maximal(family, 4)
        assert hilbert(family) == [1, 3, 3, 1]
        assert is_ag(family) == 3
        assert eq_mod_ih(inv_syst(family, DER), SubmoduleHandle(r3, [w], DER))
        assert all(apply_der(g, w).is_zero() for g in family.generators)
    print("\nACCEPTANCE 5 (20 random members of the quadric family): PASS")


def test_criterion_6_property_suites():
    cases = 200

    # ideal-side round trip, length duality, Hilbert-route agreement,
    # Gorenstein <-> cyclic, level <-> top-form independence
    rng = random.Random(606061)
    for k in range(cases):
        ring = random_ring(rng)
        action = DER if k % 2 == 0 else CONT
        i = random_artin_ideal(rng, ring)
        module = inv_syst(i, action)
        assert eq_ideal(ideal_ann(module), i)
        s = analyze_artin(i).socle_degree
        length = ring.frame_size(s) - truncation_span(i, s).dim
        assert module.closure().dim == length
        hf = hilbert(i)
        assert hilbert_via_inverse_system(i, action) == hf
        gens = module.generators
        if is_ag(i) >= 0:
            assert len(gens) == 1 and gens[0].degree() == s
        else:
            assert not (len(gens) == 1 and gens[0].degree() == s)
        assert (is_level(i) >= 0) == is_level_dual(i, action)

    # module-side round trip
    rng = random.Random(606062)
    for k in range(cases):
        ring = random_ring(rng)
        action = DER if k % 2 == 0 else CONT
        m = SubmoduleHandle(ring, random_module_gens(rng, ring), action)
        assert eq_mod_ih(inv_syst(ideal_ann(m), action), m)

    # order reversal: I <= J implies J's inverse system <= I's
    rng = random.Random(606063)
    for _ in range(cases):
        ring = random_ring(rng)
        i = random_artin_ideal(rng, ring)
        extra = gen_pol(ring, 1, 2, 2, rng.getrandbits(63))
        if extra.is_zero():
            extra = Poly.monomial(ring, ring.monomials_of_degree(1)[0])
        j = IdealHandle(ring, i.generators + [extra])
        assert sub_mod_ih(inv_syst(j), inv_syst(i))

    # sigma intertwining and action transport (characteristic 0)
    rng = random.Random(606064)
    for _ in range(cases):
        ring = random_ring(rng)
        f = gen_pol(ring, 0, 2, 2, rng.getrandbits(63))
        g = gen_pol(ring, 0, 3, 2, rng.getrandbits(63))
        assert sigma(apply_der(f, g)) == apply_cont(f, sigma(g))
        gens = random_module_gens(rng, ring)
        m_der = SubmoduleHandle(ring, gens, DER)
        m_cont = SubmoduleHandle(ring, [sigma(h) for h in gens], CONT)
        assert eq_ideal(ideal_ann(m_der), ideal_ann(m_cont))

    print("\nACCEPTANCE 6 (duality property suites, 4 x 200 seeded cases): PASS")


def test_criterion_7_monomial_oracle():
    rng = random.Random(707070)
    for _ in range(100):
        ring = Ring(rng.choice([1, 2, 3]), 0)
        exps = random_monomial_artin_ideal(rng, ring)
        i = IdealHandle(ring, [Poly.monomial(ring, e) for e in exps])
        s = analyze_artin(i).socle_degree
        assert hilbert(i) == staircase_degree_counts(ring, exps, s + 1)
        closure = inv_syst(i, CONT).closure().echelon
        expected = {tuple(e) for e in staircase(ring, exps, s)}
        got = set()
        for row in sorted_rows(closure):
            assert len(row) == 1
            got.add(ring.monomial_at(next(iter(row))))
        assert got == expected
    print("\nACCEPTANCE 7 (100 monomial ideals vs staircase enumeration): PASS")


def test_criterion_8_char_p():
    for p in (5, 7):
        ring = Ring(3, p)
        texts = ["x1^2", "x2^2", "x3^2"]
        i = IdealHandle(ring, [parse_poly(t, ring) for t in texts])
        assert hilbert(i) == [1, 3, 3, 1]
        assert eq_ideal(ideal_ann(inv_syst(i, CONT)), i)

        rng = random.Random(800000 + p)
        for _ in range(25):
            exps = random_monomial_artin_ideal(rng, ring)
            mono = IdealHandle(ring, [Poly.monomial(ring, e) for e in exps])
            s = analyze_artin(mono).socle_degree
            assert hilbert(mono) == staircase_degree_counts(ring, exps, s + 1)
            assert eq_ideal(ideal_ann(inv_syst(mono, CONT)), mono)

        for _ in range(25):
            dense = random_artin_ideal(rng, ring, max_degree=2)
            m = inv_syst(dense, CONT)
            assert eq_ideal(ideal_ann(m), dense)
            assert hilbert_via_inverse_system(dense, CONT) == hilbert(dense)

        with pytest.raises(CharacteristicError):
            apply_der(parse_poly("x1", ring), parse_poly("x1^2", ring))
        with pytest.raises(CharacteristicError):
            sigma(parse_poly("x1^2", ring))
        with pytest.raises(CharacteristicError):
            inv_syst(i, DER)
        with pytest.raises(CharacteristicError):
            Ring(3, p, default_action=DER)
    print("\nACCEPTANCE 8 (F_5 and F_7 contraction suites, derivation rejected): PASS")


def test_criterion_9_j_invariant():
    rng = random.Random(909090)
    assert j_invariant(Fraction(0), Fraction(3)) == 0
    assert j_invariant(Fraction(-2), Fraction(0)) == 1728
    with pytest.raises(SingularCurveError):
        j_invariant(Fraction(-3), Fraction(2))
    done = 0
    while done < 50:
        a = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        b = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        t = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        if 4 * a**3 + 27 * b**2 == 0:
            continue
        assert j_invariant(t**2 * a, t**3 * b) == j_invariant(a, b)
        done += 1
    print("\nACCEPTANCE 9 (j-invariant identities and guards): PASS")
