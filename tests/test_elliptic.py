"""Weierstrass data, j-invariants, the I(j) family, and the table rows."""

import random
from fractions import Fraction

import pytest

from invsys import (
    DER,
    Ring,
    SingularCurveError,
    SubmoduleHandle,
    apply_der,
    classification_table,
    contains_power_of_maximal,
    eq_mod_ih,
    hilbert,
    ideal_wj,
    inv_syst,
    is_ag,
    j_invariant,
    parse_poly,
    verify_row,
    weierstrass_ab,
    weierstrass_j,
)
from conftest import P


@pytest.fixture
def r3():
    return Ring(3, 0)


def random_j(rng):
    while True:
        j = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if j not in (0, 1728):
            return j


# -- j-invariant ------------------------------------------------------------------


def test_j_special_values():
    assert j_invariant(0, 7) == 0
    assert j_invariant(Fraction(-5), 0) == 1728
    assert j_invariant(1, 1) == Fraction(6912, 31)


def test_j_singular_guard():
    with pytest.raises(SingularCurveError):
        j_invariant(0, 0)
    with pytest.raises(SingularCurveError):
        j_invariant(-3, 2)  # 4*(-27) + 27*4 = 0


def test_j_scale_consistency_50_samples():
    rng = random.Random(2468)
    done = 0
    while done < 50:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if t == 0 or 4 * a**3 + 27 * b**2 == 0:
            continue
        assert j_invariant(t**2 * a, t**3 * b) == j_invariant(a, b)
        done += 1


# -- Weierstrass cubics -----------------------------------------------------------


def test_weierstrass_ab_examples(r3):
    assert weierstrass_ab(0, 1) == P(r3, "x1^3+x3^3-x2^2*x3")
    assert weierstrass_ab(-1, 0) == P(r3, "x1^3-x1*x3^2-x2^2*x3")


def test_weierstrass_ab_homogeneous_cubic():
    rng = random.Random(13)
    for _ in range(20):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if 4 * a**3 + 27 * b**2 == 0:
            continue
        w = weierstrass_ab(a, b)
        assert w.is_homogeneous() and w.degree() == 3


def test_weierstrass_ab_singular_guard():
    with pytest.raises(SingularCurveError):
        weierstrass_ab(0, 0)


def test_weierstrass_j_cases(r3):
    assert weierstrass_j(0) == P(r3, "x2^2*x3+x2*x3^2-x1^3")
    assert weierstrass_j(1728) == P(r3, "x2^2*x3-x1*x3^2-x1^3")
    assert weierstrass_j(1729) == P(
        r3, "x2^2*x3+x1*x2*x3-x1^3+36*x1*x3^2+x3^3"
    )


# -- the I(j) family ---------------------------------------------------------------


def test_ideal_wj_first_generator_fixed(r3):
    for j in (1, 5, Fraction(22, 7)):
        assert ideal_wj(j).generators[0] == P(r3, "x2^2-2*x1*x2")


def test_ideal_wj_h_coefficient():
    h = ideal_wj(1).generators[1]
    assert h.coeff((1, 1, 0)) == 6


def test_ideal_wj_generators_homogeneous_quadrics():
    rng = random.Random(17)
    for _ in range(10):
        j = random_j(rng)
        for g in ideal_wj(j).generators:
            assert g.is_homogeneous() and g.degree() == 2


def test_ideal_wj_rejects_special_moduli():
    for j in (0, 1728):
        with pytest.raises(ValueError):
            ideal_wj(j)


def test_ideal_wj_family_invariants(r3):
    rng = random.Random(19)
    for _ in range(8):
        j = random_j(rng)
        ideal = ideal_wj(j)
        w = weierstrass_j(j)
        assert contains_power_of_maximal(ideal, 4)
        assert hilbert(ideal) == [1, 3, 3, 1]
        assert is_ag(ideal) == 3
        assert all(apply_der(g, w).is_zero() for g in ideal.generators)
        # the family's ring and the caller's compare equal, so they mix
        assert eq_mod_ih(inv_syst(ideal, DER), SubmoduleHandle(r3, [w], DER))


# -- the classification table --------------------------------------------------------


def test_table_has_eight_rows():
    assert len(classification_table()) == 8


def test_table_row_contents(r3):
    rows = classification_table()
    assert rows[0].model_ideal == [P(r3, "x1^2"), P(r3, "x2^2"), P(r3, "x3^2")]
    assert rows[0].inverse_system == P(r3, "x1*x2*x3")
    assert rows[4].model_ideal == [
        P(r3, "x3^2"),
        P(r3, "x1*x2"),
        P(r3, "x1*x3"),
        P(r3, "x2^3"),
        P(r3, "x1^3+3*x2^2*x3"),
    ]
    assert rows[4].inverse_system == P(r3, "x2^2*x3-x1^3")
    assert rows[5].inverse_system == weierstrass_j(0) and rows[6].inverse_system == weierstrass_j(1728)


def test_table_inverse_systems_nondegenerate(r3):
    from invsys import CONT, span_of

    for row in classification_table():
        f = row.inverse_system
        assert f.is_homogeneous() and f.degree() == 3
        m = SubmoduleHandle(r3, [f], CONT)
        degree_one = [p for p in m.closure().row_polys() if p.degree() == 1]
        assert span_of(degree_one, r3, 1).dim == 3


def test_verify_row_first_row():
    rows = classification_table()
    report = verify_row(rows[0])
    assert report.passed and all(report.checks.values())


def test_verify_all_rows_default_and_alternate_j():
    for j in (Fraction(2), Fraction(-3, 5)):
        reports = [verify_row(row) for row in classification_table(j)]
        assert all(r.passed for r in reports)
        assert len(reports) == 8


def test_verify_row_reports_failure(r3):
    from invsys import ClassificationRow

    bogus = ClassificationRow(
        label="broken",
        model_ideal=[P(r3, "x1^2"), P(r3, "x2^2"), P(r3, "x3^3")],
        inverse_system=P(r3, "x1*x2*x3"),
    )
    report = verify_row(bogus)
    assert not report.passed
    assert not report.checks["annihilator_equals_model"]


def test_classification_requires_char0():
    # the table's ring is Q[x1, x2, x3]: a row over F_5 fails the module
    # handle's ring check
    from invsys import ClassificationRow

    r5 = Ring(3, 5)
    row = ClassificationRow(
        label="over F_5",
        model_ideal=[P(r5, "x1^2"), P(r5, "x2^2"), P(r5, "x3^2")],
        inverse_system=P(r5, "x1*x2*x3"),
    )
    with pytest.raises(ValueError, match="different ring"):
        verify_row(row)
