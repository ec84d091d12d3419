"""Artinianity, truncation spans, Hilbert functions, socle, type, classifiers."""

import gc
import math
import random
import sys
import threading

import pytest

from invsys import (
    Echelon,
    IdealHandle,
    NotArtinError,
    Poly,
    Ring,
    analyze_artin,
    cm_type,
    contains_power_of_maximal,
    eq_ideal,
    gen_pol,
    hilbert,
    ideal_min_gens,
    is_ag,
    is_level,
    parse_poly,
    socle_ideal,
    truncation_span,
)
from conftest import (
    P,
    ideal,
    random_artin_ideal,
    random_monomial_artin_ideal,
    staircase_degree_counts,
)
from oracle import is_level_dual


@pytest.fixture
def r3():
    return Ring(3, 0)


SESSION_4GEN = ["x(1)^2+x(2)^3", "x(2)^4+x(1)^2", "x(3)^2+x(1)*x(2)", "x(1)*x(2)^2*x(3)"]
SESSION_3GEN = ["x(1)^2+x(2)^3", "x(2)^4+x(1)^2", "x(3)^2+x(1)*x(2)"]
SESSION_SOCLE = [
    "x(1)^2",
    "x(1)*x(2)+x(3)^2",
    "x(2)^3",
    "x(2)^2*x(3)",
    "x(1)*x(3)^2",
    "x(2)*x(3)^2",
    "x(3)^3",
]


# -- handles ------------------------------------------------------------------


def test_handle_rejects_units(r3):
    with pytest.raises(ValueError):
        ideal(r3, "1+x1")
    ideal(r3, "x1")  # fine


def test_handles_of_different_rings_do_not_mix(r3):
    r2 = Ring(2, 0)
    with pytest.raises(ValueError, match="generator from a different ring"):
        IdealHandle(r3, [P(r2, "x1")])
    with pytest.raises(ValueError, match="ideals from different rings"):
        eq_ideal(ideal(r3, "x1", "x2", "x3"), ideal(r2, "x1", "x2"))


def test_handle_drops_zero_generators(r3):
    assert len(IdealHandle(r3, [Poly.zero(r3), P(r3, "x1")]).generators) == 1


# -- truncation spans ----------------------------------------------------------


def test_truncation_span_maximal_ideal(r3):
    assert truncation_span(ideal(r3, "x1", "x2", "x3"), 1).dim == 3


def test_truncation_span_staircase_count(r3):
    assert truncation_span(ideal(r3, "x1^2", "x2^2", "x3^2"), 3).dim == 12


def test_truncation_span_tail_truncated(r3):
    u = truncation_span(ideal(r3, "x1^2+x2^3"), 2)
    assert u.echelon.contains(P(r3, "x1^2").vec)


def test_truncation_span_cap(r3):
    r = Ring(3, 0, max_degree_cap=4)
    from invsys import DegreeCapError

    with pytest.raises(DegreeCapError):
        truncation_span(ideal(r, "x1"), 5)
    with pytest.raises(DegreeCapError, match="degree 5 exceeds degree cap 4"):
        contains_power_of_maximal(ideal(r, "x1", "x2", "x3"), 5)


def test_spans_extend_safely_across_threads():
    # four threads build the spans of one handle, two up and two down, while
    # a tiny switch interval makes them interleave inside the cache lookups
    gens = ["x1^5+x2^4*x3", "x2^6+x1^3*x3^2", "x3^7+x1^2*x2^3"]
    up = list(range(1, 12))
    orders = (up, up[::-1], up, up[::-1])
    fresh = ideal(Ring(3, 0), *gens)
    expected = [fresh._span_echelon(b).rows for b in up]
    trials = 40
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(trials):
            handle = ideal(Ring(3, 0), *gens)
            start = threading.Barrier(len(orders))
            errors = []

            def build(order):
                start.wait()
                try:
                    for b in order:
                        truncation_span(handle, b)
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=build, args=(order,)) for order in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            assert [handle._span_echelon(b).rows for b in up] == expected
    finally:
        sys.setswitchinterval(old)


def test_kept_span_only_rises_across_threads():
    # each thread extends to its own bound; the highest must be the one kept
    gens = ["x1^5+x2^4*x3", "x2^6+x1^3*x3^2", "x3^7+x1^2*x2^3"]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            handle = ideal(Ring(3, 0), *gens)
            threads = [threading.Thread(target=truncation_span, args=(handle, b)) for b in (9, 6, 8, 7)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert handle._top[0] == 9
    finally:
        sys.setswitchinterval(old)


# -- powers of the maximal ideal ------------------------------------------------


def test_contains_power_maximal_linear(r3):
    assert contains_power_of_maximal(ideal(r3, "x1", "x2", "x3"), 1)


def test_contains_power_maximal_missing_variable(r3):
    i = ideal(r3, "x1^2+x2^3", "x2^4")
    for d in range(1, 8):
        assert not contains_power_of_maximal(i, d)


def test_contains_power_maximal_staircase(r3):
    i = ideal(r3, "x1^2", "x2^2", "x3^2")
    assert contains_power_of_maximal(i, 4)
    assert not contains_power_of_maximal(i, 3)  # x1*x2*x3 survives


# -- Artinianity ----------------------------------------------------------------


def test_analyze_maximal_ideal(r3):
    st = analyze_artin(ideal(r3, "x1", "x2", "x3"))
    assert st.artin and st.socle_degree == 0


def test_analyze_session_gorenstein(r3):
    st = analyze_artin(ideal(r3, *SESSION_3GEN))
    assert st.artin and st.socle_degree == 4


def test_analyze_staircase(r3):
    st = analyze_artin(ideal(r3, "x1^2", "x2^2", "x3^2"))
    assert st.artin and st.socle_degree == 3


def test_analyze_missing_variable_is_proven(r3):
    st = analyze_artin(ideal(r3, "x1^2+x2^3", "x2^4"))
    assert not st.artin and st.proven
    # x2 occurs, but only beside x3: the certificate reads pure powers, not supports
    st = analyze_artin(ideal(Ring(3, 0, max_degree_cap=6), "x1^2", "x3^2+x1^3", "x2*x3"))
    assert not st.artin and st.proven


def test_analyze_cap_exhaustion_is_inconclusive():
    # a pure power of every variable and a generator that is not homogeneous:
    # neither the axis nor the graded certificate applies
    r = Ring(2, 0, max_degree_cap=6)
    st = analyze_artin(ideal(r, "x1^2+x2^2+x1^3"))
    assert not st.artin and not st.proven and st.cap == 6


def test_graded_certificate_proves_not_artin():
    # homogeneous of degree <= 2 in 2 variables: m^3 decides it
    st = analyze_artin(ideal(Ring(2, 0, max_degree_cap=6), "x1^2+x2^2"))
    assert (st.artin, st.proven, st.cap) == (False, True, 6)
    # the cubics vanish on the line through (1, 1, -1); m^7 decides them
    cubics = ideal(Ring(3, 0), "x1^3+x2^2*x3", "x2^3+x1^2*x3", "x3^3+x1*x2^2")
    st = analyze_artin(cubics)
    assert (st.artin, st.proven) == (False, True)
    assert cubics._top[0] == 7
    # the bound reaches past the cap: inconclusive at the cap
    st = analyze_artin(ideal(Ring(3, 0, max_degree_cap=6), "x1^3+x2^2*x3", "x2^3+x1^2*x3", "x3^3+x1*x2^2"))
    assert (st.artin, st.proven, st.cap) == (False, False, 6)


def test_graded_certificate_bound_is_tight(r3):
    # three homogeneous cubics with socle degree n(e - 1) = 6
    st = analyze_artin(ideal(r3, "x1^3", "x2^3", "x3^3+x1*x2*x3"))
    assert (st.artin, st.socle_degree) == (True, 6)


def test_handle_keeps_one_span():
    # the search runs to the cap: one span, the highest, without a column index
    r = Ring(3, 0, max_degree_cap=6)
    handle = ideal(r, "x1^2+x3^2+x1^3", "x2^2+x3^2")
    assert not analyze_artin(handle).proven
    for b in range(7):
        truncation_span(handle, b)
    # what the handle refers to, directly or through a container
    held = [x for v in vars(handle).values() for x in (v, *gc.get_referents(v)) if isinstance(x, Echelon)]
    assert len(held) == 1
    assert handle._top == (6, held[0]) and held[0]._cols is None


# -- Hilbert functions -----------------------------------------------------------


def test_hilbert_field_quotient(r3):
    assert hilbert(ideal(r3, "x1", "x2", "x3")) == [1]


def test_hilbert_staircase(r3):
    assert hilbert(ideal(r3, "x1^2", "x2^2", "x3^2")) == [1, 3, 3, 1]


def test_hilbert_elliptic_family_member():
    from invsys import ideal_wj

    assert hilbert(ideal_wj(1)) == [1, 3, 3, 1]


def test_hilbert_requires_artin(r3):
    with pytest.raises(NotArtinError):
        hilbert(ideal(r3, "x1^2+x2^3", "x2^4"))


def test_hilbert_monomial_ideals_match_staircase_oracle():
    rng = random.Random(2024)
    for _ in range(40):
        r = Ring(rng.choice([1, 2, 3]), 0)
        exps = random_monomial_artin_ideal(rng, r)
        i = IdealHandle(r, [Poly.monomial(r, e) for e in exps])
        s = analyze_artin(i).socle_degree
        assert hilbert(i) == staircase_degree_counts(r, exps, s + 1)


def test_hilbert_invariants_on_random_ideals(r3):
    rng = random.Random(321)
    for _ in range(20):
        i = random_artin_ideal(rng, r3)
        hf = hilbert(i)
        s = analyze_artin(i).socle_degree
        assert hf[0] == 1 and hf[-1] != 0 and len(hf) == s + 1
        total = r3.frame_size(s) - truncation_span(i, s).dim
        assert sum(hf) == total
        assert contains_power_of_maximal(i, s + 1)
        assert s == 0 or not contains_power_of_maximal(i, s)


# -- socle and type ---------------------------------------------------------------


def test_socle_of_maximal_ideal_is_unit_marker(r3):
    assert socle_ideal(ideal(r3, "x1", "x2", "x3")) == [Poly.one(r3)]


def test_socle_session_matches_printed_generators(r3):
    got = IdealHandle(r3, socle_ideal(ideal(r3, *SESSION_4GEN)))
    assert eq_ideal(got, ideal(r3, *SESSION_SOCLE))


def test_socle_staircase(r3):
    i = ideal(r3, "x1^2", "x2^2", "x3^2")
    got = IdealHandle(r3, socle_ideal(i))
    assert eq_ideal(got, ideal(r3, "x1^2", "x2^2", "x3^2", "x1*x2*x3"))


def test_socle_generating_ideal_contains_input(r3):
    i = ideal(r3, *SESSION_4GEN)
    soc = IdealHandle(r3, socle_ideal(i))
    bound = max(analyze_artin(i).socle_degree, analyze_artin(soc).socle_degree) + 1
    big = truncation_span(soc, bound).echelon
    assert all(big.contains(row) for row in truncation_span(i, bound).echelon.rows.values())


def test_cm_type_examples(r3):
    assert cm_type(ideal(r3, *SESSION_4GEN)) == 3
    assert cm_type(ideal(r3, "x1", "x2", "x3")) == 1
    assert cm_type(ideal(r3, "x1^2", "x2^2", "x3^2")) == 1
    assert cm_type(ideal(r3, "x1^2+x2^3", "x2^4")) == -1


def test_cm_type_at_least_one_on_artin(r3):
    rng = random.Random(55)
    for _ in range(15):
        assert cm_type(random_artin_ideal(rng, r3)) >= 1


# -- classifiers -------------------------------------------------------------------


def test_is_ag_session_trio(r3):
    assert is_ag(ideal(r3, "x(1)^2+x(2)^3", "x(2)^4")) == -2
    assert is_ag(ideal(r3, *SESSION_3GEN)) == 4
    assert is_ag(ideal(r3, *SESSION_4GEN)) == -1


def test_is_ag_matches_cm_type(r3):
    rng = random.Random(77)
    for _ in range(15):
        i = random_artin_ideal(rng, r3)
        verdict = is_ag(i)
        if cm_type(i) == 1:
            assert verdict == analyze_artin(i).socle_degree
        else:
            assert verdict == -1


def test_is_level_gorenstein_is_level(r3):
    assert is_level(ideal(r3, "x1^2", "x2^2", "x3^2")) == 3


def test_is_level_not_artin(r3):
    assert is_level(ideal(r3, "x(1)^2+x(2)^3", "x(2)^4")) == -2


def test_is_level_negative_fixture():
    # socle holds the class of x1 (degree 1 < s = 2) which is not in I + m^2
    r = Ring(2, 0)
    i = ideal(r, "x1^2", "x1*x2", "x2^3")
    assert is_level(i) == -1
    assert is_level_dual(i) is False


def test_is_level_session_ideal_agrees_with_dual_route(r3):
    # the four-generator session quotient has s = 3, HF = {1,3,4,3} and
    # type 3 = HF(3), so it is level; both routes must agree on that
    i = ideal(r3, *SESSION_4GEN)
    assert hilbert(i) == [1, 3, 4, 3]
    assert cm_type(i) == 3
    assert is_level(i) == 3
    assert is_level_dual(i) is True


def test_is_level_of_field_quotient(r3):
    assert is_level(ideal(r3, "x1", "x2", "x3")) == 0


def test_gorenstein_implies_level(r3):
    rng = random.Random(88)
    checked = 0
    for _ in range(40):
        i = random_artin_ideal(rng, r3)
        s = is_ag(i)
        if s >= 0:
            assert is_level(i) == s
            checked += 1
    assert checked >= 3


# -- equality ------------------------------------------------------------------------


def test_eq_ideal_reflexive_and_examples(r3):
    i = ideal(r3, *SESSION_4GEN)
    assert eq_ideal(i, i)
    r2 = Ring(2, 0)
    assert eq_ideal(ideal(r2, "x1^2", "x2^2"), ideal(r2, "x1^2+x2^2", "x2^2"))
    assert not eq_ideal(ideal(r2, "x1^2", "x2^2"), ideal(r2, "x1", "x2^2"))


def test_eq_ideal_invariant_under_scaling_and_permutation(r3):
    i = ideal(r3, "x1^2", "x2^2", "x3^2")
    j = ideal(r3, "x3^2", "5*x1^2", "1/3*x2^2")
    assert eq_ideal(i, j)


def test_eq_ideal_requires_artin(r3):
    with pytest.raises(NotArtinError):
        eq_ideal(ideal(r3, "x1"), ideal(r3, "x1", "x2", "x3"))


def test_eq_ideal_symmetric_and_transitive(r3):
    rng = random.Random(42)
    for _ in range(8):
        a = random_artin_ideal(rng, r3)
        b = IdealHandle(r3, list(reversed(a.generators)) + [a.generators[0]])
        c = IdealHandle(r3, ideal_min_gens(a))
        assert eq_ideal(a, b) and eq_ideal(b, a)
        assert eq_ideal(b, c) and eq_ideal(a, c)


# -- minimal generators -----------------------------------------------------------------


def test_ideal_min_gens_examples(r3):
    r2 = Ring(2, 0)
    assert len(ideal_min_gens(ideal(r2, "x1", "x1+x2", "x2"))) == 2
    assert len(ideal_min_gens(ideal(r3, "x1^2", "x2^2", "x3^2", "x1^2*x2"))) == 3


def test_ideal_min_gens_elliptic_family():
    from invsys import ideal_wj

    rng = random.Random(3)
    for _ in range(5):
        j = rng.randint(2, 10_000)
        assert len(ideal_min_gens(ideal_wj(j))) == 3


def test_ideal_min_gens_count_is_generating_set_independent(r3):
    i = ideal(r3, "x1^2", "x2^2", "x3^2")
    redundant = ideal(
        r3, "x1^2", "x2^2", "x3^2", "x1^2+x2^2", "x1^2*x3", "x2^2*x3^2"
    )
    assert len(ideal_min_gens(i)) == len(ideal_min_gens(redundant)) == 3


def test_ideal_min_gens_generate_same_ideal(r3):
    rng = random.Random(9)
    for _ in range(10):
        i = random_artin_ideal(rng, r3)
        j = IdealHandle(r3, ideal_min_gens(i))
        assert eq_ideal(i, j)


def test_ideal_min_gens_deterministic(r3):
    gens = ["x2^2", "x1^2", "x3^2", "x1^2+x2^2"]
    outs = set()
    for _ in range(3):
        random.shuffle(gens)
        got = ideal_min_gens(ideal(r3, *gens))
        outs.add(tuple(sorted(str(g) for g in got)))
    assert len(outs) == 1
