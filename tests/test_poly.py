"""Scalars, parsing/formatting, apolarity actions, sigma, top forms, gen_pol."""

import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from invsys import (
    CharacteristicError,
    CONT,
    DER,
    ParseError,
    Poly,
    Ring,
    apply_cont,
    apply_der,
    format_poly,
    gen_pol,
    parse_poly,
    sigma,
    top_form,
)
from conftest import P
from oracle import monomials_upto


@pytest.fixture
def r3():
    return Ring(3, 0)


# -- parsing ----------------------------------------------------------------


def test_parse_session_polynomial(r3):
    f = P(r3, "x(1)^2*x(3)^4+x(2)^3*x(1)*x(3)+x(2)^5")
    assert f.terms == {
        (2, 0, 4): Fraction(1),
        (1, 3, 1): Fraction(1),
        (0, 5, 0): Fraction(1),
    }


def test_parse_zero(r3):
    assert P(r3, "0").is_zero()
    assert P(r3, "x1-x1").is_zero()


def test_parse_rational_coefficients(r3):
    f = P(r3, "3/4*x1^2 - x2")
    assert (f.terms, f.den) == ({(2, 0, 0): 3, (0, 1, 0): -4}, 4)
    assert f == Poly(r3, {(2, 0, 0): Fraction(3, 4), (0, 1, 0): -1})


def test_parse_both_variable_spellings(r3):
    assert P(r3, "x(2)^3*x(1)*x(3)") == P(r3, "x1*x2^3*x3")


def test_parse_repeated_factors_accumulate(r3):
    assert P(r3, "x1*x1*x2") == P(r3, "x1^2*x2")


def test_parse_constant_and_merge(r3):
    f = P(r3, "5+x1+2*x1")
    assert f.terms == {(0, 0, 0): Fraction(5), (1, 0, 0): Fraction(3)}


# accepted spellings: blanks and '//' comments stand between any two tokens
_SPELLINGS = [
    ("x1 + // trailing comment\n x2", "x1+x2"),
    ("3//4", "3"),
    ("3 / 4*x1", "3/4*x1"),
    ("x (1)", "x1"),
    ("x1 ^ 2", "x1^2"),
    ("x1+x2 // c", "x1+x2"),
    ("x1\t*\tx2", "x1*x2"),
    ("x1\u00a0+\u00a0x2", "x1+x2"),
    ("x1^\u0663", "x1^3"),  # ARABIC-INDIC DIGIT THREE is a decimal digit
    ("x1^1\u0663", "x1^13"),  # and joins a run of other decimal digits
]


def test_parse_comments_and_whitespace(r3):
    for text, same in _SPELLINGS:
        assert P(r3, text) == P(r3, same), text


def test_parse_error_position(r3):
    with pytest.raises(ParseError) as exc:
        parse_poly("x1^2+", r3)
    assert exc.value.position == 5


def test_parse_error_variable_range(r3):
    with pytest.raises(ParseError):
        parse_poly("x4", r3)
    with pytest.raises(ParseError):
        parse_poly("x0", r3)
    with pytest.raises(ParseError):
        parse_poly("x(17)^2", r3)


# (text, message, position) over F_5, one row or more for each message
_PARSE_ERRORS = [
    ("", "expected a term", 0),
    ("+x1", "expected a term", 0),
    ("x1^2+", "expected a term", 5),
    ("x1^2+ // c\n", "expected a term", 11),
    ("x", "expected a number", 1),
    ("x1^", "expected a number", 3),
    ("3/", "expected a number", 2),
    ("3/ /4", "expected a number", 3),
    ("x1^\u00b2", "expected a number", 3),  # SUPERSCRIPT TWO is a digit but not decimal
    ("x\u00b2", "expected a number", 1),
    ("x1*", "expected a variable", 3),
    ("x1**2", "expected a variable", 3),
    ("2*3", "expected a variable", 2),
    ("x(1", "expected ')'", 3),
    ("x(1 x2", "expected ')'", 4),
    ("3x1", "expected '+' or '-', found 'x'", 1),
    ("x1 x2", "expected '+' or '-', found 'x'", 3),
    ("x1 12", "expected '+' or '-', found '1'", 3),
    ("x1)", "expected '+' or '-', found ')'", 2),
    ("1/0*x1", "zero denominator", 0),
    ("x1 - 2/0", "zero denominator", 5),
    ("1/5*x1", "denominator divisible by characteristic 5", 0),
    ("x1+7/ 10", "denominator divisible by characteristic 5", 3),
    ("x4", "variable index 4 out of range 1..3", 1),
    ("x0", "variable index 0 out of range 1..3", 1),
    ("x (17)^2", "variable index 17 out of range 1..3", 2),
]


def test_parse_error_bad_syntax():
    r = Ring(3, 5)
    for text, message, pos in _PARSE_ERRORS:
        with pytest.raises(ParseError) as info:
            parse_poly(text, r)
        assert (str(info.value), info.value.position) == (f"{message} (at position {pos})", pos), text


def test_parse_error_char_p_denominator():
    r = Ring(2, 5)
    assert parse_poly("3/4*x1", r).terms == {(1, 0): 2}  # 3 * 4^-1 = 12 = 2 mod 5
    with pytest.raises(ParseError):
        parse_poly("1/5*x1", r)
    with pytest.raises(ParseError):
        parse_poly("1/10*x1", r)


def test_parse_zero_exponent_is_constant(r3):
    assert P(r3, "x1^0") == Poly.one(r3)
    assert P(r3, "x1^0*x2") == P(r3, "x2")


def test_parse_zero_denominator(r3):
    with pytest.raises(ParseError):
        parse_poly("1/0*x1", r3)


# -- formatting ---------------------------------------------------------------


def test_format_zero(r3):
    assert format_poly(Poly.zero(r3)) == "0"


def test_format_ordering_rule(r3):
    f = Poly(r3, {(1, 0, 0): Fraction(1), (0, 0, 3): Fraction(-2)})
    assert format_poly(f) == "x1-2*x3^3"


def test_format_canonical_term_order(r3):
    # degree ascending, then x1-heavy first within a degree
    f = P(r3, "x3^2+x1*x2+x2^2+x1")
    assert format_poly(f) == "x1+x1*x2+x2^2+x3^2"


def test_format_unit_coefficients(r3):
    assert format_poly(P(r3, "x1-x2")) == "x1-x2"
    assert format_poly(P(r3, "7/3")) == "7/3"
    assert format_poly(P(r3, "0-x1")) == "-x1"


def test_format_char_p_residues():
    r = Ring(2, 5)
    assert format_poly(parse_poly("-x1+7*x2", r)) == "4*x1+2*x2"


def test_parse_format_round_trip_1000_random(r3):
    rings = [r3, Ring(1, 0), Ring(2, 0), Ring(2, 7), Ring(3, 5)]
    rng = random.Random(20260809)
    for k in range(1000):
        ring = rings[k % len(rings)]
        f = gen_pol(ring, rng.randint(0, 2), rng.randint(2, 4), 3, rng.getrandbits(63))
        assert parse_poly(format_poly(f), ring) == f


@pytest.mark.parametrize("char", [0, 7])
def test_numbers_longer_than_the_int_str_limit_parse_and_format(char):
    # int() and str() refuse more than 4300 digits by default; a repunit and
    # a power of 10 are coprime, so this ratio is in lowest terms
    text = "1" * 5000 + "/1" + "0" * 4999 + "*x1"
    num, den = (10**5000 - 1) // 9, 10**4999
    f = parse_poly(text, Ring(2, char))
    if char:
        assert (f.vec, f.den) == ({1: num * pow(den, -1, char) % char}, 1)
        assert format_poly(f) == "6*x1"
    else:
        assert (f.vec, f.den) == ({1: num}, den)
        assert format_poly(f) == text
    # an exponent that long is ranked and read back by counting
    text = "x1^" + "1" * 5000
    f = parse_poly(text, Ring(2, char))
    assert (f.degree(), format_poly(f)) == ((10**5000 - 1) // 9, text)


@pytest.fixture
def least_digit_limit():
    """The interpreter's int/str digit limit at its least value, 640, where
    the interpreter has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("digits", [1, 640, 641, 1280, 1281, 4301, 9001])
def test_numbers_convert_in_pieces_under_the_least_digit_limit(digits, least_digit_limit):
    rng = random.Random(digits)
    texts = ["9" * digits, "1" + "0" * (digits - 1), "".join(rng.choice("123456789") for _ in range(digits))]
    ring = Ring(1, 0)
    for text in texts:
        value = 0
        for ch in text:
            value = 10 * value + ord(ch) - ord("0")
        f = parse_poly(text, ring)
        assert f.vec == {0: value}
        assert format_poly(f) == text
        assert parse_poly("0" + text, ring) == f  # a leading zero


# -- actions ------------------------------------------------------------------


def test_apply_der_session_example(r3):
    F = P(r3, "x(1)^2*x(3)^4+x(2)^3*x(1)*x(3)+x(2)^5")
    assert apply_der(P(r3, "x1^2"), F) == P(r3, "2*x3^4")


def test_apply_der_kills_low_degree(r3):
    for i in "123":
        assert apply_der(P(r3, f"x{i}"), Poly.one(r3)).is_zero()


def test_apply_der_falling_factorials(r3):
    # d/dx1 d/dx2 of x1^2*x2^3 = 2 * 3 * x1*x2^2
    assert apply_der(P(r3, "x1*x2"), P(r3, "x1^2*x2^3")) == P(r3, "6*x1*x2^2")


def test_apply_der_rejects_char_p():
    r = Ring(2, 5)
    with pytest.raises(CharacteristicError):
        apply_der(parse_poly("x1", r), parse_poly("x1^2", r))


def test_apply_cont_session_example(r3):
    F = P(r3, "x(1)^2*x(3)^4+x(2)^3*x(1)*x(3)+x(2)^5")
    assert apply_cont(P(r3, "x1^2"), F) == P(r3, "x3^4")


def test_apply_cont_identity_and_shift(r3):
    g = P(r3, "x1^2*x2^3-5*x3")
    assert apply_cont(Poly.one(r3), g) == g
    assert apply_cont(P(r3, "x1*x2"), P(r3, "x1^2*x2^3")) == P(r3, "x1*x2^2")


def test_apply_cont_works_in_char_p():
    r = Ring(2, 5)
    assert apply_cont(parse_poly("x1", r), parse_poly("x1^2", r)) == parse_poly("x1", r)


def test_actions_bilinear_and_module_law(r3):
    rng = random.Random(99)
    for action in (apply_der, apply_cont):
        for _ in range(50):
            f1 = gen_pol(r3, 0, 2, 2, rng.getrandbits(63))
            f2 = gen_pol(r3, 0, 2, 2, rng.getrandbits(63))
            g1 = gen_pol(r3, 0, 3, 2, rng.getrandbits(63))
            g2 = gen_pol(r3, 0, 3, 2, rng.getrandbits(63))
            assert action(f1 + f2, g1) == action(f1, g1) + action(f2, g1)
            assert action(f1, g1 + g2) == action(f1, g1) + action(f1, g2)
            assert action(f1 * f2, g1) == action(f1, action(f2, g1))


def test_contractions_commute(r3):
    g = P(r3, "x1^2*x2^3+x1*x3^4-2*x2*x3")
    x1, x2 = P(r3, "x1"), P(r3, "x2")
    assert apply_cont(x1, apply_cont(x2, g)) == apply_cont(x2, apply_cont(x1, g))


def test_cont_degree_formula(r3):
    assert apply_cont(P(r3, "x1*x2^2"), P(r3, "x1^2*x2^3*x3")).degree() == 6 - 3


# -- sigma --------------------------------------------------------------------


def test_sigma_basics(r3):
    assert sigma(Poly.one(r3)) == Poly.one(r3)
    assert sigma(P(r3, "x1^2*x2")) == P(r3, "2*x1^2*x2")
    assert sigma(P(r3, "x1*x2*x3")) == P(r3, "x1*x2*x3")
    assert sigma(Poly.zero(r3)).is_zero()


def test_sigma_rejects_char_p():
    r = Ring(2, 5)
    with pytest.raises(CharacteristicError):
        sigma(parse_poly("x1^2", r))


def test_sigma_intertwines_500_random(r3):
    rng = random.Random(4242)
    for _ in range(500):
        f = gen_pol(r3, 0, 2, 2, rng.getrandbits(63))
        g = gen_pol(r3, 0, 3, 2, rng.getrandbits(63))
        assert sigma(apply_der(f, g)) == apply_cont(f, sigma(g))


def test_sigma_bijective_on_bounded_degrees(r3):
    rng = random.Random(7)
    for _ in range(20):
        g = gen_pol(r3, 0, 3, 3, rng.getrandbits(63))
        s = sigma(g)
        back = Poly(r3, {m: Fraction(c, s.den * _bang(m)) for m, c in s.terms.items()})
        assert back == g


def _bang(mono):
    import math

    out = 1
    for e in mono:
        out *= math.factorial(e)
    return out


# -- top forms ----------------------------------------------------------------


def test_top_form_homogeneous_fixed_point(r3):
    h = P(r3, "x1*x2^2-x2*x3^2")
    assert top_form(h) == h


def test_top_form_picks_highest_degree(r3):
    assert top_form(P(r3, "x1^2+x2^3")) == P(r3, "x2^3")


def test_top_form_of_session_cubic(r3):
    q = P(
        r3,
        "2*x(1)^2-2*x(1)*x(2)+2*x(2)^2+2*x(1)*x(3)-2*x(2)*x(3)-x(3)^2"
        "-x(1)^3-2*x(1)^2*x(2)+2*x(1)*x(2)^2-2*x(2)^3-2*x(1)*x(2)*x(3)"
        "+x(2)^2*x(3)-x(2)*x(3)^2",
    )
    expected = P(
        r3,
        "-x(1)^3-2*x(1)^2*x(2)+2*x(1)*x(2)^2-2*x(2)^3-2*x(1)*x(2)*x(3)"
        "+x(2)^2*x(3)-x(2)*x(3)^2",
    )
    assert top_form(q) == expected


def test_top_form_rejects_zero(r3):
    with pytest.raises(ValueError):
        top_form(Poly.zero(r3))


# -- gen_pol ------------------------------------------------------------------


def test_gen_pol_zero_bound(r3):
    assert gen_pol(r3, 1, 3, 0, 123).is_zero()


def test_gen_pol_support_two_vars():
    r = Ring(2, 0)
    seen = set()
    for seed in range(200):
        f = gen_pol(r, 1, 1, 1, seed)
        c1, c2 = f.coeff((1, 0)), f.coeff((0, 1))
        assert c1 in (-1, 0, 1) and c2 in (-1, 0, 1)
        seen.add((c1, c2))
    assert len(seen) == 9


def test_gen_pol_deterministic(r3):
    a = gen_pol(r3, 2, 3, 2, 987654321)
    b = gen_pol(r3, 2, 3, 2, 987654321)
    assert a == b
    assert a != gen_pol(r3, 2, 3, 2, 987654322)


def test_gen_pol_degree_bounds(r3):
    f = gen_pol(r3, 2, 3, 9, 5)
    assert 2 <= f.order() and f.degree() <= 3


def test_gen_pol_reduces_mod_p():
    r = Ring(2, 5)
    f = gen_pol(r, 1, 3, 4, 31337)
    assert f.den == 1 and all(0 < c < 5 for c in f.terms.values())


def test_gen_pol_invalid_range(r3):
    with pytest.raises(ValueError):
        gen_pol(r3, 3, 2, 1, 0)
    with pytest.raises(ValueError):
        gen_pol(r3, 0, 65, 1, 0)
    with pytest.raises(ValueError):
        gen_pol(r3, 0, 1, -1, 0)


def test_gen_pol_bound_below_2_63(r3):
    # 2*bound+1 values fit in one 64-bit draw only below 2^63
    with pytest.raises(ValueError, match=r"below 2\^63"):
        gen_pol(r3, 0, 1, 2**63, 0)
    f = gen_pol(r3, 0, 1, 2**63 - 1, 0)
    assert all(abs(c) < 2**63 for c in f.terms.values())


# -- misc value semantics -----------------------------------------------------


def test_degree_markers(r3):
    assert Poly.zero(r3).degree() == -1
    assert Poly.one(r3).degree() == 0
    assert P(r3, "x1+x2^4").order() == 1


@pytest.mark.parametrize("char", [0, 5])
def test_poly_operators_agree_with_scaled_and_add(char):
    r = Ring(2, char)
    p, q = P(r, "3*x1^2-x2+1/2*x1*x2"), P(r, "x1^2+2/3*x2")
    assert -p == p.scaled(-1)
    assert p - q == p + q.scaled(-1)
    assert p - p == Poly.zero(r)
    assert 2 * p == p * 2 == p.scaled(2) == p + p
    half = p * Fraction(1, 2)
    assert half == p.scaled(Fraction(1, 2))
    assert half + half == p
    with pytest.raises(ValueError, match="different rings"):
        p + P(Ring(3, char), "x1")


def test_ring_validation():
    with pytest.raises(ValueError):
        Ring(0, 0)
    with pytest.raises(ValueError):
        Ring(2, 4)  # not prime
    with pytest.raises(CharacteristicError):
        Ring(2, 5, default_action=DER)
    with pytest.raises(ValueError, match="unknown action"):
        Ring(2, 0, default_action="shift")
    with pytest.raises(ValueError, match="degree cap must be positive"):
        Ring(2, 0, max_degree_cap=0)
    with pytest.raises(ValueError, match="variable index 0 out of range 1..2"):
        Poly.variable(Ring(2, 0), 0)
    with pytest.raises(ValueError, match="arity"):
        Poly.monomial(Ring(2, 0), (1, 0, 0))
    assert Ring(2, 5).default_action == CONT
    assert Ring(2, 0).default_action == DER


def test_primality_agrees_with_trial_division():
    from invsys.poly import _is_prime

    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(10**5) if _is_prime(n) != trial(n)] == []


def test_primality_rejects_pseudoprimes_and_accepts_large_primes():
    # Carmichael numbers, and a strong pseudoprime to the bases 2, 3, 5 and 7
    for n in (561, 41041, 3215031751):
        with pytest.raises(ValueError, match="prime"):
            Ring(2, n)
    assert Ring(2, 2**61 - 1).char == 2**61 - 1


def test_primality_bound_is_named():
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        Ring(2, 3317044064679887385961981 + 2)


def _tables(ring, degree):
    return ring.raise_table(degree), ring.lower_table(degree)


def test_ring_enumeration_grows_safely_across_threads():
    # a tiny switch interval makes threads interleave inside the first growth;
    # half the threads first ask for monomials_of_degree, which grows the
    # frame too, and all then ask for the tables a degree at a time
    degree, trials, workers = 10, 10, 4
    expected = _tables(Ring(4, 0), degree)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(trials):
            ring = Ring(4, 0)
            start = threading.Barrier(workers)

            def grow(w):
                start.wait()
                if w % 2:
                    monomials_upto(ring, degree)
                for d in range(degree + 1):
                    _tables(ring, d)

            threads = [threading.Thread(target=grow, args=(w,)) for w in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            size = ring.frame_size(degree)
            assert len(monomials_upto(ring, degree)) == size
            assert all(ring.index_of(ring.monomial_at(k)) == k for k in range(size))
            assert _tables(ring, degree) == expected
    finally:
        sys.setswitchinterval(old)


# the degrees a ring's tables are grown to, in turn, before degree 6: two
# steps extend a table, one degree at a time starts every layer on a grown
# one, and all at once builds every layer in one growth; the two-step cases
# keep their bare nvars ids
_GROWTH = {"": (2,), "each": tuple(range(6)), "once": ()}


@pytest.mark.parametrize(
    "nvars, steps",
    [(n, steps) for steps in _GROWTH.values() for n in range(1, 7)],
    ids=[f"{n}-{name}" if name else f"{n}" for name in _GROWTH for n in range(1, 7)],
)
def test_ring_tables_match_tuple_arithmetic(nvars, steps):
    degree = 6
    ring = Ring(nvars, 0)
    for d in steps:
        ring.lower_table(d)
    up, down = _tables(ring, degree)
    # the enumeration reaches one degree past the tables, and each of its
    # monomials is the one a fresh ring counts at that index
    counted = Ring(nvars, 0)
    assert ring._flat == [counted.monomial_at(k) for k in range(ring.frame_size(degree + 1))]
    for k, m in enumerate(monomials_upto(ring, degree)):
        for i in range(nvars):
            e_i = tuple(int(j == i) for j in range(nvars))
            assert ring.monomial_at(up[i][k]) == tuple(a + b for a, b in zip(m, e_i))
            if m[i]:
                assert type(down[i][k]) is int
                assert ring.monomial_at(down[i][k]) == tuple(a - b for a, b in zip(m, e_i))
            else:
                assert down[i][k] is None


@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5, 10**5])
def test_monomials_beyond_the_enumeration_are_ranked_by_counting(nvars):
    # a fresh ring enumerates only degree 0, so every index here is counted
    # and every monomial unranked: first x1^d and last x_n^d of degrees 0-2,
    # with binomials linear in n, so 10^5 variables answer at once
    ring = Ring(nvars, 0)
    for d in range(3):
        first, last = ring.frame_size(d - 1), ring.frame_size(d) - 1
        for k, m in [(first, (d,) + (0,) * (nvars - 1)), (last, (0,) * (nvars - 1) + (d,))]:
            assert (ring.index_of(m), ring.monomial_at(k), ring.degree_at(k)) == (k, m, d)
    assert len(ring._flat) == 1
    if nvars > 5:
        return
    # every index through degree 7, across the first and last of each degree
    enumerated = monomials_upto(Ring(nvars, 0), 7)
    for k, m in enumerate(enumerated):
        ring = Ring(nvars, 0)
        assert (ring.index_of(m), ring.monomial_at(k), ring.degree_at(k)) == (k, m, sum(m))
    # a polynomial of degree 1000 enumerates nothing
    ring = Ring(nvars, 0)
    f = parse_poly(f"x1^1000+x{nvars}^1000", ring)
    assert format_poly(f) == ("2*x1^1000" if nvars == 1 else f"x1^1000+x{nvars}^1000")
    assert (f.degree(), f.order()) == (1000, 1000)
    assert ring.index_of((0,) * (nvars - 1) + (1000,)) == ring.frame_size(1000) - 1
    # exponents of 10^30 are read back with a few binomials each, where
    # stepping one value at a time would not finish; the neighbours in the
    # order cross from one exponent's block to the next
    big, zeros = 10**30, (0,) * nvars
    for mono in [(zeros + (1, big))[-nvars:], ((1, big) + zeros)[:nvars], ((big,) + (1,) * nvars)[:nvars]]:
        k = ring.index_of(mono)
        assert ring.monomial_at(k) == mono
        assert [ring.index_of(ring.monomial_at(j)) for j in (k - 1, k + 1)] == [k - 1, k + 1]
    assert len(ring._flat) == 1


def test_malformed_monomials_are_refused():
    ring = Ring(3, 0)
    ring.raise_table(2)
    for mono in [(1, 1), (1, 1, 0, 0), (-1, 2, 0), (2, 0, -1)]:
        with pytest.raises(ValueError, match="not a monomial"):
            ring.index_of(mono)
        with pytest.raises(ValueError, match="not a monomial"):
            Poly(ring, {mono: 1})
        with pytest.raises(ValueError, match="not a monomial"):
            Poly(ring, {mono: 0})
        with pytest.raises(ValueError, match="not a monomial"):
            parse_poly("x1^2+2*x2+3*x3", ring).coeff(mono)
    for k in (-1, -ring.frame_size(2)):
        with pytest.raises(ValueError, match="negative"):
            ring.monomial_at(k)
        with pytest.raises(ValueError, match="negative"):
            ring.degree_at(k)


def test_rings_that_only_parse_and_format_build_no_tables():
    ring = Ring(3, 0)
    f = gen_pol(ring, 2, 4, 3, 11)
    assert parse_poly(format_poly(f), ring) == f
    assert (ring._raise, ring._lower) == ([[], [], []], [[], [], []])


def test_docstring_examples():
    import doctest

    import invsys.poly

    failures, _ = doctest.testmod(invsys.poly)
    assert failures == 0
