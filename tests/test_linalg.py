"""Reduced bases, membership, span sums, pairing-orthogonal complements."""

import math
import random
from fractions import Fraction

import pytest

from invsys import (
    CONT,
    DER,
    CharacteristicError,
    Echelon,
    Frame,
    FrameMismatchError,
    Poly,
    Ring,
    gen_pol,
    parse_poly,
    perp_space,
    span_of,
)
from invsys.linalg import SubspaceBasis, _projected, _unit_echelon
from conftest import P, all_combinations, staircase
import oracle


def test_span_empty_is_zero_subspace():
    r = Ring(1, 0)
    assert span_of([], Frame(r, 1)).dim == 0


def test_span_collinear():
    r = Ring(1, 0)
    u = span_of([P(r, "x1"), P(r, "2*x1")], Frame(r, 1))
    assert u.dim == 1


def test_span_rank_depends_on_field():
    rq = Ring(2, 0)
    u = span_of([P(rq, "x1+x2"), P(rq, "x1-x2")], Frame(rq, 1))
    assert u.dim == 2
    r2 = Ring(2, 2)
    v = span_of([P(r2, "x1+x2"), P(r2, "x1-x2")], Frame(r2, 1))
    assert v.dim == 1


def test_span_degree_overflow():
    r = Ring(2, 0)
    with pytest.raises(FrameMismatchError):
        span_of([P(r, "x1^3")], Frame(r, 2))


def _member(v, u):
    return u.echelon.contains(v.vec)


def test_member_space_basics():
    r = Ring(2, 0)
    u = span_of([P(r, "x1")], Frame(r, 1))
    assert _member(Poly.zero(r), u)
    assert _member(P(r, "-3*x1"), u)
    assert not _member(P(r, "x2"), u)


def test_member_space_closed_under_combinations():
    r = Ring(3, 0)
    rng = random.Random(11)
    frame = Frame(r, 3)
    gens = [gen_pol(r, 0, 3, 2, rng.getrandbits(63)) for _ in range(4)]
    u = span_of(gens, frame)
    for _ in range(30):
        combo = Poly.zero(r)
        for g in gens:
            combo = combo + g.scaled(rng.randint(-3, 3))
        assert _member(combo, u)


def test_contains_sum_quotient():
    # containment as membership of every basis row, U + V as the span of
    # both generator lists, dim((U + V) / V) = dim(U + V) - dim V
    r = Ring(2, 0)
    frame = Frame(r, 2)
    us = [P(r, "x1"), P(r, "x2^2")]
    u = span_of(us, frame)
    zero = span_of([], frame)

    def contains(a, b):
        return all(a.echelon.contains(row) for row in b.echelon.rows.values())

    assert contains(u, u)
    assert contains(u, zero)
    assert not contains(zero, u)
    assert span_of(us, frame).dim - zero.dim == u.dim
    vs = [P(r, "x1+x2")]
    v = span_of(vs, frame)
    w = span_of(us + vs, frame)
    assert w.dim == 3
    assert contains(w, u) and contains(w, v)
    assert w.dim - v.dim == 2


def test_rank_nullity_against_brute_force_enumeration():
    # dim(U+V) + dim(U cap V) = dim U + dim V, with the intersection counted
    # by exhaustive enumeration over F_3
    r = Ring(2, 3)
    frame = Frame(r, 2)
    rng = random.Random(5)
    for _ in range(25):
        us = [gen_pol(r, 0, 2, 1, rng.getrandbits(63)) for _ in range(2)]
        vs = [gen_pol(r, 0, 2, 1, rng.getrandbits(63)) for _ in range(2)]
        u, v = span_of(us, frame), span_of(vs, frame)
        uv = span_of(us + vs, frame)
        enum_u = all_combinations(u.echelon.rows.values(), 3, frame.size)
        enum_v = all_combinations(v.echelon.rows.values(), 3, frame.size)
        inter = enum_u & enum_v
        dim_inter = round(math.log(len(inter), 3))
        assert uv.dim + dim_inter == u.dim + v.dim


def test_echelon_rows_insertion_order_independent():
    r = Ring(3, 0)
    frame = Frame(r, 3)
    rng = random.Random(17)
    gens = [gen_pol(r, 0, 3, 3, rng.getrandbits(63)) for _ in range(5)]
    u = span_of(gens, frame)
    for _ in range(5):
        rng.shuffle(gens)
        v = span_of(gens, frame)
        assert u.echelon.rows == v.echelon.rows


def test_span_of_basis_rows_reproduces_matrix():
    r = Ring(2, 0)
    frame = Frame(r, 3)
    rng = random.Random(23)
    u = span_of([gen_pol(r, 0, 3, 2, rng.getrandbits(63)) for _ in range(3)], frame)
    again = span_of(u.row_polys(), frame)
    assert again.echelon.rows == u.echelon.rows


def test_perp_trivial_cases():
    r = Ring(2, 0)
    frame = Frame(r, 2)
    zero = span_of([], frame)
    full = span_of([Poly.monomial(r, m) for m in r.monomials_upto(2)], frame)
    assert perp_space(zero, CONT).dim == frame.size
    assert perp_space(full, CONT).dim == 0


def test_perp_monomial_staircase_oracle():
    r = Ring(3, 0)
    frame = Frame(r, 3)
    gens_exps = [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
    inside = [
        Poly.monomial(r, m)
        for m in r.monomials_upto(3)
        if any(all(a <= b for a, b in zip(g, m)) for g in gens_exps)
    ]
    u = span_of(inside, frame)
    perp = perp_space(u, CONT)
    expected = span_of([Poly.monomial(r, m) for m in staircase(r, gens_exps, 3)], frame)
    assert perp.echelon.rows == expected.echelon.rows


def test_perp_involution_and_dimension():
    for char, action in [(0, CONT), (0, DER), (5, CONT)]:
        r = Ring(2, char)
        frame = Frame(r, 3)
        rng = random.Random(31)
        u = span_of(
            [gen_pol(r, 0, 3, 2, rng.getrandbits(63)) for _ in range(3)], frame
        )
        p = perp_space(u, action)
        assert u.dim + p.dim == frame.size
        assert perp_space(p, action).echelon.rows == u.echelon.rows


def test_perp_pairing_orthogonality_both_actions():
    r = Ring(3, 0)
    frame = Frame(r, 3)
    rng = random.Random(37)
    u = span_of([gen_pol(r, 0, 3, 2, rng.getrandbits(63)) for _ in range(3)], frame)
    for action in (CONT, DER):
        p = perp_space(u, action)
        for row_u in u.echelon.rows.values():
            for row_g in p.echelon.rows.values():
                total = 0
                for idx, cu in row_u.items():
                    cg = row_g.get(idx)
                    if cg is None:
                        continue
                    weight = 1
                    if action == DER:
                        for e in r.monomial_at(idx):
                            weight *= math.factorial(e)
                    total = total + cu * cg * weight
                assert not total


def test_perp_derivation_requires_char0():
    r = Ring(2, 5)
    u = span_of([parse_poly("x1", r)], Frame(r, 1))
    with pytest.raises(CharacteristicError):
        perp_space(u, DER)


def test_frame_mismatch_errors():
    r = Ring(2, 0)
    with pytest.raises(FrameMismatchError):
        span_of([P(Ring(2, 5), "x1")], Frame(r, 1))
    with pytest.raises(FrameMismatchError):
        span_of([P(r, "x1"), P(r, "x1^2")], Frame(r, 1))


def test_dimensions_consistent_across_fields():
    # same monomial input over Q, F_5, F_7, F_31: identical dimensions
    dims = []
    for char in (0, 5, 7, 31):
        r = Ring(3, char)
        frame = Frame(r, 3)
        polys = [
            parse_poly(t, r)
            for t in ["x1^2+x2*x3", "x1^2", "x2*x3", "x3^3-x1*x2*x3", "x1*x2^2"]
        ]
        u = span_of(polys, frame)
        p = perp_space(u, CONT)
        dims.append((u.dim, p.dim))
    assert len(set(dims)) == 1


def _check_canonical(ech):
    # white-box: every row an int vector with its pivot at its lowest index,
    # over Q primitive with a positive pivot, over F_p residues with pivot 1;
    # and no row nonzero at another row's pivot
    char = ech.char
    for p, row in ech.rows.items():
        assert all(type(c) is int for c in row.values())
        assert p == min(row)
        if char:
            assert row[p] == 1 and all(0 < c < char for c in row.values())
        else:
            assert row[p] > 0 and math.gcd(*row.values()) == 1
        assert not any(q in row for q in ech.rows if q != p)


def test_echelon_full_reduction_invariant():
    for char in (0, 32003):
        r = Ring(3, char)
        frame = Frame(r, 3)
        rng = random.Random(41)
        u = span_of([gen_pol(r, 0, 3, 3, rng.getrandbits(63)) for _ in range(6)], frame)
        assert u.dim == 6
        _check_canonical(u.echelon)


@pytest.mark.parametrize("char", [0, 32003])
def test_echelon_independent_of_insertion_order(char):
    # the vectors of polynomials, some with proper fractions over Q, inserted
    # in shuffled orders give equal echelons holding only ints
    r = Ring(3, char)
    rng = random.Random(61)
    coeffs = (1, -1, 2, -6, 9, Fraction(1, 2), Fraction(-4, 3), Fraction(5, 7))

    def vec():
        ks = rng.sample(range(r.frame_size(3)), rng.randint(1, 7))
        return Poly(r, {r.monomial_at(k): rng.choice(coeffs) for k in ks}).vec

    for _ in range(10):
        vecs = [vec() for _ in range(rng.randint(2, 20))]
        vecs += [{k: 3 * c for k, c in vecs[0].items()}]
        first = Echelon(char)
        first.insert_all(vecs)
        _check_canonical(first)
        for _ in range(4):
            rng.shuffle(vecs)
            again = Echelon(char)
            again.insert_all(vecs)
            assert again == first
            assert again.rows == first.rows


def _check_scalars(vecs, ring):
    # every entry a plain int, over F_p a residue
    values = [c for v in vecs for c in v.values()]
    assert all(type(c) is int for c in values)
    if ring.char:
        assert all(0 <= c < ring.char for c in values)


def _check_against_dense(ech, vecs, frame):
    # every row, divided by its pivot entry, is the dense reference's row,
    # and so is every basis polynomial read back
    ring = frame.ring
    normalised = {p: {k: Fraction(c, row[p]) for k, c in row.items()} for p, row in ech.rows.items()}
    assert normalised == oracle.rref(vecs, ring.char)
    _check_canonical(ech)
    assert [oracle.exact(f) for f in SubspaceBasis(frame, ech).row_polys()] == [
        normalised[p] for p in sorted(normalised)
    ]


def test_frame_prefix_embedding():
    # a smaller frame's coordinates are a prefix of a larger frame's, so the
    # same polynomials give the same reduced rows in both
    r = Ring(2, 0)
    polys = [P(r, "x1+x2^2"), P(r, "x2-3*x1*x2")]
    small = span_of(polys, Frame(r, 2))
    big = span_of(polys, Frame(r, 4))
    assert big.frame.bound == 4
    assert r.monomials_upto(4)[: small.frame.size] == r.monomials_upto(small.frame.bound)
    assert big.echelon.rows == small.echelon.rows
    assert _member(P(r, "x1+x2^2"), big)


@pytest.mark.parametrize("char", [0, 32003])
def test_echelon_matches_dense_reference(char):
    # random sparse inserts led by +-2 or 3, so rows hold proper fractions;
    # then rows assigned from outside (copy, projection, DER complement)
    # and inserted into again
    r = Ring(3, char)
    frame = Frame(r, 3)
    rng = random.Random(59)
    coeffs = (1, -1, 2, 3, -5, Fraction(1, 2), Fraction(-4, 3))

    def vec(width=frame.size):
        ks = sorted(rng.sample(range(width), rng.randint(1, min(6, width))))
        cs = [rng.choice((2, -2, 3))] + [rng.choice(coeffs) for _ in ks[1:]]
        return Poly(r, {r.monomial_at(k): c for k, c in zip(ks, cs)}).vec

    for _ in range(40):
        vecs = [vec() for _ in range(rng.randint(1, 25))]
        _check_scalars(vecs, r)
        ech = Echelon(char)
        ech.insert_all(vecs)
        _check_against_dense(ech, vecs, frame)
        more = [vec() for _ in range(6)]
        dup = ech.copy()
        dup.insert_all(more)
        _check_against_dense(dup, vecs + more, frame)
        _check_against_dense(ech, vecs, frame)
        cut = rng.randint(1, frame.size)
        low = [vec(cut) for _ in range(4)]
        proj = _projected(ech, cut)
        proj.insert_all(low)
        _check_against_dense(proj, [{k: c for k, c in v.items() if k < cut} for v in vecs] + low, frame)
        if char == 0:
            perp = perp_space(SubspaceBasis(frame, ech), DER).echelon
            base = [dict(row) for row in perp.rows.values()]
            _check_against_dense(perp, base, frame)
            perp.insert_all(more)
            _check_against_dense(perp, base + more, frame)


@pytest.mark.parametrize("char", [0, 32003])
def test_unit_echelon_matches_dense_reference(char):
    # unit rows placed beside the echelon of the other vectors stripped of
    # their unit coordinates: the reduced form of all of them, which then
    # takes further inserts of vectors that hold unit coordinates
    r = Ring(3, char)
    frame = Frame(r, 3)
    rng = random.Random(67)
    coeffs = (1, -1, 2, 3, -5, Fraction(1, 2), Fraction(-4, 3))

    def vec():
        ks = rng.sample(range(frame.size), rng.randint(1, 6))
        return Poly(r, {r.monomial_at(k): rng.choice(coeffs) for k in ks}).vec

    for _ in range(40):
        units = set(rng.sample(range(frame.size), rng.randint(0, 12)))
        vecs = [vec() for _ in range(rng.randint(1, 25))]
        stripped = [w for v in vecs if (w := {k: c for k, c in v.items() if k not in units})]
        ech = _unit_echelon(char, units, stripped)
        assert all(ech.rows[u] == {u: 1} for u in units)
        every = [{u: 1} for u in units] + vecs
        _check_against_dense(ech, every, frame)
        more = [vec() for _ in range(6)]
        ech.insert_all(more)
        _check_against_dense(ech, every + more, frame)
