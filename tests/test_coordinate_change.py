"""The invariants of A = R/I do not depend on coordinates.

A linear change x -> Ax with det A = +-1 is an automorphism of R over Q and
over every F_p, so it keeps the Hilbert function, the socle degree, the type,
the Gorenstein and level verdicts and the number of minimal generators of I
and of I^perp.  Under differentiation Macaulay duality is equivariant as
well: f(d) kills g(By) iff f(B^T d) kills g, so with B = A^(-T) the
annihilator of M under x -> A^(-T) x is the annihilator of M under x -> Ax.

The library works in the canonical monomial order, and so does the
from-scratch oracle; these checks are the ones that leave it.  A is a seeded
product of integer elementary matrices, and the substitution g(Ax) is done
here with exponent tuples and ``Fraction`` coefficients, not with ``Poly``
arithmetic.
"""

import random
from fractions import Fraction

import pytest

from invsys import (
    CONT,
    DER,
    IdealHandle,
    Poly,
    Ring,
    SubmoduleHandle,
    analyze_artin,
    classification_table,
    cm_type,
    eq_ideal,
    format_poly,
    gen_pol,
    hilbert,
    ideal_ann,
    ideal_min_gens,
    inv_syst,
    is_ag,
    is_level,
    parse_poly,
)

CHARS = (0, 32003)

# sparse complete intersections in three variables, in the style of the
# benchmark's deep_socle ones but of socle degree 4 to 7
CIS = (
    "x1^3+x2*x3^2, x2^3+x1^2*x3, x3^4-x1*x2^2",
    "x1^4-x2^4+x3^4, x1*x2^2+x3^3, x2^3+x1^2*x3-x1^3",
    "x1^2+x2^3, x2^4+x1^2, x3^2+x1*x2",
)
# the session fixtures' ideals of type 3 and 1
SESSION = (
    "x1^2+x2^3, x2^4+x1^2, x3^2+x1*x2, x1*x2^2*x3",
    "2*x1^2+2*x2^2-x1*x3+2*x2*x3-x3^2-2*x1^3+x1^2*x2+2*x1*x2^2-2*x2^3-2*x1^2*x3+2*x1*x2*x3+2*x2^2*x3"
    "-2*x2*x3^2-x3^3, -x1^2*x2-x2^3+x1*x2*x3+x2^2*x3+x1*x3^2+x3^3, x2^3+x1*x3^4, x1^2+x2^2*x3",
)
# (x1^2, x2^3, x3^2) given by sums and differences: the generators' lowest
# forms miss x2, and only the ideal they generate shows that R/I is Artinian
NOT_STANDARD = "x1^2+x2^3, x1^2-x2^3, x3^2"
# homogeneous and not Artinian, each with a unimodular A whose columns
# miss its zero set, so that g(Ax) has a pure power of every variable: three
# cubics that vanish on the line through (1, 1, -1), and the cone over the
# rational quartic curve
NOT_ARTIN = (
    ("x1^3+x2^2*x3, x2^3+x1^2*x3, x3^3+x1*x2^2", [[1, 1, 0], [0, 1, 1], [1, 1, 1]]),
    ("x1*x4-x2*x3, x1^2*x3-x2^3, x2*x4^2-x3^3, x1*x3^2-x2^2*x4",
     [[1, 2, 0, 1], [0, 1, -1, 0], [1, 1, 1, 0], [0, 0, 1, 1]]),
)


def unimodular(n: int, rng: random.Random) -> list[list[int]]:
    """A product of 2n integer elementary matrices, each adding +-1 or +-2
    times one row to another, times a sign flip of one row."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    k = rng.randrange(n)
    a[k] = [-x for x in a[k]]
    return a


def inverse(a: list[list[int]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse over Q."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def determinant(a: list[list[int]]) -> Fraction:
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def transpose(a):
    return [list(col) for col in zip(*a)]


def _times(p: dict, q: dict) -> dict:
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def substitute(g: Poly, a) -> Poly:
    """g(Ax): x_i replaced by sum_j a[i][j] x_j, term by term."""
    n = len(a)
    unit = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    images = [{unit[j]: Fraction(a[i][j]) for j in range(n) if a[i][j]} for i in range(n)]
    powers = [[{(0,) * n: Fraction(1)}] for _ in range(n)]
    out = {}
    for mono, c in g.terms.items():
        term = {(0,) * n: Fraction(c, g.den)}
        for i, e in enumerate(mono):
            while len(powers[i]) <= e:
                powers[i].append(_times(powers[i][-1], images[i]))
            term = _times(term, powers[i][e])
        for m, v in term.items():
            out[m] = out.get(m, 0) + v
    return Poly(g.ring, {m: v for m, v in out.items() if v})


def gorenstein(ring: Ring, seed: int) -> IdealHandle:
    d = {3: 4, 4: 3}[ring.nvars]
    return ideal_ann(SubmoduleHandle(ring, [gen_pol(ring, d, d, 3, seed)]))


def ideals(char: int) -> list[IdealHandle]:
    """Gorenstein annihilators, complete intersections, the session
    ideals, a generating set that is not a standard basis, three generic
    generators and the {1,3,3,1} table's model ideals."""
    r3, r4 = Ring(3, char), Ring(4, char)
    out = [gorenstein(r3, 11), gorenstein(r4, 12)]
    out += [IdealHandle(r3, [parse_poly(t, r3) for t in text.split(",")]) for text in CIS + SESSION + (NOT_STANDARD,)]
    out.append(IdealHandle(r3, [gen_pol(r3, 2, 3, 3, 20 + k) for k in (1, 2, 3)]))
    # the table is over Q; its texts are read again over the field
    out += [IdealHandle(r3, [parse_poly(format_poly(g), r3) for g in row.model_ideal])
            for row in classification_table("-7/3")]
    return out


def invariants(ideal: IdealHandle) -> tuple:
    status = analyze_artin(ideal)
    assert status.artin
    action = DER if ideal.ring.char == 0 else CONT
    return (
        hilbert(ideal),
        status.socle_degree,
        cm_type(ideal),
        is_ag(ideal),
        is_level(ideal),
        len(ideal_min_gens(ideal)),
        len(inv_syst(ideal, action).generators),
    )


def test_unimodular_matrices_have_unit_determinant():
    rng = random.Random(3)
    for n in (2, 3, 4):
        for _ in range(20):
            a = unimodular(n, rng)
            assert abs(determinant(a)) == 1
            inv = inverse(a)
            assert all(x.denominator == 1 for row in inv for x in row)


def test_substitution_is_a_ring_map():
    ring = Ring(3, 0)
    rng = random.Random(5)
    a = unimodular(3, rng)
    f, g = gen_pol(ring, 1, 2, 3, 1), gen_pol(ring, 0, 2, 3, 2)
    assert substitute(f * g, a) == substitute(f, a) * substitute(g, a)
    assert substitute(substitute(f, a), inverse(a)) == f


@pytest.mark.parametrize("char", CHARS)
def test_invariants_survive_a_unimodular_change(char):
    rng = random.Random(20261019 + char)
    for ideal in ideals(char):
        a = unimodular(ideal.ring.nvars, rng)
        moved = IdealHandle(ideal.ring, [substitute(g, a) for g in ideal.generators])
        assert invariants(moved) == invariants(ideal)


@pytest.mark.parametrize("char", CHARS)
def test_graded_verdict_survives_a_unimodular_change(char):
    # a linear change keeps the generators homogeneous, and only the graded
    # certificate decides the images
    for text, a in NOT_ARTIN:
        n = len(a)
        assert abs(determinant(a)) == 1
        ring = Ring(n, char)
        ideal = IdealHandle(ring, [parse_poly(t, ring) for t in text.split(",")])
        moved = IdealHandle(ring, [substitute(g, a) for g in ideal.generators])
        assert all(g.is_homogeneous() for g in moved.generators)
        assert {i for g in moved.generators for m in g.terms for i, e in enumerate(m) if e == sum(m)} == set(range(n))
        assert analyze_artin(moved) == analyze_artin(ideal) == (False, None, True, ring.max_degree_cap)


def test_annihilator_is_equivariant_under_differentiation():
    # ann(M under x -> A^(-T) x) = ann(M) under x -> Ax
    rng = random.Random(7)
    r3, r4 = Ring(3, 0), Ring(4, 0)
    modules = [[gen_pol(r3, 4, 4, 3, 31)], [gen_pol(r4, 3, 3, 3, 32)], [gen_pol(r3, 3, 3, 2, 33), gen_pol(r3, 2, 2, 2, 34)]]
    modules += [[row.inverse_system] for row in classification_table(5)]
    for gens in modules:
        ring = gens[0].ring
        a = unimodular(ring.nvars, rng)
        contra = transpose(inverse(a))
        moved = ideal_ann(SubmoduleHandle(ring, [substitute(g, contra) for g in gens], DER))
        ann = ideal_ann(SubmoduleHandle(ring, gens, DER))
        assert eq_ideal(moved, IdealHandle(ring, [substitute(g, a) for g in ann.generators]))
