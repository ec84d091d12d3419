"""Shared helpers: parsing shortcuts, brute-force oracles, random instances.

The oracles here are deliberately independent of the library's linear
algebra: staircase membership is plain componentwise divisibility, and
subspace enumeration over small prime fields lists every linear combination
explicitly.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

from invsys import IdealHandle, Poly, Ring, gen_pol, parse_poly
from oracle import monomials_upto


def P(ring, text):
    return parse_poly(text, ring)


def ideal(ring, *texts):
    return IdealHandle(ring, [parse_poly(t, ring) for t in texts])


# ---------------------------------------------------------------------------
# staircase oracle for monomial ideals
# ---------------------------------------------------------------------------


def divides(a, b):
    """Monomial divisibility: x^a | x^b."""
    return all(x <= y for x, y in zip(a, b))


def in_monomial_ideal(mono, gens_exps):
    return any(divides(g, mono) for g in gens_exps)


def staircase(ring, gens_exps, bound):
    """Monomials of degree <= bound outside the monomial ideal."""
    return [
        m for m in monomials_upto(ring, bound) if not in_monomial_ideal(m, gens_exps)
    ]


def staircase_degree_counts(ring, gens_exps, bound):
    counts = [0] * (bound + 1)
    for m in staircase(ring, gens_exps, bound):
        counts[sum(m)] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


# ---------------------------------------------------------------------------
# random instances (all seeded by the caller)
# ---------------------------------------------------------------------------


def random_artin_ideal(rng: random.Random, ring: Ring, max_degree=3):
    """A genPol-generated ideal padded with a full power of the maximal ideal,
    so Artinianity holds by construction."""
    top = rng.randint(2, max_degree)
    gens = []
    for _ in range(rng.randint(1, 2)):
        g = gen_pol(ring, rng.randint(1, top), top, rng.randint(1, 2), rng.getrandbits(63))
        if not g.is_zero() and not g.constant_term():
            gens.append(g)
    gens += [Poly.monomial(ring, m) for m in ring.monomials_of_degree(top + 1)]
    return IdealHandle(ring, gens)


def random_module_gens(rng: random.Random, ring: Ring, max_degree=3):
    gens = []
    for _ in range(rng.randint(1, 2)):
        g = gen_pol(ring, rng.randint(0, 1), rng.randint(1, max_degree), 2, rng.getrandbits(63))
        if not g.is_zero():
            gens.append(g)
    if not gens:
        gens = [Poly.monomial(ring, ring.monomials_of_degree(1)[0])]
    return gens


def random_monomial_artin_ideal(rng: random.Random, ring: Ring, max_power=3):
    """Random monomial ideal containing a power of every variable."""
    n = ring.nvars
    exps = []
    for i in range(n):
        e = [0] * n
        e[i] = rng.randint(1, max_power)
        exps.append(tuple(e))
    for _ in range(rng.randint(0, 2)):
        e = tuple(rng.randint(0, 2) for _ in range(n))
        if any(e):
            exps.append(e)
    return exps


def random_ring(rng: random.Random, char=0):
    return Ring(rng.choice([1, 2, 2, 3]), char)


# ---------------------------------------------------------------------------
# brute-force subspace enumeration over tiny prime fields
# ---------------------------------------------------------------------------


def all_combinations(rows, p, size):
    """Every vector of the row span over F_p, as dense tuples of residues."""
    vecs = set()
    dense_rows = []
    for row in rows:
        dense = [0] * size
        for idx, c in row.items():
            dense[idx] = c
        dense_rows.append(dense)
    for coeffs in product(range(p), repeat=len(dense_rows)):
        v = [0] * size
        for c, dense in zip(coeffs, dense_rows):
            for k in range(size):
                v[k] = (v[k] + c * dense[k]) % p
        vecs.add(tuple(v))
    return vecs
