"""The unit-row path of the span builder and of the m o pass, against the
from-scratch oracle.

A row of span_I(B-1) that is a single monomial shifts to single monomials,
and a single-monomial row of a subspace V of S lowers to single monomials;
``_extended`` and ``maximal_action`` place those as rows and eliminate only
the other vectors, stripped of them.  The generic dense inputs of the other
span tests have almost no such rows, so these inputs are sparse: the two
complete intersections of the benchmark's deep_socle workload, a monomial
ideal and a monomial-plus-binomial one, each over Q and F_32003.
"""

import pytest

import oracle
from invsys import (
    ACTIONS,
    CONT,
    Echelon,
    IdealHandle,
    Ring,
    cm_type,
    ideal_min_gens,
    inv_syst,
    is_level,
    parse_poly,
    perp_space,
    socle_ideal,
    truncation_span,
)
from invsys.artin import _extended, maximal_action, require_artin

# name: (variables, generators, socle degree)
INPUTS = {
    "ci16": (3, "x1^5+x2^4*x3, x2^6+x1^3*x3^2, x3^7+x1^2*x2^3", 16),
    "ci14": (3, "x1^6-x2^6+x3^6, x1*x2^4+x3^5, x2^7+x1^3*x3^3-x1^7", 14),
    "monomial": (4, "x1^2, x2^3, x3^2, x4^3, x1*x2*x3", 5),
    "binomial": (3, "x1^4, x2^3, x3^2-x1*x2, x1^2*x2^2", 5),
}
CASES = [(name, char) for name in INPUTS for char in (0, 32003)]
SMALL = [(name, char) for name, char in CASES if INPUTS[name][2] < 10]


def ideal(name, char):
    n, texts, _ = INPUTS[name]
    ring = Ring(n, char)
    return IdealHandle(ring, [parse_poly(t, ring) for t in texts.split(",")])


def actions(char):
    return ACTIONS if char == 0 else (CONT,)


def unit_shifts(ech, ring, lower=False):
    """The coordinates x_i * m_p (or m_p / x_i) for every single-entry row
    e_p of ech, read off monomial exponents, not the ring's tables."""
    out = set()
    for p, row in ech.rows.items():
        if len(row) == 1:
            mono = ring.monomial_at(p)
            for i in range(ring.nvars):
                step = mono[i] - 1 if lower else mono[i] + 1
                if step >= 0:
                    out.add(ring.index_of(mono[:i] + (step,) + mono[i + 1:]))
    return out


@pytest.fixture
def offered(monkeypatch):
    """Every vector passed to ``Echelon.insert`` while the test runs."""
    seen = []
    insert = Echelon.insert

    def recording(self, vec):
        seen.append(dict(vec))
        return insert(self, vec)

    monkeypatch.setattr(Echelon, "insert", recording)
    return seen


@pytest.mark.parametrize("name,char", CASES)
def test_spans_match_products_at_every_bound(name, char):
    handle = ideal(name, char)
    ring, gens = handle.ring, handle.generators
    s = require_artin(handle)
    assert s == INPUTS[name][2]
    for b in range(s + 2):
        below = oracle.product_span(handle, b - 1) if b else Echelon(char)
        assert _extended(ring, below, gens, b)[0] == oracle.product_span(handle, b), b
        assert truncation_span(handle, b).echelon == oracle.product_span(handle, b), b
    assert ideal_min_gens(handle) == oracle.min_gens(handle)


@pytest.mark.parametrize("name,char", CASES)
def test_maximal_action_matches_oracle(name, char):
    handle = ideal(name, char)
    s = require_artin(handle)
    for action in actions(char):
        spans = [perp_space(truncation_span(handle, s), action)]
        spans += [truncation_span(handle, b) for b in (s // 2, s)]
        for span in spans:
            ech = maximal_action(span, action)
            want = oracle.maximal_action(span, action)
            assert ech == want, (action, span.bound)
            # the placed unit rows keep the column index valid for inserts
            for row in span.echelon.rows.values():
                assert ech.insert(row) == want.insert(row)
            assert ech == want


@pytest.mark.parametrize("name,char", SMALL)
def test_consumers_match_oracle(name, char):
    handle = ideal(name, char)
    assert socle_ideal(handle) == oracle.socle(handle)
    assert cm_type(handle) == oracle.cm_type(handle)
    assert is_level(handle) == oracle.is_level(handle)
    for action in actions(char):
        assert inv_syst(handle, action).generators == oracle.inv_syst(handle, action), action


@pytest.mark.parametrize("name,char", CASES)
def test_extension_makes_no_insert_for_a_unit_shift(name, char, offered):
    handle = ideal(name, char)
    ring, gens = handle.ring, handle.generators
    for b in range(1, INPUTS[name][2] + 2):
        below = oracle.product_span(handle, b - 1)
        units = unit_shifts(below, ring)
        del offered[:]
        _extended(ring, below, gens, b)
        assert not [vec for vec in offered if vec.keys() & units], b
        if name == "monomial":
            # every row is a unit: only generators are offered
            assert len(offered) <= len(gens), b


@pytest.mark.parametrize("name,char", SMALL)
def test_maximal_action_makes_no_insert_for_a_lowered_unit(name, char, offered):
    handle = ideal(name, char)
    s = require_artin(handle)
    for action in actions(char):
        span = perp_space(truncation_span(handle, s), action)
        units = unit_shifts(span.echelon, handle.ring, lower=True)
        del offered[:]
        maximal_action(span, action)
        assert units and not [vec for vec in offered if vec.keys() & units], action
