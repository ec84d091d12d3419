"""Inverse systems, annihilators, submodule operations, colon solving."""

import random

import pytest

from invsys import (
    CONT,
    DER,
    CharacteristicError,
    IdealHandle,
    Poly,
    Ring,
    SubmoduleHandle,
    analyze_artin,
    closure_span,
    colon_inv_syst,
    eq_ideal,
    eq_mod_ih,
    gen_pol,
    hilbert,
    hilbert_via_inverse_system,
    ideal_ann,
    inv_syst,
    is_ag,
    member_ih,
    min_gens_ih,
    parse_poly,
    sigma,
    sub_mod_ih,
    truncation_span,
)
from conftest import (
    P,
    ideal,
    random_artin_ideal,
    random_module_gens,
    random_monomial_artin_ideal,
    staircase,
)


@pytest.fixture
def r3():
    return Ring(3, 0)


def module(ring, *texts, action=None):
    return SubmoduleHandle(ring, [parse_poly(t, ring) for t in texts], action)


# -- closure spans ---------------------------------------------------------------


def test_closure_of_constants(r3):
    assert closure_span(module(r3, "1")).dim == 1


def test_closure_squarefree_contraction(r3):
    assert closure_span(module(r3, "x1*x2*x3", action=CONT)).dim == 8


def test_closure_univariate_chain():
    r = Ring(1, 0)
    assert closure_span(module(r, "x1^3", action=CONT)).dim == 4


def test_closure_rejects_derivation_in_char_p():
    r = Ring(2, 5)
    with pytest.raises(CharacteristicError):
        module(r, "x1^2", action=DER)


def test_closure_fixed_under_variable_action(r3):
    from invsys import apply_der
    from invsys.linalg import poly_to_vector

    m = module(r3, "x1^2*x2+x3^3", "x1*x3")
    closure = m.closure()
    for row_poly in closure_span(m).row_polys():
        for i in (1, 2, 3):
            img = apply_der(Poly.variable(r3, i), row_poly)
            assert closure.contains(poly_to_vector(img))


# -- inverse systems ----------------------------------------------------------------


def test_inv_syst_of_maximal_ideal(r3):
    m = inv_syst(ideal(r3, "x1", "x2", "x3"))
    assert m.generators == [Poly.one(r3)]


def test_inv_syst_staircase_both_actions(r3):
    i = ideal(r3, "x1^2", "x2^2", "x3^2")
    for action in (DER, CONT):
        m = inv_syst(i, action)
        assert m.generators == [P(r3, "x1*x2*x3")]


def test_inv_syst_session_two_generators(r3):
    i = ideal(
        r3,
        "2*x(1)^2+2*x(2)^2-x(1)*x(3)+2*x(2)*x(3)-x(3)^2-2*x(1)^3+x(1)^2*x(2)"
        "+2*x(1)*x(2)^2-2*x(2)^3-2*x(1)^2*x(3)+2*x(1)*x(2)*x(3)+2*x(2)^2*x(3)"
        "-2*x(2)*x(3)^2-x(3)^3",
        "-x(1)^2*x(2)-x(2)^3+x(1)*x(2)*x(3)+x(2)^2*x(3)+x(1)*x(3)^2+x(3)^3",
        "x(2)^3+x(1)*x(3)^4",
        "x(1)^2+x(2)^2*x(3)",
    )
    m = inv_syst(i, DER)
    assert len(m.generators) == 2  # not cyclic, so not Gorenstein
    printed = module(
        r3,
        "3*x(1)^2+69*x(2)^2-42*x(1)*x(2)*x(3)-3*x(2)^2*x(3)-42*x(1)*x(3)^2"
        "+15*x(2)*x(3)^2+22*x(3)^3",
        "24*x(1)*x(3)+3*x(1)*x(2)^2+6*x(1)*x(3)^2-2*x(3)^3",
        action=DER,
    )
    assert eq_mod_ih(m, printed)


def test_inv_syst_length_duality(r3):
    rng = random.Random(61)
    for _ in range(15):
        i = random_artin_ideal(rng, r3)
        s = analyze_artin(i).socle_degree
        length = r3.frame_size(s) - truncation_span(i, s).dim
        assert closure_span(inv_syst(i)).dim == length


# -- annihilators ---------------------------------------------------------------------


def test_ideal_ann_of_constants(r3):
    ann = ideal_ann(module(r3, "1"))
    assert eq_ideal(ann, ideal(r3, "x1", "x2", "x3"))


def test_ideal_ann_squarefree_derivation(r3):
    ann = ideal_ann(module(r3, "x1*x2*x3", action=DER))
    assert eq_ideal(ann, ideal(r3, "x1^2", "x2^2", "x3^2"))


def test_ideal_ann_session_cubic(r3):
    q = module(
        r3,
        "2*x(1)^2-2*x(1)*x(2)+2*x(2)^2+2*x(1)*x(3)-2*x(2)*x(3)-x(3)^2-x(1)^3"
        "-2*x(1)^2*x(2)+2*x(1)*x(2)^2-2*x(2)^3-2*x(1)*x(2)*x(3)+x(2)^2*x(3)"
        "-x(2)*x(3)^2",
        action=DER,
    )
    qa = ideal_ann(q)
    printed = ideal(
        r3,
        "4*x(1)^2-17*x(1)*x(2)-5*x(2)^2+12*x(2)*x(3)+x(1)^3",
        "2*x(1)*x(2)+2*x(2)^2-8*x(1)*x(3)-3*x(1)^2*x(2)",
        "x(1)*x(3)-x(3)^2+2*x(1)*x(2)*x(3)",
        "x(2)^3-6*x(1)*x(2)*x(3)",
        "x(2)^2*x(3)+x(2)*x(3)^2",
        "x(3)^3",
    )
    assert eq_ideal(qa, printed)
    assert is_ag(qa) == 3


def test_ideal_ann_socle_degree_is_module_top_degree(r3):
    rng = random.Random(71)
    for _ in range(10):
        gens = random_module_gens(rng, r3)
        m = SubmoduleHandle(r3, gens, DER)
        ann = ideal_ann(m)
        # re-analyze from scratch so the cached status is not trusted
        fresh = IdealHandle(r3, ann.generators)
        assert analyze_artin(fresh).socle_degree == m.degree_bound


def test_ideal_ann_rejects_zero_module(r3):
    with pytest.raises(ValueError):
        ideal_ann(SubmoduleHandle(r3, [], DER))


# -- membership / containment / equality -------------------------------------------------


def test_member_ih_generators_and_images(r3):
    m = module(r3, "x1^2*x3+x2^3", action=DER)
    assert member_ih(m.generators[0], m)
    from invsys import apply_der

    assert member_ih(apply_der(P(r3, "x1"), m.generators[0]), m)
    assert member_ih(Poly.zero(r3), m)


def test_member_ih_counterexample(r3):
    m = module(r3, "x2^2", action=CONT)
    assert not member_ih(P(r3, "x1"), m)
    assert member_ih(P(r3, "x2"), m)
    assert member_ih(Poly.one(r3), m)


def test_member_ih_degree_shortcut(r3):
    m = module(r3, "x1^2", action=CONT)
    assert not member_ih(P(r3, "x1^3"), m)


def test_sub_and_eq_mod(r3):
    a = module(r3, "x1*x2", action=CONT)
    b = module(r3, "x1*x2", "x1", action=CONT)
    assert eq_mod_ih(a, a)
    assert eq_mod_ih(a, b)  # x1 is already a contraction of x1*x2
    c = module(r3, "x1*x2", "x3", action=CONT)
    assert sub_mod_ih(a, c) and not sub_mod_ih(c, a)
    assert not eq_mod_ih(a, c)


def test_mod_ops_reject_mismatches(r3):
    a = module(r3, "x1", action=CONT)
    b = module(r3, "x1", action=DER)
    with pytest.raises(ValueError):
        eq_mod_ih(a, b)


# -- minimal generators --------------------------------------------------------------------


def test_min_gens_single(r3):
    m = module(r3, "x1^2*x2+x3^2")
    assert min_gens_ih(m) == [P(r3, "x1^2*x2+x3^2")]


def test_min_gens_drops_contraction(r3):
    m = module(r3, "x1*x2*x3", "x2*x3", action=CONT)
    assert min_gens_ih(m) == [P(r3, "x1*x2*x3")]


def test_min_gens_count_matches_nakayama_quotient(r3):
    from invsys import Frame, quotient_dim, span_of
    from invsys.linalg import SubspaceBasis

    rng = random.Random(83)
    for _ in range(20):
        gens = random_module_gens(rng, r3)
        m = SubmoduleHandle(r3, gens, DER)
        count = len(min_gens_ih(m))
        closure = closure_span(m)
        from invsys import apply_der

        images = []
        for row in closure.row_polys():
            for i in (1, 2, 3):
                img = apply_der(Poly.variable(r3, i), row)
                if not img.is_zero():
                    images.append(img)
        sub = span_of(images, closure.frame)
        assert count == quotient_dim(closure, sub)


def test_min_gens_independent_of_generating_set(r3):
    base = module(r3, "x1^3+x2*x3", "x2^2", action=DER)
    from invsys import apply_der

    extra = apply_der(P(r3, "x1"), base.generators[0])
    fat = SubmoduleHandle(
        r3,
        base.generators + [extra, base.generators[0] + base.generators[1]],
        DER,
    )
    assert len(min_gens_ih(base)) == len(min_gens_ih(fat))
    assert eq_mod_ih(base, fat)


# -- colon solving ----------------------------------------------------------------------------


def test_colon_identity(r3):
    f = P(r3, "x1^2*x2-x3^3")
    assert colon_inv_syst(f, f, CONT) == Poly.one(r3)
    assert colon_inv_syst(f, f, DER) == Poly.one(r3)


def test_colon_monomial_shift(r3):
    h = colon_inv_syst(P(r3, "x1*x2*x3"), P(r3, "x3"), CONT)
    assert h == P(r3, "x1*x2")


def test_colon_no_solution(r3):
    assert colon_inv_syst(P(r3, "x1^2"), P(r3, "x2"), CONT) is None


def test_colon_solution_verifies(r3):
    from invsys import apply_action

    rng = random.Random(91)
    found = 0
    for _ in range(40):
        f = gen_pol(r3, 1, 3, 2, rng.getrandbits(63))
        if f.is_zero():
            continue
        probe = gen_pol(r3, 0, 2, 1, rng.getrandbits(63))
        for action in (CONT, DER):
            g = apply_action(action, probe, f)
            h = colon_inv_syst(f, g, action)
            assert h is not None
            assert apply_action(action, h, f) == g
            found += 1
    assert found >= 40


def test_colon_rejects_zero_f(r3):
    with pytest.raises(ValueError):
        colon_inv_syst(Poly.zero(r3), P(r3, "x1"), CONT)


def test_colon_zero_target_gives_zero(r3):
    assert colon_inv_syst(P(r3, "x1^2"), Poly.zero(r3), CONT) == Poly.zero(r3)


def test_colon_target_degree_too_high(r3):
    assert colon_inv_syst(P(r3, "x1^2"), P(r3, "x1^3"), CONT) is None


# -- the two Hilbert routes ---------------------------------------------------------------------


def test_hilbert_routes_trivial(r3):
    assert hilbert_via_inverse_system(ideal(r3, "x1", "x2", "x3")) == [1]


def test_hilbert_routes_staircase(r3):
    assert hilbert_via_inverse_system(ideal(r3, "x1^2", "x2^2", "x3^2")) == [1, 3, 3, 1]


def test_hilbert_routes_session_gorenstein(r3):
    i = ideal(r3, "x(1)^2+x(2)^3", "x(2)^4+x(1)^2", "x(3)^2+x(1)*x(2)")
    hf = hilbert(i)
    assert len(hf) == 5
    assert hilbert_via_inverse_system(i, DER) == hf
    assert hilbert_via_inverse_system(i, CONT) == hf


def test_is_level_dual_gorenstein_staircase(r3):
    from invsys import is_level_dual

    assert is_level_dual(ideal(r3, "x1^2", "x2^2", "x3^2")) is True


# -- round trips and order reversal ---------------------------------------------------------------


def test_round_trip_ideal_fixtures(r3):
    for texts in [
        ("x1", "x2", "x3"),
        ("x1^2", "x2^2", "x3^2"),
        ("x1^2+x2^3", "x2^4+x1^2", "x3^2+x1*x2"),
    ]:
        i = ideal(r3, *texts)
        for action in (DER, CONT):
            assert eq_ideal(ideal_ann(inv_syst(i, action)), i)


def test_round_trip_module_fixtures(r3):
    for texts in [("x1*x2*x3",), ("x1^2+x2^2", "x3^3"), ("x1^3", "x2*x3")]:
        for action in (DER, CONT):
            m = module(r3, *texts, action=action)
            assert eq_mod_ih(inv_syst(ideal_ann(m), action), m)


def test_order_reversal(r3):
    rng = random.Random(101)
    for _ in range(10):
        i = random_artin_ideal(rng, r3)
        extra = gen_pol(r3, 1, 2, 2, rng.getrandbits(63))
        if extra.is_zero() or extra.constant_term():
            extra = P(r3, "x1^2")
        j = IdealHandle(r3, i.generators + [extra])
        mi, mj = inv_syst(i), inv_syst(j)
        assert sub_mod_ih(mj, mi)


def test_monomial_inverse_systems_are_staircases(r3):
    rng = random.Random(111)
    for _ in range(20):
        exps = random_monomial_artin_ideal(rng, r3)
        i = IdealHandle(r3, [Poly.monomial(r3, e) for e in exps])
        s = analyze_artin(i).socle_degree
        m = inv_syst(i, CONT)
        expected = {tuple(e) for e in staircase(r3, exps, s)}
        got = set()
        for row in m.closure().sorted_rows():
            assert len(row) == 1  # staircase closures are monomial spans
            got.add(r3.monomial_at(next(iter(row))))
        assert got == expected


def test_gorenstein_iff_cyclic_inverse_system(r3):
    rng = random.Random(121)
    for _ in range(15):
        i = random_artin_ideal(rng, r3)
        s = analyze_artin(i).socle_degree
        gens = inv_syst(i).generators
        if is_ag(i) >= 0:
            assert len(gens) == 1 and gens[0].degree() == s
        else:
            assert len(gens) != 1 or gens[0].degree() != s


def test_sigma_transport_preserves_annihilator(r3):
    rng = random.Random(131)
    for _ in range(10):
        gens = random_module_gens(rng, r3)
        m_der = SubmoduleHandle(r3, gens, DER)
        m_cont = SubmoduleHandle(r3, [sigma(g) for g in gens], CONT)
        assert eq_ideal(ideal_ann(m_der), ideal_ann(m_cont))


def _colon_with_wrong_recheck(monkeypatch, ring):
    """colon_inv_syst on a multi-term solution, with the action wrong on h o f."""
    import invsys.duality as duality

    real = duality.apply_action

    def wrong_on_recheck(action, h, f):
        out = real(action, h, f)
        # the solver only applies monomials; the re-check applies the solution
        return out + P(ring, "x1") if len(h.terms) > 1 else out

    monkeypatch.setattr(duality, "apply_action", wrong_on_recheck)
    return colon_inv_syst(P(ring, "x1^2*x2+x2^3"), P(ring, "x1^2+2*x1*x2+3*x2^2"), DER)


def test_colon_wrong_answer_raises(monkeypatch, r3):
    from invsys import VerificationError

    h = colon_inv_syst(P(r3, "x1^2*x2+x2^3"), P(r3, "x1^2+2*x1*x2+3*x2^2"), DER)
    assert len(h.terms) > 1
    with pytest.raises(VerificationError):
        _colon_with_wrong_recheck(monkeypatch, r3)


def test_colon_wrong_answer_raises_under_python_O(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    tests = Path(__file__).resolve().parent
    script = tmp_path / "check.py"
    script.write_text(
        "import pytest\n"
        "from invsys import Ring, VerificationError\n"
        "from test_duality import _colon_with_wrong_recheck\n"
        "mp = pytest.MonkeyPatch()\n"
        "try:\n"
        "    _colon_with_wrong_recheck(mp, Ring(3))\n"
        "except VerificationError:\n"
        "    print('raised', __debug__)\n"
    )
    env = {"PYTHONPATH": f"{tests.parent / 'src'}:{tests}", "PATH": ""}
    out = subprocess.run([sys.executable, "-O", str(script)], capture_output=True, text=True, env=env)
    assert out.stdout == "raised False\n", out.stderr
