"""Plane cubics, j-invariants, and the {1,3,3,1} classification table.

Artin Gorenstein quotients of k[[x1,x2,x3]] with Hilbert function {1,3,3,1}
correspond, through the inverse-system dictionary, to nondegenerate plane
cubics up to projective equivalence.  This module carries the resulting
classification: five non-elliptic normal forms, the two special elliptic
curves (j = 0 and j = 1728), and the one-parameter family

    W(j) = (j-1728)(x2^2*x3 + x1*x2*x3 - x1^3) + 36*x1*x3^2 + x3^3

whose annihilator is the explicit quadric ideal I(j) returned by
:func:`ideal_wj`.  ``verify_row`` machine-checks each table row with the
duality machinery (characteristic 0, differentiation action).  Every
polynomial here lies in one ring, Q[x1, x2, x3].
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .artin import IdealHandle, eq_ideal, hilbert, is_ag
from .duality import SubmoduleHandle, ideal_ann
from .errors import SingularCurveError
from .poly import DER, Poly, Ring, parse_poly

# The one ring of the table: Q[x1, x2, x3].  Rings compare by variables and
# characteristic, so these polynomials mix with a caller's own Ring(3, 0).
_RING = Ring(3, 0)


def _discriminant(a: Fraction, b: Fraction) -> Fraction:
    """4a^3 + 27b^2, which must not vanish: the curve is smooth."""
    disc = 4 * a**3 + 27 * b**2
    if disc == 0:
        raise SingularCurveError(f"singular curve: 4a^3 + 27b^2 = 0 for a={a}, b={b}")
    return disc


def j_invariant(a: Fraction, b: Fraction) -> Fraction:
    """j = 1728 * 4a^3 / (4a^3 + 27b^2) of the curve x2^2*x3 = x1^3 + a*x1*x3^2 + b*x3^3."""
    a, b = Fraction(a), Fraction(b)
    return 1728 * 4 * a**3 / _discriminant(a, b)


def weierstrass_ab(a: Fraction, b: Fraction) -> Poly:
    """The cubic x1^3 + a*x1*x3^2 + b*x3^3 - x2^2*x3 (zero set = the curve)."""
    a, b = Fraction(a), Fraction(b)
    _discriminant(a, b)
    return Poly(
        _RING,
        {
            (3, 0, 0): Fraction(1),
            (1, 0, 2): a,
            (0, 0, 3): b,
            (0, 2, 1): Fraction(-1),
        },
    )


def weierstrass_j(j: Fraction) -> Poly:
    """A cubic with moduli j: W(0), W(1728), or the generic family member."""
    j = Fraction(j)
    if j == 0:
        return parse_poly("x2^2*x3+x2*x3^2-x1^3", _RING)
    if j == 1728:
        return parse_poly("x2^2*x3-x1*x3^2-x1^3", _RING)
    t = j - 1728
    base = parse_poly("x2^2*x3+x1*x2*x3-x1^3", _RING)
    tail = parse_poly("36*x1*x3^2+x3^3", _RING)
    return base.scaled(t) + tail


def ideal_wj(j: Fraction) -> IdealHandle:
    """The quadric ideal I(j) = (x2^2 - 2*x1*x2, H_j, G_j), for j not in {0, 1728}.

    Its inverse system under differentiation is the cubic W(j); the two
    excluded moduli have dedicated rows in the classification table.
    """
    j = Fraction(j)
    if j in (0, 1728):
        raise ValueError("j must avoid 0 and 1728; use the dedicated table rows")
    t = j - 1728
    g1 = parse_poly("x2^2-2*x1*x2", _RING)
    h = Poly(
        _RING,
        {
            (1, 1, 0): 6 * j,
            (1, 0, 1): -144 * t,
            (0, 1, 1): 72 * t,
            (0, 0, 2): -(t**2),
        },
    )
    g = Poly(
        _RING,
        {
            (2, 0, 0): j,
            (1, 0, 1): -12 * t,
            (0, 1, 1): 6 * t,
            (0, 0, 2): 144 * t,
        },
    )
    return IdealHandle(_RING, [g1, h, g])


class ClassificationRow(NamedTuple):
    """One row of the {1,3,3,1} table: a model ideal and its inverse system.

    A named tuple, as ``RowReport`` and ``ArtinStatus`` are: ``dataclasses``
    imports ``inspect``, which the commands' start-up would pay for.
    """

    label: str
    model_ideal: list[Poly]
    inverse_system: Poly


class RowReport(NamedTuple):
    """Per-row verification outcome; ``checks`` maps sub-check name to bool."""

    label: str
    checks: dict[str, bool]
    passed: bool


# (label, model ideal, inverse system): the inverse system is given as text,
# or for the two special elliptic rows as the modulus j of the cubic W(j)
_TABLE_MODELS = [
    ("Three independent lines", "x1^2, x2^2, x3^2", "x1*x2*x3"),
    (
        "Conic and a tangent line",
        "x1^2, x1*x3, x3*x2^2, x2^3, x3^2+x1*x2",
        "x1*x2^2-x2*x3^2",
    ),
    (
        "Conic and a non-tangent line",
        "x1^2, x2^2, x3^2+6*x1*x2",
        "x1*x2*x3-x3^3",
    ),
    (
        "Irreducible nodal cubic",
        "x3^2, x1*x2, x1^2+x2^2-3*x1*x3",
        "x2^2*x3-x1^3-x1^2*x3",
    ),
    (
        "Irreducible cuspidal cubic",
        "x3^2, x1*x2, x1*x3, x2^3, x1^3+3*x2^2*x3",
        "x2^2*x3-x1^3",
    ),
    (
        "Elliptic curve j=0",
        "x3^3, x1^3+3*x2^2*x3, x1*x3, x2^2-x2*x3+x3^2, x1*x2",
        Fraction(0),
    ),
    (
        "Elliptic curve j=1728",
        "x2^2+x1*x3, x1*x2, x1^2-3*x3^2",
        Fraction(1728),
    ),
]


def classification_table(j: Fraction = Fraction(2)) -> list[ClassificationRow]:
    """The eight table rows; the generic elliptic row is instantiated at ``j``.

    ``j`` is anything ``Fraction`` reads, such as 2, "-7/3" or a Fraction,
    and must avoid 0 and 1728 (those moduli have their own rows).
    """
    j = Fraction(j)
    rows = []
    for label, models, inverse in _TABLE_MODELS:
        model = [parse_poly(t.strip(), _RING) for t in models.split(",")]
        if isinstance(inverse, str):
            rows.append(ClassificationRow(label, model, parse_poly(inverse, _RING)))
        else:
            rows.append(ClassificationRow(label, model, weierstrass_j(inverse)))
    rows.append(ClassificationRow(f"Elliptic curve j={j}", ideal_wj(j).generators, weierstrass_j(j)))
    return rows


def verify_row(row: ClassificationRow) -> RowReport:
    """Machine-check one row under differentiation in Q[x1, x2, x3].

    Three sub-checks, all required: the annihilator of the row's cubic equals
    the model ideal, the quotient's Hilbert function is {1,3,3,1}, and the
    quotient is Gorenstein with socle degree 3.  A row over another ring
    raises ``ValueError``.
    """
    module = SubmoduleHandle(_RING, [row.inverse_system], DER)
    ann = ideal_ann(module)
    model = IdealHandle(_RING, row.model_ideal)
    checks = {
        "annihilator_equals_model": eq_ideal(ann, model),
        "hilbert_1331": hilbert(model) == [1, 3, 3, 1],
        "gorenstein_socle_3": is_ag(model) == 3,
    }
    return RowReport(row.label, checks, all(checks.values()))
