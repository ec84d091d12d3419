"""Exact inverse-system calculator for Artinian quotients of power-series rings.

Everything is exact: coefficients are rationals or prime-field residues,
linear algebra is reduced row echelon over the coefficient field, and all
operations are pure and deterministic.

The names below are imported from their modules on first use (PEP 562), so
importing one submodule, such as the CLI, does not load the others.
"""

from importlib import import_module

_MODULES = {
    "errors": (
        "CharacteristicError", "DegreeCapError", "FrameMismatchError", "InvSysError",
        "NotArtinError", "ParseError", "SingularCurveError", "VerificationError",
    ),
    "poly": (
        "ACTIONS", "CONT", "DER", "Poly", "Ring", "apply_action", "apply_cont", "apply_der",
        "check_action", "format_poly", "gen_pol", "parse_poly", "sigma", "top_form",
    ),
    "linalg": ("Echelon", "SubspaceBasis", "perp_space", "span_of"),
    "artin": (
        "ArtinStatus", "IdealHandle", "analyze_artin", "cm_type", "contains_power_of_maximal",
        "eq_ideal", "hilbert", "ideal_min_gens", "is_ag", "is_level", "socle_ideal",
        "truncation_span",
    ),
    "duality": (
        "SubmoduleHandle", "colon_inv_syst", "eq_mod_ih", "ideal_ann", "inv_syst", "member_ih",
        "min_gens_ih", "sub_mod_ih",
    ),
    "elliptic": (
        "ClassificationRow", "RowReport", "classification_table", "ideal_wj", "j_invariant",
        "verify_row", "weierstrass_ab", "weierstrass_j",
    ),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = list(_HOME)
