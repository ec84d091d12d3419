"""Recorded golden fixtures and their replay engine.

The shipped JSON files transcribe the classifier/socle session, the two
duality round-trip sessions (with the originally printed inverse system and
annihilator generators), and the cubic classification table.  ``replay``
re-runs every recorded check and reports pass/fail per check; printed
generator sets are compared by ideal/module equality, never textually,
since minimal generating sets are representation-dependent.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from ..artin import IdealHandle, cm_type, eq_ideal, is_ag, socle_ideal
from ..duality import SubmoduleHandle, eq_mod_ih, ideal_ann, inv_syst
from ..elliptic import classification_table, verify_row
from ..poly import Ring, parse_poly


def fixture_dir() -> str:
    """Directory holding the fixtures shipped inside the package."""
    return os.path.dirname(__file__)


def _load_all(directory: str) -> list[tuple[str, dict]]:
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"fixture directory not found: {directory}")
    out = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name), "r", encoding="utf-8") as fh:
                out.append((name, json.load(fh)))
    if not out:
        raise FileNotFoundError(f"no fixture files in {directory}")
    return out


# the JSON type of each field a check reads, and its name in an error; every
# field not listed here is a list of polynomial texts
_FIELDS = {"expect": (int, "an integer"), "j": ((str, int, float), "a rational as a string or a number")}


def _run_check(fname: str, check: dict, ring: Ring, action: str) -> bool:
    def field(key):
        value = check.get(key)
        kind, what = _FIELDS.get(key, (list, "a list of polynomial texts"))
        if not isinstance(value, kind) or kind is list and not all(isinstance(t, str) for t in value):
            raise ValueError(f"fixture {fname}: check {check['name']!r} needs {key!r}, {what}")
        return value

    kind = check["kind"]
    parse = lambda key: [parse_poly(t, ring) for t in field(key)]
    if kind == "is_ag":
        return is_ag(IdealHandle(ring, parse("ideal"))) == field("expect")
    if kind == "cm_type":
        return cm_type(IdealHandle(ring, parse("ideal"))) == field("expect")
    if kind == "socle_equals":
        ideal = IdealHandle(ring, parse("ideal"))
        expected = IdealHandle(ring, parse("expectIdeal"))
        return eq_ideal(IdealHandle(ring, socle_ideal(ideal)), expected)
    if kind == "min_gens_count":
        module = inv_syst(IdealHandle(ring, parse("ideal")), action)
        return len(module.generators) == field("expect")
    if kind == "inv_syst_equals_module":
        module = inv_syst(IdealHandle(ring, parse("ideal")), action)
        printed = SubmoduleHandle(ring, parse("expectModule"), action)
        return eq_mod_ih(module, printed)
    if kind == "roundtrip_ideal":
        ideal = IdealHandle(ring, parse("ideal"))
        return eq_ideal(ideal_ann(inv_syst(ideal, action)), ideal)
    if kind == "eq_ideal":
        a = IdealHandle(ring, parse("ideal"))
        b = IdealHandle(ring, parse("other"))
        return int(eq_ideal(a, b)) == field("expect")
    if kind == "ideal_ann_equals":
        module = SubmoduleHandle(ring, parse("module"), action)
        expected = IdealHandle(ring, parse("expectIdeal"))
        return eq_ideal(ideal_ann(module), expected)
    if kind == "is_ag_of_ann":
        module = SubmoduleHandle(ring, parse("module"), action)
        return is_ag(ideal_ann(module)) == field("expect")
    if kind == "roundtrip_module":
        module = SubmoduleHandle(ring, parse("module"), action)
        return eq_mod_ih(inv_syst(ideal_ann(module), action), module)
    if kind == "eq_module":
        a = SubmoduleHandle(ring, parse("module"), action)
        b = SubmoduleHandle(ring, parse("other"), action)
        return int(eq_mod_ih(a, b)) == field("expect")
    if kind == "classification_table":
        rows = classification_table(field("j"))
        return all(verify_row(row).passed for row in rows)
    raise ValueError(f"unknown fixture check kind {kind!r}")


def replay(directory: Optional[str] = None) -> list[dict]:
    """Re-run every fixture check; returns [{fixture, name, passed}, ...].

    A fixture whose document, ring spec, checks or check fields have the
    wrong JSON shape raises ``ValueError`` naming the file.
    """
    results = []
    for fname, doc in _load_all(directory or fixture_dir()):
        if not isinstance(doc, dict):
            raise ValueError(f"fixture {fname}: the document must be a JSON object")
        ring_spec = doc.get("ring", {"vars": 3, "char": 0})
        if not (isinstance(ring_spec, dict) and all(isinstance(ring_spec.get(k), int) for k in ("vars", "char"))):
            raise ValueError(f"fixture {fname}: 'ring' must be an object with integer 'vars' and 'char'")
        checks = doc.get("checks")
        if not (isinstance(checks, list) and all(
                isinstance(c, dict) and isinstance(c.get("kind"), str) and isinstance(c.get("name"), str)
                for c in checks)):
            raise ValueError(f"fixture {fname}: 'checks' must be a list of objects with a string 'kind' and 'name'")
        ring = Ring(ring_spec["vars"], ring_spec["char"])
        action = doc.get("action", ring.default_action)
        for check in checks:
            passed = _run_check(fname, check, ring, action)
            results.append({"fixture": fname, "name": check["name"], "passed": passed})
    return results
