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


def _run_check(check: dict, ring: Ring, action: str) -> bool:
    kind = check["kind"]
    parse = lambda texts: [parse_poly(t, ring) for t in texts]
    if kind == "is_ag":
        return is_ag(IdealHandle(ring, parse(check["ideal"]))) == check["expect"]
    if kind == "cm_type":
        return cm_type(IdealHandle(ring, parse(check["ideal"]))) == check["expect"]
    if kind == "socle_equals":
        ideal = IdealHandle(ring, parse(check["ideal"]))
        expected = IdealHandle(ring, parse(check["expectIdeal"]))
        return eq_ideal(IdealHandle(ring, socle_ideal(ideal)), expected)
    if kind == "min_gens_count":
        module = inv_syst(IdealHandle(ring, parse(check["ideal"])), action)
        return len(module.generators) == check["expect"]
    if kind == "inv_syst_equals_module":
        module = inv_syst(IdealHandle(ring, parse(check["ideal"])), action)
        printed = SubmoduleHandle(ring, parse(check["expectModule"]), action)
        return eq_mod_ih(module, printed)
    if kind == "roundtrip_ideal":
        ideal = IdealHandle(ring, parse(check["ideal"]))
        return eq_ideal(ideal_ann(inv_syst(ideal, action)), ideal)
    if kind == "eq_ideal":
        a = IdealHandle(ring, parse(check["ideal"]))
        b = IdealHandle(ring, parse(check["other"]))
        return int(eq_ideal(a, b)) == check["expect"]
    if kind == "ideal_ann_equals":
        module = SubmoduleHandle(ring, parse(check["module"]), action)
        expected = IdealHandle(ring, parse(check["expectIdeal"]))
        return eq_ideal(ideal_ann(module), expected)
    if kind == "is_ag_of_ann":
        module = SubmoduleHandle(ring, parse(check["module"]), action)
        return is_ag(ideal_ann(module)) == check["expect"]
    if kind == "roundtrip_module":
        module = SubmoduleHandle(ring, parse(check["module"]), action)
        return eq_mod_ih(inv_syst(ideal_ann(module), action), module)
    if kind == "eq_module":
        a = SubmoduleHandle(ring, parse(check["module"]), action)
        b = SubmoduleHandle(ring, parse(check["other"]), action)
        return int(eq_mod_ih(a, b)) == check["expect"]
    if kind == "classification_table":
        rows = classification_table(check["j"])
        return all(verify_row(row).passed for row in rows)
    raise ValueError(f"unknown fixture check kind {kind!r}")


def replay(directory: Optional[str] = None) -> list[dict]:
    """Re-run every fixture check; returns [{fixture, name, passed}, ...]."""
    results = []
    for fname, doc in _load_all(directory or fixture_dir()):
        ring_spec = doc.get("ring", {"vars": 3, "char": 0})
        ring = Ring(ring_spec["vars"], ring_spec["char"])
        action = doc.get("action", ring.default_action)
        for check in doc["checks"]:
            passed = _run_check(check, ring, action)
            results.append({"fixture": fname, "name": check["name"], "passed": passed})
    return results
