"""CLI behavior: verdict conventions, exit codes, piping, output stability."""

import ast
import io
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import invsys
from invsys import parse_poly, Ring
from invsys.cli import _build_parser, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SESSION_3GEN = "x1^2+x2^3, x2^4+x1^2, x3^2+x1*x2"
SESSION_4GEN = "x1^2+x2^3, x2^4+x1^2, x3^2+x1*x2, x1*x2^2*x3"


# -- verdict commands -------------------------------------------------------------


def test_is_ag_session(capsys):
    code, out, _ = invoke(capsys, "is-ag", "--vars", "3", SESSION_3GEN)
    assert (code, out) == (0, "4\n")


def test_is_ag_proven_not_artin_exits_zero(capsys):
    code, out, _ = invoke(capsys, "is-ag", "--vars", "3", "x1^2+x2^3, x2^4")
    assert (code, out) == (0, "-2\n")
    # a coefficient longer than int() reads at once is still an answer
    code, out, _ = invoke(capsys, "is-ag", "--vars", "2", "x1^2+" + "1" * 5000 + "*x2^2")
    assert (code, out) == (0, "-2\n")


def test_is_ag_cap_limited_exits_inconclusive(capsys):
    code, out, err = invoke(
        capsys, "is-ag", "--vars", "2", "--max-degree", "5", "x1^2+x2^2+x1^3"
    )
    assert code == 4
    assert out == "-2\n"
    assert "inconclusive" in err


def test_out_of_memory_is_one_line_and_exit_4(capsys, monkeypatch):
    def exhausted(ideal):
        raise MemoryError

    monkeypatch.setattr("invsys.cli.is_ag", exhausted)
    assert invoke(capsys, "is-ag", "--vars", "2", "x1^2, x2^2") == (4, "", "error: out of memory\n")


def test_frame_over_the_budget_is_one_line_and_exit_4(capsys, monkeypatch):
    # in 3 variables, m^6 needs the degree-<=7 enumeration: 120 monomials
    monkeypatch.setattr("invsys.poly._FRAME_BUDGET", 100)
    assert invoke(capsys, "is-ag", "--vars", "3", "x1^3, x2^3, x3^3") == (
        4, "", "error: degree 6 needs a frame of 120 monomials, over the frame budget 100\n")
    # the ring refuses a variable count whose degree-1 frame is over the budget
    assert invoke(capsys, "is-ag", "--vars", "99", "x1") == (0, "-2\n", "")
    assert invoke(capsys, "is-ag", "--vars", "100", "x1") == (
        4, "", "error: 100 variables need a frame of 101 monomials in degree 1, over the frame budget 100\n")


def test_cm_type_session(capsys):
    code, out, _ = invoke(capsys, "cm-type", "--vars", "3", SESSION_4GEN)
    assert (code, out) == (0, "3\n")


def test_is_level_commands(capsys):
    code, out, _ = invoke(capsys, "is-level", "--vars", "3", "x1^2,x2^2,x3^2")
    assert (code, out) == (0, "3\n")
    code, out, _ = invoke(capsys, "is-level", "--vars", "2", "x1^2, x1*x2, x2^3")
    assert (code, out) == (0, "-1\n")


# -- generator-list commands ---------------------------------------------------------


def test_socle_unit_marker(capsys):
    code, out, _ = invoke(capsys, "socle", "--vars", "2", "x1, x2")
    assert (code, out) == (0, "g[1]=1\n")


def test_socle_not_artin_prints_minus_one(capsys):
    code, out, _ = invoke(capsys, "socle", "--vars", "3", "x1^2+x2^3, x2^4")
    assert code == 3
    assert out == "-1\n"


def test_inv_syst_and_min_gens(capsys):
    code, out, _ = invoke(capsys, "inv-syst", "--vars", "3", "x1^2,x2^2,x3^2")
    assert (code, out) == (0, "g[1]=x1*x2*x3\n")
    code, out, _ = invoke(
        capsys, "min-gens-ih", "--vars", "3", "--action", "cont", "x1*x2*x3, x2*x3"
    )
    assert (code, out) == (0, "g[1]=x1*x2*x3\n")


def test_ideal_ann(capsys):
    code, out, _ = invoke(capsys, "ideal-ann", "--vars", "3", "x1*x2*x3")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines == ["g[1]=x1^2", "g[2]=x2^2", "g[3]=x3^2"]


def test_hilbert_output(capsys):
    code, out, _ = invoke(capsys, "hilbert", "--vars", "3", "x1^2,x2^2,x3^2")
    assert (code, out) == (0, "1,3,3,1\n")


# -- predicates and colon --------------------------------------------------------------


def test_eq_ideal_cli(capsys):
    code, out, _ = invoke(
        capsys, "eq-ideal", "--vars", "2", "x1^2, x2^2", "x1^2+x2^2, x2^2"
    )
    assert (code, out) == (0, "1\n")
    code, out, _ = invoke(capsys, "eq-ideal", "--vars", "2", "x1^2, x2^2", "x1, x2")
    assert (code, out) == (0, "0\n")


def test_member_and_module_predicates(capsys):
    code, out, _ = invoke(
        capsys, "member-ih", "--vars", "3", "--action", "cont", "x2", "x2^2"
    )
    assert (code, out) == (0, "1\n")
    code, out, _ = invoke(
        capsys, "sub-mod-ih", "--vars", "3", "--action", "cont", "x1*x2", "x1*x2, x3"
    )
    assert (code, out) == (0, "1\n")
    code, out, _ = invoke(
        capsys, "eq-mod-ih", "--vars", "3", "--action", "cont", "x1*x2", "x1*x2, x1"
    )
    assert (code, out) == (0, "1\n")


def test_colon_cli(capsys):
    code, out, _ = invoke(
        capsys, "colon", "--vars", "3", "--action", "cont", "x1*x2*x3", "x3"
    )
    assert (code, out) == (0, "x1*x2\n")
    code, out, _ = invoke(
        capsys, "colon", "--vars", "3", "--action", "cont", "x1^2", "x2"
    )
    assert (code, out) == (0, "0\n")
    assert invoke(capsys, "colon", "--vars", "2", "x1, x2", "x1") == (
        3, "", "error: expected exactly one polynomial, got 2\n")


# -- exit codes --------------------------------------------------------------------------


def test_usage_error_exit_code(capsys):
    assert invoke(capsys, "no-such-command")[0] == 1
    assert invoke(capsys, "is-ag")[0] == 1  # missing --vars and input


def test_operand_with_leading_minus(capsys):
    negative = "-x1^3-3*x2^3+x3^3"
    code, out, _ = invoke(capsys, "ideal-ann", "--vars", "3", negative)
    assert code == 0
    assert invoke(capsys, "ideal-ann", "--vars", "3", "--", negative) == (0, out, "")
    code, out, _ = invoke(capsys, "is-ag", "-x1^2, -x2^2, x3^2", "--vars", "3")
    assert (code, out) == (0, "3\n")


def test_negative_rational_flag_value(capsys):
    code, out, _ = invoke(capsys, "ideal-wj", "--j", "-25/3")
    assert code == 0
    assert invoke(capsys, "ideal-wj", "--j=-25/3") == (0, out, "")


def test_rational_flag_spellings(capsys):
    # blanks and decimals read as they always have
    assert invoke(capsys, "weierstrass-j", "--j=1.5") == (
        0, "3453/2*x1^3-3453/2*x1*x2*x3+36*x1*x3^2-3453/2*x2^2*x3+x3^3\n", "")
    assert invoke(capsys, "weierstrass-j", "--j= 7/3 ") == (
        0, "5177/3*x1^3-5177/3*x1*x2*x3+36*x1*x3^2-5177/3*x2^2*x3+x3^3\n", "")


def test_rational_flag_of_any_length(capsys):
    # j = 1...1 (5000 ones), past the int/str conversion limit: t = j - 1728
    # borrows from the fifth digit from the right
    j = "1" * 5000
    t = "1" * 4995 + "09383"
    assert invoke(capsys, "weierstrass-j", f"--j={j}") == (
        0, f"-{t}*x1^3+{t}*x1*x2*x3+36*x1*x3^2+{t}*x2^2*x3+x3^3\n", "")
    code, out, _ = invoke(capsys, "weierstrass-j", f"--j=-{j}/7", "--format", "json")
    assert code == 0 and json.loads(out)["diagnostics"] == {"j": f"-{j}/7"}


def test_seed_of_any_length(capsys):
    # 1...1 (5000 ones), past the int/str conversion limit; gen_pol masks the
    # seed to 64 bits, so it draws what that residue draws
    seed = (10**5000 - 1) // 9
    flags = ("gen-pol", "--vars", "3", "--deg-min", "1", "--deg-max", "3", "--bound", "5")
    for sign in ("", "-"):
        residue = (-seed if sign else seed) % 2**64
        expected = invoke(capsys, *flags, "--seed", str(residue))
        assert expected[0] == 0 and invoke(capsys, *flags, "--seed", sign + "1" * 5000) == expected
    code, out, _ = invoke(capsys, *flags, "--seed", "-" + "1" * 5000, "--format", "json")
    assert code == 0 and json.loads(out)["diagnostics"] == {"seed": "-" + "1" * 5000}
    # other spellings read as before; a bad one is a usage error
    assert invoke(capsys, *flags, "--seed", " +1_2 ") == invoke(capsys, *flags, "--seed", "12")
    code, _, err = invoke(capsys, *flags, "--seed", "1/2")
    assert code == 1 and err.endswith("error: argument --seed: invalid int value: '1/2'\n")


def test_usage_errors_with_leading_minus_operand(capsys):
    code, _, err = invoke(capsys, "ideal-ann", "-x1^5-3*x1^4*x3")
    assert code == 1
    assert "--vars" in err
    assert invoke(capsys, "is-ag", "--vars", "3", "-x1^2", "--bogus")[0] == 1
    assert invoke(capsys, "-x1")[0] == 1


def test_parse_error_exit_code(capsys):
    code, _, err = invoke(capsys, "is-ag", "--vars", "3", "x1^2+")
    assert code == 2
    assert "parse error" in err
    # a digit that int() rejects is a parse error, not a failed precondition
    assert invoke(capsys, "is-ag", "--vars", "2", "x1^\u00b2") == (
        2, "", "parse error: expected a number (at position 3)\n")


def test_zero_denominator_j_is_usage_error(capsys):
    # worded as for any other value that is not a rational
    for command in ("weierstrass-j", "ideal-wj", "verify-classification"):
        for value in ("1/0", "abc"):
            code, out, err = invoke(capsys, command, "--j", value)
            assert (code, out) == (1, "")
            assert err.endswith(f"invsys {command}: error: argument --j: invalid Fraction value: '{value}'\n")


def test_zero_denominator_j_exits_1_from_entry_point(capsys):
    done = _entry_point("ideal-wj", "--j", "1/0", capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.endswith("invsys ideal-wj: error: argument --j: invalid Fraction value: '1/0'\n")
    assert (done.returncode, done.stdout, done.stderr) == invoke(capsys, "ideal-wj", "--j", "1/0")


def test_precondition_exit_code(capsys):
    code, _, err = invoke(capsys, "hilbert", "--vars", "3", "x1^2+x2^3, x2^4")
    assert code == 3
    code, _, err = invoke(capsys, "is-ag", "--vars", "3", "--char", "5", "--action", "der", "x1")
    assert code == 3
    code, _, err = invoke(capsys, "ideal-wj", "--j", "1728")
    assert code == 3


def test_large_prime_characteristic(capsys):
    # 2^61 - 1 is prime; the primality check must not trial-divide up to its root
    args = ("hilbert", "--vars", "2", "--char", str(2**61 - 1), "--action", "cont", "x1^2, x2^2")
    assert invoke(capsys, *args) == (0, "1,2,1\n", "")


def test_inconclusive_exit_code(capsys):
    code, out, _ = invoke(capsys, "hilbert", "--vars", "2", "--max-degree", "4", "x1^2+x2^2+x1^3")
    assert code == 4


def test_graded_certificate_proves_homogeneous_cubics(capsys):
    # every variable has a pure power, so only the graded certificate decides
    code, out, err = invoke(capsys, "is-ag", "--vars", "3", "x1^3+x2^2*x3, x2^3+x1^2*x3, x3^3+x1*x2^2")
    assert (code, out, err) == (0, "-2\n", "")


@pytest.mark.parametrize(
    "flags,text",
    [(["--vars", "2"], "x1*x2"), (["--vars", "3", "--max-degree", "20"], "x1*x2+x3^2, x2*x3")],
)
def test_axis_certificate_proves_not_artin(capsys, flags, text):
    # no generator has a pure power of some variable: proven, not cap-limited
    code, out, err = invoke(capsys, "is-ag", *flags, text)
    assert (code, out, err) == (0, "-2\n", "")
    code, out, err = invoke(capsys, "socle", *flags, text)
    assert (code, out) == (3, "-1\n")
    assert err == "error: quotient is not Artinian (proven)\n"


def test_module_degree_above_cap_exits_inconclusive(capsys):
    args = ("ideal-ann", "--vars", "2", "--max-degree", "3", "--format", "json", "x1^4*x2^4")
    code, out, err = invoke(capsys, *args)
    assert (code, out) == (4, "")
    assert "cap 3" in err
    code, out, _ = invoke(capsys, "ideal-ann", "--vars", "2", "--max-degree", "8", "x1^4*x2^4")
    assert (code, out) == (0, "g[1]=x1^5\ng[2]=x2^5\n")
    code, out, err = invoke(capsys, "colon", "--vars", "2", "--max-degree", "3", "x1^4*x2^4", "x1")
    assert (code, out, err) == (4, "", "error: module degree 8 exceeds degree cap 3\n")


# -- determinism and formats ---------------------------------------------------------------


def test_gen_pol_deterministic_output(capsys):
    args = ("gen-pol", "--vars", "3", "--deg-min", "2", "--deg-max", "3", "--bound", "2", "--seed", "11")
    first = invoke(capsys, *args)
    second = invoke(capsys, *args)
    assert first == second and first[0] == 0


def test_gen_pol_bound_below_2_63(capsys):
    # 2^63 would need more than one 64-bit draw per coefficient
    args = ("gen-pol", "--vars", "1", "--deg-min", "0", "--deg-max", "0", "--seed", "1")
    assert invoke(capsys, *args, "--bound", str(2**63)) == (
        3, "", "error: coefficient bound must be below 2^63\n")
    code, out, _ = invoke(capsys, *args, "--bound", str(2**63 - 1))
    assert code == 0 and abs(int(out)) < 2**63


def test_integer_flags_of_any_length_print_in_full(capsys):
    # a refused value past the int/str limit is named in full, not by the interpreter's refusal
    assert invoke(capsys, "gen-pol", "--vars", "1", "--deg-min", LONG, "--deg-max", "0", "--bound", "1") == (
        3, "", f"error: invalid degree range {LONG}..0 (cap 64)\n")
    assert invoke(capsys, "is-ag", "--vars", "1", "--char", f"-{LONG}", "x1") == (
        3, "", f"error: characteristic must be 0 or prime, got -{LONG}\n")
    # a cap past the limit is text in the JSON diagnostics, as a long seed is
    code, out, _ = invoke(capsys, "hilbert", "--vars", "2", "--max-degree", LONG, "--format", "json", "x1^2, x2^2")
    assert (code, json.loads(out)["diagnostics"]["cap"]) == (0, LONG)


def test_json_output_byte_identical(capsys):
    args = ("inv-syst", "--vars", "3", "--format", "json", "x1^2,x2^2,x3^2")
    assert invoke(capsys, *args) == invoke(capsys, *args)


def test_json_text_parity_int(capsys):
    _, text_out, _ = invoke(capsys, "is-ag", "--vars", "3", SESSION_3GEN)
    _, json_out, _ = invoke(capsys, "is-ag", "--vars", "3", "--format", "json", SESSION_3GEN)
    doc = json.loads(json_out)
    assert doc["schemaVersion"] == 1
    assert doc["command"] == "is-ag"
    assert doc["ring"] == {"vars": 3, "char": 0}
    assert doc["result"] == int(text_out.strip())
    assert doc["diagnostics"]["artin"] is True


def test_json_text_parity_generators(capsys):
    ring = Ring(3, 0)
    _, text_out, _ = invoke(capsys, "inv-syst", "--vars", "3", "x1^2,x2^2,x3^2")
    _, json_out, _ = invoke(
        capsys, "inv-syst", "--vars", "3", "--format", "json", "x1^2,x2^2,x3^2"
    )
    text_polys = [
        parse_poly(line.split("=", 1)[1], ring)
        for line in text_out.strip().splitlines()
    ]
    json_polys = [
        parse_poly(t, ring) for t in json.loads(json_out)["result"]["generators"]
    ]
    assert text_polys == json_polys


def test_json_text_parity_hilbert(capsys):
    _, text_out, _ = invoke(capsys, "hilbert", "--vars", "3", "x1^2,x2^2,x3^2")
    _, json_out, _ = invoke(
        capsys, "hilbert", "--vars", "3", "--format", "json", "x1^2,x2^2,x3^2"
    )
    assert json.loads(json_out)["result"]["values"] == [
        int(v) for v in text_out.strip().split(",")
    ]


def _artin(socle_degree):
    return {"artin": True, "socleDegree": socle_degree, "proven": True, "cap": 64}


Q3, Q2 = {"vars": 3, "char": 0}, {"vars": 2, "char": 0}
F3, F2 = {"vars": 3, "char": 5}, {"vars": 2, "char": 5}
CI3 = "x1^2,x2^2,x3^2"
CONT_FLAG = ("--action", "cont")

# argv, JSON ring, JSON action, JSON diagnostics: one small case per subcommand
ENVELOPES = [
    (("is-ag", "--vars", "3", SESSION_3GEN), Q3, None, _artin(4)),
    (("is-level", "--vars", "3", CI3), Q3, None, _artin(3)),
    (("cm-type", "--vars", "3", SESSION_4GEN), Q3, None, _artin(3)),
    (("socle", "--vars", "3", "--char", "5", CI3), F3, None, _artin(3)),
    (("hilbert", "--vars", "3", CI3), Q3, None, _artin(3)),
    (("inv-syst", "--vars", "3", CI3), Q3, "der", _artin(3)),
    (("ideal-ann", "--vars", "3", "x1*x2*x3"), Q3, "der", _artin(3)),
    (("min-gens-ih", "--vars", "3", *CONT_FLAG, "x1*x2*x3, x2*x3"), Q3, "cont", {}),
    (("eq-ideal", "--vars", "2", "x1^2, x2^2", "x1^2+x2^2, x2^2"), Q2, None, {}),
    (("member-ih", "--vars", "3", *CONT_FLAG, "x2", "x2^2"), Q3, "cont", {}),
    (("sub-mod-ih", "--vars", "3", "--char", "5", "x1*x2", "x1*x2, x3"), F3, "cont", {}),
    (("eq-mod-ih", "--vars", "3", "x1*x2", "x1*x2, x1"), Q3, "der", {}),
    (("colon", "--vars", "3", *CONT_FLAG, "x1*x2*x3", "x3"), Q3, "cont", {}),
    (("gen-pol", "--vars", "2", "--char", "5", "--deg-min", "1", "--deg-max", "2", "--bound", "3", "--seed", "4"),
     F2, None, {"seed": 4}),
    (("weierstrass-j", "--j", "0"), Q3, None, {"j": "0"}),
    (("ideal-wj", "--j", "1"), Q3, None, {"j": "1"}),
    (("verify-classification",), Q3, "der", {"j": "2"}),
    (("replay-fixtures",), None, None, {}),
]


def _render(result):
    """The text-mode lines that carry the same content as a JSON result."""
    if isinstance(result, int):
        return [str(result)]
    if "generators" in result:
        return [f"g[{k}]={text}" for k, text in enumerate(result["generators"], 1)]
    if "values" in result:
        return [",".join(str(v) for v in result["values"])]
    if "poly" in result:
        return [result["poly"]]
    if "rows" in result:
        rows = result["rows"]
        lines = [f"row {k} ({r['label']}): {'PASS' if r['passed'] else 'FAIL'}" for k, r in enumerate(rows, 1)]
        return lines + [f"{sum(r['passed'] for r in rows)}/{len(rows)} rows verified"]
    checks = result["checks"]
    lines = [f"{c['fixture']} :: {c['name']}: {'PASS' if c['passed'] else 'FAIL'}" for c in checks]
    return lines + [f"{sum(c['passed'] for c in checks)}/{len(checks)} fixture checks passed"]


@pytest.mark.parametrize("argv,ring,action,diagnostics", ENVELOPES, ids=[e[0][0] for e in ENVELOPES])
def test_json_envelope_of_every_subcommand(capsys, argv, ring, action, diagnostics):
    code, text_out, _ = invoke(capsys, *argv)
    assert code == 0
    code, json_out, _ = invoke(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(json_out)
    assert doc["schemaVersion"] == 1
    envelope = (doc["command"], doc["ring"], doc["action"], doc["diagnostics"])
    assert envelope == (argv[0], ring, action, diagnostics)
    assert "\n".join(_render(doc["result"])) + "\n" == text_out


RING_FLAGS = {"-h", "--vars", "--char", "--action", "--max-degree", "--format"}
J_FLAGS = {"-h", "--j", "--format"}
HELP_FLAGS = {
    **{
        cmd: RING_FLAGS | {"input"}
        for cmd in ("is-ag", "is-level", "cm-type", "socle", "hilbert", "inv-syst", "ideal-ann", "min-gens-ih")
    },
    **{
        cmd: RING_FLAGS | {"input1", "input2"}
        for cmd in ("eq-ideal", "member-ih", "sub-mod-ih", "eq-mod-ih", "colon")
    },
    "gen-pol": RING_FLAGS | {"--deg-min", "--deg-max", "--bound", "--seed"},
    "weierstrass-j": J_FLAGS,
    "ideal-wj": J_FLAGS,
    "verify-classification": J_FLAGS,
    "replay-fixtures": {"-h", "--dir", "--format"},
}


@pytest.mark.parametrize("command", sorted(HELP_FLAGS))
def test_every_subcommand_help_lists_its_flags(capsys, command):
    code, out, err = invoke(capsys, command, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: invsys {command} [-h]")
    # the first spelling of each argument in the positional and options sections
    assert set(re.findall(r"^  (-[-a-z]+|input\d?)\b", out, re.M)) == HELP_FLAGS[command]


def test_contract_cases_cover_every_subcommand(capsys):
    code, out, _ = invoke(capsys, "--help")
    commands = re.search(r"\{([a-z,-]+)\}", out).group(1).split(",")
    assert (code, len(commands)) == (0, 18)
    assert sorted(argv[0] for argv, *_ in ENVELOPES) == sorted(HELP_FLAGS) == sorted(commands)


# -- input plumbing ---------------------------------------------------------------------------


def test_file_input_with_comments(tmp_path, capsys):
    path = tmp_path / "ideal.txt"
    path.write_text(
        "// a Gorenstein quotient\nx1^2+x2^3, x2^4+x1^2\nx3^2+x1*x2\n",
        encoding="utf-8",
    )
    code, out, _ = invoke(capsys, "is-ag", "--vars", "3", str(path))
    assert (code, out) == (0, "4\n")


def test_cm_type_from_file(tmp_path, capsys):
    path = tmp_path / "session.txt"
    path.write_text(SESSION_4GEN.replace(", ", "\n"), encoding="utf-8")
    code, out, _ = invoke(capsys, "cm-type", "--vars", "3", str(path))
    assert (code, out) == (0, "3\n")


def test_action_long_spellings(capsys):
    code, out, _ = invoke(
        capsys, "inv-syst", "--vars", "3", "--action", "contraction", "x1^2,x2^2,x3^2"
    )
    assert (code, out) == (0, "g[1]=x1*x2*x3\n")
    code, out, _ = invoke(
        capsys, "inv-syst", "--vars", "3", "--action", "derivation", "x1^2,x2^2,x3^2"
    )
    assert (code, out) == (0, "g[1]=x1*x2*x3\n")


def test_pipe_between_subcommands(monkeypatch, capsys):
    code, out, _ = invoke(capsys, "ideal-wj", "--j", "5")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out2, _ = invoke(capsys, "is-ag", "--vars", "3", "-")
    assert (code, out2) == (0, "3\n")


def test_name_prefixes_stripped_from_every_comma_piece(capsys):
    code, out, _ = invoke(capsys, "is-ag", "--vars", "2", "g[1]=x1^2, g[2]=x2^2")
    assert (code, out) == (0, "2\n")
    code, out, _ = invoke(capsys, "socle", "--vars", "2", "g[1]=x1^2,x2^2\ng[3]=x1*x2")
    assert (code, out) == (0, "g[1]=x1\ng[2]=x2\n")


def test_weierstrass_and_ideal_wj(capsys):
    code, out, _ = invoke(capsys, "weierstrass-j", "--j", "0")
    assert (code, out) == (0, "-x1^3+x2^2*x3+x2*x3^2\n")
    code, out, _ = invoke(capsys, "ideal-wj", "--j", "1")
    assert code == 0
    assert out.startswith("g[1]=-2*x1*x2+x2^2\n")


# -- bundled verification commands ------------------------------------------------------------


def test_gen_pol_char_p(capsys):
    code, out, _ = invoke(
        capsys, "gen-pol", "--vars", "2", "--char", "5",
        "--deg-min", "1", "--deg-max", "2", "--bound", "3", "--seed", "4",
    )
    assert code == 0
    parse_poly(out.strip(), Ring(2, 5))  # well-formed over F_5


def test_verify_classification(capsys):
    code, out, _ = invoke(capsys, "verify-classification")
    assert code == 0
    assert "8/8 rows verified" in out


def test_verify_classification_json(capsys):
    code, out, _ = invoke(capsys, "verify-classification", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["allPassed"] is True
    assert len(doc["result"]["rows"]) == 8


def test_verify_classification_reports_a_failed_row(capsys, monkeypatch):
    # a row whose cubic is not the inverse system of its model ideal
    from invsys import elliptic

    ring = Ring(3, 0)
    row = elliptic.ClassificationRow(
        "Three independent lines", [parse_poly(t, ring) for t in ("x1^2", "x2^2", "x3^2")], parse_poly("x1^3", ring))
    monkeypatch.setattr(elliptic, "classification_table", lambda j: [row])
    assert invoke(capsys, "verify-classification") == (3, (
        "row 1 (Three independent lines): FAIL\n"
        "  failed check: annihilator_equals_model\n"
        "0/1 rows verified\n"), "")
    code, out, _ = invoke(capsys, "verify-classification", "--format", "json")
    result = json.loads(out)["result"]
    assert code == 3 and result["allPassed"] is False
    assert result["rows"] == [{"label": "Three independent lines", "passed": False, "checks": {
        "annihilator_equals_model": False, "hilbert_1331": True, "gorenstein_socle_3": True}}]


def test_replay_fixtures(capsys):
    code, out, _ = invoke(capsys, "replay-fixtures")
    assert code == 0
    assert "15/15 fixture checks passed" in out


def test_replay_fixtures_reports_a_failed_check(capsys, tmp_path):
    check = {"kind": "is_ag", "name": "complete intersection", "ideal": ["x(1)^2", "x(2)^2", "x(3)^2"], "expect": 2}
    (tmp_path / "wrong.json").write_text(json.dumps({"checks": [check]}), encoding="utf-8")
    assert invoke(capsys, "replay-fixtures", "--dir", str(tmp_path)) == (3, (
        "wrong.json :: complete intersection: FAIL\n"
        "0/1 fixture checks passed\n"), "")


def test_replay_fixtures_missing_dir(capsys, tmp_path):
    code, _, err = invoke(capsys, "replay-fixtures", "--dir", "/nonexistent/path")
    assert code == 3
    # a directory without fixtures, then a fixture whose check kind is unknown
    assert invoke(capsys, "replay-fixtures", "--dir", str(tmp_path)) == (
        3, "", f"error: no fixture files in {tmp_path}\n")
    check = {"kind": "bogus", "name": "b"}
    (tmp_path / "bogus.json").write_text(json.dumps({"checks": [check]}), encoding="utf-8")
    assert invoke(capsys, "replay-fixtures", "--dir", str(tmp_path)) == (
        3, "", "error: fixture bogus.json: unknown fixture check kind 'bogus'\n")
    # malformed fixtures: one error line naming the file, exit 3; a string
    # is the file's text, anything else is written as JSON
    malformed = [
        ({"checks": [{"kind": "is_ag", "name": "x"}]},
         "check 'x' needs 'ideal', a list of polynomial texts"),
        ([1, 2], "the document must be a JSON object"),
        ({"ring": {"vars": 3, "char": 0}}, "'checks' must be a list of objects with a string 'kind' and 'name'"),
        ("[", "Expecting value: line 1 column 2 (char 1)"),
        ({"ring": {"vars": 0, "char": 0}, "checks": []}, "need at least one variable"),
        ({"ring": {"vars": 3, "char": 4}, "checks": []}, "characteristic must be 0 or prime, got 4"),
        ({"action": "bogus", "checks": []}, "unknown action 'bogus'"),
        ({"action": 5, "checks": []}, "unknown action 5"),
        ({"ring": {"vars": 3, "char": 5}, "action": "der", "checks": []},
         "derivation action requires characteristic 0"),
        ({"checks": [{"kind": "is_ag", "name": "broken", "ideal": ["x1^"]}]},
         "check 'broken': expected a number (at position 3)"),
    ]
    for k, (doc, message) in enumerate(malformed):
        directory = tmp_path / f"malformed{k}"
        directory.mkdir()
        (directory / "bad.json").write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        assert invoke(capsys, "replay-fixtures", "--dir", str(directory)) == (
            3, "", f"error: fixture bad.json: {message}\n")


def _child_env():
    env = dict(os.environ, PYTHONPATH=str(Path(invsys.__file__).resolve().parent.parent))
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered stdout, as by default
    return env


NOT_ON_RING_PATH = {"invsys.elliptic", "invsys.fixtures", "dataclasses", "fractions", "decimal", "numbers"}


def _loaded_by(argv):
    """(modules a fresh interpreter adds by importing the CLI, the lines
    printed by running ``argv`` through it next, the modules added by both,
    whether json was loaded)."""
    code = (
        "import sys; before = set(sys.modules); import invsys.cli; "
        "print(sorted(set(sys.modules) - before)); "
        f"invsys.cli.run({argv!r}); "
        "print(sorted(set(sys.modules) - before)); print('json' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    imported, *lines, loaded, has_json = done.stdout.splitlines()
    return set(ast.literal_eval(imported)), lines, set(ast.literal_eval(loaded)), has_json == "True"


def test_cli_import_loads_no_elliptic_fixtures_or_dataclasses():
    # importing the CLI, and then running a text-mode ring command, adds
    # neither the elliptic and fixtures modules nor dataclasses, nor
    # fractions and the decimal and numbers modules it pulls in, unless the
    # interpreter had them already; and never loads json.  The second
    # command parses and prints a proper fraction over Q.  Only a command
    # on modules loads the duality module.  gen-pol, which takes flags only,
    # loads neither.
    cases = [
        (["hilbert", "--vars", "3", "x1^2,x2^2,x3^2"], ["1,3,3,1"], False),
        (["ideal-ann", "--vars", "2", "3/4*x1^2+x2^2"], ["g[1]=x1*x2", "g[2]=x1^2-3/4*x2^2"], True),
        (["gen-pol", "--vars", "2", "--deg-min", "1", "--deg-max", "2", "--bound", "3", "--seed", "4"],
         ["3*x1+x2+3*x1^2-2*x1*x2+3*x2^2"], False),
    ]
    for argv, answer, dual in cases:
        imported, lines, loaded, has_json = _loaded_by(argv)
        assert lines == answer
        assert "invsys.cli" in imported
        assert "invsys.duality" not in imported
        assert ("invsys.duality" in loaded) == dual
        assert not (imported | loaded) & NOT_ON_RING_PATH
        assert not has_json


def test_weierstrass_j_loads_no_dataclasses_or_inspect():
    # the table's rows and reports are named tuples, so the elliptic module
    # pulls in neither dataclasses nor the inspect module it imports
    imported, lines, loaded, _ = _loaded_by(["weierstrass-j", "--j", "5"])
    assert len(lines) == 1
    assert "invsys.elliptic" in loaded
    assert not loaded & {"dataclasses", "inspect"}


# -- the entry point: `python -m invsys` runs main(), which ends the process itself ------------


def _entry_point(*argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "invsys", *argv], env=_child_env(), timeout=120, **kwargs)


BIG_GEN_POL = ("gen-pol", "--vars", "8", "--deg-min", "6", "--deg-max", "7", "--bound", "3", "--seed", "1")

# usage errors that the top-level parser reports, and its help
TOP_LEVEL = [
    ("is-ag", "--vars", "3", "x1^2", "extra"),  # unrecognized argument
    ("is-agg", "--vars", "3", "x1^2"),  # invalid choice
    (),  # no subcommand
    ("-h",),
]
# usage errors that the chosen subcommand's parser reports
SUBCOMMAND_USAGE = [
    ("is-ag", "x1^2"),  # missing --vars
    ("is-ag", "--vars", "3", "--format", "xml", "x1^2"),  # invalid choice of a flag
    ("ideal-wj", "--j", "1/0"),  # not a rational
]

# 5000 digits, past the interpreter's default int/str conversion limit
LONG = "1" * 5000
LONG_EXPONENT_COLON = ("colon", "--vars", "1", f"x1^{LONG}", "x1")
LONG_VARIABLE_INDEX = ("is-ag", "--vars", "3", f"x{LONG}")
LONG_MAX_DEGREE = ("hilbert", "--vars", "2", "--max-degree", LONG, "x1^2, x2^2")
# the axis certificate answers in many variables; past the frame budget the ring is refused
MANY_VARIABLES = ("is-ag", "--vars", "100000", "x1")
TOO_MANY_VARIABLES = ("is-ag", "--vars", "100000000000", "x1")

# one invocation per exit code 0-4, a JSON one, one whose output outgrows a
# pipe buffer, three that carry a number of 5000 digits, and two in many variables
ENTRY_POINT = [
    ("hilbert", "--vars", "3", CI3),
    ("inv-syst", "--vars", "3", "--format", "json", CI3),
    BIG_GEN_POL,
    ("is-ag", "--vars", "3"),
    ("is-ag", "--vars", "3", "x1^2+"),
    ("socle", "--vars", "3", "x1^2+x2^3, x2^4"),
    ("hilbert", "--vars", "2", "--max-degree", "4", "x1^2+x2^2+x1^3"),
    LONG_EXPONENT_COLON,
    LONG_VARIABLE_INDEX,
    LONG_MAX_DEGREE,
    MANY_VARIABLES,
    TOO_MANY_VARIABLES,
    *TOP_LEVEL,
]


def _argv_id(argv):
    text = " ".join(argv) or "no-arguments"
    return re.sub(r"\d{100,}", lambda m: f"<{len(m[0])} digits>", text)


@pytest.mark.parametrize("argv", ENTRY_POINT, ids=_argv_id)
def test_entry_point_matches_run(capsys, argv):
    done = _entry_point(*argv, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == invoke(capsys, *argv)


def test_entry_point_covers_every_exit_code(capsys):
    assert sorted({invoke(capsys, *argv)[0] for argv in ENTRY_POINT}) == [0, 1, 2, 3, 4]
    assert len(invoke(capsys, *BIG_GEN_POL)[1].encode()) > 65536
    # the long numbers print in full, not as the interpreter's refusal (exit 3)
    assert invoke(capsys, *LONG_EXPONENT_COLON) == (4, "", f"error: module degree {LONG} exceeds degree cap 64\n")
    assert invoke(capsys, *LONG_VARIABLE_INDEX) == (
        2, "", f"parse error: variable index {LONG} out of range 1..3 (at position 1)\n")
    # integer flags take numbers of any length
    assert invoke(capsys, *LONG_MAX_DEGREE) == (0, "1,2,1\n", "")
    assert invoke(capsys, *MANY_VARIABLES) == (0, "-2\n", "")
    assert invoke(capsys, *TOO_MANY_VARIABLES) == (4, "", (
        "error: 100000000000 variables need a frame of 100000000001 monomials in degree 1,"
        " over the frame budget 3000000\n"))


@pytest.mark.parametrize("argv", TOP_LEVEL + SUBCOMMAND_USAGE + [("is-ag", "--help")], ids=_argv_id)
def test_top_level_output_matches_full_parser(capsys, argv):
    # run() registers only the chosen subcommand; what it prints must be
    # what the parser of every subcommand prints
    try:
        _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
    full = (code, *capsys.readouterr())
    assert invoke(capsys, *argv) == full


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_pipe_ends_process_by_sigpipe():
    read, write = os.pipe()
    os.close(read)
    try:
        done = _entry_point("hilbert", "--vars", "3", CI3, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (-signal.SIGPIPE, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [("hilbert", "--vars", "3", CI3), BIG_GEN_POL], ids=["at-flush", "at-write"])
def test_unwritable_output_exits_3_with_one_line(argv):
    with open("/dev/full", "w") as full:
        done = _entry_point(*argv, stdout=full, stderr=subprocess.PIPE, text=True)
    assert done.returncode == 3
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
