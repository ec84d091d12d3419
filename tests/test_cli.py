"""CLI behavior: verdict conventions, exit codes, piping, output stability."""

import io
import json

import pytest

from invsys import parse_poly, Ring
from invsys.cli import run


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


def test_is_ag_cap_limited_exits_inconclusive(capsys):
    code, out, err = invoke(
        capsys, "is-ag", "--vars", "2", "--max-degree", "5", "x1*x2"
    )
    assert code == 4
    assert out == "-2\n"
    assert "inconclusive" in err


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


def test_precondition_exit_code(capsys):
    code, _, err = invoke(capsys, "hilbert", "--vars", "3", "x1^2+x2^3, x2^4")
    assert code == 3
    code, _, err = invoke(capsys, "is-ag", "--vars", "3", "--char", "5", "--action", "der", "x1")
    assert code == 3
    code, _, err = invoke(capsys, "ideal-wj", "--j", "1728")
    assert code == 3


def test_inconclusive_exit_code(capsys):
    code, out, _ = invoke(capsys, "hilbert", "--vars", "2", "--max-degree", "4", "x1*x2")
    assert code == 4


# -- determinism and formats ---------------------------------------------------------------


def test_gen_pol_deterministic_output(capsys):
    args = ("gen-pol", "--vars", "3", "--deg-min", "2", "--deg-max", "3", "--bound", "2", "--seed", "11")
    first = invoke(capsys, *args)
    second = invoke(capsys, *args)
    assert first == second and first[0] == 0


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


def test_replay_fixtures(capsys):
    code, out, _ = invoke(capsys, "replay-fixtures")
    assert code == 0
    assert "15/15 fixture checks passed" in out


def test_replay_fixtures_missing_dir(capsys):
    code, _, err = invoke(capsys, "replay-fixtures", "--dir", "/nonexistent/path")
    assert code == 3
