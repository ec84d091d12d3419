"""Tests of the benchmark itself: the checker, the tracer and the result line.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
import run as bench  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, Command, Session, build  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MONOMIAL_CI = "x1^2, x2^2, x3^2\n"


def _is_ag_command() -> Command:
    return Command("is-ag", ["is-ag", "--vars", "3", "@I"], check=lambda out: out.strip() == "3")


def test_checker_accepts_a_right_result():
    cmd = _is_ag_command()
    recorded = {"exit": 0, "sha256": bench.digest("3\n")}
    assert bench.verdict(cmd, 0, "3\n", recorded) == []
    assert bench.verdict(cmd, 0, "3\n", None) == []


def test_checker_flags_a_wrong_digest():
    cmd = Command("is-ag", ["is-ag", "--vars", "3", "@I"])  # no math check
    recorded = {"exit": 0, "sha256": bench.digest("3\n")}
    assert bench.verdict(cmd, 0, "3 \n", recorded) == ["stdout digest differs from the recorded one"]


def test_checker_flags_a_wrong_exit_code():
    cmd = _is_ag_command()
    recorded = {"exit": 0, "sha256": bench.digest("3\n")}
    assert bench.verdict(cmd, 4, "3\n", recorded)
    assert bench.verdict(cmd, 4, "3\n", None)
    # an allowed exit code still has to match the recorded one
    either = Command("cap", ["is-ag"], exits=(4, 0))
    assert bench.verdict(either, 0, "-2\n", {"exit": 4, "sha256": bench.digest("-2\n")})


def test_checker_flags_a_failed_math_check_and_a_hung_command():
    cmd = _is_ag_command()
    assert bench.verdict(cmd, 0, "2\n", None) == ["math check failed"]
    assert bench.verdict(cmd, None, "", None) == ["did not finish"]


def test_tally_counts_failures():
    tally = bench.Tally(None)
    cmd = _is_ag_command()
    assert tally.add(cmd, 0, "3\n")
    assert not tally.add(cmd, 0, "-1\n")
    assert (tally.attempted, tally.failed) == (2, 1)


def _namespaces() -> dict:
    """Every attribute of every loaded invsys module and traced class."""
    spaces = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name == "invsys" or name.startswith("invsys.")}
    for layer, classes in layertrace.METHODS.items():
        mod = sys.modules[f"invsys.{layer}"]
        for cls_name in classes:
            spaces[f"invsys.{layer}.{cls_name}"] = dict(vars(getattr(mod, cls_name)))
    return spaces


def _assert_same(before: dict, after: dict) -> None:
    assert before.keys() == after.keys()
    for space, names in before.items():
        changed = [k for k, v in names.items() if after[space].get(k) is not v]
        assert changed == [], f"{space}: {changed} not restored"


def test_tracer_wraps_and_restores_every_name(capsys):
    import invsys.artin
    import invsys.cli
    import invsys.linalg

    layertrace.layer_modules()
    before = _namespaces()
    with layertrace.Tracer() as tr:
        # wrapped where the callers look the names up
        assert invsys.cli.run is not before["invsys.cli"]["run"]
        assert invsys.cli.analyze_artin is not before["invsys.cli"]["analyze_artin"]
        assert invsys.artin.kernel_of_vectors is not before["invsys.artin"]["kernel_of_vectors"]
        assert invsys.linalg.Echelon.insert is not before["invsys.linalg.Echelon"]["insert"]
        assert invsys.cli.run(["is-ag", "--vars", "3", MONOMIAL_CI]) == 0
    _assert_same(before, _namespaces())
    assert capsys.readouterr().out == "3\n"
    assert tr.span("cli.run").calls == 1
    assert tr.span("artin.contains_power_of_maximal").calls == 4
    insert = tr.span("linalg.Echelon.insert")
    assert insert.calls > 0 and 0.0 <= insert.self_time <= insert.total


def test_tracer_restores_after_an_exception():
    layertrace.layer_modules()
    before = _namespaces()
    try:
        with layertrace.Tracer():
            raise KeyError("boom")
    except KeyError:
        pass
    _assert_same(before, _namespaces())


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    session = Session(
        "tiny", DEFAULT_SEED, inputs={"I": MONOMIAL_CI},
        commands=[
            _is_ag_command(),
            Command("inv-syst", ["inv-syst", "--vars", "3", "@I"], check=lambda out: out == "g[1]=x1*x2*x3\n"),
        ],
    )
    bench.write_inputs(session, tmp_path)
    tally = bench.Tally(None)
    metrics, detail = bench.traced(session, tmp_path, 0.0, tally)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert "trace.overhead_frac" in metrics
    assert (tally.attempted, tally.failed) == (4, 0)  # one untraced, one traced session
    assert metrics["cli.commands"] == (2, "count")
    assert metrics["linalg.insert_calls"][0] > 0
    assert 0.0 < metrics["linalg.insert_zero_frac"][0] < 1.0
    for name, (value, unit) in metrics.items():
        declared = next(m["unit"] for m in SPEC["per_layer"] if m["name"] == name)
        assert unit == declared, name
    assert detail["spans"]["cli.run"]["calls"] == 2


def test_sessions_are_seeded():
    for workload in WORKLOADS:
        a, b = build(workload, DEFAULT_SEED), build(workload, DEFAULT_SEED)
        assert a.inputs == b.inputs
        assert [c.argv for c in a.commands] == [c.argv for c in b.commands]
        other = build(workload, HELD_OUT_SEED)
        assert other.inputs != a.inputs
        labels = [c.label for c in a.commands]
        assert len(set(labels)) == len(labels)


def test_default_seed_has_a_recorded_result_for_every_command():
    expected = json.loads(bench.EXPECTED.read_text())
    for workload in WORKLOADS:
        labels = {c.label for c in build(workload, DEFAULT_SEED).commands}
        assert set(expected[workload]) == labels


def test_generated_polynomials_never_go_on_the_command_line():
    for workload in WORKLOADS:
        session = build(workload, HELD_OUT_SEED)
        for cmd in session.commands:
            for arg in cmd.argv:
                assert arg == "-" or not arg.startswith("-") or arg.startswith("--"), (cmd.label, arg)
                assert arg.strip() not in {text.strip() for text in session.inputs.values()}


def test_result_line_holds_every_end_to_end_metric(tmp_path):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_session", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid_q", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
