import importlib.resources as resources
import subprocess
import sys

import pytest

from gpdkit.cli import main


def data(name: str) -> str:
    return str(resources.files("gpdkit").joinpath("data", name))


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_vertex_group_circle(capsys):
    code, out = run_cli(["vertex-group", data("circle.vk"), "--base", "0"], capsys)
    assert code == 0
    assert "⟨x_b | ⟩" in out
    assert "result: ok" in out


def test_xmod_validate(capsys):
    code, out = run_cli(["xmod", "validate", data("a3s3.vk")], capsys)
    assert code == 0
    assert "violations: 0" in out


def test_check_universal_counts(capsys):
    code, out = run_cli(
        ["--format", "machine", "check-universal", data("circle.vk")], capsys
    )
    assert code == 0
    assert "COUNT s3_morphisms 36" in out
    assert "COUNT s3_cocones 36" in out
    assert out.startswith("FORMAT 1\n")
    assert out.rstrip().endswith("RESULT ok")


def test_cube_check_good_and_bad(capsys):
    code, out = run_cli(["cube", "check", data("squares.vk")], capsys)
    assert code == 0 and "commutative: 1" in out
    code, out = run_cli(["cube", "check", data("bad_cube.vk")], capsys)
    assert code == 1
    assert "result: fail" in out
    assert "seam" in out  # witness names the failing seam


def test_check_negative_fixture(capsys):
    code, out = run_cli(["check", data("bad_groupoid.vk")], capsys)
    assert code == 1
    assert "witness" in out
    assert "associativity" in out


def test_machine_format_fail_has_witness(capsys):
    code, out = run_cli(
        ["--format", "machine", "check", data("bad_groupoid.vk")], capsys
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "RESULT fail"
    assert any(line.startswith("WITNESS ") for line in lines)


def test_machine_output_is_deterministic(capsys):
    args = ["--format", "machine", "--seed", "5", "xmod", "lambda", data("a3s3.vk")]
    code1, out1 = run_cli(args, capsys)
    code2, out2 = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_grid_and_square_commands(capsys):
    code, out = run_cli(
        ["grid", "compose", data("squares.vk"), "--name", "demo"], capsys
    )
    assert code == 0
    code, out = run_cli(
        ["square", "compose", data("squares.vk"), "--left", "sq_left",
         "--right", "sq_right"], capsys
    )
    assert code == 0
    assert "(e; (123),(123),(132),e)" in out
    code, out = run_cli(
        ["square", "invert", data("squares.vk"), "--name", "sq_left", "--dir", "v"],
        capsys,
    )
    assert code == 0 and "boundary_ok: 1" in out


def test_eh_scan_command(capsys):
    code, out = run_cli(["--format", "machine", "eh-scan", "--max-size", "2"], capsys)
    assert code == 0
    assert "COUNT size2_interchange_pairs 4" in out


def test_induce_command(capsys):
    code, out = run_cli(
        ["induce", data("disk_module.vk"), "--module", "disk", "--morphism", "wrap"],
        capsys,
    )
    assert code == 0
    assert "rank: 1" in out
    assert "mgen x at p" in out


def test_pushout_command(capsys):
    code, out = run_cli(["pushout", data("circle.vk")], capsys)
    assert code == 0
    assert "generators: 2" in out


def test_count_morphisms_on_span(capsys):
    code, out = run_cli(["count-morphisms", data("wedge.vk")], capsys)
    assert code == 0
    assert "s3: 36" in out


def test_print_roundtrip_via_cli(capsys):
    code, out1 = run_cli(["print", data("a3s3.vk")], capsys)
    assert code == 0


def test_unknown_name_fails_cleanly(capsys):
    code, out = run_cli(["xmod", "validate", data("a3s3.vk"), "--name", "nope"], capsys)
    assert code == 1
    assert "result: fail" in out


def test_color_env_toggles_ansi(capsys, monkeypatch):
    monkeypatch.setenv("VK_COLOR", "1")
    code, out = run_cli(["xmod", "validate", data("a3s3.vk")], capsys)
    assert "\x1b[32mok\x1b[0m" in out
    monkeypatch.setenv("VK_COLOR", "0")
    code, out = run_cli(["xmod", "validate", data("a3s3.vk")], capsys)
    assert "\x1b[" not in out


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gpdkit.cli", "eh-scan", "--max-size", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "result: ok" in proc.stdout


def test_suite_subset_via_cli(capsys):
    code, out = run_cli(["suite", "--criteria", "1,12"], capsys)
    assert code == 0
    assert "CRITERION 1 PASS" in out
    assert "CRITERION 12 PASS" in out


def test_eh_scan_size_three(capsys):
    code, out = run_cli(["eh-scan", "--max-size", "3", "--format", "machine"], capsys)
    assert code == 0
    assert "COUNT size3_interchange_pairs 27" in out


def test_battery_selection_flag(capsys):
    code, out = run_cli(
        ["check-universal", data("circle.vk"), "--test-groupoid", "c3"], capsys
    )
    assert code == 0
    assert "c3_morphisms: 9" in out
    assert "s3_morphisms" not in out


@pytest.mark.parametrize("command", ["check-universal", "count-morphisms"])
def test_unknown_battery_name_fails_with_its_name(capsys, command):
    code, out = run_cli(
        ["--format", "machine", command, data("circle.vk"),
         "--test-groupoid", "c3", "--test-groupoid", "nope"], capsys
    )
    assert code == 1
    assert out.splitlines()[1:] == [
        f"COMMAND {command}",
        "WITNESS no test groupoid named 'nope'; the battery has triv, c2, c3, s3",
        "RESULT fail",
    ]


GOLDEN_CHECK_UNIVERSAL = """\
FORMAT 1
COMMAND check-universal
COUNT triv_morphisms 1
COUNT triv_cocones 1
COUNT c2_morphisms 4
COUNT c2_cocones 4
COUNT c3_morphisms 9
COUNT c3_cocones 9
COUNT s3_morphisms 36
COUNT s3_cocones 36
RESULT ok
"""

GOLDEN_VERTEX_GROUP = """\
FORMAT 1
COMMAND vertex-group
COUNT generators 1
COUNT relators 0
DATA ⟨x_b | ⟩
RESULT ok
"""


def test_golden_machine_outputs(capsys):
    code, out = run_cli(
        ["--format", "machine", "check-universal", data("circle.vk")], capsys
    )
    assert code == 0 and out == GOLDEN_CHECK_UNIVERSAL
    code, out = run_cli(
        ["--format", "machine", "vertex-group", data("circle.vk"), "--base", "0"],
        capsys,
    )
    assert code == 0 and out == GOLDEN_VERTEX_GROUP


# Validator-backed commands: each report folds one or more law sweeps.
GOLDEN_VALIDATED = [
    (["check", "a3s3.vk"], 0, """\
FORMAT 1
COMMAND check
COUNT checks 498
COUNT violations 0
COUNT objects 2
RESULT ok
"""),
    (["check", "bad_groupoid.vk"], 1, """\
FORMAT 1
COMMAND check
COUNT checks 49
COUNT violations 4
COUNT objects 1
WITNESS associativity: (u*u)*v != u*(u*v)
WITNESS associativity: (u*v)*v != u*(v*v)
WITNESS associativity: (v*u)*u != v*(u*u)
WITNESS associativity: (v*v)*u != v*(v*u)
RESULT fail
"""),
    (["xmod", "validate", "a3s3.vk"], 0, """\
FORMAT 1
COMMAND xmod-validate
COUNT checks 222
COUNT violations 0
RESULT ok
"""),
    (["xmod", "gamma", "a3s3.vk"], 0, """\
FORMAT 1
COMMAND xmod-gamma
COUNT checks 222
COUNT violations 0
COUNT roundtrip_iso 1
RESULT ok
"""),
    (["--seed", "5", "xmod", "lambda", "a3s3.vk"], 0, """\
FORMAT 1
COMMAND xmod-lambda
COUNT squares 648
COUNT thin 216
COUNT checks 15278636
COUNT violations 0
RESULT ok
"""),
    (["eh-scan", "--max-size", "2"], 0, """\
FORMAT 1
COMMAND eh-scan
COUNT size1_monoids 1
COUNT size1_interchange_pairs 1
COUNT size1_filtered_out 0
COUNT size2_monoids 4
COUNT size2_interchange_pairs 4
COUNT size2_filtered_out 12
COUNT checks 15
COUNT violations 0
RESULT ok
"""),
]


@pytest.mark.parametrize("args, code, golden", GOLDEN_VALIDATED,
                         ids=[" ".join(a) for a, _, _ in GOLDEN_VALIDATED])
def test_golden_validated_machine_outputs(capsys, args, code, golden):
    argv = [data(a) if a.endswith(".vk") else a for a in args]
    assert run_cli(["--format", "machine", *argv], capsys) == (code, golden)


def test_suite_machine_output_is_byte_identical_across_runs(capsys):
    argv = ["--format", "machine", "suite", "--criteria", "1,2"]
    code, first = run_cli(argv, capsys)
    assert code == 0
    assert run_cli(argv, capsys) == (0, first)
    assert "DATA CRITERION 1 PASS circle pushout reduces to one free generator" in first
    assert "COUNT criterion_2.s3_cocones 36" in first.splitlines()



@pytest.mark.parametrize("selection, witness", [
    ("99", "WITNESS no criterion matches 99"),
    ("1,99", "WITNESS no criterion matches 99"),
    ("", "WITNESS empty criterion selection"),
    (",", "WITNESS empty criterion selection"),
])
def test_suite_rejects_unknown_or_empty_selection(capsys, selection, witness):
    code, out = run_cli(["--format", "machine", "suite", "--criteria", selection], capsys)
    assert code == 1
    assert witness in out.splitlines()
    assert "CRITERION" not in out
    assert out.rstrip().endswith("RESULT fail")


def test_missing_workspace_file_fails_with_its_name(capsys, tmp_path):
    missing = tmp_path / "missing.vk"
    code, out = run_cli(["--format", "machine", "check", str(missing)], capsys)
    assert code == 1
    assert f"WITNESS cannot read {missing}: No such file or directory" in out.splitlines()
    assert out.rstrip().endswith("RESULT fail")


def test_oversized_model_fails_before_allocating_its_tables(tmp_path):
    # 55,296 squares over S4: the two int32 tables would need about 24 GB
    ws = tmp_path / "v4s4.vk"
    ws.write_text(
        "group s4 = symmetric(4)\n"
        "xmod v = normal(s4, {e, (12)(34), (13)(24), (14)(23)})\n"
    )
    script = (
        "import resource, sys\n"
        "from gpdkit.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print('PEAK_KB', resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        "sys.exit(rc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "--format", "machine", "xmod", "lambda", str(ws)],
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.splitlines()
    assert proc.returncode == 1, proc.stderr
    assert (
        "WITNESS squares(v): composition tables for 55296 squares need "
        "24461180928 bytes, over the limit of 268435456"
    ) in lines
    assert "RESULT fail" in lines
    assert lines[1] == "COMMAND xmod-lambda"
    peak_kb = int(lines[-1].split()[1])
    assert peak_kb < 256 * 1024


def test_oversized_model_is_refused_before_its_squares_are_built(tmp_path, capsys, monkeypatch):
    ws = tmp_path / "v4s4.vk"
    ws.write_text(
        "group s4 = symmetric(4)\n"
        "xmod v = normal(s4, {e, (12)(34), (13)(24), (14)(23)})\n"
    )

    def refuse(*args, **kwargs):
        raise AssertionError("lambda_functor ran")

    monkeypatch.setattr("gpdkit.cli.lambda_functor", refuse)
    code, out = run_cli(["--format", "machine", "xmod", "lambda", str(ws)], capsys)
    assert code == 1
    assert (
        "WITNESS squares(v): composition tables for 55296 squares need "
        "24461180928 bytes, over the limit of 268435456"
    ) in out.splitlines()
    assert out.rstrip().endswith("RESULT fail")
