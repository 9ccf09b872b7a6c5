import argparse
import contextlib
import importlib.resources as resources
import io
import itertools
import json
import random
import re
import shlex
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gpdkit import cli, grids, squares
from gpdkit.cli import main
from gpdkit.crossed import perturb_action_entry
from gpdkit.cubes import CubeKernel
from gpdkit.dgt import comp_h_unconjugated, gamma
from gpdkit.errors import PreconditionFailed
from gpdkit.freemodules import FreeModule, ModuleElement, induce_free_module
from gpdkit.morphisms import GroupoidMorphism
from gpdkit.presentations import GroupoidPresentation
from gpdkit.report import Report
from gpdkit.suite import CRITERIA, a3_s3_xmod, circle_span, criterion_3_crossed_modules
from gpdkit.vkt import Pushout, Span, pushout as vkt_pushout
from gpdkit.words import ArrowGen
from same_output import CIRCLE_CANDIDATE
from test_dgt import loop_interchange, pasted_pairs, with_swapped_filler
from test_textfmt import _BUNDLED, edited_workspace


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


def test_cube_check_gives_no_oracle_verdict_for_a_non_injective_boundary(capsys, tmp_path):
    # C3 -> Aut(C3) has a trivial boundary, so every boundary has three fillers
    # and the scalar oracle cannot tell the lid t from the fold e
    ws = tmp_path / "noninjective.vk"
    ws.write_text(
        "group c3 = cyclic(3)\n"
        "xmod x = autxmod(c3)\n"
        "square e = (e; aut0,aut0,aut0,aut0) over x\n"
        "square t = (t; aut0,aut0,aut0,aut0) over x\n"
        "cube box: t e e e e e\n"
    )
    code, out = run_cli(["--format", "machine", "cube", "check", str(ws), "--name", "box"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert "COUNT commutative 0" in lines
    assert not any("oracle" in line for line in lines)


def test_readme_invocations_run_on_the_bundled_workspaces(capsys, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Common invocations:", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines()]
    assert len(commands) == 13
    monkeypatch.chdir(data(""))
    for args in commands:
        code, out = run_cli(args, capsys)
        assert code == 0, (args, out)


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


@pytest.mark.parametrize("extra, code, tail", [
    ("", 0, GOLDEN_CHECK_UNIVERSAL.split("\n", 2)[2]),
    ("\ngen c: 0 -> 1", 1, """\
COUNT triv_morphisms 1
COUNT triv_cocones 1
COUNT c2_morphisms 8
COUNT c2_cocones 4
COUNT c3_morphisms 27
COUNT c3_cocones 9
COUNT s3_morphisms 216
COUNT s3_cocones 36
WITNESS c2: universal property FAIL: 8 morphisms vs 4 compatible cocones
WITNESS c3: universal property FAIL: 27 morphisms vs 9 compatible cocones
WITNESS s3: universal property FAIL: 216 morphisms vs 36 compatible cocones
RESULT fail
""")], ids=["pushout", "extra-generator"])
def test_check_universal_tests_a_named_candidate(capsys, tmp_path, extra, code, tail):
    # the computed pushout passes; one more generator has more morphisms
    # out than there are cocones
    path = tmp_path / "candidate.vk"
    path.write_text(Path(data("circle.vk")).read_text() + CIRCLE_CANDIDATE.format(extra=extra))
    assert run_cli(["--format", "machine", "check-universal", str(path), "--span", "circle",
                    "--candidate", "po", "--candidate-left", "inl", "--candidate-right", "inr"],
                   capsys) == (code, "FORMAT 1\nCOMMAND check-universal\n" + tail)


@pytest.mark.parametrize("tree, code, body", [
    ("a", 0, GOLDEN_VERTEX_GROUP.split("\n", 2)[2]),
    ("b", 0, GOLDEN_VERTEX_GROUP.split("\n", 2)[2].replace("x_b", "x_a")),
    ("zz", 1, "WITNESS unknown tree generators in 'zz'\nRESULT fail\n"),
    ("a,zz", 1, "WITNESS unknown tree generators in 'a,zz'\nRESULT fail\n")])
def test_vertex_group_takes_a_named_spanning_tree(capsys, tree, code, body):
    # either arc spans the circle's two objects: the default run's counts
    assert run_cli(["--format", "machine", "vertex-group", data("circle.vk"), "--base", "0",
                    "--tree", tree], capsys) == (code, "FORMAT 1\nCOMMAND vertex-group\n" + body)


# Van Kampen and grid commands on the bundled workspaces, besides circle.vk's.
GOLDEN_VAN_KAMPEN = [
    (["pushout", "wedge.vk"], """\
FORMAT 1
COMMAND pushout
COUNT objects 1
COUNT generators 2
COUNT relations 0
DATA ⟨x, y | ⟩
DATA groupoid po(loop_x,loop_y)
DATA objects: p
DATA gen x: p -> p
DATA gen y: p -> p
RESULT ok
"""),
    *((["vertex-group", "wedge.vk", "--base", "p", *raw], """\
FORMAT 1
COMMAND vertex-group
COUNT generators 2
COUNT relators 0
DATA ⟨x_x, x_y | ⟩
RESULT ok
""") for raw in ([], ["--raw"])),
    (["check-universal", "wedge.vk"], GOLDEN_CHECK_UNIVERSAL),
    (["count-morphisms", "wedge.vk"], """\
FORMAT 1
COMMAND count-morphisms
COUNT triv 1
COUNT c2 4
COUNT c3 9
COUNT s3 36
RESULT ok
"""),
    *((["count-morphisms", "disk_module.vk", "--presentation", name], """\
FORMAT 1
COMMAND count-morphisms
COUNT triv 1
COUNT c2 2
COUNT c3 3
COUNT s3 6
RESULT ok
""") for name in ("interval", "cinf")),
    (["grid", "compose", "squares.vk", "--name", "demo"], """\
FORMAT 1
COMMAND grid-compose
COUNT rows 2
COUNT cols 2
DATA (e; (132),e,(123),(123))
RESULT ok
"""),
]


@pytest.mark.parametrize("args, golden", GOLDEN_VAN_KAMPEN,
                         ids=[" ".join(a) for a, _ in GOLDEN_VAN_KAMPEN])
def test_golden_van_kampen_and_grid_outputs(capsys, args, golden):
    argv = [data(a) if a.endswith(".vk") else a for a in args]
    assert run_cli(["--format", "machine", *argv], capsys) == (0, golden)


# Every criterion's counts, as `vk --format machine suite` prints them.
GOLDEN_SUITE = """\
FORMAT 1
COMMAND suite
COUNT criterion_1.generators 1
COUNT criterion_1.relators 0
COUNT criterion_2.triv_morphisms 1
COUNT criterion_2.triv_cocones 1
COUNT criterion_2.c2_morphisms 4
COUNT criterion_2.c2_cocones 4
COUNT criterion_2.c3_morphisms 9
COUNT criterion_2.c3_cocones 9
COUNT criterion_2.s3_morphisms 36
COUNT criterion_2.s3_cocones 36
COUNT criterion_3.a3s3_checks 222
COUNT criterion_3.aut_xmod_s3_checks 588
COUNT criterion_3.aut_xmod_c3_checks 66
COUNT criterion_3.trivial_module_checks 8
COUNT criterion_3.perturbations_caught 50
COUNT criterion_4.squares 648
COUNT criterion_4.quadruples 136048896
COUNT criterion_4.violations 0
COUNT criterion_4.corrupted_counterexample 1
COUNT criterion_5.composites 2000
COUNT criterion_5.violations 0
COUNT criterion_6.grids 500
COUNT criterion_6.disagreements 0
COUNT criterion_7.checks 36
COUNT criterion_7.violations 0
COUNT criterion_8.c2_cubes 128
COUNT criterion_8.c2_composites 6144
COUNT criterion_8.s3_samples 1000
COUNT criterion_8.oracle_agreements 3128
COUNT criterion_9.chains 200
COUNT criterion_9.failures 0
COUNT criterion_9.negative_fixture 1
COUNT criterion_10.a3s3_iso 1
COUNT criterion_10.aut_xmod_s3_iso 1
COUNT criterion_10.trivial_module_iso 1
COUNT criterion_11.size1_pairs 1
COUNT criterion_11.size1_interchange 1
COUNT criterion_11.size2_pairs 16
COUNT criterion_11.size2_interchange 4
COUNT criterion_11.size3_pairs 1089
COUNT criterion_11.size3_interchange 27
COUNT criterion_11.checks 96
COUNT criterion_11.violations 0
COUNT criterion_12.rank 1
COUNT criterion_12.action_checks 343
DATA CRITERION 1 PASS circle pushout reduces to one free generator
DATA CRITERION 2 PASS universal property counts agree on the battery
DATA CRITERION 3 PASS crossed-module axioms and perturbation fuzzing
DATA CRITERION 4 PASS exhaustive interchange plus corrupted control
DATA CRITERION 5 PASS composites satisfy the boundary law
DATA CRITERION 6 PASS grid folds are order-independent
DATA CRITERION 7 PASS connections thin; transport layout unique
DATA CRITERION 8 PASS commutative cubes compose; scalar oracle agrees
DATA CRITERION 9 PASS row collapse forces top = bottom
DATA CRITERION 10 PASS gamma after lambda recovers the module
DATA CRITERION 11 PASS interchange collapses monoid pairs
DATA CRITERION 12 PASS induced free module of rank one
RESULT ok
"""

# Workspaces a golden names that are not bundled, written out before it runs.
WORKSPACES = {"auts3.vk": "group s3 = symmetric(3)\nxmod auts3 = autxmod(s3)\n"}

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
    *((["--seed", seed, "suite", "--criteria", "8"], 0, """\
FORMAT 1
COMMAND suite
COUNT criterion_8.c2_cubes 128
COUNT criterion_8.c2_composites 6144
COUNT criterion_8.s3_samples 1000
COUNT criterion_8.oracle_agreements 3128
DATA CRITERION 8 PASS commutative cubes compose; scalar oracle agrees
RESULT ok
""") for seed in ("0", "1", "5")),
    (["--seed", "1", "xmod", "lambda", "auts3.vk"], 0, """\
FORMAT 1
COMMAND xmod-lambda
COUNT squares 1296
COUNT thin 216
COUNT checks 121518884
COUNT violations 0
RESULT ok
"""),
    (["suite"], 0, GOLDEN_SUITE),
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
def test_golden_validated_machine_outputs(capsys, tmp_path, args, code, golden):
    for name, text in WORKSPACES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in WORKSPACES else data(a) if a.endswith(".vk") else a
            for a in args]
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


# -- the verdict sites of every criterion, each reached by a planted fault --

def failed_criterion(capsys, key):
    """The witnesses of a ``vk suite --criteria <key>`` run that must fail."""
    code, out = run_cli(["--format", "machine", "suite", "--criteria", key], capsys)
    lines = out.splitlines()
    assert code == 1 and lines[-1] == "RESULT fail"
    blurb = next(b for k, _, b in CRITERIA if k == key)
    assert f"DATA CRITERION {key} FAIL {blurb}" in lines
    return [line for line in lines if line.startswith("WITNESS")]


def test_criterion_3_fails_where_perturbing_changes_nothing(capsys, monkeypatch):
    monkeypatch.setattr("gpdkit.crossed.perturb_action_entry", lambda x, rng: x)
    assert failed_criterion(capsys, "3") == ["WITNESS criterion 3: only 0/50 action perturbations detected"]


def test_criterion_3_fails_on_a_module_with_a_flipped_action_entry(capsys, monkeypatch):
    # the perturbations reuse this module's own proof of its base and fiber;
    # two of them (seeds 0 and 41) flip the broken entry back
    monkeypatch.setattr("gpdkit.suite.a3_s3_xmod",
                        lambda: replace(perturb_action_entry(a3_s3_xmod(), random.Random(0)), name="a3s3"))
    assert failed_criterion(capsys, "3") == [
        "WITNESS criterion 3: a3s3: action-composition: (e^(12))^(12) != e^((12)(12))",
        "WITNESS criterion 3: only 48/50 action perturbations detected"]


def test_criterion_3_fails_on_a_fiber_that_is_not_a_group(capsys, monkeypatch):
    # every perturbation shares the broken fiber, so each is caught by it
    def broken():
        x = a3_s3_xmod()
        x.fibers["*"].table[("(123)", "(123)")] = "(123)"
        return x

    monkeypatch.setattr("gpdkit.suite.a3_s3_xmod", broken)
    assert failed_criterion(capsys, "3") == [
        "WITNESS criterion 3: a3s3: fiber-associativity: at '*': ((123)*(123))*(132) != (123)*((123)*(132))"]
    assert criterion_3_crossed_modules().counts["perturbations_caught"] == 50


def test_criterion_10_fails_where_no_isomorphism_is_found(capsys, monkeypatch):
    monkeypatch.setattr("gpdkit.dgt.find_xmod_isomorphism", lambda xm, back: None)
    assert failed_criterion(capsys, "10") == [
        f"WITNESS criterion 10: no isomorphism {x} -> gamma(lambda({x}))"
        for x in ("a3s3", "aut_xmod_s3", "trivial_module")]


def test_criterion_10_fails_where_gamma_flips_an_action_entry(capsys, monkeypatch):
    # the trivial module has no entry to flip, and still comes back whole
    def flipped(model):
        back = gamma(model)
        try:
            return perturb_action_entry(back, random.Random(0))
        except PreconditionFailed:
            return back

    monkeypatch.setattr("gpdkit.dgt.gamma", flipped)
    assert failed_criterion(capsys, "10") == [
        "WITNESS criterion 10: gamma(lambda(a3s3)) is not a crossed module: "
        "action-composition: (q2^(12))^(12) != q2^((12)(12))",
        "WITNESS criterion 10: gamma(lambda(aut_xmod_s3)) is not a crossed module: "
        "action-identity: q4^id != q4 at '*'"]


def test_every_seed_gives_the_same_suite_output(capsys):
    # every count and verdict is meant not to depend on the seeded draws
    runs = [run_cli(["--format", "machine", "--seed", str(n), "suite"], capsys) for n in range(4)]
    assert runs[0][0] == 0 and runs[0][1].endswith("RESULT ok\n")
    assert runs[1:] == [runs[0]] * 3


def test_every_seed_gives_the_same_lambda_output(capsys, tmp_path):
    # each seed draws other sampled arrangements, but no count depends on them
    ws = tmp_path / "auts3.vk"
    ws.write_text(WORKSPACES["auts3.vk"])
    runs = [run_cli(["--format", "machine", "--seed", str(n), "xmod", "lambda", str(ws)], capsys)
            for n in range(4)]
    assert runs[0][0] == 0 and runs[0][1].endswith("RESULT ok\n")
    assert "COUNT checks 121518884\n" in runs[0][1]
    assert runs[1:] == [runs[0]] * 3


def test_criterion_4_fails_on_a_model_of_another_size(capsys, monkeypatch, aut_c3_model):
    monkeypatch.setattr("gpdkit.suite.a3_s3_model", lambda: aut_c3_model)
    assert failed_criterion(capsys, "4") == ["WITNESS criterion 4: expected 648 squares, got 24"]


def test_criterion_4_fails_where_the_sweep_misses_the_edge_count(capsys, monkeypatch):
    monkeypatch.setattr("gpdkit.dgt.count_compatible_quadruples", lambda model: 136_048_897)
    assert failed_criterion(capsys, "4") == [
        "WITNESS criterion 4: sweep covered 136048896 quadruples, edge count says 136048897"]


def test_criterion_4_fails_on_a_swapped_filler(capsys, monkeypatch, aut_c3_model):
    # A3 in S3 has one filler per boundary, C3 -> Aut(C3) three: the real
    # exhaustive sweep, with no pasting re-check, catches the swap
    rng = random.Random(7)
    mutant = with_swapped_filler(aut_c3_model, "H", *rng.choice(pasted_pairs(aut_c3_model, "H")),
                                 rng)
    _, bad, first = loop_interchange(mutant, mutant.tables().H, mutant.tables().V)
    assert bad > 0
    monkeypatch.setattr("gpdkit.suite.a3_s3_model", lambda: mutant)
    assert failed_criterion(capsys, "4") == [
        "WITNESS criterion 4: expected 648 squares, got 24",
        f"WITNESS criterion 4: {bad} interchange violations, first {first}"]


def test_criterion_4_fails_where_the_corrupted_control_finds_nothing(capsys, monkeypatch, sq_c2):
    # on C2 the action is trivial, so the unconjugated pasting is the real
    # one; its 8 squares keep the object-level scan far below its limit
    monkeypatch.setattr("gpdkit.suite.a3_s3_model", lambda: sq_c2)
    assert failed_criterion(capsys, "4") == [
        "WITNESS criterion 4: expected 648 squares, got 8",
        "WITNESS criterion 4: corrupted composition produced no counterexample"]


def test_criterion_5_fails_on_the_unconjugated_pasting(capsys, monkeypatch):
    monkeypatch.setattr("gpdkit.squares.comp_h", comp_h_unconjugated)
    assert failed_criterion(capsys, "5") == [
        "WITNESS criterion 5: 331 composites broke the boundary law"]


def test_criterion_6_fails_on_a_swapped_filler(capsys, monkeypatch, aut_c3_model):
    # the mutant of test_criterion_6_fold_catches_doctored_tables: rows
    # first pastes the swapped pair, the first two cells of grid 0
    drawn = aut_c3_model.draw_grids(random.Random(0), 500, 3, 3)
    mutant = with_swapped_filler(aut_c3_model, "H", drawn[0, 0, 0], drawn[0, 0, 1],
                                 random.Random(3))
    monkeypatch.setattr("gpdkit.suite.a3_s3_model", lambda: mutant)
    assert failed_criterion(capsys, "6") == [
        "WITNESS criterion 6: 29 grids had order-dependent folds"]


@pytest.mark.parametrize("fault, arrows", [
    # the left edge a as well: thin, with boundary a^-1, so recheck_boundary fails
    (lambda s: s._replace(left=s.right), ("(12)", "(123)", "(13)", "(132)", "(23)")),
    # a non-identity filler over the connection's edges: not thin
    (lambda s: s._replace(elt="(123)"), ("(12)", "(123)", "(13)", "(132)", "(23)", "e")),
])
def test_criterion_7_fails_on_a_doctored_connection(capsys, monkeypatch, fault, arrows):
    # only the object-level conn+ is doctored; the model's own connections,
    # which the transport search reads, stay whole
    conn_plus = squares.conn_plus
    monkeypatch.setattr("gpdkit.squares.conn_plus", lambda xm, a: fault(conn_plus(xm, a)))
    assert failed_criterion(capsys, "7") == [
        f"WITNESS criterion 7: connection at {a} is not a thin commutative square" for a in arrows]


def test_criterion_11_fails_where_the_interchange_filter_keeps_every_pair(capsys, monkeypatch):
    # all 1 + 16 + 1089 ordered pairs of monoids reach the three conclusions
    monkeypatch.setattr("gpdkit.eckmann._interchange_pairs",
                        lambda n, monoids: itertools.product(monoids, repeat=2))
    witnesses = failed_criterion(capsys, "11")
    assert witnesses[:2] == [
        "WITNESS criterion 11: operations: size 2: structures differ: ((0, 1), (1, 0)) vs ((0, 1), (1, 1))",
        "WITNESS criterion 11: identity: size 2: e1=0 != e2=1 for ((0, 1), (1, 0))/((0, 0), (0, 1))"]
    assert "WITNESS criterion 11: commutativity: size 3: ((0, 1, 2), (1, 1, 1), (2, 2, 2)) is not commutative" \
        in witnesses
    kinds = Counter(re.sub(r": size (\d).*", r": size \1", w) for w in witnesses)
    assert kinds == {
        "WITNESS criterion 11: identity: size 2": 8,
        "WITNESS criterion 11: operations: size 2": 12,
        "WITNESS criterion 11: identity: size 3": 726,
        "WITNESS criterion 11: operations: size 3": 1056,
        "WITNESS criterion 11: commutativity: size 3": 198}


def test_criterion_8_fails_where_a_fold_is_the_base(capsys, monkeypatch):
    # every cube whose lid is not its base fails, at each of the three sites
    monkeypatch.setattr(CubeKernel, "fold", lambda self, cubes: cubes[:, 1])
    witnesses = failed_criterion(capsys, "8")
    assert witnesses[0] == (
        "WITNESS criterion 8: cube in the 2-element model fails: d1- (e; e,t,t,e), "
        "d1+ (e; e,e,e,e), d2- (e; e,e,e,e), d2+ (e; t,t,e,e), d3- (e; e,e,e,e), "
        "d3+ (e; t,t,e,e)")
    kinds = Counter(re.sub(r"fails: .*", "fails: ...", w) for w in witnesses)
    assert kinds == {
        "WITNESS criterion 8: cube in the 2-element model fails: ...": 112,
        **{f"WITNESS criterion 8: direction-{d} composite is not commutative": 1792
           for d in (1, 2, 3)},
        "WITNESS criterion 8: sampled direction-1 composite fails": 327,
        "WITNESS criterion 8: sampled direction-2 composite fails": 317,
        "WITNESS criterion 8: sampled direction-3 composite fails": 356}


def test_criterion_9_fails_where_a_row_collapse_reports_unequal(capsys, monkeypatch):
    collapse = grids.collapse_commutative_row
    monkeypatch.setattr("gpdkit.grids.collapse_commutative_row",
                        lambda grid: (*collapse(grid)[:2], False))
    assert failed_criterion(capsys, "9") == [
        "WITNESS criterion 9: 200 chains broke the collapse lemma"]


def test_criterion_9_fails_where_a_non_identity_outer_edge_is_accepted(capsys, monkeypatch):
    collapse = grids.collapse_commutative_row

    def lenient(grid):
        try:
            return collapse(grid)
        except PreconditionFailed:
            return None, None, True

    monkeypatch.setattr("gpdkit.grids.collapse_commutative_row", lenient)
    assert failed_criterion(capsys, "9") == [
        "WITNESS criterion 9: non-identity outer edge was accepted"]


def circle_span_with_a_second_arc():
    """``suite.circle_span`` with one more generator, c: 0 -> 1, in arc1."""
    span = circle_span()
    arc1 = span.left.codomain
    arc1 = GroupoidPresentation(arc1.name, arc1.objects, arc1.generators + (ArrowGen("c", "0", "1"),))
    return Span(span.apex, GroupoidMorphism("arc1_leg", span.apex, arc1, {"0": "0", "1": "1"}, {}),
                span.right)


def test_criterion_1_fails_on_a_circle_with_a_second_arc(capsys, monkeypatch):
    monkeypatch.setattr("gpdkit.suite.circle_span", circle_span_with_a_second_arc)
    assert failed_criterion(capsys, "1") == [
        "WITNESS criterion 1: expected one free generator, got ⟨x_b, x_c | ⟩"]


def test_criterion_2_fails_on_a_circle_with_a_second_arc(capsys, monkeypatch):
    # the pushout of the planted span is still universal, with 6^3 morphisms
    monkeypatch.setattr("gpdkit.suite.circle_span", circle_span_with_a_second_arc)
    assert failed_criterion(capsys, "2") == [
        "WITNESS criterion 2: expected 36 = 36 against the six-element symmetric group"]


def test_criterion_2_fails_on_a_candidate_with_an_extra_generator(capsys, monkeypatch):
    # the candidate gains c: 0 -> 1 that no cocone constrains
    def candidate(span, name=None):
        po = vkt_pushout(span, name=name)
        p = po.presentation
        out = GroupoidPresentation(p.name, p.objects, p.generators + (ArrowGen("c", "0", "1"),))
        onto = lambda m: GroupoidMorphism(m.name, m.domain, out, m.object_map, m.gen_map)  # noqa: E731
        return Pushout(out, onto(po.left_inclusion), onto(po.right_inclusion))

    monkeypatch.setattr("gpdkit.vkt.pushout", candidate)
    assert failed_criterion(capsys, "2") == [
        "WITNESS criterion 2: c2: universal property FAIL: 8 morphisms vs 4 compatible cocones",
        "WITNESS criterion 2: c3: universal property FAIL: 27 morphisms vs 9 compatible cocones",
        "WITNESS criterion 2: s3: universal property FAIL: 216 morphisms vs 36 compatible cocones",
        "WITNESS criterion 2: expected 36 = 36 against the six-element symmetric group"]


def test_criterion_12_fails_where_paths_stop_cancelling(capsys, monkeypatch):
    monkeypatch.setattr("gpdkit.freemodules.reduce_letters", tuple)
    # each of the seven elements fails 18 of its 49 word pairs, then t.t^-1
    witnesses = failed_criterion(capsys, "12")
    assert len(witnesses) == 7 * 19
    assert witnesses[0] == "WITNESS criterion 12: action not functorial on x with t, t^-1"
    assert witnesses[18::19] == [
        f"WITNESS criterion 12: action by t not undone by t^-1 on {e}"
        for e in ("x", "x·t", "x·t^-1", "x·t.t", "x·t^-1.t^-1", "x·t.t.t", "x·t^-1.t^-1.t^-1")]


def test_criterion_12_fails_on_an_induced_module_of_rank_two(capsys, monkeypatch):
    def induce(m, f, name=None):
        ind = induce_free_module(m, f, name)
        return FreeModule(ind.name, ind.base, ind.generators + (("y", ind.generators[0][1]),))

    monkeypatch.setattr("gpdkit.freemodules.induce_free_module", induce)
    assert failed_criterion(capsys, "12") == ["WITNESS criterion 12: induced module has rank 2"]


def test_criterion_12_fails_where_subtraction_adds(capsys, monkeypatch):
    monkeypatch.setattr(ModuleElement, "__sub__", ModuleElement.__add__)
    assert failed_criterion(capsys, "12") == [
        "WITNESS criterion 12: coefficient arithmetic broke on (2t-1)x + (1-t)x"]


def test_xmod_gamma_fails_where_no_isomorphism_is_found(capsys, monkeypatch):
    monkeypatch.setattr("gpdkit.dgt.find_xmod_isomorphism", lambda xm, back: None)
    code, out = run_cli(["--format", "machine", "xmod", "gamma", data("a3s3.vk")], capsys)
    assert code == 1
    assert out.splitlines() == [
        "FORMAT 1", "COMMAND xmod-gamma", "COUNT checks 222", "COUNT violations 0",
        "COUNT roundtrip_iso 0", "WITNESS no isomorphism with the original module", "RESULT fail"]


def test_a_literal_group_without_an_inverse_fails_at_its_header(capsys, tmp_path):
    # a closed table with an identity, in which a has no inverse: checked
    # alone or read by autxmod, the error names the group block's header
    table = "group g\nelements: e a\nmul e e = e\nmul e a = a\nmul a e = a\nmul a a = a\n"
    for content in (table, "# one group\n" + table + "xmod x = autxmod(g)\n"):
        path = tmp_path / "g.vk"
        path.write_text(content, encoding="utf-8")
        line = content.splitlines().index("group g") + 1
        code, out = run_cli(["--format", "machine", "check", str(path)], capsys)
        assert code == 1
        assert out.splitlines()[2:] == [f"WITNESS {path}:{line}: group: g has no inverse of a",
                                        "RESULT fail"]


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

    monkeypatch.setattr("gpdkit.dgt.lambda_functor", refuse)
    code, out = run_cli(["--format", "machine", "xmod", "lambda", str(ws)], capsys)
    assert code == 1
    assert (
        "WITNESS squares(v): composition tables for 55296 squares need "
        "24461180928 bytes, over the limit of 268435456"
    ) in out.splitlines()
    assert out.rstrip().endswith("RESULT fail")


# -- the parser main shares across calls ----------------------------------------

def fresh_process(args) -> str:
    """What ``vk`` prints for ``args`` in a new interpreter, which builds its own parser."""
    proc = subprocess.run([sys.executable, "-m", "gpdkit.cli", *args],
                          capture_output=True, text=True, check=False)
    return proc.stdout


def test_importing_the_cli_builds_no_parser_and_a_process_builds_one():
    script = (
        "import gpdkit.cli as cli\n"
        "assert cli._parser.cache_info().currsize == 0\n"
        "cli.main(['eh-scan', '--max-size', '1'])\n"
        "cli.main(['eh-scan', '--max-size', '2'])\n"
        "info = cli._parser.cache_info()\n"
        "assert (info.misses, info.hits) == (1, 1), info\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_a_second_main_call_constructs_no_parser(capsys, monkeypatch):
    run_cli(["eh-scan", "--max-size", "1"], capsys)
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    code, out = run_cli(["eh-scan", "--max-size", "2"], capsys)
    assert code == 0 and "result: ok" in out
    assert built == []


def test_a_battery_selection_does_not_leak_into_the_next_call(capsys):
    args = ["--format", "machine", "count-morphisms", data("wedge.vk")]
    code, out = run_cli([*args, "--test-groupoid", "s3"], capsys)
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("COUNT")] == ["COUNT s3 36"]
    code, out = run_cli(args, capsys)
    assert code == 0
    assert out == fresh_process(args)


@pytest.mark.parametrize("first", [
    ["--format", "text", "--seed", "5", "suite"],
    ["--format", "machine", "--seed", "5", "suite"],
    ["suite", "--format", "machine", "--seed", "5"],
])
def test_format_and_seed_fall_back_to_their_defaults_on_every_call(capsys, monkeypatch, first):
    seeds = []

    def suite(seed, only):
        seeds.append(seed)
        return Report("suite")

    monkeypatch.setattr("gpdkit.suite.run_suite", suite)
    run_cli(first, capsys)
    code, out = run_cli(["suite"], capsys)
    assert code == 0
    assert seeds == [5, 0]
    assert out.startswith("command: suite\n")  # the text format


@pytest.mark.parametrize("bad", [
    ["check", "--no-such-option"],
    ["square", "frobnicate", data("squares.vk")],
    ["vertex-group", data("circle.vk")],  # --base is required
    ["eh-scan", "--max-size", "three"],
    ["no-such-command"],
])
def test_an_argparse_error_leaves_the_next_call_intact(capsys, bad):
    args = ["--format", "machine", "check", data("a3s3.vk")]
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    code, out = run_cli(args, capsys)
    assert code == 0
    assert out == fresh_process(args)


# -- what a command loads ------------------------------------------------------------

LOADS = """
import contextlib, io, json, sys
import gpdkit.cli as cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "gpdkit" or m == "numpy")

print(json.dumps(loaded()))
for argv, code in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == code, argv
    print(json.dumps(loaded()))
"""


def loads_after(*argvs, exits=None) -> list[set[str]]:
    """The gpdkit modules, and numpy if loaded, that a fresh process holds
    after ``import gpdkit.cli`` and then after each vk command of ``argvs``,
    each of which must exit with its code in ``exits`` (0 by default)."""
    plan = list(zip(argvs, exits or [0] * len(argvs)))
    proc = subprocess.run([sys.executable, "-c", LOADS, json.dumps(plan)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return [set(json.loads(line)) for line in proc.stdout.splitlines()]


def test_a_command_loads_only_the_layers_it_runs():
    imported, *after = loads_after(
        ["pushout", data("circle.vk")],
        ["count-morphisms", data("wedge.vk")],
        ["eh-scan", "--max-size", "2"],
    )
    assert imported == {"gpdkit", "gpdkit.cli", "gpdkit.errors", "gpdkit.report"}
    assert not {"numpy", "gpdkit.dgt"} & after[-1], sorted(after[-1])


def test_xmod_lambda_loads_only_the_tables_and_what_they_read():
    _, after = loads_after(["xmod", "lambda", data("a3s3.vk")])
    assert "gpdkit.dgt" in after
    unused = {f"gpdkit.{m}" for m in ("grids", "freemodules", "morphisms", "presentations",
                                      "vkt", "cubes", "eckmann", "suite")}
    assert not unused & after, sorted(unused & after)


def test_validating_tables_loads_neither_numpy_nor_the_tables():
    _, *after = loads_after(
        ["xmod", "validate", data("a3s3.vk")],
        ["check", data("a3s3.vk")],
        ["check", data("bad_groupoid.vk")],
        exits=[0, 0, 1],
    )
    assert "gpdkit.crossed" in after[0]
    assert not {"numpy", "gpdkit.dgt"} & after[-1], sorted(after[-1])


def test_the_eckmann_hilton_criterion_loads_neither_numpy_nor_the_tables():
    _, after = loads_after(["suite", "--criteria", "11"])
    assert not {"numpy", "gpdkit.dgt"} & after, sorted(after)


def test_the_row_collapse_criterion_loads_neither_numpy_nor_the_tables():
    _, after = loads_after(["suite", "--criteria", "9"])
    assert "gpdkit.grids" in after
    assert not {"numpy", "gpdkit.dgt"} & after, sorted(after)


SUITE_LOADS = """
import sys
import gpdkit.suite as suite

def gpdkit_modules():
    return {m for m in sys.modules if m.split(".")[0] == "gpdkit"}

imported = gpdkit_modules()
assert imported == {"gpdkit", "gpdkit.errors", "gpdkit.report", "gpdkit.suite"}, sorted(imported)
assert "numpy" not in sys.modules
assert suite.criterion_4_interchange().ok
grown = gpdkit_modules() - imported
assert grown == {"gpdkit.crossed", "gpdkit.dgt", "gpdkit.finite", "gpdkit.squares"}, sorted(grown)
"""


def test_a_criterion_loads_only_the_layers_it_runs():
    proc = subprocess.run([sys.executable, "-c", SUITE_LOADS], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_the_suite_never_imports_numpy_random():
    # the battery draws with random.Random; the first import of numpy.random
    # alone raises a process's peak RSS by about 6 MB
    script = ("import sys\nfrom gpdkit.cli import main\n"
              "code = main(['--format', 'machine', 'suite'])\n"
              "print('EXIT', code, 'numpy' in sys.modules, 'numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["RESULT ok", "EXIT 0 True False"]


def test_the_batch_draws_and_the_sampled_interchange_never_import_numpy_random(tmp_path):
    # criteria 5, 6 and 8 and the sampled interchange of vk xmod lambda draw
    # through dgt.draw_below, criterion 9 through random.Random alone
    ws = tmp_path / "auts3.vk"
    ws.write_text("group s3 = symmetric(3)\nxmod auts3 = autxmod(s3)\n")
    script = ("import sys\nfrom gpdkit.cli import main\n"
              "codes = [main(['--format', 'machine', 'suite', '--criteria', '5,6,8,9']),\n"
              "         main(['--format', 'machine', 'xmod', 'lambda', sys.argv[1]])]\n"
              "print('EXIT', codes, 'numpy' in sys.modules, 'numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(ws)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "EXIT [0, 0] True False"


# -- fuzzing the command line -------------------------------------------------------

DATA = Path(data(""))
BUNDLED = sorted(str(p) for p in DATA.glob("*.vk"))  # the bad ones too
PATHS = [*BUNDLED, str(DATA / "no-such-workspace.vk")]
# every word in the bundled workspaces: names of objects, arrows, groups, ...
NAMES = sorted({w for p in BUNDLED
                for w in re.findall(r"\(\w+\)|\w+", re.sub("#.*", "", Path(p).read_text()))})


def _commands() -> dict:
    """Each subcommand but ``suite``: its positional choices, if any, and its
    options other than --help, --format and --seed, read off the parser."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    out = {}
    for name, parser in sub.choices.items():
        if name == "suite":
            continue
        actions = [a for a in parser._actions if a.dest not in ("help", "format", "seed")]
        choices = [a.choices for a in actions if not a.option_strings and a.choices]
        out[name] = (choices[0] if choices else None, [a for a in actions if a.option_strings])
    return out


COMMANDS = _commands()


def _value(action):
    if action.nargs == 0:
        return st.just([])
    if action.type is int:
        # --max-size 4 is a legitimate scan of a few tenths of a second; larger sizes are refused
        values = st.integers(-1, 3).map(str)
    else:
        values = st.sampled_from([*(action.choices or ()), *NAMES])
    return values.map(lambda v: [v])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    action, options = COMMANDS[command]
    argv = ["--format", "machine", command]
    if action:
        argv.append(draw(st.sampled_from([*action, "nope"])))
    argv += draw(st.lists(st.sampled_from(PATHS), max_size=2))
    for option in draw(st.lists(st.sampled_from(options), unique=True)) if options else ():
        argv += [draw(st.sampled_from(option.option_strings)), *draw(_value(option))]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(0, 9)))]
    return argv


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(argvs())
def test_fuzzed_command_lines_end_in_a_verdict_or_a_usage_error(argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        return
    last = out.getvalue().splitlines()[-1]
    assert (code, last) in ((0, "RESULT ok"), (1, "RESULT fail")), argv


# -- fuzzing workspace text through the command line ---------------------------------

# every command that reads a workspace, with each of its actions
EDITED_COMMANDS = [
    [name, *([action] if action else [])]
    for name, (actions, _) in sorted(COMMANDS.items()) if name != "eh-scan"
    for action in (actions or [None])
]


@st.composite
def edited_runs(draw):
    """A workspace, bundled or edited, one command that reads it, and options
    valued from the names it declares, each value one that argparse accepts."""
    content = draw(st.one_of(st.sampled_from(sorted(_BUNDLED)).map(_BUNDLED.get), edited_workspace()))
    command = draw(st.sampled_from(EDITED_COMMANDS))
    names = re.findall(r"^(?:groupoid|finite|group|morphism|span|xmod|square|grid|cube|freemodule)"
                       r" +(\w+)", content, re.M) or ["none"]
    argv = ["--base", "0"] if command[0] == "vertex-group" else []
    options = COMMANDS[command[0]][1]
    for option in draw(st.lists(st.sampled_from(options), unique=True)) if options else ():
        value = [] if option.nargs == 0 else [draw(st.sampled_from(option.choices or names))]
        argv += [option.option_strings[0], *value]
    return content, command, argv


@pytest.fixture(scope="module")
def edited_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "edited.vk"


# one run of each command that gets past its lookups, so that each handler's
# imports run whatever the draws reach
@example(run=(_BUNDLED["a3s3.vk"], ["check"], []))
@example(run=(_BUNDLED["circle.vk"], ["check-universal"], ["--test-groupoid", "c2"]))
@example(run=(_BUNDLED["wedge.vk"], ["count-morphisms"], []))
@example(run=(_BUNDLED["squares.vk"], ["cube", "check"], ["--name", "box"]))
@example(run=(_BUNDLED["squares.vk"], ["grid", "compose"], ["--name", "demo"]))
@example(run=(_BUNDLED["disk_module.vk"], ["induce"], ["--module", "disk", "--morphism", "wrap"]))
@example(run=(_BUNDLED["squares.vk"], ["print"], []))
@example(run=(_BUNDLED["circle.vk"], ["pushout"], []))
@example(run=(_BUNDLED["squares.vk"], ["square", "compose"], ["--left", "sq_left", "--right", "sq_right"]))
@example(run=(_BUNDLED["squares.vk"], ["square", "invert"], ["--name", "sq_left"]))
@example(run=(_BUNDLED["circle.vk"], ["vertex-group"], ["--base", "0"]))
@example(run=(_BUNDLED["a3s3.vk"], ["xmod", "validate"], []))
@example(run=(_BUNDLED["a3s3.vk"], ["xmod", "lambda"], []))
@example(run=(_BUNDLED["a3s3.vk"], ["xmod", "gamma"], []))
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(run=edited_runs())
def test_edited_workspaces_end_in_a_verdict(edited_path, run):
    content, command, options = run
    edited_path.write_text(content)
    argv = ["--format", "machine", *command, str(edited_path), *options]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    last = out.getvalue().splitlines()[-1]
    assert (code, last) in ((0, "RESULT ok"), (1, "RESULT fail")), argv
