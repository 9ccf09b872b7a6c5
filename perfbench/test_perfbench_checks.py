"""The benchmark's checkers accept a right output and reject doctored ones.

These tests need no gpdkit: good outputs are written out from the oracle's
own figures, then doctored one field at a time.
"""

from pathlib import Path

import pytest

import checks
import oracle as o

DATA = Path(__file__).resolve().parent.parent / "src" / "gpdkit" / "data"

# The corrupted control's arrangement on A3 in S3 (x, y, z, w).
QUAD = [["(123)", "(12)", "(12)", "(12)", "(13)"], ["(123)", "(12)", "(12)", "(23)", "(12)"],
        ["(123)", "(12)", "(12)", "(12)", "(13)"], ["(123)", "(23)", "(123)", "(132)", "(12)"]]


def machine(command, counts=(), data=(), witnesses=(), result="ok"):
    lines = ["FORMAT 1", f"COMMAND {command}"]
    lines += [f"COUNT {k} {v}" for k, v in counts]
    lines += [f"DATA {d}" for d in data] + [f"WITNESS {w}" for w in witnesses]
    return "\n".join(lines + [f"RESULT {result}"]) + "\n"


def criterion4_doc(**counts):
    base = {"squares": 648, "quadruples": 136048896, "violations": 0,
            "corrupted_counterexample": 1}
    return {"status": "ok", "counts": base | counts, "witnesses": [],
            "counterexample": [list(s) for s in QUAD]}


def test_oracle_closed_forms_match_enumeration():
    assert len(o.a3s3_squares()) == o.square_count(6, 3) == 648
    assert sum(o.boundary_ok(s) and s[0] == "e" for s in o.a3s3_squares()) == o.thin_count(6)
    assert o.automorphism_count() == 6
    assert [o.monoid_counts(n) for n in (1, 2, 3)] == [(1, 1), (4, 4), (33, 27)]


def test_parse_machine_rejects_bad_framing():
    with pytest.raises(ValueError):
        checks.parse_machine("COMMAND check\nRESULT ok\n")
    with pytest.raises(ValueError):
        checks.parse_machine("FORMAT 1\nCOMMAND check\n")


def test_criterion4_checker():
    assert checks.check_criterion4(criterion4_doc()) == []
    assert checks.check_criterion4(criterion4_doc(quadruples=136048895))
    assert checks.check_criterion4(criterion4_doc(violations=3))
    assert checks.check_criterion4(criterion4_doc(squares=647))
    assert checks.check_criterion4(dict(criterion4_doc(), status="fail"))
    assert checks.check_criterion4(dict(criterion4_doc(), counterexample=None))


def test_counterexample_must_really_break_interchange():
    assert checks.check_counterexample(QUAD) == []
    # an arrangement of four identities satisfies both compositions
    unit = [list(o.eps_h("e"))] * 4
    assert any("agree" in p for p in checks.check_counterexample(unit))
    swapped = [QUAD[1], QUAD[0], QUAD[2], QUAD[3]]
    assert checks.check_counterexample(swapped)
    broken = [["(132)", *QUAD[0][1:]], *QUAD[1:]]
    assert any("boundary" in p for p in checks.check_counterexample(broken))


def test_lambda_checker():
    good = [("squares", 1296), ("thin", 216), ("checks", 121518884), ("violations", 0)]
    assert checks.check_lambda(checks.parse_machine(machine("xmod-lambda", good))) == []
    flipped = checks.parse_machine(machine("xmod-lambda", good, result="fail"))
    assert checks.check_lambda(flipped)
    for k, v in (("squares", 1295), ("thin", 215), ("violations", 1), ("checks", 0)):
        doctored = [(k2, v if k2 == k else v2) for k2, v2 in good]
        assert checks.check_lambda(checks.parse_machine(machine("xmod-lambda", doctored)))
    passes = [checks.parse_machine(machine("xmod-lambda", [("checks", c)])) for c in (5, 5, 6)]
    assert checks.check_same_checks(passes[:2]) == []
    assert checks.check_same_checks(passes)


@pytest.fixture
def plan(tmp_path):
    seeded = tmp_path / "session.vk"
    seeded.write_text(checks.seeded_workspace(7))
    ops = checks.session_plan(DATA, seeded, tmp_path / "missing.vk", 7)
    return {op.label: op for op in ops}


def judge(op, text, rc=0, error=None):
    return checks.judge(op, {"rc": rc, "out": text, "error": error})


def test_plan_covers_every_command(plan):
    assert len(plan) == 47
    assert set(checks.KNOWN_FAILING) <= set(plan)


def test_eh_scan_checker(plan):
    counts = []
    for n, (m, c) in ((1, (1, 1)), (2, (4, 4)), (3, (33, 27))):
        counts += [(f"size{n}_monoids", m), (f"size{n}_interchange_pairs", c),
                   (f"size{n}_filtered_out", m * m - c)]
    counts += [("checks", 96), ("violations", 0)]
    op = plan["eh-scan"]
    assert judge(op, machine("eh-scan", counts)) == ("ok", [])
    doctored = [(k, 32 if k == "size3_monoids" else v) for k, v in counts]
    assert judge(op, machine("eh-scan", doctored))[0] == "incorrect"
    assert judge(op, machine("eh-scan", counts, result="fail"))[0] == "incorrect"


def test_square_checkers(plan, tmp_path):
    sq = o.vk_squares((tmp_path / "session.vk").read_text())
    good = o.comp_h(sq["x"], sq["y"])
    op = plan["square-compose-h"]
    text = machine("square-compose", [("boundary_ok", 1)], [o.square_text(good)])
    assert judge(op, text) == ("ok", [])
    # the same edges with another element break the boundary law
    other = next(e for e in o.A3 if e != good[0])
    wrong = machine("square-compose", [("boundary_ok", 1)], [o.square_text((other, *good[1:]))])
    assert judge(op, wrong)[0] == "incorrect"
    # a valid square that is not the composite
    stranger = next(s for s in o.a3s3_squares() if s != good)
    assert judge(op, machine("square-compose", [("boundary_ok", 1)], [o.square_text(stranger)]))[0] == "incorrect"
    inverse = plan["square-invert-h"]
    x = sq["x"]
    inv = (o.inv(o.conj(x[0], o.inv(x[3]))), o.inv(x[1]), x[4], o.inv(x[3]), x[2])
    assert o.comp_h(x, inv) == o.eps_h(x[4])
    assert judge(inverse, machine("square-invert", [("boundary_ok", 1)], [o.square_text(inv)])) == ("ok", [])
    assert judge(inverse, machine("square-invert", [("boundary_ok", 1)], [o.square_text(x)]))[0] == "incorrect"


def test_count_checkers(plan):
    good = [("triv", 1), ("c2", 4), ("c3", 9), ("s3", 36)]
    op = plan["count-morphisms-circle.vk"]
    assert judge(op, machine("count-morphisms", good)) == ("ok", [])
    assert judge(op, machine("count-morphisms", good[:3] + [("s3", 35)]))[0] == "incorrect"
    op = plan["vertex-group-wedge.vk"]
    assert judge(op, machine("vertex-group", [("generators", 2), ("relators", 0)])) == ("ok", [])
    assert judge(op, machine("vertex-group", [("generators", 1), ("relators", 0)]))[0] == "incorrect"


def test_bad_workspace_checkers(plan):
    cube = plan["check-bad_cube.vk"]
    witness = f"{DATA / 'bad_cube.vk'}:12: cube: seam d2-.right = e does not match d3+.left = (12)"
    assert judge(cube, machine("check", witnesses=[witness], result="fail"), rc=1) == ("ok", [])
    assert judge(cube, machine("check", result="fail"), rc=1)[0] == "incorrect"
    assert judge(cube, machine("check", witnesses=[witness.replace(":12:", ":11:")],
                               result="fail"), rc=1)[0] == "incorrect"
    assert judge(cube, machine("check", witnesses=[witness], result="fail"), rc=0)[0] == "failed"
    groupoid = plan["check-bad_groupoid.vk"]
    real = "associativity: (u*u)*v != u*(u*v)"
    assert judge(groupoid, machine("check", witnesses=[real], result="fail"), rc=1) == ("ok", [])
    fake = "associativity: (e*u)*v != e*(u*v)"
    assert judge(groupoid, machine("check", witnesses=[fake], result="fail"), rc=1)[0] == "incorrect"


def test_known_faults_fail_as_they_do_today(plan):
    vacuous = machine("suite")
    assert judge(plan["suite-criteria-99"], vacuous)[0] == "failed"
    crash = "FileNotFoundError: [Errno 2] No such file or directory"
    assert judge(plan["check-missing-file"], "", rc=None, error=crash)[0] == "failed"
    # once mended, each passes with exit 1 and a witness
    mended = machine("suite", witnesses=["no criterion matches 99"], result="fail")
    assert judge(plan["suite-criteria-99"], mended, rc=1) == ("ok", [])
    mended = machine("check", witnesses=["cannot read missing.vk"], result="fail")
    assert judge(plan["check-missing-file"], mended, rc=1) == ("ok", [])


def test_criterion_checker(plan):
    op = plan["suite-criteria-7"]
    line = "CRITERION 7 PASS (0.01s) connections thin; transport layout unique"
    assert judge(op, machine("suite", [("criterion_7", "ok")], [line])) == ("ok", [])
    failing = line.replace("PASS", "FAIL")
    assert judge(op, machine("suite", [("criterion_7", "fail")], [failing], result="fail"),
                 rc=1)[0] == "failed"
    assert judge(op, machine("suite", [("criterion_7", "ok")], [failing]))[0] == "incorrect"


def layer_facts():
    """What a correct layer round reports, written out from the oracle."""
    x, y = o.a3s3_squares()[0], next(s for s in o.a3s3_squares() if s[4] == o.a3s3_squares()[0][2])
    quads = o.quadruple_count(6, 3)
    return {
        "a3s3": {"squares": 648, "thin": 216}, "auts3": {"squares": 1296, "thin": 216},
        "count_quadruples": quads, "interchange": {"checked": quads, "violations": 0},
        "counterexample": QUAD,
        **{k: {"checks": 36, "violations": 0}
           for k in ("validate_a3s3", "validate_auts3", "transport", "xmod_validate")},
        "squares_with": {"calls": 10, "found": 360}, "gamma_iso": True,
        "comp_h": [[list(x), list(y), list(o.comp_h(x, y))]], "comp_v": [],
        "folds": [], "cubes": [], "c2_cubes": 128, "perturbations_caught": 50,
        "eckmann": {str(n): dict(zip(("monoids", "interchange_pairs"), o.monoid_counts(n)))
                    for n in (1, 2, 3)},
        "parsed_objects": {"circle.vk": 3},
        "induce": {"rank": 1}, "pushout": {"objects": 2, "generators": 2, "vertex_rank": 1},
        "universal": {g: [n * n, n * n, True] for g, n in o.battery_orders().items()},
        "morphisms_s3": 36, "emit_tail": "RESULT ok",
        "criteria": {str(k): {"status": "ok", "counts": {}} for k in range(1, 13)}
        | {"2": {"status": "ok", "counts": {"s3_morphisms": 36, "s3_cocones": 36}},
           "4": {"status": "ok", "counts": {"quadruples": quads}},
           "8": {"status": "ok", "counts": {"c2_cubes": 128}},
           "11": {"status": "ok", "counts": {"size3_interchange": 27}}},
    }


def test_layer_facts_checker():
    assert checks.check_layer_facts(layer_facts(), DATA) == []
    for path, value in ((("count_quadruples",), 136048895),
                        (("interchange", "violations"), 1),
                        (("criteria", "5", "status"), "fail"),
                        (("eckmann", "3", "monoids"), 32),
                        (("comp_h", 0, 2, 0), "(132)"),
                        (("gamma_iso",), False)):
        facts = layer_facts()
        target = facts
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        assert checks.check_layer_facts(facts, DATA), path
