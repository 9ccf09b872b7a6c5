"""Checkers for every output the benchmark gates on.

Each checker compares one program output with figures from ``oracle``,
never with a saved copy of an earlier output, and returns a list of
problems; an empty list is a pass.  ``judge`` sorts an operation into ok,
failed (crashed, or ended with the wrong exit status) or incorrect (ended
as expected but said something wrong).
"""

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle as o

# Faults the vk-session workload keeps: each fails on every pass until the
# program is mended, and is counted as failed rather than incorrect.
KNOWN_FAILING = ("suite-criteria-99", "check-missing-file")


def parse_machine(text: str) -> dict:
    """Split ``--format machine`` output into its fields; raise on bad framing."""
    lines = text.splitlines()
    if not lines or lines[0] != "FORMAT 1" or not lines[-1].startswith("RESULT "):
        raise ValueError(f"not machine output: {text[:80]!r}")
    out = {"command": None, "counts": {}, "data": [], "witnesses": [],
           "result": lines[-1][len("RESULT "):]}
    for line in lines[1:-1]:
        key, _, rest = line.partition(" ")
        if key == "COMMAND":
            out["command"] = rest
        elif key == "COUNT":
            k, _, v = rest.partition(" ")
            out["counts"][k] = int(v) if re.fullmatch(r"-?\d+", v) else v
        elif key == "DATA":
            out["data"].append(rest)
        elif key == "WITNESS":
            out["witnesses"].append(rest)
        else:
            raise ValueError(f"unknown line {line!r}")
    return out


def _want(counts: dict, **expected) -> list[str]:
    return [f"COUNT {k} is {counts.get(k)!r}, expected {v!r}"
            for k, v in expected.items() if counts.get(k) != v]


def _ok(parsed: dict) -> list[str]:
    return [] if parsed["result"] == "ok" else [f"RESULT {parsed['result']}, expected ok"]


def _failed_with_witness(parsed: dict, mention: str = "") -> list[str]:
    problems = [] if parsed["result"] == "fail" else [f"RESULT {parsed['result']}, expected fail"]
    if not any(mention in w for w in parsed["witnesses"]):
        problems.append(f"no WITNESS mentioning {mention!r}" if mention else "no WITNESS")
    return problems


# -- interchange-a3s3 and lambda-auts3 -------------------------------------------

A3S3 = {"n": len(o.S3), "m": len(o.A3)}
AUTS3 = {"n": len(o.S3), "m": o.automorphism_count()}


def check_counterexample(quad) -> list[str]:
    """Re-evaluate both sides of the corrupted control's arrangement."""
    if not quad or len(quad) != 4:
        return [f"corrupted control gave no arrangement: {quad!r}"]
    x, y, z, w = (tuple(s) for s in quad)
    problems = [f"{o.square_text(s)} breaks the boundary law" for s in quad if not o.boundary_ok(tuple(s))]
    if (x[2], x[3], z[2], y[3]) != (y[4], z[1], w[4], w[1]):
        problems.append("arrangement edges do not meet")
    if problems:
        return problems
    lhs, rhs = o.interchange_sides(x, y, z, w, conjugate=False)
    if lhs == rhs:
        problems.append(f"corrupted sides agree ({o.square_text(lhs)})")
    lhs, rhs = o.interchange_sides(x, y, z, w)
    if lhs != rhs:
        problems.append(f"true sides differ: {o.square_text(lhs)} vs {o.square_text(rhs)}")
    return problems


def check_criterion4(doc: dict) -> list[str]:
    """Criterion 4's report against n^3*k squares and n^8*k^4 arrangements."""
    n, m = A3S3["n"], A3S3["m"]
    problems = [] if doc["status"] == "ok" else [f"status {doc['status']}: {doc['witnesses'][:2]}"]
    problems += _want(doc["counts"], squares=o.square_count(n, m),
                      quadruples=o.quadruple_count(n, m), violations=0,
                      corrupted_counterexample=1)
    return problems + check_counterexample(doc["counterexample"])


def check_lambda(parsed: dict) -> list[str]:
    n, m = AUTS3["n"], AUTS3["m"]
    problems = _ok(parsed) + _want(parsed["counts"], squares=o.square_count(n, m),
                                   thin=o.thin_count(n), violations=0)
    if not isinstance(parsed["counts"].get("checks"), int) or parsed["counts"]["checks"] <= 0:
        problems.append(f"COUNT checks is {parsed['counts'].get('checks')!r}")
    return problems


def check_same_checks(parsed_passes: list[dict]) -> list[str]:
    """Every pass of one seed sweeps the same number of checks."""
    seen = {p["counts"].get("checks") for p in parsed_passes}
    return [] if len(seen) == 1 else [f"check counts differ between passes: {sorted(seen)}"]


AUTS3_WORKSPACE = "group s3 = symmetric(3)\nxmod auts3 = autxmod(s3)\n"


# -- vk-session ------------------------------------------------------------------

@dataclass
class Op:
    label: str
    argv: list[str]
    expect_exit: int
    check: Callable[[dict], list[str]]
    interactive: bool = True  # False for a battery run inside a session


def seeded_squares(seed: int) -> dict[str, tuple]:
    """A square x, a right neighbour y and a lower neighbour z, drawn by seed."""
    rng = random.Random(seed)
    squares = o.a3s3_squares()
    x = rng.choice(squares)
    y = rng.choice([s for s in squares if s[4] == x[2]])
    z = rng.choice([s for s in squares if s[1] == x[3]])
    return {"x": x, "y": y, "z": z}


def seeded_workspace(seed: int) -> str:
    lines = ["group s3 = symmetric(3)", "xmod a3s3 = normal(s3, {e, (123), (132)})"]
    lines += [f"square {nm} = {o.square_text(sq)} over a3s3"
              for nm, sq in seeded_squares(seed).items()]
    return "\n".join(lines) + "\n"


def _square_out(parsed: dict, expected, **counts) -> list[str]:
    """One printed square: it obeys the boundary law and ``expected`` accepts it."""
    problems = _ok(parsed) + _want(parsed["counts"], **counts)
    got = o.parse_square(parsed["data"][0]) if parsed["data"] else None
    if got is None or not o.boundary_ok(got):
        problems.append(f"{parsed['data'][:1]} breaks the boundary law")
    elif expected(got) is not True:
        problems.append(f"{o.square_text(got)}: {expected(got)}")
    return problems


def _equals(sq):
    return lambda got: True if got == sq else f"expected {o.square_text(sq)}"


def _check_workspace(text: str) -> Callable[[dict], list[str]]:
    """`vk check` passes exactly when every square obeys the boundary law."""
    squares = o.vk_squares(text)
    bad = [nm for nm, sq in squares.items() if not o.boundary_ok(sq)]
    objects = len(o.vk_blocks(text))

    def check(parsed):
        if bad:
            return _failed_with_witness(parsed)
        return _ok(parsed) + _want(parsed["counts"], objects=objects) + (
            [] if parsed["counts"].get("violations", 0) == 0 else ["violations reported"])
    return check


def _check_counts(shape: dict, kind: str) -> Callable[[dict], list[str]]:
    """Morphisms (and cocones) into each one-object test group: n^generators."""
    expected = {name: n ** shape["generators"] for name, n in o.battery_orders().items()}

    def check(parsed):
        counts = parsed["counts"]
        if kind == "count-morphisms":
            return _ok(parsed) + _want(counts, **expected)
        return _ok(parsed) + _want(counts, **{f"{g}_{side}": v for g, v in expected.items()
                                              for side in ("morphisms", "cocones")})
    return check


def _check_print(text: str) -> Callable[[dict], list[str]]:
    # `vk print` has no printer for grids and cubes and leaves them out (see
    # the README's faults); every other definition must come back by name.
    names = {(kind, nm) for kind, nm, _, _ in o.vk_blocks(text) if kind not in ("grid", "cube")}

    def check(parsed):
        problems = _ok(parsed)
        heads = {tuple(re.split(r"[\s=:]+", d)[:2]) for d in parsed["data"] if d}
        problems += [f"{kind} {nm} missing from print" for kind, nm in names
                     if (kind, nm) not in heads]
        for line in parsed["data"]:
            mm = re.fullmatch(r"mul (\S+) (\S+) = (\S+)", line)
            if mm and mm[1] in o.S3 and mm[2] in o.S3 and o.mul(mm[1], mm[2]) != mm[3]:
                problems.append(f"wrong product: {line}")
        return problems
    return check


def _check_bad_groupoid(text: str) -> Callable[[dict], list[str]]:
    """Each associativity witness names a triple the file's table really breaks."""
    table = o.vk_finite_table(text, "lopsided")

    def check(parsed):
        problems = _failed_with_witness(parsed, "associativity")
        for w in parsed["witnesses"]:
            mm = re.fullmatch(r"associativity: \((\w)\*(\w)\)\*(\w) != (\w)\*\((\w)\*(\w)\)", w)
            if not mm:
                problems.append(f"unreadable witness {w!r}")
                continue
            a, b, c = mm[1], mm[2], mm[3]
            if table[(table[(a, b)], c)] == table[(a, table[(b, c)])]:
                problems.append(f"witness {w!r} is associative in the file")
        return problems
    return check


def _check_bad_cube(text: str, path: Path) -> Callable[[dict], list[str]]:
    line = next(no for kind, _, no, _ in o.vk_blocks(text) if kind == "cube")
    return lambda parsed: _failed_with_witness(parsed, f"{path.name}:{line}:")


def _check_criterion(key: str) -> Callable[[dict], list[str]]:
    def check(parsed):
        problems = _ok(parsed)
        if parsed["counts"].get(f"criterion_{key}", "ok") != "ok":
            problems.append(f"COUNT criterion_{key} is {parsed['counts'][f'criterion_{key}']!r}")
        if not any(d.startswith(f"CRITERION {key} PASS") for d in parsed["data"]):
            problems.append(f"no CRITERION {key} PASS line")
        return problems
    return check


def session_plan(data: Path, seeded: Path, missing: Path, seed: int) -> list[Op]:
    """The vk-session commands, each with its exit status and checker."""
    text = {p.name: p.read_text() for p in data.glob("*.vk")}
    text[seeded.name] = seeded.read_text()
    common = ["--format", "machine", "--seed", str(seed)]
    ops = []

    def op(label, args, check, expect_exit=0, interactive=True):
        ops.append(Op(label, common + [str(a) for a in args], expect_exit, check, interactive))

    good = ("a3s3.vk", "circle.vk", "squares.vk", "wedge.vk", "disk_module.vk")
    for nm in good + (seeded.name,):
        path = seeded if nm == seeded.name else data / nm
        op(f"check-{nm}", ["check", path], _check_workspace(text[nm]))
    for nm, span, base in (("circle.vk", "circle", "0"), ("wedge.vk", "wedge", "p")):
        shape = o.span_pushout_shape(text[nm], span)
        rank = shape["generators"] - shape["objects"] + 1

        def pushout_check(parsed, shape=shape):
            problems = _ok(parsed) + _want(parsed["counts"], objects=shape["objects"],
                                           generators=shape["generators"],
                                           relations=shape["relations"])
            gens = parsed["data"][0].strip("⟨⟩ |").split(", ") if parsed["data"] else []
            return problems + ([] if sorted(gens) == shape["generator_names"]
                               else [f"generators {gens} != {shape['generator_names']}"])

        def vertex_check(parsed, rank=rank):
            return _ok(parsed) + _want(parsed["counts"], generators=rank, relators=0)

        op(f"pushout-{nm}", ["pushout", data / nm], pushout_check)
        op(f"vertex-group-{nm}", ["vertex-group", data / nm, "--base", base], vertex_check)
        op(f"check-universal-{nm}", ["check-universal", data / nm],
           _check_counts(shape, "check-universal"))
        op(f"count-morphisms-{nm}", ["count-morphisms", data / nm],
           _check_counts(shape, "count-morphisms"))
    disk = o.vk_presentations(text["disk_module.vk"])
    for pres in ("interval", "cinf"):
        op(f"count-morphisms-{pres}",
           ["count-morphisms", data / "disk_module.vk", "--presentation", pres],
           _check_counts({"generators": len(disk[pres]["generators"])}, "count-morphisms"))

    sq = o.vk_squares(text["squares.vk"])
    op("square-compose-bundled",
       ["square", "compose", data / "squares.vk", "--left", "sq_left", "--right", "sq_right"],
       lambda p: _square_out(p, _equals(o.comp_h(sq["sq_left"], sq["sq_right"])), boundary_ok=1))
    mine = o.vk_squares(text[seeded.name])
    x, y, z = mine["x"], mine["y"], mine["z"]
    op("square-compose-h", ["square", "compose", seeded, "--left", "x", "--right", "y", "--dir", "h"],
       lambda p: _square_out(p, _equals(o.comp_h(x, y)), boundary_ok=1))
    op("square-compose-v", ["square", "compose", seeded, "--left", "x", "--right", "z", "--dir", "v"],
       lambda p: _square_out(p, _equals(o.comp_v(x, z)), boundary_ok=1))
    op("square-invert-h", ["square", "invert", seeded, "--name", "x", "--dir", "h"],
       lambda p: _square_out(p, lambda g: True if o.comp_h(x, g) == o.eps_h(x[4])
                             else "x pasted with it is not the horizontal identity", boundary_ok=1))
    op("square-invert-v", ["square", "invert", seeded, "--name", "x", "--dir", "v"],
       lambda p: _square_out(p, lambda g: True if o.comp_v(x, g) == o.eps_v(x[1])
                             else "x pasted with it is not the vertical identity", boundary_ok=1))
    demo = o.comp_v(o.comp_h(sq["g00"], sq["g01"]), o.comp_h(sq["g10"], sq["g11"]))

    op("grid-compose", ["grid", "compose", data / "squares.vk", "--name", "demo"],
       lambda p: _square_out(p, _equals(demo), rows=2, cols=2))

    def cube_check(parsed):
        problems = _ok(parsed) + _want(parsed["counts"], commutative=1, oracle=1)
        faces = {d.split(":", 1)[0]: o.parse_square(d.split(":", 1)[1]) for d in parsed["data"]}
        if faces.get("fold") != sq["f_lid"] or faces.get("lid") != sq["f_lid"]:
            problems.append(f"fold/lid {parsed['data']} differ from f_lid")
        return problems

    op("cube-check", ["cube", "check", data / "squares.vk", "--name", "box"], cube_check)

    normal = o.is_normal(o.A3)
    op("xmod-validate", ["xmod", "validate", data / "a3s3.vk"],
       lambda p: (_ok(p) + _want(p["counts"], violations=0)) if normal else _failed_with_witness(p))
    op("xmod-gamma", ["xmod", "gamma", data / "a3s3.vk"],
       lambda p: _ok(p) + _want(p["counts"], violations=0, roundtrip_iso=1))

    def eh_check(parsed):
        want = {}
        for n in (1, 2, 3):
            monoids, commutative = o.monoid_counts(n)
            want |= {f"size{n}_monoids": monoids, f"size{n}_interchange_pairs": commutative,
                     f"size{n}_filtered_out": monoids * monoids - commutative}
        return _ok(parsed) + _want(parsed["counts"], violations=0, **want)

    op("eh-scan", ["eh-scan", "--max-size", "3"], eh_check)
    sites = o.vk_module_generators(text["disk_module.vk"], "disk")
    wrap = o.vk_morphism_objects(text["disk_module.vk"], "wrap")
    op("induce", ["induce", data / "disk_module.vk", "--module", "disk", "--morphism", "wrap"],
       lambda p: _ok(p) + _want(p["counts"], rank=len(sites)) + (
           [] if sorted(p["data"]) == sorted(f"mgen {g} at {wrap[s]}" for g, s in sites.items())
           else [f"sites {p['data']}"]))
    for nm in good:
        op(f"print-{nm}", ["print", data / nm], _check_print(text[nm]))
    op("check-bad_groupoid.vk", ["check", data / "bad_groupoid.vk"],
       _check_bad_groupoid(text["bad_groupoid.vk"]), expect_exit=1)
    op("check-bad_cube.vk", ["check", data / "bad_cube.vk"],
       _check_bad_cube(text["bad_cube.vk"], data / "bad_cube.vk"), expect_exit=1)
    for key in [str(k) for k in range(1, 13) if k != 4]:
        op(f"suite-criteria-{key}", ["suite", "--criteria", key], _check_criterion(key),
           interactive=False)
    # The two faults: both should end with exit 1 and a witness.
    op("suite-criteria-99", ["suite", "--criteria", "99"], _failed_with_witness, expect_exit=1,
       interactive=False)
    op("check-missing-file", ["check", missing],
       lambda p: _failed_with_witness(p, missing.name), expect_exit=1)
    return ops


def judge(op: Op, result: dict) -> tuple[str, list[str]]:
    """'ok', 'failed' (crash or wrong exit status) or 'incorrect', with problems."""
    if result.get("error"):
        return "failed", [result["error"]]
    if result["rc"] != op.expect_exit:
        return "failed", [f"exit {result['rc']}, expected {op.expect_exit}"]
    try:
        problems = op.check(parse_machine(result["out"]))
    except (ValueError, KeyError, IndexError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return ("incorrect" if problems else "ok"), problems


# -- facts from the traced layer round -------------------------------------------

def check_layer_facts(facts: dict, data: Path) -> list[str]:
    """What the direct layer calls returned, against the oracle's figures."""
    n, k, a = A3S3["n"], A3S3["m"], AUTS3["m"]
    problems = []

    def want(label, got, expected):
        if got != expected:
            problems.append(f"{label}: {got!r}, expected {expected!r}")

    want("a3s3 model", facts["a3s3"], {"squares": o.square_count(n, k), "thin": o.thin_count(n)})
    want("auts3 model", facts["auts3"], {"squares": o.square_count(n, a), "thin": o.thin_count(n)})
    want("quadruple count", facts["count_quadruples"], o.quadruple_count(n, k))
    want("interchange sweep", facts["interchange"],
         {"checked": o.quadruple_count(n, k), "violations": 0})
    problems += check_counterexample(facts["counterexample"])
    for label in ("validate_a3s3", "validate_auts3", "transport", "xmod_validate"):
        want(f"{label} violations", facts[label]["violations"], 0)
    want("transport checks", facts["transport"]["checks"], n * n)
    want("squares_with results", facts["squares_with"]["found"],
         facts["squares_with"]["calls"] * n * a)
    want("gamma round trip", facts["gamma_iso"], True)
    for label, compose in (("comp_h", o.comp_h), ("comp_v", o.comp_v)):
        for x, y, got in facts[label]:
            want(label, tuple(got), compose(tuple(x), tuple(y)))
    for fold in facts["folds"]:
        rows = [[tuple(c) for c in row] for row in fold["cells"]]
        row_folds = []
        for row in rows:
            acc = row[0]
            for cell in row[1:]:
                acc = o.comp_h(acc, cell)
            row_folds.append(acc)
        acc = row_folds[0]
        for r in row_folds[1:]:
            acc = o.comp_v(acc, r)
        want("3x3 fold orders", [tuple(r) for r in fold["results"]], [acc])
    for cube in facts["cubes"]:
        for slot, (elt, top, right, bottom, left) in cube.items():
            if elt != "e" or o.mul(top, right) != o.mul(left, bottom):
                problems.append(f"cube face {slot} does not commute")
    want("cubes over c2", facts["c2_cubes"], 2 ** 7)  # n^(vertices - 1) edge labellings
    want("perturbations caught", facts["perturbations_caught"], 50)
    for size, totals in facts["eckmann"].items():
        monoids, commutative = o.monoid_counts(int(size))
        want(f"size {size} monoids", (totals["monoids"], totals["interchange_pairs"]),
             (monoids, commutative))
    for nm, count in facts["parsed_objects"].items():
        want(f"objects parsed from {nm}", count, len(o.vk_blocks((data / nm).read_text())))
    want("induced rank", facts["induce"]["rank"], 1)
    want("circle pushout", facts["pushout"], {"objects": 2, "generators": 2, "vertex_rank": 1})
    want("universal counts", facts["universal"],
         {g: [m ** 2, m ** 2, True] for g, m in o.battery_orders().items()})
    want("morphisms into s3", facts["morphisms_s3"], n ** 2)
    want("emit", facts["emit_tail"], "RESULT ok")
    crit = facts["criteria"]
    for key, rep in crit.items():
        want(f"criterion {key}", rep["status"], "ok")
    want("criterion 4 quadruples", crit["4"]["counts"].get("quadruples"), o.quadruple_count(n, k))
    want("criterion 2 into s3", [crit["2"]["counts"].get(f"s3_{s}") for s in ("morphisms", "cocones")],
         [n ** 2, n ** 2])
    want("criterion 8 cubes over c2", crit["8"]["counts"].get("c2_cubes"), 2 ** 7)
    want("criterion 11 size 3", crit["11"]["counts"].get("size3_interchange"),
         o.monoid_counts(3)[1])
    return problems
