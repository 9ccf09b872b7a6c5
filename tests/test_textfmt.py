import importlib.resources as resources

import pytest

from gpdkit.errors import DuplicateName, ParseError, UnresolvedReference
from gpdkit.textfmt import parse_workspace, print_workspace
from gpdkit.vkt import pushout, tietze_simplify, vertex_group


def data(name: str) -> str:
    return str(resources.files("gpdkit").joinpath("data", name))


def test_circle_file_contents():
    ws = parse_workspace([data("circle.vk")])
    assert len(ws.spans) == 1
    assert len(ws.presentations) == 2
    span = ws.spans["circle"]
    po = pushout(span)
    vg = tietze_simplify(vertex_group(po.presentation, "0"))
    assert vg.pretty() == "⟨x_b | ⟩"


def test_squares_file(a3s3):
    ws = parse_workspace([data("squares.vk")])
    assert set(ws.xmods) == {"a3s3"}
    assert "demo" in ws.grids
    assert "box" in ws.cubes
    from gpdkit.cubes import is_commutative_cube
    from gpdkit.squares import comp_h

    assert is_commutative_cube(ws.cubes["box"])
    assert comp_h(ws.squares["sq_left"], ws.squares["sq_right"]) == ws.squares["sq_row"]


def test_bad_cube_file_reports_seam():
    with pytest.raises(ParseError) as err:
        parse_workspace([data("bad_cube.vk")])
    assert "seam" in str(err.value)


def test_disk_module_file():
    ws = parse_workspace([data("disk_module.vk")])
    assert ws.modules["disk"].rank() == 1
    assert ws.morphisms["wrap"].gen_map["i"].letters[0][0].name == "t"


def test_unresolved_object_reference():
    content = "groupoid g\nobjects: 0\ngen a: 0 -> 9\n"
    with pytest.raises(UnresolvedReference) as err:
        parse_workspace([("inline.vk", content)])
    assert err.value.line_no == 3
    assert "9" in str(err.value)


def test_unresolved_generator_in_relation():
    content = "groupoid g\nobjects: 0\ngen a: 0 -> 0\nrel: zz = id(0)\n"
    with pytest.raises(UnresolvedReference) as err:
        parse_workspace([("inline.vk", content)])
    assert "zz" in str(err.value)


def test_duplicate_names_rejected():
    content = "groupoid g\nobjects: 0\n\ngroupoid g\nobjects: 1\n"
    with pytest.raises(DuplicateName) as err:
        parse_workspace([("inline.vk", content)])
    assert err.value.line_no == 4


def test_error_carries_position():
    content = "groupoid g\nobjects: 0\nnonsense line\n"
    with pytest.raises(ParseError) as err:
        parse_workspace([("somewhere.vk", content)])
    assert err.value.path == "somewhere.vk"
    assert err.value.line_no == 3


def test_comments_and_blank_lines_ignored():
    content = "# header\n\ngroupoid g  # trailing\nobjects: 0 1\ngen a: 0 -> 1\n"
    ws = parse_workspace([("inline.vk", content)])
    assert "g" in ws.presentations


def test_group_and_xmod_constructors():
    content = (
        "group s3 = symmetric(3)\n"
        "group c2 = cyclic(2)\n"
        "group one = trivial()\n"
        "finite fs3 = group(s3)\n"
        "finite iv = interval()\n"
        "xmod a3 = normal(s3, {e, (123), (132)})\n"
        "xmod auts3 = autxmod(s3)\n"
        "xmod sq = trivial(fs3)\n"
    )
    ws = parse_workspace([("inline.vk", content)])
    assert ws.groups["s3"].order() == 6
    assert ws.finites["iv"].size() == 4
    from gpdkit.crossed import validate_crossed_module

    for xm in ws.xmods.values():
        assert validate_crossed_module(xm).ok


def test_literal_finite_and_group_and_xmod():
    content = (
        "group c2\n"
        "elements: e t\n"
        "mul e e = e\nmul e t = t\nmul t e = t\nmul t t = e\n"
        "finite pt\n"
        "arrow e: p -> p id\n"
        "mul e e = e\n"
        "xmod shadow\n"
        "base pt\n"
        "fiber p c2\n"
        "mu e -> e\nmu t -> e\n"
        "act e ^ e = e\nact t ^ e = t\n"
    )
    ws = parse_workspace([("inline.vk", content)])
    from gpdkit.crossed import validate_crossed_module

    assert validate_crossed_module(ws.xmods["shadow"]).ok


def test_roundtrip_print_parse():
    for name in ("circle.vk", "a3s3.vk", "squares.vk", "disk_module.vk", "wedge.vk"):
        if name == "squares.vk":
            # grids and cubes are not reprinted; use the printable subset
            continue
        ws1 = parse_workspace([data(name)])
        text1 = print_workspace(ws1)
        ws2 = parse_workspace([("canon.vk", text1)])
        assert print_workspace(ws2) == text1


def test_roundtrip_squares_subset():
    ws1 = parse_workspace([data("squares.vk")])
    text1 = print_workspace(ws1)
    ws2 = parse_workspace([("canon.vk", text1)])
    assert print_workspace(ws2) == text1
    assert set(ws2.squares) == set(ws1.squares)


def test_morphism_into_finite_groupoid_parses():
    content = (
        "group s3 = symmetric(3)\n"
        "finite fs3 = group(s3)\n"
        "groupoid loop\nobjects: p\ngen x: p -> p\n"
        "morphism ev: loop -> fs3\nobj p -> *\ngen x -> (123)\n"
    )
    ws = parse_workspace([("inline.vk", content)])
    m = ws.morphisms["ev"]
    assert m.gen_map["x"] == "(123)"


def test_full_form_span_parses():
    content = (
        "groupoid apex\nobjects: 0\n"
        "groupoid left_t\nobjects: 0\ngen x: 0 -> 0\n"
        "groupoid right_t\nobjects: 0\ngen y: 0 -> 0\n"
        "morphism lm: apex -> left_t\nobj 0 -> 0\n"
        "morphism rm: apex -> right_t\nobj 0 -> 0\n"
        "span w: left lm right rm\n"
    )
    ws = parse_workspace([("inline.vk", content)])
    po = pushout(ws.spans["w"])
    assert sorted(g.name for g in po.presentation.generators) == ["x", "y"]


@pytest.mark.parametrize("ctor, least", [
    ("cyclic(x)", 1),
    ("cyclic(0)", 1),
    ("cyclic(-2)", 1),
    ("cyclic(257)", 1),
    ("cyclic(100000000)", 1),
    ("symmetric(-1)", 0),
    ("symmetric(5)", 0),
])
def test_group_constructor_argument_fails_at_its_line(monkeypatch, ctor, least):
    # a missing bound must fail here, not build a 10^16-entry table
    monkeypatch.setattr("gpdkit.textfmt.cyclic_group", lambda n: pytest.fail(f"cyclic({n}) built"))
    most = 256 if ctor.startswith("cyclic") else 4
    content = f"group s3 = symmetric(3)\ngroup g = {ctor}\n"
    with pytest.raises(ParseError) as err:
        parse_workspace([("inline.vk", content)])
    assert (err.value.path, err.value.line_no) == ("inline.vk", 2)
    assert f"{ctor}: the argument must be an integer >= {least} and <= {most}" in str(err.value)
